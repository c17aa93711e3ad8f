"""Seeded end-to-end property: every CLI output judged by `bench/verify.py`.

`verify.py` recomputes each output from the generated CSVs with numpy alone,
never importing tarifflab, so it is loaded here by path. Its module-level
constants fix the calibration, so only the data size and seed are drawn.
N = 3 is left out because its 400-step grid box costs seconds per `check`.
"""

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tarifflab.cli import main
from tarifflab.synthetic import write_synthetic_csvs

_VERIFY_PATH = Path(__file__).parents[1] / "bench" / "verify.py"
_spec = importlib.util.spec_from_file_location("bench_verify", _VERIFY_PATH)
verify = importlib.util.module_from_spec(_spec)
# dataclasses look a class's module up in sys.modules
sys.modules[_spec.name] = verify
_spec.loader.exec_module(verify)


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv[0]} exited {code}"
    return out.getvalue()


# a baseline rate above the flat monopoly rate makes the low flat root
# negative, which the solvers warn about and the checker still judges
@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
@settings(max_examples=30, deadline=None)
@given(
    days=st.integers(min_value=5, max_value=40),
    periods=st.sampled_from([1, 2, 4, 5, 6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pipeline_outputs_pass_the_independent_checker(days, periods, seed):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        load, prices = write_synthetic_csvs(work, days, periods, seed)
        ref = verify.Reference(load, prices)
        model = work / "model.tlm"
        errors = []

        stdout = _run("fit", "--load", str(load), "--prices", str(prices),
                      "--out", str(model))
        errors += verify.check_model_file(ref, model)
        errors += verify.check_fit_stdout(ref, stdout)

        for family in verify.FAMILIES:
            out = work / f"solve-{family}.csv"
            _run("solve", "--model", str(model), "--family", family,
                 "--target-rs", "baseline", "--out", str(out))
            errors += verify.check_solve_csv(ref, out, family, None)
            errors += verify.check_manifest(out, model, "solve")

        out, svg = work / "fronts.csv", work / "fronts.svg"
        _run("pareto", "--model", str(model), "--families", "all",
             "--steps", str(verify.STEPS), "--out", str(out), "--svg", str(svg))
        errors += verify.check_front(ref, verify.read_rows(out.read_text()))
        errors += verify.check_svg(svg)

        errors += verify.check_check_output(ref, _run("check", "--model", str(model)))
        assert not errors, errors
