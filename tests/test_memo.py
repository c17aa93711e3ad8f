"""The model-file memo: the parsed payload stored as binary arrays beside the
text, keyed on the text's sha256.

A memo read must give the text parse bit for bit, and no memo, however
broken, may change what a command prints, writes or exits with.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_model_reader
import tarifflab as tl
from conftest import random_linear_model
from tarifflab import ingest
from tarifflab.cli import main
from tarifflab.synthetic import write_synthetic_csvs

# every line break str.splitlines() knows
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# provenance text: any character but a line break, NUL and " = " included
ONE_LINE = st.text(st.characters(codec="utf-8", exclude_characters=LINE_BREAKS),
                   max_size=8)


def _fitted(out_dir, days, periods, seed, customers=2_200_000):
    load, prices = write_synthetic_csvs(out_dir, days, periods, seed)
    config = tl.CalibrationConfig(customers=customers)
    scenarios = tl.estimate_moments(
        tl.parse_csv(load, "load"), tl.parse_csv(prices, "price")
    )
    return tl.calibrate_demand(scenarios, config), config


def _bits(x) -> np.ndarray:
    """The bits of a float array or scalar, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_payload(got: ingest.ModelFilePayload, want: ingest.ModelFilePayload):
    for name in ("G", "lams", "omegas"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(_bits(a), _bits(b)), name
    for name in ("baseline_flat_rate", "baseline_connection_charge"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or (type(a), _bits(a)) == (type(b), _bits(b)), name
    for name in ("periods", "customers", "provenance"):
        a, b = getattr(got, name), getattr(want, name)
        assert (type(a), a) == (type(b), b), name
    assert list(got.provenance) == list(want.provenance)


def _reads_back(path: Path, provenance: dict) -> bool:
    """Whether the reference reader gives `provenance` back, as written, from
    its lines appended to a copy of the model file `path`."""
    copy = path.with_name("appended.tlm")
    lines = "".join(f"provenance.{k} = {v}\n" for k, v in provenance.items())
    copy.write_bytes(path.read_bytes() + lines.encode())
    try:
        read = reference_model_reader.read_model_file(copy).provenance
    except tl.ModelFileError:
        return False
    return read == {f"{k}": f"{v}" for k, v in provenance.items()}


def _outcome(read, path):
    try:
        return read(path), None
    except tl.TariffLabError as exc:
        return None, (type(exc), exc.line, str(exc))


# --- a memo read is the text parse ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    periods=st.integers(1, 4),
    days=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    customers=st.sampled_from([1, 7, 2_200_000]),
    with_baseline=st.booleans(),
    provenance=st.dictionaries(ONE_LINE, ONE_LINE, max_size=3),
)
def test_memo_read_equals_text_parse(
    tmp_path_factory, periods, days, seed, customers, with_baseline, provenance
):
    out = tmp_path_factory.mktemp("memo")
    model, config = _fitted(out, days, periods, seed, customers)
    path = out / "model.tlm"
    baseline = config if with_baseline else None
    # provenance the reader would not give back is refused before any write
    tl.write_model_file(out / "bare.tlm", model, baseline=baseline)
    if not _reads_back(out / "bare.tlm", provenance):
        with pytest.raises(ValueError, match="read back as written"):
            tl.write_model_file(path, model, baseline=baseline, provenance=provenance)
        assert not path.exists()
        return
    tl.write_model_file(path, model, baseline=baseline, provenance=provenance)
    text, error = _outcome(ingest._parse_model_text, path)
    digest = ingest.file_digest(path)
    memo = ingest._read_memo(path, digest)
    # every file the writer leaves reads back, from its memo as from its text
    assert memo is not None and error is None
    got, got_error = _outcome(tl.read_model_file, path)
    assert got_error is None
    assert_same_payload(memo, text)
    assert_same_payload(got, text)
    assert got.digest == digest


def test_hit_skips_the_text(tmp_path, monkeypatch):
    model, config = _fitted(tmp_path, 3, 2, 1)
    path = tmp_path / "model.tlm"
    tl.write_model_file(path, model, baseline=config)
    want = ingest._parse_model_text(path)

    def unreachable(path):
        raise AssertionError("the text was parsed")

    monkeypatch.setattr(ingest, "_parse_model_text", unreachable)
    assert_same_payload(tl.read_model_file(path), want)


@pytest.mark.parametrize("provenance", [
    {"x\ny": "1"},            # a key that breaks its line
    {"": ""},                 # "provenance. =": no separator once stripped
    {"a = b": "c  "},         # it would read back as key "a", value "b = c"
    {"k": "v\x00"},           # a trailing NUL the reader keeps
])
def test_provenance_the_reader_splits_its_own_way(tmp_path, provenance):
    model, _ = _fitted(tmp_path, 3, 1, 2)
    path = tmp_path / "model.tlm"
    tl.write_model_file(tmp_path / "bare.tlm", model)
    if not _reads_back(tmp_path / "bare.tlm", provenance):  # all but the NUL
        with pytest.raises(ValueError, match="read back as written"):
            tl.write_model_file(path, model, provenance=provenance)
        assert not path.exists()
        return
    tl.write_model_file(path, model, provenance=provenance)
    text, error = _outcome(ingest._parse_model_text, path)
    got, got_error = _outcome(tl.read_model_file, path)
    assert error is None and got_error is None
    assert_same_payload(got, text)
    assert got.provenance == provenance


def test_no_memo_for_a_file_the_reader_refuses(tmp_path):
    model, _ = _fitted(tmp_path, 3, 2, 3)
    path = tmp_path / "model.tlm"
    # the writer refuses it, by the reader's own error, before opening the file
    with pytest.raises(ValueError, match=":3: customers must be >= 1"):
        tl.write_model_file(path, dataclasses.replace(model, customers=0))
    assert not path.exists()
    assert not ingest.memo_path(path).exists()


# --- writes that are refused, or whose memo cannot be written ---------------


def _pair(path: Path):
    memo = ingest.memo_path(path)
    return tuple(p.read_bytes() if p.exists() else None for p in (path, memo))


def test_refused_writes_leave_the_pair(tmp_path):
    model, config = _fitted(tmp_path, 4, 2, 4)
    load, prices = write_synthetic_csvs(tmp_path, 4, 2, 4)
    fresh, kept = tmp_path / "fresh.tlm", tmp_path / "kept.tlm"
    tl.write_model_file(kept, model, baseline=config, provenance={"created": "t0"})
    before = _pair(kept)
    assert None not in before
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="single-line"):
            tl.write_model_file(path, model, provenance={"note": "a\u2028b"})
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["fit", "--load", str(load), "--prices", str(prices),
                         "--connection-charge", "1e308", "--out", str(path)])
        assert code == 2
    assert _pair(fresh) == (None, None)
    assert _pair(kept) == before


def test_text_that_is_not_utf8_is_refused_before_the_file(tmp_path):
    model, _ = _fitted(tmp_path, 3, 1, 2)
    path = tmp_path / "model.tlm"
    tl.write_model_file(path, model, provenance={"created": "t0"})
    before = _pair(path)
    with pytest.raises(UnicodeEncodeError):
        tl.write_model_file(path, model, provenance={"note": "\udc80"})
    assert _pair(path) == before


# the types a caller's baseline value may have; each is written as its float
BASELINE_TYPES = (float, np.float64, np.float32, int)


@pytest.fixture(scope="module")
def bare_model_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("bare") / "bare.tlm"
    tl.write_model_file(path, random_linear_model(0, 2, 3))
    return path


@settings(max_examples=60, deadline=None)
@given(
    periods=st.integers(1, 4),
    scenarios=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    customers=st.sampled_from([0, 1, 7, 2_200_000]),
    baseline=st.none() | st.tuples(
        st.sampled_from(BASELINE_TYPES), st.floats(1.0, 5.0), st.floats(0.0, 100.0)),
    provenance=st.dictionaries(ONE_LINE, ONE_LINE, max_size=3),
    scale=st.sampled_from([1.0, 1e160]),  # at 1e160 sigma overflows
)
def test_the_writer_writes_only_what_reads_back(
    tmp_path_factory, bare_model_file, periods, scenarios, seed, customers, baseline,
    provenance, scale,
):
    out = tmp_path_factory.mktemp("writes")
    base = random_linear_model(seed, periods, scenarios)
    with np.errstate(over="ignore"):
        model = tl.LinearDemandModel(
            G=base.G,
            scenarios=tl.ScenarioSet(base.scenarios.lams * scale,
                                     base.scenarios.omegas * scale),
            customers=customers,
        )
        overflows = not np.isfinite(model.scenarios.sigma_lambda_omega).all()
    if baseline is not None:
        kind, rate, charge = baseline
        baseline = tl.CalibrationConfig(flat_rate=kind(rate),
                                        connection_charge=kind(charge))
    refused = customers < 1 or overflows or not _reads_back(bare_model_file, provenance)
    fresh, kept = out / "fresh.tlm", out / "kept.tlm"
    tl.write_model_file(kept, base, provenance={"created": "t0"})
    before = _pair(kept)
    for path in (fresh, kept):
        with np.errstate(over="ignore"), (
            pytest.raises(ValueError) if refused else contextlib.nullcontext()
        ):
            tl.write_model_file(path, model, baseline=baseline, provenance=provenance)
    if refused:
        assert _pair(fresh) == (None, None)
        assert _pair(kept) == before
        return
    rates = (None, None) if baseline is None else (
        float(baseline.flat_rate), float(baseline.connection_charge))
    for path in (fresh, kept):
        read = reference_model_reader.read_model_file(path)
        for got, want in ((read.G, model.G), (read.lams, model.scenarios.lams),
                          (read.omegas, model.scenarios.omegas)):
            assert np.array_equal(_bits(got), _bits(want))
        assert (read.baseline_flat_rate, read.baseline_connection_charge) == rates
        assert read.customers == customers
        assert read.provenance == {f"{k}": f"{v}" for k, v in provenance.items()}
        memo = ingest._read_memo(path, ingest.file_digest(path))
        assert memo is not None
        assert_same_payload(memo, ingest._parse_model_text(path))


def _strip_created(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("provenance.created = ")
    )


def test_fit_when_the_memo_cannot_be_written(tmp_path):
    load, prices = write_synthetic_csvs(tmp_path, 4, 2, 5)
    normal, blocked = tmp_path / "normal.tlm", tmp_path / "blocked.tlm"
    ingest.memo_path(blocked).mkdir()
    for out in (normal, blocked):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["fit", "--load", str(load), "--prices", str(prices),
                         "--out", str(out)])
        assert code == 0
    assert _strip_created(blocked.read_text()) == _strip_created(normal.read_text())
    assert ingest.memo_path(blocked).is_dir()
    # no temp file is left behind, and the read goes to the text
    assert sorted(p.name for p in tmp_path.glob("blocked*")) == [
        "blocked.tlm", "blocked.tlm.npz",
    ]
    assert_same_payload(tl.read_model_file(blocked), ingest._parse_model_text(blocked))


# --- a bad memo never changes a result --------------------------------------


@dataclasses.dataclass
class MemoCase:
    model: Path
    memo: Path
    good: bytes
    header: dict
    arrays: dict
    reference: tuple


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _outputs(model: Path) -> tuple:
    """stdout and exit code of a solve and a check, and the solve's files."""
    csv = model.with_name("solve.csv")
    manifest = Path(f"{csv}.manifest.json")
    for p in (csv, manifest):
        p.unlink(missing_ok=True)
    solve = _run("solve", "--model", str(model), "--family", "linear",
                 "--target-rs", "baseline", "--out", str(csv))
    files = None
    if csv.exists():
        record = json.loads(manifest.read_text())
        record.pop("created")
        files = (csv.read_text(), record)
    return solve, files, _run("check", "--model", str(model))


@pytest.fixture(scope="module")
def memo_case(tmp_path_factory) -> MemoCase:
    out = tmp_path_factory.mktemp("memo_case")
    load, prices = write_synthetic_csvs(out, 6, 2, 7)
    model = out / "model.tlm"
    assert _run("fit", "--load", str(load), "--prices", str(prices),
                "--out", str(model))[0] == 0
    memo = ingest.memo_path(model)
    good = memo.read_bytes()
    with np.load(memo) as stored:
        header = json.loads(stored["header"].tobytes())
        arrays = {k: stored[k] for k in ("G", "lams", "omegas")}
    memo.unlink()
    reference = _outputs(model)
    assert reference[0][0] == 0 and reference[2][0] == 0
    return MemoCase(model, memo, good, header, arrays, reference)


def _write_npz(path: Path, header: dict, arrays: dict) -> None:
    with path.open("wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                 **arrays)


def _write_npy(path: Path, array: np.ndarray) -> None:
    with path.open("wb") as fh:
        np.save(fh, array)


def _replace(arrays: dict, **changes) -> dict:
    return {**arrays, **changes}


BAD_MEMOS = {
    "object array": lambda c: _write_npz(
        c.memo, c.header, _replace(c.arrays, G=c.arrays["G"].astype(object))),
    "float32 array": lambda c: _write_npz(
        c.memo, c.header, _replace(c.arrays, lams=c.arrays["lams"].astype(np.float32))),
    "wrong shape": lambda c: _write_npz(
        c.memo, c.header, _replace(c.arrays, omegas=c.arrays["omegas"][:-1])),
    "non-finite array": lambda c: _write_npz(
        c.memo, c.header, _replace(c.arrays, G=c.arrays["G"] * np.inf)),
    "missing member": lambda c: _write_npz(
        c.memo, c.header, {k: v for k, v in c.arrays.items() if k != "omegas"}),
    "stale digest": lambda c: _write_npz(
        c.memo, {**c.header, "digest": "sha256:" + "0" * 64}, c.arrays),
    "header of wrong types": lambda c: _write_npz(
        c.memo, {**c.header, "customers": "2200000"}, c.arrays),
    "header not an object": lambda c: _write_npz(c.memo, [c.header], c.arrays),
    "plain npy file": lambda c: _write_npy(c.memo, c.arrays["lams"]),
    "pickled object": lambda c: _write_npy(c.memo, np.array([{}], dtype=object)),
    "empty file": lambda c: c.memo.write_bytes(b""),
    "directory": lambda c: c.memo.mkdir(),
}


@pytest.mark.parametrize("kind", sorted(BAD_MEMOS))
def test_malformed_memo_changes_nothing(memo_case, kind):
    try:
        BAD_MEMOS[kind](memo_case)
        assert _outputs(memo_case.model) == memo_case.reference
    finally:
        if memo_case.memo.is_dir():
            memo_case.memo.rmdir()
        memo_case.memo.unlink(missing_ok=True)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_memo_changes_nothing(memo_case, data):
    good = memo_case.good
    k = data.draw(st.integers(0, len(good) - 1))
    if data.draw(st.booleans()):
        bad = good[:k]
    else:
        flip = data.draw(st.integers(1, 255))
        bad = good[:k] + bytes([good[k] ^ flip]) + good[k + 1:]
    memo_case.memo.write_bytes(bad)
    try:
        assert _outputs(memo_case.model) == memo_case.reference
    finally:
        memo_case.memo.unlink()


def test_intact_memo_gives_the_same_results(memo_case):
    memo_case.memo.write_bytes(memo_case.good)
    try:
        assert _outputs(memo_case.model) == memo_case.reference
    finally:
        memo_case.memo.unlink()


def test_hand_edited_text_beats_its_memo(tmp_path):
    model, config = _fitted(tmp_path, 4, 2, 6)
    path = tmp_path / "model.tlm"
    tl.write_model_file(path, model, baseline=config)
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("scenario.1.omega"))
    key, _, values = lines[row].partition(" = ")
    first, rest = values.split(" ", 1)
    # nudged by one ulp: inside the stored moments' tolerance
    lines[row] = f"{key} = {float(np.nextafter(float(first), np.inf))!r} {rest}"
    path.write_text("".join(lines))
    assert ingest.memo_path(path).exists()
    got = tl.read_model_file(path)
    assert_same_payload(got, ingest._parse_model_text(path))
    assert got.omegas[1, 0] == np.nextafter(model.scenarios.omegas[1, 0], np.inf)
    # an edit the moments catch is reported as it is without a memo
    lines[row] = f"{key} = {2 * float(first)!r} {rest}"
    path.write_text("".join(lines))
    with pytest.raises(tl.ModelFileError, match="omega_bar disagrees") as caught:
        tl.read_model_file(path)
    assert caught.value.line == 6


# --- commands: one hash per read, no memo written by a read -----------------


# the sweep's adjusted-flat rates go negative on this model
@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
def test_reads_hash_once_and_write_no_memo(tmp_path, monkeypatch):
    load, prices = write_synthetic_csvs(tmp_path, 4, 2, 8)
    model = tmp_path / "model.tlm"
    assert _run("fit", "--load", str(load), "--prices", str(prices),
                "--out", str(model))[0] == 0
    ingest.memo_path(model).unlink()
    calls = []
    digest = ingest.file_digest

    def counted(path):
        calls.append(Path(path).name)
        return digest(path)

    monkeypatch.setattr(ingest, "file_digest", counted)
    out, svg = tmp_path / "fronts.csv", tmp_path / "fronts.svg"
    commands = [
        ["solve", "--model", str(model), "--family", "two-part",
         "--target-rs", "baseline", "--out", str(tmp_path / "solve.csv")],
        ["pareto", "--model", str(model), "--steps", "3", "--out", str(out),
         "--svg", str(svg)],
        ["check", "--model", str(model)],
    ]
    for argv in commands:
        calls.clear()
        assert _run(*argv)[0] == 0
        assert calls == ["model.tlm"], argv[0]
    for manifest in tmp_path.glob("*.manifest.json"):
        assert json.loads(manifest.read_text())["inputs"]["model"] == digest(model)
    assert not list(tmp_path.glob("*.npz*"))


# --- imports: each command loads only what it runs --------------------------


def _loaded(code: str) -> list[str]:
    """The tarifflab modules a fresh interpreter holds after `code`."""
    probe = (f"{code}; import json, sys; "
             "print(json.dumps(sorted(m for m in sys.modules if 'tarifflab' in m)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout)


def test_imports_are_lazy():
    assert _loaded("import tarifflab") == ["tarifflab"]
    loaded = _loaded("import tarifflab.cli")
    assert not {
        "tarifflab.checks", "tarifflab.oracle", "tarifflab.pareto", "tarifflab.solvers",
        "tarifflab.svg",
    } & set(loaded)
    # the dataset writer needs numpy and the fork-join helper, nothing more
    assert _loaded("import tarifflab.synthetic") == [
        "tarifflab", "tarifflab._forkjoin", "tarifflab.synthetic",
    ]


def test_every_public_name_resolves():
    for name in tl.__all__:
        assert getattr(tl, name) is not None
        assert name in dir(tl)
    with pytest.raises(AttributeError):
        tl.no_such_name
