"""Fuzzed argv for `cli.main`, run in process on the bundled model.

Tokens come from the parser's own vocabulary (commands, options, choices,
family names) plus numbers and random strings. Whatever the argv, a run ends
with one of the documented exit codes (0 ok, 2 input error, 3 infeasible
target, 4 failed diagnostics) or argparse's own exit (0 for --help and
--version, 2 for a usage error), never with another exception.
"""

import argparse
import contextlib
import io
import math
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tarifflab.cli import MAX_STEPS, _ALIASES, build_parser, main
from tarifflab.synthetic import bundled_dataset_paths


def _parser_words() -> list[str]:
    """Every command, option string and choice the parser knows."""
    words = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            words.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            if action.choices:
                words.update(action.choices)
    return sorted(words)


# the files each run finds in its working directory, and names it may write
FILES = ["model.tlm", "load.csv", "prices.csv", "out.csv", "out.svg", "missing.tlm", "."]
NUMBERS = [
    "0", "-0", "1", "2", "3", "-1", "0.2", "0.995", "-0.3", "-2.5e4", "2.5e4",
    "1e308", "-1e308", "1e-310", "inf", "-inf", "nan", "-nan", "baseline",
    str(MAX_STEPS + 1),
]
FAMILIES = sorted(_ALIASES) + ["all", "linear,flat", "two-part-optimal,,adjusted-flat"]

# random strings hold no '/' (so a path stays in the working directory) and
# no digits (so they never spell a --steps value that would make a long sweep)
_TEXT = st.text(
    st.characters(blacklist_characters="/0123456789", blacklist_categories=("Cs",)),
    max_size=8,
)
_TOKEN = st.one_of(
    st.sampled_from(_parser_words()),
    st.sampled_from(FILES),
    st.sampled_from(NUMBERS),
    st.sampled_from(FAMILIES),
    st.integers(-3, 60).map(str),
    st.floats().map(repr),
    _TEXT,
)


# values that get a command past its input checks
PREFERRED = {
    "model": "model.tlm", "load": "load.csv", "prices": "prices.csv",
    "out": "out.csv", "svg": "out.svg", "target_rs": "baseline",
}


def _commands() -> dict[str, list[tuple[str, bool, list[str]]]]:
    """{command: [(option, required, the values it is meant to take)]}."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, sub in commands.choices.items():
        out[name] = []
        for action in sub._actions:
            if not action.option_strings or action.nargs == 0:
                continue
            if action.choices:
                meant = sorted(action.choices)
            elif action.dest == "families":
                meant = FAMILIES
            elif action.dest in ("model", "load", "prices", "out", "svg"):
                meant = FILES
            else:
                meant = NUMBERS
            # the value that gets past the command's input checks comes first
            if action.dest in PREFERRED:
                meant = [PREFERRED[action.dest], *meant]
            out[name].append((action.option_strings[-1], action.required, meant))
    return out


COMMANDS = _commands()


@st.composite
def argvs(draw) -> list[str]:
    """A command with most of its required options and some of the others,
    each valued from its own domain three times in four (half the time by
    its first value), plus, in some runs, tokens inserted anywhere."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option, required, meant in COMMANDS[command]:
        if draw(st.integers(0, 9)) < (9 if required else 3):
            pick = draw(st.integers(0, 3))
            value = meant[0] if pick > 1 else draw(st.sampled_from(meant) if pick else _TOKEN)
            argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    for _ in range(max(0, draw(st.integers(-2, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKEN))
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The bundled CSVs and the model fitted from them with the defaults."""
    folder = tmp_path_factory.mktemp("fuzz-inputs")
    load, prices = bundled_dataset_paths()
    shutil.copy(load, folder / "load.csv")
    shutil.copy(prices, folder / "prices.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "fit", "--load", str(folder / "load.csv"), "--prices",
            str(folder / "prices.csv"), "--out", str(folder / "model.tlm"),
        ]) == 0
    return folder


def _run_in(folder: Path, argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with `folder` as working directory: (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # as on the command line: warnings print, they do not raise
                warnings.simplefilter("default")
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code in (0, 2), (argv, exc.code)
                    code = exc.code
    finally:
        os.chdir(start)
    return code, out.getvalue(), err.getvalue()


GAIN_LINE = re.compile(r"^  (delta_cs|delta_rs|delta_sw|rs_absolute): (\S+) \$/cycle$")


def _non_finite_gains(folder: Path, stdout: str) -> list[str]:
    """Lines of an exit-0 run that report a non-finite gain: `solve`'s four
    welfare lines (`gamma: inf` at the top of the front is legal), and the
    gains of every `true` row of a `pareto` table, on stdout or in its file."""
    bad = [line for line in stdout.splitlines()
           if (m := GAIN_LINE.match(line)) and not math.isfinite(float(m[2]))]
    tables = [stdout] + [
        (folder / line.removeprefix("front table written to ")).read_text()
        for line in stdout.splitlines() if line.startswith("front table written to ")
    ]
    for table in tables:
        for row in table.splitlines():
            cells = row.split(",")
            if len(cells) > 5 and cells[5] == "true" and not all(
                math.isfinite(float(x)) for x in cells[2:5]
            ):
                bad.append(row)
    return bad


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_any_argv_ends_with_a_documented_exit(inputs, argv):
    with tempfile.TemporaryDirectory() as work:
        # fresh copies: a run may overwrite any file it is given
        for name in ("model.tlm", "load.csv", "prices.csv"):
            shutil.copy(inputs / name, Path(work) / name)
        code, out, err = _run_in(Path(work), argv)
        # exit 0 means a meaningful answer: every reported gain is finite
        assert code != 0 or not _non_finite_gains(Path(work), out), argv
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["check", "--help"], 0),
        (["solve", "--model", "model.tlm"], 2),
        (["solve", "--model", "model.tlm", "--family", "linear", "--target-rs", "-inf"], 2),
        (["pareto", "--model", "model.tlm", "--steps", str(MAX_STEPS + 1)], 2),
        (["solve", "--model", "model.tlm", "--family", "linear", "--target-rs", "1e308"], 3),
        (["check", "--model", "model.tlm"], 0),
        (["solve", "--model", "model.tlm", "--family", "linear", "--target-rs", "1e6",
          "--flat-rate", "1e200"], 2),
        (["pareto", "--model", "model.tlm", "--families", "two-part", "--steps", "2",
          "--connection-charge", "-1e308"], 2),
        (["fit", "--load", "load.csv", "--prices", "prices.csv", "--out", "."], 2),
    ],
)
def test_vocabulary_reaches_each_exit(inputs, tmp_path, argv, code):
    for name in ("model.tlm", "load.csv", "prices.csv"):
        shutil.copy(inputs / name, tmp_path / name)
    assert _run_in(tmp_path, argv)[0] == code


def test_guard_flags_non_finite_gains(tmp_path):
    (tmp_path / "f.csv").write_text(
        "family,F,delta_cs,delta_rs,delta_sw,feasible,pi_0\n"
        "two-part-optimal,1.0,-inf,inf,nan,true,0.1\n"
        "two-part-optimal,2.0,nan,nan,nan,false,nan\n"
    )
    stdout = ("gamma: inf\n  delta_cs: -inf $/cycle\n  delta_sw: 0 $/cycle\n"
              "front table written to f.csv\n")
    assert _non_finite_gains(tmp_path, stdout) == [
        "  delta_cs: -inf $/cycle", "two-part-optimal,1.0,-inf,inf,nan,true,0.1",
    ]
