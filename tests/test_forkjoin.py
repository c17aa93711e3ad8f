"""The fork-join helper and the writers and `fit`, which use it.

Each gives the same bytes, stdout and exit code whether a child does its
share, no child is forked, or the child fails or is killed, before or while
it delivers. No command leaves a child behind.
"""

import contextlib
import io
import os
import random
import signal
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tarifflab as tl
from conftest import model_payload_text, random_linear_model, rewrite_unclean
from tarifflab import _forkjoin, cli, ingest, synthetic
from tarifflab._forkjoin import BLOCK, Forked
from tarifflab.cli import main
from tarifflab.synthetic import write_synthetic_csvs


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Os:
    """The `os` module as `_forkjoin` sees it, with some names changed."""

    def __init__(self, **changed):
        self.__dict__.update(changed)

    def __getattr__(self, name):
        return getattr(os, name)


class _NoFork:
    """The `os` module without `fork`."""

    def __getattr__(self, name):
        if name == "fork":
            raise AttributeError(name)
        return getattr(os, name)


def _dies_after(size: int):
    """An `os.write` that writes the first `size` bytes, then kills its process."""

    def write(fd, data):
        os.write(fd, bytes(data[:size]))
        os.kill(os.getpid(), signal.SIGKILL)

    return _Os(write=write)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _fail():
    raise RuntimeError("the child fails")


def _in_child(action, real):
    """`real`, except that in a forked child it first does `action`."""
    parent = os.getpid()

    def stand_in(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    return stand_in


# the ways a child's share gets done: `setup(monkeypatch, target)` where
# `target` is (module, name) of a function the child's share calls; the
# stand-ins act in a child only, so the parent may call it too
MODES = {
    "forked": lambda mp, target: None,
    "no-fork": lambda mp, target: mp.setattr(_forkjoin, "os", _NoFork()),
    "child-fails": lambda mp, target: mp.setattr(
        *target, _in_child(_fail, getattr(*target))),
    "child-killed": lambda mp, target: mp.setattr(
        *target, _in_child(_kill_self, getattr(*target))),
    "killed-midway": lambda mp, target: mp.setattr(_forkjoin, "os", _dies_after(1000)),
}


# --- the helper -------------------------------------------------------------

SHARE = [b"head ", bytes(range(256)) * (3 * BLOCK // 256), b"", b"tail"]


def _joined(make, capfd) -> tuple[bytes, int]:
    """The joined `blocks()` of `Forked(make)` and how often `make` ran in
    this process; stderr stays silent, no child is left and `make` runs here
    at most once."""
    parent, calls = os.getpid(), []

    def counted():
        if os.getpid() == parent:
            calls.append(1)
        return make()

    with Forked(counted) as child:
        share = b"".join(child.blocks())
    assert capfd.readouterr().err == ""
    assert_no_child()
    assert len(calls) <= 1
    return share, len(calls)


def test_child_bytes_come_back_in_blocks(capfd):
    data = bytes(range(256)) * (3 * BLOCK // 256) + b"tail"
    with Forked(lambda: [data]) as child:
        blocks = list(child.blocks())
    assert b"".join(blocks) == data
    assert max(map(len, blocks)) <= BLOCK
    assert _joined(lambda: SHARE, capfd) == (b"".join(SHARE), 0)


@pytest.mark.parametrize("action", [_fail, _kill_self, lambda: os._exit(3)])
def test_a_failed_child_is_silent_and_its_share_made_here(action, capfd):
    make = _in_child(action, lambda: SHARE)
    assert _joined(make, capfd) == (b"".join(SHARE), 1)


def test_leaving_early_kills_and_reaps_the_child(capfd):
    start = time.perf_counter()
    with pytest.raises(KeyError):
        with Forked(_in_child(lambda: time.sleep(60), lambda: [b"late"])):
            raise KeyError("the parent's share fails")
    assert time.perf_counter() - start < 30
    assert capfd.readouterr().err == ""
    assert_no_child()


def test_the_child_flushes_nothing(tmp_path, capfd):
    with (tmp_path / "out").open("wb") as fh:
        fh.write(b"written once")
        assert _joined(lambda: [b""], capfd) == (b"", 0)
    assert (tmp_path / "out").read_bytes() == b"written once"


def test_no_child_without_fork(monkeypatch, capfd):
    monkeypatch.setattr(_forkjoin, "os", _NoFork())
    assert _joined(lambda: SHARE, capfd) == (b"".join(SHARE), 1)


def test_no_child_while_other_threads_run(capfd):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _joined(lambda: SHARE, capfd) == (b"".join(SHARE), 1)
    finally:
        stop.set()
        thread.join()


def _failed_fork():
    raise BlockingIOError("no process left")


def test_a_failed_fork_falls_back(monkeypatch, capfd):
    monkeypatch.setattr(_forkjoin, "os", _Os(fork=_failed_fork))
    before = len(os.listdir("/proc/self/fd")) if Path("/proc/self/fd").is_dir() else None
    assert _joined(lambda: SHARE, capfd) == (b"".join(SHARE), 1)
    if before is not None:  # the pipe is closed again
        assert len(os.listdir("/proc/self/fd")) == before


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 3 * BLOCK), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
    end=st.sampled_from(["no-fork", "failed-fork", "dies"]),
    data=st.data(),
)
def test_the_share_is_whole_however_the_child_ends(sizes, seed, end, data):
    rng = random.Random(seed)
    share = [rng.randbytes(size) for size in sizes]
    if end == "no-fork":
        changed = _NoFork()
    elif end == "failed-fork":
        changed = _Os(fork=_failed_fork)
    else:  # the child dies after k of the share's bytes
        changed = _dies_after(data.draw(st.integers(0, sum(sizes)), label="k"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_forkjoin, "os", changed)
        with Forked(lambda: share) as child:
            assert b"".join(child.blocks()) == b"".join(share)
    assert_no_child()


# --- fit ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    return write_synthetic_csvs(tmp_path_factory.mktemp("csvs"), 30, 5, 11)


def _fit(load, prices, out: Path) -> tuple[int, str, str, str | None]:
    """(exit code, stdout, stderr, payload text) of `fit`; stdout names the
    file only as `<out>`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["fit", "--load", str(load), "--prices", str(prices),
                     "--out", str(out)])
    payload = model_payload_text(out) if out.exists() else None
    return code, stdout.getvalue().replace(str(out), "<out>"), stderr.getvalue(), payload


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fit_is_the_same_however_the_child_ends(tmp_path, csvs, monkeypatch, mode):
    with monkeypatch.context() as patch:
        MODES["no-fork"](patch, None)
        want = _fit(*csvs, tmp_path / "serial.tlm")
    MODES[mode](monkeypatch, (ingest, "_parse_bytes"))
    got = _fit(*csvs, tmp_path / f"{mode}.tlm")
    assert got == want and want[0] == 0
    assert_no_child()


def test_an_unclean_prices_file_is_parsed_in_the_child_alone(tmp_path, csvs, monkeypatch):
    # quoted fields and `, ` separators leave the prices to the row reader,
    # which the child runs; this process runs numpy on the clean load only
    prices = tmp_path / "prices.csv"
    prices.write_bytes(csvs[1].read_bytes())
    rewrite_unclean(prices)
    parent, calls = os.getpid(), []
    for name in ("_parse_dense", "_parse_rows"):
        def counted(*args, real=getattr(ingest, name), name=name):
            if os.getpid() == parent:
                calls.append(name)
            return real(*args)

        monkeypatch.setattr(ingest, name, counted)
    got = _fit(csvs[0], prices, tmp_path / "unclean.tlm")
    assert calls == ["_parse_dense"]
    assert got == _fit(*csvs, tmp_path / "clean.tlm") and got[0] == 0
    assert_no_child()


def _bad(tmp_path: Path, name: str, data: bytes) -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


ROWS = b"day,hour,value\n0,0,1.0\n0,1,2.0\n1,0,1.5\n1,1,2.5\n"
BAD_FILES = {
    "load-malformed": (b"day,hour,value\n0,0,x\n", ROWS),
    "both-malformed": (b"day,hour,value\n0,0,x\n", b"day,hour,value\n0,0,y\n"),
    "prices-malformed": (ROWS, b"day,hour,value\n0,0,1.0\n0,1,y\n"),
    "prices-unclean": (ROWS, ROWS.replace(b"1.5", b'"1.5"')),
    "prices-nan": (ROWS, ROWS.replace(b"2.5", b"nan")),
    "prices-missing": (ROWS, None),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
@pytest.mark.parametrize("mode", ["forked", "child-killed"])
def test_fit_errors_come_in_order(tmp_path, monkeypatch, case, mode):
    load, prices = BAD_FILES[case]
    load = _bad(tmp_path, "load.csv", load)
    prices = tmp_path / "prices.csv" if prices is None else _bad(
        tmp_path, "prices.csv", prices)
    with monkeypatch.context() as patch:
        MODES["no-fork"](patch, None)
        want = _fit(load, prices, tmp_path / "m.tlm")
    MODES[mode](monkeypatch, (ingest, "_parse_bytes"))
    assert _fit(load, prices, tmp_path / "m.tlm") == want
    assert want[0] == 0 or want[2].startswith("error: ")
    assert_no_child()


def test_malformed_load_while_the_child_parses(tmp_path, csvs, monkeypatch):
    load = _bad(tmp_path, "load.csv", b"day,hour,value\n0,0,x\n")
    sleeping = _in_child(lambda: time.sleep(60), ingest._parse_bytes)
    monkeypatch.setattr(ingest, "_parse_bytes", sleeping)
    start = time.perf_counter()
    code, _, err, payload = _fit(load, csvs[1], tmp_path / "m.tlm")
    assert time.perf_counter() - start < 30
    assert (code, payload) == (2, None)
    assert err.startswith(f"error: {load}: line 2:")
    assert_no_child()


# --- the model-file writer and the synthetic CSVs ---------------------------


def _written(path: Path, model, mode: str) -> tuple[bytes, bytes]:
    with pytest.MonkeyPatch.context() as patch:
        MODES[mode](patch, (ingest, "_scenario_lines"))
        tl.write_model_file(path, model, provenance={"created": "t0"})
    assert_no_child()
    memo = ingest._read_memo(path, ingest.file_digest(path))
    assert memo is not None  # stored under the digest of the bytes written
    return path.read_bytes(), memo.lams.tobytes() + memo.omegas.tobytes()


@settings(max_examples=12, deadline=None)
@given(
    scenarios=st.one_of(st.sampled_from([1, 2, 3, 1201]), st.integers(1, 60)),
    periods=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(sorted(MODES)),
)
def test_model_file_is_the_same_however_the_child_ends(
    tmp_path_factory, scenarios, periods, seed, mode
):
    out = tmp_path_factory.mktemp("writer")
    model = random_linear_model(seed, periods, scenarios)
    assert _written(out / "got.tlm", model, mode) == _written(
        out / "want.tlm", model, "no-fork")


@pytest.mark.parametrize("size", [1, 4095, 70_000])
def test_model_file_resumes_where_the_child_stopped(tmp_path, size):
    model = random_linear_model(5, 24, 800)
    want = _written(tmp_path / "want.tlm", model, "no-fork")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_forkjoin, "os", _dies_after(size))
        tl.write_model_file(tmp_path / "got.tlm", model, provenance={"created": "t0"})
    assert_no_child()
    assert (tmp_path / "got.tlm").read_bytes() == want[0]


def _forks(monkeypatch) -> list[int]:
    """The pids that fork through `_forkjoin` from now on, in order."""
    forks = []

    def fork():
        forks.append(os.getpid())
        return os.fork()

    monkeypatch.setattr(_forkjoin, "os", _Os(fork=fork))
    return forks


def test_a_refused_write_forks_no_child(tmp_path, monkeypatch):
    forks = _forks(monkeypatch)
    with pytest.raises(ValueError, match="provenance values must be single-line"):
        tl.write_model_file(tmp_path / "m.tlm", random_linear_model(1, 3, 40),
                            provenance={"created": "t0\nt1"})
    assert forks == []
    assert not (tmp_path / "m.tlm").exists()


def test_each_user_forks_once(tmp_path, csvs, monkeypatch):
    forks = _forks(monkeypatch)
    write_synthetic_csvs(tmp_path, 4, 2, 1)
    assert _fit(*csvs, tmp_path / "m.tlm")[0] == 0
    # synthetic, fit's parse, fit's model file; only this process forked
    assert forks == [os.getpid()] * 3


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("days, periods", [(1, 3), (7, 1), (92, 24)])
def test_synthetic_csvs_are_the_same_however_the_child_ends(
    tmp_path, monkeypatch, mode, days, periods
):
    want = write_synthetic_csvs(tmp_path / "want", days, periods, 3)
    MODES[mode](monkeypatch, (synthetic, "_series_bytes"))
    got = write_synthetic_csvs(tmp_path / "got", days, periods, 3)
    assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
    assert_no_child()
