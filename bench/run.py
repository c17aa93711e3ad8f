#!/usr/bin/env python3
"""End-to-end benchmark of the tarifflab fit -> solve -> pareto -> check pipeline.

    python3 bench/run.py --workload desk-24 --seed 20150601 --seconds 10 --trace 0

Run from the root of a source checkout; the package is taken from `src/`.
One client runs one `tarifflab` CLI subprocess at a time (a closed loop),
repeating whole passes of the workload's commands until `--seconds` have
gone by. Every output is checked by `verify.py`, which recomputes it from
the input CSVs without importing tarifflab. With `--trace 1` the pass runs
in-process instead (`layers.py`) and the per-layer timings are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, in this process and (through the environment) every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BUNDLED = SRC / "tarifflab" / "data"
DEFAULT_SEED = 20150601
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# fit is sub-second on two workloads; one sample per pass is too noisy
FIT_REPEATS = 3

# CLI family names, in the order of verify.FAMILIES
CLI_FAMILIES = ("two-part", "linear", "flat-linear", "fixed-a-two-part", "adjusted-flat")
# the known fault: a break-even linear target stalls the markup bisection
STALL_MESSAGE = "bisection stalled"


@dataclass(frozen=True)
class Workload:
    days: int
    periods: int
    # periods of the separately generated model `check` runs on (None: the
    # workload's own model)
    check_periods: int | None = None
    # run the break-even linear solve on the bundled data
    break_even: bool = False


WORKLOADS = {
    "desk-24": Workload(days=92, periods=24, break_even=True),
    "year-96": Workload(days=365, periods=96),
    # `check` at 2000x96 takes minutes; it runs on a 2000x24 model instead
    "fleet-2000": Workload(days=2000, periods=96, check_periods=24),
}

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "solve_s": "s",
    "pareto_s": "s",
    "check_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "cli.import_s",
    "synthetic.synthetic_series_s",
    "ingest.parse_csv_s",
    "ingest.estimate_moments_s",
    "ingest.calibrate_demand_s",
    "ingest.write_model_file_s",
    "ingest.read_model_file_s",
    "ingest.to_model_s",
    "model.phi_bar_s",
    "model.welfare_gains_s",
    "solvers.solve_two_part_s",
    "solvers.solve_linear_s",
    "solvers.solve_flat_linear_s",
    "solvers.solve_fixed_A_two_part_s",
    "solvers.solve_adjusted_flat_s",
    "solvers.monopoly_price_s",
    "pareto.default_revenue_grid_s",
    "pareto.sweep_s",
    "cli.front_csv_s",
    "svg.render_fronts_s",
    "checks.run_model_checks_s",
    "checks.assumption1_s",
    "checks.gradient_identity_s",
    "checks.hessian_identity_s",
    "checks.phi_settlement_s",
    "checks.planner_bound_s",
    "oracle.settle_scenarios_s",
)


class RunError(Exception):
    """The run cannot give a result, so none is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the sweep's thread pool stays at its default (off)
    env.pop("TARIFFLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Result:
    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run(args: list[str], work: Path, env: dict[str, str]) -> Result:
    """Run one subprocess to completion; wall time and its peak RSS."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "tarifflab.cli", *args]


def synthetic(out: Path, days: int, periods: int, seed: int) -> list[str]:
    return [
        sys.executable, "-m", "tarifflab.synthetic", "--out-dir", str(out),
        "--days", str(days), "--periods", str(periods), "--seed", str(seed),
    ]


def fit(load: Path, prices: Path, out: Path) -> list[str]:
    return cli("fit", "--load", str(load), "--prices", str(prices), "--out", str(out))


def must(result: Result, what: str) -> Result:
    if result.returncode != 0:
        raise RunError(f"{what} exited {result.returncode}: {result.stderr.strip()}")
    return result


class Setup:
    """Inputs of one run: the workload's CSVs, reference models, side models.

    `errors` collects what the checker finds wrong in the side models.
    """

    def __init__(self, name: str, seed: int, work: Path, env: dict[str, str]):
        if not (SRC / "tarifflab" / "cli.py").is_file():
            raise RunError(f"no tarifflab package under {SRC}")
        w = WORKLOADS[name]
        self.workload = w
        self.work = work

        def step(args: list[str], what: str) -> Result:
            return must(run(args, work, env), what)

        # compile the package once so no timed command pays for it
        step([sys.executable, "-c", "import tarifflab.cli"], "import")
        inputs = work / "inputs"
        self.setup_s = [
            step(synthetic(inputs, w.days, w.periods, seed), "synthetic").seconds
            for _ in range(SETUP_REPEATS)
        ]
        self.load = inputs / "synthetic_load.csv"
        self.prices = inputs / "synthetic_prices.csv"
        self.ref = verify.Reference(self.load, self.prices)
        self.model = work / "model.tlm"
        self.errors: list[str] = []

        self.check_model, self.check_ref = self.model, self.ref
        if w.check_periods is not None:
            side = work / "check_inputs"
            step(synthetic(side, w.days, w.check_periods, seed), "synthetic")
            load, prices = side / "synthetic_load.csv", side / "synthetic_prices.csv"
            self.check_model = work / "check_model.tlm"
            step(fit(load, prices, self.check_model), "fit of the check model")
            self.check_ref = verify.Reference(load, prices)
            self.errors += verify.check_model_file(self.check_ref, self.check_model)

        self.bundled_model = self.bundled_ref = None
        if w.break_even:
            load, prices = BUNDLED / "synthetic_load.csv", BUNDLED / "synthetic_prices.csv"
            self.bundled_model = work / "bundled.tlm"
            step(fit(load, prices, self.bundled_model), "fit of the bundled data")
            self.bundled_ref = verify.Reference(load, prices)
            self.errors += verify.check_model_file(self.bundled_ref, self.bundled_model)


class Tally:
    """Operations attempted and failed, and every verification error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, errors: list[str] = ()) -> None:
        self.attempted += 1
        self.failed += not ok
        self.errors.extend(errors)


def expect_stall(tally: Tally, rc: int, stderr: str, verify_output) -> None:
    """Count the break-even solve; it fails until the stall fault is fixed."""
    if rc == 0:
        tally.op(True, verify_output())
    elif rc == 2 and STALL_MESSAGE in stderr:
        tally.op(False)
    else:
        tally.op(False, [f"break-even solve: unexpected exit {rc}: {stderr.strip()}"])


def one_pass(s: Setup, env: dict[str, str], tally: Tally, self_test: bool) -> dict:
    """fit -> solves -> pareto -> check through the CLI; times per command."""
    work, ref = s.work, s.ref
    times = {"fit_s": [], "solve_s": []}
    rss = []

    def command(args: list[str]) -> Result:
        r = run(args, work, env)
        rss.append(r.rss_mb)
        return r

    def failed(r: Result, what: str) -> list[str]:
        return [f"{what}: exit {r.returncode}: {r.stderr.strip()}"] if r.returncode else []

    for _ in range(FIT_REPEATS):
        r = command(fit(s.load, s.prices, s.model))
        times["fit_s"].append(r.seconds)
        errors = failed(r, "fit")
        if not errors:
            errors = verify.check_model_file(ref, s.model)
            errors += verify.check_fit_stdout(ref, r.stdout)
        tally.op(not r.returncode, errors)

    for family, name in zip(verify.FAMILIES, CLI_FAMILIES):
        out = work / f"solve-{name}.csv"
        r = command(cli("solve", "--model", str(s.model), "--family", name,
                        "--target-rs", "baseline", "--out", str(out)))
        times["solve_s"].append(r.seconds)
        errors = failed(r, f"solve {name}")
        if not errors:
            errors = verify.check_solve_csv(ref, out, family, None)
            errors += verify.check_manifest(out, s.model, "solve")
        tally.op(not r.returncode, errors)

    if s.bundled_model is not None:
        out = work / "solve-break-even.csv"
        r = command(cli("solve", "--model", str(s.bundled_model), "--family", "linear",
                        "--target-rs", "0", "--out", str(out)))
        times["solve_s"].append(r.seconds)
        expect_stall(tally, r.returncode, r.stderr, lambda: verify.check_solve_csv(
            s.bundled_ref, out, "linear-optimal", 0.0))

    out, svg = work / "fronts.csv", work / "fronts.svg"
    r = command(cli("pareto", "--model", str(s.model), "--families", "all",
                    "--steps", str(verify.STEPS), "--out", str(out), "--svg", str(svg)))
    times["pareto_s"] = r.seconds
    errors = failed(r, "pareto")
    if not errors:
        rows = verify.read_rows(out.read_text())
        errors = verify.check_front(ref, rows) + verify.check_svg(svg)
        errors += verify.check_manifest(out, s.model, "pareto")
        errors += verify.check_manifest(svg, s.model, "pareto")
        if self_test:
            errors += verify.mutation_self_test(ref, rows)
    tally.op(not r.returncode, errors)

    r = command(cli("check", "--model", str(s.check_model)))
    times["check_s"] = r.seconds
    errors = failed(r, "check") or verify.check_check_output(s.check_ref, r.stdout)
    tally.op(not r.returncode, errors)

    # the analyst's pass fits once
    times["pipeline_s"] = (statistics.median(times["fit_s"]) + sum(times["solve_s"])
                           + times["pareto_s"] + times["check_s"])
    times["peak_rss_mb"] = max(rss)
    return times


def end_to_end(
    s: Setup, env: dict[str, str], seconds: float, tally: Tally
) -> dict[str, float]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(s, env, tally, self_test=not passes))
    metrics = {"setup_s": statistics.median(s.setup_s)}
    for name in END_TO_END:
        if name in ("fit_s", "solve_s"):
            metrics[name] = statistics.median(t for p in passes for t in p[name])
        elif name != "setup_s":
            metrics[name] = statistics.median(p[name] for p in passes)
    print(f"passes: {len(passes)}")
    return metrics


def per_layer(
    s: Setup, seed: int, env: dict[str, str], seconds: float, tally: Tally
) -> dict[str, float]:
    probe = ("import time; t = time.perf_counter(); import tarifflab.cli; "
             "print(time.perf_counter() - t)")
    samples = {"cli.import_s": [
        float(must(run([sys.executable, "-c", probe], s.work, env), "import").stdout)
        for _ in range(IMPORT_REPEATS)
    ]}
    args = [
        sys.executable, str(BENCH / "layers.py"), "--work", str(s.work),
        "--load", str(s.load), "--prices", str(s.prices),
        "--days", str(s.workload.days), "--periods", str(s.workload.periods),
        "--seed", str(seed), "--seconds", str(seconds),
        "--fit-repeats", str(FIT_REPEATS),
    ]
    if s.check_model != s.model:
        args += ["--check-model", str(s.check_model)]
    if s.bundled_model is not None:
        args += ["--break-even-model", str(s.bundled_model)]
    r = must(run(args, s.work, env), "layers.py")
    traced = json.loads(r.stdout.splitlines()[-1])
    samples.update(traced["samples"])
    for op in traced["ops"]:
        if op["stalled"]:
            tally.op(False)
        elif not op["ok"]:
            tally.op(False, [f"{op['name']}: {op['error']}"])
        else:
            tally.op(True, verify_layer_output(s, op))
    print(f"rounds: {traced['rounds']}")
    missing = [k for k in PER_LAYER if not samples.get(k)]
    if missing:
        raise RunError(f"layers not measured: {missing}; {tally.errors}")
    return {k: statistics.median(samples[k]) for k in PER_LAYER}


def verify_layer_output(s: Setup, op: dict) -> list[str]:
    """Check what one in-process operation of layers.py wrote."""
    kind, path = op["kind"], Path(op["output"])
    if kind == "fit":
        return verify.check_model_file(s.ref, path)
    if kind == "solve":
        return verify.check_solve_csv(s.ref, path, op["family"], None)
    if kind == "break-even":
        return verify.check_solve_csv(s.bundled_ref, path, "linear-optimal", 0.0)
    if kind == "pareto":
        rows = verify.read_rows(path.read_text())
        return verify.check_front(s.ref, rows) + verify.check_svg(path.with_suffix(".svg"))
    if kind == "check":
        return verify.check_check_output(s.check_ref, path.read_text())
    return [f"unknown operation kind {kind!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = child_env()
    tally = Tally()
    try:
        s = Setup(args.workload, args.seed, work, env)
        tally.errors += s.errors
        if args.trace:
            values = per_layer(s, args.seed, env, args.seconds, tally)
            units = {k: "s" for k in PER_LAYER}
        else:
            values = end_to_end(s, env, args.seconds, tally)
            units = END_TO_END
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in tally.errors:
        print(f"WRONG: {error}", file=sys.stderr)
    for k, v in values.items():
        print(f"{args.workload} {k}: {v!r} {units[k]}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
