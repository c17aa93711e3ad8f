"""Per-layer timings: the benchmark pass run in-process, one public call at a time.

Started by `run.py --trace 1` with `src/` on PYTHONPATH. Each round mirrors
the operations of one end-to-end pass (the fits, the five solves, the break-even
solve where the workload has it, pareto, check) but calls the package's
public functions directly and times each call from here. Calls that happen
inside `run_model_checks` are timed by wrapping the module attributes it
looks up, so the battery runs once per round.

Writes each operation's output under --work and prints one JSON line with
the samples (seconds per call) and the operations, for run.py to verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from tarifflab import checks, cli, ingest, model, pareto, solvers, svg, synthetic
from tarifflab.errors import NonConvergence
from verify import STEPS

SAMPLES: dict[str, list[float]] = defaultdict(list)
PHI_CALLS = 20

# public functions run_model_checks calls through module globals
CHECK_LAYERS = {
    "check_assumption1_result": "checks.assumption1_s",
    "check_gradient_identity": "checks.gradient_identity_s",
    "check_hessian_identity": "checks.hessian_identity_s",
    "check_phi_settlement": "checks.phi_settlement_s",
    "check_planner_bound": "checks.planner_bound_s",
    "settle_scenarios": "oracle.settle_scenarios_s",
}


def timed(name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    SAMPLES[name].append(time.perf_counter() - start)
    return out


def wrap(name: str, fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        return timed(name, fn, *args, **kwargs)

    return inner


def load(path):
    payload = timed("ingest.read_model_file_s", ingest.read_model_file, path)
    mdl = timed("ingest.to_model_s", payload.to_model)
    return mdl, payload.baseline_tariff()


def write_point(path: Path, mdl, family: str, F: float, tariff, baseline) -> None:
    report = timed("model.welfare_gains_s", model.welfare_gains, mdl, tariff, baseline)
    point = pareto.ParetoPoint(
        F=F, delta_cs=report.delta_cs, delta_rs=report.delta_rs,
        delta_sw=report.delta_sw, tariff=tariff, feasible=True,
    )
    front = pareto.ParetoFront(
        family=family, points=(point,), baseline=baseline,
        baseline_rs=model.retailer_surplus(mdl, baseline),
    )
    path.write_text(cli.front_csv([front], mdl.periods))


def solve(mdl, family: str, F: float, baseline):
    charge = baseline.connection_charge
    if family == "two-part-optimal":
        return timed("solvers.solve_two_part_s", solvers.solve_two_part, mdl, F)
    if family == "linear-optimal":
        return timed("solvers.solve_linear_s", solvers.solve_linear, mdl, F).tariff
    if family == "flat-linear":
        return timed("solvers.solve_flat_linear_s", solvers.solve_flat_linear, mdl, F)
    if family == "fixed-A-two-part":
        return timed("solvers.solve_fixed_A_two_part_s", solvers.solve_fixed_A_two_part,
                     mdl, F, charge)
    rate = float(baseline.prices[0])
    return timed("solvers.solve_adjusted_flat_s", solvers.solve_adjusted_flat,
                 mdl, F, rate, charge)


def one_round(args, work: Path) -> list[dict]:
    """One mirrored pass; outputs go to files named after `work`."""
    ops = []

    def op(name: str, kind: str, output: Path, fn, family: str = "") -> None:
        record = {"name": name, "kind": kind, "family": family, "output": str(output),
                  "ok": True, "stalled": False, "error": ""}
        try:
            fn()
        except NonConvergence as exc:
            stalled = kind == "break-even" and "stalled" in str(exc)
            record.update(ok=False, stalled=stalled, error=str(exc))
        except Exception as exc:  # reported as a failed operation, not a crash
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        ops.append(record)

    timed("synthetic.synthetic_series_s", synthetic.synthetic_series,
          args.days, args.periods, args.seed)

    model_path = work / "model.tlm"

    def fit():
        load_series = timed("ingest.parse_csv_s", ingest.parse_csv, args.load, "load")
        price_series = timed("ingest.parse_csv_s", ingest.parse_csv, args.prices, "price")
        scenarios = timed("ingest.estimate_moments_s", ingest.estimate_moments,
                          load_series, price_series)
        config = ingest.CalibrationConfig()
        mdl = timed("ingest.calibrate_demand_s", ingest.calibrate_demand, scenarios, config)
        provenance = ingest.fit_provenance(args.load, args.prices, config, created="-")
        timed("ingest.write_model_file_s", ingest.write_model_file, model_path, mdl,
              baseline=config, provenance=provenance)

    for _ in range(args.fit_repeats):
        op("fit", "fit", model_path, fit)

    for family in model.TARIFF_FAMILIES:
        out = work / f"solve-{family}.csv"

        def run_solve(family=family, out=out):
            mdl, baseline = load(model_path)
            F = model.retailer_surplus(mdl, baseline)
            write_point(out, mdl, family, F, solve(mdl, family, F, baseline), baseline)

        op(f"solve {family}", "solve", out, run_solve, family)

    if args.break_even_model:
        out = work / "solve-break-even.csv"

        def break_even():
            mdl, baseline = load(args.break_even_model)
            tariff = solvers.solve_linear(mdl, 0.0).tariff
            write_point(out, mdl, "linear-optimal", 0.0, tariff, baseline)

        op("break-even solve", "break-even", out, break_even)

    fronts_path = work / "fronts.csv"

    def run_pareto():
        mdl, baseline = load(model_path)
        grid = timed("pareto.default_revenue_grid_s", pareto.default_revenue_grid,
                     mdl, STEPS)
        fronts = timed("pareto.sweep_s", pareto.sweep, mdl, baseline,
                       model.TARIFF_FAMILIES, grid)
        fronts_path.write_text(timed("cli.front_csv_s", cli.front_csv, fronts, mdl.periods))
        fronts_path.with_suffix(".svg").write_text(
            timed("svg.render_fronts_s", svg.render_fronts, fronts))
        # single calls the sweep makes many of
        timed("solvers.monopoly_price_s", solvers.monopoly_price, mdl, verify=False)
        lam = mdl.scenarios.lambda_bar
        for _ in range(PHI_CALLS):
            timed("model.phi_bar_s", model.phi_bar, mdl, lam)

    op("pareto", "pareto", fronts_path, run_pareto)

    check_path = work / "check.txt"

    def run_check():
        payload = ingest.read_model_file(args.check_model or model_path)
        results = timed("checks.run_model_checks_s", checks.run_model_checks, payload)
        check_path.write_text(
            "".join(f"{r.status} {r.name}: {r.detail}\n" for r in results)
            + ("all checks passed\n" if not any(r.failed for r in results) else "")
        )

    op("check", "check", check_path, run_check)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--load", type=Path, required=True)
    parser.add_argument("--prices", type=Path, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--periods", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fit-repeats", type=int, required=True)
    parser.add_argument("--check-model", type=Path, default=None,
                        help="model `check` runs on (default: the round's own)")
    parser.add_argument("--break-even-model", type=Path, default=None)
    args = parser.parse_args(argv)

    for attr, name in CHECK_LAYERS.items():
        setattr(checks, attr, wrap(name, getattr(checks, attr)))

    ops: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # a directory per round, so that run.py can verify every output
        work = args.work / f"round-{rounds}"
        work.mkdir()
        ops.extend(one_round(args, work))
        rounds += 1
    print(json.dumps({"rounds": rounds, "samples": SAMPLES, "ops": ops}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
