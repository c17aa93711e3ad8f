"""Command-line surface: fit, solve, pareto, check.

Exit codes: 0 ok, 2 input error, 3 infeasible revenue target, 4 failed
diagnostics. Monetary figures print in $/cycle with 4 significant figures;
CSV outputs carry machine precision (repr round-trip). Every output file
embeds its provenance (model files) or gets a sidecar `<out>.manifest.json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pickle
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from ._forkjoin import Forked
from .errors import InfeasibleTarget, InvalidRegime, NegativePrice, TariffLabError
from .ingest import (
    CalibrationConfig,
    RawSeries,
    _parse_dense,
    baseline_tariff,
    calibrate_demand,
    estimate_moments,
    fit_provenance,
    parse_csv,
    read_model_file,
    revenue_baseline,
    write_model_file,
)
from .model import (
    FAMILY_ALIASES,
    TARIFF_FAMILIES,
    LinearDemandModel,
    Tariff,
    WelfareReport,
    checked_baseline,
    flat_rate_elasticity,
    retailer_surplus,
    welfare_gains,
)

if TYPE_CHECKING:
    from .pareto import ParetoFront

# options whose value may be a negative number such as -2.5e4 or -inf
_NUMERIC_OPTIONS = (
    "--target-rs", "--f-min", "--f-max", "--elasticity", "--connection-charge",
)

# largest `pareto --steps`, checked before any grid is built
MAX_STEPS = 10_000

# every accepted spelling of a family, its own name included
_ALIASES = {
    spelling: name
    for name, aliases in FAMILY_ALIASES.items()
    for spelling in (name, *aliases)
}


def _money(x: float) -> str:
    return format(x, ".4g")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_path, command: str, model_digest: str, flags: dict) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": {"model": model_digest},
        "flags": flags,
        "created": _now(),
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _scaled_prices(series: RawSeries, unit: str) -> RawSeries:
    if unit == "kwh":
        return series
    return dataclasses.replace(series, values=series.values * 1e-3)


def _load_model(args) -> tuple[LinearDemandModel, Tariff, str]:
    """The model in `--model`, its baseline tariff, with `--flat-rate` and
    `--connection-charge` in place of the file's, and the file's digest; an
    error names the file."""
    overrides = {
        "baseline_flat_rate": args.flat_rate,
        "baseline_connection_charge": args.connection_charge,
    }
    payload = dataclasses.replace(
        read_model_file(args.model),
        **{key: value for key, value in overrides.items() if value is not None},
    )
    try:
        model = payload.to_model()
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from exc
    baseline = payload.baseline_tariff()
    if baseline is None:
        raise ValueError(
            f"{args.model}: model file carries no baseline tariff; pass "
            "--flat-rate and --connection-charge"
        )
    return model, checked_baseline(model, baseline), payload.digest


def _baseline_flags(baseline: Tariff) -> dict:
    """The resolved baseline, recorded in every solve and pareto manifest."""
    return {
        "flat_rate": float(baseline.prices[0]),
        "connection_charge": baseline.connection_charge,
    }


def _resolve_target(raw: str, model: LinearDemandModel, baseline: Tariff) -> float:
    if raw == "baseline":
        return retailer_surplus(model, baseline)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"--target-rs must be a number or 'baseline', got {raw!r}"
        ) from None


def _parse_families(raw: str) -> set[str]:
    if raw == "all":
        return set(TARIFF_FAMILIES)
    names = [part.strip() for part in raw.split(",") if part.strip()]
    unknown = [n for n in names if n not in _ALIASES]
    if unknown or not names:
        raise ValueError(
            f"--families must list tariff families or 'all', got {raw!r}"
        )
    return {_ALIASES[n] for n in names}


def front_csv(fronts: list[ParetoFront], periods: int) -> str:
    cols = ["family", "F", "delta_cs", "delta_rs", "delta_sw", "feasible"]
    cols += [f"pi_{t}" for t in range(periods)]
    lines = [",".join(cols)]
    for front in fronts:
        for p in front.points:
            if p.feasible:
                prices = [repr(float(x)) for x in p.tariff.prices]
                row = [
                    front.family,
                    repr(float(p.F)),
                    repr(float(p.delta_cs)),
                    repr(float(p.delta_rs)),
                    repr(float(p.delta_sw)),
                    "true",
                    *prices,
                ]
            else:
                row = [front.family, repr(float(p.F))] + ["nan"] * 3 + ["false"]
                row += ["nan"] * periods
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _parse_csv_with_context(path, kind: str) -> RawSeries:
    try:
        return parse_csv(path, kind)
    except TariffLabError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_inputs(args) -> tuple[RawSeries, RawSeries]:
    """The load and price series of `fit`.

    The prices bytes are read first; a forked child (`Forked`) parses them
    if they are clean while this process parses the load file. A prices
    file that is not clean, or cannot be read, is parsed here after the load
    file, so errors come in the same order and with the same text as from
    two serial parses.
    """
    try:
        data = Path(args.prices).read_bytes()
    except OSError:
        data = b""  # not clean: `parse_csv` reports the error
    with Forked(lambda: [pickle.dumps(_parse_dense(data, "price"))]) as child:
        load = _parse_csv_with_context(args.load, "load")
        prices = pickle.loads(b"".join(child.blocks()))
    if prices is None:
        prices = _parse_csv_with_context(args.prices, "price")
    return load, _scaled_prices(prices, args.price_unit)


def cmd_fit(args) -> int:
    load, prices = _parse_inputs(args)
    try:
        scenarios = estimate_moments(load, prices)
    except NegativePrice as exc:
        raise ValueError(f"{args.prices}: {exc}") from exc
    config = CalibrationConfig(
        flat_rate=args.flat_rate,
        elasticity_target=args.elasticity,
        alpha=args.alpha,
        customers=args.customers,
        connection_charge=args.connection_charge,
    )
    model = calibrate_demand(scenarios, config)
    checked_baseline(model, baseline_tariff(model, config))
    provenance = fit_provenance(args.load, args.prices, config, created=_now())
    write_model_file(args.out, model, baseline=config, provenance=provenance)

    eigs = np.linalg.eigvalsh(model.G)
    revenue = revenue_baseline(model, config)
    print(f"model written to {args.out}")
    print(f"periods: {model.periods}  scenarios: {model.scenarios.n_scenarios}")
    print(f"realized elasticity at flat rate: {flat_rate_elasticity(model, config.flat_rate)!r}")
    print(f"G eigenvalue range: [{float(eigs[0])!r}, {float(eigs[-1])!r}]")
    print(f"tr cov(lambda, Omega): {model.scenarios.trace_sigma!r}")
    print(f"baseline revenue: gross {_money(revenue.gross)} $/cycle, "
          f"net {_money(revenue.net)} $/cycle")
    return 0


def print_solution(
    family: str, F: float, tariff: Tariff, report: WelfareReport, diagnostics: dict
) -> None:
    print(f"family: {family}")
    print(f"target rs (F): {_money(F)} $/cycle")
    print(f"connection charge A: {_money(tariff.connection_charge)} $/customer/cycle")
    print("prices ($/kWh):")
    for t, price in enumerate(tariff.prices):
        print(f"  {t:>3d}  {price:.6g}")
    for key, value in diagnostics.items():
        print(f"{key}: {value:.10g}")
    print("welfare vs baseline:")
    print(f"  delta_cs: {_money(report.delta_cs)} $/cycle")
    print(f"  delta_rs: {_money(report.delta_rs)} $/cycle")
    print(f"  delta_sw: {_money(report.delta_sw)} $/cycle")
    print(f"  rs_absolute: {_money(report.rs_absolute)} $/cycle")


def cmd_solve(args) -> int:
    from .pareto import FAMILIES, ParetoFront, ParetoPoint

    model, baseline, digest = _load_model(args)
    F = _resolve_target(args.target_rs, model, baseline)
    family = _ALIASES[args.family]
    tariff, diagnostics = FAMILIES[family].solve(model, F, baseline)
    report = welfare_gains(model, tariff, baseline)
    print_solution(family, F, tariff, report, diagnostics)
    if args.out:
        point = ParetoPoint(
            F=F,
            delta_cs=report.delta_cs,
            delta_rs=report.delta_rs,
            delta_sw=report.delta_sw,
            tariff=tariff,
            feasible=True,
        )
        front = ParetoFront(
            family=family,
            points=(point,),
            baseline=baseline,
            baseline_rs=retailer_surplus(model, baseline),
        )
        Path(args.out).write_text(front_csv([front], model.periods))
        _write_manifest(
            args.out, "solve", digest,
            {"family": family, "target_rs": args.target_rs,
             **_baseline_flags(baseline)},
        )
    return 0


def cmd_pareto(args) -> int:
    from .pareto import default_revenue_grid, sweep

    steps = args.steps
    if steps < 1:
        raise ValueError(f"--steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {steps}")
    model, baseline, digest = _load_model(args)
    families = _parse_families(args.families)
    if args.f_min is not None or args.f_max is not None:
        if args.f_min is None or args.f_max is None:
            raise ValueError("--f-min and --f-max must be given together")
        if steps == 1 and args.f_min != args.f_max:
            raise ValueError(
                f"--steps 1 needs --f-min equal to --f-max, got --f-min "
                f"{args.f_min!r} and --f-max {args.f_max!r}"
            )
        # a NaN bound goes on to the solvers' finite-target check; an
        # infinite span would make linspace warn and fill the grid with NaN
        bounds = (args.f_min, args.f_max)
        if not any(map(math.isnan, bounds)) and not math.isfinite(bounds[1] - bounds[0]):
            raise ValueError(
                f"the grid from --f-min {args.f_min!r} to --f-max "
                f"{args.f_max!r} has no finite step"
            )
        grid = np.linspace(args.f_min, args.f_max, steps)
    else:
        grid = default_revenue_grid(model, steps)
    fronts = sweep(model, baseline, families, grid)
    csv_text = front_csv(fronts, model.periods)
    flags = {
        "families": sorted(families),
        "f_min": float(grid[0]),
        "f_max": float(grid[-1]),
        "steps": steps,
        **_baseline_flags(baseline),
    }
    if args.out:
        Path(args.out).write_text(csv_text)
        _write_manifest(args.out, "pareto", digest, flags)
        print(f"front table written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        from .svg import render_fronts

        Path(args.svg).write_text(render_fronts(fronts))
        _write_manifest(args.svg, "pareto", digest, flags)
        print(f"front plot written to {args.svg}")
    return 0


def cmd_check(args) -> int:
    from .checks import run_model_checks

    payload = read_model_file(args.model)
    try:
        results = run_model_checks(payload)
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from exc
    failed = [r for r in results if r.failed]
    for r in results:
        print(f"{r.status} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} check(s) failed")
        return 4
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarifflab",
        description="welfare-optimal retail tariffs under stochastic prices and demand",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    fit = sub.add_parser("fit", help="calibrate a demand model from load/price CSVs")
    fit.add_argument("--load", required=True, help="hourly load CSV (day,hour,value)")
    fit.add_argument("--prices", required=True, help="hourly price CSV (day,hour,value)")
    fit.add_argument("--price-unit", choices=["kwh", "mwh"], default="kwh",
                     help="price unit in the CSV ($/kWh or $/MWh)")
    defaults = CalibrationConfig()
    fit.add_argument("--flat-rate", type=float, default=defaults.flat_rate,
                     help="baseline flat rate pi_CE, $/kWh")
    fit.add_argument("--elasticity", type=float,
                     default=defaults.elasticity_target,
                     help="target aggregate own-price elasticity at the flat rate")
    fit.add_argument("--alpha", type=float, default=defaults.alpha,
                     help="geometric decay of the substitution kernel, in [0,1)")
    fit.add_argument("--customers", type=int, default=defaults.customers)
    fit.add_argument("--connection-charge", type=float,
                     default=defaults.connection_charge,
                     help="baseline connection charge A_CE, $/customer/cycle")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=cmd_fit)

    solve = sub.add_parser("solve", help="solve one tariff family at a revenue target")
    solve.add_argument("--model", required=True)
    solve.add_argument("--family", required=True, choices=sorted(_ALIASES))
    solve.add_argument("--target-rs", required=True,
                       help="revenue target F in $/cycle, or 'baseline'")
    solve.add_argument("--flat-rate", type=float, default=None,
                       help="override the baseline flat rate from the model file")
    solve.add_argument("--connection-charge", type=float, default=None,
                       help="override the baseline connection charge")
    solve.add_argument("--out", default=None, help="optional machine-precision CSV")
    solve.set_defaults(func=cmd_solve)

    pareto = sub.add_parser("pareto", help="sweep revenue targets into Pareto fronts")
    pareto.add_argument("--model", required=True)
    pareto.add_argument("--families", default="all",
                        help="comma-separated families, or 'all'")
    pareto.add_argument("--f-min", type=float, default=None)
    pareto.add_argument("--f-max", type=float, default=None)
    pareto.add_argument("--steps", type=int, default=41)
    pareto.add_argument("--flat-rate", type=float, default=None)
    pareto.add_argument("--connection-charge", type=float, default=None)
    pareto.add_argument("--out", default=None, help="CSV output path (default stdout)")
    pareto.add_argument("--svg", default=None, help="optional SVG plot path")
    pareto.set_defaults(func=cmd_pareto)

    check = sub.add_parser("check", help="run model diagnostics")
    check.add_argument("--model", required=True)
    check.set_defaults(func=cmd_check)
    return parser


def _attach_numeric_values(argv: list[str]) -> list[str]:
    """Spell `--target-rs -2.5e4` as `--target-rs=-2.5e4`.

    argparse takes a value after an option for another option when it starts
    with '-' and is not a plain decimal, which rejects -2.5e4 and -inf.
    Abbreviated options (`--target`) are attached the same way.
    """
    out: list[str] = []
    for token in argv:
        if (
            out
            and len(out[-1]) > 2
            and any(opt.startswith(out[-1]) for opt in _NUMERIC_OPTIONS)
            and token.startswith("-")
        ):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_numeric_values(argv))
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    shown: set[str] = set()

    def plain_warning(message, *_) -> str:
        # each distinct message once, without its source file and line
        text = "" if str(message) in shown else f"warning: {message}\n"
        shown.add(str(message))
        return text

    default_format, warnings.formatwarning = warnings.formatwarning, plain_warning
    try:
        return args.func(args)
    except (InfeasibleTarget, InvalidRegime) as exc:
        print(exc, file=sys.stderr)
        return 3
    except (TariffLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    raise SystemExit(main())
