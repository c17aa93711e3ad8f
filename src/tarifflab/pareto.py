"""Revenue-target sweeps and Pareto fronts for the five tariff families."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTarget, InvalidRegime, TooFewPoints
from .model import (
    TARIFF_FAMILIES,
    LinearDemandModel,
    Tariff,
    retailer_surplus,
    welfare_gains,
)
from .solvers import (
    RamseySolution,
    adjusted_flat_delta,
    monopoly_price,
    phi_bar,
    solve_adjusted_flat,
    solve_fixed_A_ramsey,
    solve_flat_linear,
    solve_linear,
    solve_two_part,
)


@dataclass(frozen=True)
class Family:
    """One tariff family: its name, CLI aliases, plot colour and solver.

    `solve(model, F, fixed_charge, base_rate)` returns the tariff and the
    diagnostics `solve` prints. `fixed_charge` is the frozen connection
    charge of the fixed-charge families; `base_rate` is adjusted-flat's rate
    before adjustment. It takes no tolerance: every family solves to the
    fixed tolerances of `solvers`.
    """

    name: str
    aliases: tuple[str, ...]
    color: str
    solve: Callable[..., tuple[Tariff, dict[str, float]]]


def _ramsey_diagnostics(solution: RamseySolution) -> dict[str, float]:
    return {"rho": solution.rho, "gamma": solution.gamma,
            "achieved_rs": solution.achieved_rs}


def _two_part(model, F, fixed_charge, base_rate):
    return solve_two_part(model, F), {}


def _linear(model, F, fixed_charge, base_rate):
    solution = solve_linear(model, F)
    return solution.tariff, _ramsey_diagnostics(solution)


def _flat(model, F, fixed_charge, base_rate):
    return solve_flat_linear(model, F), {}


def _fixed_A(model, F, fixed_charge, base_rate):
    tariff, solution = solve_fixed_A_ramsey(model, F, fixed_charge)
    return tariff, _ramsey_diagnostics(solution)


def _adjusted_flat(model, F, fixed_charge, base_rate):
    if base_rate is None:
        raise ValueError("adjusted-flat sweeps need a flat baseline rate")
    tariff = solve_adjusted_flat(model, F, base_rate, fixed_charge)
    return tariff, {"delta": adjusted_flat_delta(tariff, base_rate)}


FAMILIES = {
    f.name: f
    for f in (
        Family("two-part-optimal", ("two-part",), "#1f77b4", _two_part),
        Family("linear-optimal", ("linear",), "#d62728", _linear),
        Family("flat-linear", (), "#9467bd", _flat),
        Family("fixed-A-two-part", ("fixed-a-two-part",), "#2ca02c", _fixed_A),
        Family("adjusted-flat", (), "#ff7f0e", _adjusted_flat),
    )
}


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep point; infeasible targets are kept, flagged, with NaN gains."""

    F: float
    delta_cs: float
    delta_rs: float
    delta_sw: float
    tariff: Tariff | None
    feasible: bool


@dataclass(frozen=True)
class ParetoFront:
    family: str
    points: tuple[ParetoPoint, ...]
    baseline: Tariff
    baseline_rs: float

    def __post_init__(self):
        fs = [p.F for p in self.points]
        if any(b < a for a, b in zip(fs, fs[1:])):
            raise ValueError("front points must be sorted by F ascending")

    @property
    def feasible_points(self) -> tuple[ParetoPoint, ...]:
        return tuple(p for p in self.points if p.feasible)


@dataclass(frozen=True)
class FrontSlope:
    """Finite-difference slope d delta_rs / d delta_cs ending at F."""

    F: float
    slope: float
    second_difference: float


def default_revenue_grid(model: LinearDemandModel, steps: int = 41) -> np.ndarray:
    """Evenly spaced targets spanning the linear-tariff feasibility range."""
    lo = phi_bar(model, model.scenarios.lambda_bar)
    hi = phi_bar(model, monopoly_price(model, verify=False))
    return np.linspace(lo, hi, steps)


def sweep(
    model: LinearDemandModel,
    baseline: Tariff,
    families,
    F_grid,
    *,
    fixed_charge: float | None = None,
    base_rate: float | None = None,
) -> list[ParetoFront]:
    """Solve each family across the revenue-target grid.

    Targets a family cannot meet are recorded in-band as infeasible points so
    the frontier F = phi_bar(pi_M) stays visible. `fixed_charge` (for the
    fixed-charge families) defaults to the baseline's connection charge;
    `base_rate` (for adjusted-flat) defaults to the baseline's rate when the
    baseline is flat.
    """
    requested = set(families)
    unknown = requested - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown families {sorted(unknown)}; expected among {TARIFF_FAMILIES}"
        )
    families = [f for f in FAMILIES if f in requested]
    if fixed_charge is None:
        fixed_charge = baseline.connection_charge
    if base_rate is None and baseline.is_flat:
        base_rate = float(baseline.prices[0])
    targets = [float(f) for f in F_grid]
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    baseline_rs = retailer_surplus(model, baseline)

    def solve_point(family: Family, F: float) -> ParetoPoint:
        try:
            tariff, _ = family.solve(model, F, fixed_charge, base_rate)
        except (InfeasibleTarget, InvalidRegime):
            return ParetoPoint(
                F=F, delta_cs=math.nan, delta_rs=math.nan, delta_sw=math.nan,
                tariff=None, feasible=False,
            )
        report = welfare_gains(model, tariff, baseline)
        return ParetoPoint(
            F=F,
            delta_cs=report.delta_cs,
            delta_rs=report.delta_rs,
            delta_sw=report.delta_sw,
            tariff=tariff,
            feasible=True,
        )

    return [
        ParetoFront(
            family=name,
            points=tuple(solve_point(FAMILIES[name], targets[i]) for i in order),
            baseline=baseline,
            baseline_rs=baseline_rs,
        )
        for name in families
    ]


def front_slope_report(front: ParetoFront) -> list[FrontSlope]:
    """Per-segment slopes d delta_rs / d delta_cs and their differences.

    Needs at least three feasible points. Row i describes the segment ending
    at that point's F; the second difference compares consecutive segment
    slopes (a concavity diagnostic), NaN on the first segment.
    """
    pts = front.feasible_points
    if len(pts) < 3:
        raise TooFewPoints(
            f"slope report needs >= 3 feasible points, front has {len(pts)}"
        )
    slopes = []
    for a, b in zip(pts, pts[1:]):
        dcs = b.delta_cs - a.delta_cs
        drs = b.delta_rs - a.delta_rs
        slopes.append(drs / dcs if dcs != 0 else math.inf * (1 if drs >= 0 else -1))
    rows = []
    for i, s in enumerate(slopes):
        second = math.nan if i == 0 else s - slopes[i - 1]
        rows.append(FrontSlope(F=pts[i + 1].F, slope=s, second_difference=second))
    return rows
