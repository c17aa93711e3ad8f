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
    WelfareReport,
    retailer_surplus,
    welfare_gains,
)
from .solvers import (
    RamseySolution,
    _feasible_range,
    solve_adjusted_flat,
    solve_fixed_A_ramsey,
    solve_flat_linear,
    solve_linear,
    solve_two_part,
)


@dataclass(frozen=True)
class Family:
    """One tariff family: its name, plot colour and solver.

    `solve(model, F, baseline)` returns the tariff and the diagnostics
    `solve` prints. The fixed-charge families keep the baseline's connection
    charge, and adjusted-flat reports its rate as a move from the baseline's
    flat rate. It takes no tolerance: every family solves to the fixed
    tolerances of `solvers`.
    """

    name: str
    color: str
    solve: Callable[..., tuple[Tariff, dict[str, float]]]


def _ramsey_diagnostics(solution: RamseySolution) -> dict[str, float]:
    return {"rho": solution.rho, "gamma": solution.gamma,
            "achieved_rs": solution.achieved_rs}


def _two_part(model, F, baseline):
    return solve_two_part(model, F), {}


def _linear(model, F, baseline):
    solution = solve_linear(model, F)
    return solution.tariff, _ramsey_diagnostics(solution)


def _flat(model, F, baseline):
    return solve_flat_linear(model, F), {}


def _fixed_A(model, F, baseline):
    tariff, solution = solve_fixed_A_ramsey(model, F, baseline.connection_charge)
    return tariff, _ramsey_diagnostics(solution)


def _adjusted_flat(model, F, baseline):
    if not baseline.is_flat:
        raise ValueError("adjusted-flat sweeps need a flat baseline rate")
    rate = float(baseline.prices[0])
    tariff = solve_adjusted_flat(model, F, rate, baseline.connection_charge)
    return tariff, {"delta": float(tariff.prices[0]) - rate}


FAMILIES = {
    f.name: f
    for f in (
        Family("two-part-optimal", "#1f77b4", _two_part),
        Family("linear-optimal", "#d62728", _linear),
        Family("flat-linear", "#9467bd", _flat),
        Family("fixed-A-two-part", "#2ca02c", _fixed_A),
        Family("adjusted-flat", "#ff7f0e", _adjusted_flat),
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
    ends = _feasible_range(model)
    return np.linspace(ends.two_part[1], ends.monopoly[1], steps)


def solve_point(
    model: LinearDemandModel, family: str, F: float, baseline: Tariff
) -> tuple[ParetoPoint, WelfareReport, dict[str, float]]:
    """`family` at target F: its feasible point, its gains over `baseline` and
    the diagnostics `solve` prints. A target out of the family's range raises."""
    tariff, diagnostics = FAMILIES[family].solve(model, F, baseline)
    report = welfare_gains(model, tariff, baseline)
    return ParetoPoint(
        F=F, delta_cs=report.delta_cs, delta_rs=report.delta_rs,
        delta_sw=report.delta_sw, tariff=tariff, feasible=True,
    ), report, diagnostics


def sweep(
    model: LinearDemandModel,
    baseline: Tariff,
    families,
    F_grid,
) -> list[ParetoFront]:
    """Each family across the revenue-target grid, one `solve_point` a target.

    Targets a family cannot meet are recorded in-band as infeasible points so
    the frontier F = phi_bar(pi_M) stays visible.
    """
    requested = set(families)
    unknown = requested - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown families {sorted(unknown)}; expected among {TARIFF_FAMILIES}"
        )
    families = [f for f in FAMILIES if f in requested]
    targets = [float(f) for f in F_grid]
    order = sorted(range(len(targets)), key=lambda i: targets[i])
    baseline_rs = retailer_surplus(model, baseline)

    def point_at(family: str, F: float) -> ParetoPoint:
        try:
            return solve_point(model, family, F, baseline)[0]
        except (InfeasibleTarget, InvalidRegime):
            return ParetoPoint(
                F=F, delta_cs=math.nan, delta_rs=math.nan, delta_sw=math.nan,
                tariff=None, feasible=False,
            )

    return [
        ParetoFront(
            family=name,
            points=tuple(point_at(name, targets[i]) for i in order),
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
