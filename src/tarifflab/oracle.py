"""Brute-force verifiers: grid-search welfare maximizers and per-scenario
settlement accounting.

These are the independent cross-checks for the solvers and the analytic
margin formula. They never replace the solvers in production paths and the
grid is deliberately capped at 3 periods. `check` searches it for the
Lagrangian argmax (`_grid_argmax_lagrangian`), which needs no revenue band.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFeasibleSet
from .model import DemandModel, LinearDemandModel, Tariff, _as_price_vector


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (lo, hi, steps) search grid, lexicographic enumeration."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if len(self.axes) > 3:
            raise ValueError("grid search is limited to 3 periods")
        for lo, hi, steps in self.axes:
            if not lo < hi:
                raise ValueError(f"grid axis needs lo < hi, got ({lo}, {hi})")
            if steps < 2:
                raise ValueError("grid axis needs at least 2 steps")
        object.__setattr__(
            self, "axes", tuple((float(lo), float(hi), int(s)) for lo, hi, s in self.axes)
        )

    @classmethod
    def cube(cls, lo: float, hi: float, steps: int = 400, dims: int = 2) -> "GridSpec":
        return cls(tuple((lo, hi, steps) for _ in range(dims)))

    def axis_points(self, i: int) -> np.ndarray:
        lo, hi, steps = self.axes[i]
        return np.linspace(lo, hi, steps)

    @property
    def max_step(self) -> float:
        """Largest spacing over all axes; 'one grid step' in agreement checks."""
        return max((hi - lo) / (steps - 1) for lo, hi, steps in self.axes)


@dataclass(frozen=True)
class RsConstraint:
    """Constrain a banded search to |rs(pi) - target| <= band (not `check`'s)."""

    target: float
    band: float


@dataclass(frozen=True)
class SettlementLedger:
    """Per-scenario cash flows of a tariff: one row per scenario."""

    demand: np.ndarray
    revenue: np.ndarray
    wholesale_cost: np.ndarray
    margin: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "margin", self.revenue - self.wholesale_cost)

    @property
    def mean_margin(self) -> float:
        return float(self.margin.mean())


def settle_scenarios(model: DemandModel, tariff: Tariff) -> SettlementLedger:
    """Settle a tariff scenario by scenario.

    For each scenario j: demand D_j(pi), retailer revenue M A + pi' D_j,
    wholesale cost lam_j' D_j. The (J, N) demand comes from one
    `scenario_demands` call and each sum is a row-wise dot product. The
    margin average reproduces phi_bar(pi) + M A; this is the independent
    route against the analytic moment formula.
    """
    pi = _as_price_vector(model, tariff.prices)
    demand = model.scenario_demands(pi)
    revenue = model.customers * tariff.connection_charge + np.vecdot(demand, pi)
    cost = np.vecdot(demand, model.scenarios.lams)
    return SettlementLedger(demand=demand, revenue=revenue, wholesale_cost=cost)


def _point_blocks(grid: GridSpec, flat: bool):
    """Yield (K, N) blocks of grid points in lexicographic order."""
    n = len(grid.axes)
    if flat or n == 1:
        yield np.repeat(grid.axis_points(0)[:, None], n, axis=1)
        return
    # block per leading-axis value keeps memory bounded for 3-D grids
    tail = np.array(list(itertools.product(*[grid.axis_points(i) for i in range(1, n)])))
    block = np.empty((tail.shape[0], n))
    for x in grid.axis_points(0):
        block[:, 0] = x
        block[:, 1:] = tail
        yield block


def _grid_argmax_lagrangian(
    model: LinearDemandModel,
    baseline: Tariff,
    grid: GridSpec,
    multipliers,
    feasible=None,
    flat: bool = False,
) -> list[tuple[np.ndarray | None, float]]:
    """(pi, value) maximizing delta_sw + mu * phi_bar for each multiplier mu.

    Welfare and margin are concave, so the welfare maximizer at margin F is
    this Lagrangian's unconstrained maximizer at F's multiplier. `feasible`
    masks grid points by their margin (pi is None where none is feasible);
    exact ties go to the lexicographically smallest pi. Each block's welfare
    gain and margin are computed once.
    """
    if len(grid.axes) != model.periods:
        raise ValueError(
            f"grid has {len(grid.axes)} axes, model has {model.periods} periods"
        )

    G = model.G
    lam = model.scenarios.lambda_bar
    om = model.scenarios.omega_bar
    tr_sigma = model.scenarios.trace_sigma

    pib = baseline.prices
    cs_base = 0.5 * float(pib @ G @ pib) - float(pib @ om)
    rs_base = float((pib - lam) @ (om - G @ pib)) - tr_sigma

    best = [(None, -np.inf)] * len(multipliers)
    for pts in _point_blocks(grid, flat):
        gp = pts @ G  # G symmetric: row i is G @ pts[i]
        quad = 0.5 * np.einsum("ij,ij->i", pts, gp)
        cs = quad - pts @ om  # up to the benefit offset and -M*A
        rs = np.einsum("ij,ij->i", pts - lam, om - gp) - tr_sigma
        # connection charges cancel in delta_sw, so they are omitted from
        # both sides
        delta_sw = (cs - cs_base) + (rs - rs_base)
        if feasible is not None:
            delta_sw = np.where(feasible(rs), delta_sw, -np.inf)
        for k, mu in enumerate(multipliers):
            values = delta_sw + mu * rs
            i = int(np.argmax(values))
            # strict > keeps the first (lexicographically smallest) tie-holder
            if values[i] > best[k][1]:
                best[k] = (pts[i].copy(), float(values[i]))
    return best


def grid_argmax_welfare(
    model: LinearDemandModel,
    baseline: Tariff,
    constraint: RsConstraint | None,
    grid: GridSpec,
    *,
    connection_charge: float = 0.0,
    flat: bool = False,
) -> tuple[np.ndarray, float]:
    """Exhaustive argmax of the total-surplus gain over a price grid.

    `constraint` filters to |phi_bar(pi) + M*connection_charge - target| <=
    band; `flat` restricts the search to the diagonal pi = p * 1 (the search
    space of the flat tariff families). Returns (pi, delta_sw); exact ties go
    to the lexicographically smallest pi.
    """
    def feasible(rs):
        gap = np.abs(rs + model.customers * connection_charge - constraint.target)
        return gap <= constraint.band

    ((pi, value),) = _grid_argmax_lagrangian(
        model, baseline, grid, (0.0,), None if constraint is None else feasible, flat
    )
    if pi is None:
        raise EmptyFeasibleSet(
            f"no grid point within {constraint.band!r} of rs target "
            f"{constraint.target!r}"
        )
    return pi, value
