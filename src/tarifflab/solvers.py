"""Optimal tariff solvers.

Two-part tariffs price at a fixed point of the markup condition, with the
connection charge absorbing the gap to the revenue target. Linear
(volumetric-only) tariffs solve a Ramsey problem: an outer scalar bisection
on the markup intensity against the revenue target, with an inner damped
fixed point on the price vector. Flat-rate variants run the same machinery
on the diagonal.

The model's type picks the path: a `LinearDemandModel` (deterministic price
response) takes the closed forms, in which the two-part markup vanishes and
the Ramsey and monopoly prices lie on the segment from the expected
wholesale price to the satiation price; any other `DemandModel` iterates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndependenceWarning,
    InfeasibleTarget,
    InvalidRegime,
    NonConvergence,
    PriceSignWarning,
    SingularJacobian,
)
from .model import (
    DemandModel,
    LinearDemandModel,
    Tariff,
    _as_price_vector,
    central_difference,
    phi_bar,
    welfare_gains,
)

_COND_LIMIT = 1e13


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the fixed-point and bisection solvers.

    `rs_tol` is relative: the bisection accepts |rs - F| <= rs_tol * max(1, |F|).
    `damping` starts each fixed point and is halved whenever the residual
    grows. `s_tol` is the width, relative to max(1, |hi|), at which the
    bisection interval stops shrinking; if its midpoint then misses the
    `rs_tol` band, halving goes on until the interval has no interior point.
    """

    fp_tol: float = 1e-10
    max_iterations: int = 200
    damping: float = 1.0
    rs_tol: float = 1e-8
    s_tol: float = 1e-13

    def __post_init__(self):
        if self.fp_tol <= 0 or self.rs_tol <= 0 or self.s_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")

    def rs_tolerance(self, target: float) -> float:
        return self.rs_tol * max(1.0, abs(target))


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class RamseySolution:
    """Optimal linear tariff: price, markup intensity, achieved surplus."""

    prices: np.ndarray
    rho: float
    gamma: float
    achieved_rs: float

    def __post_init__(self):
        if not -1e-12 <= self.rho <= 1 + 1e-12:
            raise ValueError("markup intensity must lie in [0, 1]")

    @property
    def tariff(self) -> Tariff:
        return Tariff(connection_charge=0.0, prices=self.prices, family="linear-optimal")


@dataclass(frozen=True)
class Assumption1Sample:
    pi: np.ndarray
    max_symmetric_eigenvalue: float

    @property
    def negative_definite(self) -> bool:
        return self.max_symmetric_eigenvalue < 0


@dataclass(frozen=True)
class Assumption1Report:
    samples: tuple[Assumption1Sample, ...]
    passed: bool = field(init=False)
    vacuous: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vacuous", len(self.samples) == 0)
        object.__setattr__(
            self, "passed", all(s.negative_definite for s in self.samples)
        )


def _warn_on_sign(model: DemandModel, pi: np.ndarray, context: str) -> None:
    if (pi < 0).any():
        warnings.warn(
            f"{context}: price vector has negative entries", PriceSignWarning,
            stacklevel=3,
        )
    elif (model.mean_demand(pi) < 0).any():
        warnings.warn(
            f"{context}: expected demand is negative in some period",
            PriceSignWarning, stacklevel=3,
        )


def _require_finite(target: float) -> None:
    if not math.isfinite(target):
        raise ValueError(f"revenue target must be finite, got {target!r}")


def _bisect_target(
    model: DemandModel,
    price_at,
    lo: float,
    hi: float,
    start: np.ndarray | None,
    target: float,
    config: SolverConfig,
) -> tuple[float, np.ndarray, float]:
    """Bisect [lo, hi] for the point whose prices collect `target`.

    `price_at(x, start)` maps a bracket point to a price vector whose margin
    increases in x; `start` is the price at the current lower end, a warm
    start for iterative inner solves. Returns (x, prices, achieved margin).
    """
    tol = config.rs_tolerance(target)
    pi_lo = start
    while True:
        x = 0.5 * (lo + hi)
        pi = price_at(x, pi_lo)
        achieved = phi_bar(model, pi)
        # past the s_tol width, halving goes on only while the margin misses
        # the revenue band (a steep margin near a small target) and the
        # interval still has an interior point
        if hi - lo <= config.s_tol * max(1.0, abs(hi)) and (
            abs(achieved - target) <= tol or not lo < x < hi
        ):
            break
        if achieved <= target:
            lo, pi_lo = x, pi
        else:
            hi = x
    if abs(achieved - target) > tol:
        raise NonConvergence(
            f"bisection stalled at rs {achieved!r} for target {target!r}"
        )
    return x, pi, achieved


def _solve_mean_jacobian(jbar: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if not np.isfinite(jbar).all() or np.linalg.cond(jbar) > _COND_LIMIT:
        raise SingularJacobian("mean demand Jacobian is numerically singular")
    try:
        return np.linalg.solve(jbar, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from None


def _damped_fixed_point(
    step, start: np.ndarray, config: SolverConfig
) -> np.ndarray:
    """Iterate pi <- (1-d) pi + d step(pi) until the update stalls below tol."""
    pi = np.asarray(start, dtype=float).copy()
    damping = config.damping
    prev_residual = math.inf
    prev_update = np.zeros_like(pi)
    for _ in range(config.max_iterations):
        target = step(pi)
        update = target - pi
        residual = float(np.max(np.abs(update)))
        if residual <= config.fp_tol * max(1.0, float(np.max(np.abs(pi)))):
            return target
        # a non-decreasing residual (stall, or a period-2 cycle) or an update
        # that turns back on the last one (overshoot) means damp harder; the
        # markup step's slope is -rho, so at rho near 1 the overshoot shrinks
        # too slowly to ever show in the residual
        if residual >= prev_residual or float(update @ prev_update) < 0:
            damping = max(damping / 2.0, 1e-4)
        prev_residual, prev_update = residual, update
        pi = (1.0 - damping) * pi + damping * target
    raise NonConvergence(
        f"fixed point did not converge in {config.max_iterations} iterations "
        f"(last update {prev_residual!r})"
    )


def _two_part_price(model: DemandModel, config: SolverConfig) -> np.ndarray:
    """Price of the optimal two-part tariff.

    Linear demand: with deterministic price response the Jacobian is
    uncorrelated with the wholesale price and the markup term vanishes, so
    the price is the expected wholesale price. Generic demand iterates
    pi <- lam_bar + E[dD]^-1 E[dD (lam - lam_bar)].
    """
    lam_bar = model.scenarios.lambda_bar
    if isinstance(model, LinearDemandModel):
        return lam_bar.copy()

    lams = model.scenarios.lams

    def step(pi: np.ndarray) -> np.ndarray:
        jbar = model.mean_jacobian(pi)
        weighted = np.mean(
            [
                model.demand_jacobian(pi, j) @ (lams[j] - lam_bar)
                for j in range(model.scenarios.n_scenarios)
            ],
            axis=0,
        )
        return lam_bar + _solve_mean_jacobian(jbar, weighted)

    return _damped_fixed_point(step, lam_bar, config)


def _markup_price(
    model: DemandModel,
    rho: float,
    pistar: np.ndarray,
    start: np.ndarray,
    config: SolverConfig,
) -> np.ndarray:
    """Damped fixed point of the markup condition pi <- pi* - rho E[dD]^-1 E[D].

    rho = 1 is the monopoly price; rho in [0, 1) the Ramsey price at that
    markup intensity.
    """

    def step(pi: np.ndarray) -> np.ndarray:
        return pistar - rho * _solve_mean_jacobian(
            model.mean_jacobian(pi), model.mean_demand(pi)
        )

    return _damped_fixed_point(step, start, config)


def solve_two_part(
    model: DemandModel, F: float, config: SolverConfig = DEFAULT_CONFIG
) -> Tariff:
    """Optimal two-part tariff meeting the revenue target F ($/cycle).

    The connection charge spreads the gap between the target and the
    volumetric margin uniformly: A = (F - phi_bar(pi)) / M. Welfare does not
    depend on F (only the split between consumers and the retailer does).
    """
    _require_finite(F)
    if model.customers < 1:
        raise ValueError("a two-part tariff needs at least one customer")
    pi = _two_part_price(model, config)
    charge = (F - phi_bar(model, pi)) / model.customers
    _warn_on_sign(model, pi, "two-part tariff")
    return Tariff(connection_charge=charge, prices=pi, family="two-part-optimal")


def monopoly_price(
    model: DemandModel,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    verify: bool = True,
) -> np.ndarray:
    """Price maximizing the expected volumetric margin (feasibility frontier).

    Linear demand: the midpoint of the satiation price and the expected
    wholesale price. Generic demand: the markup fixed point at rho = 1. With
    `verify`, spot-checks that nearby prices do not collect a strictly
    larger margin.
    """
    if isinstance(model, LinearDemandModel):
        pim = 0.5 * (model.satiation_price() + model.scenarios.lambda_bar)
    else:
        pistar = _two_part_price(model, config)
        pim = _markup_price(model, 1.0, pistar, pistar, config)

    if verify:
        base = phi_bar(model, pim)
        scale = max(1.0, abs(base))
        # pim +- h_t e_t for every period t, in one stacked call
        steps = np.diag(1e-4 * np.maximum(1.0, np.abs(pim)))
        probes = np.concatenate([pim + steps, pim - steps])
        if (phi_bar(model, probes) > base + 1e-6 * scale).any():
            raise NonConvergence("monopoly price failed its local-maximum verification")
    return pim


def _ramsey_price_at(
    model: DemandModel,
    s: float,
    pistar: np.ndarray,
    config: SolverConfig,
    start: np.ndarray,
) -> np.ndarray:
    """Ramsey price at intensity rho = s/(1-s).

    Linear demand: the point s of the way from the expected wholesale price
    to the satiation price. Generic demand: the markup fixed point.
    """
    if isinstance(model, LinearDemandModel):
        pio = model.satiation_price()
        lam_bar = model.scenarios.lambda_bar
        return lam_bar + s * (pio - lam_bar)
    rho = s / (1.0 - s) if s < 0.5 else 1.0
    return _markup_price(model, rho, pistar, start, config)


def solve_linear(
    model: DemandModel, F: float, config: SolverConfig = DEFAULT_CONFIG
) -> RamseySolution:
    """Optimal linear (volumetric-only) tariff with expected surplus F.

    Valid in the large-F regime phi_bar(pi*) <= F <= phi_bar(pi_M): below it
    raises InvalidRegime, above it InfeasibleTarget. Bisects the markup
    intensity s = rho/(1+rho) over [0, 1/2] (the low-markup branch, on which
    the collected margin increases monotonically) until the surplus matches F.
    """
    _require_finite(F)
    pistar = _two_part_price(model, config)
    phi_star = phi_bar(model, pistar)
    pim = monopoly_price(model, config, verify=False)
    phi_max = phi_bar(model, pim)
    tol = config.rs_tolerance(F)
    if F < phi_star - tol:
        raise InvalidRegime(F, phi_star)
    if F > phi_max + tol:
        raise InfeasibleTarget(F, (phi_star, phi_max))

    def price_at(s: float, start: np.ndarray) -> np.ndarray:
        return _ramsey_price_at(model, s, pistar, config, start)

    s, pi, achieved = _bisect_target(model, price_at, 0.0, 0.5, pistar, F, config)
    rho = s / (1.0 - s)
    gamma = 1.0 / (1.0 - rho) if rho < 1.0 else math.inf
    _warn_on_sign(model, pi, "linear tariff")
    return RamseySolution(prices=pi, rho=rho, gamma=gamma, achieved_rs=achieved)


def _flat_phi(model: DemandModel, rate: float) -> float:
    return phi_bar(model, np.full(model.periods, float(rate)))


def _flat_monopoly_rate(model: DemandModel, config: SolverConfig) -> float:
    if isinstance(model, LinearDemandModel):
        ones = np.ones(model.periods)
        g1 = model.G @ ones
        return float(
            (ones @ model.scenarios.omega_bar + model.scenarios.lambda_bar @ g1)
            / (2.0 * float(ones @ g1))
        )
    # generic demand: expand a bracket past the peak, then ternary-search the
    # concave margin
    lo = 0.0
    hi = max(1.0, 2.0 * float(model.scenarios.lambda_bar.mean()))
    while _flat_phi(model, hi) > _flat_phi(model, hi * 0.5):
        hi *= 2.0
        if hi > 1e12:
            raise NonConvergence("flat monopoly rate bracket did not close")
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _flat_phi(model, m1) < _flat_phi(model, m2):
            lo = m1
        else:
            hi = m2
        if hi - lo <= config.s_tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _flat_low_root(model: DemandModel, target: float, config: SolverConfig) -> float:
    """Lowest rate whose flat margin hits `target` (the low-markup root)."""
    _require_finite(target)
    rate_m = _flat_monopoly_rate(model, config)
    phi_max = _flat_phi(model, rate_m)
    if target > phi_max + config.rs_tolerance(target):
        raise InfeasibleTarget(target, (-math.inf, phi_max))
    # walk left from the peak until the margin falls below the target,
    # then bisect on the increasing branch
    step = max(1.0, abs(rate_m))
    lo = rate_m - step
    while _flat_phi(model, lo) > target:
        step *= 2.0
        lo = rate_m - step
        if step > 1e12:
            raise NonConvergence("flat-rate root bracket did not close")
    return _bisect_target(
        model, lambda rate, _: np.full(model.periods, rate), lo, rate_m, None,
        target, config,
    )[0]


def solve_flat_linear(
    model: DemandModel, F: float, config: SolverConfig = DEFAULT_CONFIG
) -> Tariff:
    """Optimized flat volumetric tariff: lowest flat rate with margin F."""
    rate = _flat_low_root(model, F, config)
    pi = np.full(model.periods, rate)
    _warn_on_sign(model, pi, "flat linear tariff")
    return Tariff(connection_charge=0.0, prices=pi, family="flat-linear")


def solve_fixed_A_two_part(
    model: DemandModel,
    F: float,
    A_fixed: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Tariff:
    """Two-part tariff with a frozen connection charge."""
    return solve_fixed_A_ramsey(model, F, A_fixed, config)[0]


def solve_fixed_A_ramsey(
    model: DemandModel,
    F: float,
    A_fixed: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[Tariff, RamseySolution]:
    """Fixed-charge two-part tariff and the Ramsey solution of its prices.

    The volumetric part must collect F - M * A_fixed on its own, so this is
    the optimal linear tariff at the residual target.
    """
    residual = F - model.customers * A_fixed
    solution = solve_linear(model, residual, config)
    tariff = Tariff(
        connection_charge=A_fixed, prices=solution.prices, family="fixed-A-two-part"
    )
    return tariff, solution


def solve_adjusted_flat(
    model: DemandModel,
    F: float,
    base_rate: float,
    A_fixed: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Tariff:
    """Flat two-part tariff with frozen charge: rate base_rate + delta.

    delta solves phi_bar(1 * (base_rate + delta)) + M * A_fixed = F at the
    low-markup root; at F equal to the baseline's own surplus, delta is 0.
    """
    residual = F - model.customers * A_fixed
    rate = _flat_low_root(model, residual, config)
    pi = np.full(model.periods, rate)
    _warn_on_sign(model, pi, "adjusted flat tariff")
    return Tariff(connection_charge=A_fixed, prices=pi, family="adjusted-flat")


def adjusted_flat_delta(tariff: Tariff, base_rate: float) -> float:
    """Rate adjustment of an adjusted-flat tariff relative to its base rate."""
    return float(tariff.prices[0]) - base_rate


def check_assumption1(model: DemandModel, pi_samples) -> Assumption1Report:
    """Numerically screen the curvature condition behind the solvers.

    Estimates the Jacobian of g(pi) = E[dD(pi) (pi - lam)], the model's
    `mean_jacobian_margin`, by central differences at each sample and
    reports the largest eigenvalue of its symmetric part; the condition
    holds at a sample iff that eigenvalue is negative. An empty sample list passes vacuously.
    """
    samples = []
    for raw in pi_samples:
        pi = _as_price_vector(model, raw)
        jac = central_difference(model.mean_jacobian_margin, pi)
        sym = 0.5 * (jac + jac.T)
        max_eig = float(np.linalg.eigvalsh(sym)[-1])
        samples.append(Assumption1Sample(pi=pi, max_symmetric_eigenvalue=max_eig))
    return Assumption1Report(samples=tuple(samples))


def planner_bound_gain(
    model: LinearDemandModel,
    baseline: Tariff,
    *,
    correlation_threshold: float = 0.2,
) -> float:
    """Welfare gain of pricing at the expected wholesale price.

    Under independence of prices and demand states this is the social
    planner's upper bound for the quadratic consumer model, attained by the
    optimal two-part tariff. When the scenario set shows material
    price/demand-state correlation, an IndependenceWarning flags that the
    bound interpretation does not apply (the value is still returned).
    """
    ss = model.scenarios
    lam_sd = ss.lams.std(axis=0)
    om_sd = ss.omegas.std(axis=0)
    denom = np.outer(lam_sd, om_sd)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, ss.sigma_lambda_omega / denom, 0.0)
    peak = float(np.abs(corr).max()) if corr.size else 0.0
    if peak > correlation_threshold:
        warnings.warn(
            f"price/demand-state correlation up to {peak:.3f} exceeds "
            f"{correlation_threshold}; the planner bound assumes independence",
            IndependenceWarning,
            stacklevel=2,
        )
    planner = Tariff(
        connection_charge=baseline.connection_charge,
        prices=ss.lambda_bar,
        family="two-part-optimal",
    )
    return welfare_gains(model, planner, baseline).delta_sw
