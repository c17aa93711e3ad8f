"""Optimal tariff solvers.

Two-part tariffs price at a fixed point of the markup condition, with the
connection charge absorbing the gap to the revenue target. Linear
(volumetric-only) tariffs solve a Ramsey problem: the markup intensity whose
prices collect the revenue target. Flat-rate variants solve the same problem
on the diagonal.

The model's type picks the path. A `LinearDemandModel` (deterministic price
response) takes the closed forms: the two-part markup vanishes, the Ramsey
and monopoly prices lie on the ray from the expected wholesale price to the
satiation price, where the margin is a scalar quadratic in the markup, and
each flat rate is the low root of another scalar quadratic. Any other
`DemandModel` iterates: an outer bisection of the markup intensity against
the target around an inner damped fixed point on the price vector, and for
flat rates a ternary search for the peak, bracketed by walks out to both
sides, then a walk left from the peak and a bisection for the root. The
walks double their step with no cap. Every path ends with the same revenue
band check, |rs - F| <= 1e-8 * max(1, |F|) (`rs_tolerance`).

The tolerances are fixed module constants, not options: they are not part
of a tariff's definition.
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


# Tolerances of every solve, read at call time. `_RS_TOL` is relative and
# bands every path, closed forms included: prices that miss
# |rs - F| <= _RS_TOL * max(1, |F|) raise NonConvergence. The rest govern
# only the iterative paths of generic demand models: a damped fixed point
# (damping starts at 1, halved whenever the residual grows) stops once its
# update is within `_FP_TOL` of the price, or raises after
# `_MAX_ITERATIONS`; a bisection interval stops shrinking at the width
# `_S_TOL` * max(1, |hi|), and if its midpoint then misses the rs band,
# halving goes on until the interval has no interior point.
_RS_TOL = 1e-8
_S_TOL = 1e-13
_FP_TOL = 1e-10
_MAX_ITERATIONS = 200


def rs_tolerance(target: float) -> float:
    """Width of the revenue band every solve must land in around `target`."""
    return _RS_TOL * max(1.0, abs(target))


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


def _band_checked(model: DemandModel, pi: np.ndarray, target: float) -> float:
    """Margin of the closed-form `pi`, or NonConvergence if it misses the
    rs band around `target`."""
    achieved = phi_bar(model, pi)
    if abs(achieved - target) > rs_tolerance(target):
        raise NonConvergence(
            f"closed form missed the revenue band at rs {achieved!r} "
            f"for target {target!r}"
        )
    return achieved


def _bisect_target(
    model: DemandModel,
    price_at,
    lo: float,
    hi: float,
    start: np.ndarray | None,
    target: float,
) -> tuple[float, np.ndarray, float]:
    """Bisect [lo, hi] for the point whose prices collect `target`.

    `price_at(x, start)` maps a bracket point to a price vector whose margin
    increases in x; `start` is the price at the current lower end, a warm
    start for iterative inner solves. Returns (x, prices, achieved margin).
    """
    tol = rs_tolerance(target)
    pi_lo = start
    while True:
        x = 0.5 * (lo + hi)
        pi = price_at(x, pi_lo)
        achieved = phi_bar(model, pi)
        # past the _S_TOL width, halving goes on only while the margin misses
        # the revenue band (a steep margin near a small target) and the
        # interval still has an interior point
        if hi - lo <= _S_TOL * max(1.0, abs(hi)) and (
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


def _damped_fixed_point(step, start: np.ndarray) -> np.ndarray:
    """Iterate pi <- (1-d) pi + d step(pi) until the update stalls below tol."""
    pi = np.asarray(start, dtype=float).copy()
    damping = 1.0
    prev_residual = math.inf
    prev_update = np.zeros_like(pi)
    for _ in range(_MAX_ITERATIONS):
        target = step(pi)
        update = target - pi
        residual = float(np.max(np.abs(update)))
        if residual <= _FP_TOL * max(1.0, float(np.max(np.abs(pi)))):
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
        f"fixed point did not converge in {_MAX_ITERATIONS} iterations "
        f"(last update {prev_residual!r})"
    )


def _two_part_price(model: DemandModel) -> np.ndarray:
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

    return _damped_fixed_point(step, lam_bar)


def _markup_price(
    model: DemandModel, rho: float, pistar: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Damped fixed point of the markup condition pi <- pi* - rho E[dD]^-1 E[D].

    rho = 1 is the monopoly price; rho in [0, 1) the Ramsey price at that
    markup intensity.
    """

    def step(pi: np.ndarray) -> np.ndarray:
        return pistar - rho * _solve_mean_jacobian(
            model.mean_jacobian(pi), model.mean_demand(pi)
        )

    return _damped_fixed_point(step, start)


def solve_two_part(model: DemandModel, F: float) -> Tariff:
    """Optimal two-part tariff meeting the revenue target F ($/cycle).

    The connection charge spreads the gap between the target and the
    volumetric margin uniformly: A = (F - phi_bar(pi)) / M. Welfare does not
    depend on F (only the split between consumers and the retailer does).
    """
    _require_finite(F)
    if model.customers < 1:
        raise ValueError("a two-part tariff needs at least one customer")
    pi = _two_part_price(model)
    charge = (F - phi_bar(model, pi)) / model.customers
    _warn_on_sign(model, pi, "two-part tariff")
    return Tariff(connection_charge=charge, prices=pi, family="two-part-optimal")


def monopoly_price(model: DemandModel, *, verify: bool = True) -> np.ndarray:
    """Price maximizing the expected volumetric margin (feasibility frontier).

    Linear demand: the midpoint of the satiation price and the expected
    wholesale price. Generic demand: the markup fixed point at rho = 1. With
    `verify`, spot-checks that nearby prices do not collect a strictly
    larger margin.
    """
    if isinstance(model, LinearDemandModel):
        pim = 0.5 * (model.satiation_price() + model.scenarios.lambda_bar)
    else:
        pistar = _two_part_price(model)
        pim = _markup_price(model, 1.0, pistar, pistar)

    if verify:
        base = phi_bar(model, pim)
        scale = max(1.0, abs(base))
        # pim +- h_t e_t for every period t, in one stacked call
        steps = np.diag(1e-4 * np.maximum(1.0, np.abs(pim)))
        probes = np.concatenate([pim + steps, pim - steps])
        if (phi_bar(model, probes) > base + 1e-6 * scale).any():
            raise NonConvergence("monopoly price failed its local-maximum verification")
    return pim


def _ramsey_solve(model: DemandModel, F: float) -> tuple[float, np.ndarray, float]:
    """Ramsey price collecting F: (s, prices, achieved margin), s = rho/(1+rho).

    Linear demand: the price is pi* + s d with d = G^-1 omega_bar - pi*, the
    ray to the satiation price, on which the margin is
    s (1 - s) d'Gd - tr(Sigma). So s is the low root 2c / (1 + sqrt(1 - 4c))
    of s (1 - s) = c = (F + tr(Sigma)) / d'Gd, with c clipped to [0, 1/4] so
    that the ends of the range are exact, and a target at or above
    phi_bar(pi_M) gets s = 1/2, the monopoly markup. Generic demand bisects
    s over [0, 1/2] (the low-markup branch, on which the collected margin
    increases monotonically).
    """
    _require_finite(F)
    pistar = _two_part_price(model)
    phi_star = phi_bar(model, pistar)
    pim = monopoly_price(model, verify=False)
    phi_max = phi_bar(model, pim)
    tol = rs_tolerance(F)
    if F < phi_star - tol:
        raise InvalidRegime(F, phi_star)
    if F > phi_max + tol:
        raise InfeasibleTarget(F, (phi_star, phi_max))

    if isinstance(model, LinearDemandModel):
        d = model.satiation_price() - pistar
        dgd = float(d @ model.G @ d)
        if F >= phi_max:
            s = 0.5
        else:
            c = (F + model.scenarios.trace_sigma) / dgd if dgd > 0 else 0.0
            c = min(max(c, 0.0), 0.25)
            s = 2.0 * c / (1.0 + math.sqrt(1.0 - 4.0 * c))
        pi = pistar + s * d
        return s, pi, _band_checked(model, pi, F)

    def price_at(s: float, start: np.ndarray) -> np.ndarray:
        rho = s / (1.0 - s) if s < 0.5 else 1.0
        return _markup_price(model, rho, pistar, start)

    return _bisect_target(model, price_at, 0.0, 0.5, pistar, F)


def solve_linear(model: DemandModel, F: float) -> RamseySolution:
    """Optimal linear (volumetric-only) tariff with expected surplus F.

    Valid in the large-F regime phi_bar(pi*) <= F <= phi_bar(pi_M): below it
    raises InvalidRegime, above it InfeasibleTarget. Linear demand takes
    the closed-form markup; generic demand bisects it (`_ramsey_solve`).
    """
    s, pi, achieved = _ramsey_solve(model, F)
    rho = s / (1.0 - s)
    gamma = 1.0 / (1.0 - rho) if rho < 1.0 else math.inf
    _warn_on_sign(model, pi, "linear tariff")
    return RamseySolution(prices=pi, rho=rho, gamma=gamma, achieved_rs=achieved)


def _flat_phi(model: DemandModel, rate: float) -> float:
    return phi_bar(model, np.full(model.periods, float(rate)))


def _flat_walk(
    model: DemandModel, start: float, direction: float, level: float
) -> float:
    """First rate start + direction * max(1, |start|) * 2^k, k = 0, 1, ...,
    whose flat margin is at most `level`.

    The walk has no cap: it raises NonConvergence only once the rate or its
    margin stops being finite, as for demand whose margin never turns down.
    """
    step = max(1.0, abs(start))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rate = start + direction * step
            margin = _flat_phi(model, rate) if math.isfinite(rate) else math.nan
            if not math.isfinite(margin):
                raise NonConvergence(
                    f"flat-rate bracket did not close: margin {margin!r} at "
                    f"rate {rate!r}"
                )
            if margin <= level:
                return rate
            step *= 2.0


def _flat_monopoly_rate(model: DemandModel) -> float:
    if isinstance(model, LinearDemandModel):
        ones = np.ones(model.periods)
        g1 = model.G @ ones
        return float(
            (ones @ model.scenarios.omega_bar + model.scenarios.lambda_bar @ g1)
            / (2.0 * float(ones @ g1))
        )
    # generic demand: walk out both ways from the mean wholesale price until
    # the margin is no higher than there, which brackets the peak of a
    # concave margin wherever it lies, then ternary-search the bracket
    start = float(model.scenarios.lambda_bar.mean())
    level = _flat_phi(model, start)
    lo = _flat_walk(model, start, -1.0, level)
    hi = _flat_walk(model, start, 1.0, level)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _flat_phi(model, m1) < _flat_phi(model, m2):
            lo = m1
        else:
            hi = m2
        if hi - lo <= _S_TOL * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _flat_closed_root(model: LinearDemandModel, peak: float, target: float) -> float:
    """Linear demand: the low root of the flat margin's quadratic.

    phi_bar(r 1) = -a r^2 + b r - c0 with a = 1'G1, c0 = lam_bar'omega_bar
    + tr(Sigma) and peak rate p = b / 2a, so the rate meeting `target` is
    r = p - sqrt(p^2 - c/a), c = c0 + target; a target above the peak margin
    is met at the peak.
    """
    ss = model.scenarios
    ones = np.ones(model.periods)
    a = float(ones @ (model.G @ ones))
    c = min(float(ss.lambda_bar @ ss.omega_bar) + ss.trace_sigma + target,
            a * peak * peak)
    # sqrt(p^2 - c/a) from w = sqrt(|c| / a), scaled by the larger of |p| and
    # w so that no square overflows, even at a target near -1e308
    w = math.sqrt(abs(c)) / math.sqrt(a)
    scale = max(w, abs(peak), np.finfo(float).tiny)
    p_s, w_s = peak / scale, w / scale
    root = scale * math.sqrt(max(p_s * p_s - math.copysign(w_s * w_s, c), 0.0))
    # p - root, without cancelling p against root when p > 0
    return c / (a * (peak + root)) if peak > 0 else peak - root


def _flat_low_root(model: DemandModel, target: float) -> float:
    """Lowest rate whose flat margin hits `target` (the low-markup root).

    Linear demand takes the closed form; generic demand walks left from the
    peak until the margin falls below the target, then bisects on the
    increasing branch.
    """
    _require_finite(target)
    rate_m = _flat_monopoly_rate(model)
    phi_max = _flat_phi(model, rate_m)
    if target > phi_max + rs_tolerance(target):
        raise InfeasibleTarget(target, (-math.inf, phi_max))
    if isinstance(model, LinearDemandModel):
        rate = _flat_closed_root(model, rate_m, target)
        _band_checked(model, np.full(model.periods, rate), target)
        return rate
    lo = _flat_walk(model, rate_m, -1.0, target)
    return _bisect_target(
        model, lambda rate, _: np.full(model.periods, rate), lo, rate_m, None,
        target,
    )[0]


def solve_flat_linear(model: DemandModel, F: float) -> Tariff:
    """Optimized flat volumetric tariff: lowest flat rate with margin F."""
    rate = _flat_low_root(model, F)
    pi = np.full(model.periods, rate)
    _warn_on_sign(model, pi, "flat linear tariff")
    return Tariff(connection_charge=0.0, prices=pi, family="flat-linear")


def solve_fixed_A_two_part(model: DemandModel, F: float, A_fixed: float) -> Tariff:
    """Two-part tariff with a frozen connection charge."""
    return solve_fixed_A_ramsey(model, F, A_fixed)[0]


def solve_fixed_A_ramsey(
    model: DemandModel, F: float, A_fixed: float
) -> tuple[Tariff, RamseySolution]:
    """Fixed-charge two-part tariff and the Ramsey solution of its prices.

    The volumetric part must collect F - M * A_fixed on its own, so this is
    the optimal linear tariff at the residual target.
    """
    residual = F - model.customers * A_fixed
    solution = solve_linear(model, residual)
    tariff = Tariff(
        connection_charge=A_fixed, prices=solution.prices, family="fixed-A-two-part"
    )
    return tariff, solution


def solve_adjusted_flat(
    model: DemandModel, F: float, base_rate: float, A_fixed: float
) -> Tariff:
    """Flat two-part tariff with frozen charge: rate base_rate + delta.

    delta solves phi_bar(1 * (base_rate + delta)) + M * A_fixed = F at the
    low-markup root; at F equal to the baseline's own surplus, delta is 0.
    """
    residual = F - model.customers * A_fixed
    rate = _flat_low_root(model, residual)
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


def planner_bound_gain(model: LinearDemandModel, baseline: Tariff) -> float:
    """Welfare gain of pricing at the expected wholesale price.

    Under independence of prices and demand states this is the social
    planner's upper bound for the quadratic consumer model, attained by the
    optimal two-part tariff. When the scenario set shows material
    price/demand-state correlation, an IndependenceWarning flags that the
    bound interpretation does not apply (the value is still returned).
    """
    correlation_threshold = 0.2
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
