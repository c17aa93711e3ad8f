"""Optimal tariff solvers.

Two-part tariffs price at a fixed point of the markup condition, with the
connection charge absorbing the gap to the revenue target. Linear
(volumetric-only) tariffs solve a Ramsey problem: the markup intensity whose
prices collect the revenue target. Flat-rate variants solve the same problem
on the diagonal. Each model computes its ranges once (`_feasible_range`):
pi*, pi_M, the flat base and peak, and their margins do not depend on F.

The model's type picks the path. A `LinearDemandModel` (deterministic price
response) takes closed forms: the two-part markup vanishes, and every other
price lies on a line, the ray from the expected wholesale price to the
satiation price or the flat diagonal, at the low root of one scalar
quadratic (`_low_root`), reaching targets down to -1.7e308. Any other
`DemandModel` iterates: a bisection of the markup intensity around a damped
fixed point on the price vector, and for flat rates a ternary search for the
peak, bracketed by walks out to both sides, then, per target, a walk left
from the peak and a bisection for the root. The walks double their step with
no cap. Every path ends with the same revenue band check,
|rs - F| <= 1e-8 * max(1, |F|) (`rs_tolerance`).

The tolerances are fixed module constants, not options: they are not part
of a tariff's definition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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
class Assumption1Report:
    """Largest symmetric-part eigenvalue of the field's Jacobian, per sample."""

    max_eigenvalues: tuple[float, ...]
    passed: bool = field(init=False)
    vacuous: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vacuous", not self.max_eigenvalues)
        object.__setattr__(self, "passed", all(e < 0 for e in self.max_eigenvalues))


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


def _low_root(
    model: LinearDemandModel, base: np.ndarray, v: np.ndarray, u: float
) -> float:
    """Linear demand: the root on the line base + x v, whose margin is
    phi_bar(base) + g x - q x^2 (q = v'Gv, `base` at or below the peak
    x = g/2q). The root is the lowest x where the margin has risen by `u`, or
    the peak if it never does (u = inf gives the peak). x = u / (g/2 +
    sqrt(q) sqrt(g^2/4q - u)) neither cancels nor overflows."""
    gv = model.G @ v
    q = float(gv @ v)
    if not q > 0.0:  # a zero-length v
        return 0.0
    lam_bar = model.scenarios.lambda_bar
    g = float(gv @ ((model.satiation_price() - base) + (lam_bar - base)))
    peak = g / (2.0 * q)
    rise = 0.5 * g * peak  # g^2 / 4q, the margin gained from base to the peak
    return peak if u >= rise else u / (0.5 * g + math.sqrt(q) * math.sqrt(rise - u))


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

    The price is the zero of the Assumption-1 field g(pi) = E[dD(pi) (pi -
    lam)]. Linear demand: with deterministic price response the Jacobian is
    uncorrelated with the wholesale price and the markup term vanishes, so
    the price is the expected wholesale price. Generic demand iterates
    pi <- pi - E[dD]^-1 g(pi).
    """
    lam_bar = model.scenarios.lambda_bar
    if isinstance(model, LinearDemandModel):
        return lam_bar

    def step(pi: np.ndarray) -> np.ndarray:
        return pi - _solve_mean_jacobian(
            model.mean_jacobian(pi), model.mean_jacobian_margin(pi)
        )

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


class _FeasibleRange:
    """A model's F-independent range ends, each computed on first use."""

    def __init__(self, model: DemandModel):
        self._model = model

    @cached_property
    def two_part(self) -> tuple[np.ndarray, float]:
        """pi* (read-only) and its margin, the floor of the linear range."""
        pi = _two_part_price(self._model)
        pi.setflags(write=False)
        return pi, phi_bar(self._model, pi)

    @cached_property
    def monopoly(self) -> tuple[np.ndarray, float]:
        """pi_M (read-only) and its margin, the top of the linear range."""
        model, pistar = self._model, self.two_part[0]
        if isinstance(model, LinearDemandModel):
            pim = 0.5 * (model.satiation_price() + pistar)
        else:
            pim = _markup_price(model, 1.0, pistar, pistar)
        pim.setflags(write=False)
        return pim, phi_bar(model, pim)

    @cached_property
    def flat(self) -> tuple[np.ndarray | None, float, float, float]:
        """Flat base prices, their margin, the peak rate and its margin. The
        linear base rate, the lowest of 0, 1'G lam_bar / 1'G1 (welfare-best)
        and 1'omega_bar / 1'G1 (satiation), keeps a positive rate from
        cancelling against it; a generic model has no base."""
        model = self._model
        if not isinstance(model, LinearDemandModel):
            peak = _flat_monopoly_rate(model)
            return None, math.nan, peak, _flat_phi(model, peak)
        ones = np.ones(model.periods)
        g1 = model.G @ ones
        base = min(0.0, float(g1 @ model.scenarios.lambda_bar),
                   float(ones @ model.scenarios.omega_bar)) / float(ones @ g1)
        at_base = np.full(model.periods, base)
        peak = base + _low_root(model, at_base, ones, math.inf)
        return at_base, phi_bar(model, at_base), peak, _flat_phi(model, peak)


def _feasible_range(model: DemandModel) -> _FeasibleRange:
    """The model's one `_FeasibleRange`, kept on it from its first solve."""
    if "_feasible_range" not in model.__dict__:
        model.__dict__["_feasible_range"] = _FeasibleRange(model)
    return model.__dict__["_feasible_range"]


def solve_two_part(model: DemandModel, F: float) -> Tariff:
    """Optimal two-part tariff meeting the revenue target F ($/cycle).

    The connection charge spreads the gap between the target and the
    volumetric margin uniformly: A = (F - phi_bar(pi)) / M. Welfare does not
    depend on F (only the split between consumers and the retailer does).
    """
    _require_finite(F)
    if model.customers < 1:
        raise ValueError("a two-part tariff needs at least one customer")
    pi, phi_star = _feasible_range(model).two_part
    charge = (F - phi_star) / model.customers
    _warn_on_sign(model, pi, "two-part tariff")
    return Tariff(connection_charge=charge, prices=pi, family="two-part-optimal")


def monopoly_price(model: DemandModel, *, verify: bool = True) -> np.ndarray:
    """Read-only price maximizing the expected margin (feasibility frontier).

    Linear demand: the midpoint of the satiation price and the expected
    wholesale price. Generic demand: the markup fixed point at rho = 1. With
    `verify`, spot-checks that nearby prices do not collect a strictly
    larger margin.
    """
    pim, base = _feasible_range(model).monopoly
    if verify:
        scale = max(1.0, abs(base))
        # pim +- h_t e_t for every period t, in one stacked call
        steps = np.diag(1e-4 * np.maximum(1.0, np.abs(pim)))
        probes = np.concatenate([pim + steps, pim - steps])
        if (phi_bar(model, probes) > base + 1e-6 * scale).any():
            raise NonConvergence("monopoly price failed its local-maximum verification")
    return pim


def _ramsey_solve(model: DemandModel, F: float) -> tuple[float, np.ndarray, float]:
    """Ramsey price collecting F: (s, prices, achieved margin), s = rho/(1+rho).

    Linear demand: s is `_low_root` on the ray d = G^-1 omega_bar - pi* to
    the satiation price; a target just below phi_bar(pi*) gets s = 0, and one
    at or above phi_bar(pi_M) the monopoly markup s = 1/2 exactly, not a root
    a rounding step short of it. Generic demand bisects s over [0, 1/2] (the
    low-markup branch, on which the collected margin increases monotonically).
    """
    _require_finite(F)
    ends = _feasible_range(model)
    (pistar, phi_star), phi_max = ends.two_part, ends.monopoly[1]
    tol = rs_tolerance(F)
    if F < phi_star - tol:
        raise InvalidRegime(F, phi_star)
    if F > phi_max + tol:
        raise InfeasibleTarget(F, (phi_star, phi_max))

    if isinstance(model, LinearDemandModel):
        d = model.satiation_price() - pistar
        u = max(F - phi_star, 0.0)
        s = 0.5 if F >= phi_max else _low_root(model, pistar, d, u)
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
    """Generic demand: walk out both ways from the mean wholesale price until
    the margin is no higher than there, which brackets the peak of a concave
    margin wherever it lies, then ternary-search the bracket."""
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


def _flat_low_root(model: DemandModel, target: float) -> float:
    """Lowest rate whose flat margin hits `target` (the low-markup root).

    Linear demand takes it from one `_low_root` along 1 from the flat base.
    Generic demand walks left from the peak until the margin falls below the
    target, then bisects on the increasing branch.
    """
    _require_finite(target)
    base, phi_base, rate_m, phi_max = _feasible_range(model).flat
    if target > phi_max + rs_tolerance(target):
        raise InfeasibleTarget(target, (-math.inf, phi_max))
    if base is not None:
        rate = base[0] + _low_root(model, base, np.ones(model.periods), target - phi_base)
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


def _at_residual(solve, model: DemandModel, F: float, A_fixed: float):
    """`solve(model, F - M A_fixed)`, the margin a fixed-charge tariff's
    prices must collect. Its range errors are restated for F, their bounds
    moved by M A_fixed."""
    _require_finite(F)
    shift = model.customers * A_fixed
    if not math.isfinite(F - shift):
        raise ValueError(
            f"revenue target {F!r} less the connection charge {A_fixed!r} times "
            f"{model.customers} customers is not finite"
        )
    try:
        return solve(model, F - shift)
    except InvalidRegime as exc:
        raise InvalidRegime(F, exc.regime_floor + shift) from None
    except InfeasibleTarget as exc:
        lo, hi = exc.feasible_range
        raise InfeasibleTarget(F, (lo + shift, hi + shift)) from None


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
    solution = _at_residual(solve_linear, model, F, A_fixed)
    tariff = Tariff(
        connection_charge=A_fixed, prices=solution.prices, family="fixed-A-two-part"
    )
    return tariff, solution


def solve_adjusted_flat(
    model: DemandModel, F: float, base_rate: float, A_fixed: float
) -> Tariff:
    """Flat two-part tariff with frozen charge: rate base_rate + delta.

    The rate is the low-markup root of phi_bar(1 * rate) + M * A_fixed = F,
    whatever `base_rate` is: `base_rate` only anchors the reported delta and
    does not move the rate. At F equal to the surplus of the flat tariff
    (A_fixed, base_rate), delta is 0.
    """
    rate = _at_residual(_flat_low_root, model, F, A_fixed)
    pi = np.full(model.periods, rate)
    _warn_on_sign(model, pi, "adjusted flat tariff")
    return Tariff(connection_charge=A_fixed, prices=pi, family="adjusted-flat")


def check_assumption1(model: DemandModel, pi_samples) -> Assumption1Report:
    """Numerically screen the curvature condition behind the solvers.

    Estimates the Jacobian of g(pi) = E[dD(pi) (pi - lam)], the model's
    `mean_jacobian_margin`, by central differences at each sample and
    reports the largest eigenvalue of its symmetric part, one per sample in
    order; the condition holds at a sample iff that eigenvalue is negative.
    An empty sample list passes vacuously.
    """
    eigenvalues = []
    for raw in pi_samples:
        pi = _as_price_vector(model, raw)
        jac = central_difference(model.mean_jacobian_margin, pi)
        eigenvalues.append(float(np.linalg.eigvalsh(0.5 * (jac + jac.T))[-1]))
    return Assumption1Report(max_eigenvalues=tuple(eigenvalues))


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
