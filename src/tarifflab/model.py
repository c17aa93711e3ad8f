"""Domain types and welfare functionals for affine retail tariffs.

A billing cycle has N periods. Wholesale prices and demand states are an
empirical joint distribution of equiprobable scenarios. Under the
linear-quadratic consumer model, aggregate demand is D(pi, Omega) =
Omega - G @ pi with deterministic symmetric positive-definite G, and every
welfare quantity reduces to a closed form in the scenario moments. Consumer
and total surplus are only ever reported as gains relative to a baseline
tariff, where the unknown benefit offset cancels exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ZeroExpectedDemand

# each tariff family, in sweep order, and its other CLI spellings
FAMILY_ALIASES = {
    "two-part-optimal": ("two-part",),
    "linear-optimal": ("linear",),
    "flat-linear": (),
    "fixed-A-two-part": ("fixed-a-two-part",),
    "adjusted-flat": (),
}
TARIFF_FAMILIES = tuple(FAMILY_ALIASES)

_SYMMETRY_TOL = 1e-12


def central_difference(f, pi, *, stacked: bool = False) -> np.ndarray:
    """Central-difference derivative of f at pi, one column per coordinate.

    The step is 1e-5 * max(1, |pi_t|), the package-wide finite-difference
    convention. Scalar f gives the gradient; vector f gives the Jacobian.
    f is called on each point pi + h_t e_t, then each pi - h_t e_t; with
    `stacked` it is called once, on the (2N, N) stack of those points.
    """
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    h = 1e-5 * np.maximum(1.0, np.abs(pi))
    points = np.repeat(pi[np.newaxis], 2 * n, axis=0)
    points[np.arange(n), np.arange(n)] += h
    points[np.arange(n, 2 * n), np.arange(n)] -= h
    values = f(points) if stacked else np.array([f(p) for p in points])
    steps = np.reshape(2.0 * h, (n,) + (1,) * (values.ndim - 1))
    return np.moveaxis((values[:n] - values[n:]) / steps, 0, -1)


def g_screen(G: np.ndarray) -> tuple[float, bool, bool]:
    """What makes a square G valid: (largest asymmetry, symmetric within 1e-12
    of max(1, max|G|), positive definite by a Cholesky tried if symmetric)."""
    asymmetry = float(np.abs(G - G.T).max())
    symmetric = asymmetry <= _SYMMETRY_TOL * max(1.0, float(np.abs(G).max()))
    try:
        return asymmetry, symmetric, symmetric and np.linalg.cholesky(G) is not None
    except np.linalg.LinAlgError:
        return asymmetry, symmetric, False


def scenario_moments(lams, omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Population moments of equiprobable (J, N) scenarios.

    Returns (lambda_bar, omega_bar, sigma) with sigma[k, t] =
    cov(lambda_k, Omega_t) under the 1/J normalization.
    """
    lambda_bar = lams.mean(axis=0)
    omega_bar = omegas.mean(axis=0)
    sigma = (lams - lambda_bar).T @ (omegas - omega_bar) / lams.shape[0]
    return lambda_bar, omega_bar, sigma


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScenarioSet:
    """Equiprobable sampled pairs of wholesale price and demand-state vectors.

    Parameters
    ----------
    lams : (J, N) array
        Wholesale price scenarios, $/kWh per period, all nonnegative.
    omegas : (J, N) array
        Demand-state scenarios, kWh per period.

    Moments (`lambda_bar`, `omega_bar`, `sigma_lambda_omega`) are population
    moments of the stored scenarios (1/J normalization): the set *is* the
    distribution, so expectations over it are plain averages. The unbiased
    1/(J-1) estimate used when the scenarios are a sample from something
    larger is available via `sample_cross_covariance`. They are computed
    once, on first use, and returned read-only.
    """

    lams: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        lams = _readonly(np.atleast_2d(self.lams))
        omegas = _readonly(np.atleast_2d(self.omegas))
        if lams.ndim != 2 or omegas.ndim != 2:
            raise ValueError("scenarios must be (J, N) arrays")
        if lams.shape != omegas.shape:
            raise ValueError(
                f"price scenarios {lams.shape} and demand-state scenarios "
                f"{omegas.shape} must have the same shape"
            )
        if lams.shape[0] < 1:
            raise ValueError("need at least one scenario")
        if not (np.isfinite(lams).all() and np.isfinite(omegas).all()):
            raise ValueError("scenario values must be finite")
        if (lams < 0).any():
            raise ValueError("wholesale prices must be nonnegative")
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "omegas", omegas)

    @property
    def n_scenarios(self) -> int:
        return self.lams.shape[0]

    @property
    def periods(self) -> int:
        return self.lams.shape[1]

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(_readonly(m) for m in scenario_moments(self.lams, self.omegas))

    @property
    def lambda_bar(self) -> np.ndarray:
        return self._moments[0]

    @property
    def omega_bar(self) -> np.ndarray:
        return self._moments[1]

    @property
    def sigma_lambda_omega(self) -> np.ndarray:
        """Population cross-covariance cov(lambda_k, Omega_t), 1/J normalized."""
        return self._moments[2]

    @cached_property
    def trace_sigma(self) -> float:
        """tr cov(lambda, Omega), the price-volume risk term."""
        return float(np.trace(self.sigma_lambda_omega))

    def sample_cross_covariance(self, ddof: int = 1) -> np.ndarray:
        if self.n_scenarios <= ddof:
            raise ValueError(f"need more than {ddof} scenarios for ddof={ddof}")
        return self.sigma_lambda_omega * (self.n_scenarios / (self.n_scenarios - ddof))


class DemandModel:
    """Aggregate demand response to an announced price vector.

    Subclasses provide per-scenario demand; the default Jacobian is a central
    finite difference, which generic solver paths and the Assumption-1 checker
    consume. All expectations are equiprobable averages over the scenario set.
    A model must not change after its first solve, which keeps its feasible
    range on the instance.
    """

    scenarios: ScenarioSet
    customers: int

    @property
    def periods(self) -> int:
        return self.scenarios.periods

    def demand(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        """Aggregate demand D(pi, Omega_j) for scenario j, in kWh."""
        raise NotImplementedError

    def demand_jacobian(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        return central_difference(lambda p: self.demand(p, scenario), pi)

    def scenario_demands(self, pi: np.ndarray) -> np.ndarray:
        """(J, N) demand: row j is D(pi, Omega_j)."""
        return np.array(
            [self.demand(pi, j) for j in range(self.scenarios.n_scenarios)], dtype=float
        )

    def mean_demand(self, pi: np.ndarray) -> np.ndarray:
        return self.scenario_demands(pi).mean(axis=0)

    def mean_jacobian(self, pi: np.ndarray) -> np.ndarray:
        return np.mean(
            [self.demand_jacobian(pi, j) for j in range(self.scenarios.n_scenarios)],
            axis=0,
        )

    def mean_jacobian_margin(self, pi: np.ndarray) -> np.ndarray:
        """The Assumption-1 field g(pi) = E[dD(pi) (pi - lam)]."""
        lams = self.scenarios.lams
        return np.mean(
            [
                self.demand_jacobian(pi, j) @ (pi - lams[j])
                for j in range(self.scenarios.n_scenarios)
            ],
            axis=0,
        )

    def expected_margin(self, prices: np.ndarray) -> np.ndarray:
        """phi-bar of an N-vector, or of each row of a (K, N) stack.

        Each row is settled per scenario: the mean of (pi - lam_j)' D_j.
        """
        ss = self.scenarios
        margins = []
        for pi in np.atleast_2d(prices):
            total = 0.0
            for j in range(ss.n_scenarios):
                total += float((pi - ss.lams[j]) @ self.demand(pi, j))
            margins.append(total / ss.n_scenarios)
        return np.reshape(margins, prices.shape[:-1])


@dataclass(frozen=True)
class LinearDemandModel(DemandModel):
    """Aggregate linear demand D(pi, Omega_j) = Omega_j - G @ pi.

    G is the deterministic aggregate price-response matrix (kWh per $/kWh),
    symmetric positive definite. `customers` only divides the connection
    charge; all demand quantities are already aggregate.
    """

    G: np.ndarray
    scenarios: ScenarioSet
    customers: int = 1

    def __post_init__(self):
        G = _readonly(self.G)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("G must be a square matrix")
        if G.shape[0] != self.scenarios.periods:
            raise DimensionMismatch(
                f"G is {G.shape[0]}x{G.shape[0]} but scenarios have "
                f"{self.scenarios.periods} periods"
            )
        _, symmetric, definite = g_screen(G)
        if not symmetric:
            raise ValueError("G must be symmetric (within 1e-12)")
        if not definite:
            raise ValueError("G must be positive definite")
        if self.customers < 0:
            raise ValueError("customer count must be nonnegative")
        if self.customers > sys.float_info.max:  # M * A must be a float
            raise ValueError(f"customer count must be at most {sys.float_info.max!r}")
        object.__setattr__(self, "G", G)
        satiation = _readonly(np.linalg.solve(G, self.scenarios.omega_bar))
        if not np.isfinite(satiation).all():
            raise ValueError("the satiation price G^-1 omega_bar must be finite")
        object.__setattr__(self, "_satiation_price", satiation)

    def demand(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        return self.scenarios.omegas[scenario] - self.G @ np.asarray(pi, dtype=float)

    def demand_jacobian(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        return -self.G

    def scenario_demands(self, pi: np.ndarray) -> np.ndarray:
        # G pi once for all J rows; each row has the bits of `demand(pi, j)`
        return self.scenarios.omegas - self.G @ np.asarray(pi, dtype=float)

    def mean_demand(self, pi: np.ndarray) -> np.ndarray:
        return self.scenarios.omega_bar - self.G @ np.asarray(pi, dtype=float)

    def mean_jacobian(self, pi: np.ndarray) -> np.ndarray:
        return -self.G

    def mean_jacobian_margin(self, pi: np.ndarray) -> np.ndarray:
        return -self.G @ (pi - self.scenarios.lambda_bar)

    def expected_margin(self, prices: np.ndarray) -> np.ndarray:
        ss = self.scenarios
        # Row-wise products, (N,N)@(N,1) and (1,N)@(N,1), so a price vector
        # gets the same bits alone as in a stack of any height.
        demand = self._omega_column - np.matmul(self.G, prices[..., np.newaxis])
        markup = (prices - ss.lambda_bar)[..., np.newaxis, :]
        # [()] turns a price vector's 0-d margin into a numpy scalar, whose
        # arithmetic skips the ufunc set-up that a 0-d array pays per call
        margin = np.matmul(markup, demand)[..., 0, 0][()]
        # For linear demand cov(lambda, D) = cov(lambda, Omega): the -G pi
        # shift is deterministic.
        return margin - ss.trace_sigma

    def satiation_price(self) -> np.ndarray:
        """Price at which expected demand vanishes: G^-1 omega_bar (read-only)."""
        return self._satiation_price

    @cached_property
    def _omega_column(self) -> np.ndarray:
        return self.scenarios.omega_bar[:, np.newaxis]


@dataclass(frozen=True)
class Tariff:
    """Affine tariff T(q) = A + pi' q with a family tag.

    `connection_charge` is A in $/customer/cycle; `prices` is pi in $/kWh.
    """

    connection_charge: float
    prices: np.ndarray
    family: str = "two-part-optimal"

    def __post_init__(self):
        prices = _readonly(np.atleast_1d(self.prices))
        if prices.ndim != 1:
            raise ValueError("prices must be a vector")
        if not np.isfinite(prices).all():
            raise ValueError("prices must be finite")
        if not np.isfinite(self.connection_charge):
            raise ValueError("connection charge must be finite")
        if self.family not in TARIFF_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {TARIFF_FAMILIES}"
            )
        if self.family in ("flat-linear", "adjusted-flat"):
            if prices.size and float(prices.max() - prices.min()) != 0.0:
                raise ValueError(f"{self.family} tariffs must have a flat price")
        if self.family in ("linear-optimal", "flat-linear"):
            if self.connection_charge != 0.0:
                raise ValueError(f"{self.family} tariffs have no connection charge")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "connection_charge", float(self.connection_charge))

    @property
    def periods(self) -> int:
        return self.prices.size

    @property
    def is_flat(self) -> bool:
        return self.prices.size > 0 and float(self.prices.max() - self.prices.min()) == 0.0


@dataclass(frozen=True)
class WelfareReport:
    """Surplus gains of a tariff relative to a baseline, in $/cycle.

    delta_sw = delta_cs + delta_rs up to rounding; rs_absolute is the
    tariff's own expected retailer surplus (not a gain). `scale` is the
    largest magnitude the gains are differences of: rounding in those terms
    bounds how far delta_sw may sit from delta_cs + delta_rs.
    """

    delta_cs: float
    delta_rs: float
    delta_sw: float
    rs_absolute: float
    scale: float = 1.0

    def __post_init__(self):
        scale = max(1.0, abs(self.delta_cs), abs(self.delta_rs), self.scale)
        # `not <=`, so that a NaN gain fails too
        if not abs(self.delta_sw - (self.delta_cs + self.delta_rs)) <= 1e-9 * scale:
            raise ValueError("delta_sw must equal delta_cs + delta_rs")


def _as_price_vector(model: DemandModel, pi, *, stack: bool = False) -> np.ndarray:
    """Validated float prices: one N-vector or, with `stack`, also (K, N)."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim == 0:
        pi = pi.reshape(1)
    if pi.ndim > (2 if stack else 1) or pi.shape[-1] != model.periods:
        raise DimensionMismatch(
            f"price vector has {pi.shape[-1] if stack else pi.size} entries, "
            f"model has {model.periods} periods"
        )
    # count_nonzero costs less than .all(), and this runs on every margin
    if np.count_nonzero(np.isfinite(pi)) != pi.size:
        raise ValueError("price vector must be finite")
    return pi


def expected_demand(model: DemandModel, pi) -> np.ndarray:
    """Expected aggregate demand E[D(pi, Omega)] in kWh per period."""
    return model.mean_demand(_as_price_vector(model, pi))


def phi_bar(model: DemandModel, pi) -> float | np.ndarray:
    """Expected margin collected through the volumetric charge, $/cycle.

    For linear demand this is the closed form
    (pi - lambda_bar)' (omega_bar - G pi) - tr(cov(lambda, Omega));
    the covariance trace is the price-volume risk term. Generic demand
    models fall back to the per-scenario settlement average.

    `pi` is one price vector, giving a float, or a (K, N) stack of them,
    giving K margins; each row's margin is bit-equal to the 1-D call.
    """
    prices = _as_price_vector(model, pi, stack=True)
    margins = model.expected_margin(prices)
    return float(margins) if prices.ndim == 1 else margins


def retailer_surplus(model: DemandModel, tariff: Tariff) -> float:
    """Expected retailer surplus phi_bar(pi) + M A, $/cycle."""
    return phi_bar(model, tariff.prices) + model.customers * tariff.connection_charge


def checked_baseline(model: LinearDemandModel, baseline: Tariff) -> Tariff:
    """The flat `baseline` tariff, if its revenue phi_bar(pi) + M A and its
    consumer-surplus term, the terms every welfare gain subtracts, are finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned
        revenue = retailer_surplus(model, baseline)
        cs = float(_cs_term(model, baseline.prices, baseline.connection_charge))
    for name, value in (("revenue", revenue), ("consumer-surplus term", cs)):
        if not np.isfinite(value):
            raise ValueError(
                f"the baseline tariff's {name} {value!r} is not finite (flat rate "
                f"{float(baseline.prices[0])!r}, connection charge "
                f"{baseline.connection_charge!r}, {model.customers} customers)"
            )
    return baseline


def _cs_term(
    model: LinearDemandModel, prices: np.ndarray, connection_charge: float = 0.0
):
    """Consumer surplus up to the benefit offset E[delta(omega)], which is
    unknown and cancels in gains: pi' G pi / 2 - pi' omega_bar - M A.

    `prices` is one validated price vector or a (K, N) stack. Row-wise
    products, as in `LinearDemandModel.expected_margin`, give each row the
    bits it gets alone.
    """
    row = prices[..., np.newaxis, :]
    quad = np.matmul(np.matmul(row, model.G), row.swapaxes(-1, -2))[..., 0, 0]
    linear = np.matmul(row, model._omega_column)[..., 0, 0]
    return (0.5 * quad - linear)[()] - model.customers * connection_charge


def consumer_surplus_gain(model: LinearDemandModel, pi, baseline: Tariff):
    """Consumer-surplus gain of charging pi with no connection charge over
    `baseline`, $/cycle.

    `pi` is one price vector, giving a float, or a (K, N) stack of them,
    giving K gains; each is bit-equal to `welfare_gains(...).delta_cs`.
    """
    prices = _as_price_vector(model, pi, stack=True)
    base = _cs_term(model, baseline.prices, baseline.connection_charge)
    gains = _cs_term(model, prices) - base
    return float(gains) if prices.ndim == 1 else gains


def welfare_gains(
    model: LinearDemandModel, tariff: Tariff, baseline: Tariff
) -> WelfareReport:
    """Surplus gains of `tariff` over `baseline` under linear-quadratic demand.

    Gains are exact: the unknown benefit offset is common to both tariffs.
    The report also carries the tariff's absolute retailer surplus.
    The connection charges M A move money from consumers to the retailer
    and cancel in delta_sw, which is summed from the price terms alone, so a
    large charge in delta_cs and delta_rs cannot cancel its digits away.
    """
    if not isinstance(model, LinearDemandModel):
        raise TypeError("welfare gains need the linear-quadratic consumer model")
    for t in (tariff, baseline):
        if t.periods != model.periods:
            raise DimensionMismatch(
                f"tariff has {t.periods} periods, model has {model.periods}"
            )
    phi_t, phi_b = (phi_bar(model, t.prices) for t in (tariff, baseline))
    cs_t, cs_b = (float(_cs_term(model, t.prices)) for t in (tariff, baseline))
    charge_t, charge_b = (
        model.customers * t.connection_charge for t in (tariff, baseline)
    )
    rs_tariff = phi_t + charge_t
    terms = (phi_t, phi_b, cs_t, cs_b, charge_t, charge_b)
    return WelfareReport(
        delta_cs=(cs_t - charge_t) - (cs_b - charge_b),
        delta_rs=rs_tariff - (phi_b + charge_b),
        delta_sw=(cs_t - cs_b) + (phi_t - phi_b),
        rs_absolute=rs_tariff,
        scale=max(map(abs, terms)),
    )


def elasticity_matrix(model: DemandModel, pi) -> np.ndarray:
    """Price elasticities eps[k, t] = (dE[D_k]/d pi_t) * pi_t / E[D_k].

    Returns the read-only (N, N) array. For linear demand eps[k, t] =
    -G[k, t] pi_t / E[D_k]. Raises ZeroExpectedDemand if any expected demand
    is at or below 1e-9.
    """
    demand_floor = 1e-9
    pi = _as_price_vector(model, pi)
    dbar = model.mean_demand(pi)
    if (dbar <= demand_floor).any():
        k = int(np.argmax(dbar <= demand_floor))
        raise ZeroExpectedDemand(
            f"expected demand in period {k} is {float(dbar[k])!r} <= {demand_floor!r}"
        )
    jac = model.mean_jacobian(pi)
    return _readonly(jac * pi[np.newaxis, :] / dbar[:, np.newaxis])


def flat_rate_elasticity(model: DemandModel, rate: float) -> float:
    """Elasticity of expected total load to a flat rate, load-weighted.

    This is the aggregate own-price elasticity used by calibration:
    sum_k w_k sum_t eps[k, t] at pi = rate * 1 with w_k = E[D_k] / sum E[D].
    For linear demand it equals -rate * 1' G 1 / (1' E[D]).
    """
    n = model.periods
    eps = elasticity_matrix(model, np.full(n, float(rate)))
    dbar = model.mean_demand(np.full(n, float(rate)))
    weights = dbar / dbar.sum()
    return float(weights @ eps.sum(axis=1))
