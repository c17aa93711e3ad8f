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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroExpectedDemand

TARIFF_FAMILIES = (
    "two-part-optimal",
    "linear-optimal",
    "flat-linear",
    "fixed-A-two-part",
    "adjusted-flat",
)

_SYMMETRY_TOL = 1e-12


def central_difference(f, pi, h_scale: float = 1e-5) -> np.ndarray:
    """Central-difference derivative of f at pi, one column per coordinate.

    The step is h_scale * max(1, |pi_t|), the package-wide finite-difference
    convention. Scalar f gives the gradient; vector f gives the Jacobian.
    """
    pi = np.asarray(pi, dtype=float)
    columns = []
    for t in range(pi.size):
        h = h_scale * max(1.0, abs(pi[t]))
        up = pi.copy()
        dn = pi.copy()
        up[t] += h
        dn[t] -= h
        columns.append((f(up) - f(dn)) / (2.0 * h))
    return np.stack(columns, axis=-1)


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
    larger is available via `sample_cross_covariance`.
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

    @property
    def lambda_bar(self) -> np.ndarray:
        return self.lams.mean(axis=0)

    @property
    def omega_bar(self) -> np.ndarray:
        return self.omegas.mean(axis=0)

    @property
    def sigma_lambda_omega(self) -> np.ndarray:
        """Population cross-covariance cov(lambda_k, Omega_t), 1/J normalized."""
        dl = self.lams - self.lambda_bar
        do = self.omegas - self.omega_bar
        return dl.T @ do / self.n_scenarios

    def sample_cross_covariance(self, ddof: int = 1) -> np.ndarray:
        if self.n_scenarios <= ddof:
            raise ValueError(f"need more than {ddof} scenarios for ddof={ddof}")
        return self.sigma_lambda_omega * (self.n_scenarios / (self.n_scenarios - ddof))


class DemandModel:
    """Aggregate demand response to an announced price vector.

    Subclasses provide per-scenario demand; the default Jacobian is a central
    finite difference, which generic solver paths and the Assumption-1 checker
    consume. All expectations are equiprobable averages over the scenario set.
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

    def mean_demand(self, pi: np.ndarray) -> np.ndarray:
        return np.mean(
            [self.demand(pi, j) for j in range(self.scenarios.n_scenarios)], axis=0
        )

    def mean_jacobian(self, pi: np.ndarray) -> np.ndarray:
        return np.mean(
            [self.demand_jacobian(pi, j) for j in range(self.scenarios.n_scenarios)],
            axis=0,
        )

    def expected_margin(self, pi: np.ndarray) -> float:
        """phi-bar via per-scenario settlement: mean of (pi - lam_j)' D_j."""
        ss = self.scenarios
        total = 0.0
        for j in range(ss.n_scenarios):
            total += float((pi - ss.lams[j]) @ self.demand(pi, j))
        return total / ss.n_scenarios


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
        scale = max(1.0, float(np.abs(G).max()))
        if float(np.abs(G - G.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("G must be symmetric (within 1e-12)")
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise ValueError("G must be positive definite") from None
        if self.customers < 0:
            raise ValueError("customer count must be nonnegative")
        object.__setattr__(self, "G", G)

    def demand(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        return self.scenarios.omegas[scenario] - self.G @ np.asarray(pi, dtype=float)

    def demand_jacobian(self, pi: np.ndarray, scenario: int) -> np.ndarray:
        return -self.G

    def mean_demand(self, pi: np.ndarray) -> np.ndarray:
        return self.scenarios.omega_bar - self.G @ np.asarray(pi, dtype=float)

    def mean_jacobian(self, pi: np.ndarray) -> np.ndarray:
        return -self.G

    def expected_margin(self, pi: np.ndarray) -> float:
        pi = np.asarray(pi, dtype=float)
        ss = self.scenarios
        margin = float((pi - ss.lambda_bar) @ (ss.omega_bar - self.G @ pi))
        # For linear demand cov(lambda, D) = cov(lambda, Omega): the -G pi
        # shift is deterministic.
        return margin - float(np.trace(ss.sigma_lambda_omega))

    def satiation_price(self) -> np.ndarray:
        """Price at which expected demand vanishes: G^-1 omega_bar."""
        return np.linalg.solve(self.G, self.scenarios.omega_bar)


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

    delta_sw = delta_cs + delta_rs by construction; rs_absolute is the
    tariff's own expected retailer surplus (not a gain).
    """

    baseline: Tariff
    delta_cs: float
    delta_rs: float
    delta_sw: float
    rs_absolute: float

    def __post_init__(self):
        scale = max(1.0, abs(self.delta_cs), abs(self.delta_rs))
        if abs(self.delta_sw - (self.delta_cs + self.delta_rs)) > 1e-9 * scale:
            raise ValueError("delta_sw must equal delta_cs + delta_rs")


@dataclass(frozen=True)
class ElasticityMatrix:
    """Own/cross price elasticities eps[k, t] evaluated at a price vector."""

    values: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "pi", _readonly(self.pi))


def _as_price_vector(model: DemandModel, pi) -> np.ndarray:
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    if pi.ndim != 1 or pi.size != model.periods:
        raise DimensionMismatch(
            f"price vector has {pi.size} entries, model has {model.periods} periods"
        )
    if not np.isfinite(pi).all():
        raise ValueError("price vector must be finite")
    return pi


def expected_demand(model: DemandModel, pi) -> np.ndarray:
    """Expected aggregate demand E[D(pi, Omega)] in kWh per period."""
    return model.mean_demand(_as_price_vector(model, pi))


def phi_bar(model: DemandModel, pi) -> float:
    """Expected margin collected through the volumetric charge, $/cycle.

    For linear demand this is the closed form
    (pi - lambda_bar)' (omega_bar - G pi) - tr(cov(lambda, Omega));
    the covariance trace is the price-volume risk term. Generic demand
    models fall back to the per-scenario settlement average.
    """
    return model.expected_margin(_as_price_vector(model, pi))


def retailer_surplus(model: DemandModel, tariff: Tariff) -> float:
    """Expected retailer surplus phi_bar(pi) + M A, $/cycle."""
    return phi_bar(model, tariff.prices) + model.customers * tariff.connection_charge


def _cs_term(model: LinearDemandModel, tariff: Tariff) -> float:
    # Consumer surplus up to the benefit offset E[delta(omega)], which is
    # unknown and cancels in gains.
    pi = _as_price_vector(model, tariff.prices)
    quad = 0.5 * float(pi @ model.G @ pi)
    return (
        quad
        - float(pi @ model.scenarios.omega_bar)
        - model.customers * tariff.connection_charge
    )


def welfare_gains(
    model: LinearDemandModel, tariff: Tariff, baseline: Tariff
) -> WelfareReport:
    """Surplus gains of `tariff` over `baseline` under linear-quadratic demand.

    Gains are exact: the unknown benefit offset is common to both tariffs.
    The report also carries the tariff's absolute retailer surplus.
    """
    if not isinstance(model, LinearDemandModel):
        raise TypeError("welfare gains need the linear-quadratic consumer model")
    for t in (tariff, baseline):
        if t.periods != model.periods:
            raise DimensionMismatch(
                f"tariff has {t.periods} periods, model has {model.periods}"
            )
    rs_tariff = retailer_surplus(model, tariff)
    delta_cs = _cs_term(model, tariff) - _cs_term(model, baseline)
    delta_rs = rs_tariff - retailer_surplus(model, baseline)
    return WelfareReport(
        baseline=baseline,
        delta_cs=delta_cs,
        delta_rs=delta_rs,
        delta_sw=delta_cs + delta_rs,
        rs_absolute=rs_tariff,
    )


def elasticity_matrix(model: DemandModel, pi, demand_floor: float = 1e-9) -> ElasticityMatrix:
    """Price elasticities eps[k, t] = (dE[D_k]/d pi_t) * pi_t / E[D_k].

    For linear demand eps[k, t] = -G[k, t] pi_t / E[D_k]. Raises
    ZeroExpectedDemand if any expected demand is at or below `demand_floor`.
    """
    pi = _as_price_vector(model, pi)
    dbar = model.mean_demand(pi)
    if (dbar <= demand_floor).any():
        k = int(np.argmax(dbar <= demand_floor))
        raise ZeroExpectedDemand(
            f"expected demand in period {k} is {dbar[k]!r} <= {demand_floor!r}"
        )
    jac = model.mean_jacobian(pi)
    values = jac * pi[np.newaxis, :] / dbar[:, np.newaxis]
    return ElasticityMatrix(values=values, pi=pi)


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
    return float(weights @ eps.values.sum(axis=1))
