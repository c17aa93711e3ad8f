"""Shared instances: the two desk-scale models every module is checked on.

I2 is deterministic (one scenario); I2-cov pairs two equiprobable scenarios
so prices and demand states are perfectly correlated, with the same first
moments as I2 and tr cov = 1 under the population convention.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import tarifflab as tl

G_I2 = np.array([[2.0, -0.5], [-0.5, 1.0]])


def pytest_terminal_summary(terminalreporter):
    # per-criterion verdicts from the acceptance gate, visible without -s
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each process it starts (a forked child included)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def i2_model() -> tl.LinearDemandModel:
    scenarios = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[10.0, 8.0]])
    return tl.LinearDemandModel(G=G_I2, scenarios=scenarios, customers=1)


@pytest.fixture
def i2cov_model() -> tl.LinearDemandModel:
    scenarios = tl.ScenarioSet(
        lams=[[1.5, 2.5], [0.5, 1.5]], omegas=[[11.0, 9.0], [9.0, 7.0]]
    )
    return tl.LinearDemandModel(G=G_I2, scenarios=scenarios, customers=1)


@pytest.fixture(scope="session")
def bundled_model() -> tl.LinearDemandModel:
    """The bundled 92-day dataset under the default calibration (read-only)."""
    from tarifflab.synthetic import bundled_dataset_paths

    load_path, prices_path = bundled_dataset_paths()
    scenarios = tl.estimate_moments(
        tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
    )
    return tl.calibrate_demand(scenarios, tl.CalibrationConfig())


@pytest.fixture
def i2_baseline() -> tl.Tariff:
    # baseline at the efficient price with no charge: gains read directly
    return tl.Tariff(connection_charge=0.0, prices=[1.0, 2.0], family="two-part-optimal")


def random_linear_model(
    seed: int, periods: int = 3, scenarios: int = 12, customers: int = 4
) -> tl.LinearDemandModel:
    """Random well-conditioned desk-scale instance."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(periods, periods))
    G = A @ A.T + periods * np.eye(periods)
    lams = 1.0 + rng.random((scenarios, periods)) * 2.0
    # demand states large enough that demand stays positive around lambda-bar
    omegas = (G @ lams.mean(axis=0)) * (2.0 + rng.random((scenarios, periods)))
    return tl.LinearDemandModel(G=G, scenarios=tl.ScenarioSet(lams, omegas),
                                customers=customers)


def rewrite_unclean(path) -> None:
    """Rewrite a clean series CSV with the same values as a file numpy's
    reader leaves to the row reader: `, ` separators and a quoted day."""
    rows = path.read_text().splitlines()[1:]
    path.write_text("day, hour, value\n" + "".join(
        '"{}",{}, {}\n'.format(*row.split(",")) for row in rows))


def model_payload_text(path) -> str:
    """The payload portion of a model file (everything above provenance)."""
    keep = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("provenance."):
            break
        keep.append(line)
    return "\n".join(keep) + "\n"


class StochasticSlopeDemand(tl.DemandModel):
    """Demand with a per-scenario slope matrix, correlated with the price.

    Exercises the generic solver paths where the two-part markup is nonzero.
    """

    def __init__(self, slopes, scenarios: tl.ScenarioSet, customers: int = 1):
        self.slopes = [np.asarray(s, dtype=float) for s in slopes]
        self.scenarios = scenarios
        self.customers = customers

    def demand(self, pi, scenario):
        return self.scenarios.omegas[scenario] - self.slopes[scenario] @ np.asarray(
            pi, dtype=float
        )

    def demand_jacobian(self, pi, scenario):
        return -self.slopes[scenario]


def generic_twin(model: tl.LinearDemandModel) -> StochasticSlopeDemand:
    """The same linear demand as a generic `DemandModel`.

    Every scenario gets the slope G, so the solvers take their fixed-point
    paths, the reference the closed forms are checked against.
    """
    return StochasticSlopeDemand(
        [model.G] * model.scenarios.n_scenarios, model.scenarios, model.customers
    )


class CubicDemand(tl.DemandModel):
    """Strictly decreasing nonlinear demand; Jacobian left to finite differences."""

    def __init__(self, scenarios: tl.ScenarioSet, slope: float = 1.0, cubic: float = 0.05):
        self.scenarios = scenarios
        self.customers = 1
        self.slope = slope
        self.cubic = cubic

    def demand(self, pi, scenario):
        pi = np.asarray(pi, dtype=float)
        return self.scenarios.omegas[scenario] - self.slope * pi - self.cubic * pi**3


class UpwardQuadraticDemand(tl.DemandModel):
    """Convex, upward-sloping demand that violates the curvature assumption."""

    def __init__(self, scenarios: tl.ScenarioSet, curvature: float = 2.0):
        self.scenarios = scenarios
        self.customers = 1
        self.curvature = curvature

    def demand(self, pi, scenario):
        pi = np.asarray(pi, dtype=float)
        return self.scenarios.omegas[scenario] + self.curvature * pi**2


class ConstantDemand(tl.DemandModel):
    """No price response at all; the mean Jacobian is singular."""

    def __init__(self, scenarios: tl.ScenarioSet):
        self.scenarios = scenarios
        self.customers = 1

    def demand(self, pi, scenario):
        return self.scenarios.omegas[scenario]
