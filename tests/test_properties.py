"""Property tests on randomly drawn desk-scale instances.

Instances are derived from a hypothesis-chosen seed (well-conditioned PD
demand matrices, positive demand around the relevant price range), which
keeps the domain constraints out of the strategies.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tarifflab as tl
from conftest import generic_twin, random_linear_model
from tarifflab.checks import fd_gradient, fd_hessian
from tarifflab.model import consumer_surplus_gain
from tarifflab.pareto import FAMILIES

SEEDS = st.integers(min_value=0, max_value=10**9)


def make_model(seed: int) -> tl.LinearDemandModel:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    j = int(rng.integers(1, 7))
    A = rng.normal(size=(n, n))
    G = A @ A.T + n * np.eye(n)
    lams = 0.5 + rng.random((j, n)) * 2.5
    # demand stays positive on the whole low-markup path iff it is positive
    # at the expected cost, so build demand states as G lam_bar plus slack
    glam = G @ lams.mean(axis=0)
    slack = max(1.0, float(np.abs(glam).max()))
    omegas = glam + (0.5 + rng.random((j, n))) * slack
    return tl.LinearDemandModel(
        G=G, scenarios=tl.ScenarioSet(lams, omegas), customers=int(rng.integers(1, 9))
    )


def random_prices(model: tl.LinearDemandModel, rng: np.random.Generator) -> np.ndarray:
    lam = model.scenarios.lambda_bar
    pim = tl.monopoly_price(model, verify=False)
    return lam + rng.random(model.periods) * (pim - lam)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_cs_gradient_is_minus_expected_demand(seed):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 1)
    baseline = tl.Tariff(
        connection_charge=0.0, prices=model.scenarios.lambda_bar,
        family="two-part-optimal",
    )
    for _ in range(3):
        pi = random_prices(model, rng)

        def cs_gain(p):
            t = tl.Tariff(connection_charge=0.0, prices=p, family="two-part-optimal")
            return tl.welfare_gains(model, t, baseline).delta_cs

        grad = fd_gradient(cs_gain, pi)
        dbar = tl.expected_demand(model, pi)
        scale = max(1.0, float(np.abs(dbar).max()))
        assert float(np.abs(grad + dbar).max()) <= 1e-6 * scale


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_rs_hessian_is_minus_two_g(seed):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 2)
    pi = random_prices(model, rng)
    hess = fd_hessian(lambda p: tl.phi_bar(model, p), pi)
    scale = max(1.0, float(np.abs(model.G).max()))
    assert float(np.abs(hess + 2.0 * model.G).max()) <= 1e-5 * scale
    assert np.linalg.eigvalsh(0.5 * (hess + hess.T))[-1] < 0


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_analytic_margin_equals_settlement(seed):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 3)
    pi = random_prices(model, rng)
    tariff = tl.Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
    settled = tl.settle_scenarios(model, tariff).mean_margin
    analytic = tl.phi_bar(model, pi)
    assert abs(settled - analytic) <= 1e-10 * max(1.0, abs(analytic))


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.floats(-10.0, 10.0, allow_nan=False))
def test_welfare_shift_with_connection_charge_is_exact_transfer(seed, da):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 4)
    pi = random_prices(model, rng)
    baseline = tl.Tariff(
        connection_charge=1.0, prices=model.scenarios.lambda_bar,
        family="two-part-optimal",
    )
    t1 = tl.Tariff(connection_charge=2.0, prices=pi, family="two-part-optimal")
    t2 = tl.Tariff(connection_charge=2.0 + da, prices=pi, family="two-part-optimal")
    r1 = tl.welfare_gains(model, t1, baseline)
    r2 = tl.welfare_gains(model, t2, baseline)
    M = model.customers
    assert r2.delta_cs - r1.delta_cs == pytest.approx(-M * da, rel=1e-12, abs=1e-9)
    assert r2.delta_rs - r1.delta_rs == pytest.approx(M * da, rel=1e-12, abs=1e-9)
    scale = max(1.0, abs(r1.delta_sw))
    assert abs(r2.delta_sw - r1.delta_sw) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_two_part_closed_form_matches_generic_fixed_point(seed):
    model = make_model(seed)
    closed = tl.solve_two_part(model, 5.0)
    generic = tl.solve_two_part(generic_twin(model), 5.0)
    assert float(np.abs(closed.prices - generic.prices).max()) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.floats(0.05, 0.95))
def test_ramsey_solution_properties(seed, frac):
    model = make_model(seed)
    lo = tl.phi_bar(model, model.scenarios.lambda_bar)
    hi = tl.phi_bar(model, tl.monopoly_price(model, verify=False))
    assume(hi > lo + 1e-6)
    F = lo + frac * (hi - lo)
    sol = tl.solve_linear(model, F)
    # revenue adequacy at the bisection tolerance
    assert abs(sol.achieved_rs - F) <= 1e-8 * max(1.0, abs(F))
    assert 0.0 <= sol.rho <= 1.0
    # markup identity (Eq. 14 analog): row sums of the weighted elasticities
    pistar = model.scenarios.lambda_bar
    eps = tl.elasticity_matrix(model, sol.prices)
    markup = (sol.prices - pistar) / sol.prices
    assert float(np.abs(-(eps @ markup) - sol.rho).max()) <= 1e-6
    # generic agreement at the same target
    generic = tl.solve_linear(generic_twin(model), F)
    assert float(np.abs(sol.prices - generic.prices).max()) <= 1e-8


# a flat rate can leave some period's expected demand negative; the solvers
# then warn with PriceSignWarning, which is not what this test checks
@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
@settings(max_examples=20, deadline=None)
@given(SEEDS, st.floats(-0.2, 1.2), st.floats(0.0, 1.0))
@example(seed=0, frac=1.0, charge_frac=0.0)  # the linear front's top end
@example(seed=76626, frac=0.3125, charge_frac=0.0)  # a flat rate that warns
def test_every_family_matches_its_generic_twin(seed, frac, charge_frac):
    # closed forms (linear model) against the fixed points, ternary search
    # and bisections (the same demand as a generic model), family by family
    model = make_model(seed)
    twin = generic_twin(model)
    lo = tl.phi_bar(model, model.scenarios.lambda_bar)
    hi = tl.phi_bar(model, tl.monopoly_price(model, verify=False))
    assume(hi > lo + 1e-6)
    F = lo + frac * (hi - lo)
    a_fixed = charge_frac * abs(F - lo) / model.customers
    base_rate = float(model.scenarios.lambda_bar.mean())
    baseline = tl.Tariff(connection_charge=a_fixed,
                         prices=np.full(model.periods, base_rate),
                         family="adjusted-flat")

    def run(m, family):
        try:
            return family.solve(m, F, baseline)[0]
        except (tl.InfeasibleTarget, tl.InvalidRegime) as exc:
            return type(exc)

    for family in FAMILIES.values():
        closed, generic = run(model, family), run(twin, family)
        if isinstance(closed, type) or isinstance(generic, type):
            assert closed is generic, family.name
            continue
        # 2e-8: at the top of the front the margin is flat in the markup, so
        # each path's rounding of it moves the Ramsey price by up to about
        # sqrt(machine epsilon) = 1.5e-8
        scale = max(1.0, float(np.abs(closed.prices).max()))
        gap = float(np.abs(closed.prices - generic.prices).max())
        assert gap <= 2e-8 * scale, family.name
        assert generic.connection_charge == pytest.approx(
            closed.connection_charge, rel=1e-8, abs=1e-8
        ), family.name


def assert_sweep_rows_are_solves(model, baseline, grid):
    """Every sweep point is its one-target solve: the same prices, charge and
    gains bit for bit, and infeasible exactly where that solve raises
    InfeasibleTarget or InvalidRegime."""
    fronts = tl.sweep(model, baseline, tl.TARIFF_FAMILIES, grid)
    assert [front.family for front in fronts] == list(FAMILIES)
    for front in fronts:
        family = FAMILIES[front.family]
        assert [p.F for p in front.points] == sorted(float(F) for F in grid)
        for point in front.points:
            try:
                tariff, _ = family.solve(model, point.F, baseline)
            except (tl.InfeasibleTarget, tl.InvalidRegime):
                assert not point.feasible, (front.family, point.F)
                continue
            assert point.feasible, (front.family, point.F)
            assert point.tariff.prices.tobytes() == tariff.prices.tobytes()
            assert np.float64(point.tariff.connection_charge).tobytes() == np.float64(
                tariff.connection_charge
            ).tobytes()
            assert point.tariff.family == tariff.family
            report = tl.welfare_gains(model, tariff, baseline)
            assert (point.delta_cs, point.delta_rs, point.delta_sw) == (
                report.delta_cs, report.delta_rs, report.delta_sw
            )


def front_grid(model, steps: int, overhang: float) -> np.ndarray:
    """The default grid, with the exact ends, widened on both sides so that
    it crosses every family's feasibility edges."""
    lo = tl.phi_bar(model, model.scenarios.lambda_bar)
    hi = tl.phi_bar(model, tl.monopoly_price(model, verify=False))
    span = hi - lo
    wide = np.linspace(lo - overhang * span, hi + overhang * span, steps)
    return np.concatenate([tl.default_revenue_grid(model, steps), wide])


@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 2.0))
def test_sweep_rows_equal_one_target_solves(seed, steps, charge_frac, overhang):
    model = make_model(seed)
    grid = front_grid(model, steps, overhang)
    span = float(grid.max() - grid.min())
    baseline = tl.Tariff(
        connection_charge=charge_frac * span / model.customers,
        prices=np.full(model.periods, float(model.scenarios.lambda_bar.mean())),
        family="two-part-optimal",
    )
    assert_sweep_rows_are_solves(model, baseline, grid)


@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
def test_sweep_rows_equal_one_target_solves_on_bundled_model(bundled_model):
    baseline = tl.baseline_tariff(bundled_model, tl.CalibrationConfig())
    assert_sweep_rows_are_solves(bundled_model, baseline, front_grid(bundled_model, 41, 0.5))


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.floats(0.1, 0.9), st.floats(0.0, 1.0))
@example(seed=6531, frac=0.5, charge_frac=0.0)  # a flat rate that warns
def test_dominance_across_families(seed, frac, charge_frac):
    model = make_model(seed)
    baseline = tl.Tariff(
        connection_charge=0.0, prices=model.scenarios.lambda_bar,
        family="two-part-optimal",
    )
    lo = tl.phi_bar(model, model.scenarios.lambda_bar)
    hi = tl.phi_bar(model, tl.monopoly_price(model, verify=False))
    assume(hi > lo + 1e-6)
    F = lo + frac * (hi - lo)
    tol = 1e-8 * max(1.0, abs(F))

    two_part = tl.welfare_gains(model, tl.solve_two_part(model, F), baseline).delta_cs
    a_fixed = charge_frac * (F - lo) / model.customers
    fixed = tl.welfare_gains(
        model, tl.solve_fixed_A_two_part(model, F, a_fixed), baseline
    ).delta_cs
    linear = tl.welfare_gains(
        model, tl.solve_linear(model, F).tariff, baseline
    ).delta_cs
    assert two_part >= fixed - tol
    assert fixed >= linear - tol
    try:
        # a flat rate can leave some period's expected demand negative, and
        # its solver then warns; this test checks welfare dominance, not
        # demand's sign
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tl.PriceSignWarning)
            flat_tariff = tl.solve_flat_linear(model, F)
        flat = tl.welfare_gains(model, flat_tariff, baseline).delta_cs
    except tl.InfeasibleTarget:
        assume(False)
    assert linear >= flat - tol


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.floats(0.0, 1.0))
def test_two_part_welfare_independent_of_target(seed, frac):
    model = make_model(seed)
    baseline = tl.Tariff(
        connection_charge=0.5, prices=1.1 * model.scenarios.lambda_bar + 0.05,
        family="two-part-optimal",
    )
    f1 = 10.0 * frac
    f2 = f1 + 7.5
    r1 = tl.welfare_gains(model, tl.solve_two_part(model, f1), baseline)
    r2 = tl.welfare_gains(model, tl.solve_two_part(model, f2), baseline)
    scale = max(1.0, abs(r1.delta_sw))
    assert abs(r1.delta_sw - r2.delta_sw) <= 1e-9 * scale
    assert r2.delta_cs - r1.delta_cs == pytest.approx(f1 - f2, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_scenario_moments_match_means(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 9))
    n = int(rng.integers(1, 5))
    lams = rng.random((j, n)) * 4.0
    omegas = rng.normal(size=(j, n)) * 3.0
    ss = tl.ScenarioSet(lams=lams, omegas=omegas)
    np.testing.assert_allclose(ss.lambda_bar, lams.mean(axis=0), rtol=0, atol=0)
    np.testing.assert_allclose(ss.omega_bar, omegas.mean(axis=0), rtol=0, atol=0)
    dl = lams - lams.mean(axis=0)
    do = omegas - omegas.mean(axis=0)
    np.testing.assert_allclose(
        ss.sigma_lambda_omega, dl.T @ do / j, rtol=1e-12, atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_cached_moments_bit_equal_uncached(seed):
    model = make_model(seed)
    ss = model.scenarios
    lams, omegas = ss.lams, ss.omegas
    dl = lams - lams.mean(axis=0)
    do = omegas - omegas.mean(axis=0)
    sigma = dl.T @ do / ss.n_scenarios
    for _ in range(2):  # first access fills the cache, the second reads it
        np.testing.assert_array_equal(ss.lambda_bar, lams.mean(axis=0))
        np.testing.assert_array_equal(ss.omega_bar, omegas.mean(axis=0))
        np.testing.assert_array_equal(ss.sigma_lambda_omega, sigma)
        assert ss.trace_sigma == float(np.trace(sigma))
    np.testing.assert_array_equal(
        model.satiation_price(), np.linalg.solve(model.G, omegas.mean(axis=0))
    )


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_linear_assumption1_field_matches_scenario_loop(seed):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 3)
    for _ in range(3):
        pi = random_prices(model, rng)
        closed = model.mean_jacobian_margin(pi)
        loop = tl.DemandModel.mean_jacobian_margin(model, pi)
        scale = max(1.0, float(np.abs(loop).max()))
        assert float(np.abs(closed - loop).max()) <= 1e-9 * scale


def random_stack(model: tl.DemandModel, rng: np.random.Generator, rows: int) -> np.ndarray:
    lam = model.scenarios.lambda_bar
    return lam + rng.random((rows, model.periods)) * 2.0 * (1.0 + np.abs(lam))


def assert_rows_bit_equal(model: tl.DemandModel, prices: np.ndarray) -> None:
    stacked = tl.phi_bar(model, prices)
    assert stacked.shape == (len(prices),)
    assert np.array_equal(stacked, [tl.phi_bar(model, p) for p in prices])


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 9))
def test_stacked_margin_rows_equal_one_dimensional_calls(seed, rows):
    model = make_model(seed)
    prices = random_stack(model, np.random.default_rng(seed + 5), rows)
    assert_rows_bit_equal(model, prices)
    assert_rows_bit_equal(generic_twin(model), prices)


def test_stacked_margin_on_bundled_model(bundled_model):
    rng = np.random.default_rng(6)
    for rows in (1, 2, 47):
        assert_rows_bit_equal(bundled_model, random_stack(bundled_model, rng, rows))


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_stacked_margin_validates_like_one_dimensional(seed):
    model = make_model(seed)
    n = model.periods
    rng = np.random.default_rng(seed + 6)
    for width in (n - 1, n + 1):
        with pytest.raises(tl.DimensionMismatch) as one:
            tl.phi_bar(model, np.ones(width))
        with pytest.raises(tl.DimensionMismatch) as stacked:
            tl.phi_bar(model, np.ones((3, width)))
        assert str(stacked.value) == str(one.value)
    with pytest.raises(tl.DimensionMismatch):
        tl.phi_bar(model, np.ones((2, 3, n)))
    for bad in (np.nan, np.inf):
        prices = random_stack(model, rng, 3)
        prices[1, rng.integers(n)] = bad
        with pytest.raises(ValueError) as one:
            tl.phi_bar(model, prices[1])
        with pytest.raises(ValueError) as stacked:
            tl.phi_bar(model, prices)
        assert type(stacked.value) is type(one.value)
        assert str(stacked.value) == str(one.value)


def scalar_fd_hessian(f, pi, h_scale=1e-3):
    """Reference: the four-point stencil evaluated one point per call."""
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    hs = np.array([h_scale * max(1.0, abs(pi[t])) for t in range(n)])
    out = np.empty((n, n))
    f0 = f(pi)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                up = pi.copy()
                dn = pi.copy()
                up[i] += hs[i]
                dn[i] -= hs[i]
                out[i, i] = (f(up) - 2.0 * f0 + f(dn)) / hs[i] ** 2
            else:
                pp = pi.copy()
                pm = pi.copy()
                mp = pi.copy()
                mm = pi.copy()
                pp[i] += hs[i]
                pp[j] += hs[j]
                pm[i] += hs[i]
                pm[j] -= hs[j]
                mp[i] -= hs[i]
                mp[j] += hs[j]
                mm[i] -= hs[i]
                mm[j] -= hs[j]
                out[i, j] = out[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (
                    4.0 * hs[i] * hs[j]
                )
    return out


@pytest.mark.parametrize("periods", [3, 24, 96])
def test_stacked_hessian_bit_equals_scalar_stencil(periods, bundled_model):
    if periods == 24:
        model = bundled_model
    else:
        model = random_linear_model(periods, periods=periods, scenarios=12)
    rng = np.random.default_rng(periods)
    pi = random_prices(model, rng)
    calls = []

    def f(p):
        calls.append(p.shape)
        return tl.phi_bar(model, p)

    hess = fd_hessian(f, pi)
    assert np.array_equal(hess, scalar_fd_hessian(lambda p: tl.phi_bar(model, p), pi))
    # one call for the centre, one per stencil row
    assert len(calls) <= periods + 1
    assert all(len(shape) == 2 for shape in calls)


def loop_central_difference(f, pi, h_scale=1e-5):
    """Reference: the central difference evaluated one point per call."""
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


def dot_cs_term(model, tariff):
    """Reference: the consumer-surplus term as 1-D dot products."""
    pi = tariff.prices
    quad = 0.5 * float(pi @ model.G @ pi)
    return (
        quad
        - float(pi @ model.scenarios.omega_bar)
        - model.customers * tariff.connection_charge
    )


def one_dimensional_cs_gain(model, baseline):
    def cs_gain(p):
        t = tl.Tariff(connection_charge=0.0, prices=p, family="two-part-optimal")
        return tl.welfare_gains(model, t, baseline).delta_cs

    return cs_gain


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 9))
def test_stacked_cs_gain_rows_equal_welfare_gains(seed, rows):
    model = make_model(seed)
    rng = np.random.default_rng(seed + 8)
    baseline = tl.Tariff(
        connection_charge=float(rng.random()), prices=random_prices(model, rng),
        family="two-part-optimal",
    )
    prices = random_stack(model, rng, rows)
    stacked = consumer_surplus_gain(model, prices, baseline)
    cs_gain = one_dimensional_cs_gain(model, baseline)
    assert stacked.shape == (rows,)
    assert np.array_equal(stacked, [cs_gain(p) for p in prices])
    assert [consumer_surplus_gain(model, p, baseline) for p in prices] == list(stacked)
    # and the 1-D gain keeps the bits of the dot-product form
    for p in prices:
        t = tl.Tariff(connection_charge=0.0, prices=p, family="two-part-optimal")
        assert cs_gain(p) == dot_cs_term(model, t) - dot_cs_term(model, baseline)


@pytest.mark.parametrize("periods", [3, 24, 96])
def test_stacked_gradient_bit_equals_point_loop(periods, bundled_model):
    if periods == 24:
        model = bundled_model
    else:
        model = random_linear_model(periods, periods=periods, scenarios=12)
    rng = np.random.default_rng(periods + 1)
    baseline = tl.Tariff(
        connection_charge=0.5, prices=random_prices(model, rng), family="two-part-optimal"
    )
    pi = random_prices(model, rng)
    cs_gain = one_dimensional_cs_gain(model, baseline)
    reference = loop_central_difference(cs_gain, pi)
    calls = []

    def stacked_gain(p):
        calls.append(p.shape)
        return consumer_surplus_gain(model, p, baseline)

    assert np.array_equal(fd_gradient(stacked_gain, pi, stacked=True), reference)
    assert calls == [(2 * periods, periods)]
    assert np.array_equal(fd_gradient(cs_gain, pi), reference)
    # a vector f gives the Jacobian, one column per coordinate
    demand = lambda p: model.mean_demand(p)  # noqa: E731
    assert np.array_equal(fd_gradient(demand, pi), loop_central_difference(demand, pi))
