"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances are pinned here, not configurable.
"""

import time
import warnings

import numpy as np
import pytest

import tarifflab as tl
from tarifflab.checks import BAND_LADDER, fd_gradient, fd_hessian, rs_cell_scale
from tarifflab.ingest import baseline_tariff
from tarifflab.synthetic import bundled_dataset_paths
from conftest import generic_twin, random_linear_model
from test_solvers import eq14_residual


# collected lines resurface in the terminal summary (see conftest), so the
# per-criterion verdicts are visible without -s
ACCEPTANCE_LINES: list[str] = []


def _report(num, name, budget, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"ACCEPTANCE {num} {name}: FAIL ({elapsed:.2f} s)"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f} s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f} s >= {budget} s"


@pytest.fixture(scope="module")
def bundled_scenarios():
    load_path, prices_path = bundled_dataset_paths()
    load = tl.parse_csv(load_path, "load")
    prices = tl.parse_csv(prices_path, "price")
    return tl.estimate_moments(load, prices)


def test_criterion_1_corollary1_two_part_closed_form(i2_model, i2cov_model):
    def body():
        third = random_linear_model(17, periods=3, scenarios=9, customers=5)
        for model in (i2_model, i2cov_model, third):
            lam = model.scenarios.lambda_bar
            tr_sigma = float(np.trace(model.scenarios.sigma_lambda_omega))
            for F in (0.0, 7.5, 24.0, 100.0):
                tariff = tl.solve_two_part(model, F)
                assert float(np.abs(tariff.prices - lam).max()) <= 1e-10
                expected_charge = (F + tr_sigma) / model.customers
                assert tariff.connection_charge == pytest.approx(
                    expected_charge, rel=1e-10, abs=1e-10
                )

    _report(1, "corollary-1 two-part closed form", 1.0, body)


def test_criterion_2_corollary2_welfare_independent_of_target(i2_model, i2_baseline):
    def body():
        grid = np.linspace(0.0, 32.0, 41)
        (front,) = tl.sweep(i2_model, i2_baseline, {"two-part-optimal"}, grid)
        sws = np.array([p.delta_sw for p in front.points])
        scale = max(1.0, float(np.abs(sws).max()))
        assert (sws.max() - sws.min()) < 1e-9 * scale
        for row in tl.front_slope_report(front):
            assert abs(row.slope - (-1.0)) <= 1e-9

    _report(2, "corollary-2 iso-welfare transfer line", None, body)


def test_criterion_3_theorem2_ramsey_prices(i2_model):
    def body():
        sol = tl.solve_linear(i2_model, 24.0)
        assert float(np.abs(sol.prices - np.array([2.75, 4.5])).max()) <= 1e-8
        assert abs(sol.rho - 1.0 / 3.0) <= 1e-8
        assert eq14_residual(i2_model, sol) <= 1e-6
        top = tl.solve_linear(i2_model, 32.0)
        assert float(np.abs(top.prices - np.array([4.5, 7.0])).max()) <= 1e-6
        with pytest.raises(tl.InfeasibleTarget):
            tl.solve_linear(i2_model, 32.5)

    _report(3, "theorem-2 optimal linear tariff", 1.0, body)


def test_criterion_4_corollary3_concave_decreasing_front(i2_model, i2_baseline):
    def body():
        grid = np.linspace(0.0, 32.0, 41)
        (front,) = tl.sweep(i2_model, i2_baseline, {"linear-optimal"}, grid)
        cs = np.array([p.delta_cs for p in front.points])
        sw = np.array([p.delta_sw for p in front.points])
        for series in (cs, sw):
            scale = max(1.0, float(np.abs(series).max()))
            assert (np.diff(series) <= 1e-7 * scale).all()
            assert (np.diff(series, n=2) <= 1e-7 * scale).all()

    _report(4, "corollary-3 concave decreasing linear front", None, body)


def test_criterion_5_oracle_equivalence(i2_model, i2cov_model, i2_baseline):
    grid = tl.GridSpec.cube(0.0, 10.0, 400, dims=2)
    step = grid.max_step

    def within_one_step_constrained(model, prices, F, charge, flat):
        cell = rs_cell_scale(model, prices, step)
        gaps = []
        for mult in BAND_LADDER:
            try:
                oracle_pi, _ = tl.grid_argmax_welfare(
                    model, i2_baseline, tl.RsConstraint(F, mult * cell), grid,
                    connection_charge=charge, flat=flat,
                )
            except tl.EmptyFeasibleSet:
                continue
            gaps.append(float(np.abs(prices - oracle_pi).max()))
        assert gaps, "no band in the ladder had a feasible grid point"
        return min(gaps) <= step * (1 + 1e-9)

    def body():
        F = 24.0
        charge = 0.5
        for model in (i2_model, i2cov_model):
            two_part = tl.solve_two_part(model, F)
            oracle_pi, _ = tl.grid_argmax_welfare(model, i2_baseline, None, grid)
            assert float(np.abs(two_part.prices - oracle_pi).max()) <= step

            linear = tl.solve_linear(model, F)
            assert within_one_step_constrained(model, linear.prices, F, 0.0, False)

            flat = tl.solve_flat_linear(model, F)
            assert within_one_step_constrained(model, flat.prices, F, 0.0, True)

            fixed = tl.solve_fixed_A_two_part(model, F, charge)
            assert within_one_step_constrained(model, fixed.prices, F, charge, False)

            adjusted = tl.solve_adjusted_flat(model, F, 1.5, charge)
            assert within_one_step_constrained(model, adjusted.prices, F, charge, True)

    _report(5, "solver/grid-oracle equivalence", 30.0, body)


def test_criterion_6_gradient_hessian_identities(i2_model):
    def body():
        third = random_linear_model(23, periods=3, scenarios=7, customers=2)
        for model in (i2_model, third):
            lam = model.scenarios.lambda_bar
            pim = tl.monopoly_price(model, verify=False)
            baseline = tl.Tariff(connection_charge=0.0, prices=lam,
                                 family="two-part-optimal")
            rng = np.random.default_rng(101)
            for _ in range(10):
                pi = lam + rng.random(model.periods) * (pim - lam)

                def cs_gain(p):
                    t = tl.Tariff(connection_charge=0.0, prices=p,
                                  family="two-part-optimal")
                    return tl.welfare_gains(model, t, baseline).delta_cs

                grad = fd_gradient(cs_gain, pi)
                dbar = tl.expected_demand(model, pi)
                scale = max(1.0, float(np.abs(dbar).max()))
                assert float(np.abs(grad + dbar).max()) <= 1e-6 * scale

            pi = lam + 0.3 * (pim - lam)
            hess = fd_hessian(lambda p: tl.phi_bar(model, p), pi)
            gscale = max(1.0, float(np.abs(model.G).max()))
            assert float(np.abs(hess + 2.0 * model.G).max()) <= 1e-5 * gscale
            assert np.linalg.eigvalsh(0.5 * (hess + hess.T))[-1] < 0

    _report(6, "gradient/hessian welfare identities", None, body)


def test_criterion_7_planner_bound(i2cov_model, i2_baseline):
    def body():
        # independently sampled prices and demand states
        rng = np.random.default_rng(42)
        J = 200
        lams = 0.8 + rng.random((J, 2)) * 1.4
        omegas = np.array([10.0, 8.0]) + rng.normal(size=(J, 2))
        model = tl.LinearDemandModel(
            G=[[2.0, -0.5], [-0.5, 1.0]], scenarios=tl.ScenarioSet(lams, omegas),
            customers=1,
        )
        baseline = tl.Tariff(connection_charge=0.0, prices=[2.0, 3.0],
                             family="two-part-optimal")
        two_part = tl.solve_two_part(generic_twin(model), 12.0)
        sw_star = tl.welfare_gains(model, two_part, baseline).delta_sw
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound = tl.planner_bound_gain(model, baseline)
        fired = [w for w in caught if issubclass(w.category, tl.IndependenceWarning)]
        assert not fired, "A2 warning should stay quiet for independent samples"
        assert abs(sw_star - bound) <= 1e-9

        # dependent scenarios: the gap is still reported, with the warning
        with pytest.warns(tl.IndependenceWarning):
            dep_bound = tl.planner_bound_gain(i2cov_model, i2_baseline)
        dep_two_part = tl.solve_two_part(i2cov_model, 12.0)
        dep_sw = tl.welfare_gains(i2cov_model, dep_two_part, i2_baseline).delta_sw
        gap = dep_sw - dep_bound
        assert np.isfinite(gap)

    _report(7, "theorem-3 planner bound under independence", None, body)


def test_criterion_8_section_iv_reproduction():
    results = {}

    def body():
        # full pipeline, timed end to end: parse -> moments -> calibrate -> solve
        load_path, prices_path = bundled_dataset_paths()
        scenarios = tl.estimate_moments(
            tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
        )
        config = tl.CalibrationConfig()  # paper defaults
        model = tl.calibrate_demand(scenarios, config)
        baseline = baseline_tariff(model, config)
        F = tl.retailer_surplus(model, baseline)

        gains = {}
        two_part = tl.solve_two_part(model, F)
        gains["two-part-optimal"] = tl.welfare_gains(model, two_part, baseline)
        gains["linear-optimal"] = tl.welfare_gains(
            model, tl.solve_linear(model, F).tariff, baseline
        )
        gains["flat-linear"] = tl.welfare_gains(
            model, tl.solve_flat_linear(model, F), baseline
        )
        gains["fixed-A-two-part"] = tl.welfare_gains(
            model,
            tl.solve_fixed_A_two_part(model, F, config.connection_charge),
            baseline,
        )
        gains["adjusted-flat"] = tl.welfare_gains(
            model,
            tl.solve_adjusted_flat(
                model, F, config.flat_rate, config.connection_charge
            ),
            baseline,
        )
        cs = {name: report.delta_cs for name, report in gains.items()}
        results.update(cs)
        results["A*"] = two_part.connection_charge

        tol = 1e-6 * max(1.0, abs(F))
        assert cs["flat-linear"] < cs["linear-optimal"] < 0.0
        # at F = rs(T_CE) the adjusted-flat tariff IS the baseline (its rate
        # adjustment solves the baseline's own revenue identity, so delta = 0
        # exactly); assert the identity rather than an unattainable strict sign
        assert abs(cs["adjusted-flat"]) <= tol
        assert cs["adjusted-flat"] < cs["fixed-A-two-part"]
        assert 0.0 < cs["fixed-A-two-part"] < cs["two-part-optimal"]
        assert 0.5 <= two_part.connection_charge <= 10.0

    _report(8, "section-IV desk-scale reproduction", 60.0, body)
    rev = results
    print(
        "  reported magnitudes ($/day): "
        f"flat-linear {rev['flat-linear']:.4g}, "
        f"linear-optimal {rev['linear-optimal']:.4g}, "
        f"adjusted-flat {rev['adjusted-flat']:.4g}, "
        f"fixed-A {rev['fixed-A-two-part']:.4g}, "
        f"two-part {rev['two-part-optimal']:.4g}, "
        f"A* {rev['A*']:.4g}"
    )


def test_criterion_9_calibration_round_trip(bundled_scenarios):
    def body():
        for alpha in (0.05, 0.2, 0.8):
            config = tl.CalibrationConfig(alpha=alpha)
            model = tl.calibrate_demand(bundled_scenarios, config)
            realized = tl.flat_rate_elasticity(model, config.flat_rate)
            assert abs(realized - config.elasticity_target) <= 1e-9
            np.linalg.cholesky(model.G)  # positive definiteness

    _report(9, "calibration elasticity round trip", None, body)
