"""Solver examples and invariants: two-part, Ramsey, monopoly, flat variants,
the curvature screen, and the planner bound."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

import tarifflab as tl
from tarifflab import solvers
from tarifflab.pareto import FAMILIES
from conftest import (
    ConstantDemand,
    CubicDemand,
    G_I2,
    StochasticSlopeDemand,
    UpwardQuadraticDemand,
    generic_twin,
    random_linear_model,
)


def eq14_residual(model: tl.LinearDemandModel, solution: tl.RamseySolution) -> float:
    """Markup identity: sum_t -eps[k,t] (pi_t - pi*_t)/pi_t = rho for all k."""
    pistar = model.scenarios.lambda_bar
    eps = tl.elasticity_matrix(model, solution.prices)
    markup = (solution.prices - pistar) / solution.prices
    lhs = -(eps @ markup)
    return float(np.abs(lhs - solution.rho).max())


class TestSolveTwoPart:
    def test_i2_deterministic(self, i2_model):
        tariff = tl.solve_two_part(i2_model, 24.0)
        np.testing.assert_allclose(tariff.prices, [1.0, 2.0], atol=1e-12)
        assert tariff.connection_charge == pytest.approx(24.0, abs=1e-12)
        assert tariff.family == "two-part-optimal"

    def test_i2cov_risk_premium(self, i2cov_model):
        # A* = (F + tr cov) / M with tr cov = 1 under the 1/J convention
        tariff = tl.solve_two_part(i2cov_model, 24.0)
        np.testing.assert_allclose(tariff.prices, [1.0, 2.0], atol=1e-12)
        assert tariff.connection_charge == pytest.approx(25.0, rel=1e-12)

    def test_zero_charge_at_margin_target(self, i2cov_model):
        F = tl.phi_bar(i2cov_model, i2cov_model.scenarios.lambda_bar)
        tariff = tl.solve_two_part(i2cov_model, F)
        assert tariff.connection_charge == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_path_agrees_with_closed_form(self, seed):
        model = random_linear_model(seed)
        closed = tl.solve_two_part(model, 10.0)
        generic = tl.solve_two_part(generic_twin(model), 10.0)
        assert np.abs(closed.prices - generic.prices).max() <= 1e-8
        assert generic.connection_charge == pytest.approx(
            closed.connection_charge, rel=1e-8, abs=1e-8
        )

    def test_stochastic_slope_markup(self):
        # scenario slopes 1 and 3 paired with prices 1 and 2:
        # pi* = lam_bar + E[g]^-1 E[g (lam - lam_bar)] = 1.5 + 0.5/2 = 1.75
        scenarios = tl.ScenarioSet(lams=[[1.0], [2.0]], omegas=[[10.0], [12.0]])
        model = StochasticSlopeDemand([[[1.0]], [[3.0]]], scenarios)
        tariff = tl.solve_two_part(model, 0.0)
        assert tariff.prices[0] == pytest.approx(1.75, abs=1e-10)

    def test_singular_jacobian(self):
        scenarios = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[10.0, 8.0]])
        with pytest.raises(tl.SingularJacobian):
            tl.solve_two_part(ConstantDemand(scenarios), 5.0)

    def test_needs_customers(self, i2_model):
        model = tl.LinearDemandModel(
            G=i2_model.G, scenarios=i2_model.scenarios, customers=0
        )
        with pytest.raises(ValueError, match="customer"):
            tl.solve_two_part(model, 24.0)


class TestSolveLinear:
    def test_f_zero_is_efficient_endpoint(self, i2_model):
        sol = tl.solve_linear(i2_model, 0.0)
        assert sol.rho == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(sol.prices, [1.0, 2.0], atol=1e-8)

    def test_f24_closed_form_values(self, i2_model):
        # 128 s (1 - s) = 24 -> lower root s = 1/4 -> rho = 1/3
        sol = tl.solve_linear(i2_model, 24.0)
        np.testing.assert_allclose(sol.prices, [2.75, 4.5], atol=1e-8)
        assert sol.rho == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert sol.gamma == pytest.approx(1.5, abs=1e-7)
        assert sol.achieved_rs == pytest.approx(24.0, abs=24 * 1e-8)

    def test_break_even_on_bundled_model(self):
        # F = 0 sits so close to the regime floor that the markup bisection
        # reaches its s_tol width outside the revenue band and must keep
        # halving to land in it
        from tarifflab.synthetic import bundled_dataset_paths

        load_path, prices_path = bundled_dataset_paths()
        scenarios = tl.estimate_moments(
            tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
        )
        model = tl.calibrate_demand(scenarios, tl.CalibrationConfig())
        sol = tl.solve_linear(model, 0.0)
        assert abs(sol.achieved_rs) <= solvers.rs_tolerance(0.0)
        assert sol.achieved_rs == tl.phi_bar(model, sol.prices)
        assert 0.0 < sol.rho < 1e-2

    def test_top_of_front_is_the_exact_monopoly_markup(self, bundled_model):
        # at F = phi_bar(pi_M) the Ramsey markup is the monopoly one exactly,
        # not a bisection step short of it (rho 0.9999999905, gamma 1.05e8)
        top = tl.phi_bar(bundled_model, tl.monopoly_price(bundled_model, verify=False))
        sol = tl.solve_linear(bundled_model, top)
        assert sol.rho == 1.0
        assert sol.gamma == math.inf
        assert abs(sol.achieved_rs - top) <= solvers.rs_tolerance(top)

    def test_infeasible_above_monopoly_margin(self, i2_model):
        with pytest.raises(tl.InfeasibleTarget) as exc_info:
            tl.solve_linear(i2_model, 33.0)
        lo, hi = exc_info.value.feasible_range
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(32.0, abs=1e-9)

    def test_invalid_regime_below_efficient_margin(self, i2cov_model):
        # phi(pi*) = -1 on I2-cov
        with pytest.raises(tl.InvalidRegime):
            tl.solve_linear(i2cov_model, -1.5)

    def test_i2cov_range_shifted_by_covariance(self, i2cov_model):
        sol = tl.solve_linear(i2cov_model, -1.0)
        assert sol.rho == pytest.approx(0.0, abs=1e-8)
        top = tl.solve_linear(i2cov_model, 31.0)
        np.testing.assert_allclose(top.prices, [4.5, 7.0], atol=1e-6)

    def test_eq14_markup_identity(self, i2_model, i2cov_model):
        for model, F in ((i2_model, 24.0), (i2_model, 10.0), (i2cov_model, 15.0)):
            sol = tl.solve_linear(model, F)
            assert eq14_residual(model, sol) <= 1e-6

    @pytest.mark.parametrize("F", [0.0, 11.0, 24.0, 32.0])
    def test_generic_path_agrees_with_closed_form(self, i2_model, F):
        closed = tl.solve_linear(i2_model, F)
        generic = tl.solve_linear(generic_twin(i2_model), F)
        assert np.abs(closed.prices - generic.prices).max() <= 1e-8
        assert generic.rho == pytest.approx(closed.rho, abs=1e-8)

    def test_generic_path_on_random_instance(self):
        model = random_linear_model(5)
        lo = tl.phi_bar(model, model.scenarios.lambda_bar)
        hi = tl.phi_bar(model, tl.monopoly_price(model))
        F = 0.5 * (lo + hi)
        closed = tl.solve_linear(model, F)
        generic = tl.solve_linear(generic_twin(model), F)
        assert np.abs(closed.prices - generic.prices).max() <= 1e-8

    def test_stochastic_slope_ramsey_hits_target(self):
        scenarios = tl.ScenarioSet(lams=[[1.0], [2.0]], omegas=[[10.0], [12.0]])
        model = StochasticSlopeDemand([[[1.0]], [[3.0]]], scenarios)
        phimax = tl.phi_bar(model, tl.monopoly_price(model))
        F = 0.5 * phimax
        sol = tl.solve_linear(model, F)
        assert sol.achieved_rs == pytest.approx(F, abs=1e-8 * max(1, abs(F)))
        # 1-D grid oracle: the Ramsey price maximizes welfare on the band
        settle = tl.phi_bar(model, sol.prices)
        assert settle == pytest.approx(F, abs=1e-6)


class TestMonopolyPrice:
    def test_i2_midpoint(self, i2_model):
        np.testing.assert_allclose(tl.monopoly_price(i2_model), [4.5, 7.0], atol=1e-12)

    def test_zero_demand_at_cost_collapses_to_cost(self):
        # omega_bar = G lam_bar makes the satiation price equal the cost
        lam = np.array([1.0, 2.0])
        scenarios = tl.ScenarioSet(lams=[lam], omegas=[G_I2 @ lam])
        model = tl.LinearDemandModel(G=G_I2, scenarios=scenarios, customers=1)
        np.testing.assert_allclose(tl.monopoly_price(model), lam, atol=1e-12)

    @pytest.mark.parametrize("F, rho", [(-1e-9, 0.0), (0.0, 1.0)])
    def test_zero_length_ramsey_ray(self, F, rho):
        # omega_bar = G lam_bar puts the satiation price at the cost, so the
        # Ramsey ray has zero length: every feasible target is met at cost
        lam = np.array([1.0, 2.0])
        scenarios = tl.ScenarioSet(lams=[lam], omegas=[G_I2 @ lam])
        model = tl.LinearDemandModel(G=G_I2, scenarios=scenarios, customers=1)
        sol = tl.solve_linear(model, F)
        np.testing.assert_array_equal(sol.prices, lam)
        assert sol.rho == rho

    def test_linear_solver_limit_is_monopoly_price(self, i2_model):
        sol = tl.solve_linear(i2_model, 32.0)
        np.testing.assert_allclose(sol.prices, [4.5, 7.0], atol=1e-6)
        assert sol.rho == pytest.approx(1.0, abs=1e-6)

    def test_generic_agrees(self, i2_model):
        generic = tl.monopoly_price(generic_twin(i2_model))
        np.testing.assert_allclose(generic, [4.5, 7.0], atol=1e-8)

    @pytest.mark.parametrize("twin", [False, True], ids=["linear", "generic"])
    def test_read_only_so_the_range_cannot_be_corrupted(self, i2_model, twin):
        model = generic_twin(i2_model) if twin else i2_model
        pim = tl.monopoly_price(model)
        with pytest.raises(ValueError, match="read-only"):
            pim[0] = 0.0
        assert tl.monopoly_price(model, verify=False) is pim
        assert tl.solve_linear(model, 32.0).rho == pytest.approx(1.0, abs=1e-6)

    def test_nonconvergence_with_tiny_budget(self, monkeypatch):
        scenarios = tl.ScenarioSet(lams=[[2.0]], omegas=[[20.0]])
        model = CubicDemand(scenarios)
        monkeypatch.setattr(solvers, "_MAX_ITERATIONS", 2)
        with pytest.raises(tl.NonConvergence, match="in 2 iterations"):
            tl.monopoly_price(model)

    @pytest.mark.parametrize("shift", [0.0, 1e-3, -1e-3, 0.5, -0.5])
    def test_verification_matches_probe_loop(self, i2_model, shift):
        class Shifted(tl.LinearDemandModel):
            def satiation_price(self):
                return super().satiation_price() + shift

        def probes_pass(model, pim):
            # reference: the probes one scalar margin at a time
            base = tl.phi_bar(model, pim)
            scale = max(1.0, abs(base))
            for t in range(model.periods):
                h = 1e-4 * max(1.0, abs(pim[t]))
                for sign in (1.0, -1.0):
                    probe = pim.copy()
                    probe[t] += sign * h
                    if tl.phi_bar(model, probe) > base + 1e-6 * scale:
                        return False
            return True

        model = Shifted(G=i2_model.G, scenarios=i2_model.scenarios, customers=1)
        pim = tl.monopoly_price(model, verify=False)
        passes = probes_pass(model, pim)
        assert passes == (abs(shift) < 0.5)
        if passes:
            np.testing.assert_array_equal(tl.monopoly_price(model), pim)
        else:
            with pytest.raises(tl.NonConvergence, match="local-maximum"):
                tl.monopoly_price(model)


class TestSolveFlatLinear:
    def test_f_zero_low_root(self, i2_model):
        # low root of -2p^2 + 20.5p - 26 = 0
        expected = (20.5 - np.sqrt(20.5**2 - 8 * 26)) / 4.0
        tariff = tl.solve_flat_linear(i2_model, 0.0)
        assert tariff.prices[0] == pytest.approx(expected, abs=1e-9)
        assert tariff.prices[0] == pytest.approx(tariff.prices[1])
        assert tariff.connection_charge == 0.0
        assert tl.phi_bar(i2_model, tariff.prices) == pytest.approx(0.0, abs=1e-8)

    def test_oracle_bisection_on_settled_scenarios(self, i2_model):
        # independent route: bisect the settlement average directly
        def settled(rate):
            t = tl.Tariff(connection_charge=0.0, prices=[rate, rate],
                          family="flat-linear")
            return tl.settle_scenarios(i2_model, t).mean_margin

        lo, hi = 0.0, 5.125  # scalar margin peaks at 20.5/4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if settled(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        tariff = tl.solve_flat_linear(i2_model, 0.0)
        assert tariff.prices[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_infeasible_above_scalar_maximum(self, i2_model):
        # scalar margin peaks at 26.53125
        with pytest.raises(tl.InfeasibleTarget):
            tl.solve_flat_linear(i2_model, 26.6)
        tl.solve_flat_linear(i2_model, 26.5)  # just below: fine

    def test_symmetric_instance_matches_linear_solver(self):
        # flat expected cost and row-constant G collapse the Ramsey price to a
        # flat vector, so both solvers agree
        G = np.array([[2.0, -0.5], [-0.5, 2.0]])
        scenarios = tl.ScenarioSet(lams=[[1.5, 1.5]], omegas=[[9.0, 9.0]])
        model = tl.LinearDemandModel(G=G, scenarios=scenarios, customers=1)
        F = 5.0
        flat = tl.solve_flat_linear(model, F)
        ramsey = tl.solve_linear(model, F)
        assert np.abs(flat.prices - ramsey.prices).max() <= 1e-8

    def test_negative_rate_warns(self, i2_model):
        with pytest.warns(tl.PriceSignWarning):
            tl.solve_flat_linear(i2_model, -40.0)


class TestSolveFixedATwoPart:
    def test_zero_charge_reduces_to_linear(self, i2_model):
        fixed = tl.solve_fixed_A_two_part(i2_model, 24.0, 0.0)
        linear = tl.solve_linear(i2_model, 24.0)
        np.testing.assert_allclose(fixed.prices, linear.prices, atol=1e-12)
        assert fixed.connection_charge == 0.0
        assert fixed.family == "fixed-A-two-part"

    def test_charge_covering_target_frees_the_price(self, i2_model):
        tariff = tl.solve_fixed_A_two_part(i2_model, 24.0, 24.0)
        np.testing.assert_allclose(tariff.prices, [1.0, 2.0], atol=1e-8)

    def test_infeasible_residual_propagates(self, i2_model):
        with pytest.raises(tl.InfeasibleTarget):
            tl.solve_fixed_A_two_part(i2_model, 24.0, -10.0)  # residual 34 > 32


class TestSolveAdjustedFlat:
    def test_identity_at_baseline_revenue(self, i2_model):
        # F = phi(1 * base) + M A: the adjustment is zero
        base_rate = 1.5
        A = 3.0
        F = tl.phi_bar(i2_model, [base_rate, base_rate]) + A
        tariff = tl.solve_adjusted_flat(i2_model, F, base_rate, A)
        assert tariff.prices[0] == pytest.approx(base_rate, abs=1e-9)
        assert tariff.connection_charge == A

    def test_i2_f24_low_root(self, i2_model):
        # -2 p^2 + 20.5 p - 26 = 24 has roots 4 and 6.25; low-markup is 4
        tariff = tl.solve_adjusted_flat(i2_model, 24.0, 1.5, 0.0)
        assert tariff.prices[0] == pytest.approx(4.0, abs=1e-8)
        baseline = tl.Tariff(connection_charge=0.0, prices=[1.5, 1.5],
                             family="adjusted-flat")
        _, diagnostics = FAMILIES["adjusted-flat"].solve(i2_model, 24.0, baseline)
        assert diagnostics["delta"] == pytest.approx(2.5, abs=1e-8)

    def test_infeasible_target(self, i2_model):
        with pytest.raises(tl.InfeasibleTarget):
            tl.solve_adjusted_flat(i2_model, 40.0, 1.5, 0.0)


class TestCheckAssumption1:
    def test_linear_model_passes_with_minus_g_eigenvalues(self, i2_model):
        report = tl.check_assumption1(i2_model, [[1.0, 2.0], [3.0, 4.0]])
        assert report.passed and not report.vacuous
        expected_max = float(np.linalg.eigvalsh(-G_I2)[-1])
        for max_eig in report.max_eigenvalues:
            assert max_eig == pytest.approx(expected_max, rel=1e-6)

    def test_convex_demand_fails(self):
        scenarios = tl.ScenarioSet(lams=[[1.0, 1.0]], omegas=[[5.0, 5.0]])
        model = UpwardQuadraticDemand(scenarios, curvature=2.0)
        report = tl.check_assumption1(model, [[1.0, 1.0]])
        assert not report.passed
        assert report.max_eigenvalues[0] > 0

    def test_generic_model_uses_the_scenario_loop(self, monkeypatch):
        # StochasticSlopeDemand has no closed-form field: check_assumption1
        # must reach every scenario's Jacobian, and the Jacobian of
        # g(pi) = -E[S_j (pi - lam_j)] is -E[S_j]
        scenarios = tl.ScenarioSet(
            lams=[[1.0, 2.0], [2.0, 1.0]], omegas=[[10.0, 8.0], [12.0, 9.0]]
        )
        slopes = [np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([[3.0, -0.1], [-0.1, 1.0]])]
        model = StochasticSlopeDemand(slopes, scenarios)
        assert (
            type(model).mean_jacobian_margin is tl.DemandModel.mean_jacobian_margin
        )
        calls = []
        original = StochasticSlopeDemand.demand_jacobian

        def counted(self, pi, scenario):
            calls.append(scenario)
            return original(self, pi, scenario)

        monkeypatch.setattr(StochasticSlopeDemand, "demand_jacobian", counted)
        report = tl.check_assumption1(model, [[1.5, 1.5]])
        # two central-difference points per period, each over both scenarios
        assert sorted(set(calls)) == [0, 1] and len(calls) == 2 * 2 * 2
        expected = float(np.linalg.eigvalsh(-0.5 * (slopes[0] + slopes[1]))[-1])
        assert report.max_eigenvalues[0] == pytest.approx(expected, rel=1e-6)

    def test_empty_samples_vacuous_pass(self, i2_model):
        report = tl.check_assumption1(i2_model, [])
        assert report.passed
        assert report.vacuous


class TestPlannerBoundGain:
    def test_zero_at_efficient_baseline(self, i2_model, i2_baseline):
        assert tl.planner_bound_gain(i2_model, i2_baseline) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_positive_against_ramsey_baseline(self, i2_model):
        baseline = tl.Tariff(connection_charge=0.0, prices=[2.75, 4.5],
                             family="linear-optimal")
        gain = tl.planner_bound_gain(i2_model, baseline)
        assert gain == pytest.approx(4.0, abs=1e-12)

    def test_dependent_scenarios_warn_but_return(self, i2cov_model, i2_baseline):
        with pytest.warns(tl.IndependenceWarning):
            gain = tl.planner_bound_gain(i2cov_model, i2_baseline)
        assert gain == pytest.approx(0.0, abs=1e-12)


class TestSolverInvariants:
    def test_corollary2_welfare_flat_in_target(self, i2_model, i2_baseline):
        targets = np.linspace(0.0, 32.0, 41)
        reports = [
            tl.welfare_gains(i2_model, tl.solve_two_part(i2_model, F), i2_baseline)
            for F in targets
        ]
        sws = np.array([r.delta_sw for r in reports])
        scale = max(1.0, float(np.abs(sws).max()))
        assert (sws.max() - sws.min()) <= 1e-9 * scale
        # consumer gains fall one-for-one with the target via the charge
        cs = np.array([r.delta_cs for r in reports])
        np.testing.assert_allclose(np.diff(cs), -np.diff(targets), atol=1e-9)

    def test_corollary3_decreasing_concave(self, i2_model, i2_baseline):
        targets = np.linspace(0.0, 32.0, 21)
        cs, sw = [], []
        for F in targets:
            sol = tl.solve_linear(i2_model, F)
            report = tl.welfare_gains(i2_model, sol.tariff, i2_baseline)
            cs.append(report.delta_cs)
            sw.append(report.delta_sw)
        for series in (np.array(cs), np.array(sw)):
            scale = max(1.0, float(np.abs(series).max()))
            assert (np.diff(series) <= 1e-7 * scale).all()
            second = np.diff(series, n=2)
            assert (second <= 1e-7 * scale).all()

    def test_dominance_at_equal_target(self, i2_model, i2_baseline):
        F = 24.0
        tol = 1e-9 * max(1.0, F)
        two_part = tl.welfare_gains(
            i2_model, tl.solve_two_part(i2_model, F), i2_baseline
        ).delta_cs
        fixed = tl.welfare_gains(
            i2_model, tl.solve_fixed_A_two_part(i2_model, F, 12.0), i2_baseline
        ).delta_cs
        linear = tl.welfare_gains(
            i2_model, tl.solve_linear(i2_model, F).tariff, i2_baseline
        ).delta_cs
        flat = tl.welfare_gains(
            i2_model, tl.solve_flat_linear(i2_model, F), i2_baseline
        ).delta_cs
        assert two_part >= fixed - tol
        assert fixed >= linear - tol
        assert linear >= flat - tol

    @pytest.mark.parametrize("F", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target_rejected(self, i2_model, F):
        for solve in (tl.solve_two_part, tl.solve_linear, tl.solve_flat_linear):
            with pytest.raises(ValueError, match="revenue target must be finite"):
                solve(i2_model, F)
        with pytest.raises(ValueError, match="revenue target must be finite"):
            tl.solve_fixed_A_two_part(i2_model, F, 1.0)
        with pytest.raises(ValueError, match="revenue target must be finite"):
            tl.solve_adjusted_flat(i2_model, F, 1.5, 1.0)


def count_margin_calls(monkeypatch) -> list:
    """The arguments of every `phi_bar` call `solvers` makes from now on."""
    calls = []
    margin = solvers.phi_bar
    monkeypatch.setattr(
        solvers, "phi_bar", lambda *args: calls.append(args) or margin(*args)
    )
    return calls


class TestClosedFormPath:
    @pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
    def test_linear_model_never_bisects(self, monkeypatch, bundled_model, i2_model):
        calls = []
        bisect = solvers._bisect_target

        def counting_bisect(*args, **kwargs):
            calls.append(args)
            return bisect(*args, **kwargs)

        monkeypatch.setattr(solvers, "_bisect_target", counting_bisect)
        baseline = tl.baseline_tariff(bundled_model, tl.CalibrationConfig())
        grid = tl.default_revenue_grid(bundled_model)
        fronts = tl.sweep(bundled_model, baseline, tl.TARIFF_FAMILIES, grid)
        assert all(front.feasible_points for front in fronts)
        for family in FAMILIES.values():
            family.solve(bundled_model, float(grid[len(grid) // 2]), baseline)
        assert calls == []
        # the counter does see the generic path
        tl.solve_linear(generic_twin(i2_model), 24.0)
        tl.solve_flat_linear(generic_twin(i2_model), 24.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("solve, counts", [
        (lambda m, F, A: tl.solve_two_part(m, F), [1, 0]),
        (lambda m, F, A: tl.solve_linear(m, F), [3, 1]),
        (lambda m, F, A: tl.solve_fixed_A_two_part(m, F, A), [3, 1]),
        (lambda m, F, A: tl.solve_flat_linear(m, F), [3, 1]),
        (lambda m, F, A: tl.solve_adjusted_flat(m, F, 1.5, A), [3, 1]),
    ], ids=["two-part-optimal", "linear-optimal", "fixed-A-two-part", "flat-linear",
            "adjusted-flat"])
    @pytest.mark.parametrize("name", ["i2_model", "i2cov_model", "bundled_model"])
    def test_each_model_evaluates_its_range_once(
        self, monkeypatch, request, solve, counts, name
    ):
        # a model's first solve evaluates the margin at the base and at the
        # peak of its family's line; every solve then evaluates it once, at
        # its solution, which two-part tariffs take from the range itself
        shared = request.getfixturevalue(name)
        F, A = 24.0, 12.0
        if name == "bundled_model":
            grid = tl.default_revenue_grid(shared)
            F, A = float(grid[len(grid) // 2]), 0.52
        model = dataclasses.replace(shared)  # a fresh instance, no range yet
        calls = count_margin_calls(monkeypatch)
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tl.PriceSignWarning)
            for target in (F, 0.9 * F):
                solve(model, target, A)
                seen.append(len(calls))
                calls.clear()
        assert seen == counts

    def test_default_sweep_evaluates_each_range_once(self, monkeypatch, bundled_model):
        model = dataclasses.replace(bundled_model)
        baseline = tl.baseline_tariff(model, tl.CalibrationConfig())
        calls = count_margin_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tl.PriceSignWarning)
            grid = tl.default_revenue_grid(model)
            fronts = tl.sweep(model, baseline, tl.TARIFF_FAMILIES, grid)
        # the margin at pi*, pi_M and the flat base and peak, then one band
        # check per feasible point of the four closed-form root families
        # (527 calls when every solve rebuilt its range)
        checked = sum(
            len(f.feasible_points) for f in fronts if f.family != "two-part-optimal"
        )
        assert len(calls) == 4 + checked <= 160

    @pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
    def test_generic_flat_peak_is_searched_once_per_model(self, monkeypatch, i2_model):
        searches = []
        search = solvers._flat_monopoly_rate

        def counting_search(model):
            searches.append(model)
            return search(model)

        monkeypatch.setattr(solvers, "_flat_monopoly_rate", counting_search)
        twin = generic_twin(i2_model)
        for F in (0.0, 10.0, 20.0):
            tl.solve_flat_linear(twin, F)
            tl.solve_adjusted_flat(twin, F + 1.0, 1.5, 1.0)
        with pytest.raises(tl.InfeasibleTarget):
            tl.solve_flat_linear(twin, 40.0)
        assert len(searches) == 1

    @pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
    def test_repeated_generic_solves_match_fresh_twins(self, i2cov_model):
        twin = generic_twin(i2cov_model)
        for F in (4.0, 24.0, -1.0, 12.0, 24.0):
            fresh = generic_twin(i2cov_model)
            assert np.array_equal(
                tl.solve_linear(twin, F).prices, tl.solve_linear(fresh, F).prices
            )
            fresh = generic_twin(i2cov_model)
            assert np.array_equal(
                tl.solve_flat_linear(twin, F).prices,
                tl.solve_flat_linear(fresh, F).prices,
            )

    def test_generic_ramsey_solve_runs_one_two_part_fixed_point(
        self, monkeypatch, i2cov_model
    ):
        # the monopoly price bounding the range starts from the solve's own pi*
        calls = []
        two_part = solvers._two_part_price

        def counting_two_part(model):
            calls.append(model)
            return two_part(model)

        monkeypatch.setattr(solvers, "_two_part_price", counting_two_part)
        tl.solve_linear(generic_twin(i2cov_model), 24.0)
        assert len(calls) == 1


def i2_with_states(omega_bar) -> tl.LinearDemandModel:
    scenarios = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[omega_bar])
    return tl.LinearDemandModel(G=G_I2, scenarios=scenarios, customers=1)


@pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
class TestGenericFlatPath:
    """The generic flat path (bracket walks, ternary search, bisection)
    against the closed form on the same demand."""

    # I2's demand states, and their negatives: mean demand below zero, as on
    # a solar-heavy feeder, moves the flat peak to a negative rate (-3.875);
    # at (1.5, 1.0) the welfare-best and satiation flat rates coincide (1.25)
    @pytest.mark.parametrize("omega_bar", [(10.0, 8.0), (-10.0, -8.0), (1.5, 1.0)])
    # residual targets this far below the peak flat margin (0: the top of the
    # range); at the first two the root, about -sqrt(gap / 1'G1), lies far
    # past any fixed step cap
    @pytest.mark.parametrize("gap", [1e200, 1e30, 1e6, 100.0, 15.0, 1.0, 1e-2, 0.0])
    @pytest.mark.parametrize("family", ["flat-linear", "adjusted-flat"])
    def test_matches_closed_form_across_the_flat_range(self, omega_bar, gap, family):
        model = i2_with_states(omega_bar)
        twin = generic_twin(model)
        # the closed-form flat peak, where 1'omega_bar + 1'G lam_bar = 2 r 1'G1
        g1 = model.G @ np.ones(2)
        peak = (model.scenarios.omega_bar.sum() + g1 @ model.scenarios.lambda_bar) / (
            2.0 * g1.sum()
        )
        assert peak == pytest.approx(
            solvers._flat_monopoly_rate(twin), rel=1e-7, abs=1e-7
        )
        charge = 1.0 if family == "adjusted-flat" else 0.0
        F = tl.phi_bar(model, np.full(2, peak)) - gap + charge
        baseline = tl.Tariff(connection_charge=charge, prices=[1.5, 1.5],
                             family="adjusted-flat")
        closed, _ = FAMILIES[family].solve(model, F, baseline)
        generic, _ = FAMILIES[family].solve(twin, F, baseline)
        # the bound of test_every_family_matches_its_generic_twin
        scale = max(1.0, float(np.abs(closed.prices).max()))
        assert float(np.abs(closed.prices - generic.prices).max()) <= 2e-8 * scale
        assert generic.connection_charge == closed.connection_charge

    def test_margin_without_peak_fails_by_name(self):
        # a margin that rises without end: the peak walk runs until the
        # margin overflows and then gives up, with no warning on the way
        scenarios = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[10.0, 8.0]])
        model = ConstantDemand(scenarios)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tl.NonConvergence, match="bracket did not close"):
                tl.solve_flat_linear(model, 5.0)


# tolerance and sampling keywords: none is part of a tariff's definition, so
# no solver or check takes one
RETIRED_KEYWORDS = {
    "config", "count", "rel_tol", "seed", "tol", "correlation_threshold",
    "demand_floor", "h_scale",
}


def test_no_tolerance_keywords():
    from tarifflab import checks, ingest, model, pareto, svg

    assert not hasattr(tl, "SolverConfig")
    assert not hasattr(solvers, "SolverConfig")
    callables = [
        obj
        for module in (solvers, pareto, checks, model)
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]
    callables += [family.solve for family in FAMILIES.values()]
    assert len(callables) > 40  # the scan sees the public API
    for obj in callables:
        params = set(inspect.signature(obj).parameters)
        assert not params & RETIRED_KEYWORDS, obj

    # every family solves from the baseline tariff itself, the sweep and the
    # plot take no option, and no result type carries a field nobody reads
    def arguments(fn):
        return list(inspect.signature(fn).parameters)

    assert arguments(pareto.sweep) == ["model", "baseline", "families", "F_grid"]
    for family in FAMILIES.values():
        assert arguments(family.solve) == ["model", "F", "baseline"], family.name
    assert arguments(svg.render_fronts) == ["fronts"]
    assert arguments(svg._ticks) == ["lo", "hi"]
    assert not hasattr(tl, "ElasticityMatrix")
    assert not hasattr(solvers, "adjusted_flat_delta")
    for cls in (model.WelfareReport, ingest.RawSeries):
        names = {f.name for f in dataclasses.fields(cls)}
        assert not names & {"baseline", "kind"}, cls
