"""Grid-search and settlement oracle behavior."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

import tarifflab as tl
from tarifflab import checks
from conftest import random_linear_model
from tarifflab.oracle import _grid_argmax_lagrangian


@pytest.fixture
def grid2() -> tl.GridSpec:
    return tl.GridSpec.cube(0.0, 10.0, 400, dims=2)


class TestGridSpec:
    def test_rejects_more_than_three_dims(self):
        with pytest.raises(ValueError, match="3"):
            tl.GridSpec(tuple((0.0, 1.0, 10) for _ in range(4)))

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            tl.GridSpec(((1.0, 1.0, 10),))
        with pytest.raises(ValueError):
            tl.GridSpec(((0.0, 1.0, 1),))

    def test_max_step(self, grid2):
        assert grid2.max_step == pytest.approx(10.0 / 399.0)


class TestGridArgmaxWelfare:
    def test_unconstrained_lands_near_efficient_price(self, i2_model, i2_baseline, grid2):
        pi, _ = tl.grid_argmax_welfare(i2_model, i2_baseline, None, grid2)
        assert np.abs(pi - np.array([1.0, 2.0])).max() <= grid2.max_step

    def test_constrained_lands_near_ramsey_price(self, i2_model, i2_baseline, grid2):
        pi, _ = tl.grid_argmax_welfare(
            i2_model, i2_baseline, tl.RsConstraint(24.0, 0.03), grid2
        )
        assert np.abs(pi - np.array([2.75, 4.5])).max() <= grid2.max_step

    def test_infinite_band_reduces_to_unconstrained(self, i2_model, i2_baseline, grid2):
        free_pi, free_val = tl.grid_argmax_welfare(i2_model, i2_baseline, None, grid2)
        band_pi, band_val = tl.grid_argmax_welfare(
            i2_model, i2_baseline, tl.RsConstraint(24.0, np.inf), grid2
        )
        np.testing.assert_array_equal(free_pi, band_pi)
        assert free_val == band_val

    def test_empty_feasible_set(self, i2_model, i2_baseline, grid2):
        # max margin on I2 is 32; a hair band around 100 holds nothing
        with pytest.raises(tl.EmptyFeasibleSet):
            tl.grid_argmax_welfare(
                i2_model, i2_baseline, tl.RsConstraint(100.0, 0.01), grid2
            )

    def test_flat_restriction_stays_on_diagonal(self, i2_model, i2_baseline, grid2):
        pi, _ = tl.grid_argmax_welfare(
            i2_model, i2_baseline, tl.RsConstraint(24.0, 0.06), grid2, flat=True
        )
        assert pi[0] == pi[1]

    def test_lexicographic_tie_breaking(self, i2_baseline):
        # a model symmetric in the two periods: ties resolve to the smaller
        # first coordinate
        ss = tl.ScenarioSet(lams=[[1.0, 1.0]], omegas=[[10.0, 10.0]])
        model = tl.LinearDemandModel(G=np.eye(2), scenarios=ss, customers=1)
        base = tl.Tariff(connection_charge=0.0, prices=[2.0, 2.0],
                         family="adjusted-flat")
        grid = tl.GridSpec.cube(0.0, 10.0, 5, dims=2)  # coarse: ties guaranteed
        pi, _ = tl.grid_argmax_welfare(model, base, tl.RsConstraint(12.5, 100.0), grid)
        mirrored = pi[::-1]
        # the mirror image has the same objective; argmax must not be the
        # lexicographically larger of the two
        assert tuple(pi) <= tuple(mirrored)

    def test_grid_dimension_must_match_model(self, i2_model, i2_baseline):
        with pytest.raises(ValueError, match="axes"):
            tl.grid_argmax_welfare(
                i2_model, i2_baseline, None, tl.GridSpec.cube(0.0, 1.0, 10, dims=1)
            )

    def test_value_agrees_with_welfare_gains(self, i2_model, i2_baseline, grid2):
        # the oracle's own welfare arithmetic must match the core model's
        pi, val = tl.grid_argmax_welfare(i2_model, i2_baseline, None, grid2)
        tariff = tl.Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
        report = tl.welfare_gains(i2_model, tariff, i2_baseline)
        assert val == pytest.approx(report.delta_sw, rel=1e-12, abs=1e-12)


def _random_case(dims: int, steps: int):
    model = random_linear_model(7, periods=dims)
    base = tl.Tariff(connection_charge=0.0,
                     prices=1.2 * model.scenarios.lambda_bar,
                     family="two-part-optimal")
    pim = tl.monopoly_price(model)
    return model, base, tl.GridSpec.cube(0.0, 1.25 * float(pim.max()), steps, dims=dims)


def _first_brute_force_argmax(model, baseline, grid, mu):
    """delta_sw + mu * phi_bar at every grid point, lexicographic order; the
    first point within rounding of the maximum, and the maximum."""
    points = list(itertools.product(*(grid.axis_points(i) for i in range(model.periods))))
    values = []
    for pi in points:
        tariff = tl.Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
        values.append(tl.welfare_gains(model, tariff, baseline).delta_sw
                      + mu * tl.phi_bar(model, np.array(pi)))
    top = max(values)
    tie = 1e-12 * max(1.0, abs(top))
    first = next(pi for pi, v in zip(points, values) if v >= top - tie)
    return np.array(first), top


class TestLagrangianPass:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_zero_multiplier_is_the_unconstrained_argmax(self, dims):
        model, base, grid = _random_case(dims, 25)
        ((got_pi, got_val),) = _grid_argmax_lagrangian(model, base, grid, (0.0,))
        want_pi, want_val = tl.grid_argmax_welfare(model, base, None, grid)
        np.testing.assert_array_equal(got_pi, want_pi)
        assert got_val == want_val

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("mu", [0.2071, 1.0, 4.0])
    def test_matches_brute_force(self, dims, mu):
        model, base, grid = _random_case(dims, 9)
        (_, (pi, val)) = _grid_argmax_lagrangian(model, base, grid, (0.0, mu))
        want_pi, want_val = _first_brute_force_argmax(model, base, grid, mu)
        np.testing.assert_array_equal(pi, want_pi)
        assert val == pytest.approx(want_val, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_exact_ties_go_to_the_lexicographically_first_point(self, dims):
        # per period, up to a constant, -p^2/2 + p + mu (p - 1)(10 - p) peaks
        # at p = 4 for mu = 1; grid points 3 and 5 tie exactly, so 2**dims
        # points do
        ss = tl.ScenarioSet(lams=[[1.0] * dims], omegas=[[10.0] * dims])
        model = tl.LinearDemandModel(G=np.eye(dims), scenarios=ss, customers=1)
        base = tl.Tariff(connection_charge=0.0, prices=[2.0] * dims,
                         family="adjusted-flat")
        grid = tl.GridSpec.cube(1.0, 5.0, 3, dims=dims)
        (_, (pi, val)) = _grid_argmax_lagrangian(model, base, grid, (0.0, 1.0))
        want_pi, want_val = _first_brute_force_argmax(model, base, grid, 1.0)
        np.testing.assert_array_equal(pi, [3.0] * dims)
        np.testing.assert_array_equal(pi, want_pi)
        assert val == want_val


class TestSettleScenarios:
    def test_zero_spread_margin_is_fixed_revenue(self):
        ss = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[10.0, 8.0]])
        model = tl.LinearDemandModel(
            G=[[2.0, -0.5], [-0.5, 1.0]], scenarios=ss, customers=1
        )
        tariff = tl.Tariff(connection_charge=7.0, prices=[1.0, 2.0],
                           family="two-part-optimal")
        ledger = tl.settle_scenarios(model, tariff)
        assert ledger.mean_margin == pytest.approx(7.0, abs=1e-12)

    def test_i2cov_margin_at_cost(self, i2cov_model):
        tariff = tl.Tariff(connection_charge=0.0, prices=[1.0, 2.0],
                           family="linear-optimal")
        ledger = tl.settle_scenarios(i2cov_model, tariff)
        assert ledger.mean_margin == pytest.approx(-1.0, abs=1e-12)

    def test_fixed_charge_scales_with_customers(self, i2_model):
        model = tl.LinearDemandModel(
            G=i2_model.G, scenarios=i2_model.scenarios, customers=3
        )
        tariff = tl.Tariff(connection_charge=5.0, prices=[1.0, 2.0],
                           family="two-part-optimal")
        ledger = tl.settle_scenarios(model, tariff)
        assert ledger.mean_margin == pytest.approx(15.0, abs=1e-12)

    def test_ledger_columns(self, i2cov_model):
        tariff = tl.Tariff(connection_charge=2.0, prices=[2.0, 3.0],
                           family="two-part-optimal")
        ledger = tl.settle_scenarios(i2cov_model, tariff)
        assert ledger.demand.shape == (2, 2)
        for j in range(2):
            d = i2cov_model.demand([2.0, 3.0], j)
            np.testing.assert_allclose(ledger.demand[j], d)
            assert ledger.revenue[j] == pytest.approx(2.0 + float(np.dot([2, 3], d)))
            lam = i2cov_model.scenarios.lams[j]
            assert ledger.wholesale_cost[j] == pytest.approx(float(lam @ d))
        assert ledger.mean_margin == pytest.approx(
            tl.phi_bar(i2cov_model, [2.0, 3.0]) + 2.0, rel=1e-12
        )


# random N = 2 instances on which the banded grid search false-FAILed
BAND_FALSE_FAIL_SEEDS = (12, 18, 47, 48, 55)


def _reference_case(seed: int):
    model = random_linear_model(seed, periods=2)
    # the reference baseline `check` uses for a model file without one
    base = tl.Tariff(connection_charge=0.0,
                     prices=1.25 * model.scenarios.lambda_bar + 0.01,
                     family="two-part-optimal")
    pim = tl.monopoly_price(model, verify=False)
    step = max(1.25 * float(pim.max()), 1.0) / 399
    return model, base, step


def _linear_halves(result) -> tuple[float, float]:
    """(grid gap in steps, settlement residual as a share of its tolerance)."""
    match = re.search(r"gap (\S+) steps .* by (\S+) of tolerance", result.detail)
    return float(match.group(1)), float(match.group(2))


class TestCheckOracles:
    @pytest.mark.parametrize("seed", BAND_FALSE_FAIL_SEEDS)
    def test_certificate_passes_where_bands_failed(self, seed):
        model, base, _ = _reference_case(seed)
        two_part, linear = checks.check_oracles(model, base)
        assert two_part.status == "PASS", two_part.detail
        assert linear.status == "PASS", linear.detail

    def test_skips_above_three_periods(self):
        model = random_linear_model(0, periods=4)
        base = tl.Tariff(connection_charge=0.0, prices=model.scenarios.lambda_bar,
                         family="two-part-optimal")
        assert [r.status for r in checks.check_oracles(model, base)] == ["SKIP"] * 2

    @pytest.mark.parametrize("seed", BAND_FALSE_FAIL_SEEDS)
    def test_price_off_by_1e_6_fails_settlement_only(self, seed, monkeypatch):
        model, base, _ = _reference_case(seed)

        def solve(m, F):
            sol = tl.solve_linear(m, F)
            return dataclasses.replace(sol, prices=sol.prices * (1 + 1e-6))

        monkeypatch.setattr(checks, "solve_linear", solve)
        _, linear = checks.check_oracles(model, base)
        steps, share = _linear_halves(linear)
        assert linear.status == "FAIL"
        assert steps <= 1.0 and share > 1.0

    @pytest.mark.parametrize("seed", BAND_FALSE_FAIL_SEEDS)
    def test_price_for_the_wrong_target_fails_settlement_only(self, seed, monkeypatch):
        model, base, _ = _reference_case(seed)
        monkeypatch.setattr(
            checks, "solve_linear", lambda m, F: tl.solve_linear(m, F * (1 + 1e-6))
        )
        _, linear = checks.check_oracles(model, base)
        steps, share = _linear_halves(linear)
        assert linear.status == "FAIL"
        assert steps <= 1.0 and share > 1.0

    @pytest.mark.parametrize("seed", BAND_FALSE_FAIL_SEEDS)
    def test_price_two_steps_off_fails_the_grid(self, seed, monkeypatch):
        model, base, step = _reference_case(seed)

        def solve(m, F):
            sol = tl.solve_linear(m, F)
            prices = sol.prices.copy()
            prices[0] += 2 * step
            return dataclasses.replace(sol, prices=prices)

        monkeypatch.setattr(checks, "solve_linear", solve)
        _, linear = checks.check_oracles(model, base)
        steps, _ = _linear_halves(linear)
        assert linear.status == "FAIL"
        assert steps > 1.0

    @pytest.mark.parametrize("seed", BAND_FALSE_FAIL_SEEDS)
    def test_two_part_price_two_steps_off_fails(self, seed, monkeypatch):
        model, base, step = _reference_case(seed)

        def solve(m, F):
            tariff = tl.solve_two_part(m, F)
            prices = tariff.prices.copy()
            prices[0] += 2 * step
            return dataclasses.replace(tariff, prices=prices)

        monkeypatch.setattr(checks, "solve_two_part", solve)
        two_part, linear = checks.check_oracles(model, base)
        assert two_part.status == "FAIL"
        assert linear.status == "PASS"
