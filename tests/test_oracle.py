"""Grid-search and settlement oracle behavior."""

import numpy as np
import pytest

import tarifflab as tl


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


    @pytest.mark.parametrize("dims", [2, 3])
    def test_bands_match_single_band_calls(self, dims):
        from conftest import random_linear_model
        from tarifflab.oracle import grid_argmax_welfare_bands

        model = random_linear_model(7, periods=dims)
        base = tl.Tariff(connection_charge=0.0,
                         prices=1.2 * model.scenarios.lambda_bar,
                         family="two-part-optimal")
        pim = tl.monopoly_price(model)
        grid = tl.GridSpec.cube(0.0, 1.25 * float(pim.max()), 25, dims=dims)
        target = 0.5 * (tl.phi_bar(model, model.scenarios.lambda_bar)
                        + tl.phi_bar(model, pim))
        # a band too narrow to hold a point, a ladder, and no band at all
        bands = [1e-12, 0.01 * target, 0.05 * target, 0.2 * target, None]
        results = grid_argmax_welfare_bands(model, base, target, bands, grid)
        assert len(results) == len(bands)
        assert results[0] is None
        for band, got in zip(bands, results):
            constraint = None if band is None else tl.RsConstraint(target, band)
            try:
                want = tl.grid_argmax_welfare(model, base, constraint, grid)
            except tl.EmptyFeasibleSet:
                assert got is None
                continue
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


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
