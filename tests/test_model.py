"""Core-model examples and invariants: demand, margin, gains, elasticities."""

import dataclasses
import re

import numpy as np
import pytest

import tarifflab as tl
from tarifflab.model import checked_baseline
from conftest import G_I2


class TestScenarioSet:
    def test_moments_are_arithmetic_means(self, i2cov_model):
        ss = i2cov_model.scenarios
        np.testing.assert_allclose(ss.lambda_bar, [1.0, 2.0], rtol=0, atol=0)
        np.testing.assert_allclose(ss.omega_bar, [10.0, 8.0], rtol=0, atol=0)

    def test_population_cross_covariance(self, i2cov_model):
        # deviations are (+-0.5, +-0.5) x (+-1, +-1): every entry 0.5 with 1/J
        sigma = i2cov_model.scenarios.sigma_lambda_omega
        np.testing.assert_allclose(sigma, np.full((2, 2), 0.5), rtol=0, atol=1e-15)
        assert np.trace(sigma) == pytest.approx(1.0, abs=1e-15)

    def test_unbiased_convention_scales_by_j_over_jm1(self, i2cov_model):
        unbiased = i2cov_model.scenarios.sample_cross_covariance(ddof=1)
        np.testing.assert_allclose(unbiased, np.full((2, 2), 1.0), atol=1e-15)

    def test_moments_computed_once_and_read_only(self, i2cov_model):
        ss = i2cov_model.scenarios
        for name in ("lambda_bar", "omega_bar", "sigma_lambda_omega"):
            value = getattr(ss, name)
            assert getattr(ss, name) is value
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
        assert ss.trace_sigma == pytest.approx(1.0, abs=1e-15)
        pio = i2cov_model.satiation_price()
        assert i2cov_model.satiation_price() is pio
        with pytest.raises(ValueError, match="read-only"):
            pio[0] = 0.0

    def test_linear_phi_bar_reads_only_the_moments(self, i2cov_model):
        pi = np.array([2.0, 3.0])
        before = tl.phi_bar(i2cov_model, pi)
        # scenarios changed behind the cache's back: the closed form must not
        # go back to them
        ss = i2cov_model.scenarios
        object.__setattr__(ss, "lams", np.full_like(ss.lams, 50.0))
        object.__setattr__(ss, "omegas", np.full_like(ss.omegas, -50.0))
        assert tl.phi_bar(i2cov_model, pi) == before

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tl.ScenarioSet(lams=[[-0.1, 1.0]], omegas=[[1.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[1.0, 2.0, 3.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tl.ScenarioSet(lams=np.empty((0, 2)), omegas=np.empty((0, 2)))


class TestLinearDemandModel:
    def test_rejects_asymmetric_g(self, i2_model):
        with pytest.raises(ValueError, match="symmetric"):
            tl.LinearDemandModel(
                G=[[2.0, -0.5], [-0.4, 1.0]], scenarios=i2_model.scenarios
            )

    def test_rejects_non_positive_definite_g(self, i2_model):
        with pytest.raises(ValueError, match="positive definite"):
            tl.LinearDemandModel(
                G=[[1.0, 2.0], [2.0, 1.0]], scenarios=i2_model.scenarios
            )

    def test_demand_per_scenario(self, i2cov_model):
        d0 = i2cov_model.demand([1.0, 2.0], 0)
        np.testing.assert_allclose(d0, [11.0 - 1.0, 9.0 - 1.5])


class TestExpectedDemand:
    def test_i2_example(self, i2_model):
        np.testing.assert_allclose(
            tl.expected_demand(i2_model, [1.0, 2.0]), [9.0, 6.5], atol=0
        )

    def test_zero_price_gives_omega_bar(self, i2_model):
        np.testing.assert_allclose(
            tl.expected_demand(i2_model, [0.0, 0.0]), [10.0, 8.0], atol=0
        )

    def test_satiation_price_zeroes_demand(self, i2_model):
        pio = i2_model.satiation_price()
        np.testing.assert_allclose(pio, [8.0, 12.0], atol=1e-12)
        np.testing.assert_allclose(
            tl.expected_demand(i2_model, pio), [0.0, 0.0], atol=1e-12
        )

    def test_dimension_mismatch(self, i2_model):
        with pytest.raises(tl.DimensionMismatch):
            tl.expected_demand(i2_model, [1.0, 2.0, 3.0])


class TestPhiBar:
    def test_zero_margin_at_cost(self, i2_model):
        assert tl.phi_bar(i2_model, [1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)

    def test_monopoly_point_value(self, i2_model):
        # hand expansion (3.5, 5) . (4.5, 3.25) = 32
        assert tl.phi_bar(i2_model, [4.5, 7.0]) == pytest.approx(32.0, abs=1e-12)

    def test_covariance_term_at_cost(self, i2cov_model):
        # zero spread leaves only -tr cov = -1
        assert tl.phi_bar(i2cov_model, [1.0, 2.0]) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("pi", [[4.5, 7.0], [1.0, 2.0], [2.75, 4.5], [0.3, 9.0]])
    def test_matches_settlement_average(self, i2cov_model, pi):
        tariff = tl.Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
        settled = tl.settle_scenarios(i2cov_model, tariff).mean_margin
        analytic = tl.phi_bar(i2cov_model, pi)
        assert settled == pytest.approx(analytic, rel=1e-10, abs=1e-10)


class TestWelfareGains:
    def test_identity_tariff_all_zero(self, i2_model, i2_baseline):
        report = tl.welfare_gains(i2_model, i2_baseline, i2_baseline)
        assert report.delta_cs == 0.0
        assert report.delta_rs == 0.0
        assert report.delta_sw == 0.0

    def test_lump_sum_transfer(self, i2_model, i2_baseline):
        shifted = tl.Tariff(
            connection_charge=24.0, prices=[1.0, 2.0], family="two-part-optimal"
        )
        report = tl.welfare_gains(i2_model, shifted, i2_baseline)
        assert report.delta_cs == pytest.approx(-24.0, abs=1e-12)
        assert report.delta_rs == pytest.approx(24.0, abs=1e-12)
        assert report.delta_sw == pytest.approx(0.0, abs=1e-12)

    def test_ramsey_price_gains(self, i2_model, i2_baseline):
        # phi(pi-dagger) = 128 s (1-s) = 24 at s = 1/4; quadratic welfare loss
        # -(1/2) s^2 d'Gd = -4
        ramsey = tl.Tariff(
            connection_charge=0.0, prices=[2.75, 4.5], family="linear-optimal"
        )
        report = tl.welfare_gains(i2_model, ramsey, i2_baseline)
        assert report.delta_rs == pytest.approx(24.0, abs=1e-12)
        assert report.delta_sw == pytest.approx(-4.0, abs=1e-12)
        assert report.delta_cs == pytest.approx(-28.0, abs=1e-12)
        assert report.delta_sw < 0

    def test_sw_independent_of_connection_charge(self, i2_model, i2_baseline):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pi = rng.uniform(0.0, 6.0, size=2)
            a = float(rng.uniform(-5.0, 5.0))
            da = float(rng.uniform(-3.0, 3.0))
            t1 = tl.Tariff(connection_charge=a, prices=pi, family="two-part-optimal")
            t2 = tl.Tariff(connection_charge=a + da, prices=pi, family="two-part-optimal")
            r1 = tl.welfare_gains(i2_model, t1, i2_baseline)
            r2 = tl.welfare_gains(i2_model, t2, i2_baseline)
            M = i2_model.customers
            assert r2.delta_cs - r1.delta_cs == pytest.approx(-M * da, abs=1e-12)
            assert r2.delta_rs - r1.delta_rs == pytest.approx(M * da, abs=1e-12)
            assert r2.delta_sw == pytest.approx(r1.delta_sw, abs=1e-9)

    def test_rs_absolute_reported(self, i2_model, i2_baseline):
        tariff = tl.Tariff(
            connection_charge=3.0, prices=[2.75, 4.5], family="two-part-optimal"
        )
        report = tl.welfare_gains(i2_model, tariff, i2_baseline)
        assert report.rs_absolute == pytest.approx(27.0, abs=1e-12)


class TestElasticityMatrix:
    def test_i2_diagonal_example(self, i2_model):
        eps = tl.elasticity_matrix(i2_model, [1.0, 2.0])
        assert eps[0, 0] == pytest.approx(-2.0 / 9.0, rel=1e-12)
        assert eps[1, 1] == pytest.approx(-2.0 / 6.5, rel=1e-12)

    def test_matches_log_demand_finite_difference(self, i2_model):
        # independent oracle: eps_kt ~ dln E[D_k] / dln pi_t by central FD
        pi = np.array([1.0, 2.0])
        eps = tl.elasticity_matrix(i2_model, pi)
        for t in range(2):
            h = 1e-6 * pi[t]
            up, dn = pi.copy(), pi.copy()
            up[t] += h
            dn[t] -= h
            dup = np.log(tl.expected_demand(i2_model, up))
            ddn = np.log(tl.expected_demand(i2_model, dn))
            fd = (dup - ddn) / (2 * h) * pi[t]
            np.testing.assert_allclose(eps[:, t], fd, rtol=1e-6)

    def test_diagonal_g_has_no_cross_terms(self, i2_model):
        model = tl.LinearDemandModel(
            G=np.diag([2.0, 1.0]), scenarios=i2_model.scenarios
        )
        eps = tl.elasticity_matrix(model, [1.0, 2.0])
        assert eps[0, 1] == 0.0
        assert eps[1, 0] == 0.0

    def test_definitional_homogeneity_in_price(self, i2_model):
        # eps[k, t] * E[D_k] / pi_t recovers the Jacobian entry, so column t
        # scales with pi_t whenever demand is held fixed
        rng = np.random.default_rng(3)
        for _ in range(5):
            pi = rng.uniform(0.5, 3.0, size=2)
            eps = tl.elasticity_matrix(i2_model, pi)
            dbar = tl.expected_demand(i2_model, pi)
            recovered = eps * dbar[:, None] / pi[None, :]
            np.testing.assert_allclose(recovered, -G_I2, rtol=1e-12)

    def test_zero_expected_demand_raises(self, i2_model):
        with pytest.raises(tl.ZeroExpectedDemand):
            tl.elasticity_matrix(i2_model, i2_model.satiation_price())


class TestGenericDemandModel:
    def test_phi_bar_falls_back_to_settlement_mean(self):
        from conftest import StochasticSlopeDemand

        scenarios = tl.ScenarioSet(lams=[[1.0], [2.0]], omegas=[[10.0], [12.0]])
        model = StochasticSlopeDemand([[[1.0]], [[3.0]]], scenarios)
        pi = np.array([2.5])
        tariff = tl.Tariff(connection_charge=0.0, prices=pi, family="two-part-optimal")
        assert tl.phi_bar(model, pi) == pytest.approx(
            tl.settle_scenarios(model, tariff).mean_margin, rel=1e-12
        )

    def test_welfare_gains_requires_linear_model(self, i2_baseline):
        from conftest import StochasticSlopeDemand

        scenarios = tl.ScenarioSet(lams=[[1.0, 2.0]], omegas=[[10.0, 8.0]])
        model = StochasticSlopeDemand([np.eye(2)], scenarios)
        with pytest.raises(TypeError, match="linear"):
            tl.welfare_gains(model, i2_baseline, i2_baseline)

    def test_default_jacobian_is_finite_difference(self):
        from conftest import CubicDemand

        scenarios = tl.ScenarioSet(lams=[[1.0]], omegas=[[10.0]])
        model = CubicDemand(scenarios, slope=1.0, cubic=0.05)
        jac = model.demand_jacobian(np.array([2.0]), 0)
        assert jac[0, 0] == pytest.approx(-(1.0 + 0.15 * 4.0), rel=1e-8)


class TestTariffInvariants:
    def test_flat_family_requires_flat_prices(self):
        with pytest.raises(ValueError, match="flat"):
            tl.Tariff(connection_charge=0.0, prices=[1.0, 2.0], family="flat-linear")

    def test_linear_families_require_zero_charge(self):
        with pytest.raises(ValueError, match="connection charge"):
            tl.Tariff(connection_charge=1.0, prices=[1.0, 1.0], family="flat-linear")
        with pytest.raises(ValueError, match="connection charge"):
            tl.Tariff(connection_charge=1.0, prices=[1.0, 2.0], family="linear-optimal")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            tl.Tariff(connection_charge=0.0, prices=[1.0], family="three-part")

    def test_non_finite_prices_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            tl.Tariff(connection_charge=0.0, prices=[np.inf, 1.0])


class TestWelfareReportInvariant:
    def test_inconsistent_sum_rejected(self):
        with pytest.raises(ValueError, match="delta_sw"):
            tl.WelfareReport(
                delta_cs=1.0, delta_rs=1.0, delta_sw=3.0, rs_absolute=0.0,
            )

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError, match="delta_sw"):
            tl.WelfareReport(np.nan, 0.0, np.nan, 0.0)


class TestCheckedBaseline:
    def test_finite_baseline_is_returned(self, i2_model, i2_baseline):
        assert checked_baseline(i2_model, i2_baseline) is i2_baseline

    @pytest.mark.parametrize("charge, rate, term", [
        (1e308, 1.5, "revenue inf"),
        (0.0, 1e200, "revenue -inf"),
    ])
    def test_non_finite_terms_are_refused(self, i2_model, charge, rate, term):
        model = dataclasses.replace(i2_model, customers=10)
        baseline = tl.Tariff(connection_charge=charge, prices=[rate, rate],
                             family="adjusted-flat")
        message = (f"the baseline tariff's {term} is not finite (flat rate {rate!r}, "
                   f"connection charge {charge!r}, 10 customers)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked_baseline(model, baseline)
