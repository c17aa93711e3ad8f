"""Sweep assembly, front geometry, and slope diagnostics."""

import dataclasses

import numpy as np
import pytest

import tarifflab as tl
from tarifflab.pareto import FAMILIES
from tarifflab.synthetic import write_synthetic_csvs

# a flat baseline for the families that solve from its charge and rate
FLAT_BASELINE = tl.Tariff(connection_charge=2.0, prices=[1.5, 1.5], family="adjusted-flat")


class TestSweep:
    def test_two_part_front_is_transfer_line(self, i2_model, i2_baseline):
        grid = [0.0, 8.0, 16.0, 24.0, 32.0]
        (front,) = tl.sweep(i2_model, i2_baseline, {"two-part-optimal"}, grid)
        assert front.family == "two-part-optimal"
        assert len(front.points) == 5
        sws = [p.delta_sw for p in front.points]
        assert max(sws) - min(sws) <= 1e-9
        # iso-efficiency: the consumer gain falls one-for-one with the target
        for p in front.points:
            assert p.delta_cs == pytest.approx(p.delta_sw - (p.F - front.baseline_rs),
                                               abs=1e-9)

    def test_linear_front_endpoint_and_infeasible_marker(self, i2_model, i2_baseline):
        (front,) = tl.sweep(
            i2_model, i2_baseline, {"linear-optimal"}, [24.0, 32.0, 32.5]
        )
        feasible = [p.feasible for p in front.points]
        assert feasible == [True, True, False]
        np.testing.assert_allclose(front.points[1].tariff.prices, [4.5, 7.0], atol=1e-6)
        marker = front.points[2]
        assert marker.tariff is None
        assert np.isnan(marker.delta_cs) and np.isnan(marker.delta_sw)
        assert marker.F == 32.5  # retained in-band, not dropped

    def test_empty_families_empty_output(self, i2_model, i2_baseline):
        assert tl.sweep(i2_model, i2_baseline, set(), [0.0, 1.0]) == []

    def test_unknown_family_rejected(self, i2_model, i2_baseline):
        with pytest.raises(ValueError, match="unknown families"):
            tl.sweep(i2_model, i2_baseline, {"three-part"}, [0.0])

    def test_points_sorted_by_target(self, i2_model, i2_baseline):
        (front,) = tl.sweep(
            i2_model, i2_baseline, {"two-part-optimal"}, [16.0, 0.0, 8.0]
        )
        assert [p.F for p in front.points] == [0.0, 8.0, 16.0]

    def test_delta_rs_equals_target_minus_baseline_rs(self, i2_model):
        fronts = tl.sweep(
            i2_model, FLAT_BASELINE,
            set(tl.TARIFF_FAMILIES), np.linspace(0.0, 30.0, 7),
        )
        for front in fronts:
            for p in front.feasible_points:
                tol = 1e-8 * max(1.0, abs(p.F))
                assert abs(p.delta_rs - (p.F - front.baseline_rs)) <= tol

    def test_reevaluation_reproduces_points_bit_for_bit(self, i2_model, i2_baseline):
        fronts = tl.sweep(
            i2_model, i2_baseline, {"linear-optimal", "two-part-optimal"},
            np.linspace(0.0, 30.0, 7),
        )
        for front in fronts:
            for p in front.feasible_points:
                again = tl.welfare_gains(i2_model, p.tariff, i2_baseline)
                assert again.delta_cs == p.delta_cs
                assert again.delta_rs == p.delta_rs
                assert again.delta_sw == p.delta_sw

    def test_family_table_matches_tariff_families(self):
        assert tuple(FAMILIES) == tl.TARIFF_FAMILIES
        assert all(name == f.name for name, f in FAMILIES.items())

    def test_sweep_at_stalling_seed(self, tmp_path):
        # on this seed one adjusted-flat target leaves the rate a residual of
        # -59 $/cycle, whose revenue band is only 5.9e-7 $/cycle wide; the
        # rate bisection used to stop at its s_tol width outside that band
        # and abort the whole sweep
        load_path, prices_path = write_synthetic_csvs(tmp_path, 92, 24, 58)
        scenarios = tl.estimate_moments(
            tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
        )
        config = tl.CalibrationConfig()
        model = tl.calibrate_demand(scenarios, config)
        baseline = tl.baseline_tariff(model, config)
        fronts = tl.sweep(
            model, baseline, tl.TARIFF_FAMILIES, tl.default_revenue_grid(model)
        )
        (adjusted,) = [f for f in fronts if f.family == "adjusted-flat"]
        assert len(adjusted.feasible_points) > 1
        for front in fronts:
            for p in front.feasible_points:
                tol = 1e-8 * max(1.0, abs(p.F))
                assert abs(p.delta_rs - (p.F - front.baseline_rs)) <= tol

    def test_negative_prices_warn_with_the_solver_context(self, i2_model):
        with pytest.warns(tl.PriceSignWarning) as record:
            fronts = tl.sweep(
                i2_model, FLAT_BASELINE, {"flat-linear", "adjusted-flat"}, [-40.0],
            )
        assert all(p.tariff.prices[0] < 0 for f in fronts for p in f.points)
        assert [str(w.message) for w in record] == [
            "flat linear tariff: price vector has negative entries",
            "adjusted flat tariff: price vector has negative entries",
        ]

    def test_adjusted_flat_needs_flat_baseline(self, i2_model, i2_baseline):
        with pytest.raises(ValueError, match="flat baseline"):
            tl.sweep(i2_model, i2_baseline, {"adjusted-flat"}, [1.0])

    @pytest.mark.filterwarnings("ignore::tarifflab.errors.PriceSignWarning")
    @pytest.mark.parametrize("name", ["i2_model", "i2cov_model", "bundled_model"])
    def test_rows_bit_equal_solves_on_a_fresh_model(self, request, name):
        # the sweep reads one range per model; each row must be what the
        # family's solve gives on an instance that has computed nothing yet
        model = request.getfixturevalue(name)
        baseline = FLAT_BASELINE
        if name == "bundled_model":
            baseline = tl.baseline_tariff(model, tl.CalibrationConfig())
        grid = tl.default_revenue_grid(model)
        grid = np.append(grid, [grid[0] - 1.0, 1.5 * grid[-1] + 1.0])
        for front in tl.sweep(model, baseline, tl.TARIFF_FAMILIES, grid):
            for point in front.points:
                fresh = dataclasses.replace(model)
                try:
                    tariff, _ = FAMILIES[front.family].solve(fresh, point.F, baseline)
                except (tl.InfeasibleTarget, tl.InvalidRegime):
                    assert not point.feasible
                    continue
                report = tl.welfare_gains(fresh, tariff, baseline)
                assert np.array_equal(point.tariff.prices, tariff.prices)
                assert point.tariff.connection_charge == tariff.connection_charge
                assert (point.delta_cs, point.delta_rs, point.delta_sw) == (
                    report.delta_cs, report.delta_rs, report.delta_sw
                )

    def test_default_grid_spans_feasible_range(self, i2_model):
        grid = tl.default_revenue_grid(i2_model)
        assert len(grid) == 41
        assert grid[0] == pytest.approx(0.0, abs=1e-12)
        assert grid[-1] == pytest.approx(32.0, abs=1e-9)


class TestFrontSlopeReport:
    def test_two_part_slopes_are_minus_one(self, i2_model, i2_baseline):
        (front,) = tl.sweep(
            i2_model, i2_baseline, {"two-part-optimal"}, np.linspace(0.0, 32.0, 9)
        )
        rows = tl.front_slope_report(front)
        assert len(rows) == 8
        for row in rows:
            assert row.slope == pytest.approx(-1.0, abs=1e-9)
        for row in rows[1:]:
            assert row.second_difference == pytest.approx(0.0, abs=1e-9)

    def test_linear_front_flattens_toward_monopoly(self, i2_model, i2_baseline):
        (front,) = tl.sweep(
            i2_model, i2_baseline, {"linear-optimal"}, np.linspace(0.0, 32.0, 17)
        )
        rows = tl.front_slope_report(front)
        slopes = np.array([r.slope for r in rows])
        # tangent slope is -1/gamma, in [-1, 0): chords stay in that range and
        # flatten monotonically as the target approaches the monopoly margin
        assert (slopes >= -1.0 - 1e-9).all()
        assert (slopes < 0.0).all()
        assert (np.diff(slopes) >= -1e-9).all()

    def test_linear_chord_matches_envelope_gamma(self, i2_model, i2_baseline):
        grid = np.linspace(8.0, 24.0, 9)
        (front,) = tl.sweep(i2_model, i2_baseline, {"linear-optimal"}, grid)
        rows = tl.front_slope_report(front)
        for row, (a, b) in zip(rows, zip(grid, grid[1:])):
            gamma_mid = tl.solve_linear(i2_model, 0.5 * (a + b)).gamma
            assert row.slope == pytest.approx(-1.0 / gamma_mid, abs=5e-3)

    def test_too_few_points(self, i2_model, i2_baseline):
        (front,) = tl.sweep(i2_model, i2_baseline, {"linear-optimal"}, [0.0, 16.0])
        with pytest.raises(tl.TooFewPoints):
            tl.front_slope_report(front)


class TestFrontGeometry:
    def test_linear_touches_two_part_at_efficient_target_then_falls_below(
        self, i2_model, i2_baseline
    ):
        grid = np.linspace(0.0, 32.0, 9)
        fronts = tl.sweep(
            i2_model, i2_baseline, {"two-part-optimal", "linear-optimal"}, grid
        )
        by_family = {f.family: f for f in fronts}
        two_part = by_family["two-part-optimal"].points
        linear = by_family["linear-optimal"].points
        assert linear[0].delta_sw == pytest.approx(two_part[0].delta_sw, abs=1e-8)
        for tp, ln in zip(two_part[1:], linear[1:]):
            assert ln.delta_sw < tp.delta_sw - 1e-6
            assert ln.delta_cs < tp.delta_cs - 1e-6
