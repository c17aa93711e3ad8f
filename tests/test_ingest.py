"""CSV parsing, moment estimation, calibration, and model-file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tarifflab as tl
from tarifflab.ingest import (
    _fmt_vector,
    _parse_dense,
    _parse_rows,
    fit_provenance,
    model_payload_text,
    toeplitz_kernel,
)


def write_csv(path, rows, header="day,hour,value"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


@pytest.fixture
def two_day_files(tmp_path):
    load = write_csv(
        tmp_path / "load.csv",
        ["0,0,10.0", "0,1,8.0", "1,0,12.0", "1,1,6.0"],
    )
    prices = write_csv(
        tmp_path / "prices.csv",
        ["0,0,1.0", "0,1,2.0", "1,0,3.0", "1,1,4.0"],
    )
    return load, prices


class TestParseCsv:
    def test_happy_path(self, two_day_files):
        load, _ = two_day_files
        series = tl.parse_csv(load, "load")
        assert series.days == 2
        assert series.periods == 2
        np.testing.assert_allclose(series.values, [[10.0, 8.0], [12.0, 6.0]])

    def test_missing_hour(self, tmp_path):
        path = write_csv(
            tmp_path / "x.csv", ["0,0,1.0", "0,1,2.0", "1,0,3.0"]
        )
        with pytest.raises(tl.MissingHour) as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.day == 1
        assert exc_info.value.hour == 1

    def test_huge_hour_label_is_missing_hour(self, tmp_path):
        # found before a 1 x 10**14 block is allocated
        path = write_csv(tmp_path / "x.csv", ["0,0,1.0", "0,100000000000000,2.0"])
        with pytest.raises(tl.MissingHour) as exc_info:
            tl.parse_csv(path, "load")
        assert (exc_info.value.day, exc_info.value.hour) == (0, 1)

    def test_non_finite_value(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,NaN", "0,1,2.0"])
        with pytest.raises(tl.NonFiniteValue) as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 2

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,1.0"], header="d,h,v")
        with pytest.raises(tl.MalformedRow) as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 1

    def test_wrong_field_count(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,1.0,9"])
        with pytest.raises(tl.MalformedRow) as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 2

    def test_non_numeric_value(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,abc"])
        with pytest.raises(tl.MalformedRow):
            tl.parse_csv(path, "load")

    def test_negative_load_rejected(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,-1.0", "0,1,2.0"])
        with pytest.raises(tl.MalformedRow, match="nonnegative"):
            tl.parse_csv(path, "load")

    def test_negative_price_allowed_at_parse(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,-1.0", "0,1,2.0"])
        series = tl.parse_csv(path, "price")
        assert series.values[0, 0] == -1.0

    def test_duplicate_cell(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0,0,1.0", "0,0,2.0", "0,1,3.0"])
        with pytest.raises(tl.MalformedRow, match="duplicate") as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 3

    def test_days_reindexed_densely(self, tmp_path):
        path = write_csv(
            tmp_path / "x.csv", ["7,0,1.0", "7,1,2.0", "3,0,3.0", "3,1,4.0"]
        )
        series = tl.parse_csv(path, "load")
        assert series.day_labels == (3, 7)
        np.testing.assert_allclose(series.values[0], [3.0, 4.0])


    def test_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"day,hour,value\n0,0,1.0\n0,1,\xff2.0\n")
        with pytest.raises(tl.MalformedRow, match="not UTF-8: byte 0xff") as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 3

    def test_fast_path_takes_clean_files(self):
        from tarifflab.synthetic import bundled_dataset_paths

        for path, kind in zip(bundled_dataset_paths(), ("load", "price")):
            fast = _parse_dense(path.read_text(encoding="utf-8"), kind)
            assert fast is not None
            rows = _parse_rows(path, kind)
            assert fast.values.tobytes() == rows.values.tobytes()
            assert fast.day_labels == rows.day_labels


# one mutation away from a clean file; the whole-file parser must either
# agree with the row-by-row reader or leave the file to it
MUTATIONS = (
    "none", "shuffle", "drop", "duplicate", "crlf", "quote", "blank", "pad",
    "non-finite", "negative", "bad-label", "long-label", "no-final-newline",
)


@st.composite
def mutated_csvs(draw):
    kind = draw(st.sampled_from(["load", "price"]))
    periods = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    low = 0.0 if kind == "load" else -1e6
    rows = []
    for day in labels:
        for hour in range(periods):
            x = draw(st.floats(low, 1e6, allow_nan=False))
            value = draw(st.sampled_from(
                [repr(x), f"{x:.3E}", f"{x:g}", f"+{x!r}".replace("+-", "-")]
            ))
            label = str(day).zfill(draw(st.integers(1, 4)))
            rows.append([label, str(hour), value])

    mutation = draw(st.sampled_from(MUTATIONS))
    i = draw(st.integers(0, len(rows) - 1))
    field = draw(st.integers(0, 2))
    newline, final = "\n", "\n"
    if mutation == "shuffle":
        rows = draw(st.permutations(rows))
    elif mutation == "drop":
        del rows[i]
    elif mutation == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    elif mutation == "crlf":
        newline = final = "\r\n"
    elif mutation == "quote":
        rows[i][field] = f'"{rows[i][field]}"'
    elif mutation == "blank":
        rows.insert(i, [])
    elif mutation == "pad":
        rows[i][field] = f" {rows[i][field]} "
    elif mutation == "non-finite":
        rows[i][2] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"]))
    elif mutation == "negative":
        rows[i][2] = "-" + rows[i][2].lstrip("+-")
    elif mutation == "bad-label":
        rows[i][0] = draw(st.sampled_from(["x", "1.0", "-3", "+2", "1e3", "", "\u0663"]))
    elif mutation == "long-label":
        rows[i][0] = "1" * draw(st.integers(18, 25))
    elif mutation == "no-final-newline":
        final = ""
    lines = ["day,hour,value"] + [",".join(row) for row in rows]
    return kind, newline.join(lines) + final


def _outcome(parse, path, kind):
    try:
        series = parse(path, kind)
    except tl.TariffLabError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return series.values.dtype, series.values.tobytes(), series.day_labels


@settings(max_examples=300, deadline=None)
@given(mutated_csvs())
def test_fast_path_agrees_with_row_reader(tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(tl.parse_csv, path, kind) == _outcome(_parse_rows, path, kind)


class TestEstimateMoments:
    def test_single_day_rejected(self, tmp_path):
        load = tl.parse_csv(write_csv(tmp_path / "l.csv", ["0,0,1.0", "0,1,2.0"]), "load")
        prices = tl.parse_csv(write_csv(tmp_path / "p.csv", ["0,0,1.0", "0,1,2.0"]), "price")
        with pytest.raises(tl.SingleScenario):
            tl.estimate_moments(load, prices)

    def test_negative_price_names_day_and_hour(self, tmp_path):
        load = tl.parse_csv(write_csv(
            tmp_path / "l.csv", ["4,0,1.0", "4,1,2.0", "9,0,1.0", "9,1,2.0"]
        ), "load")
        prices = tl.parse_csv(write_csv(
            tmp_path / "p.csv", ["4,0,1.0", "4,1,2.0", "9,0,1.0", "9,1,-0.5"]
        ), "price")
        with pytest.raises(tl.NegativePrice, match="day 9 hour 1") as exc_info:
            tl.estimate_moments(load, prices)
        assert (exc_info.value.day, exc_info.value.hour) == (9, 1)

    def test_identical_days_zero_covariance(self, tmp_path):
        rows = ["0,0,5.0", "0,1,6.0", "1,0,5.0", "1,1,6.0"]
        load = tl.parse_csv(write_csv(tmp_path / "l.csv", rows), "load")
        prices = tl.parse_csv(write_csv(tmp_path / "p.csv", rows), "price")
        ss = tl.estimate_moments(load, prices)
        np.testing.assert_allclose(ss.sigma_lambda_omega, 0.0, atol=0)

    def test_i2cov_day_pairs_unbiased_trace(self, tmp_path):
        load = tl.parse_csv(write_csv(
            tmp_path / "l.csv", ["0,0,11.0", "0,1,9.0", "1,0,9.0", "1,1,7.0"]
        ), "load")
        prices = tl.parse_csv(write_csv(
            tmp_path / "p.csv", ["0,0,1.5", "0,1,2.5", "1,0,0.5", "1,1,1.5"]
        ), "price")
        ss = tl.estimate_moments(load, prices)
        # population (1/J) trace is 1; the unbiased 1/(J-1) report doubles it
        assert np.trace(ss.sigma_lambda_omega) == pytest.approx(1.0, abs=1e-15)
        assert np.trace(ss.sample_cross_covariance(ddof=1)) == pytest.approx(2.0, abs=1e-15)

    def test_alignment_mismatch(self, tmp_path, two_day_files):
        load, _ = two_day_files
        prices = tl.parse_csv(
            write_csv(tmp_path / "p1.csv", ["0,0,1.0", "0,1,2.0"]), "price"
        )
        with pytest.raises(tl.AlignmentMismatch):
            tl.estimate_moments(tl.parse_csv(load, "load"), prices)

    def test_different_day_labels_rejected(self, tmp_path):
        load = tl.parse_csv(write_csv(
            tmp_path / "l.csv", ["0,0,1.0", "0,1,2.0", "1,0,1.0", "1,1,2.0"]
        ), "load")
        prices = tl.parse_csv(write_csv(
            tmp_path / "p.csv", ["0,0,1.0", "0,1,2.0", "2,0,1.0", "2,1,2.0"]
        ), "price")
        with pytest.raises(tl.AlignmentMismatch, match="different days"):
            tl.estimate_moments(load, prices)


class TestCalibrateDemand:
    def test_identity_kernel_scale(self):
        # alpha -> 0 limit: G0 = I; c = 0.2 * 15.5 / (1 * 2) = 1.55
        consumption = tl.ScenarioSet(
            lams=[[0.5, 0.5], [1.5, 1.5]], omegas=[[10.0, 7.0], [8.0, 6.0]]
        )
        config = tl.CalibrationConfig(
            flat_rate=1.0, elasticity_target=-0.2, alpha=0.0, customers=1,
            connection_charge=0.0,
        )
        model = tl.calibrate_demand(consumption, config)
        np.testing.assert_allclose(model.G, 1.55 * np.eye(2), rtol=1e-12)

    def test_zero_elasticity_target_rejected(self):
        consumption = tl.ScenarioSet(
            lams=[[0.5], [1.5]], omegas=[[10.0], [8.0]]
        )
        config = tl.CalibrationConfig(flat_rate=1.0, elasticity_target=0.0,
                                      alpha=0.2, customers=1)
        with pytest.raises(tl.ScaleNonPositive):
            tl.calibrate_demand(consumption, config)

    def test_zero_load_rejected(self):
        consumption = tl.ScenarioSet(lams=[[0.5], [1.5]], omegas=[[0.0], [0.0]])
        config = tl.CalibrationConfig(flat_rate=1.0, elasticity_target=-0.3,
                                      alpha=0.2, customers=1)
        with pytest.raises(tl.NonPositiveLoad):
            tl.calibrate_demand(consumption, config)

    def test_flat_rate_demand_reproduces_consumption_exactly(self):
        rng = np.random.default_rng(11)
        x = 5.0 + rng.random((6, 4))
        lams = rng.random((6, 4))
        consumption = tl.ScenarioSet(lams=lams, omegas=x)
        config = tl.CalibrationConfig(flat_rate=0.8, elasticity_target=-0.4,
                                      alpha=0.3, customers=2)
        model = tl.calibrate_demand(consumption, config)
        flat = np.full(4, 0.8)
        for j in range(6):
            # construction identity, exact up to the one rounding in x + shift
            np.testing.assert_allclose(model.demand(flat, j), x[j], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.8])
    def test_kernel_positive_definite(self, alpha):
        kernel = toeplitz_kernel(24, alpha)
        np.linalg.cholesky(kernel)  # raises if not PD

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.8])
    def test_elasticity_round_trip(self, alpha):
        rng = np.random.default_rng(13)
        consumption = tl.ScenarioSet(
            lams=rng.random((8, 24)) * 0.1, omegas=1000.0 + rng.random((8, 24)) * 100
        )
        config = tl.CalibrationConfig(flat_rate=0.172, elasticity_target=-0.3,
                                      alpha=alpha, customers=100)
        model = tl.calibrate_demand(consumption, config)
        realized = tl.flat_rate_elasticity(model, 0.172)
        assert realized == pytest.approx(-0.3, abs=1e-9)

    def test_deterministic_pipeline(self, two_day_files):
        load_path, prices_path = two_day_files
        config = tl.CalibrationConfig(flat_rate=1.0, elasticity_target=-0.3,
                                      alpha=0.2, customers=3, connection_charge=0.1)

        def build():
            ss = tl.estimate_moments(
                tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
            )
            return tl.calibrate_demand(ss, config)

        a, b = build(), build()
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.scenarios.omegas, b.scenarios.omegas)
        assert np.array_equal(a.scenarios.lams, b.scenarios.lams)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tl.CalibrationConfig(alpha=1.0)
        with pytest.raises(ValueError):
            tl.CalibrationConfig(flat_rate=0.0)
        with pytest.raises(ValueError):
            tl.CalibrationConfig(customers=0)


class TestRevenueBaseline:
    @pytest.fixture
    def small_model_and_config(self):
        consumption = tl.ScenarioSet(
            lams=[[0.5, 0.5], [1.5, 1.5]], omegas=[[10.0, 7.0], [8.0, 6.0]]
        )
        config = tl.CalibrationConfig(flat_rate=1.0, elasticity_target=-0.2,
                                      alpha=0.0, customers=1, connection_charge=0.0)
        return tl.calibrate_demand(consumption, config), config

    def test_zero_charge_gross_is_billed_volume(self, small_model_and_config):
        model, config = small_model_and_config
        revenue = tl.revenue_baseline(model, config)
        assert revenue.gross == pytest.approx(15.5 * 1.0, rel=1e-12)

    def test_net_subtracts_wholesale_cost(self, small_model_and_config):
        model, config = small_model_and_config
        revenue = tl.revenue_baseline(model, config)
        flat = np.full(2, config.flat_rate)
        assert revenue.net == pytest.approx(tl.phi_bar(model, flat), rel=1e-12)

    def test_zero_customers_net_is_margin(self, small_model_and_config):
        model, config = small_model_and_config
        bare = tl.LinearDemandModel(G=model.G, scenarios=model.scenarios, customers=0)
        revenue = tl.revenue_baseline(bare, config)
        assert revenue.net == pytest.approx(
            tl.phi_bar(bare, np.full(2, config.flat_rate)), rel=1e-12
        )


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path, i2cov_model):
        path = tmp_path / "model.tlm"
        config = tl.CalibrationConfig(flat_rate=1.5, elasticity_target=-0.3,
                                      alpha=0.2, customers=1, connection_charge=0.0)
        tl.write_model_file(path, i2cov_model, baseline=config,
                            provenance={"command": "test", "created": "now"})
        payload = tl.read_model_file(path)
        assert payload.periods == 2
        assert payload.customers == 1
        assert np.array_equal(payload.G, i2cov_model.G)
        assert np.array_equal(payload.lams, i2cov_model.scenarios.lams)
        assert np.array_equal(payload.omegas, i2cov_model.scenarios.omegas)
        assert payload.provenance["command"] == "test"
        model = payload.to_model()
        assert np.array_equal(model.G, i2cov_model.G)
        baseline = payload.baseline_tariff()
        assert baseline is not None
        assert baseline.connection_charge == 0.0
        assert baseline.prices[0] == 1.5

    def test_payload_excludes_provenance(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model, provenance={"created": "2020"})
        text = model_payload_text(path)
        assert "provenance" not in text
        assert text.startswith("format = tarifflab-model/1\n")

    def test_missing_key(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        lines = [
            l for l in path.read_text().splitlines() if not l.startswith("customers")
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(tl.ModelFileError, match="customers"):
            tl.read_model_file(path)

    def test_wrong_count(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        text = path.read_text().replace("periods = 2", "periods = 3")
        path.write_text(text)
        with pytest.raises(tl.ModelFileError):
            tl.read_model_file(path)

    def test_scenario_count_beyond_file(self, tmp_path, i2_model):
        # the count is not trusted for allocation: parsing stops at the first
        # scenario key the file lacks and points at the count's line
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        lines = path.read_text().splitlines()
        count_line = next(
            i for i, l in enumerate(lines, start=1) if l.startswith("scenario_count")
        )
        lines[count_line - 1] = "scenario_count = 10000000000000"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(tl.ModelFileError, match="'scenario.1.lambda' is missing") as info:
            tl.read_model_file(path)
        assert info.value.line == count_line

    def test_tampered_sigma_detected(self, tmp_path, i2cov_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2cov_model)
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            if line.startswith("sigma_lambda_omega = "):
                line = "sigma_lambda_omega = 9.0 0.5 0.5 0.5"
            out.append(line)
        path.write_text("\n".join(out) + "\n")
        with pytest.raises(tl.ModelFileError, match="sigma"):
            tl.read_model_file(path)

    def test_unsupported_format(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        text = path.read_text().replace("tarifflab-model/1", "tarifflab-model/9")
        path.write_text(text)
        with pytest.raises(tl.ModelFileError, match="format"):
            tl.read_model_file(path)

    def test_non_pd_g_loads_but_fails_to_model(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        text = path.read_text().replace(
            "g = 2.0 -0.5 -0.5 1.0", "g = 1.0 5.0 5.0 1.0"
        )
        path.write_text(text)
        payload = tl.read_model_file(path)  # structurally fine
        with pytest.raises(ValueError, match="positive definite"):
            payload.to_model()

    def test_not_utf8_names_file_and_line(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b" ", b" \xe9", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(tl.ModelFileError, match="not UTF-8: byte 0xe9") as exc_info:
            tl.read_model_file(path)
        assert exc_info.value.line == 4
        assert str(exc_info.value).startswith(f"{path}:4: ")

    def test_file_bytes_match_reference_formatter(self, tmp_path):
        # the writer's numbers are exactly what repr(float(x)) gives, x by x
        rng = np.random.default_rng(5)
        lams = np.abs(rng.normal(size=(3, 4))) * [1e-300, 1e16, 0.1, 1.0]
        omegas = rng.normal(size=(3, 4)) * [5e-324, 1e22, -0.0, 123456789.0]
        G = np.diag([1e16, 1e-5, 1.0 / 3.0, 2.0])
        scenarios = tl.ScenarioSet(lams=lams, omegas=omegas)
        model = tl.LinearDemandModel(G=G, scenarios=scenarios, customers=1)
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, model)
        stored = dict(
            line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines()
        )
        expected = {
            "g": G,
            "lambda_bar": scenarios.lambda_bar,
            "omega_bar": scenarios.omega_bar,
            "sigma_lambda_omega": scenarios.sigma_lambda_omega,
        }
        for j in range(3):
            expected[f"scenario.{j}.lambda"] = lams[j]
            expected[f"scenario.{j}.omega"] = omegas[j]
        for key, values in expected.items():
            assert stored[key] == _reference_fmt(values)

    def test_fit_provenance_digests(self, tmp_path, two_day_files):
        load, prices = two_day_files
        config = tl.CalibrationConfig()
        prov = fit_provenance(load, prices, config, created="t0")
        assert prov["load_digest"].startswith("sha256:")
        assert prov["created"] == "t0"


def _reference_fmt(v) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(v).ravel())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_vector_format_matches_reference(xs):
    assert _fmt_vector(np.array(xs, dtype=float)) == _reference_fmt(xs)
