"""CSV parsing, moment estimation, calibration, and model-file round trips."""

import dataclasses
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_model_reader
import tarifflab as tl
from conftest import model_payload_text, random_linear_model, rewrite_unclean
from tarifflab.ingest import (
    _fmt_vector,
    _parse_dense,
    _parse_rows,
    fit_provenance,
    memo_path,
    toeplitz_kernel,
)
from tarifflab import _floatfmt
from tarifflab.synthetic import _series_bytes, write_synthetic_csvs


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

    def test_unknown_kind_refused(self, two_day_files):
        load, _ = two_day_files
        with pytest.raises(ValueError) as exc_info:
            tl.parse_csv(load, "wind")
        assert str(exc_info.value) == "kind must be one of ('load', 'price'), got 'wind'"

    def test_fractional_day_named_with_its_line(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["0.5,0,1.0"])
        with pytest.raises(tl.MalformedRow) as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 2
        assert str(exc_info.value) == (
            "line 2: day/hour must be integers: ['0.5', '0', '1.0']"
        )

    def test_header_then_blank_line_has_no_data_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("day,hour,value\n\n")
        with pytest.raises(tl.MalformedRow) as exc_info:
            tl.parse_csv(path, "price")
        assert exc_info.value.line == 2
        assert str(exc_info.value) == "line 2: no data rows"

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


    @pytest.mark.parametrize("rows", [["0,-1,1.0"], ["0,-3,1.0", "1,-3,2.0"]])
    def test_negative_hour(self, tmp_path, rows):
        # every hour negative: the clean-file parser must not take the
        # largest hour plus one as the period count
        path = write_csv(tmp_path / "x.csv", rows)
        with pytest.raises(tl.MalformedRow, match="hour must be nonnegative") as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 2

    def test_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"day,hour,value\n0,0,1.0\n0,1,\xff2.0\n")
        with pytest.raises(tl.MalformedRow, match="not UTF-8: byte 0xff") as exc_info:
            tl.parse_csv(path, "load")
        assert exc_info.value.line == 3

    def test_row_reader_reads_the_file_once(self, tmp_path, monkeypatch):
        # a quoted field and a CR line end leave the file to the row reader,
        # which parses the bytes parse_csv read and never opens the file again
        path = tmp_path / "x.csv"
        path.write_bytes(b'day,hour,value\r0,0,"1.5"\r0,1,2.0\r1,0,3.0\r1,1,4.0\r')
        assert _parse_dense(path.read_bytes(), "load") is None

        opened = []
        path_open = Path.open

        def open_once(self, *args, **kwargs):
            if opened:
                raise AssertionError(f"{self} opened a second time")
            opened.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_once)
        series = tl.parse_csv(path, "load")
        assert opened == [path]
        assert series.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]
        assert series.day_labels == (0, 1)

    def test_fast_path_takes_clean_files(self):
        from tarifflab.synthetic import bundled_dataset_paths

        for path, kind in zip(bundled_dataset_paths(), ("load", "price")):
            fast = _parse_dense(path.read_bytes(), kind)
            assert fast is not None
            rows = _parse_rows(path.read_bytes(), kind)
            assert fast.values.tobytes() == rows.values.tobytes()
            assert fast.day_labels == rows.day_labels

    def test_fast_path_takes_crlf_files(self, tmp_path):
        from tarifflab.synthetic import bundled_dataset_paths

        for path, kind in zip(bundled_dataset_paths(), ("load", "price")):
            crlf = tmp_path / f"{kind}.csv"
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            fast = _parse_dense(crlf.read_bytes(), kind)
            assert fast is not None
            lf = _parse_dense(path.read_bytes(), kind)
            assert fast.values.tobytes() == lf.values.tobytes()
            assert fast.day_labels == lf.day_labels

    def test_ordered_rows_skip_the_sort(self, monkeypatch):
        from tarifflab.synthetic import bundled_dataset_paths

        for path, kind in zip(bundled_dataset_paths(), ("load", "price")):
            header, *rows = path.read_bytes().splitlines(keepends=True)
            np.random.default_rng(0).shuffle(rows)
            shuffled = _parse_dense(header + b"".join(rows), kind)

            def unsorted(keys):
                raise AssertionError("rows in (day, hour) order were sorted")

            with monkeypatch.context() as patch:
                patch.setattr(np, "lexsort", unsorted)
                ordered = _parse_dense(path.read_bytes(), kind)
            assert ordered.values.flags.c_contiguous
            assert ordered.values.tobytes() == shuffled.values.tobytes()
            assert ordered.day_labels == shuffled.day_labels

    @pytest.mark.parametrize("data", [
        b"day,hour,value\r0,0,1.0\r0,1,2.0\r",
        b"day,hour,value\n0,0,1.0\r0,1,2.0\n",
        b"day,hour,value\r\n0,0,1.0\r\r\n0,1,2.0\r\n",
        b"day,hour,value\n0,0,1.0\n0,1,2.0\r",
    ])
    def test_lone_cr_is_left_to_row_reader(self, data):
        assert _parse_dense(data, "load") is None


# one mutation away from a clean file; the whole-file parser must either
# agree with the row-by-row reader or leave the file to it
MUTATIONS = (
    "none", "shuffle", "drop", "duplicate", "crlf", "cr", "mixed-line-ends",
    "quote", "blank", "pad", "non-finite", "negative", "bad-label",
    "long-label", "no-final-newline", "no-rows",
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
    elif mutation == "cr":
        newline = final = "\r"
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
        rows[i][draw(st.integers(0, 1))] = draw(
            st.sampled_from(["x", "1.0", "-3", "+2", "-0", "1e3", "", "\u0663"])
        )
    elif mutation == "long-label":
        rows[i][0] = "1" * draw(st.integers(18, 25))
    elif mutation == "no-final-newline":
        final = ""
    elif mutation == "no-rows":
        rows = [[]] * draw(st.integers(0, 2))
    lines = ["day,hour,value"] + [",".join(row) for row in rows]
    if mutation == "mixed-line-ends":
        ends = draw(st.lists(
            st.sampled_from(["\n", "\r\n", "\r"]),
            min_size=len(lines), max_size=len(lines),
        ))
        return kind, "".join(line + end for line, end in zip(lines, ends))
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
    assert _outcome(tl.parse_csv, path, kind) == _outcome(
        lambda p, k: _parse_rows(p.read_bytes(), k), path, kind
    )


class TestParseInputs:
    """`parse_inputs` is two `parse_csv` calls, errors named by file, and the
    prices scaled to $/kWh."""

    @pytest.mark.parametrize("unit, scale", [("kwh", None), ("mwh", 1e-3)])
    @pytest.mark.parametrize("clean", [True, False])
    def test_equals_two_parses_and_the_scaling(self, tmp_path, unit, scale, clean):
        load, prices = write_synthetic_csvs(tmp_path, 6, 4, 5)
        if not clean:
            rewrite_unclean(load)
            rewrite_unclean(prices)
            assert _parse_dense(prices.read_bytes(), "price") is None
        want_load, want_prices = tl.parse_csv(load, "load"), tl.parse_csv(prices, "price")
        if scale is not None:
            want_prices = dataclasses.replace(
                want_prices, values=want_prices.values * scale)
        got = tl.parse_inputs(load, prices, unit)
        for series, want in zip(got, (want_load, want_prices)):
            assert series.values.tobytes() == want.values.tobytes()
            assert series.day_labels == want.day_labels

    def test_errors_name_their_file(self, tmp_path, two_day_files):
        load, prices = two_day_files
        bad = write_csv(tmp_path / "bad.csv", ["0,0,x"])
        for paths in ((bad, prices), (load, bad), (bad, bad)):
            with pytest.raises(ValueError) as exc_info:
                tl.parse_inputs(*paths)
            assert str(exc_info.value).startswith(f"{bad}: line 2: value is not")
        with pytest.raises(FileNotFoundError):
            tl.parse_inputs(load, tmp_path / "missing.csv")

    def test_unknown_unit_refused(self, two_day_files):
        with pytest.raises(ValueError, match="price unit must be one of"):
            tl.parse_inputs(*two_day_files, "gwh")


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

    @pytest.mark.parametrize("field, value, message", [
        ("customers", 2.5, "customers must be an integer, got 2.5"),
        ("customers", "5", "customers must be an integer, got '5'"),
        ("flat_rate", "0.172", "flat_rate must be a real number, got '0.172'"),
        ("alpha", None, "alpha must be a real number, got None"),
    ])
    def test_config_refuses_what_is_not_a_number(self, field, value, message):
        with pytest.raises(ValueError) as exc_info:
            tl.CalibrationConfig(**{field: value})
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("field, value", [
        ("flat_rate", 10**400),
        ("elasticity_target", -(10**400)),
        ("alpha", 10**400),
        ("connection_charge", Fraction(10**400, 3)),
    ], ids=["flat_rate", "elasticity_target", "alpha", "connection_charge"])
    def test_config_refuses_a_number_beyond_the_float_range(self, field, value):
        # float() overflows on such a number; the refusal names the field
        with pytest.raises(ValueError) as exc_info:
            tl.CalibrationConfig(**{field: value})
        assert str(exc_info.value) == f"{field} is too large for a float"

    def test_float32_inputs_calibrate_in_float64(self):
        # the same two values as Python floats give the same G, bit for bit
        from tarifflab.synthetic import bundled_dataset_paths

        load_path, prices_path = bundled_dataset_paths()
        scenarios = tl.estimate_moments(
            tl.parse_csv(load_path, "load"), tl.parse_csv(prices_path, "price")
        )
        rate, target = np.float32(0.172), np.float32(-0.3)
        narrow = tl.calibrate_demand(
            scenarios, tl.CalibrationConfig(flat_rate=rate, elasticity_target=target)
        )
        plain = tl.calibrate_demand(scenarios, tl.CalibrationConfig(
            flat_rate=float(rate), elasticity_target=float(target)
        ))
        assert narrow.G.dtype == np.float64
        assert narrow.G.tobytes() == plain.G.tobytes()


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

    @pytest.mark.parametrize("first", ["customers 1", "periods = 2"])
    def test_not_utf8_reported_before_an_earlier_line_error(
        self, tmp_path, i2_model, first
    ):
        # a missing ` = ` (or a duplicate key) on line 2 is held back: the
        # whole-file decode reported the bad byte first
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model)
        lines = path.read_bytes().split(b"\n")
        lines.insert(1, first.encode())
        lines[-2] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(tl.ModelFileError, match="not UTF-8: byte 0xff") as exc_info:
            tl.read_model_file(path)
        assert exc_info.value.line == len(lines) - 1

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

    @pytest.mark.parametrize("config", [
        tl.CalibrationConfig(),
        tl.CalibrationConfig(flat_rate=0.05, elasticity_target=-1e-7, alpha=0.0,
                             customers=1, connection_charge=-2.5),
    ])
    def test_fit_provenance_records_every_calibration_field(self, two_day_files, config):
        load, prices = two_day_files
        prov = fit_provenance(load, prices, config, created="t0")
        keys = list(prov)
        fields = list(prov.items())[
            keys.index("prices_digest") + 1:keys.index("sigma_note")
        ]
        assert fields == [
            (f.name, repr(getattr(config, f.name))) for f in dataclasses.fields(config)
        ]
        assert keys[-2:] == ["price_unit", "created"]
        assert prov["price_unit"] == "kwh"
        assert fit_provenance(load, prices, config, "t0", price_unit="mwh")[
            "price_unit"
        ] == "mwh"

    def test_fit_provenance_of_numpy_inputs_reads_as_plain_numbers(self, two_day_files):
        # each field is stored as a Python float or int, so its repr is plain
        load, prices = two_day_files
        config = tl.CalibrationConfig(
            flat_rate=np.float64(0.172), elasticity_target=np.float32(-0.3),
            alpha=np.float32(0.2), customers=np.int64(3),
            connection_charge=np.float16(0.5),
        )
        prov = fit_provenance(load, prices, config, created="t0")
        assert [prov[f.name] for f in dataclasses.fields(config)] == [
            "0.172", "-0.30000001192092896", "0.20000000298023224", "3", "0.5"
        ]

    def test_non_integer_periods_named_when_the_memo_is_stale(self, tmp_path, i2_model):
        path = tmp_path / "m.tlm"
        tl.write_model_file(path, i2_model, provenance={"created": "t0"})
        path.write_text(path.read_text().replace("periods = 2\n", "periods = x\n", 1))
        assert memo_path(path).is_file()  # left under the old text's digest
        with pytest.raises(tl.ModelFileError) as exc_info:
            tl.read_model_file(path)
        assert exc_info.value.line == 2
        assert str(exc_info.value) == f"{path}:2: periods must be an integer"

    @pytest.mark.parametrize("value", ["two\nlines", "cr\rend", "form\x0cfeed", "ls\u2028x"])
    def test_multi_line_provenance_leaves_no_file(self, tmp_path, i2_model, value):
        path = tmp_path / "model.tlm"
        with pytest.raises(ValueError, match="provenance values must be single-line"):
            tl.write_model_file(path, i2_model, provenance={"note": value})
        assert not path.exists()

    def test_multi_line_provenance_keeps_existing_model(self, tmp_path, i2_model):
        path = tmp_path / "model.tlm"
        tl.write_model_file(path, i2_model, provenance={"created": "t0"})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="provenance values must be single-line"):
            tl.write_model_file(path, i2_model, provenance={"created": "t1\nt2"})
        assert path.read_bytes() == before


def _reference_fmt(v) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(v).ravel())


def _text(block) -> bytes:
    """The formatter's text of `block`'s rows, unlabelled."""
    return _floatfmt.lines(block, np.zeros((len(block), 0), dtype=np.uint8))


def _neighbours(x: float, steps: int = 2) -> list[float]:
    """x and the `steps` floats either side of it, both signs."""
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out + [-v for v in out]


# where the fast path's cases meet: its range ends (repr writes no exponent
# from 1e-4 up to 1e16), significands that are powers of two, and powers of
# ten, where the decimal exponent of the shortest digits changes
EDGES = sorted({
    v for x in [1e-4, 1e16, *(2.0**k for k in range(-16, 56)),
                *(10.0**k for k in range(-6, 18))]
    for v in _neighbours(x)
})
FINITE_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite)
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           np.nextafter(2.2250738585072014e-308, 0.0), 1.0, -1.0,
                           float(2**53), 9999999999999998.0, 123456789012345.0])
FLOAT_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    FINITE_BITS,
    st.sampled_from(EDGES),
    SPECIAL,
    st.floats(1e-4, 1e16),  # the fast range
    st.floats(-1e7, 1e7).map(round).map(float),  # integral values
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT_VALUES, max_size=20))
def test_vector_format_matches_reference(xs):
    want = _reference_fmt(xs)
    assert _fmt_vector(np.array(xs, dtype=float)) == want
    if xs:
        assert _text(np.array(xs, dtype=float).reshape(1, -1)) == (want + "\n").encode()


def _mixed_block(rng, size: int) -> np.ndarray:
    """Raw 64-bit patterns, fast-range values, edge neighbours and ties of
    16 and 17 digits (2^50 + k/4 and 2^49 + k/4 lie halfway between two
    candidates), shuffled."""
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],
        np.exp(rng.uniform(np.log(1e-4), np.log(1e16), size)) * rng.choice([-1, 1], size),
        EDGES,
        2.0**50 + np.arange(1, 40) / 4,
        2.0**49 + np.arange(1, 40) / 4,
        [0.0, -0.0, 5e-324, 1e-320],
    ])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("cols", [1, 7, 96, 3 * _floatfmt.CHUNK + 5])
def test_blocks_across_chunks_match_reference(cols):
    values = _mixed_block(np.random.default_rng(cols), 2 * _floatfmt.CHUNK)
    block = values[: values.size // cols * cols].reshape(-1, cols)
    assert block.size > 2 * _floatfmt.CHUNK
    assert _text(block).decode() == "".join(_reference_fmt(row) + "\n" for row in block)


@settings(max_examples=20, deadline=None)
@given(days=st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001]),
       periods=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_series_bytes_match_repr(days, periods, seed):
    # day labels of 1 to 5 digits, hour labels of 1 or 2; values drawn from
    # every case of the formatter
    periods = periods if days < 10001 else 1 + periods % 2
    values = _mixed_block(np.random.default_rng(seed), days * periods)[: days * periods]
    values = values.reshape(days, periods)
    want = "day,hour,value\n" + "".join(
        f"{j},{h},{v!r}\n" for j, row in enumerate(values.tolist()) for h, v in enumerate(row))
    assert _series_bytes(values) == want.encode()


def test_bundled_dataset_regenerates_byte_for_byte(tmp_path):
    from tarifflab.synthetic import bundled_dataset_paths

    got = write_synthetic_csvs(tmp_path, 92, 24, 20150601)
    assert [p.read_bytes() for p in got] == [p.read_bytes() for p in bundled_dataset_paths()]


# --- model files: the one-pass reader against the whole-file reference -----

# the line ends str.splitlines() knows besides "\n" and "\r\n"
LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
MODEL_MUTATIONS = (
    "none", "reorder", "duplicate", "drop", "crlf", "break", "not-utf8",
    "no-separator", "non-numeric", "non-finite", "short-row", "count-beyond",
    "comment", "pad", "edit-value",
)
VALUE_KEYS = (
    "g ", "lambda_bar ", "omega_bar ", "sigma_lambda_omega ", "scenario.", "baseline.",
)
# lone bytes and sequences that are not UTF-8 (a cut 3-byte one, a surrogate)
BAD_UTF8 = (b"\xff", b"\xe9", b"\xc3", b"\xe2\x82", b"\x80", b"\xed\xa0\x80")


def _mutate_model_lines(draw, records):
    """Apply one drawn mutation to the [text, line end, bad bytes] records."""
    mutation = draw(st.sampled_from(MODEL_MUTATIONS))
    i = draw(st.integers(0, len(records) - 1))
    text = records[i][0]
    rows = [
        r for r in records
        if r[0].startswith(VALUE_KEYS) and r[0].partition(" = ")[2].split()
    ]
    if mutation == "reorder":
        records[:] = draw(st.permutations(records))
    elif mutation == "duplicate":
        records.insert(draw(st.integers(0, len(records))), list(records[i]))
    elif mutation == "drop" and len(records) > 1:
        del records[i]
    elif mutation == "crlf":
        for record in records:
            record[1] = "\r\n"
    elif mutation == "break":
        brk = draw(st.sampled_from(LINE_BREAKS))
        if draw(st.booleans()):
            records[i][1] = brk
        else:
            k = draw(st.integers(0, len(text)))
            records[i][0] = text[:k] + brk + text[k:]
    elif mutation == "not-utf8":
        scenario = [r for r in records if r[0].startswith("scenario.")]
        record = draw(st.sampled_from(scenario or records))
        record[2] = (draw(st.integers(0, len(record[0]))), draw(st.sampled_from(BAD_UTF8)))
    elif mutation == "no-separator":
        sep = draw(st.sampled_from(["=", " =", "= ", " : ", ""]))
        records[i][0] = text.replace(" = ", sep, 1)
    elif mutation in ("non-numeric", "non-finite", "short-row") and rows:
        record = draw(st.sampled_from(rows))
        key, _, value = record[0].partition(" = ")
        values = value.split()
        k = draw(st.integers(0, len(values) - 1))
        if mutation == "short-row":
            del values[k]
        elif mutation == "non-numeric":
            values[k] = draw(st.sampled_from(["x", "1..2", "0x1", "--1", "1e", "\u0661"]))
        else:
            values[k] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"]))
        record[0] = f"{key} = {' '.join(values)}"
    elif mutation == "edit-value" and rows:
        # a hand edit to a number that still parses: one ulp, a sign, a double
        record = draw(st.sampled_from(rows))
        key, _, value = record[0].partition(" = ")
        values = value.split()
        k = draw(st.integers(0, len(values) - 1))
        try:
            old = float(values[k])
        except ValueError:
            old = 0.0
        new = draw(st.sampled_from([np.nextafter(old, np.inf), -old, 2 * old]))
        values[k] = repr(float(new))
        record[0] = f"{key} = {' '.join(values)}"
    elif mutation == "count-beyond":
        for record in records:
            key, _, count = record[0].partition(" = ")
            if key == "scenario_count" and count.isdigit():
                extra = draw(st.sampled_from([1, 2, 10**13]))
                record[0] = f"scenario_count = {int(count) + extra}"
    elif mutation == "comment":
        records.insert(i, [draw(st.sampled_from(["", "# note", "   "])), "\n", None])
    elif mutation == "pad":
        records[i][0] = f" \t{text}  "


def _encode_records(records) -> bytes:
    out = []
    for text, end, bad in records:
        if bad is None:
            out.append((text + end).encode("utf-8"))
        else:
            k, seq = bad
            out.append(text[:k].encode("utf-8") + seq + (text[k:] + end).encode("utf-8"))
    return b"".join(out)


def _model_outcome(read, path):
    try:
        p = read(path)
    except tl.TariffLabError as exc:
        return type(exc), exc.line, str(exc)
    return (
        p.periods, p.customers, p.G.shape, p.G.tobytes(), p.lams.shape,
        p.lams.tobytes(), p.omegas.tobytes(), repr(p.baseline_flat_rate),
        repr(p.baseline_connection_charge), p.provenance,
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_model_reader_agrees_with_whole_file_reader(tmp_path_factory, data):
    draw = data.draw
    model = random_linear_model(
        draw(st.integers(0, 2**32 - 1)),
        periods=draw(st.integers(1, 3)),
        scenarios=draw(st.integers(1, 4)),
    )
    baseline = draw(st.sampled_from([None, tl.CalibrationConfig(connection_charge=0.25)]))
    path = tmp_path_factory.getbasetemp() / "mutated.tlm"
    tl.write_model_file(
        path, model, baseline=baseline, provenance={"command": "fuzz", "created": "t0"}
    )
    # the file is edited by hand with its memo left in place: unless the edit
    # is none at all, the memo is stale and the text decides
    assert memo_path(path).is_file()
    records = [[line, "\n", None] for line in path.read_text(encoding="utf-8").splitlines()]
    for _ in range(draw(st.integers(1, 2))):
        _mutate_model_lines(draw, records)
    path.write_bytes(_encode_records(records))
    assert _model_outcome(tl.read_model_file, path) == _model_outcome(
        reference_model_reader.read_model_file, path
    )


# --- bounded memory: peak traced allocation against the file's size ---------


def _peak_traced(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset_500x96(tmp_path_factory):
    """A 500-day, 96-period dataset, its calibrated model and model file."""
    out = tmp_path_factory.mktemp("dataset_500x96")
    load, prices = write_synthetic_csvs(out, days=500, periods=96, seed=3)
    config = tl.CalibrationConfig()
    scenarios = tl.estimate_moments(tl.parse_csv(load, "load"), tl.parse_csv(prices, "price"))
    model = tl.calibrate_demand(scenarios, config)
    model_path = out / "model.tlm"
    tl.write_model_file(model_path, model, baseline=config, provenance={"created": "t0"})
    return load, model, config, model_path


class TestBoundedMemory:
    """Each file path holds a small multiple of its file at most: one copy
    of the CSV's bytes plus its parsed rows, the model file's numbers, no
    whole-file text, line list or joined output."""

    def test_parse_csv(self, dataset_500x96):
        load = dataset_500x96[0]
        peak = _peak_traced(tl.parse_csv, load, "load")
        assert peak <= 4 * load.stat().st_size

    def test_write_model_file(self, tmp_path, dataset_500x96):
        _, model, config, model_path = dataset_500x96
        out = tmp_path / "model.tlm"
        peak = _peak_traced(
            tl.write_model_file, out, model, baseline=config, provenance={"created": "t0"}
        )
        assert out.read_bytes() == model_path.read_bytes()
        assert peak <= model_path.stat().st_size

    @pytest.mark.parametrize("memo", [True, False])
    def test_read_model_file(self, tmp_path, dataset_500x96, memo):
        model_path = dataset_500x96[3]
        assert memo_path(model_path).is_file()
        if not memo:  # a copy without its memo: the text parser's footprint
            model_path = tmp_path / "copy.tlm"
            model_path.write_bytes(dataset_500x96[3].read_bytes())
        peak = _peak_traced(tl.read_model_file, model_path)
        assert peak <= 2 * model_path.stat().st_size
