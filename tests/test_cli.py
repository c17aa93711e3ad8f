"""End-to-end CLI behavior: exit codes, formats, determinism, manifests."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tarifflab as tl
from conftest import model_payload_text
from tarifflab.cli import front_csv, main
from tarifflab.model import FAMILY_ALIASES
from tarifflab.solvers import rs_tolerance
from tarifflab.pareto import FAMILIES

# every spelling `--family` and `--families` accept
FAMILY_SPELLINGS = [a for name, aliases in FAMILY_ALIASES.items() for a in (name, *aliases)]


@pytest.fixture
def i2_model_file(tmp_path, i2_model):
    """Instance I2 on disk with a flat baseline (rate 1.5, no charge)."""
    path = tmp_path / "i2.tlm"
    config = tl.CalibrationConfig(
        flat_rate=1.5, elasticity_target=-0.3, alpha=0.2, customers=1,
        connection_charge=0.0,
    )
    tl.write_model_file(path, i2_model, baseline=config,
                        provenance={"command": "test", "created": "t0"})
    return path


@pytest.fixture(scope="module")
def bundled_model_file(tmp_path_factory):
    """The bundled dataset fitted with the CLI defaults."""
    from tarifflab.synthetic import bundled_dataset_paths

    load, prices = bundled_dataset_paths()
    out = tmp_path_factory.mktemp("bundled") / "bundled.tlm"
    assert main(["fit", "--load", str(load), "--prices", str(prices), "--out", str(out)]) == 0
    return out


@pytest.fixture
def tiny_csvs(tmp_path):
    load = tmp_path / "load.csv"
    prices = tmp_path / "prices.csv"
    rows_l = ["day,hour,value"]
    rows_p = ["day,hour,value"]
    rng = np.random.default_rng(2)
    for d in range(4):
        for h in range(3):
            rows_l.append(f"{d},{h},{10 + d + h + rng.random():.6f}")
            rows_p.append(f"{d},{h},{0.02 + 0.01 * h + 0.001 * d:.6f}")
    load.write_text("\n".join(rows_l) + "\n")
    prices.write_text("\n".join(rows_p) + "\n")
    return load, prices


class TestFit:
    def test_happy_path_and_determinism(self, tmp_path, tiny_csvs, capsys):
        load, prices = tiny_csvs
        out1, out2 = tmp_path / "m1.tlm", tmp_path / "m2.tlm"
        for out in (out1, out2):
            code = main([
                "fit", "--load", str(load), "--prices", str(prices),
                "--flat-rate", "0.05", "--customers", "10", "--out", str(out),
            ])
            assert code == 0
        text = capsys.readouterr().out
        assert "realized elasticity" in text
        assert model_payload_text(out1) == model_payload_text(out2)
        # full files differ only in the provenance timestamp
        payload = tl.read_model_file(out1)
        assert payload.baseline_flat_rate == 0.05
        assert payload.provenance["command"] == "fit"

    def test_defaults_are_the_calibration_defaults(self):
        from tarifflab.cli import build_parser

        args = build_parser().parse_args(
            ["fit", "--load", "l.csv", "--prices", "p.csv", "--out", "m.tlm"]
        )
        # each calibration field is a flag's dest, whose default is the field's
        defaults = tl.CalibrationConfig()
        for f in dataclasses.fields(tl.CalibrationConfig):
            assert getattr(args, f.name) == getattr(defaults, f.name), f.name
            assert type(getattr(args, f.name)) is type(getattr(defaults, f.name))

    def test_provenance_records_the_price_unit(self, tmp_path, tiny_csvs):
        # a $/MWh fit scales every price by 1e-3, so its record must say so
        load, prices = tiny_csvs
        payloads = {}
        for unit, flags in (("kwh", []), ("mwh", ["--price-unit", "mwh"])):
            out = tmp_path / f"{unit}.tlm"
            assert main(["fit", "--load", str(load), "--prices", str(prices), *flags,
                         "--out", str(out)]) == 0
            payloads[unit] = tl.read_model_file(out)
            provenance = payloads[unit].provenance
            assert list(provenance)[-3:] == ["sigma_note", "price_unit", "created"]
            assert provenance["price_unit"] == unit
        kwh, mwh = payloads["kwh"], payloads["mwh"]
        assert np.array_equal(mwh.lams, kwh.lams * 1e-3)
        for key in ("price_unit", "created"):
            del kwh.provenance[key], mwh.provenance[key]
        assert kwh.provenance == mwh.provenance

    def test_zero_elasticity_refused(self, tmp_path, tiny_csvs):
        load, prices = tiny_csvs
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            "--elasticity", "0", "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2

    @pytest.mark.parametrize("spelling", [["--elasticity", "-1e7"], ["--elasticity=-1e7"]])
    def test_large_elasticity_round_trips(self, tmp_path, tiny_csvs, spelling):
        # the round-trip tolerance scales with the target's magnitude
        load, prices = tiny_csvs
        out = tmp_path / "m.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices), *spelling,
            "--out", str(out),
        ])
        assert code == 0
        model = tl.read_model_file(out).to_model()
        assert tl.flat_rate_elasticity(model, 0.172) == pytest.approx(-1e7, rel=1e-9)

    def test_calibration_mismatch_is_input_error(
        self, tmp_path, tiny_csvs, capsys, monkeypatch
    ):
        import tarifflab.ingest

        monkeypatch.setattr(
            tarifflab.ingest, "flat_rate_elasticity", lambda model, rate: -0.25
        )
        load, prices = tiny_csvs
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "calibration round-trip failed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.tlm").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--flat-rate", "inf", "flat_rate"),
            ("--elasticity", "-inf", "elasticity_target"),
            ("--elasticity", "nan", "elasticity_target"),
            ("--connection-charge", "nan", "connection_charge"),
            ("--connection-charge", "inf", "connection_charge"),
        ],
    )
    def test_non_finite_calibration_input(
        self, tmp_path, tiny_csvs, capsys, recwarn, flag, value, field
    ):
        load, prices = tiny_csvs
        out = tmp_path / "m.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices), flag, value,
            "--out", str(out),
        ])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_subnormal_price_response_refused_by_name(self, tmp_path, tiny_csvs, capsys):
        # G scales with the elasticity: at -1e-310 it is subnormal, and the
        # satiation price G^-1 omega_bar that every command needs overflows
        load, prices = tiny_csvs
        out = tmp_path / "m.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            "--elasticity=-1e-310", "--out", str(out),
        ])
        assert code == 2
        assert "satiation price G^-1 omega_bar must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_demand_error_prints_a_plain_float(self, tmp_path, tiny_csvs, capsys):
        # G scales with the elasticity: at -1e300 no demand is left at the
        # flat rate, and the error prints it as a float, not numpy's repr
        load, prices = tiny_csvs
        out = tmp_path / "m.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            "--elasticity=-1e300", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        shown = re.fullmatch(r"error: expected demand in period 0 is (\S+) <= 1e-09\n", err)
        assert shown and float(shown[1]) <= 1e-9
        assert not out.exists()

    def test_parse_error_reports_location(self, tmp_path, tiny_csvs, capsys):
        load, prices = tiny_csvs
        bad = tmp_path / "bad.csv"
        bad.write_text("day,hour,value\n0,0,1.0\n0,1,oops\n0,2,1.0\n")
        code = main([
            "fit", "--load", str(bad), "--prices", str(prices),
            "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err
        assert "line 3" in err

    def test_non_utf8_csv_names_file_and_line(self, tmp_path, tiny_csvs, capsys):
        _, prices = tiny_csvs
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"day,hour,value\n0,0,1.0\n0,1,\xff1.0\n0,2,1.0\n")
        code = main([
            "fit", "--load", str(bad), "--prices", str(prices),
            "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 3: not UTF-8: byte 0xff" in err
        assert "Traceback" not in err

    def test_over_long_field_names_file_and_line(self, tmp_path, capsys):
        # longer than the csv module's 131072-character field limit
        big = tmp_path / "big.csv"
        big.write_text("day,hour,value\n0,0," + "1" * 200_000 + "\n")
        code = main([
            "fit", "--load", str(big), "--prices", str(big),
            "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{big}: line 2: field larger than field limit" in err
        assert "Traceback" not in err

    def test_negative_price_names_file_day_and_hour(self, tmp_path, tiny_csvs, capsys):
        load, prices = tiny_csvs
        text = prices.read_text().replace("\n2,1,", "\n2,1,-", 1)
        prices.write_text(text)
        out = tmp_path / "m.tlm"
        code = main(["fit", "--load", str(load), "--prices", str(prices), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{prices}: day 2 hour 1: wholesale prices must be nonnegative" in err
        assert not out.exists()

    def test_bundled_dataset_defaults(self, tmp_path, capsys):
        # the shipped 92-day synthetic dataset with paper-default calibration
        from tarifflab.synthetic import bundled_dataset_paths

        load, prices = bundled_dataset_paths()
        out = tmp_path / "synthetic.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices), "--out", str(out),
        ])
        assert code == 0
        payload = tl.read_model_file(out)
        assert payload.periods == 24
        assert payload.customers == 2_200_000
        model = payload.to_model()
        realized = tl.flat_rate_elasticity(model, payload.baseline_flat_rate)
        assert realized == pytest.approx(-0.3, abs=1e-9)
        # gross daily revenue lands at utility scale (~$7M/day)
        revenue = tl.revenue_baseline(model, tl.CalibrationConfig())
        assert 3e6 < revenue.gross < 2e7

        # paper sign pattern at the baseline surplus: the two-part tariff
        # gains consumer surplus, the linear tariff loses it
        def printed_delta_cs(family):
            code = main([
                "solve", "--model", str(out), "--family", family,
                "--target-rs", "baseline",
            ])
            assert code == 0
            text = capsys.readouterr().out
            line = next(l for l in text.splitlines() if "delta_cs:" in l)
            return float(line.split()[1])

        assert printed_delta_cs("two-part") > 0
        assert printed_delta_cs("linear") < 0

    def test_mwh_unit_scaling(self, tmp_path, tiny_csvs):
        load, prices = tiny_csvs
        out_kwh = tmp_path / "kwh.tlm"
        out_mwh = tmp_path / "mwh.tlm"
        main(["fit", "--load", str(load), "--prices", str(prices),
              "--flat-rate", "0.05", "--out", str(out_kwh)])
        main(["fit", "--load", str(load), "--prices", str(prices),
              "--flat-rate", "0.05", "--price-unit", "mwh", "--out", str(out_mwh)])
        lam_kwh = tl.read_model_file(out_kwh).lams
        lam_mwh = tl.read_model_file(out_mwh).lams
        np.testing.assert_allclose(lam_mwh, lam_kwh * 1e-3, rtol=1e-12)


@pytest.fixture(scope="module")
def near_unit_alpha_model_file(tmp_path_factory):
    """The bundled dataset fitted at alpha = 1 - 1e-10: cond(G) is about 4.8e11."""
    from tarifflab.synthetic import bundled_dataset_paths

    load, prices = bundled_dataset_paths()
    out = tmp_path_factory.mktemp("near_unit_alpha") / "m.tlm"
    assert main(["fit", "--load", str(load), "--prices", str(prices),
                 "--alpha", "0.9999999999", "--out", str(out)]) == 0
    return out


class TestSolve:
    @pytest.mark.parametrize("command", [
        ["solve", "--family", "linear", "--target-rs", "baseline"],
        ["solve", "--family", "flat-linear", "--target-rs", "baseline"],
        ["solve", "--family", "fixed-a-two-part", "--target-rs", "baseline"],
        ["solve", "--family", "adjusted-flat", "--target-rs", "baseline"],
        ["pareto"],
    ])
    def test_band_miss_names_the_conditioning(
        self, near_unit_alpha_model_file, capsys, command
    ):
        code = main([*command, "--model", str(near_unit_alpha_model_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.fullmatch(
            r"error: closed form missed the revenue band at rs \S+ for target \S+ "
            r"\(cond\(G\) 4\.8e\+11\)\n",
            captured.err,
        )

    def test_two_part_output(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "two-part",
            "--target-rs", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "family: two-part-optimal" in out
        assert "connection charge A: 24" in out
        assert "delta_sw: 0.5" in out

    def test_target_rs_baseline(self, i2_model_file, capsys):
        # baseline rs = phi(1.5 * 1) = 0.25
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "baseline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho:" in out

    def test_overflowing_baseline_target_names_the_baseline(
        self, bundled_model_file, capsys
    ):
        code = main([
            "solve", "--model", str(bundled_model_file), "--family", "fixed-A-two-part",
            "--target-rs", "baseline", "--connection-charge", "1e308",
        ])
        assert code == 2
        assert "the baseline tariff's revenue inf is not finite" in capsys.readouterr().err

    def test_infeasible_exit_3_with_range(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "33",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "feasible range" in err
        assert "32.0" in err

    def test_below_regime_floor_exit_3(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs=-1e9",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "revenue target -1000000000.0 is below the large-F regime floor 0.0\n"
        )

    # the prices of a fixed-charge family collect F - M A, M A = 3 here; the
    # error restates their range for the F the user gave
    @pytest.mark.parametrize("family, target, err", [
        ("fixed-A-two-part", "40",
         "infeasible revenue target 40.0: feasible range is [3.0, 35.0]\n"),
        ("fixed-A-two-part", "-1e9",
         "revenue target -1000000000.0 is below the large-F regime floor 3.0\n"),
        ("adjusted-flat", "40",
         "infeasible revenue target 40.0: feasible range is [-inf, 29.53125]\n"),
    ], ids=["fixed-A-infeasible", "fixed-A-below-floor", "adjusted-flat-infeasible"])
    def test_fixed_charge_range_errors_name_the_target(
        self, i2_model_file, capsys, family, target, err
    ):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", family,
            f"--target-rs={target}", "--connection-charge", "3",
        ])
        assert code == 3
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("args", [
        ["solve", "--family", "fixed-A-two-part", "--target-rs", "1e6"],
        ["solve", "--family", "adjusted-flat", "--target-rs", "1e6"],
        ["pareto", "--families", "fixed-A-two-part,adjusted-flat"],
    ], ids=["fixed-A-two-part", "adjusted-flat", "pareto"])
    def test_overflowing_connection_charge_is_named(
        self, bundled_model_file, capsys, args
    ):
        capsys.readouterr()
        code = main([*args, "--model", str(bundled_model_file),
                     "--connection-charge", "1e306"])
        # M A overflows, so the baseline itself is refused before any solve
        assert code == 2
        assert ("the baseline tariff's revenue inf is not finite (flat rate 0.172, "
                "connection charge 1e+306, 2200000 customers)\n") in capsys.readouterr().err

    def test_bad_target_exit_2(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "lots",
        ])
        assert code == 2

    def test_non_utf8_model_file_names_file_and_line(self, i2_model_file, capsys):
        lines = i2_model_file.read_bytes().split(b"\n")
        lines[1] = b"periods = \xfe2"
        i2_model_file.write_bytes(b"\n".join(lines))
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "24",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{i2_model_file}:2: not UTF-8: byte 0xfe" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_exit_2(self, i2_model_file, capsys, target):
        # every family's solver is covered in test_solvers; `=` keeps argparse
        # from reading "-inf" as an option
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            f"--target-rs={target}",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "revenue target must be finite" in captured.err

    def test_out_csv_machine_precision(self, i2_model_file, tmp_path, capsys):
        out = tmp_path / "solution.csv"
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "24", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,F,delta_cs,delta_rs,delta_sw,feasible,pi_0,pi_1"
        fields = lines[1].split(",")
        assert fields[0] == "linear-optimal"
        assert float(fields[6]) == pytest.approx(2.75, abs=1e-8)
        assert (tmp_path / "solution.csv.manifest.json").exists()

    @pytest.mark.parametrize("family", FAMILY_SPELLINGS)
    def test_solve_matches_pareto_to_printed_digit(
        self, i2_model_file, tmp_path, capsys, family
    ):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", family,
            "--target-rs", "24", "--out", str(tmp_path / "solve.csv"),
        ])
        assert code == 0
        solve_out = capsys.readouterr().out
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", family,
            "--f-min", "24", "--f-max", "24", "--steps", "1",
            "--out", str(tmp_path / "pareto.csv"),
        ])
        assert code == 0
        capsys.readouterr()
        csv_out = (tmp_path / "pareto.csv").read_bytes().splitlines()
        # header and data row: the solve row is the sweep row, byte for byte
        assert (tmp_path / "solve.csv").read_bytes().splitlines() == csv_out
        assert len(csv_out) == 2
        row = csv_out[1].decode().split(",")
        assert row[5] == "true"
        assert f"family: {row[0]}" in solve_out
        for label, value in (
            ("delta_cs", row[2]), ("delta_rs", row[3]), ("delta_sw", row[4])
        ):
            printed = format(float(value), ".4g")
            assert f"{label}: {printed} $/cycle" in solve_out


    @pytest.mark.parametrize("target", ["-2.5e4", "-2.5E+4", "-25000"])
    def test_negative_target_spellings(self, i2_model_file, capsys, target):
        # argparse reads a token starting with '-' as an option unless it is
        # a plain decimal; every spelling must match the `=` spelling
        args = ["solve", "--model", str(i2_model_file), "--family", "two-part"]
        assert main(args + [f"--target-rs={target}"]) == 0
        joined = capsys.readouterr().out
        assert main(args + ["--target-rs", target]) == 0
        assert capsys.readouterr().out == joined
        assert main(args + ["--target", target]) == 0  # argparse abbreviation
        assert capsys.readouterr().out == joined
        assert "target rs (F): -2.5e+04 $/cycle" in joined

    def test_negative_infinite_target_reaches_finite_check(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "-inf",
        ])
        assert code == 2
        assert "revenue target must be finite" in capsys.readouterr().err

    def test_top_of_front_prints_exact_monopoly_markup(self, bundled_model_file, capsys):
        capsys.readouterr()
        model = tl.read_model_file(bundled_model_file).to_model()
        top = tl.phi_bar(model, tl.monopoly_price(model, verify=False))
        code = main([
            "solve", "--model", str(bundled_model_file), "--family", "linear",
            "--target-rs", repr(top),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "rho: 1" in lines
        assert "gamma: inf" in lines

    @pytest.mark.parametrize("family", ["flat-linear", "adjusted-flat"])
    @pytest.mark.parametrize("target", ["-1.7e308", "-1e308", "-1e300", "-1e200"])
    def test_huge_negative_flat_target(
        self, bundled_model_file, tmp_path, capsys, family, target
    ):
        out = tmp_path / "solve.csv"
        with pytest.warns(tl.PriceSignWarning):
            code = main([
                "solve", "--model", str(bundled_model_file), "--family", family,
                f"--target-rs={target}", "--out", str(out),
            ])
        assert code == 0, capsys.readouterr().err
        payload = tl.read_model_file(bundled_model_file)
        model = payload.to_model()
        charge = payload.baseline_connection_charge if family == "adjusted-flat" else 0.0
        row = out.read_text().splitlines()[1].split(",")
        prices = np.array(row[6:], dtype=float)
        # one flat rate, near -sqrt(|F| / 1'G1): far past any bracket walk
        assert len(set(row[6:])) == 1 and prices[0] < -1e90
        # the volumetric part meets its residual target inside the rs band
        residual = float(target) - model.customers * charge
        achieved = tl.phi_bar(model, prices)
        assert abs(achieved - residual) <= rs_tolerance(residual)

    @pytest.mark.parametrize("target", ["1e25", "1.7976931348623157e+308"])
    def test_two_part_delta_sw_at_huge_targets(
        self, bundled_model_file, tmp_path, capsys, target
    ):
        rows = {}
        for raw in ("baseline", target):
            out = tmp_path / "solve.csv"
            code = main([
                "solve", "--model", str(bundled_model_file), "--family", "two-part",
                "--target-rs", raw, "--out", str(out),
            ])
            assert code == 0, capsys.readouterr().err
            rows[raw] = out.read_text().splitlines()[1].split(",")
        # M A is a transfer: the two-part gain does not depend on F, and the
        # charge near the float range does not cancel its digits away
        assert rows[target][4] == rows["baseline"][4] == "569800.2733449731"
        assert capsys.readouterr().out.count("delta_sw: 5.698e+05 $/cycle") == 2


class TestPareto:
    def test_golden_two_part_rows(self, i2_model_file, capsys):
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "two-part",
            "--f-min", "0", "--f-max", "32", "--steps", "5",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,F,delta_cs,delta_rs,delta_sw,feasible,pi_0,pi_1"
        # baseline rs = 0.25; the two-part front is the slope -1 transfer line
        # with constant delta_sw = 0.5 and prices pinned at expected cost
        assert lines[1] == "two-part-optimal,0.0,0.75,-0.25,0.5,true,1.0,2.0"
        assert lines[2] == "two-part-optimal,8.0,-7.25,7.75,0.5,true,1.0,2.0"
        assert lines[5] == "two-part-optimal,32.0,-31.25,31.75,0.5,true,1.0,2.0"

    def test_infeasible_rows_are_marked(self, i2_model_file, capsys):
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "linear",
            "--f-min", "31", "--f-max", "32.5", "--steps", "4",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        last = lines[-1].split(",")
        assert last[1] == "32.5"
        assert last[5] == "false"
        assert last[2] == "nan"

    def test_families_none_is_input_error(self, i2_model_file, capsys):
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "none",
        ])
        assert code == 2

    def test_default_grid_is_41_rows_per_family(self, i2_model_file, tmp_path):
        out = tmp_path / "f.csv"
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "two-part,linear",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 41 * 2

    def test_outputs_deterministic_manifest_timestamp_aside(
        self, i2_model_file, tmp_path, capsys
    ):
        args = ["pareto", "--model", str(i2_model_file), "--families", "all",
                "--steps", "7"]
        csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(args + ["--out", str(csv1), "--svg", str(svg1)]) == 0
        assert main(args + ["--out", str(csv2), "--svg", str(svg2)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert svg1.read_bytes() == svg2.read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        m1.pop("created")
        m2.pop("created")
        assert m1 == m2

    def test_svg_structure(self, i2_model_file, tmp_path):
        svg = tmp_path / "fronts.svg"
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "two-part,linear",
            "--f-min", "24", "--f-max", "33", "--steps", "4",
            "--svg", str(svg), "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 0
        text = svg.read_text()
        # two families drawn; linear has 2 infeasible targets (32.33.., 33)
        assert text.count("<polyline") == 2
        assert text.count('fill="none" stroke="#') >= 2
        assert "consumer surplus gain" in text
        assert "retailer surplus gain" in text

    def test_non_finite_grid_reports_target(self, i2_model_file, capsys):
        code = main([
            "pareto", "--model", str(i2_model_file), "--f-min", "nan",
            "--f-max", "24", "--steps", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "revenue target must be finite" in err
        assert "connection charge" not in err


    @pytest.mark.parametrize(
        "bounds", [["1e308", "-1e308", "3"], ["-inf", "24", "3"], ["inf", "inf", "1"]],
    )
    def test_non_finite_grid_step_names_bounds(self, i2_model_file, capsys, bounds):
        f_min, f_max, steps = bounds
        code = main([
            "pareto", "--model", str(i2_model_file), f"--f-min={f_min}",
            f"--f-max={f_max}", "--steps", steps,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--f-min" in err and "--f-max" in err and "no finite step" in err
        assert "Warning" not in err

    def test_steps_capped_before_anything_is_built(
        self, i2_model_file, capsys, monkeypatch
    ):
        import tracemalloc

        import tarifflab.cli as cli

        def unreachable(path):
            raise AssertionError("model read before --steps was checked")

        monkeypatch.setattr(cli, "read_model_file", unreachable)
        tracemalloc.start()
        try:
            code = main(["pareto", "--model", str(i2_model_file), "--steps", str(10**12)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"--steps must be at most {cli.MAX_STEPS}" in capsys.readouterr().err
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "bounds", [["--f-min", "-1e3", "--f-max", "-1e2"],
                   ["--f-min", "-1E3", "--f-max", "-100.0"]],
    )
    def test_negative_exponent_bounds(self, i2_model_file, capsys, bounds):
        args = ["pareto", "--model", str(i2_model_file), "--families", "two-part",
                "--steps", "3"]
        joined = [f"{bounds[0]}={bounds[1]}", f"{bounds[2]}={bounds[3]}"]
        assert main(args + joined) == 0
        expected = capsys.readouterr().out
        assert main(args + bounds) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == expected.splitlines()
        assert [row.split(",")[1] for row in lines[1:]] == ["-1000.0", "-550.0", "-100.0"]

    @pytest.mark.parametrize("args, message", [
        (["--steps", "0"], "--steps must be >= 1, got 0"),
        (["--f-min", "0"], "--f-min and --f-max must be given together"),
        (["--f-max", "0"], "--f-min and --f-max must be given together"),
    ])
    def test_grid_options_are_input_errors(self, i2_model_file, capsys, args, message):
        code = main(["pareto", "--model", str(i2_model_file), *args])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_single_step_with_unequal_bounds_is_input_error(
        self, i2_model_file, tmp_path, capsys
    ):
        out = tmp_path / "f.csv"
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "linear",
            "--f-min", "0", "--f-max", "1000", "--steps", "1", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--f-min" in err and "--f-max" in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [["--f-min", "24", "--f-max", "24"], []])
    def test_single_step_with_equal_or_no_bounds(
        self, i2_model_file, tmp_path, capsys, bounds
    ):
        out = tmp_path / "f.csv"
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", "linear",
            "--steps", "1", "--out", str(out), *bounds,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["flags"]["f_min"] == manifest["flags"]["f_max"]
        if bounds:
            assert lines[1].split(",")[1] == "24.0"


class TestCheck:
    def test_i2_all_pass_with_oracle_lines(self, i2_model_file, capsys):
        code = main(["check", "--model", str(i2_model_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS G-positive-definite" in out
        assert "PASS oracle-two-part" in out
        assert "PASS oracle-linear" in out
        assert "PASS planner-bound" in out
        assert "all checks passed" in out

    def test_oversized_scenario_count_is_input_error(self, i2_model_file, capsys):
        text = i2_model_file.read_text().replace(
            "scenario_count = 1", "scenario_count = 10000000000000"
        )
        i2_model_file.write_text(text)
        code = main(["check", "--model", str(i2_model_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario.1.lambda" in err
        assert "Traceback" not in err

    def test_corrupted_g_fails_named_check(self, i2_model_file, capsys):
        text = i2_model_file.read_text().replace(
            "g = 2.0 -0.5 -0.5 1.0", "g = 1.0 5.0 5.0 1.0"
        )
        i2_model_file.write_text(text)
        code = main(["check", "--model", str(i2_model_file)])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL G-positive-definite" in out

    def test_fitted_92x2_seed_45_passes(self, tmp_path, capsys):
        # the banded grid search false-FAILed oracle-linear here
        from tarifflab.synthetic import write_synthetic_csvs

        load, prices = write_synthetic_csvs(tmp_path, days=92, periods=2, seed=45)
        model = tmp_path / "m.tlm"
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--out", str(model)]) == 0
        capsys.readouterr()
        code = main(["check", "--model", str(model)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS oracle-linear" in out

    def test_kwh_scale_loads_pass_with_the_default_flags(self, tmp_path, capsys):
        # the gradient screen's error, 1.851e-6, is the rounding of the
        # baseline's M A = 1.144e6 $/cycle over h = 1e-5: within its floor
        load = tmp_path / "load.csv"
        load.write_text("day,hour,value\n0,0,5\n0,1,6\n1,0,7\n1,1,8\n")
        prices = tmp_path / "prices.csv"
        prices.write_text("day,hour,value\n0,0,0.03\n0,1,0.04\n1,0,0.05\n1,1,0.035\n")
        model = tmp_path / "m.tlm"
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["check", "--model", str(model)]) == 0
        assert "PASS gradient-identity: max relative error 1.851e-06" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("alpha, code, status", [("0.995", 0, "PASS"), ("0.999", 4, "FAIL")])
    def test_hessian_screen_on_strongly_coupled_bundled_models(
        self, tmp_path, capsys, alpha, code, status
    ):
        # rounding in a stencil with step h would read 1.145e-5 at alpha 0.995,
        # over the 1e-5 tolerance; at 0.999 the screen still cannot resolve -2G
        from tarifflab.synthetic import bundled_dataset_paths

        load, prices = bundled_dataset_paths()
        model = tmp_path / f"a{alpha}.tlm"
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--alpha", alpha, "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["check", "--model", str(model)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith(f"{status} hessian-identity:")]


class TestWarnings:
    """A warning reaches the user as one `warning: <message>` line."""

    def _stderr(self, *args: str) -> list[str]:
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "tarifflab.cli", *args],
            capture_output=True, text=True, env=env, check=True,
        )
        return done.stderr.splitlines()

    def test_pareto_with_a_negative_adjusted_flat_rate(self, bundled_model_file, tmp_path):
        lines = self._stderr(
            "pareto", "--model", str(bundled_model_file), "--flat-rate", "0.2",
            "--connection-charge", "3.0", "--out", str(tmp_path / "f.csv"),
        )
        assert lines == ["warning: adjusted flat tariff: price vector has negative entries"]

    def test_solve_on_a_strongly_coupled_model(self, tmp_path, capsys):
        from tarifflab.synthetic import bundled_dataset_paths

        load, prices = bundled_dataset_paths()
        model = tmp_path / "a99.tlm"
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--alpha", "0.99", "--out", str(model)]) == 0
        lines = self._stderr(
            "solve", "--model", str(model), "--family", "linear", "--target-rs", "baseline",
        )
        assert "warning: linear tariff: price vector has negative entries" in lines
        assert not [line for line in lines if ".py:" in line]
        assert len(lines) == len(set(lines))


class TestClosedStdout:
    """A stdout whose reader has gone loses only stdout: every file is
    written, nothing reaches stderr and the exit status is 1, not the
    input-error 2."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("command, outputs", [
        (["fit", "--load", "{load}", "--prices", "{prices}", "--out", "{d}/m.tlm"],
         ["m.tlm"]),
        (["solve", "--model", "{model}", "--family", "linear", "--target-rs",
          "baseline", "--out", "{d}/s.csv"], ["s.csv", "s.csv.manifest.json"]),
        (["pareto", "--model", "{model}", "--steps", "5", "--out", "{d}/p.csv",
          "--svg", "{d}/p.svg"],
         ["p.csv", "p.csv.manifest.json", "p.svg", "p.svg.manifest.json"]),
        (["pareto", "--model", "{model}", "--steps", "5", "--svg", "{d}/p.svg"],
         ["p.svg", "p.svg.manifest.json"]),
        (["check", "--model", "{model}"], []),
    ], ids=["fit", "solve", "pareto", "pareto-csv-to-stdout", "check"])
    def test_cli_command(self, bundled_model_file, tmp_path, command, outputs, buffered):
        from tarifflab.synthetic import bundled_dataset_paths

        load, prices = bundled_dataset_paths()
        argv = [arg.format(load=load, prices=prices, model=bundled_model_file, d=tmp_path)
                for arg in command]
        self._assert_only_stdout_lost(["tarifflab.cli", *argv], tmp_path, outputs, buffered)

    @pytest.mark.parametrize("buffered", [False, True])
    def test_synthetic(self, tmp_path, buffered):
        self._assert_only_stdout_lost(
            ["tarifflab.synthetic", "--out-dir", str(tmp_path), "--days", "3"],
            tmp_path, ["synthetic_load.csv", "synthetic_prices.csv"], buffered,
        )

    @staticmethod
    def _assert_only_stdout_lost(argv, folder, outputs, buffered):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:  # each print writes, so the first one fails
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")
        written = [p for p in Path(folder).iterdir() if not p.name.endswith(".npz")]
        assert sorted(p.name for p in written) == sorted(outputs)
        assert all(p.stat().st_size for p in written)


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["check", "--model", str(tmp_path / "nope.tlm")]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--days", "0"), ("--periods", "0"), ("--days", "-3"),
    ])
    def test_synthetic_refuses_sizes_below_one(self, tmp_path, capsys, flag, value):
        from tarifflab import synthetic

        out = tmp_path / "data"
        with pytest.raises(SystemExit) as caught:
            synthetic.main(["--out-dir", str(out), flag, value])
        assert caught.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: {flag} must be at least 1, got {value}\n")
        assert not out.exists()

    def test_synthetic_refuses_a_negative_seed(self, tmp_path, capsys):
        from tarifflab import synthetic

        out = tmp_path / "data"
        with pytest.raises(SystemExit) as caught:
            synthetic.main(["--out-dir", str(out), "--seed", "-1"])
        assert caught.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: --seed must be at least 0, got -1\n")
        assert not out.exists()

    def test_synthetic_out_dir_naming_a_file(self, tmp_path, capsys):
        from tarifflab import synthetic

        out = tmp_path / "data"
        out.write_bytes(b"kept")
        assert synthetic.main(["--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{out}'\n")
        assert out.read_bytes() == b"kept"


def _edit_g(path: Path, g: str) -> None:
    text = path.read_text()
    assert "g = 2.0 -0.5 -0.5 1.0\n" in text
    path.write_text(text.replace("g = 2.0 -0.5 -0.5 1.0\n", f"g = {g}\n"))


MODEL_COMMANDS = {
    "solve": ["--family", "linear", "--target-rs", "24"],
    "pareto": ["--steps", "3"],
    "check": [],
}


class TestModelFileErrors:
    """A model file that reads but does not make a model is named in the
    error, as a structural error is."""

    @pytest.mark.parametrize("command", ["solve", "pareto"])
    def test_g_not_positive_definite_names_the_file(self, i2_model_file, capsys, command):
        _edit_g(i2_model_file, "-2.0 -0.5 -0.5 1.0")
        code = main([command, "--model", str(i2_model_file), *MODEL_COMMANDS[command]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {i2_model_file}: G must be positive definite\n"
        # check reports the same G as a failed diagnostic, not an input error
        assert main(["check", "--model", str(i2_model_file)]) == 4
        assert "FAIL G-positive-definite" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_overflowing_satiation_price_names_the_file(
        self, i2_model_file, capsys, command
    ):
        # a subnormal G is positive definite, but G^-1 omega_bar overflows
        _edit_g(i2_model_file, "1e-310 0.0 0.0 1e-310")
        code = main([command, "--model", str(i2_model_file), *MODEL_COMMANDS[command]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {i2_model_file}: the satiation price G^-1 omega_bar must be finite\n"
        )
        if command != "check":
            assert captured.out == ""

    def test_customer_count_beyond_a_float_is_named(self, tmp_path, tiny_csvs, capsys):
        huge = "1" + "0" * 400
        load, prices = tiny_csvs
        model = tmp_path / "m.tlm"
        message = "customer count must be at most 1.7976931348623157e+308"
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--customers", huge, "--out", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()
        assert main(["fit", "--load", str(load), "--prices", str(prices),
                     "--out", str(model)]) == 0
        text = model.read_text()
        model.write_text(text.replace("customers = 2200000\n", f"customers = {huge}\n"))
        for command, flags in MODEL_COMMANDS.items():
            capsys.readouterr()
            assert main([command, "--model", str(model), *flags]) == 2, command
            assert capsys.readouterr().err == f"error: {model}: {message}\n", command

    @pytest.fixture
    def no_baseline_file(self, tmp_path, i2_model):
        path = tmp_path / "nobase.tlm"
        tl.write_model_file(path, i2_model, provenance={"command": "test"})
        assert "baseline." not in path.read_text()
        return path

    @pytest.mark.parametrize("command", ["solve", "pareto"])
    @pytest.mark.parametrize("flags", [[], ["--flat-rate", "1.5"], ["--connection-charge", "0"]])
    def test_missing_baseline_names_the_file(self, no_baseline_file, capsys, command, flags):
        code = main([
            command, "--model", str(no_baseline_file), *MODEL_COMMANDS[command], *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {no_baseline_file}: model file carries no baseline tariff; "
            "pass --flat-rate and --connection-charge\n"
        )

    @pytest.mark.parametrize("command", ["solve", "pareto"])
    def test_missing_baseline_from_flags(
        self, no_baseline_file, i2_model_file, capsys, command
    ):
        # both flags stand in for the file's baseline (rate 1.5, no charge)
        flags = ["--flat-rate", "1.5", "--connection-charge", "0"]
        outputs = []
        for path in (no_baseline_file, i2_model_file):
            args = [command, "--model", str(path), *MODEL_COMMANDS[command], *flags]
            assert main(args) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_check_without_baseline_uses_its_reference_tariff(
        self, no_baseline_file, i2_model_file, capsys
    ):
        # every check is baseline-invariant, so the internal reference tariff
        # reports what the file's own baseline does
        assert main(["check", "--model", str(no_baseline_file)]) == 0
        without = capsys.readouterr()
        assert main(["check", "--model", str(i2_model_file)]) == 0
        assert without == capsys.readouterr()
        lines = without.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS G-symmetric", "PASS G-positive-definite", "PASS assumption-1",
            "PASS gradient-identity", "PASS hessian-identity", "PASS phi-settlement",
            "PASS oracle-two-part", "PASS oracle-linear", "PASS planner-bound",
            "all checks passed",
        ]


class TestBaselineOverrides:
    """The families solve from the resolved baseline, overrides included, and
    every manifest records it."""

    @pytest.mark.parametrize("family", ["fixed-A-two-part", "adjusted-flat"])
    @pytest.mark.parametrize(
        "option, values",
        [("--connection-charge", (0.52, 3.0)), ("--flat-rate", (1.5, 2.0))],
    )
    def test_solve_rows_and_manifests_follow_the_override(
        self, i2_model_file, tmp_path, capsys, family, option, values
    ):
        model = tl.read_model_file(i2_model_file).to_model()
        manifests = []
        for value in values:
            out = tmp_path / f"{value}.csv"
            assert main([
                "solve", "--model", str(i2_model_file), "--family", family,
                "--target-rs", "baseline", option, str(value), "--out", str(out),
            ]) == 0
            # the model file's baseline is rate 1.5 with no charge
            charge, rate = (value, 1.5) if option == "--connection-charge" else (0.0, value)
            baseline = tl.Tariff(connection_charge=charge, prices=[rate, rate],
                                 family="adjusted-flat")
            fronts = tl.sweep(model, baseline, {family},
                              [tl.retailer_surplus(model, baseline)])
            assert out.read_text() == front_csv(fronts, model.periods)
            manifest = json.loads((tmp_path / f"{value}.csv.manifest.json").read_text())
            assert manifest["flags"]["connection_charge"] == charge
            assert manifest["flags"]["flat_rate"] == rate
            manifest.pop("created")
            manifests.append(manifest)
        assert manifests[0] != manifests[1]

    def test_pareto_manifests_follow_the_override(self, i2_model_file, tmp_path, capsys):
        manifests = []
        for charge in (0.52, 3.0):
            out, svg = tmp_path / f"{charge}.csv", tmp_path / f"{charge}.svg"
            assert main([
                "pareto", "--model", str(i2_model_file), "--steps", "5",
                "--connection-charge", str(charge), "--out", str(out), "--svg", str(svg),
            ]) == 0
            for path in (out, svg):
                manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
                assert manifest["flags"]["connection_charge"] == charge
                assert manifest["flags"]["flat_rate"] == 1.5
            manifest.pop("created")
            manifests.append(manifest)
        assert manifests[0] != manifests[1]


class TestBaselineRefusal:
    """Every gain subtracts the baseline's revenue and consumer-surplus term,
    so a baseline whose terms are not finite is an input error on every
    path: fit, the overrides of solve and pareto, and the file's own
    baseline in solve and check."""

    MESSAGE = ("the baseline tariff's revenue {} is not finite (flat rate {}, "
               "connection charge {}, 2200000 customers)\n")

    @pytest.fixture
    def overflowing_file(self, tmp_path, bundled_model_file):
        lines = [
            "baseline.connection_charge = 1e308"
            if line.startswith("baseline.connection_charge =") else line
            for line in bundled_model_file.read_text().splitlines()
        ]
        path = tmp_path / "overflowing.tlm"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("args, revenue, rate, charge", [
        (["solve", "--family", "linear", "--target-rs", "1e6", "--flat-rate", "1e200"],
         "-inf", "1e+200", "0.52"),
        (["pareto", "--families", "two-part", "--steps", "2",
          "--connection-charge", "-1e308"], "-inf", "0.172", "-1e+308"),
    ], ids=["solve-flat-rate", "pareto-connection-charge"])
    def test_overridden_baseline_is_refused(
        self, bundled_model_file, capsys, args, revenue, rate, charge
    ):
        capsys.readouterr()
        code = main([*args, "--model", str(bundled_model_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            "error: " + self.MESSAGE.format(revenue, rate, charge)
        )

    def test_fit_writes_no_file(self, tmp_path, capsys):
        from tarifflab.synthetic import bundled_dataset_paths

        load, prices = bundled_dataset_paths()
        out = tmp_path / "m.tlm"
        code = main(["fit", "--load", str(load), "--prices", str(prices),
                     "--connection-charge", "1e308", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: " + self.MESSAGE.format("inf", "0.172", "1e+308")
        )
        assert not out.exists()

    def test_file_baseline_is_refused_by_solve_and_check(self, overflowing_file, capsys):
        capsys.readouterr()
        message = self.MESSAGE.format("inf", "0.172", "1e+308")
        assert main(["solve", "--model", str(overflowing_file), "--family", "two-part",
                     "--target-rs", "1e6"]) == 2
        assert capsys.readouterr().err == "error: " + message
        assert main(["check", "--model", str(overflowing_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {overflowing_file}: " + message


class TestCustomerCount:
    @pytest.mark.parametrize("customers", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [["solve", "--family", name, "--target-rs", "baseline"] for name in FAMILIES]
        + [["pareto", "--families", "all"], ["check"]],
    )
    def test_model_file_below_one_customer_is_located_input_error(
        self, i2_model_file, capsys, customers, command
    ):
        lines = i2_model_file.read_text().splitlines(keepends=True)
        line_no = lines.index("customers = 1\n") + 1
        lines[line_no - 1] = f"customers = {customers}\n"
        i2_model_file.write_text("".join(lines))
        code = main([command[0], "--model", str(i2_model_file), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{i2_model_file}:{line_no}: customers must be >= 1" in captured.err

    @pytest.mark.parametrize("customers", ["0", "-3"])
    def test_fit_refuses_below_one_customer(self, tmp_path, tiny_csvs, capsys, customers):
        load, prices = tiny_csvs
        out = tmp_path / "m.tlm"
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            f"--customers={customers}", "--out", str(out),
        ])
        assert code == 2
        assert "need at least one customer" in capsys.readouterr().err
        assert not out.exists()
