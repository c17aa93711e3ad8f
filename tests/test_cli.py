"""End-to-end CLI behavior: exit codes, formats, determinism, manifests."""

import json

import numpy as np
import pytest

import tarifflab as tl
from tarifflab.cli import main
from tarifflab.pareto import FAMILIES

# every spelling `--family` and `--families` accept
FAMILY_SPELLINGS = [a for f in FAMILIES.values() for a in (f.name, *f.aliases)]


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
        from tarifflab.ingest import model_payload_text

        assert model_payload_text(out1) == model_payload_text(out2)
        # full files differ only in the provenance timestamp
        payload = tl.read_model_file(out1)
        assert payload.baseline_flat_rate == 0.05
        assert payload.provenance["command"] == "fit"

    def test_zero_elasticity_refused(self, tmp_path, tiny_csvs):
        load, prices = tiny_csvs
        code = main([
            "fit", "--load", str(load), "--prices", str(prices),
            "--elasticity", "0", "--out", str(tmp_path / "m.tlm"),
        ])
        assert code == 2

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


class TestSolve:
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

    def test_infeasible_exit_3_with_range(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "33",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "feasible range" in err
        assert "32.0" in err

    def test_bad_target_exit_2(self, i2_model_file, capsys):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", "linear",
            "--target-rs", "lots",
        ])
        assert code == 2

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
    def test_solve_matches_pareto_to_printed_digit(self, i2_model_file, capsys, family):
        code = main([
            "solve", "--model", str(i2_model_file), "--family", family,
            "--target-rs", "24",
        ])
        assert code == 0
        solve_out = capsys.readouterr().out
        code = main([
            "pareto", "--model", str(i2_model_file), "--families", family,
            "--f-min", "24", "--f-max", "24", "--steps", "1",
        ])
        assert code == 0
        csv_out = capsys.readouterr().out.splitlines()
        row = csv_out[1].split(",")
        assert row[5] == "true"
        assert f"family: {row[0]}" in solve_out
        for label, value in (
            ("delta_cs", row[2]), ("delta_rs", row[3]), ("delta_sw", row[4])
        ):
            printed = format(float(value), ".4g")
            assert f"{label}: {printed} $/cycle" in solve_out


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


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["check", "--model", str(tmp_path / "nope.tlm")]) == 2
