import json
import subprocess
import sys

import numpy as np
import pytest

from ghzdet import cli, detector


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


class TestCheck:
    def test_ghz_tetrad_infeasible(self, capsys):
        code, out = run_cli("check", "1", "1", "1", "-1", capsys=capsys)
        assert code == 1
        assert "infeasible" in out.out
        assert "F=4" in out.out

    def test_origin_feasible(self, capsys):
        code, out = run_cli("check", "0", "0", "0", "0", capsys=capsys)
        assert code == 0
        assert out.out.startswith("feasible")

    def test_json_slacks(self, capsys):
        code, out = run_cli("check", "0.9", "0.9", "0.9", "-0.9", "--json", capsys=capsys)
        assert code == 1
        payload = json.loads(out.out)
        assert payload["feasible"] is False
        assert len(payload["slacks"]) == 8
        assert payload["f_value"] == pytest.approx(3.6)
        assert payload["witness"] is None

    def test_malformed_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "one", "0", "0", "0"])
        assert exc.value.code == 2

    def test_out_of_range_value(self, capsys):
        code, _ = run_cli("check", "1.5", "0", "0", "0", capsys=capsys)
        assert code == 2


class TestConstructJoint:
    def test_interior_point(self, capsys):
        code, out = run_cli("construct-joint", "0.5", "0.5", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out.out)
        assert payload["atoms"][0] == pytest.approx(0.25)
        assert sum(payload["atoms"]) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_band(self, capsys):
        code, _ = run_cli("construct-joint", "1", "0", capsys=capsys)
        assert code == 2


class TestCorrelation:
    def test_rates_form(self, capsys):
        code, out = run_cli(
            "correlation", "--d", "0.5", "--dark-rate", "300", "--window", "2e-9",
            "--ratio", "1e10", "--json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        assert payload["e"] == pytest.approx(0.9205, abs=5e-4)
        assert payload["sigma"] == pytest.approx(0.391, abs=1e-3)
        assert payload["separation"] == pytest.approx(1.08, abs=1e-2)

    def test_count_ratio_form(self, capsys):
        code, out = run_cli("correlation", "--ratio-counts", "1:12", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out.out)
        assert payload["e"] == pytest.approx(12 / 13, abs=1e-9)
        assert payload["sigma"] == pytest.approx(0.385, abs=1e-3)
        assert payload["separation"] == pytest.approx(1.10, abs=1e-2)

    def test_zero_gamma_saturates(self, capsys):
        code, out = run_cli("correlation", "--d", "0.5", "--gamma", "0", capsys=capsys)
        assert code == 0
        assert "E = 1" in out.out
        assert "saturated" in out.out

    def test_bad_ratio_counts(self, capsys):
        code, _ = run_cli("correlation", "--ratio-counts", "nope", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("counts", ["inf:1", "nan:1", "1e300:1e-300"])
    def test_non_finite_ratio_counts(self, capsys, counts):
        code, out = run_cli("correlation", "--ratio-counts", counts, capsys=capsys)
        assert code == 2
        assert out.out == ""
        assert "--ratio-counts" in out.err

    @pytest.mark.parametrize(
        "rate, window, field",
        [("nan", "1e-9", "dark_rate"), ("1", "nan", "window"), ("inf", "0", "dark_rate")],
    )
    def test_non_finite_rates(self, capsys, rate, window, field):
        code, out = run_cli(
            "correlation", "--dark-rate", rate, "--window", window, capsys=capsys
        )
        assert code == 2
        assert f"{field}=" in out.err


class TestSweep:
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_rows_match_the_scalar_functions(self, tmp_path, capsys, mode):
        # The grid reaches E <= 0.5 (separation nan) at gamma = 1e-3 and a
        # saturated separation (inf) near E = 1 at gamma = 1e-13, d = 1.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-13", "--gamma-max", "1e-3", "--gamma-steps", "6",
            "--d-min", "0.1", "--d-max", "1", "--d-steps", "4",
            "--ratio", "1e10", "--mode", mode, "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        expected = []
        for gamma in np.geomspace(1e-13, 1e-3, 6):
            for d in np.linspace(0.1, 1.0, 4):
                params = detector.DetectorParams.from_ratio(float(d), float(gamma), 1e10)
                e = detector.corrected_correlation(params, mode=mode)
                sigma = detector.sigma_of_correlation(e)
                sep = detector.sigma_separation(e) if e > 0.5 else float("nan")
                expected.append(f"{gamma:.12g},{d:.12g},{e:.12g},{sigma:.12g},{sep:.12g}")
        rows = out_path.read_text().splitlines()[1:]
        assert rows == expected
        assert {row.rsplit(",", 1)[1] for row in rows} >= {"nan", "inf"}

    def test_row_count_and_header(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-7", "--gamma-max", "1e-6", "--gamma-steps", "2",
            "--d-min", "0.4", "--d-max", "0.6", "--d-steps", "2",
            "--ratio", "1e10", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "gamma,d,E,sigma,separation"
        assert len(lines) == 5

    def test_contour_block(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "3",
            "--d-min", "0.5", "--d-max", "0.5", "--d-steps", "2",
            "--ratio", "1e10", "--contour", "0.92", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        text = out_path.read_text()
        assert "# contour E=0.92" in text
        contour = [ln for ln in text.splitlines() if ln.startswith("0.5,")]
        gamma = float(contour[0].split(",")[1])
        assert 5.9e-7 <= gamma <= 6.1e-7

    def test_exact_mode_contour_rejected(self, tmp_path, capsys):
        # The contour inverts the approx model only; with --mode exact it
        # would list gammas that are off the exact level.
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-3", "--gamma-max", "1e-2", "--gamma-steps", "2",
            "--d-min", "0.2", "--d-max", "0.9", "--d-steps", "8", "--ratio", "1e4",
            "--mode", "exact", "--contour", "0.6", "--out", str(out_path), capsys=capsys,
        )
        assert code == 2
        assert "approx" in out.err
        assert not out_path.exists()

    def test_monotone_in_gamma_at_fixed_d(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "12",
            "--d-min", "0.5", "--d-max", "0.5", "--d-steps", "2",
            "--ratio", "1e10", "--out", str(out_path), capsys=capsys,
        )
        rows = [ln.split(",") for ln in out_path.read_text().splitlines()[1:]]
        es = [float(r[2]) for r in rows if r[1] == "0.5"]
        assert es == sorted(es, reverse=True)

    def test_unwritable_path(self, capsys):
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-7", "--gamma-max", "1e-6", "--gamma-steps", "2",
            "--d-min", "0.4", "--d-max", "0.6", "--d-steps", "2",
            "--ratio", "1e10", "--out", "/nonexistent-dir/sweep.csv", capsys=capsys,
        )
        assert code == 2


class TestSimulate:
    def test_requires_seed(self, capsys):
        code, _ = run_cli(
            "simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000", capsys=capsys,
        )
        assert code == 2

    def test_trivial_run(self, capsys):
        code, out = run_cli(
            "simulate", "--gamma", "0", "--d", "1", "--twopair", "1",
            "--setting", "XXX", "--trials", "500", "--seed", "9", "--json",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        assert payload["e_hat"] == -1.0
        assert payload["n_fourfold"] == 500
        assert not payload["flagged"]

    def test_all_dark_limit_exits_cleanly(self, capsys):
        # The additive pair aggregate once gave a fourfold probability of 9.91
        # here, and the comparison failed with a math domain error.
        code, out = run_cli(
            "simulate", "--d", "0", "--gamma", "1", "--pair", "0.99",
            "--trials", "1000", "--seed", "1", "--json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        assert payload["analytic_p4"] == 1.0
        assert payload["n_fourfold"] == 1000
        assert payload["analytic_e"] is None

    def test_no_coincidences_marker(self, capsys):
        code, out = run_cli(
            "simulate", "--gamma", "0", "--d", "0.9", "--pair", "1",
            "--trials", "1000", "--seed", "3", capsys=capsys,
        )
        assert code == 0
        assert "no-coincidences" in out.out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "d=1.0\ngamma=0\ntwopair=1\nsetting=XXX\ntrials=200\nseed=4\n"
        )
        code, out = run_cli("simulate", "--config", str(config), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["e_hat"] == -1.0
        # flag overrides the file value
        code, out = run_cli(
            "simulate", "--config", str(config), "--setting", "XYY", "--json",
            capsys=capsys,
        )
        assert json.loads(out.out)["e_hat"] == 1.0

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        code, _ = run_cli("simulate", "--config", str(config), capsys=capsys)
        assert code == 2

    def test_too_many_trials(self, capsys):
        code, out = run_cli(
            "simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "100000000000000000000", "--seed", "1", capsys=capsys,
        )
        assert code == 2
        assert "n_trials" in out.err

    def test_missing_config_file(self, tmp_path, capsys):
        code, out = run_cli("simulate", "--config", str(tmp_path / "run.cfg"), capsys=capsys)
        assert code == 2
        assert "cannot read" in out.err

    def test_unwritable_event_log(self, tmp_path, capsys):
        code, out = run_cli(
            "simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000", "--seed", "1", "--events", str(tmp_path / "no-dir" / "x.log"),
            capsys=capsys,
        )
        assert code == 2
        assert "cannot write" in out.err

    def test_event_log_written(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        code, out = run_cli(
            "simulate", "--d", "0.5", "--gamma", "0.05", "--pair", "0.5",
            "--trials", "200", "--seed", "6", "--events", str(log), "--json",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        header, *lines = log.read_text().splitlines()
        assert header == "# creation,arrival,ghz,product"
        fields = [ln.split(",") for ln in lines]
        assert all(len(f) == 4 for f in fields)
        assert len(fields) == payload["n_fourfold"]
        assert sum(f[2] == "ghz" for f in fields) == payload["n_ghz_fourfold"]
        products = sum(int(f[3]) for f in fields)
        assert products == round(payload["e_hat"] * payload["n_fourfold"])


class TestQuantum:
    def test_eigenvalue_settings(self, capsys):
        code, out = run_cli("quantum", "XYY", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out.out)
        assert payload["expectation"] == pytest.approx(1.0, abs=1e-12)
        assert sum(o["p"] for o in payload["outcomes"]) == pytest.approx(1.0, abs=1e-12)
        code, out = run_cli("quantum", "XXX", "--json", capsys=capsys)
        assert json.loads(out.out)["expectation"] == pytest.approx(-1.0, abs=1e-12)

    def test_bad_setting(self, capsys):
        code, _ = run_cli("quantum", "XQZ", capsys=capsys)
        assert code == 2


class TestDeterminismBytes:
    def test_byte_identical_json_across_runs_and_workers(self):
        base = [
            sys.executable, "-m", "ghzdet.cli", "simulate",
            "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--setting", "XYY", "--trials", "200000", "--seed", "7",
            "--json",
        ]
        outputs = []
        for workers in ("1", "1", "4"):
            proc = subprocess.run(
                base + ["--workers", workers], capture_output=True, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


class TestJsonRoundTrip:
    def test_numeric_round_trip(self, capsys):
        code, out = run_cli(
            "correlation", "--d", "0.5", "--gamma", "6e-7", "--ratio", "1e10",
            "--json", capsys=capsys,
        )
        payload = json.loads(out.out)
        # full float round trip: loads(dumps(x)) == x
        assert json.loads(json.dumps(payload)) == payload
