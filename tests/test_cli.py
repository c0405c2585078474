import json
import math
import os
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

    @pytest.mark.parametrize("counts", ["inf:1", "nan:1", "1e300:1e-300", "1:inf", "-1:-12"])
    def test_non_finite_ratio_counts(self, capsys, counts):
        # The `=` form keeps argparse from reading "-1:-12" as an option.
        code, out = run_cli("correlation", f"--ratio-counts={counts}", capsys=capsys)
        assert code == 2
        assert out.out == ""
        assert "--ratio-counts" in out.err

    @pytest.mark.parametrize("e_ghz", ["5", "nan"])
    def test_ratio_counts_checks_e_ghz(self, capsys, e_ghz):
        code, out = run_cli("correlation", "--ratio-counts", "1:12", "--e-ghz", e_ghz,
                            capsys=capsys)
        assert code == 2
        assert out.err == f"error: e_ghz={float(e_ghz)} outside [-1, 1]\n"

    def test_no_background_counts_gives_one(self, capsys):
        code, out = run_cli("correlation", "--ratio-counts", "0:1", capsys=capsys)
        assert code == 0
        assert "E = 1\n" in out.out

    @pytest.mark.parametrize("d", ["1e-170", "1e-300", "1e-310"])
    @pytest.mark.parametrize("gamma", ["0", "1e-7", "1"])
    @pytest.mark.parametrize("ratio", ["0", "1e10"])
    def test_approx_at_tiny_efficiency(self, capsys, d, gamma, ratio):
        # d^2 underflows to 0 here; (gamma/d)^2 does not divide by it.  At
        # d = 1e-310, gamma = 1 even gamma/d overflows, and at ratio 0 there
        # is still no background.
        code, out = run_cli("correlation", "--d", d, "--gamma", gamma, "--ratio", ratio,
                            "--json", capsys=capsys)
        assert code == 0, out.err
        e = json.loads(out.out)["e"]
        assert e == (1.0 if gamma == "0" or ratio == "0" else 0.0)

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

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "1e-7", "--dark-rate", "300", "--window", "2e-9"], "not both"),
        (["--gamma", "1e-7", "--window", "2e-9"], "not both"),
        (["--gamma", "1e-7", "--dark-rate", "300"], "not both"),
        (["--window", "2e-9"], "--window requires --dark-rate"),
        (["--ratio-counts", "1:12", "--gamma", "1e-7"], "--ratio-counts takes no"),
        (["--ratio-counts", "1:12", "--dark-rate", "300", "--window", "2e-9"],
         "--ratio-counts takes no"),
        (["--ratio-counts", "1:12", "--window", "2e-9"], "--ratio-counts takes no"),
        (["--ratio-counts", "1:12", "--d", "0.1"], "--ratio-counts takes no"),
        (["--ratio-counts", "1:12", "--ratio", "5"], "--ratio-counts takes no"),
        (["--ratio-counts", "1:12", "--mode", "exact"], "--ratio-counts takes no"),
    ])
    def test_conflicting_inputs_are_rejected(self, capsys, flags, message):
        # Each of these once printed an E from one input and ignored the rest.
        code, out = run_cli("correlation", *flags, capsys=capsys)
        assert code == 2
        assert out.out == ""
        assert message in out.err


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

    def test_csv_equals_the_per_cell_reference(self, tmp_path, capsys):
        # One f-string per cell, from the same arrays, is the reference for the
        # whole file.  The grid holds nan separations (E <= 0.5 at gamma =
        # 1e-3), a saturated one (inf at gamma = 1e-12, d = 0.9) and the contour.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-12", "--gamma-max", "1e-3", "--gamma-steps", "7",
            "--d-min", "0.1", "--d-max", "0.9", "--d-steps", "5", "--ratio", "1e10",
            "--contour", "0.92", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        gammas = np.geomspace(1e-12, 1e-3, 7)
        ds = np.linspace(0.1, 0.9, 5)
        grid_gamma, grid_d = np.meshgrid(gammas, ds, indexing="ij")
        params = detector.DetectorParams.from_ratio(grid_d, grid_gamma, 1e10)
        e = detector.corrected_correlation(params)
        sigma, sep = detector.sigma_of_correlation(e), detector.sigma_separation(e)
        lines = ["gamma,d,E,sigma,separation"]
        for i, gamma in enumerate(gammas):
            for j, d in enumerate(ds):
                cell = (e[i, j], sigma[i, j], sep[i, j])
                lines.append(f"{gamma:.12g},{d:.12g},{cell[0]:.12g},{cell[1]:.12g},{cell[2]:.12g}")
        lines += ["# contour E=0.92", "d,gamma"]
        lines += [f"{d:.12g},{detector.find_gamma_for_correlation(float(d), 1e10, 0.92):.12g}"
                  for d in ds]
        text = out_path.read_text()
        assert text == "\n".join(lines) + "\n"
        assert lines[5].startswith("1e-12,0.9,") and lines[5].endswith(",inf")
        assert lines[35].startswith("0.001,") and lines[35].endswith(",nan")

    @pytest.mark.parametrize("d_min, ratio, e_tiny",
                             [("1e-170", "1e10", "0"), ("1e-310", "1e10", "0"), ("1e-310", "0", "1")])
    def test_tiny_efficiency_is_quiet(self, tmp_path, capsys, d_min, ratio, e_tiny):
        # (gamma/d)^2 overflows at d = 1e-170 and gamma/d at d = 1e-310: E is
        # 0 there with a background and e_ghz without one, and numpy says
        # nothing on stderr.
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-3", "--gamma-max", "1", "--gamma-steps", "2",
            "--d-min", d_min, "--d-max", "1", "--d-steps", "2",
            "--ratio", ratio, "--out", str(out_path), capsys=capsys,
        )
        assert (code, out.err) == (0, "")
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        assert [row[2] for row in rows if row[1] == d_min] == [e_tiny, e_tiny]

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

    @pytest.mark.parametrize("level", ["nan", "5", "-1", "0"])
    def test_impossible_contour_level_rejected(self, tmp_path, capsys, level):
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "3",
            "--d-min", "0.5", "--d-max", "0.6", "--d-steps", "2", "--ratio", "1e10",
            "--contour", level, "--out", str(out_path), capsys=capsys,
        )
        assert code == 2
        assert "--contour" in out.err
        assert not out_path.exists()

    def test_unreached_contour_level_gives_empty_block(self, tmp_path, capsys):
        # E = 1e-12 needs gamma = 2.0 at d = 0.5 and 2.4 at d = 0.6.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "3",
            "--d-min", "0.5", "--d-max", "0.6", "--d-steps", "2", "--ratio", "1e10",
            "--contour", "1e-12", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        assert out_path.read_text().endswith("# contour E=1e-12\nd,gamma\n")

    def test_contour_crossed_at_large_gamma(self, tmp_path, capsys):
        # The grid reaches gamma = 1, and E = 0.5 at ratio 1 is crossed at
        # gamma = d / sqrt(6): a level above gamma = 1e-3 is not dropped.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-3", "--gamma-max", "1", "--gamma-steps", "3",
            "--d-min", "0.5", "--d-max", "0.6", "--d-steps", "2", "--ratio", "1",
            "--contour", "0.5", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        block = out_path.read_text().split("# contour E=0.5\nd,gamma\n")[1]
        assert [row.split(",")[0] for row in block.splitlines()] == ["0.5", "0.6"]
        for row in block.splitlines():
            d, gamma = map(float, row.split(","))
            assert gamma == pytest.approx(d / math.sqrt(6.0), rel=1e-12)

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure(self, capsys):
        # /dev/full opens but fails every write (or the flush on close).
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-7", "--gamma-max", "1e-6", "--gamma-steps", "2",
            "--d-min", "0.4", "--d-max", "0.6", "--d-steps", "2",
            "--ratio", "1e10", "--out", "/dev/full", capsys=capsys,
        )
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: cannot write /dev/full: ")

    @pytest.mark.parametrize("flag, value", [
        ("--ratio", "-1"), ("--ratio", "nan"), ("--e-ghz", "2"),
        ("--d-min", "0"), ("--gamma-steps", "1"),
    ])
    def test_rejected_grid_writes_no_file(self, tmp_path, capsys, flag, value):
        # The file is opened only after the whole grid is computed.  The
        # flag comes last, and argparse keeps the last value given.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-7", "--gamma-max", "1e-6", "--gamma-steps", "2",
            "--d-min", "0.4", "--d-max", "0.6", "--d-steps", "2",
            "--ratio", "1e10", "--out", str(out_path), flag, value, capsys=capsys,
        )
        assert code == 2
        assert not out_path.exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_sweep_memory_does_not_hold_the_file(self, tmp_path, mode):
        # The 300x300 grid's CSV is 6.7 MB.  Holding its text, joined and
        # encoded, grew the peak resident set by 24 MB over the imports;
        # writing it row by row grows it by 8 MB.  VmHWM is this process's
        # own peak; ru_maxrss would carry the parent's peak into the child.
        script = (
            "import sys\n"
            "import numpy\n"
            "from ghzdet import cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(ln.split()[1]) for ln in f if ln.startswith('VmHWM:'))\n"
            "before = hwm()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, hwm() - before)\n"
        )
        proc = subprocess.run([
            sys.executable, "-c", script, "sweep", "--mode", mode,
            "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "300",
            "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "300",
            "--ratio", "1e10", "--out", str(tmp_path / "sweep.csv"),
        ] + (["--contour", "0.92"] if mode == "approx" else []),
            capture_output=True, text=True, check=True)
        code, growth_kb = map(int, proc.stdout.split()[-2:])
        assert code == 0
        assert growth_kb <= 16 * 1024


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

    @pytest.mark.parametrize("line, flag", [("trials=1e6", "--trials"), ("d=abc", "--d")])
    def test_config_type_error_names_the_flag(self, tmp_path, capsys, line, flag):
        config = tmp_path / "run.cfg"
        config.write_text(f"d=0.5\ngamma=1e-2\npair=0.99\ntrials=1000\nseed=1\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(config)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_config_value_beats_parser_default(self, tmp_path, capsys):
        flags = ("--d", "0.5", "--gamma", "1e-2", "--pair", "0.99", "--trials", "1000",
                 "--seed", "1", "--json")
        _, out = run_cli("simulate", *flags, capsys=capsys)
        full = json.loads(out.out)["analytic_e"]
        config = tmp_path / "run.cfg"
        config.write_text("e-ghz=0.5\n")
        code, out = run_cli("simulate", "--config", str(config), *flags, capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["analytic_e"] == full / 2

    def test_seed_flag_beats_config_seed(self, tmp_path, capsys):
        flags = ("--d", "0.5", "--gamma", "0.05", "--pair", "0.5", "--trials", "2000", "--json")
        config = tmp_path / "run.cfg"
        config.write_text("seed=4\n")
        _, from_flag = run_cli("simulate", *flags, "--seed", "5", capsys=capsys)
        _, overridden = run_cli(
            "simulate", "--config", str(config), *flags, "--seed", "5", capsys=capsys
        )
        _, from_file = run_cli("simulate", "--config", str(config), *flags, capsys=capsys)
        assert overridden.out == from_flag.out
        assert overridden.out != from_file.out

    def test_config_file_and_flags_print_identical_json(self, tmp_path, capsys):
        values = {"d": "0.7", "gamma": "0.03", "pair": "0.6", "twopair": "0.4", "e-ghz": "0.9",
                  "setting": "XXX", "trials": "3000", "seed": "11", "workers": "2"}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        flags = [token for k, v in values.items() for token in (f"--{k}", v)]
        _, from_flags = run_cli("simulate", *flags, "--json", capsys=capsys)
        code, from_file = run_cli("simulate", "--config", str(config), "--json", capsys=capsys)
        assert code == 0
        assert from_file.out == from_flags.out

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        # Some editors save UTF-8 with a leading BOM; it is not part of the first key.
        text = "d=0.5\ngamma=1e-2\npair=0.99\ntrials=100000\nseed=2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        _, from_plain = run_cli("simulate", "--config", str(plain), "--json", capsys=capsys)
        code, from_marked = run_cli("simulate", "--config", str(marked), "--json", capsys=capsys)
        assert code == 0, from_marked.err
        assert from_marked.out == from_plain.out

    @pytest.mark.parametrize("flag", ["--pair", "--twopair"])
    def test_ratio_excludes_pair_flags(self, tmp_path, capsys, flag):
        flags = ("--d", "0.5", "--gamma", "1e-2", "--trials", "1000", "--seed", "1")
        code, out = run_cli("simulate", *flags, "--ratio", "99", flag, "0.5", capsys=capsys)
        assert code == 2
        assert "--ratio" in out.err and flag in out.err
        config = tmp_path / "run.cfg"
        config.write_text("ratio=99\n")
        code, out = run_cli("simulate", "--config", str(config), *flags, flag, "0.5",
                            capsys=capsys)
        assert code == 2
        assert "--ratio" in out.err and flag in out.err

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_event_log_write_failure(self, capsys):
        # /dev/full opens but fails every write: an OSError once escaped with exit 1.
        code, out = run_cli(
            "simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000000", "--seed", "1", "--events", "/dev/full", capsys=capsys,
        )
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: cannot write /dev/full: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_event_log_is_streamed(self, capsys):
        # About 7.4e15 fourfolds: a log held in memory before it is written
        # died here with MemoryError and exit 1.
        code, out = run_cli(
            "simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", str(2**63 - 1), "--seed", str(2**64 - 1), "--e-ghz", "0.3",
            "--setting", "XXX", "--json", "--events", "/dev/full", capsys=capsys,
        )
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: cannot write /dev/full: ")

    def test_fourfolds_without_a_model_correlation(self, capsys):
        # p_twopair = 0: fourfolds from dark counts, but no model E.
        code, out = run_cli(
            "simulate", "--d", "0.9", "--gamma", "0.1", "--pair", "1",
            "--trials", "100000", "--seed", "3", capsys=capsys,
        )
        assert code == 0
        # The count is Binomial(n, p4): within 5 sigma of n * p4 (about 4901.5
        # and 68 here) whatever the generator draws.
        n = 100_000
        p4 = detector.fourfold_probability(detector.DetectorParams(0.9, 0.1, 1.0, 0.0))
        count = int(out.out.split("fourfold coincidences = ")[1].split("\n")[0])
        assert abs(count - n * p4) <= 5 * (n * p4 * (1 - p4)) ** 0.5
        assert "analytic E = undefined" in out.out
        assert "no coincidences" not in out.out
        assert "z(correlation) = n/a (model E undefined for this source), z(fourfold rate) = " \
            in out.out

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
