import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import pytest

from ghzdet import cli, detector, lhv, montecarlo
from references import exact_e_reference


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


@pytest.fixture
def fails(capsys, tmp_path, monkeypatch):
    """fails(argv, message): ghzdet refuses the call in one line and leaves
    nothing behind.

    Its own error returns 2 with stderr exactly `error: <message>`; a message
    that ends in ": " is followed on that line by the OS's text.  With prog,
    argparse's usage error raises SystemExit(2) and the last line of stderr is
    `<prog>: error: <message>`.  Either way stdout is empty, no file appears
    under tmp_path and no child process is left.  A sweep checks its input
    before it forks: it may fork no helper, though _parts gives it two,
    unless parts names the processes it runs on."""

    def fork():
        raise AssertionError("forked before the input was checked")

    def check(argv, message, prog=None, parts=None):
        monkeypatch.setattr(cli, "_parts", lambda cells: parts or 2)
        if parts is None:
            monkeypatch.setattr(os, "fork", fork)
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        if prog is None:
            code = cli.main(list(argv))
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main(list(argv))
            code = exc.value.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        if prog is not None:
            assert err.endswith(f"\n{prog}: error: {message}\n"), err
        elif message.endswith(": "):
            assert re.fullmatch(re.escape(f"error: {message}") + ".+\n", err), err
        else:
            assert err == f"error: {message}\n"
        assert set(tmp_path.rglob("*")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check


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

    def test_one_float_past_the_bound(self, capsys):
        # F = 2.0000000000000004: the bounds are inclusive, but not by an ulp more.
        code, out = run_cli("check", *["0.5000000000000001"] * 3, "-0.5000000000000001",
                            capsys=capsys)
        assert code == 1
        assert out.out.startswith("infeasible, F=2\n")

    def test_malformed_number(self, fails):
        fails(["check", "one", "0", "0", "0"], "argument e_a: invalid float value: 'one'",
              prog="ghzdet check")

    def test_out_of_range_value(self, fails):
        fails(["check", "1.5", "0", "0", "0"], "e_a=1.5 outside [-1, 1]")


class TestConstructJoint:
    def test_interior_point(self, capsys):
        code, out = run_cli("construct-joint", "0.5", "0.5", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out.out)
        assert payload["atoms"][0] == pytest.approx(0.25)
        assert sum(payload["atoms"]) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_band(self, fails):
        fails(["construct-joint", "1", "0"], "3p - q = 3.0 > 2: above the symmetric feasibility band")


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

    def test_at_the_bound_names_it(self, capsys):
        # 1:1 gives E = 1/2 = detector.LHV_BOUND, where no separation exists.
        code, out = run_cli("correlation", "--ratio-counts", "1:1", capsys=capsys)
        assert code == 0
        assert out.out == "E = 0.5\nsigma = 0.866025403784\nseparation = n/a (|E| <= 0.5)\n"

    def test_negative_correlation_has_a_separation(self, capsys):
        # The LHV bound is on |E|: E = -12/13 is as far beyond it as +12/13,
        # and `check` finds its tetrad infeasible.
        _, neg = run_cli("correlation", "--ratio-counts", "1:12", "--e-ghz", "-1", capsys=capsys)
        _, pos = run_cli("correlation", "--ratio-counts", "1:12", capsys=capsys)
        assert neg.out.splitlines()[0] == "E = -0.923076923077"
        assert neg.out.splitlines()[1:] == pos.out.splitlines()[1:]
        assert neg.out.splitlines()[-1] == "separation = 1.1"

    @pytest.mark.parametrize("flags, head", [
        (("--d", "0.5", "--gamma", "6e-7", "--mode", "exact"), "E = 0.920469683013"),
        # The signal leaves the normal range here; exact E is 6.25e-12.
        (("--d", "1e-100", "--gamma", "1e-100", "--mode", "exact"), "E = 6.24999999969e-12"),
    ], ids=["paper-exact", "subnormal-signal-exact"])
    def test_text_head(self, capsys, flags, head):
        code, out = run_cli("correlation", *flags, capsys=capsys)
        assert (code, out.err) == (0, "")
        assert out.out.splitlines()[0] == head

    def test_exact_json_at_the_paper_point(self, capsys):
        code, out = run_cli("correlation", "--d", "0.5", "--gamma", "6e-7", "--mode", "exact",
                            "--json", capsys=capsys)
        assert code == 0
        params = detector.DetectorParams.from_ratio(0.5, 6e-7, 1e10)
        assert json.loads(out.out)["e"] == exact_e_reference(params) == 0.9204696830127151

    def test_bad_ratio_counts(self, fails):
        fails(["correlation", "--ratio-counts", "nope"],
              "--ratio-counts expects A:B with B > 0, got 'nope'")

    @pytest.mark.parametrize("counts", ["inf:1", "nan:1", "1e300:1e-300", "1:inf", "-1:-12"])
    def test_non_finite_ratio_counts(self, fails, counts):
        # The `=` form keeps argparse from reading "-1:-12" as an option.
        # 1e300:1e-300 has finite counts, but not a finite ratio.
        need = ("must give a finite ratio" if counts == "1e300:1e-300"
                else "needs finite counts A >= 0 and B > 0")
        fails(["correlation", f"--ratio-counts={counts}"], f"--ratio-counts {need}, got {counts!r}")

    @pytest.mark.parametrize("e_ghz", ["5", "nan"])
    def test_ratio_counts_checks_e_ghz(self, fails, e_ghz):
        fails(["correlation", "--ratio-counts", "1:12", "--e-ghz", e_ghz],
              f"e_ghz={float(e_ghz)} outside [-1, 1]")

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

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_no_darks_at_a_huge_ratio(self, capsys, mode):
        # 6 p_pair / p_twopair overflows to inf at ratio 1e308, and inf * 0
        # once made the approx E nan: "correlation nan outside [-1, 1]".
        code, out = run_cli("correlation", "--d", "0.5", "--gamma", "0", "--ratio", "1e308",
                            "--mode", mode, "--json", capsys=capsys)
        assert code == 0, out.err
        assert json.loads(out.out)["e"] == 1.0

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_dark_counts_at_a_huge_ratio(self, capsys, mode):
        # 6 p_pair / p_twopair overflows at ratio 1e308; approx E was once 0,
        # though its formula gives 1 / (1 + 2.4e-11).
        code, out = run_cli("correlation", "--d", "0.5", "--gamma", "1e-160", "--ratio", "1e308",
                            "--mode", mode, capsys=capsys)
        assert code == 0, out.err
        assert out.out.splitlines()[0] == "E = 0.999999999976"

    def test_dark_counts_where_gamma_over_d_overflows(self, capsys):
        # gamma / d = 1e310 overflows, yet at ratio 5e-324 the approx formula
        # gives 1 / (1 + 6 ratio 1e620) = 3.37e-298; approx E was once 0.
        code, out = run_cli("correlation", "--d", "1e-310", "--gamma", "1", "--ratio", "5e-324",
                            "--json", capsys=capsys)
        assert code == 0, out.err
        want = 3.3733708884551564e-298
        assert abs(json.loads(out.out)["e"] - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize(
        "rate, window, field",
        [("nan", "1e-9", "dark_rate"), ("1", "nan", "window"), ("inf", "0", "dark_rate")],
    )
    def test_non_finite_rates(self, fails, rate, window, field):
        value = {"dark_rate": rate, "window": window}[field]
        fails(["correlation", "--dark-rate", rate, "--window", window],
              f"{field}={float(value)} must be finite and >= 0")

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
    def test_conflicting_inputs_are_rejected(self, fails, flags, message):
        # Each of these once printed an E from one input and ignored the rest.
        fails(["correlation", *flags], {
            "not both": "give --gamma or --dark-rate/--window, not both",
            "--ratio-counts takes no": "--ratio-counts takes no --gamma, --dark-rate, --window, "
                                       "--d, --ratio or --mode",
        }.get(message, message))


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
        for gamma in cli._geomspace(1e-13, 1e-3, 6):
            for d in cli._linspace(0.1, 1.0, 4):
                params = detector.DetectorParams.from_ratio(float(d), float(gamma), 1e10)
                e = detector.corrected_correlation(params, mode=mode)
                sigma = detector.sigma_of_correlation(e)
                sep = detector.sigma_separation(e) if e > 0.5 else float("nan")
                expected.append(f"{gamma:.12g},{d:.12g},{e:.12g},{sigma:.12g},{sep:.12g}")
        rows = out_path.read_text().splitlines()[1:]
        assert rows == expected
        assert {row.rsplit(",", 1)[1] for row in rows} >= {"nan", "inf"}

    def test_csv_equals_the_per_cell_reference(self, tmp_path, capsys):
        # One f-string per cell, from the float functions on the same axes, is
        # the reference for the whole file.  The grid holds nan separations
        # (E <= 0.5 at gamma = 1e-3), a saturated one (inf at gamma = 1e-12,
        # d = 0.9) and the contour.
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-12", "--gamma-max", "1e-3", "--gamma-steps", "7",
            "--d-min", "0.1", "--d-max", "0.9", "--d-steps", "5", "--ratio", "1e10",
            "--contour", "0.92", "--out", str(out_path), capsys=capsys,
        )
        assert (code, out.out, out.err) == (0, f"wrote 35 rows to {out_path}\n", "")
        gammas, ds = cli._geomspace(1e-12, 1e-3, 7), cli._linspace(0.1, 0.9, 5)
        lines = ["gamma,d,E,sigma,separation"]
        for gamma in gammas:
            for d in ds:
                e = detector.corrected_correlation(detector.DetectorParams.from_ratio(d, gamma, 1e10))
                cell = (e, detector.sigma_of_correlation(e), detector.sigma_separation(e))
                lines.append(f"{gamma:.12g},{d:.12g},{cell[0]:.12g},{cell[1]:.12g},{cell[2]:.12g}")
        lines += ["# contour E=0.92", "d,gamma"]
        lines += [f"{d:.12g},{detector.find_gamma_for_correlation(d, 1e10, 0.92):.12g}"
                  for d in ds]
        text = out_path.read_text()
        assert text == "\n".join(lines) + "\n"
        assert lines[5].startswith("1e-12,0.9,") and lines[5].endswith(",inf")
        assert lines[35].startswith("0.001,") and lines[35].endswith(",nan")

    @pytest.mark.parametrize("start, stop, num", [
        (1e-8, 1e-5, 300), (0.3, 0.9, 300), (1e-12, 1e-3, 7), (0.5, 0.5, 2), (1e-3, 1.0, 3),
        (1e-310, 1.0, 5), (5e-324, 1e-323, 4), (1e-100, 1e-80, 3),
    ])
    def test_axes_follow_numpy(self, start, stop, num):
        # numpy is the reference here only.  The d axis is linspace bit for
        # bit, the subnormal step that underflows to 0 included; the gamma
        # axis is geomspace to one ulp, since libm's pow and numpy's may round
        # apart, with both ends exact.
        np = pytest.importorskip("numpy")
        assert cli._linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
        gammas, want = cli._geomspace(start, stop, num), np.geomspace(start, stop, num).tolist()
        assert (gammas[0], gammas[-1]) == (start, stop) and len(gammas) == num
        for got, ref in zip(gammas, want):
            assert got == ref or math.nextafter(got, ref) == ref, (got, ref)

    @pytest.mark.parametrize("d_min, ratio, e_tiny",
                             [("1e-170", "1e10", "0"), ("1e-310", "1e10", "0"), ("1e-310", "0", "1")])
    def test_tiny_efficiency_is_quiet(self, tmp_path, capsys, d_min, ratio, e_tiny):
        # (gamma/d)^2 overflows at d = 1e-170 and gamma/d at d = 1e-310: E is
        # 0 there with a background and e_ghz without one, and nothing is
        # said on stderr.
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

    def test_exact_mode_contour_rejected(self, fails, tmp_path):
        # The contour inverts the approx model only; with --mode exact it
        # would list gammas that are off the exact level.
        fails(["sweep", "--gamma-min", "1e-3", "--gamma-max", "1e-2", "--gamma-steps", "2",
               "--d-min", "0.2", "--d-max", "0.9", "--d-steps", "8", "--ratio", "1e4",
               "--mode", "exact", "--contour", "0.6", "--out", str(tmp_path / "sweep.csv")],
              "--contour inverts only the approx model; use --mode approx")

    @pytest.mark.parametrize("level", ["nan", "5", "-1", "0"])
    def test_impossible_contour_level_rejected(self, fails, tmp_path, level):
        fails(["sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "3",
               "--d-min", "0.5", "--d-max", "0.6", "--d-steps", "2", "--ratio", "1e10",
               "--contour", level, "--out", str(tmp_path / "sweep.csv")],
              f"--contour {float(level)} is outside (0, --e-ghz 1.0]")

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

    def test_contour_at_a_huge_ratio(self, tmp_path, capsys):
        # 6 ratio overflows at ratio 1e308; the contour once read gamma = 0,
        # where E = 1, at every d.
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "2",
            "--d-min", "0.3", "--d-max", "0.7", "--d-steps", "3", "--ratio", "1e308",
            "--contour", "0.5", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        block = out_path.read_text().split("# contour E=0.5\nd,gamma\n")[1]
        assert block.splitlines()[1] == "0.5,2.04124145232e-155"

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

    def test_unwritable_path(self, fails):
        fails([*SWEEP_2X2, "--out", "/nonexistent-dir/sweep.csv"],
              "cannot write /nonexistent-dir/sweep.csv: ", parts=1)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure(self, fails):
        # /dev/full opens but fails every write (or the flush on close).
        fails([*SWEEP_2X2, "--out", "/dev/full"], "cannot write /dev/full: ", parts=1)

    @pytest.mark.parametrize("flag, value", [
        ("--ratio", "-1"), ("--ratio", "nan"), ("--e-ghz", "2"),
        ("--d-min", "0"), ("--gamma-steps", "1"),
    ])
    def test_rejected_grid_writes_no_file(self, fails, tmp_path, flag, value):
        # The file is opened, and a helper forked, only after every check of
        # the grid, so a rejected grid forks nothing even where it would run
        # on two processes.  The flag comes last, and argparse keeps the last
        # value given.
        fails([*SWEEP_2X2, "--out", str(tmp_path / "sweep.csv"), flag, value], {
            ("--ratio", "-1"): "ratio=-1.0 must be finite and >= 0",
            ("--ratio", "nan"): "ratio=nan must be finite and >= 0",
            ("--e-ghz", "2"): "e_ghz=2.0 outside [-1, 1]",
            ("--d-min", "0"): "d bounds must satisfy 0 < min <= max <= 1",
            ("--gamma-steps", "1"): "step counts must be >= 2",
        }[flag, value])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_huge_grid_fails_at_the_first_write(self):
        # 300000 x 300000 cells: the sweep holds only the two axes and one
        # gamma row, so under a 1 GiB address-space limit it computes the
        # first row and stops at once where /dev/full refuses the write.
        resource = pytest.importorskip("resource")

        def limit_address_space():
            limit = 1 << 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run([
            sys.executable, "-m", "ghzdet.cli", "sweep",
            "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "300000",
            "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "300000",
            "--ratio", "1e10", "--mode", "exact", "--out", "/dev/full",
        ], capture_output=True, text=True, preexec_fn=limit_address_space, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write /dev/full: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_exact_sweep_at_tiny_d_and_gamma(self, tmp_path, capsys):
        # The signal leaves the normal range on this grid; the exact sweep
        # once stopped with "fourfold probability underflows" (exit 2).
        out_path = tmp_path / "sweep.csv"
        code, out = run_cli(
            "sweep", "--gamma-min", "1e-100", "--gamma-max", "1e-80", "--gamma-steps", "3",
            "--d-min", "1e-100", "--d-max", "1e-80", "--d-steps", "3",
            "--ratio", "1e10", "--mode", "exact", "--out", str(out_path), capsys=capsys,
        )
        assert (code, out.err) == (0, "")
        rows = [list(map(float, row.split(","))) for row in out_path.read_text().splitlines()[1:]]
        assert len(rows) == 9
        for gamma, d, e, _, _ in rows:
            want = exact_e_reference(detector.DetectorParams.from_ratio(d, gamma, 1e10))
            # The CSV prints 12 digits of E, gamma and d.
            assert e == pytest.approx(want, rel=1e-10), (gamma, d)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_sweep_memory_does_not_hold_the_file(self, tmp_path, mode):
        # The 300x300 grid's CSV is 6.7 MB.  Holding its text, joined and
        # encoded, grew the peak resident set by 24 MB over the imports;
        # writing it row by row grows it by 8 MB.  VmHWM is this process's
        # own peak; ru_maxrss would carry the parent's peak into the child.
        # The sweep runs on two processes.  A helper starts as a copy of the
        # parent, so its peak, ru_maxrss of the reaped children, is bounded
        # from the parent's VmHWM before the sweep.  On Linux and Python 3.11
        # it read about 2 MB below that mark, and 9 MB above it where the
        # helper joined its half of the rows into one text before sending.
        script = (
            "import resource, sys\n"
            "from ghzdet import cli\n"
            "cli._parts = lambda cells: 2\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(ln.split()[1]) for ln in f if ln.startswith('VmHWM:'))\n"
            "before = hwm()\n"
            "code = cli.main(sys.argv[1:])\n"
            "helpers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(code, hwm() - before, helpers - before)\n"
        )
        proc = subprocess.run([
            sys.executable, "-c", script, "sweep", "--mode", mode,
            "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "300",
            "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "300",
            "--ratio", "1e10", "--out", str(tmp_path / "sweep.csv"),
        ] + (["--contour", "0.92"] if mode == "approx" else []),
            capture_output=True, text=True, check=True)
        code, growth_kb, helper_kb = map(int, proc.stdout.split()[-3:])
        assert code == 0
        assert growth_kb <= 16 * 1024
        assert helper_kb <= 4 * 1024


# The benchmark's 300 x 300 grid.
GRID_300 = ("--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "300",
            "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "300", "--ratio", "1e10")


def sweep_bytes(tmp_path, monkeypatch, parts, *flags):
    """The CSV a sweep writes when it runs on `parts` processes."""
    monkeypatch.setattr(cli, "_parts", lambda cells: parts)
    out_path = tmp_path / f"sweep-{parts}.csv"
    assert cli.main(["sweep", *flags, "--out", str(out_path)]) == 0
    return out_path.read_bytes()


class TestSweepParts:
    """A sweep's rows are shared by forked helpers, one per CPU, and the
    parent writes them in gamma order, so the CSV does not depend on how many
    processes made it."""

    def test_part_count(self):
        assert cli._parts(20 * 7) == 1  # the README's example: too small to split
        assert cli._parts(cli._FORK_CELLS - 1) == 1
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
            assert cli._parts(300 * 300) == len(os.sched_getaffinity(0))

    def test_rows_marshal_cannot_send_run_in_one_process(self, monkeypatch):
        # marshal writes no object of 2 GiB or more.  A cell's text is at
        # most 96 bytes: five %.12g fields of a 3-digit exponent, E with a
        # sign, four commas and a newline.  So a gamma row of 2^31 / 96 d
        # steps or more stays in the parent, and no row is ever too big.
        x = 1.23456789012e-100  # gamma, d, E, sigma and separation
        widest = (x, x, -x, x, x)
        assert len("%.12g,%.12g,%.12g,%.12g,%.12g\n" % widest) == 96
        monkeypatch.setattr(cli, "_parts", lambda cells: 4)
        fits = (1 << 31) // 96  # 22,369,621 cells: 2,147,483,616 bytes
        assert cli._sweep_parts(300, fits) == 4
        assert cli._sweep_parts(300, fits + 1) == 1
        assert cli._sweep_parts(3, 300) == 3  # one part per row at most

    @pytest.mark.parametrize("parts", [2, 3, 10])  # 10: more parts than rows
    @pytest.mark.parametrize("gamma_steps", [2, 3, 7])
    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_small_grids_same_bytes(self, tmp_path, monkeypatch, capsys, parts, gamma_steps, mode):
        flags = ("--gamma-min", "1e-12", "--gamma-max", "1e-3", "--gamma-steps", str(gamma_steps),
                 "--d-min", "0.1", "--d-max", "0.9", "--d-steps", "5", "--ratio", "1e10",
                 "--mode", mode) + (("--contour", "0.92") if mode == "approx" else ())
        assert sweep_bytes(tmp_path, monkeypatch, parts, *flags) == sweep_bytes(
            tmp_path, monkeypatch, 1, *flags)

    @pytest.mark.parametrize("flags", [("--mode", "approx", "--contour", "0.92"),
                                       ("--mode", "exact")], ids=["approx", "exact"])
    def test_benchmark_grid_same_bytes(self, tmp_path, monkeypatch, capsys, flags):
        one = sweep_bytes(tmp_path, monkeypatch, 1, *GRID_300, *flags)
        # A header and 90000 rows, then with --contour its two header lines
        # and one row per d.
        assert one.count(b"\n") == 1 + 90_000 + (2 + 300 if "--contour" in flags else 0)
        for parts in (2, 3):
            assert sweep_bytes(tmp_path, monkeypatch, parts, *GRID_300, *flags) == one

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_pinned_to_one_cpu_same_bytes(self, tmp_path):
        cpu = min(os.sched_getaffinity(0))

        def sweep(name, preexec_fn=None):
            out_path = tmp_path / name
            subprocess.run([sys.executable, "-m", "ghzdet.cli", "sweep", *GRID_300,
                            "--mode", "exact", "--out", str(out_path)],
                           capture_output=True, check=True, preexec_fn=preexec_fn, timeout=60)
            return out_path.read_bytes()

        assert sweep("pinned.csv", lambda: os.sched_setaffinity(0, {cpu})) == sweep("free.csv")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("parts", [2, 3])
    def test_write_failure_leaves_no_helper(self, fails, parts):
        # A helper left running, or not reaped, would outlive the call.
        fails(["sweep", *GRID_300, "--out", "/dev/full"], "cannot write /dev/full: ", parts=parts)

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    @pytest.mark.parametrize("parts", [2, 3])
    def test_helper_that_cannot_start(self, fails, tmp_path, monkeypatch, call, parts):
        # The last helper cannot start, before the file is opened: the error
        # names the helper, not the file, and leaves neither the file nor a
        # helper that did start.
        calls, real = [], getattr(os, call)

        def fail_last():
            calls.append(call)
            if len(calls) == parts - 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, call, fail_last)
        fails([*SWEEP_3X3, "--out", str(tmp_path / "sweep.csv")],
              "cannot start a sweep helper: [Errno 11] Resource temporarily unavailable",
              parts=parts)

    def test_failed_helper_is_a_write_error(self, fails, monkeypatch):
        # A helper that stops before sending its rows says nothing itself;
        # the parent reports the file it could not complete, here the null
        # device, since a file it began stays.
        parent, correlation_rows = os.getpid(), detector.correlation_rows

        def rows(*args):
            for row in correlation_rows(*args):
                if os.getpid() != parent:
                    raise RuntimeError("helper failed")
                yield row

        monkeypatch.setattr(detector, "correlation_rows", rows)
        fails(["sweep", *GRID_300, "--out", os.devnull],
              f"cannot write {os.devnull}: a sweep helper stopped before it sent all its rows",
              parts=2)

    def test_fork_beside_a_thread_warns_nothing(self, tmp_path, monkeypatch, capsys):
        # From Python 3.12 os.fork warns where the process runs other threads,
        # as it does once numpy is imported, and the sweep silences that one
        # warning around its fork.  Warnings are recorded here, since 3.12 and
        # 3.13 drop the exception that the `error` filter makes of it.
        monkeypatch.setattr(cli, "_parts", lambda cells: 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _ = run_cli("sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5",
                                  "--gamma-steps", "4", "--d-min", "0.3", "--d-max", "0.9",
                                  "--d-steps", "3", "--ratio", "1e10",
                                  "--out", str(tmp_path / "sweep.csv"), capsys=capsys)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0
        assert [str(w.message) for w in caught] == []


class TestSimulate:
    def test_requires_seed(self, fails):
        fails(["simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99", "--trials", "1000"],
              "simulate requires an explicit seed (no time-based seeding)")

    def test_trivial_run(self, capsys):
        code, out = run_cli(
            "simulate", "--gamma", "0", "--d", "1", "--pair", "0",
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

    @pytest.mark.parametrize("e_ghz, setting", [("-0.5", "XXY"), ("0", "XXX")])
    def test_zero_model_correlation_is_positive_zero(self, capsys, e_ghz, setting):
        # A zero times a negative factor once printed "analytic E = -0".
        flags = ("--d", "0.9", "--gamma", "0.02", "--pair", "0.5", "--trials", "100000",
                 "--seed", "1", "--e-ghz", e_ghz, "--setting", setting)
        code, out = run_cli("simulate", *flags, capsys=capsys)
        assert code == 0
        line = next(line for line in out.out.splitlines() if line.startswith("analytic E = "))
        text = line.split(",")[0].removeprefix("analytic E = ")
        code, out = run_cli("simulate", *flags, "--json", capsys=capsys)
        assert code == 0
        for value in (float(text), json.loads(out.out)["analytic_e"]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, (text, out.out)

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
            "d=1.0\ngamma=0\npair=0\nsetting=XXX\ntrials=200\nseed=4\n"
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
    def test_config_type_error_names_the_flag(self, fails, tmp_path, line, flag):
        config = tmp_path / "run.cfg"
        config.write_text(f"d=0.5\ngamma=1e-2\npair=0.99\ntrials=1000\nseed=1\n{line}\n")
        kind = "int" if flag == "--trials" else "float"
        fails(["simulate", "--config", str(config)],
              f"argument {flag}: invalid {kind} value: {line.partition('=')[2]!r}",
              prog="ghzdet simulate")

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
        values = {"d": "0.7", "gamma": "0.03", "pair": "0.6", "e-ghz": "0.9",
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

    def test_ratio_form(self, capsys):
        code, out = run_cli("simulate", "--d", "0.5", "--gamma", "1e-2", "--ratio", "99",
                            "--trials", "1000000", "--seed", "1", "--json", capsys=capsys)
        assert (code, out.err) == (0, "")
        assert json.loads(out.out)["n_trials"] == 1_000_000

    @pytest.mark.parametrize("flag", ["--pair"])
    def test_ratio_excludes_pair_flags(self, fails, tmp_path, flag):
        flags = ("--d", "0.5", "--gamma", "1e-2", "--trials", "1000", "--seed", "1")
        fails(["simulate", *flags, "--ratio", "99", flag, "0.5"], f"give --ratio or {flag}, not both")
        config = tmp_path / "run.cfg"
        config.write_text("ratio=99\n")
        fails(["simulate", "--config", str(config), *flags, flag, "0.5"],
              f"give --ratio or {flag}, not both")

    def test_twopair_is_not_an_input(self, fails, tmp_path):
        # --pair p gives two pairs 1 - p, and --ratio is the precise form.
        flags = ("--d", "0.5", "--gamma", "1e-2", "--trials", "1000", "--seed", "1")
        fails(["simulate", *flags, "--twopair", "0.5"], "unrecognized arguments: --twopair 0.5",
              prog="ghzdet")
        config = tmp_path / "run.cfg"
        config.write_text("twopair=0.5\n")
        fails(["simulate", "--config", str(config), *flags], "unknown config key 'twopair'")

    def test_unknown_config_key(self, fails, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        fails(["simulate", "--config", str(config)], "unknown config key 'bogus'")

    def test_too_many_trials(self, fails):
        fails(["simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
               "--trials", "100000000000000000000", "--seed", "1"],
              "n_trials must be in [1, 2**63 - 1]")

    def test_missing_config_file(self, fails, tmp_path):
        config = tmp_path / "run.cfg"
        fails(["simulate", "--config", str(config)], f"cannot read {config}: ")

    def test_unwritable_event_log(self, fails, tmp_path):
        log = tmp_path / "no-dir" / "x.log"
        fails(["simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
               "--trials", "1000", "--seed", "1", "--events", str(log)], f"cannot write {log}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_event_log_write_failure(self, fails):
        # /dev/full opens but fails every write: an OSError once escaped with exit 1.
        fails(["simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
               "--trials", "1000000", "--seed", "1", "--events", "/dev/full"],
              "cannot write /dev/full: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_event_log_is_streamed(self, fails):
        # About 7.4e15 fourfolds: a log held in memory before it is written
        # died here with MemoryError and exit 1.
        fails(["simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
               "--trials", str(2**63 - 1), "--seed", str(2**64 - 1), "--e-ghz", "0.3",
               "--setting", "XXX", "--json", "--events", "/dev/full"], "cannot write /dev/full: ")

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

    def test_bad_setting(self, fails):
        fails(["quantum", "XQZ"], "setting must be three letters from {X, Y}, got 'XQZ'")


# The words each help text must show: subcommand names for `ghzdet --help`,
# and each subcommand's positional arguments and options for its own.
HELP_WORDS = {
    (): ("check", "construct-joint", "correlation", "sweep", "simulate", "quantum"),
    ("check",): ("e_a", "e_b", "e_c", "e_abc", "--json"),
    ("construct-joint",): ("p", "q", "--json"),
    ("correlation",): ("--d", "--gamma", "--dark-rate", "--window", "--ratio",
                       "--ratio-counts", "--e-ghz", "--mode", "--json"),
    ("sweep",): ("--gamma-min", "--gamma-max", "--gamma-steps", "--d-min", "--d-max",
                 "--d-steps", "--ratio", "--e-ghz", "--mode", "--contour", "--out"),
    ("simulate",): ("--config", "--d", "--gamma", "--pair", "--ratio", "--e-ghz", "--setting",
                    "--trials", "--seed", "--workers", "--events", "--json"),
    ("quantum",): ("setting", "--json"),
}


class TestErrorsExitTwo:
    """Exit 1 means an LHV-infeasible tetrad and nothing else: output that
    cannot be written, or memory that runs out, is one error line on stderr
    and exit 2.  Each case runs in a fresh interpreter, as it would from a
    shell.  With stdout buffered, the failed write is the flush at the end of
    main, and the interpreter's own flush at exit must not fail again (exit
    120); unbuffered, it is the first print."""

    COMMANDS = [("check", "0.5", "0.5", "0.5", "-0.5"),  # feasible: exit 0 where written
                ("correlation", "--ratio-counts", "1:12", "--json")]

    @staticmethod
    def ghzdet(*argv, buffered=True, **kwargs):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run([sys.executable, "-m", "ghzdet.cli", *argv],
                              text=True, timeout=60, env=env, **kwargs)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_stdout_pipe_without_a_reader(self, argv, buffered):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # before the child starts, so its first write fails
        try:
            proc = self.ghzdet(*argv, buffered=buffered, stdout=write_fd)
        finally:
            os.close(write_fd)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_stdout_on_a_full_device(self, argv, buffered):
        with open("/dev/full", "w") as full:
            proc = self.ghzdet(*argv, buffered=buffered, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, stdout", [
        (("check", "1", "1", "1", "-inf"), "pipe"),
        (("check", "0.5", "0.5", "0.5", "-0.5"), "full"),
        (("sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "2",
          "--d-min", "0.3", "--d-max", "0.7", "--d-steps", "3", "--ratio", "1e10",
          "--out", "{missing}/sweep.csv"), "pipe"),
    ], ids=["domain-error", "stdout-full", "sweep-out"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_stderr_on_a_full_device(self, tmp_path, argv, stdout, buffered):
        # The error line cannot be written either.  The code is still 2: not
        # the 1 of an error raised while reporting the first one, nor the 120
        # of the interpreter's flush of stderr at exit.
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        with open("/dev/full", "w") as full:
            proc = self.ghzdet(*argv, buffered=buffered, stderr=full,
                               stdout=full if stdout == "full" else subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stdout in (None, "")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_usage_error_with_stderr_on_a_full_device(self, buffered):
        # argparse's usage error exits 2, and the usage it could not write
        # once made the interpreter's flush at exit fail with exit 120.
        with open("/dev/full", "w") as full:
            proc = self.ghzdet("check", "one", "0", "0", "0", buffered=buffered,
                               stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [(), ("sweep",)], ids=["ghzdet", "sweep"])
    def test_help_on_a_full_device(self, command, buffered):
        # A help text that cannot be written is an error like any other
        # output: once exit 120 with "Exception ignored" buffered, and exit 0
        # unbuffered, where argparse dropped the failed write.
        with open("/dev/full", "w") as full:
            proc = self.ghzdet(*command, "--help", buffered=buffered, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    def test_memory_that_runs_out(self):
        # 1e8 d steps do not fit under the limit, and _linspace raises
        # MemoryError.  256 MiB rather than the 1 GiB of the huge-grid test
        # above, so that the axis fills a quarter of the memory and time.
        resource = pytest.importorskip("resource")

        def limit_address_space():
            limit = 1 << 28
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = self.ghzdet("sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5",
                           "--gamma-steps", "2", "--d-min", "0.3", "--d-max", "0.9",
                           "--d-steps", "100000000", "--ratio", "1e10", "--out", os.devnull,
                           stdout=subprocess.PIPE, preexec_fn=limit_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP_WORDS), ids=lambda c: " ".join(c) or "ghzdet")
    def test_help_exits_0_and_lists_the_options(self, command):
        # A fresh interpreter, so that no layer is loaded before the help runs.
        proc = subprocess.run([sys.executable, "-m", "ghzdet.cli", *command, "--help"],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(f"usage: {' '.join(('ghzdet',) + command)} ")
        words = set(proc.stdout.replace(",", " ").replace("{", " ").replace("}", " ").split())
        assert set(HELP_WORDS[command]) <= words


class TestJsonRoundTrip:
    def test_numeric_round_trip(self, capsys):
        code, out = run_cli(
            "correlation", "--d", "0.5", "--gamma", "6e-7", "--ratio", "1e10",
            "--json", capsys=capsys,
        )
        payload = json.loads(out.out)
        # full float round trip: loads(dumps(x)) == x
        assert json.loads(json.dumps(payload)) == payload


def as_json(value):
    """value as --json prints it and json reads it back: tuples become lists."""
    return json.loads(json.dumps(value))


class TestJsonSchema:
    """--json prints the result records themselves: their fields in their
    order, with the values a direct call returns."""

    @pytest.mark.parametrize("tetrad, feasible", [(("0.5", "0.5", "0.5", "-0.5"), True),
                                                  (("0.9", "0.9", "0.9", "-0.9"), False),
                                                  (("1", "1", "1", "-1"), False)])
    def test_check_prints_the_feasibility_report(self, capsys, tetrad, feasible):
        code, out = run_cli("check", *tetrad, "--json", capsys=capsys)
        payload = json.loads(out.out)
        c = lhv.CorrelationSet(*map(float, tetrad))
        report, witness = lhv.check_inequalities(c), lhv.feasible_oracle(c)
        assert (code, report.feasible) == ((0, True) if feasible else (1, False))
        assert list(payload) == [*lhv.FeasibilityReport._fields, "witness"]
        assert payload.pop("witness") == (list(witness.probs) if feasible else None)
        assert payload == as_json(report._asdict())

    @pytest.mark.parametrize("trials, seed, fourfolds", [(1_000, 1, False), (1_000_000, 42, True)])
    def test_simulate_prints_run_stats_and_comparison(self, capsys, trials, seed, fourfolds):
        code, out = run_cli("simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
                            "--trials", str(trials), "--seed", str(seed), "--json", capsys=capsys)
        payload = json.loads(out.out)
        params = detector.DetectorParams(0.5, 1e-2, 0.99, 1.0 - 0.99)
        stats = montecarlo.run(montecarlo.RunConfig(params, "XYY", trials, seed))
        report = montecarlo.compare_analytic(stats, params, "XYY")
        assert (code, stats.no_coincidences) == (0, not fourfolds)
        assert list(payload) == [*montecarlo.RunStats._fields, "no_coincidences",
                                 *montecarlo.ComparisonReport._fields]
        assert payload.pop("no_coincidences") is stats.no_coincidences
        stats_keys = set(montecarlo.RunStats._fields)
        assert {k: v for k, v in payload.items() if k in stats_keys} == as_json(stats._asdict())
        assert {k: v for k, v in payload.items() if k not in stats_keys} == as_json(report._asdict())


SWEEP_2X2 = ("sweep", "--gamma-min", "1e-7", "--gamma-max", "1e-6", "--gamma-steps", "2",
             "--d-min", "0.4", "--d-max", "0.6", "--d-steps", "2", "--ratio", "1e10")
SWEEP_3X3 = ("sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "3",
             "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "3", "--ratio", "1e10")
SIMULATE_1K = ("simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
               "--trials", "1000", "--seed", "1", "--json")


def replaced(argv, name, value):
    """argv with the value that follows name replaced."""
    at = argv.index(name) + 1
    return argv[:at] + (value,) + argv[at + 1:]


# A call with {} where a negative value goes, and that value in plain and in
# exponent form: every numeric positional and float option of each subcommand.
NEGATIVE_VALUES = [
    (("check", "{}", "0.5", "0.5", "0.5", "--json"), "-0.5", "-5e-1"),
    (("check", "0.5", "{}", "0.5", "0.5"), "-0.5", "-5E-1"),
    (("check", "0.5", "0.5", "{}", "0.5"), "-1", "-1e0"),
    (("check", "0.5", "0.5", "0.5", "{}"), "-0.5", "-5e-1"),
    (("construct-joint", "{}", "0.4"), "-0.5", "-5e-1"),
    (("construct-joint", "0.8", "{}"), "-0.4", "-4e-1"),
    (("correlation", "--ratio-counts", "1:12", "--e-ghz", "{}"), "-1", "-1e0"),
    (("correlation", "--d", "0.5", "--gamma", "6e-7", "--e-ghz", "{}", "--json"), "-0.5", "-5e-1"),
    (("correlation", "--d", "{}", "--gamma", "6e-7"), "-0.5", "-5e-1"),
    (("correlation", "--gamma", "{}"), "-0.0000006", "-6e-7"),
    (("correlation", "--dark-rate", "{}", "--window", "2e-9"), "-300", "-3e2"),
    (("correlation", "--dark-rate", "300", "--window", "{}"), "-0.000000002", "-2e-9"),
    (("correlation", "--gamma", "6e-7", "--ratio", "{}"), "-10000000000", "-1e10"),
    (SWEEP_3X3 + ("--e-ghz", "{}"), "-1", "-1e0"),
    (SWEEP_3X3 + ("--contour", "{}"), "-0.5", "-5e-1"),
    (replaced(SWEEP_3X3, "--gamma-min", "{}"), "-0.00000001", "-1e-8"),
    (replaced(SWEEP_3X3, "--gamma-max", "{}"), "-0.00001", "-1e-5"),
    (replaced(SWEEP_3X3, "--d-min", "{}"), "-0.3", "-3e-1"),
    (replaced(SWEEP_3X3, "--d-max", "{}"), "-0.9", "-9e-1"),
    (replaced(SWEEP_3X3, "--ratio", "{}"), "-10000000000", "-1e10"),
    (SIMULATE_1K + ("--e-ghz", "{}"), "-0.5", "-5e-1"),
    (replaced(SIMULATE_1K, "--d", "{}"), "-0.5", "-5e-1"),
    (replaced(SIMULATE_1K, "--gamma", "{}"), "-0.01", "-1e-2"),
    (replaced(SIMULATE_1K, "--pair", "{}"), "-0.99", "-9.9e-1"),
    (("simulate", "--d", "0.5", "--gamma", "1e-2", "--ratio", "{}", "--trials", "1000",
      "--seed", "1", "--json"), "-99", "-9.9e1"),
]


class TestNegativeNumbers:
    """argparse reads a negative number as a value only in the forms -1 and
    -.5 (on Python 3.11); ghzdet reads every form float() takes."""

    @pytest.mark.parametrize("template, plain, exponent", NEGATIVE_VALUES,
                             ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_exponent_form_gives_the_plain_output(self, tmp_path, capsys, template, plain, exponent):
        results = []
        for value in (plain, exponent):
            argv = [value if a == "{}" else a for a in template]
            if argv[0] == "sweep":
                argv += ["--out", str(tmp_path / "sweep.csv")]
            code, out = run_cli(*argv, capsys=capsys)  # argparse's usage error raises SystemExit
            written = tmp_path / "sweep.csv"
            results.append((code, out.out, out.err, written.read_bytes() if written.exists() else None))
            written.unlink(missing_ok=True)
        assert results[1] == results[0]

    @pytest.mark.parametrize("argv, message", [
        (("check", "1", "1", "1", "-inf"), "e_abc=-inf outside [-1, 1]"),
        (("check", "-inf", "1", "1", "1"), "e_a=-inf outside [-1, 1]"),
        (("check", "1", "1", "1", "-nan"), "e_abc=nan outside [-1, 1]"),
        (("correlation", "--ratio-counts", "1:12", "--e-ghz", "-inf"), "e_ghz=-inf outside [-1, 1]"),
    ])
    def test_non_finite_values_reach_the_range_checks(self, fails, argv, message):
        fails(argv, message)
