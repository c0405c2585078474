"""Command-line front end: feasibility checks, corrected correlations,
parameter sweeps, and the seeded coincidence simulation.

Exit codes: 0 success/feasible, 1 infeasible, 2 input or domain error, output
that cannot be written or memory that runs out.  Numbers are printed with 12
significant digits.  Negative values may be written in any form float() reads,
such as -5e-1 or -inf.  --json prints one object: check the fields of
lhv.FeasibilityReport and the witness atoms (or null); construct-joint the
atoms and the recovered expectations; correlation e, sigma and separation;
simulate the fields of montecarlo.RunStats, no_coincidences and the fields of
montecarlo.ComparisonReport; quantum the setting, its expectation and the
outcomes.

Every subcommand runs on plain floats and the standard library (no module of
ghzdet imports numpy) and imports only the layers it runs: check and
construct-joint use lhv alone, correlation and sweep add detector, quantum adds
quantum, and simulate adds detector, quantum and montecarlo.  sweep runs its
rows on every CPU the process may use, in os.fork helpers that send them by
marshal, with a CSV byte-identical on any number of CPUs; `taskset -c 0 ghzdet
sweep ...` pins it to one, and rows that could reach 2 GiB stay in one process.
"""

from __future__ import annotations

import argparse
import marshal
import math
import os
import sys
import warnings
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Optional

from . import lhv

if TYPE_CHECKING:
    from . import montecarlo

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload))


# --- check -------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    c = lhv.CorrelationSet(args.e_a, args.e_b, args.e_c, args.e_abc)
    report = lhv.check_inequalities(c)
    witness = lhv.feasible_oracle(c)  # None exactly when report says infeasible
    if args.json:
        _emit_json({**report._asdict(), "witness": None if witness is None else witness.probs})
    else:
        verdict = "feasible" if report.feasible else "infeasible"
        print(f"{verdict}, F={fmt(report.f_value)}")
        for k in range(4):
            lo, hi = report.slacks[2 * k], report.slacks[2 * k + 1]
            status = "ok" if lo >= 0.0 and hi >= 0.0 else "violated"
            print(f"inequality {k + 1}: lower slack {fmt(lo)}, upper slack {fmt(hi)} [{status}]")
        if witness is None:
            print("witness: none")
        else:
            for label, p in zip(lhv.ATOM_LABELS, witness.probs):
                print(f"witness P({label}) = {fmt(p)}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


# --- construct-joint ---------------------------------------------------------

def cmd_construct_joint(args: argparse.Namespace) -> int:
    joint = lhv.construct_symmetric_joint(args.p, args.q)
    back = lhv.expectations_from_joint(joint)
    if args.json:
        _emit_json({"atoms": joint.probs, "expectations": back})
    else:
        for label, p in zip(lhv.ATOM_LABELS, joint.probs):
            print(f"P({label}) = {fmt(p)}")
        print(f"expectations: ({', '.join(fmt(v) for v in back)})")
    return EXIT_OK


# --- correlation -------------------------------------------------------------

def _parse_ratio_counts(text: str) -> float:
    try:
        num, den = map(float, text.split(":"))
    except ValueError as exc:
        raise ValueError(f"--ratio-counts expects A:B with B > 0, got {text!r}") from exc
    if not (math.isfinite(num) and num >= 0.0 and math.isfinite(den) and den > 0.0):
        raise ValueError(f"--ratio-counts needs finite counts A >= 0 and B > 0, got {text!r}")
    r = num / den
    if not math.isfinite(r):
        raise ValueError(f"--ratio-counts must give a finite ratio, got {text!r}")
    return r


def _resolve_gamma(args: argparse.Namespace) -> float:
    from . import detector

    if args.gamma is not None:
        if args.dark_rate is not None or args.window is not None:
            raise ValueError("give --gamma or --dark-rate/--window, not both")
        return args.gamma
    if args.dark_rate is None:
        if args.window is not None:
            raise ValueError("--window requires --dark-rate")
        raise ValueError("provide --gamma or --dark-rate/--window (or --ratio-counts)")
    if args.window is None:
        raise ValueError("--dark-rate requires --window")
    return detector.gamma_from_rates(args.dark_rate, args.window)


def cmd_correlation(args: argparse.Namespace) -> int:
    from . import detector

    if args.ratio_counts is not None:
        model = (args.gamma, args.dark_rate, args.window, args.d, args.ratio, args.mode)
        if any(v is not None for v in model):
            raise ValueError("--ratio-counts takes no --gamma, --dark-rate, --window, "
                             "--d, --ratio or --mode")
        r = _parse_ratio_counts(args.ratio_counts)
        e = detector.correlation_from_ratio(r, args.e_ghz)
    else:
        # No argparse defaults, so that --ratio-counts sees what was typed.
        gamma = _resolve_gamma(args)
        d = 0.5 if args.d is None else args.d
        ratio = 1e10 if args.ratio is None else args.ratio
        params = detector.DetectorParams.from_ratio(d, gamma, ratio, args.e_ghz)
        e = detector.corrected_correlation(params, mode=args.mode or "approx")
    sigma, sep = detector.sigma_of_correlation(e), detector.sigma_separation(e)
    if args.json:
        _emit_json({"e": e, "sigma": sigma, "separation": sep})
        return EXIT_OK
    print(f"E = {fmt(e)}")
    print(f"sigma = {fmt(sigma)}")
    if sep != sep:  # NaN: at or below the LHV bound
        print(f"separation = n/a (|E| <= {fmt(detector.LHV_BOUND)})")
    elif sep == float("inf"):
        print("separation = saturated")
    else:
        print(f"separation = {fmt(sep)}")
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace, bit for bit: i*step + start, with the last value stop."""
    step = (stop - start) / (num - 1)
    if step:
        return [i * step + start for i in range(num - 1)] + [stop]
    # numpy's rule where the step underflows to 0
    return [i / (num - 1) * (stop - start) + start for i in range(num - 1)] + [stop]


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.geomspace for 0 < start <= stop, to within an ulp, ends exact.

    10**y over the linspace of the base-10 logarithms; libm's pow may round
    a value apart from numpy's vectorised power."""
    exponents = _linspace(math.log10(start), math.log10(stop), num)[1:-1]
    return [start] + [10.0 ** y for y in exponents] + [stop]


# Below this many cells one process runs a sweep, as forking and reaping a
# helper costs about 2 ms.  Two parts against one, in one process on a 2-core
# host (Python 3.11), approx/exact mode: -1.9/-1.5 ms at 1,000 cells,
# +1.2/+1.1 ms at 5,000 and +5.5/+9.3 ms at 10,000.
_FORK_CELLS = 5_000


def _parts(cells: int) -> int:
    """Processes for a sweep of this many cells: one per CPU it may run on."""
    if cells < _FORK_CELLS or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_parts(gamma_steps: int, d_steps: int) -> int:
    """Processes for a sweep: _parts, one per row at most, and one where a row's
    text, at most 96 bytes a cell, could reach marshal's limit of 2 GiB."""
    return 1 if d_steps * 96 >= 1 << 31 else min(_parts(gamma_steps * d_steps), gamma_steps)


def _fork_helper(rows) -> tuple[int, BinaryIO]:
    """Fork a helper that sends each text of rows on a pipe by marshal.dump,
    so a text stays below 2 GiB (see _sweep_parts); return its pid and the
    pipe's read end.  It writes nothing to stdout or stderr and leaves only by os._exit."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork warns where other threads run, such as
            # numpy's BLAS pool, since a child that takes a lock one of them
            # held deadlocks.  The helper takes none: it does arithmetic, %
            # formatting and marshal.dump to a new file, then calls os._exit.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            for text in rows:
                marshal.dump(text, pipe)
    finally:  # the parent reads no status: a pipe that ends early is the failure
        os._exit(0)


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import detector

    if args.gamma_steps < 2 or args.d_steps < 2:
        raise ValueError("step counts must be >= 2")
    if args.contour is not None:
        if args.mode != "approx":
            raise ValueError("--contour inverts only the approx model; use --mode approx")
        if not 0.0 < args.contour <= args.e_ghz:
            raise ValueError(f"--contour {args.contour} is outside (0, --e-ghz {args.e_ghz}]")
    if not 0.0 < args.gamma_min <= args.gamma_max <= 1.0:
        raise ValueError("gamma bounds must satisfy 0 < min <= max <= 1")
    if not 0.0 < args.d_min <= args.d_max <= 1.0:
        raise ValueError("d bounds must satisfy 0 < min <= max <= 1")
    gammas = _geomspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    ds = _linspace(args.d_min, args.d_max, args.d_steps)
    d_text = [fmt(d) for d in ds]
    tails = [f",{d},%.12g,%.12g,%.12g\n" for d in d_text]  # a row is g + g.join(tails)
    # Part j of k makes the rows j, j + k, ...: the parent part 0, a forked
    # helper each other part.  The parent writes the rows in gamma order, so
    # each process holds one row and a pipe's buffer, and the file is the
    # same bytes for every k.  correlation_rows checks a part's inputs when
    # called, so a rejected input forks nothing and leaves no file.
    k = _sweep_parts(len(gammas), len(ds))
    parts = [((g + g.join(tails)) % tuple(cells) for g, cells in zip(
        map(fmt, gammas[j::k]),
        detector.correlation_rows(gammas[j::k], ds, args.ratio, args.e_ghz, args.mode)))
        for j in range(k)]
    helpers: list[tuple[int, BinaryIO]] = []
    try:  # a fork, the open, every write and the final flush on close can fail
        try:
            for rows in parts[1:]:
                helpers.append(_fork_helper(rows))
        except OSError as exc:  # before the open: no file is left
            raise ValueError(f"cannot start a sweep helper: {exc}") from exc
        parts[1:] = [map(marshal.load, repeat(reader)) for _, reader in helpers]
        with open(args.out, "w") as stream:
            stream.write("gamma,d,E,sigma,separation\n")
            for i in range(len(gammas)):
                stream.write(next(parts[i % k]))
            if args.contour is not None:
                stream.write(f"# contour E={args.contour:.12g}\nd,gamma\n")
                for d, d_str in zip(ds, d_text):
                    try:
                        g = detector.find_gamma_for_correlation(
                            d, args.ratio, args.contour, args.e_ghz
                        )
                    except ValueError:
                        continue  # level set does not cross this d-column
                    stream.write(f"{d_str},{g:.12g}\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    except EOFError as exc:  # marshal.load on a pipe that ended early
        raise ValueError(f"cannot write {args.out}: a sweep helper stopped "
                         "before it sent all its rows") from exc
    finally:
        if helpers:
            import signal
        for pid, reader in helpers:
            # Finished or not: later helpers hold the read end of its pipe too.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()
    print(f"wrote {len(gammas) * len(ds)} rows to {args.out}")
    return EXIT_OK


# --- simulate ----------------------------------------------------------------

_CONFIG_KEYS = {
    "d", "gamma", "pair", "ratio", "e-ghz", "setting",
    "trials", "seed", "workers",
}


def _config_tokens(path: str) -> list[str]:
    """The file's key=value lines as --key=value flags for the simulate parser."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        tokens.append(f"--{key}={value.strip()}")
    return tokens


def _build_run_config(args: argparse.Namespace) -> montecarlo.RunConfig:
    from . import detector, montecarlo, quantum

    if args.d is None or args.gamma is None:
        raise ValueError("simulate requires d and gamma")
    if args.trials is None:
        raise ValueError("simulate requires the number of trials")
    if args.seed is None:
        raise ValueError("simulate requires an explicit seed (no time-based seeding)")

    if args.ratio is not None:
        if args.pair is not None:
            raise ValueError("give --ratio or --pair, not both")
        params = detector.DetectorParams.from_ratio(args.d, args.gamma, args.ratio, args.e_ghz)
    elif args.pair is not None:
        params = detector.DetectorParams(args.d, args.gamma, args.pair, 1.0 - args.pair, args.e_ghz)
    else:
        raise ValueError("simulate requires --pair or --ratio")

    return montecarlo.RunConfig(
        params=params,
        setting=quantum.validate_setting(args.setting),
        n_trials=args.trials,
        master_seed=args.seed,
        n_workers=args.workers,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import montecarlo

    cfg = _build_run_config(args)
    if args.events:
        try:  # open, every write and the final flush on close can fail
            with open(args.events, "w") as stream:
                stats = montecarlo.run(cfg, event_stream=stream)
        except OSError as exc:
            raise ValueError(f"cannot write {args.events}: {exc}") from exc
    else:
        stats = montecarlo.run(cfg)
    report = montecarlo.compare_analytic(stats, cfg.params, cfg.setting)
    if args.json:
        _emit_json({**stats._asdict(), "no_coincidences": stats.no_coincidences,
                    **report._asdict()})
        return EXIT_OK
    print(f"trials = {stats.n_trials}")
    print(f"fourfold coincidences = {stats.n_fourfold}")
    print(f"ghz fourfolds = {stats.n_ghz_fourfold}")
    if stats.no_coincidences:
        print("no-coincidences: correlation undefined")
    else:
        print(f"e_hat = {fmt(stats.e_hat)}")
        print(f"std_err = {fmt(stats.std_err)}")
    print(f"p4_hat = {fmt(stats.p4_hat)}")
    analytic_e = "undefined" if report.analytic_e is None else fmt(report.analytic_e)
    print(f"analytic E = {analytic_e}, analytic p4 = {fmt(report.analytic_p4)}")
    if report.comparable:
        print(f"z(correlation) = {fmt(report.z_correlation)}, z(fourfold rate) = {fmt(report.z_fourfold)}")
    elif stats.no_coincidences:
        print("comparison: not comparable (no coincidences)")
    else:  # fourfolds, but no correlated quadruples or no way to register one
        print(f"z(correlation) = n/a (model E undefined for this source), "
              f"z(fourfold rate) = {fmt(report.z_fourfold)}")
    if report.flagged:
        print("WARNING: |z| above threshold, simulation disagrees with the model")
    return EXIT_OK


# --- quantum -----------------------------------------------------------------

def cmd_quantum(args: argparse.Namespace) -> int:
    from . import quantum

    setting = quantum.validate_setting(args.setting)
    state = quantum.ghz_state()
    value = quantum.operator_expectation(state, setting)
    probs = quantum.outcome_probabilities(state, setting)
    if args.json:
        _emit_json(
            {
                "setting": setting,
                "expectation": value,
                "outcomes": [
                    {"s1": s1, "s2": s2, "s3": s3, "p": p}
                    for (s1, s2, s3), p in zip(quantum.OUTCOME_SIGNS, probs)
                ],
            }
        )
    else:
        print(f"<{setting}> = {fmt(value)}")
        for (s1, s2, s3), p in zip(quantum.OUTCOME_SIGNS, probs):
            print(f"({s1:+d},{s2:+d},{s3:+d})  p = {fmt(p)}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads each token float() takes, such as -5e-1
    or -inf, as a value, not an option; add_subparsers builds each
    subcommand's parser with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A private argparse name; its regex misses -inf (and -5e-1 on Python 3.11).
        self._negative_number_matcher = self

    def _print_message(self, message: str, file=None) -> None:
        """argparse's, but a message that cannot be written raises: main
        reports it, as it does any output that cannot be written."""
        if message:
            (file or sys.stderr).write(message)

    @staticmethod
    def match(token: str) -> bool:
        """Whether a token that starts with '-' is a number."""
        try:
            float(token)
            return True
        except ValueError:
            return False


def build_parser() -> argparse.ArgumentParser:
    # --help prints the docstring but its last paragraph, which tells how the code works.
    parser = _Parser(prog="ghzdet", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="joint-distribution feasibility of a moment tetrad")
    p.add_argument("e_a", type=float)
    p.add_argument("e_b", type=float)
    p.add_argument("e_c", type=float)
    p.add_argument("e_abc", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct-joint", help="symmetric-case witness distribution")
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct_joint)

    p = sub.add_parser("correlation", help="corrected conditional correlation")
    p.add_argument("--d", type=float, help="detector efficiency (default 0.5)")
    p.add_argument("--gamma", type=float)
    p.add_argument("--dark-rate", type=float, help="dark counts per second")
    p.add_argument("--window", type=float, help="coincidence window in seconds")
    p.add_argument("--ratio", type=float,
                   help="pair-to-two-pair production ratio (default 1e10, the reported order)")
    p.add_argument("--ratio-counts", help="observed background:signal counts, e.g. 1:12, "
                   "instead of --gamma, --dark-rate, --window, --d, --ratio and --mode")
    p.add_argument("--e-ghz", type=float, default=1.0)
    p.add_argument("--mode", choices=("approx", "exact"), help="model (default approx)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_correlation)

    p = sub.add_parser("sweep", help="gamma x d sweep table (CSV)")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--gamma-steps", type=int, required=True)
    p.add_argument("--d-min", type=float, required=True)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--d-steps", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--e-ghz", type=float, default=1.0)
    p.add_argument("--mode", choices=("approx", "exact"), default="approx")
    p.add_argument("--contour", type=float, help="append gamma(d) rows for this E level")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="seeded coincidence simulation")
    p.add_argument(
        "--config",
        help="file of key=value lines (e.g. e-ghz=0.5), parsed and checked as the "
        "flags --d to --workers; flags on the command line override them",
    )
    p.add_argument("--d", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--pair", type=float, help="single-pair creation probability p (two pairs: 1 - p)")
    p.add_argument("--ratio", type=float, help="pair-to-two-pair ratio, instead of --pair")
    p.add_argument("--e-ghz", type=float, default=1.0)
    p.add_argument("--setting", default="XYY")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--events", help="write one line per fourfold coincidence to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("quantum", help="state expectation and outcome distribution")
    p.add_argument("setting", help="three axes from {X, Y}, e.g. XYY")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quantum)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = parser.parse_args(argv)  # a usage error or --help raises SystemExit
            if args.command == "simulate" and args.config:
                # The file's lines go in as flags ahead of the command line, so the
                # parser types them and a command-line flag, parsed later, wins.
                at = argv.index("simulate") + 1
                args = parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
            return args.func(args)
        finally:  # so that output that cannot be written, --help's too, fails here
            sys.stdout.flush()
    except (ValueError, OSError, MemoryError) as exc:  # a MemoryError has no message
        try:  # stderr is line-buffered: a line that cannot be written fails here
            sys.stderr.write(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}\n")
        except OSError:  # the line is dropped below
            pass
        return EXIT_ERROR
    finally:
        # A stream that cannot take its bytes is pointed at the null device, so
        # that the interpreter's flush at exit cannot fail (exit 120) after the
        # code is set; argparse's SystemExit still reaches the caller.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(main())
