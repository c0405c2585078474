"""Command-line front end: feasibility checks, corrected correlations,
parameter sweeps, and the seeded coincidence simulation.

Exit codes: 0 success/feasible, 1 infeasible, 2 input or domain error.
Numbers are printed with 12 significant digits.  numpy is imported only where
arrays are built, in sweep, so check, construct-joint, quantum, simulate and
correlation in every mode start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import detector, lhv, quantum

if TYPE_CHECKING:
    from . import montecarlo

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


# --- check -------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    c = lhv.CorrelationSet(args.e_a, args.e_b, args.e_c, args.e_abc)
    report = lhv.check_inequalities(c)
    witness = lhv.feasible_oracle(c)  # None exactly when report says infeasible
    if args.json:
        _emit_json(
            {
                "feasible": report.feasible,
                "f_value": report.f_value,
                "slacks": list(report.slacks),
                "witness": None if witness is None else list(witness.probs),
            }
        )
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
        _emit_json({"atoms": list(joint.probs), "expectations": list(back)})
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


def _print_correlation(payload: dict, as_json: bool) -> None:
    if as_json:
        _emit_json(payload)
        return
    print(f"E = {fmt(payload['e'])}")
    print(f"sigma = {fmt(payload['sigma'])}")
    sep = payload["separation"]
    if sep != sep:  # NaN: below the classical boundary
        print("separation = n/a (E <= 0.5)")
    elif sep == float("inf"):
        print("separation = saturated")
    else:
        print(f"separation = {fmt(sep)}")


def cmd_correlation(args: argparse.Namespace) -> int:
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
    payload = {"e": e, "sigma": detector.sigma_of_correlation(e),
               "separation": detector.sigma_separation(e)}
    _print_correlation(payload, args.json)
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
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
    import numpy as np

    gammas = np.geomspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    ds = np.linspace(args.d_min, args.d_max, args.d_steps)
    grid_gamma, grid_d = np.meshgrid(gammas, ds, indexing="ij")
    params = detector.DetectorParams.from_ratio(grid_d, grid_gamma, args.ratio, args.e_ghz)
    e = detector.corrected_correlation(params, mode=args.mode)
    # (gamma, d, [E, sigma, separation])
    cells = np.stack((e, detector.sigma_of_correlation(e), detector.sigma_separation(e)), axis=-1)
    d_text = [f"{d:.12g}" for d in ds]
    # The file is opened only once the grid is computed, so a rejected input
    # leaves none.  Each gamma row is formatted and written on its own: the
    # text of one row is all the CSV that is ever in memory.
    try:  # open, every write and the final flush on close can fail
        with open(args.out, "w") as stream:
            stream.write("gamma,d,E,sigma,separation\n")
            for gamma, row in zip(gammas.tolist(), cells):
                g = f"{gamma:.12g}"
                template = "".join(f"{g},{d},%.12g,%.12g,%.12g\n" for d in d_text)
                stream.write(template % tuple(row.ravel().tolist()))
            if args.contour is not None:
                stream.write(f"# contour E={args.contour:.12g}\nd,gamma\n")
                for d, d_str in zip(ds.tolist(), d_text):
                    try:
                        g = detector.find_gamma_for_correlation(
                            d, args.ratio, args.contour, args.e_ghz
                        )
                    except ValueError:
                        continue  # level set does not cross this d-column
                    stream.write(f"{d_str},{g:.12g}\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(gammas) * len(ds)} rows to {args.out}")
    return EXIT_OK


# --- simulate ----------------------------------------------------------------

_CONFIG_KEYS = {
    "d", "gamma", "pair", "twopair", "ratio", "e-ghz", "setting",
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
    from . import montecarlo

    if args.d is None or args.gamma is None:
        raise ValueError("simulate requires d and gamma")
    if args.trials is None:
        raise ValueError("simulate requires the number of trials")
    if args.seed is None:
        raise ValueError("simulate requires an explicit seed (no time-based seeding)")

    pair, twopair = args.pair, args.twopair
    if args.ratio is not None:
        if pair is not None or twopair is not None:
            raise ValueError("give --ratio or --pair/--twopair, not both")
        params = detector.DetectorParams.from_ratio(args.d, args.gamma, args.ratio, args.e_ghz)
    else:
        if pair is None and twopair is None:
            raise ValueError("simulate requires --pair, --twopair, or --ratio")
        if pair is None:
            pair = 1.0 - twopair
        if twopair is None:
            twopair = 1.0 - pair
        params = detector.DetectorParams(args.d, args.gamma, pair, twopair, args.e_ghz)

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
    payload = {
        "n_trials": stats.n_trials,
        "n_fourfold": stats.n_fourfold,
        "n_ghz_fourfold": stats.n_ghz_fourfold,
        "no_coincidences": stats.no_coincidences,
        "e_hat": stats.e_hat,
        "std_err": stats.std_err,
        "p4_hat": stats.p4_hat,
        "analytic_e": report.analytic_e,
        "analytic_p4": report.analytic_p4,
        "z_correlation": report.z_correlation,
        "z_fourfold": report.z_fourfold,
        "comparable": report.comparable,
        "flagged": report.flagged,
    }
    if args.json:
        _emit_json(payload)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghzdet", description=__doc__)
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
    p.add_argument("--pair", type=float, help="single-pair creation probability")
    p.add_argument("--twopair", type=float, help="two-pair creation probability")
    p.add_argument("--ratio", type=float, help="pair-to-two-pair ratio, instead of --pair/--twopair")
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
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate" and args.config:
            # The file's lines go in as flags ahead of the command line, so the
            # parser types them and a command-line flag, parsed later, wins.
            at = argv.index("simulate") + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
