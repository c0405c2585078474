"""The benchmark's workloads: a fixed sequence of calls, each with its check.

* ``paper`` - the paper's analysis, no Monte Carlo: LHV decisions on ~16.8k
  tetrads (one at a time and in batch), `check` on the witness, the eroded
  line around eps = 1/2 and the E = 0.92 tetrad, `correlation` at the
  published operating points, and a 300x300 `sweep` in both modes.  The
  random tetrads come from ``--seed``.
* ``rare`` - Monte Carlo at d = 0.5, gamma = 1e-2, p_pair = 0.99, where a
  fourfold is rare: vectorized `simulate` at three seeds, one with a pool of
  two workers, and a short `--events` run on the scalar path.
* ``dense`` - Monte Carlo at high coincidence rates, where the double-pair
  branch and the Born sampler do the work.  The two calls with gamma = 0.2
  fail every time until the pair aggregate becomes a probability.

The Monte Carlo seeds are fixed, not drawn from ``--seed``: the program flags
|z| > 4, which a correct simulation does on about one seed in 8000, so a
seed-drawn call would fail now and then.  With fixed seeds every call gives
the same output on every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("paper", "rare", "dense")

RATIO = 1e10
SWEEP = dict(gamma_min=1e-8, gamma_max=1e-5, gamma_steps=300,
             d_min=0.3, d_max=0.9, d_steps=300, ratio=RATIO)
# (name, d, gamma, p_pair, windows, seed, workers, known_fault)
MC_CALLS = {
    "rare": (
        ("simulate", 0.5, 1e-2, 0.99, 30_000_000, 101, 1, False),
        ("simulate", 0.5, 1e-2, 0.99, 30_000_000, 102, 1, False),
        ("simulate", 0.5, 1e-2, 0.99, 30_000_000, 103, 1, False),
        ("simulate_pool", 0.5, 1e-2, 0.99, 60_000_000, 104, 2, False),
        ("events", 0.5, 1e-2, 0.99, 3_000, 105, 1, False),
    ),
    "dense": (
        ("simulate", 0.9, 0.02, 0.5, 8_000_000, 201, 1, False),
        ("simulate", 0.9, 0.2, 0.5, 8_000_000, 202, 1, True),
        ("simulate", 0.5, 0.2, 0.9, 8_000_000, 203, 1, True),
    ),
}


@dataclass(frozen=True)
class Call:
    """One operation: `child.py` arguments and a check of what it produced."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list] = field(compare=False)
    known_fault: bool = False
    mc: tuple = ()


def paper_tetrads(seed: int) -> list[tuple[float, ...]]:
    """9^4 grid, 10k seeded draws, the eroded line eps = k/256, E = 0.92.

    Draws are multiples of 1/1024 and the line is dyadic, so every tetrad on
    a bound is exactly representable and the Hadamard sums are exact.
    """
    axis = [k / 4 - 1.0 for k in range(9)]
    grid = [(a, b, c, e) for a in axis for b in axis for c in axis for e in axis]
    rng = random.Random(seed)
    draws = [tuple(rng.randint(-1024, 1024) / 1024 for _ in range(4)) for _ in range(10_000)]
    line = [(1 - k / 256, 1 - k / 256, 1 - k / 256, k / 256 - 1) for k in range(257)]
    return grid + draws + line + [(0.92, 0.92, 0.92, -0.92)]


def _json(stdout: str):
    try:
        return json.loads(stdout), []
    except ValueError:
        return {}, [("stdout", f"not JSON: {stdout[:200]!r}")]


def _check_call(tetrad) -> Call:
    def check(code, out):
        payload, bad = _json(out)
        return bad or checks.check_check(tetrad, code, payload)

    return Call("check", ("cli", "check", *map(repr, tetrad), "--json"), check)


def _correlation_call(args: tuple[str, ...], e_want: float) -> Call:
    def check(code, out):
        payload, bad = _json(out)
        return bad or checks.check_correlation(e_want, code, payload)

    return Call("correlation", ("cli", "correlation", *args, "--json"), check)


def _sweep_call(workdir: Path, mode: str, contour) -> Call:
    spec = dict(SWEEP, mode=mode, contour=contour)
    out = workdir / f"sweep-{mode}.csv"
    argv = ["cli", "sweep", "--mode", mode, "--out", str(out)]
    for key in ("gamma_min", "gamma_max", "gamma_steps", "d_min", "d_max", "d_steps", "ratio"):
        argv += [f"--{key.replace('_', '-')}", repr(SWEEP[key])]
    if contour is not None:
        argv += ["--contour", repr(contour)]

    def check(code, _out):
        return checks.check_sweep(spec, code, out.read_text() if out.exists() else "")

    return Call("sweep" if mode == "approx" else "sweep_exact", tuple(argv), check)


def _lhv_call(workdir: Path, seed: int) -> Call:
    tetrads = paper_tetrads(seed)
    path = workdir / "tetrads.json"
    path.write_text(json.dumps(tetrads))

    def check(code, out):
        if code != 0:
            return [("exit_code", str(code))]
        payload, bad = _json(out)
        return bad or checks.check_lhv_batch(tetrads, payload)

    return Call("lhv", ("lhv", str(path)), check)


def _mc_call(workdir: Path, spec: tuple) -> Call:
    name, d, gamma, pair, windows, seed, workers, known_fault = spec
    cfg = dict(d=d, gamma=gamma, pair=pair, trials=windows, seed=seed, workers=workers)
    argv = ["cli", "simulate"]
    for key, value in cfg.items():
        argv += [f"--{key}", repr(value)]
    argv.append("--json")
    if name == "events":
        log = workdir / f"events-{seed}.log"
        argv += ["--events", str(log)]

        def check(code, out):
            payload, bad = _json(out)
            return bad or checks.check_events(code, payload, log.read_text() if log.exists() else "")
    else:

        def check(code, out):
            payload, bad = _json(out)
            return bad or checks.check_simulate(cfg, code, payload)

    return Call(name, tuple(argv), check, known_fault, mc=spec)


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The workload's calls in order; inputs are written under workdir."""
    if workload in MC_CALLS:
        return [_mc_call(workdir, spec) for spec in MC_CALLS[workload]]
    calls = [_lhv_call(workdir, seed)]
    calls += [
        _check_call(t)
        for t in ((1.0, 1.0, 1.0, -1.0),)
        + tuple((1 - eps, 1 - eps, 1 - eps, eps - 1) for eps in (0.499, 0.5, 0.501))
        + ((0.92, 0.92, 0.92, -0.92),)
    ]
    for rate in (300.0, 50.0):
        gamma = rate * 2e-9
        calls.append(_correlation_call(
            ("--d", "0.5", "--dark-rate", repr(rate), "--window", "2e-09", "--ratio", repr(RATIO)),
            checks.approx_correlation(0.5, gamma, RATIO),
        ))
    calls.append(_correlation_call(("--ratio-counts", "1:12"), 1.0 / (1.0 + 1.0 / 12.0)))
    calls.append(_sweep_call(workdir, "approx", 0.92))
    calls.append(_sweep_call(workdir, "exact", None))
    return calls
