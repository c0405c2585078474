"""Traced run: a workload's calls made in one interpreter, with a span each.

Each pass makes the workload's `cli.main` calls (stdout captured) and calls
the public functions of `lhv`, `detector`, `quantum` and `montecarlo`
directly with the same inputs.  Passes alternate with tracing off and on; the
difference of their median wall times is the tracing overhead.  Spans are
``(name, start_ns, end_ns, parent, count)`` tuples kept in memory and written
out at the end; parent is the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import workloads
from child import Tracer, decide
from ghzdet import cli, detector, montecarlo, quantum

# (metric, unit, better); the README maps each to the end-to-end metric it moves.
PER_LAYER = (
    ("cli.check_ms", "ms", "lower"),
    ("cli.correlation_ms", "ms", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.sweep_exact_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.events_s", "s", "lower"),
    ("lhv.import_ms", "ms", "lower"),
    ("lhv.check_inequalities_us", "us", "lower"),
    ("lhv.feasible_oracle_us", "us", "lower"),
    ("lhv.feasible_oracle_p99_us", "us", "lower"),
    ("lhv.mask_oracle_ns", "ns", "lower"),
    ("lhv.mask_inequalities_ns", "ns", "lower"),
    ("lhv.tetrads", "count", "higher"),
    ("detector.from_ratio_us", "us", "lower"),
    ("detector.correlation_approx_us", "us", "lower"),
    ("detector.correlation_exact_us", "us", "lower"),
    ("detector.sigma_separation_us", "us", "lower"),
    ("detector.find_gamma_us", "us", "lower"),
    ("detector.cells", "count", "higher"),
    ("quantum.sample_many_ns", "ns", "lower"),
    ("quantum.triples", "count", "higher"),
    ("quantum.operator_expectation_us", "us", "lower"),
    ("montecarlo.windows_per_s", "1/s", "higher"),
    ("montecarlo.fourfolds_per_s", "1/s", "higher"),
    ("montecarlo.fourfold_yield", "ratio", "higher"),
    ("montecarlo.windows", "count", "higher"),
    ("montecarlo.fourfolds", "count", "higher"),
    ("montecarlo.flagged", "count", "lower"),
    ("montecarlo.pool_overhead_s", "s", "lower"),
    ("montecarlo.events_us", "us", "lower"),
    ("montecarlo.compare_analytic_us", "us", "lower"),
    ("trace.task_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNIT_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3, "ns": 1.0}
# Every 10th gamma of the sweep grid, all d: the detector layer's per-cell work.
DETECTOR_GAMMA_STRIDE = 10


@dataclass
class Pass:
    """What one pass did: operations with their problems, and layer counts."""

    ops: list = field(default_factory=list)  # (Call, problems)
    extra: list = field(default_factory=list)  # (known_fault, problems)
    counts: dict = field(default_factory=dict)
    wall_s: float = 0.0

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _run_cli(tracer: Tracer, call: workloads.Call) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call(f"cli.{call.name}", cli.main, list(call.argv[1:]))
    return code, buf.getvalue()


def _detector_point(tracer: Tracer, d: float, gamma: float, ratio: float, out: Pass,
                    check_exact: bool = True) -> list:
    """The closed forms at one (d, gamma) cell, checked against checks.py.

    The exact mode is checked only where gamma is small enough that the sum
    over the ten pair channels equals their union; at the Monte Carlo points
    it is compared statistically, as `analytic_e`, by `check_simulate`.
    """
    p = tracer.call("detector.from_ratio", detector.DetectorParams.from_ratio, d, gamma, ratio)
    e = tracer.call("detector.correlation_approx", detector.corrected_correlation, p, "approx")
    e_exact = tracer.call("detector.correlation_exact", detector.corrected_correlation, p, "exact")
    out.add("detector.cells", 1)
    problems = []
    if not checks.same(e, checks.approx_correlation(d, gamma, ratio), 1e-12):
        problems.append(("correlation_approx", f"{e} at d={d}, gamma={gamma}"))
    want = checks.fourfold_model(d, gamma, p.p_pair, p.p_twopair)[1]
    if check_exact and not checks.same(e_exact, want, 1e-6, 1e-9):
        problems.append(("correlation_exact", f"{e_exact} vs model {want} at d={d}, gamma={gamma}"))
    if e > 0.5:
        sep = tracer.call("detector.sigma_separation", detector.sigma_separation, e)
        if not checks.same(sep, checks.sigma_and_separation(e)[1], 1e-9):
            problems.append(("sigma_separation", f"{sep} at E={e}"))
    return problems


def _find_gamma(tracer: Tracer, d: float, ratio: float, level: float) -> list:
    try:
        gamma = tracer.call("detector.find_gamma", detector.find_gamma_for_correlation,
                            d, ratio, level)
    except ValueError:
        return []  # the level is not reached within the bisection bracket
    if checks.contour_gamma_ok(d, ratio, level, gamma):
        return []
    return [("find_gamma", f"{gamma} at d={d}, closed form {checks.contour_gamma(d, ratio, level)}")]


def paper_pass(tracer: Tracer, calls, tetrads) -> Pass:
    out = Pass()
    results = []
    start = time.perf_counter()
    for call in calls:
        if call.name == "lhv":
            with tracer.span("lhv"):
                results.append((call, decide(tracer, tetrads)))
            out.add("lhv.tetrads", len(tetrads))
        else:
            results.append((call, _run_cli(tracer, call)))
    with tracer.span("detector"):
        gammas, ds = checks.sweep_grid(workloads.SWEEP)
        for gamma in gammas[::DETECTOR_GAMMA_STRIDE]:
            for d in ds:
                out.extra.append((False, _detector_point(tracer, d, gamma, workloads.RATIO, out)))
        for d in ds:
            out.extra.append((False, _find_gamma(tracer, d, workloads.RATIO, 0.92)))
    with tracer.span("quantum"):
        state = quantum.ghz_state()
        witness = [tracer.call("quantum.operator_expectation", quantum.operator_expectation, state, s)
                   for s in quantum.WITNESS_SETTINGS]
    out.wall_s = time.perf_counter() - start
    if max(abs(w - v) for w, v in zip(witness, (1, 1, 1, -1))) > 1e-12:
        out.extra.append((False, [("operator_expectation", f"witness {witness}")]))
    for call, result in results:
        if call.name == "lhv":
            out.ops.append((call, checks.check_lhv_batch(tetrads, result)))
        else:
            out.ops.append((call, call.check(*result)))
    return out


def _payload(stats, report) -> dict:
    return {"n_trials": stats.n_trials, "n_fourfold": stats.n_fourfold,
            "p4_hat": stats.p4_hat, "e_hat": stats.e_hat,
            "analytic_p4": report.analytic_p4, "analytic_e": report.analytic_e,
            "flagged": report.flagged}


def mc_pass(tracer: Tracer, calls, workdir: Path) -> Pass:
    out = Pass()
    start = time.perf_counter()
    results = [(call, _run_cli(tracer, call)) for call in calls]
    runs = []  # (call, cfg, stats, report)
    with tracer.span("montecarlo"):
        for call in calls:
            _, d, gamma, pair, windows, seed, workers, _ = call.mc
            params = detector.DetectorParams(d, gamma, pair, 1.0 - pair)
            cfg = montecarlo.RunConfig(params=params, setting="XYY", n_trials=windows,
                                       master_seed=seed, n_workers=workers)
            if call.name == "events":
                log = workdir / "events-direct.log"
                with open(log, "w") as stream:
                    stats = tracer.call("montecarlo.run_events", montecarlo.run, cfg,
                                        event_stream=stream, count=windows)
                payload = {"n_fourfold": stats.n_fourfold, "n_ghz_fourfold": stats.n_ghz_fourfold}
                out.extra.append((False, checks.check_events(0, payload, log.read_text())))
                continue
            if workers > 1:
                pooled = tracer.call("montecarlo.run_pool", montecarlo.run, cfg, count=windows)
                cfg = replace(cfg, n_workers=1)
            stats = tracer.call("montecarlo.run", montecarlo.run, cfg, count=windows)
            if workers > 1 and pooled != stats:
                out.extra.append((False, [("run_pool", f"{pooled} != {stats} with one worker")]))
            report = tracer.call("montecarlo.compare_analytic", montecarlo.compare_analytic,
                                 stats, params, "XYY")
            out.add("montecarlo.windows", windows)
            out.add("montecarlo.fourfolds", stats.n_fourfold)
            out.add("montecarlo.flagged", int(report.flagged))
            runs.append((call, cfg, stats, report))
    with tracer.span("quantum"):
        state = quantum.ghz_state()
        value = tracer.call("quantum.operator_expectation", quantum.operator_expectation, state, "XYY")
        for call, cfg, stats, _ in runs:
            k = stats.n_ghz_fourfold
            rng = np.random.default_rng(cfg.master_seed)
            signs = tracer.call("quantum.sample_many", quantum.sample_many, state, "XYY", k, rng, count=k)
            out.add("quantum.triples", k)
            if signs.shape != (k, 3) or not (signs.prod(axis=1) == 1).all():
                out.extra.append((False, [("sample_many", "XYY products must all be +1")]))
    with tracer.span("detector"):
        for d, gamma, pair in dict.fromkeys(call.mc[1:4] for call in calls):
            ratio = pair / (1.0 - pair)
            out.extra.append((False, _detector_point(tracer, d, gamma, ratio, out, False)))
            out.extra.append((False, _find_gamma(
                tracer, d, ratio, checks.approx_correlation(d, gamma, ratio))))
    with tracer.span("lhv"):
        tetrads = [(e, e, e, -e) for e in (min(1.0, max(-1.0, s.e_hat)) for _, _, s, _ in runs)]
        decided = decide(tracer, tetrads)
        out.add("lhv.tetrads", len(tetrads))
    out.wall_s = time.perf_counter() - start
    if abs(value - 1.0) > 1e-12:
        out.extra.append((False, [("operator_expectation", f"<XYY> = {value}")]))
    out.extra.append((False, checks.check_lhv_batch(tetrads, decided)))
    for call, cfg, stats, report in runs:
        spec = dict(d=call.mc[1], gamma=call.mc[2], pair=call.mc[3], trials=cfg.n_trials)
        out.extra.append((call.known_fault, checks.check_simulate(spec, 0, _payload(stats, report))))
    out.ops += [(call, call.check(*result)) for call, result in results]
    return out


def lhv_import_ms(env: dict) -> float:
    """Self time of ghzdet.lhv under -X importtime, in ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ghzdet"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "ghzdet.lhv":
            return int(parts[0].split()[-1]) / 1000.0
    raise RuntimeError("ghzdet.lhv missing from the -X importtime report")


def _durations(spans, name: str) -> list[int]:
    return [end - start for n, start, end, _, _ in spans if n == name]


def _median(spans, name: str, unit: str) -> float:
    values = _durations(spans, name)
    return statistics.median(values) * UNIT_SCALE[unit] if values else 0.0


def _per_item(spans, name: str, unit: str) -> float:
    chosen = [(end - start, count) for n, start, end, _, count in spans if n == name]
    items = sum(c for _, c in chosen)
    return sum(t for t, _ in chosen) / items * UNIT_SCALE[unit] if items else 0.0


def layer_metrics(spans, counts: dict, import_ms: list, walls: dict) -> dict:
    """Per-layer metrics from the spans of all traced passes."""
    values = {
        "cli.check_ms": _median(spans, "cli.check", "ms"),
        "cli.correlation_ms": _median(spans, "cli.correlation", "ms"),
        "cli.sweep_s": _median(spans, "cli.sweep", "s"),
        "cli.sweep_exact_s": _median(spans, "cli.sweep_exact", "s"),
        "cli.simulate_s": _median(spans, "cli.simulate", "s"),
        "cli.events_s": _median(spans, "cli.events", "s"),
        "lhv.import_ms": statistics.median(import_ms),
        "lhv.check_inequalities_us": _median(spans, "lhv.check_inequalities", "us"),
        "lhv.feasible_oracle_us": _median(spans, "lhv.feasible_oracle", "us"),
        "lhv.mask_oracle_ns": _per_item(spans, "lhv.mask_oracle", "ns"),
        "lhv.mask_inequalities_ns": _per_item(spans, "lhv.mask_inequalities", "ns"),
        "detector.from_ratio_us": _median(spans, "detector.from_ratio", "us"),
        "detector.correlation_approx_us": _median(spans, "detector.correlation_approx", "us"),
        "detector.correlation_exact_us": _median(spans, "detector.correlation_exact", "us"),
        "detector.sigma_separation_us": _median(spans, "detector.sigma_separation", "us"),
        "detector.find_gamma_us": _median(spans, "detector.find_gamma", "us"),
        "quantum.sample_many_ns": _per_item(spans, "quantum.sample_many", "ns"),
        "quantum.operator_expectation_us": _median(spans, "quantum.operator_expectation", "us"),
        "montecarlo.events_us": _per_item(spans, "montecarlo.run_events", "us"),
        "montecarlo.compare_analytic_us": _median(spans, "montecarlo.compare_analytic", "us"),
    }
    oracle = _durations(spans, "lhv.feasible_oracle")
    values["lhv.feasible_oracle_p99_us"] = (
        statistics.quantiles(oracle, n=100)[98] * 1e-3 if len(oracle) > 1
        else sum(oracle) * 1e-3)
    # counts are per pass; the spans cover every traced pass.
    run_s = sum(_durations(spans, "montecarlo.run")) * 1e-9 / len(walls[True])
    for key in ("windows", "fourfolds"):
        n = counts.get(f"montecarlo.{key}", 0)
        values[f"montecarlo.{key}_per_s"] = n / run_s if run_s else 0.0
    windows = counts.get("montecarlo.windows", 0)
    values["montecarlo.fourfold_yield"] = counts.get("montecarlo.fourfolds", 0) / windows if windows else 0.0
    # Pool cost beyond an ideal two-way split: each pooled run is followed by
    # the same run with one worker.
    pool = [(spans[i][2] - spans[i][1]) - (spans[i + 1][2] - spans[i + 1][1]) / 2
            for i, span in enumerate(spans) if span[0] == "montecarlo.run_pool"]
    values["montecarlo.pool_overhead_s"] = statistics.median(pool) * 1e-9 if pool else 0.0
    for key in ("lhv.tetrads", "detector.cells", "quantum.triples", "montecarlo.windows",
                "montecarlo.fourfolds", "montecarlo.flagged"):
        values[key] = counts.get(key, 0)
    values["trace.task_s"] = statistics.median(walls[True])
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return values


def run_traced(workload: str, seed: int, seconds: float, workdir: Path, env: dict,
               trace_path: Path) -> tuple[list, list, dict]:
    """Alternate untraced and traced passes for about `seconds`.

    Returns the operations with their problems, the extra checks of direct
    layer calls, and the per-layer metrics.
    """
    calls = workloads.build(workload, seed, workdir)
    tetrads = workloads.paper_tetrads(seed) if workload == "paper" else None
    ops, extra, spans, import_ms = [], [], [], []
    walls = {False: [], True: []}
    counts: dict = {}
    start = time.monotonic()

    def one_pass(enabled: bool):
        tracer = Tracer(enabled)
        result = (paper_pass(tracer, calls, tetrads) if workload == "paper"
                  else mc_pass(tracer, calls, workdir))
        ops.extend(result.ops)
        extra.extend(result.extra)
        return tracer, result

    one_pass(False)  # warm-up: fills caches and lazy imports; its time is dropped
    while True:
        for enabled in (False, True):
            tracer, result = one_pass(enabled)
            walls[enabled].append(result.wall_s)
            if enabled:
                offset = len(spans)
                spans += [(n, s, e, p + offset if p >= 0 else -1, c) for n, s, e, p, c in tracer.spans]
                counts = result.counts
        import_ms.append(lhv_import_ms(env))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 0.5 / len(import_ms)) > seconds:
            break
    trace_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "fields": ["name", "start_ns", "end_ns", "parent", "count"],
                                      "spans": spans}))
    return ops, extra, layer_metrics(spans, counts, import_ms, walls)
