"""ghzdet benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {paper,rare,dense} --seed N --seconds S --trace {0,1}

Run from a source checkout; the program is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0  A closed loop, one call at a time, each call a fresh interpreter
           (`child.py`).  Whole rounds of the workload's calls repeat for
           about S seconds.  End-to-end metrics: ``setup_s``, the median over
           calls of interpreter start plus `import ghzdet`; ``task_s``, the
           median over rounds of the round's summed call wall time; and
           ``peak_rss_mb``, the largest resident set of any process started,
           pool workers included.  Both times are given at the reference
           host speed: each call follows a calibration call, and the times
           are scaled by REFERENCE_S over the median calibration time (the
           unscaled times go to stderr).
--trace 1  The traced run of `traced.py`: per-layer metrics from spans.

Every call's output is checked against `checks.py`.  A call whose check
fails counts as failed; ``correct`` is false if any check fails other than
the known fault of the two ``dense`` calls marked ``known_fault``.
Results go to ``bench/out/result-*.json``, spans to ``bench/out/trace-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = str(BENCH.relative_to(ROOT) / "child.py")
# The calibration call: interpreter start plus `import numpy`, ghzdet's one
# dependency, and no ghzdet code.  On a shared VM the host's speed drifts by
# up to 30 % over tens of minutes and moves every timing with it; the ratio
# of a timing to the calibration's drifts far less.  REFERENCE_S is the
# calibration's median time on the reference host (see README.md).
CALIBRATION = ("import sys, time; import numpy; "
               "print('bench-setup', repr(time.monotonic()), file=sys.stderr)")
REFERENCE_S = 0.15
CALL_TIMEOUT_S = 120.0


def child_env() -> dict:
    # Relative to the checkout, where every call runs, so that the checkout's
    # path is not in the child's environment.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    return env


class Result:
    """Wall time, set-up time, peak RSS, exit code and stdout of one call."""

    def __init__(self, cmd, workdir: Path, env: dict):
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd,
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.monotonic() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a reaped child covers the descendants it reaped (KiB).
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        stderr = err_path.read_text()
        first, _, self.stderr = stderr.partition("\n")
        mark, _, stamp = first.partition(" ")
        self.setup_s = float(stamp) - start if mark == "bench-setup" else None


def expected(known_fault: bool, problems) -> bool:
    """No problem, or only the known fault's, on a call marked known_fault."""
    return not problems or (known_fault and {f for f, _ in problems} <= checks.FAULT_FIELDS)


def classify(checked) -> tuple[bool, int]:
    """(correct, failed) for (known_fault, problems) pairs."""
    failed = sum(1 for _, problems in checked if problems)
    return all(expected(k, p) for k, p in checked), failed


def report_problems(label: str, checked) -> None:
    """Print the problems of (name, known_fault, problems) that are not expected."""
    for name, known_fault, problems in checked:
        if expected(known_fault, problems):
            continue
        for field, message in problems[:3]:
            print(f"{label} {name}: {field}: {message}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, workdir: Path, env: dict):
    calls = workloads.build(workload, seed, workdir)
    walls, setups, cals, rss, checked = [], [], [], [], []
    start = time.monotonic()
    while True:
        results = []
        for call in calls:
            cals.append(Result([sys.executable, "-c", CALIBRATION], workdir, env).setup_s)
            results.append(Result([sys.executable, CHILD, *call.argv], workdir, env))
        walls.append(sum(r.wall_s for r in results))
        for call, r in zip(calls, results):
            problems = call.check(r.exit_code, r.stdout)
            if r.setup_s is None:
                problems = problems + [("setup", f"no set-up stamp; stderr {r.stderr[:200]!r}")]
            else:
                setups.append(r.setup_s)
            rss.append(r.rss_mb)
            checked.append((call, problems))
        print(f"round {len(walls)}: task {walls[-1]:.3f} s", file=sys.stderr)
        # Another round only if at least half of it fits in the time left.
        elapsed = time.monotonic() - start
        if elapsed * (1 + 0.5 / len(walls)) > seconds:
            break
    report_problems("check", [(c.name, c.known_fault, p) for c, p in checked])
    correct, failed = classify([(c.known_fault, p) for c, p in checked])
    if None in cals:
        print("error: a calibration call wrote no stamp", file=sys.stderr)
        return False, len(checked), failed, {}
    setup_s = statistics.median(setups) if setups else 0.0
    task_s = statistics.median(walls)
    calibration_s = statistics.median(cals)
    scale = REFERENCE_S / calibration_s
    print(f"unscaled: setup {setup_s:.4f} s, task {task_s:.4f} s; "
          f"calibration {calibration_s:.4f} s, scale {scale:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": {"value": setup_s * scale, "unit": "s"},
        "task_s": {"value": task_s * scale, "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }
    return correct and bool(setups), len(checked), failed, metrics


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path, env: dict):
    sys.path.insert(0, str(SRC))
    import traced

    ops, extra, values = traced.run_traced(
        workload, seed, seconds, workdir, env, OUT / f"trace-{workload}-{seed}.json")
    report_problems("check", [(c.name, c.known_fault, p) for c, p in ops])
    report_problems("layer", [("direct", k, p) for k, p in extra])
    correct, failed = classify([(c.known_fault, p) for c, p in ops])
    extra_correct, _ = classify(extra)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in traced.PER_LAYER}
    return correct and extra_correct, len(ops), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ghzdet" / "__init__.py").is_file():
        print(f"error: no ghzdet sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    # Paths in call arguments are relative to the checkout and the same on
    # every run: the arguments' length moves the allocator's peak RSS.
    os.chdir(ROOT)
    workdir = OUT.relative_to(ROOT) / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # Warm-up: compiles the sources once and checks which ghzdet is used.
        where = Result([sys.executable, CHILD, "where"], workdir, env)
        if where.exit_code != 0 or (ROOT / where.stdout.strip()).resolve().parent != SRC / "ghzdet":
            print(f"error: ghzdet not importable from {SRC}: {where.stdout}{where.stderr}",
                  file=sys.stderr)
            return 2
        run = measure_traced if args.trace else measure
        correct, attempted, failed, metrics = run(
            args.workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
