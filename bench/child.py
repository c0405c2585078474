"""One benchmark call, run in a fresh interpreter.

    python3 bench/child.py cli ARGS...   same as `python -m ghzdet.cli ARGS...`
    python3 bench/child.py lhv FILE      decide the tetrads in a JSON file
    python3 bench/child.py where         print where ghzdet was imported from

Right after `import ghzdet` the call writes a monotonic-clock stamp as the
first line of stderr; the benchmark subtracts its own clock reading at spawn
to get the set-up time (interpreter start plus import).  The `lhv` script
uses only ghzdet's public functions: one-at-a-time decisions with
`check_inequalities` and `feasible_oracle`, then both batch masks.  The
traced run (`traced.py`) makes the same decisions through `decide` with its
`Tracer` enabled.
"""

import contextlib
import sys
import time

import ghzdet
from ghzdet.lhv import (
    CorrelationSet,
    check_inequalities,
    feasible_mask_inequalities,
    feasible_mask_oracle,
    feasible_oracle,
)

SETUP_MARK = "bench-setup"


class Tracer:
    """Records a span around each call when enabled; a plain call otherwise.

    Spans are ``(name, start_ns, end_ns, parent, count)``; parent is the
    index of the enclosing span or -1.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open = [-1]

    def call(self, name: str, fn, *args, count: int = 1, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, count):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, count)


def decide(tracer: Tracer, tetrads) -> dict:
    """Per-tetrad decisions and witnesses, then both batch masks."""
    decisions = []
    for t in tetrads:
        c = CorrelationSet(*t)
        report = tracer.call("lhv.check_inequalities", check_inequalities, c)
        witness = tracer.call("lhv.feasible_oracle", feasible_oracle, c)
        decisions.append([report.feasible, None if witness is None else list(witness.probs)])
    masks = {}
    for key, fn in (("mask_oracle", feasible_mask_oracle),
                    ("mask_inequalities", feasible_mask_inequalities)):
        mask = tracer.call(f"lhv.{key}", fn, tetrads, count=len(tetrads))
        masks[key] = "".join("1" if v else "0" for v in mask)
    return {"decisions": decisions, **masks}


def decide_file(path: str) -> None:
    import json

    with open(path) as f:
        tetrads = json.load(f)
    json.dump(decide(Tracer(False), tetrads), sys.stdout)


if __name__ == "__main__":
    print(f"{SETUP_MARK} {time.monotonic()!r}", file=sys.stderr, flush=True)
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        from ghzdet import cli

        sys.exit(cli.main(args))
    elif mode == "lhv":
        decide_file(args[0])
    elif mode == "where":
        import ghzdet.cli  # compiles the CLI module too

        print(ghzdet.__file__)
    else:
        sys.exit(f"unknown mode {mode!r}")
