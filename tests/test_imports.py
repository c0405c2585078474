"""What each call imports: no subcommand imports numpy, only the simulation
imports dataclasses, and each loads only the ghzdet layers it runs.

`import ghzdet` loads lhv alone; detector, quantum and the simulation,
ghzdet.montecarlo, are imported by name.  `check` and `construct-joint` load
cli and lhv; `correlation` and `sweep` add detector; `quantum` adds quantum;
`simulate` adds detector, quantum and montecarlo.  json is imported only by
a call that prints JSON.

`check`, `construct-joint`, every form of `correlation`, `sweep` in both
modes, `quantum` and the batch LHV masks run on plain floats, so a fresh
interpreter running them never imports numpy.  The records are named tuples,
so none of these statements imports dataclasses either.  `simulate` draws
from the standard library's `random` and builds no array, so it runs without
numpy in every output form, and it and `sweep` run even where numpy cannot
be imported.  `sweep` shares its rows with helpers made by os.fork, so it
loads no process-pool module and no subprocess.  `simulate` does import
dataclasses, for montecarlo's RunConfig alone: its results RunStats and
ComparisonReport are named tuples like every other record.  No function
imports numpy: quantum.sample_many draws with the caller's numpy generator
(tests/test_quantum.py runs it where numpy cannot be imported), and no
module of ghzdet holds an `import numpy` outside an `if TYPE_CHECKING:`
block, which test_no_module_imports_numpy checks without running the code.

The whole tier-1 suite also runs where numpy cannot be imported (the CI
job `no-numpy`, which installs no numpy).  There test_acceptance,
test_detector, test_lhv, test_montecarlo and test_quantum skip, as do the
cases that call pytest.importorskip("numpy"); every other test runs.
Locally, with numpy installed:

    PYTHONPATH=src python -c "import sys; sys.modules['numpy'] = None; import pytest; sys.exit(pytest.main(['-q']))"
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzdet


def cli_call(*argv: str) -> str:
    return f"from ghzdet import cli; cli.main({list(argv)!r})"


# The benchmark's 300 x 300 sweep, written to the null device.
SWEEP = ("sweep", "--gamma-min", "1e-8", "--gamma-max", "1e-5", "--gamma-steps", "300",
         "--d-min", "0.3", "--d-max", "0.9", "--d-steps", "300", "--ratio", "1e10",
         "--out", os.devnull)


BATCH_MASKS = (
    "from ghzdet import lhv\n"
    "tetrads = [(1.0, 1.0, 1.0, -1.0), (0.5, 0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 0.0)]\n"
    "assert lhv.feasible_mask_oracle(tetrads) == [False, True, True]\n"
    "assert lhv.feasible_mask_inequalities(tetrads) == [False, True, True]"
)
CLI = {"ghzdet.cli", "ghzdet.lhv"}
DETECTOR = CLI | {"ghzdet.detector"}

# (id, statement, the ghzdet modules and json that it leaves in sys.modules)
STATEMENTS = [
    ("import", "import ghzdet", {"ghzdet.lhv"}),
    ("check-json", cli_call("check", "1", "1", "1", "-1", "--json"), CLI | {"json"}),
    ("check-feasible", cli_call("check", "0.5", "0.5", "0.5", "-0.5"), CLI),
    ("construct-joint", cli_call("construct-joint", "0.5", "0.5", "--json"), CLI | {"json"}),
    ("correlation-rates", cli_call("correlation", "--d", "0.5", "--dark-rate", "300",
                                   "--window", "2e-9", "--json"), DETECTOR | {"json"}),
    ("correlation-ratio-counts", cli_call("correlation", "--ratio-counts", "1:12"), DETECTOR),
    ("correlation-exact", cli_call("correlation", "--d", "0.5", "--gamma", "6e-7",
                                   "--mode", "exact", "--json"), DETECTOR | {"json"}),
    ("quantum", cli_call("quantum", "XXX"), CLI | {"ghzdet.quantum"}),
    ("sweep-approx-contour", cli_call(*SWEEP, "--contour", "0.92"), DETECTOR),
    ("sweep-exact", cli_call(*SWEEP, "--mode", "exact"), DETECTOR),
    ("batch-masks", BATCH_MASKS, {"ghzdet.lhv"}),
]


@pytest.mark.parametrize("statement", [s for _, s, _ in STATEMENTS],
                         ids=[i for i, _, _ in STATEMENTS])
def test_numpy_not_imported(statement):
    script = (f"import sys\n{statement}\n"
              "sys.exit(3 if 'numpy' in sys.modules else 4 if 'dataclasses' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    imported = {3: "numpy", 4: "dataclasses"}.get(proc.returncode, "?")
    assert proc.returncode == 0, f"{imported} imported (exit {proc.returncode}): {proc.stderr}"


def test_import_loads_the_analysis_modules_only():
    # bench/traced.py reads ghzdet.lhv's -X importtime line from `import ghzdet`.
    script = "import sys, ghzdet\nprint(*sorted(m for m in sys.modules if m.startswith('ghzdet.')))"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["ghzdet.lhv"]


def test_importtime_reports_lhv():
    # bench/traced.py reads ghzdet.lhv's self time, in microseconds, from
    # this report's line "import time: <self> | <cumulative> | ghzdet.lhv".
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ghzdet"],
                          capture_output=True, text=True, timeout=60, check=True)
    rows = [[part.strip() for part in line.split("|")] for line in proc.stderr.splitlines()]
    lhv = [row for row in rows if len(row) == 3 and row[2] == "ghzdet.lhv"]
    assert len(lhv) == 1, proc.stderr
    assert int(lhv[0][0].split()[-1]) >= 0


def numpy_imports(source: str) -> list[int]:
    """The lines of source that import numpy, or a module of it, outside an
    `if TYPE_CHECKING:` block (whose else branch is searched)."""
    def type_checking(test):
        return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"

    def is_numpy(name):
        return name is not None and (name == "numpy" or name.startswith("numpy."))

    lines = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import) and any(is_numpy(a.name) for a in node.names) or (
                isinstance(node, ast.ImportFrom) and node.level == 0 and is_numpy(node.module)):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_numpy_imports_finds_each_form():
    source = (
        "import numpy\n"                       # 1
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"             # allowed
        "else:\n"
        "    from numpy import random\n"       # 6
        "def f():\n"
        "    import os, numpy.linalg as la\n"  # 8
        "    if typing.TYPE_CHECKING:\n"
        "        from numpy.random import Generator\n"  # allowed
        "from .numpy import x\n"               # a relative module, not numpy
        "import numpyro\n"
    )
    assert numpy_imports(source) == [1, 6, 8]


@pytest.mark.parametrize("path", sorted(Path(ghzdet.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_numpy(path):
    # Static, so that it covers code no test runs, and it runs where numpy
    # is installed.  quantum.py imports numpy for its annotations only.
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


SIMULATE = ("simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000000", "--seed", "1")


SIMULATE_MODULES = DETECTOR | {"ghzdet.montecarlo", "ghzdet.quantum"}


@pytest.mark.parametrize(
    "statement, modules",
    [(s, m) for _, s, m in STATEMENTS] + [
        (cli_call(*SIMULATE), SIMULATE_MODULES),
        (cli_call(*SIMULATE, "--json", "--events", os.devnull), SIMULATE_MODULES | {"json"}),
    ],
    ids=[i for i, _, _ in STATEMENTS] + ["simulate", "simulate-json-events"],
)
def test_each_call_loads_only_its_layers(statement, modules):
    script = (f"import sys\n{statement}\n"
              "print(*sorted(m for m in sys.modules if m.startswith('ghzdet.') or m == 'json'))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == sorted(modules)


@pytest.mark.parametrize(
    "argv",
    [SIMULATE, SIMULATE + ("--json",), SIMULATE + ("--json", "--events", os.devnull)],
    ids=["text", "json", "events"],
)
def test_simulate_does_not_import_numpy(argv):
    script = (f"import sys\n{cli_call(*argv)}\n"
              "sys.exit(3 if 'numpy' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, f"numpy imported (exit {proc.returncode}): {proc.stderr}"


def test_simulate_runs_where_numpy_cannot_be_imported():
    # A None entry in sys.modules makes every `import numpy` raise ImportError.
    script = ("import sys\nsys.modules['numpy'] = None\nfrom ghzdet import cli\n"
              f"sys.exit(cli.main({list(SIMULATE + ('--json',))!r}))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_trials"] == 1_000_000


@pytest.mark.parametrize("argv", [SWEEP + ("--contour", "0.92"), SWEEP + ("--mode", "exact")],
                         ids=["approx-contour", "exact"])
def test_sweep_runs_where_numpy_cannot_be_imported(argv):
    script = ("import sys\nsys.modules['numpy'] = None\nfrom ghzdet import cli\n"
              f"sys.exit(cli.main({list(argv)!r}))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote 90000 rows to {os.devnull}\n"


@pytest.mark.parametrize("argv", [SWEEP + ("--contour", "0.92"), SWEEP + ("--mode", "exact")],
                         ids=["approx-contour", "exact"])
def test_sweep_loads_no_process_module(argv):
    script = (f"import sys\n{cli_call(*argv)}\n"
              "print(*sorted({'multiprocessing', 'concurrent.futures', 'subprocess'} "
              "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"wrote 90000 rows to {os.devnull}", ""]
