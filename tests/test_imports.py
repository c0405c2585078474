"""What each call loads, one fresh interpreter per call: the table gives the
exact set of ghzdet modules and watched standard modules that the call leaves
in sys.modules, and the call runs where every import of numpy raises
ImportError.  So it loads only its layers, never asks for numpy, not even
inside a caught ImportError, and works without it.  Each call runs once; the
tests after the table read single properties off the same runs.  The static
test_no_module_imports_numpy covers the code that no call runs.

The whole suite also runs where numpy cannot be imported, in this process and
in every interpreter a test starts:

    PYTHONPATH=tests/no_numpy:src python -m pytest -q
"""
import ast
import functools
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
SIMULATE = ("simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000000", "--seed", "1")

BATCH_MASKS = (
    "from ghzdet import lhv\n"
    "tetrads = [(1.0, 1.0, 1.0, -1.0), (0.5, 0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 0.0)]\n"
    "assert lhv.feasible_mask_oracle(tetrads) == [False, True, True]\n"
    "assert lhv.feasible_mask_inequalities(tetrads) == [False, True, True]"
)
CLI = {"ghzdet.cli", "ghzdet.lhv"}
DETECTOR = CLI | {"ghzdet.detector"}
# montecarlo's RunConfig is the one dataclass.
SIMULATION = DETECTOR | {"ghzdet.montecarlo", "ghzdet.quantum", "dataclasses"}

# The standard modules that a call may load only where it needs them.
WATCHED = {"json", "dataclasses", "multiprocessing", "concurrent.futures", "subprocess"}
# (id, statement, the modules it leaves in sys.modules: the ghzdet ones and
# those of WATCHED)
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
    # sweep shares its rows with helpers made by os.fork: no process module.
    ("sweep-approx-contour", cli_call(*SWEEP, "--contour", "0.92"), DETECTOR),
    ("sweep-exact", cli_call(*SWEEP, "--mode", "exact"), DETECTOR),
    ("batch-masks", BATCH_MASKS, {"ghzdet.lhv"}),
    ("simulate", cli_call(*SIMULATE), SIMULATION),
    ("simulate-json", cli_call(*SIMULATE, "--json"), SIMULATION | {"json"}),
    ("simulate-json-events", cli_call(*SIMULATE, "--json", "--events", os.devnull),
     SIMULATION | {"json"}),
]

# The finder comes first on sys.meta_path, so it sees every import of numpy,
# also where numpy is not installed.
CHILD = """\
import sys
tried = []
class NoNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            tried.append(name)
            raise ImportError(f"{{name}} cannot be imported here")
sys.meta_path.insert(0, NoNumpy)
{statement}
print(*sorted({{m for m in sys.modules if m.startswith("ghzdet.") or m in {watched!r}}}
              | ({{"numpy"}} if tried else set())))
"""


ROWS = {i: (s, m) for i, s, m in STATEMENTS}


@functools.cache
def run(row: str) -> tuple[list[str], set[str]]:
    """The row's call, run once: its output lines and the modules it loaded."""
    script = CHILD.format(statement=ROWS[row][0], watched=sorted(WATCHED))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), row
    *out, loaded = proc.stdout.splitlines()
    return out, set(loaded.split())


@pytest.mark.parametrize("row", ROWS)
def test_each_call_loads_only_its_layers(row):
    assert run(row)[1] == ROWS[row][1]


@pytest.mark.parametrize("row", [i for i, (_, m) in ROWS.items() if "dataclasses" not in m])
def test_numpy_not_imported(row):
    # Every record but montecarlo's RunConfig is a named tuple.
    assert not run(row)[1] & {"numpy", "dataclasses"}


def test_import_loads_the_analysis_modules_only():
    assert {m for m in run("import")[1] if m.startswith("ghzdet.")} == {"ghzdet.lhv"}


@pytest.mark.parametrize("row", ["simulate", "simulate-json", "simulate-json-events"],
                         ids=["text", "json", "events"])
def test_simulate_does_not_import_numpy(row):
    assert "numpy" not in run(row)[1]


def test_simulate_runs_where_numpy_cannot_be_imported():
    assert json.loads("\n".join(run("simulate-json")[0]))["n_trials"] == 1_000_000


SWEEP_ROWS = pytest.mark.parametrize("row", ["sweep-approx-contour", "sweep-exact"],
                                     ids=["approx-contour", "exact"])


@SWEEP_ROWS
def test_sweep_runs_where_numpy_cannot_be_imported(row):
    assert run(row)[0] == [f"wrote 90000 rows to {os.devnull}"]


@SWEEP_ROWS
def test_sweep_loads_no_process_module(row):
    assert not run(row)[1] & {"multiprocessing", "concurrent.futures", "subprocess"}


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
    """The lines of source that import numpy, or a module of it, wherever
    they are: in a function, or in an `if TYPE_CHECKING:` block."""
    def is_numpy(name):
        return name is not None and (name == "numpy" or name.startswith("numpy."))

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(is_numpy(a.name) for a in node.names) or (
            isinstance(node, ast.ImportFrom) and node.level == 0 and is_numpy(node.module)))


def test_numpy_imports_finds_each_form():
    source = (
        "import numpy\n"                       # 1
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"             # 4
        "else:\n"
        "    from numpy import random\n"       # 6
        "def f():\n"
        "    import os, numpy.linalg as la\n"  # 8
        "    if typing.TYPE_CHECKING:\n"
        "        from numpy.random import Generator\n"  # 10
        "from .numpy import x\n"               # a relative module, not numpy
        "import numpyro\n"
    )
    assert numpy_imports(source) == [1, 4, 6, 8, 10]


@pytest.mark.parametrize("path", sorted(Path(ghzdet.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_numpy(path):
    # Static, so that it covers code no test runs, and it runs where numpy
    # is installed.  Annotations count too: quantum.sample_many names its
    # numpy generator in its docstring.
    assert numpy_imports(path.read_text(encoding="utf-8")) == []
