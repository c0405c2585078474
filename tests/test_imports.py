"""numpy is imported only where there are arrays, and dataclasses only by the
simulation.

`import ghzdet` loads lhv, detector and quantum; the simulation,
ghzdet.montecarlo, is imported by name.

`check`, `construct-joint`, every form of `correlation`, `quantum` and the
batch LHV masks run on plain floats, so a fresh interpreter running them never
imports numpy.  The records are named tuples, so none of these statements
imports dataclasses either.  `simulate` draws from the standard library's
`random` and builds no array, so it runs without numpy in every output form,
even where numpy cannot be imported.  It does import dataclasses, for
montecarlo's RunConfig alone: its results RunStats and ComparisonReport are
named tuples like every other record.
"""

import json
import os
import subprocess
import sys

import pytest


def cli_call(*argv: str) -> str:
    return f"from ghzdet import cli; cli.main({list(argv)!r})"


@pytest.mark.parametrize(
    "statement",
    [
        "import ghzdet",
        cli_call("check", "1", "1", "1", "-1", "--json"),
        cli_call("check", "0.5", "0.5", "0.5", "-0.5"),
        cli_call("construct-joint", "0.5", "0.5", "--json"),
        cli_call("correlation", "--d", "0.5", "--dark-rate", "300", "--window", "2e-9", "--json"),
        cli_call("correlation", "--ratio-counts", "1:12"),
        cli_call("correlation", "--d", "0.5", "--gamma", "6e-7", "--mode", "exact", "--json"),
        cli_call("quantum", "XXX"),
        "from ghzdet import lhv\n"
        "tetrads = [(1.0, 1.0, 1.0, -1.0), (0.5, 0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 0.0)]\n"
        "assert lhv.feasible_mask_oracle(tetrads) == [False, True, True]\n"
        "assert lhv.feasible_mask_inequalities(tetrads) == [False, True, True]",
    ],
    ids=["import", "check-json", "check-feasible", "construct-joint", "correlation-rates",
         "correlation-ratio-counts", "correlation-exact", "quantum", "batch-masks"],
)
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
    assert proc.stdout.split() == ["ghzdet.detector", "ghzdet.lhv", "ghzdet.quantum"]


SIMULATE = ("simulate", "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
            "--trials", "1000000", "--seed", "1")


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
