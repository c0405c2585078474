"""numpy is imported only where there are arrays.

`check`, the approx and count-ratio forms of `correlation` and `quantum` run
on plain floats, so a fresh interpreter running them never imports numpy.
"""

import subprocess
import sys

import pytest

import ghzdet
from ghzdet import montecarlo


def cli_call(*argv: str) -> str:
    return f"from ghzdet import cli; cli.main({list(argv)!r})"


@pytest.mark.parametrize(
    "statement",
    [
        "import ghzdet",
        cli_call("check", "1", "1", "1", "-1", "--json"),
        cli_call("check", "0.5", "0.5", "0.5", "-0.5"),
        cli_call("correlation", "--d", "0.5", "--dark-rate", "300", "--window", "2e-9", "--json"),
        cli_call("correlation", "--ratio-counts", "1:12"),
        cli_call("quantum", "XXX"),
    ],
    ids=["import", "check-json", "check-feasible", "correlation-rates",
         "correlation-ratio-counts", "quantum"],
)
def test_numpy_not_imported(statement):
    script = f"import sys\n{statement}\nsys.exit(3 if 'numpy' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, f"numpy imported (exit {proc.returncode}): {proc.stderr}"


@pytest.mark.parametrize("name", ["RunConfig", "RunStats", "compare_analytic", "run"])
def test_simulation_names_load_on_use(name):
    assert name in ghzdet.__all__
    assert getattr(ghzdet, name) is getattr(montecarlo, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ghzdet.nope
