"""Joint-distribution feasibility of three-particle correlations and a
detector-inefficiency model of the corresponding coincidence experiment.

The simulation names (RunConfig, RunStats, compare_analytic, run) are loaded
on first use, so that ``import ghzdet`` does not import numpy.
"""

from .detector import DetectorParams
from .lhv import (
    CorrelationSet,
    FeasibilityReport,
    JointDistribution8,
    check_inequalities,
    construct_symmetric_joint,
    epsilon_feasible,
    expectations_from_joint,
    feasible_oracle,
    mermin_f,
)
from .quantum import ghz_state, ghz_witness, operator_expectation

_MONTECARLO_NAMES = ("RunConfig", "RunStats", "compare_analytic", "run")


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CorrelationSet",
    "DetectorParams",
    "FeasibilityReport",
    "JointDistribution8",
    "RunConfig",
    "RunStats",
    "check_inequalities",
    "compare_analytic",
    "construct_symmetric_joint",
    "epsilon_feasible",
    "expectations_from_joint",
    "feasible_oracle",
    "ghz_state",
    "ghz_witness",
    "mermin_f",
    "operator_expectation",
    "run",
]

__version__ = "0.1.0"
