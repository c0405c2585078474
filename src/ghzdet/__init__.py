"""Joint-distribution feasibility of three-particle correlations and a
detector-inefficiency model of the corresponding coincidence experiment.

``import ghzdet`` loads ``lhv``, ``detector`` and ``quantum``, and with them
neither numpy nor dataclasses.  Every public name lives in its module, as
``ghzdet.<module>.<name>``.  The simulation is ``ghzdet.montecarlo``, which
needs only the standard library.
"""

from . import detector, lhv, quantum

__version__ = "0.1.0"
