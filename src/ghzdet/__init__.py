"""Joint-distribution feasibility of three-particle correlations and a
detector-inefficiency model of the corresponding coincidence experiment.

``import ghzdet`` loads ``lhv`` alone, and with it neither numpy nor
dataclasses.  The other layers are imported by name: ``ghzdet.detector``,
``ghzdet.quantum`` and the simulation, ``ghzdet.montecarlo``, which needs
only the standard library.  Every public name lives in its module, as
``ghzdet.<module>.<name>``.
"""

from . import lhv

__version__ = "0.1.0"
