"""Joint-distribution feasibility of three-particle correlations and a
detector-inefficiency model of the corresponding coincidence experiment.

``import ghzdet`` loads ``lhv`` alone, without dataclasses.  The other layers
are imported by name: ``ghzdet.detector``, ``ghzdet.quantum`` and the
simulation, ``ghzdet.montecarlo``.  Each needs only the standard library:
``quantum.sample_many`` draws with the caller's numpy generator and imports
nothing.  Every public name lives in its module, as ``ghzdet.<module>.<name>``.
"""

from . import lhv

__version__ = "0.1.0"
