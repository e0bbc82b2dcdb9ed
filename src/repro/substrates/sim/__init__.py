"""Discrete-event simulation kernel (substrate).

The Wandering Network of the Viator paper is a *concept*; this kernel is
the deterministic clockwork everything else in the reproduction runs on.
"""

from .errors import SchedulingError, SimulationError
from .events import LAZY, NORMAL, URGENT, Event
from .kernel import PeriodicTask, Simulator
from .resources import TokenBucket
from .rng import RngRegistry, derive_seed
from .trace import TraceBus, TraceRecord

__all__ = [
    "SchedulingError", "SimulationError", "Event", "NORMAL", "URGENT",
    "LAZY", "Simulator", "PeriodicTask", "TokenBucket", "RngRegistry",
    "derive_seed", "TraceBus", "TraceRecord",
]
