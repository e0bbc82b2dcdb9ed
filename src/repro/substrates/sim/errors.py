"""Exception types for the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or after shutdown."""
