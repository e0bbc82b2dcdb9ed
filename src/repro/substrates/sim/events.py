"""The event primitive of the discrete-event kernel.

An :class:`Event` is a one-shot call, ``fn(*args)``, at a simulated time:
the kernel's only way to wait.  The agenda orders events by their
``(time, priority, seq)`` entry tuples, so simultaneous events fire in a
deterministic order — determinism is a hard requirement for the
reproduction experiments (every run must be bit-for-bit repeatable given
a seed).  ``seq`` is unique, so two events are never compared.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

#: Default event priority.  Lower fires first among simultaneous events.
NORMAL = 0
#: Priority for housekeeping that must precede normal events (e.g. link-state
#: recomputation before packet delivery at the same instant).
URGENT = -10
#: Priority for observers that must see the state *after* normal events.
LAZY = 10

# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_seq = itertools.count()


class Event:
    """A schedulable one-shot call.

    ``Simulator.call_at``/``call_in`` set the ``(fn, args)`` pair; an
    event from ``schedule``/``schedule_at`` has none and fires as a
    no-op.  An event may be cancelled before it fires, in which case
    its call never runs.
    """

    __slots__ = ("time", "priority", "seq", "_fired", "_cancelled", "name",
                 "_fn", "_args")

    def __init__(self, time: float, priority: int = NORMAL,
                 name: Optional[str] = None):
        self.time = float(time)
        self.priority = int(priority)
        self.seq = next(_seq)
        self._fired = False
        self._cancelled = False
        self.name = name
        self._fn: Optional[Callable[..., Any]] = None
        self._args: tuple = ()

    # -- lifecycle --------------------------------------------------------
    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        return not (self._fired or self._cancelled)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        if self.pending:
            self._cancelled = True
            return True
        return False

    def fire(self) -> None:
        """Make the call.  Called by the kernel only."""
        if self._cancelled:
            return
        if self._fired:
            raise RuntimeError(f"event {self!r} fired twice")
        self._fired = True
        fn = self._fn
        if fn is not None:
            fn(*self._args)

    def __repr__(self) -> str:
        label = self.name or "event"
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        return f"<{label} t={self.time:.6g} {state}>"
