"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence at a simulated time.  Events are
totally ordered by ``(time, priority, seq)`` so that simultaneous events
fire in a deterministic order — determinism is a hard requirement for the
reproduction experiments (every run must be bit-for-bit repeatable given a
seed).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

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
    """A schedulable one-shot occurrence.

    Callbacks attached via :meth:`add_callback` run, in attachment order,
    when the event fires.  An event may be cancelled before it fires, in
    which case callbacks never run.
    """

    __slots__ = ("time", "priority", "seq", "callbacks", "value",
                 "_fired", "_cancelled", "name", "_fn", "_args")

    def __init__(self, time: float, priority: int = NORMAL,
                 name: Optional[str] = None):
        self.time = float(time)
        self.priority = int(priority)
        self.seq = next(_seq)
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None
        self._fired = False
        self._cancelled = False
        self.name = name
        # Direct-call fast path used by Simulator.call_at/call_in: the
        # (fn, args) pair fires before the callbacks list, in exactly
        # the position the old ``lambda _ev: fn(*args)`` first callback
        # occupied, without the closure allocation.
        self._fn: Optional[Callable[..., Any]] = None
        self._args: tuple = ()

    # -- ordering ---------------------------------------------------------
    def sort_key(self):
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

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

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._fired:
            raise RuntimeError(f"event {self!r} already fired")
        self.callbacks.append(fn)

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        if self.pending:
            self._cancelled = True
            return True
        return False

    def fire(self) -> None:
        """Run callbacks.  Called by the kernel only."""
        if self._cancelled:
            return
        if self._fired:
            raise RuntimeError(f"event {self!r} fired twice")
        self._fired = True
        fn = self._fn
        if fn is not None:
            fn(*self._args)
        for fn in self.callbacks:
            fn(self)

    def __repr__(self) -> str:
        label = self.name or "event"
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        return f"<{label} t={self.time:.6g} {state}>"


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:
        return f"Timeout({self.delay:.6g})"


class Signal:
    """A broadcast condition processes can wait on.

    ``wait()`` is yielded from a process; ``trigger(value)`` wakes every
    waiter with that value.  Signals are reusable (each trigger wakes the
    waiters registered since the previous trigger).
    """

    __slots__ = ("name", "_waiters", "trigger_count", "last_value")

    def __init__(self, name: str = "signal"):
        self.name = name
        self._waiters: List[Any] = []  # list[Process]
        self.trigger_count = 0
        self.last_value: Any = None

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def _register(self, process) -> None:
        self._waiters.append(process)

    def _unregister(self, process) -> None:
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def trigger(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.trigger_count += 1
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._wake(value)
        return len(waiters)

    def __repr__(self) -> str:
        return f"<Signal {self.name} waiting={self.waiting}>"
