"""Sim-kernel profiling: per-handler wall time and agenda depth.

With profiling on, the kernel's observation hook (installed by
:class:`~repro.obs.facade.Observability`) times each event's ``fire()``
with ``time.perf_counter`` and calls :meth:`KernelProfiler.record`.
Handlers are keyed by the event's ``name``, which the scheduling
helpers default to the callback's ``__name__`` — so the profile reads
as ``_deliver``, ``_fire``, ``periodic``... directly.  The profiler
only accumulates; :meth:`~repro.obs.snapshot.MergedObs.records` turns
its sums into ``kernel`` and ``profile`` records.

Wall time is *host* time, deliberately outside the simulated clock:
profiling answers "where does the simulator spend real CPU", which
simulated seconds cannot.  The profiler never touches simulator state,
so enabling it does not perturb a seeded run.
"""

from __future__ import annotations

from typing import Dict, Optional


class HandlerStats:
    """Accumulated cost of one event-handler name."""

    __slots__ = ("name", "calls", "total_s", "max_s")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def __repr__(self) -> str:
        return (f"<HandlerStats {self.name} calls={self.calls} "
                f"total={self.total_s:.6f}s>")


class KernelProfiler:
    """Aggregates event-dispatch costs for one simulator."""

    def __init__(self):
        self.handlers: Dict[str, HandlerStats] = {}
        self.events = 0
        self.wall_started: Optional[float] = None
        self.wall_last: Optional[float] = None
        self.max_queue_depth = 0
        self.depth_sum = 0

    def record(self, name: str, t0: float, t1: float,
               queue_depth: int) -> None:
        """One fired event: handler ``name`` ran from host time ``t0``
        to ``t1`` and left ``queue_depth`` entries on the agenda."""
        elapsed_s = t1 - t0
        stats = self.handlers.get(name)
        if stats is None:
            stats = self.handlers[name] = HandlerStats(name)
        stats.calls += 1
        stats.total_s += elapsed_s
        if elapsed_s > stats.max_s:
            stats.max_s = elapsed_s
        self.events += 1
        self.depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        if self.wall_started is None:
            self.wall_started = t0
        self.wall_last = t1

    @property
    def wall_elapsed(self) -> float:
        if self.wall_started is None or self.wall_last is None:
            return 0.0
        return self.wall_last - self.wall_started

    def __repr__(self) -> str:
        return (f"<KernelProfiler events={self.events} "
                f"handlers={len(self.handlers)} "
                f"wall={self.wall_elapsed:.6f}s>")
