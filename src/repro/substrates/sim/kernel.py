"""The discrete-event simulation kernel.

A :class:`Simulator` owns an agenda of
:class:`~repro.substrates.sim.events.Event` objects and advances
simulated time by popping the earliest event.  A callback is the only
way to wait: code that must act later schedules a call with
:meth:`~Simulator.call_in`, :meth:`~Simulator.call_at` or
:meth:`~Simulator.every`, and a multi-step activity (a netbot's
journey, say) ends each step by scheduling the next.

Design notes
------------
* Deterministic: ties broken by ``(priority, seq)``; all randomness comes
  from :class:`~repro.substrates.sim.rng.RngRegistry` streams owned by the
  simulator, never from global state.
* The kernel is single-threaded by construction — the concurrency of the
  Wandering Network is *simulated* concurrency, which keeps every
  experiment reproducible.
* One event at a time.  :meth:`Simulator.run` is the ``peek()``/
  ``step()`` loop written inline: each turn purges dead heads, stops at
  an empty agenda, at the horizon or at ``max_events``, and otherwise
  pops the head entry and fires it.  The loop spelled with the two
  method calls survives as the oracle in the tests
  (``tests/kernel_oracle.py``), and the heap is the only structure
  either loop reads, so the two report the same agenda depth at every
  push by construction.
* One observation hook: ``sim.obs`` installs ``_observe``, which both
  loops call in place of ``Event.fire`` (flight ring, profiler).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ...obs import Observability
from .errors import SchedulingError
from .events import Event, NORMAL
from .rng import RngRegistry
from .trace import TraceBus

_INF = float("inf")

#: Agenda entry: ``(time, priority, seq, event)``.  The 3-field prefix
#: is the kernel's total event order; ``seq`` is unique, so the C tuple
#: compare never reaches the Event.
Entry = Tuple[float, int, int, Event]


def _live(entry: Entry) -> bool:
    ev = entry[3]
    return not (ev._fired or ev._cancelled)


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Every named RNG stream derived through :attr:`rng`
        is a deterministic function of this seed and the stream name.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        # The agenda: a ``heapq`` list of entries, popped in exact
        # ``(time, priority, seq)`` order.  Its length counts every
        # stored entry, pending or lazily cancelled, and a dead
        # (fired or cancelled) entry leaves only when it reaches the
        # head.  ``peak_agenda_depth`` is digest-visible, so this is
        # the depth contract every run loop keeps.
        self._agenda: List[Entry] = []
        # Lifetime agenda tallies: every entry inserted leaves once,
        # popped and fired or purged dead, so inserts == pops + purges
        # + len(agenda).
        self._inserts = 0
        self._pops = 0
        self._purges = 0
        self._stopped = False
        self.events_executed = 0
        #: Deepest the agenda has ever been (pending + lazily-cancelled
        #: entries).  Deterministic for a seeded run, so benchmark
        #: digests may include it.
        self.peak_agenda_depth = 0
        #: The most events :meth:`run` has fired at one simulated time
        #: (diagnostic); ``_instant`` and ``_instant_fires`` carry the
        #: latest such time and its count across paused runs.
        self.max_batch = 0
        self._instant = _INF
        self._instant_fires = 0
        self.rng = RngRegistry(seed)
        # lets the sanitizer tape stamp draws with simulated time
        self.rng.clock = self
        self.trace = TraceBus(self)
        self.seed = seed
        #: The per-event observation hook ``self.obs`` installs (it
        #: fires the event itself); ``None`` keeps the run loops on
        #: the plain fire.
        self._observe = None
        self.obs = Observability(self)

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def schedule_at(self, time: float, priority: int = NORMAL,
                    name: Optional[str] = None) -> Event:
        """Create and enqueue a bare event at absolute ``time``.

        ``time`` must lie in ``[now, inf)``: a NaN or infinite time has
        no place in the total event order.
        """
        if not self._now <= time < _INF:
            raise SchedulingError(
                f"cannot schedule at {time} (now={self._now})")
        ev = Event(time, priority, name=name)
        agenda = self._agenda
        heappush(agenda, (ev.time, ev.priority, ev.seq, ev))
        self._inserts += 1
        if len(agenda) > self.peak_agenda_depth:
            self.peak_agenda_depth = len(agenda)
        return ev

    def schedule(self, delay: float, priority: int = NORMAL,
                 name: Optional[str] = None) -> Event:
        """Create and enqueue a bare event ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SchedulingError(f"delay outside [0, inf): {delay}")
        return self.schedule_at(self._now + delay, priority, name=name)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` at absolute simulated ``time``."""
        ev = self.schedule_at(time, priority, name=name or getattr(
            fn, "__name__", "call"))
        ev._fn = fn
        ev._args = args
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` after ``delay`` simulated seconds.

        This is the hottest scheduling entry point, so the whole
        ``schedule_at`` body is inlined here — one frame instead of
        two.  ``delay`` must lie in ``[0, inf)`` and so must the sum
        ``now + delay``, which makes the absolute time check of
        ``schedule_at`` vacuous.
        """
        time = self._now + delay
        if not (delay >= 0.0 and time < _INF):
            raise SchedulingError(f"delay outside [0, inf): {delay}")
        ev = Event(time, priority, name or getattr(fn, "__name__", "call"))
        ev._fn = fn
        ev._args = args
        agenda = self._agenda
        heappush(agenda, (ev.time, ev.priority, ev.seq, ev))
        self._inserts += 1
        if len(agenda) > self.peak_agenda_depth:
            self.peak_agenda_depth = len(agenda)
        return ev

    def every(self, interval: float, fn: Callable[..., Any], *args: Any,
              start: Optional[float] = None, jitter: float = 0.0,
              stream: str = "kernel.every") -> "PeriodicTask":
        """Call ``fn(*args)`` every ``interval`` seconds (optionally jittered).

        Returns a :class:`PeriodicTask` handle whose :meth:`~PeriodicTask.
        stop` method cancels future firings.
        """
        return PeriodicTask(self, interval, fn, args, start=start,
                            jitter=jitter, stream=stream)

    # -- execution --------------------------------------------------------
    def peek(self) -> float:
        """Purge dead head entries; the next pending time, or
        ``float('inf')`` when nothing is pending."""
        agenda = self._agenda
        while agenda:
            if _live(agenda[0]):
                return agenda[0][0]
            heappop(agenda)
            self._purges += 1
        return _INF

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        if self.peek() == _INF:
            return False
        ev = heappop(self._agenda)[3]
        self._pops += 1
        self._now = ev.time
        observe = self._observe
        if observe is not None:
            observe(ev)
        else:
            ev.fire()
        self.events_executed += 1
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the agenda empties, ``until`` is reached, or
        ``max_events`` have executed.  Returns the final simulated time.

        Pause/resume contract: a run paused at a horizon draws no
        extra RNG or counter state — splitting one run into
        ``run(until=t1); run(until=t2); ...`` executes the exact same
        events, callbacks, and stream draws as a single
        ``run(until=tN)``, and between segments ``schedule_at(t)`` is
        legal for any ``t >= now`` (external event injection).  The
        clock reaches ``until`` unless ``stop()`` or ``max_events``
        ended the run; after a ``max_events`` break it stays at the
        last executed event (never clamped past pending work).
        ``until=inf`` runs as ``until=None`` does: to exhaustion, with
        the clock at the last executed event.  A NaN ``until`` raises
        :class:`SchedulingError`.  A callback that raises ends the run
        with the rest of the agenda still pending.
        """
        self._stopped = False
        if until is not None:
            if until != until:
                raise SchedulingError("run(until=nan) has no horizon")
            if until < self._now:
                raise SchedulingError(
                    f"run(until={until}) is in the past (now={self._now})")
            if until == _INF:
                until = None
        try:
            self._loop(until, max_events)
        finally:
            if self.obs.on:
                self.obs.sync_kernel_stats()
        return self._now

    def _loop(self, until: Optional[float],
              max_events: Optional[int]) -> None:
        """The ``peek()``/``step()`` loop, inlined.

        Each turn checks what the reference loop checks, in its order:
        ``stop()``, then purge dead heads and stop at an empty agenda,
        then stop at the horizon, then at ``max_events``; otherwise it
        pops the head entry and fires it.  Entries leave the heap one
        at a time, so the depth every push sees is the reference
        loop's, and an entry is freed as soon as it fires.
        """
        agenda = self._agenda
        # Arming observation is a run-boundary operation, so the hook
        # is hoisted out of the loop.
        observe = self._observe
        # Sentinels collapse the per-turn None checks into single
        # comparisons: ``t > _INF`` is never true, ``executed == -1``
        # is never true.
        horizon = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        executed = 0                        # entries popped this run
        purges = 0
        max_batch = self.max_batch
        instant = self._instant
        fires = self._instant_fires
        try:
            # Not ``while not self._stopped``: CPython 3.11 counts only
            # an unconditional backward jump toward specializing a
            # function, so that loop ran unspecialized for 8 runs.
            while True:
                if self._stopped:
                    break
                while agenda:
                    ev = agenda[0][3]
                    if not (ev._fired or ev._cancelled):
                        break
                    heappop(agenda)         # lazy cancellation
                    purges += 1
                else:
                    # Nothing pending: the clock reaches the horizon.
                    if until is not None and self._now < until:
                        self._now = until
                    break
                t = ev.time
                if t > horizon:
                    self._now = until
                    break
                if executed == budget:
                    break
                heappop(agenda)
                executed += 1
                if t == instant:
                    fires += 1
                else:
                    instant = t
                    fires = 1
                if fires > max_batch:
                    max_batch = fires
                self._now = t
                if observe is not None:
                    observe(ev)
                else:
                    # Inlined Event.fire: the head is pending by
                    # construction, so its guards cannot trigger.
                    ev._fired = True
                    fn = ev._fn
                    if fn is not None:
                        fn(*ev._args)
                self.events_executed += 1
        finally:
            self._pops += executed
            self._purges += purges
            self.max_batch = max_batch
            self._instant = instant
            self._instant_fires = fires

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._agenda if _live(entry))

    def agenda(self) -> Iterator[Event]:
        """Pending events in fire order (for debugging/inspection).

        Sorts entry tuples in C instead of calling a Python key per
        event; cancelled entries are filtered before the sort.
        """
        live = sorted(entry for entry in self._agenda if _live(entry))
        return iter([entry[3] for entry in live])

    def agenda_stats(self) -> Dict[str, int]:
        """This simulator's agenda operation counters (diagnostics)."""
        return {"inserts": self._inserts, "pops": self._pops,
                "purges": self._purges, "max_batch": self.max_batch,
                "depth": len(self._agenda),
                "peak_depth": self.peak_agenda_depth}

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.6g} pending={self.pending_events} "
                f"executed={self.events_executed}>")


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[..., Any], args: tuple,
                 start: Optional[float] = None, jitter: float = 0.0,
                 stream: str = "kernel.every"):
        if interval <= 0:
            raise SchedulingError(f"non-positive interval: {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.args = args
        self.jitter = float(jitter)
        self.stream = stream
        self.fired = 0
        self._stopped = False
        self._event: Optional[Event] = None
        first = self.interval if start is None else max(0.0, start - sim.now)
        self._arm(first)

    def _arm(self, delay: float) -> None:
        if self._stopped:
            return
        if self.jitter > 0.0:
            delay += self.sim.rng.stream(self.stream).uniform(0, self.jitter)
        self._event = self.sim.call_in(delay, self._fire, name="periodic")

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self.fn(*self.args)
        self._arm(self.interval)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
