"""The discrete-event simulation kernel.

A :class:`Simulator` owns a binary-heap agenda (:mod:`repro.substrates.
sim.agenda`) of :class:`~repro.substrates.sim.events.Event` objects and
advances simulated time by popping the earliest event.  Processes
(generator coroutines) are layered on top in
:mod:`repro.substrates.sim.process`.

Design notes
------------
* Deterministic: ties broken by ``(priority, seq)``; all randomness comes
  from :class:`~repro.substrates.sim.rng.RngRegistry` streams owned by the
  simulator, never from global state.
* The kernel is single-threaded by construction — the concurrency of the
  Wandering Network is *simulated* concurrency, which keeps every
  experiment reproducible.
* One run loop.  :meth:`Simulator.run` drains every event sharing the
  head timestamp into one batch.  Its oracle is the one-event-at-a-time
  ``peek()``/``step()`` loop, which lives in the tests
  (``tests/kernel_oracle.py``).  Depth parity between the two is kept
  by combined accounting: a push during a batch reports ``len(agenda)
  + remaining batch entries``, and dead batch entries stay counted
  until the batch cursor passes them (exactly when the reference heap
  would have purged them).
* One observation hook: ``sim.obs`` installs ``_observe``, which both
  loops call in place of ``Event.fire`` (flight ring, profiler).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, Iterator, List, Optional

from ...obs import Observability
from .agenda import Entry, HeapAgenda
from .errors import SchedulingError
from .events import Event, NORMAL
from .rng import RngRegistry
from .trace import TraceBus

_INF = float("inf")


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
        self._agenda = HeapAgenda()
        # Bound once: the agenda never changes after construction and
        # schedule_at is the hottest method in the kernel.
        self._agenda_push = self._agenda.push
        self._running = False
        self._stopped = False
        self.events_executed = 0
        #: Deepest the agenda has ever been (pending + lazily-cancelled
        #: entries; during batched execution the not-yet-reached batch
        #: entries still count).  Deterministic for a seeded run, so
        #: benchmark digests may include it.
        self.peak_agenda_depth = 0
        # Live same-timestamp batch (batched loop): the entry list being
        # drained, the time it fires at (None outside a batch), the
        # cursor, and the count of entries after the cursor — consulted
        # by schedule_at for same-instant insertion and combined depth.
        self._batch: List[Entry] = []
        self._batch_time: Optional[float] = None
        self._batch_index = 0
        self._batch_pending = 0
        #: Largest same-timestamp batch drained so far (diagnostic).
        self.max_batch = 0
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
        """Create and enqueue a bare event at absolute ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} (now={self._now})")
        ev = Event(time, priority, name=name)
        if self._batch_time == time:
            # Scheduled at the very instant being drained: the event
            # belongs in the live batch, ordered by (priority, seq)
            # among the entries not yet reached — exactly where the
            # reference heap would pop it next.
            insort(self._batch, (ev.time, ev.priority, ev.seq, ev),
                   lo=self._batch_index + 1)
            self._batch_pending += 1
            depth = len(self._agenda) + self._batch_pending
        else:
            depth = self._agenda_push(ev) + self._batch_pending
        if depth > self.peak_agenda_depth:
            self.peak_agenda_depth = depth
        return ev

    def schedule(self, delay: float, priority: int = NORMAL,
                 name: Optional[str] = None) -> Event:
        """Create and enqueue a bare event ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, priority, name=name)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` at absolute simulated ``time``."""
        ev = self.schedule_at(time, priority, name=name or getattr(
            fn, "__name__", "call"))
        # Direct (fn, args) storage fires in the same position the old
        # first-callback lambda did, without the closure allocation.
        ev._fn = fn
        ev._args = args
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any,
                priority: int = NORMAL, name: Optional[str] = None) -> Event:
        """Call ``fn(*args)`` after ``delay`` simulated seconds.

        This is the hottest scheduling entry point, so the whole
        ``schedule_at`` body is inlined here (live-batch insort, agenda
        push, peak-depth tracking) — one frame instead of three.
        ``delay >= 0`` implies ``time >= now``, so the absolute time
        check in ``schedule_at`` is vacuous and dropped.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        time = self._now + delay
        ev = Event(time, priority, name or getattr(fn, "__name__", "call"))
        ev._fn = fn
        ev._args = args
        if self._batch_time == time:
            insort(self._batch, (ev.time, ev.priority, ev.seq, ev),
                   lo=self._batch_index + 1)
            self._batch_pending += 1
            depth = len(self._agenda) + self._batch_pending
        else:
            depth = self._agenda_push(ev) + self._batch_pending
        if depth > self.peak_agenda_depth:
            self.peak_agenda_depth = depth
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
        """Time of the next pending event, or ``float('inf')``."""
        if self._batch_time is not None and self._batch_pending:
            for entry in self._batch[self._batch_index + 1:]:
                ev = entry[3]
                if not (ev._fired or ev._cancelled):
                    return self._batch_time
        return self._agenda.next_time()

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        ev = self._agenda.pop_next()
        if ev is None:
            return False
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
        legal for any ``t >= now`` (external event injection).  After a
        ``max_events`` break the clock stays at the last executed event
        (never clamped past pending work).
        """
        self._running = True
        self._stopped = False
        if until is not None and until < self._now:
            raise SchedulingError(
                f"run(until={until}) is in the past (now={self._now})")
        try:
            self._run_batched(until, max_events)
        finally:
            self._running = False
            if self.obs.on:
                self.obs.sync_kernel_stats()
        return self._now

    def _run_batched(self, until: Optional[float],
                     max_events: Optional[int]) -> None:
        """Batched loop: drain all events at the head timestamp.

        Event order, purge boundaries, and depth accounting are
        byte-identical to the reference loop, which runs ``peek()``
        and ``step()`` until the agenda empties, the horizon passes,
        ``max_events`` have fired or ``stop()`` was called:

        * The drained batch preserves ``(priority, seq)`` order; events
          scheduled *at the batch instant* by a firing callback are
          insorted into the not-yet-reached suffix (schedule_at), which
          is exactly where the reference heap would pop them.
        * Dead entries ride in the batch and are discarded when the
          cursor reaches them — the same boundary (after the previous
          fire, before the next) at which the reference purge drops
          them — so combined depth matches at every push point.  A
          ``stop()`` ends the drain before the next entry is inspected,
          just as the reference loop stops before its next purge.
        * However the drain ends early — ``stop()``, ``max_events``, or
          a callback that raises — the untouched batch suffix goes back
          to the agenda, leaving it exactly as the reference loop's heap
          would stand.
        """
        agenda = self._agenda
        next_time = agenda.next_time
        pop_run = agenda.pop_run
        # Sentinels collapse the per-iteration None checks into single
        # comparisons: ``nxt > _INF`` is never true, ``executed == -1``
        # is never true.
        horizon = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        executed = 0
        budget_hit = False
        max_batch = self.max_batch
        batch = self._batch
        del batch[:]
        # Batch cursor: entries from ``batch[i]`` on have not been
        # reached, and the ``finally`` below re-queues them.  Slots the
        # cursor passes are cleared, so a fired or dead entry is freed
        # by reference counting at once instead of living to the end of
        # its batch, where the cyclic collector's young-generation
        # passes would walk and promote it (that cost perfbench's
        # ``timer-churn``, with its ~100-event batches, about a fifth of
        # its throughput).
        i = 0
        # Arming observation is a run-boundary operation, so the hook
        # is hoisted out of the loop.
        observe = self._observe
        try:
            while not self._stopped:
                if executed == budget:
                    # Replicate the reference check order (inf, until,
                    # budget) at this once-per-run boundary: the budget
                    # break must not fire when the reference would have
                    # stopped on an empty agenda or clamped at a horizon
                    # first.
                    nxt = next_time()
                    if nxt == _INF:
                        break
                    if nxt > horizon:
                        self._now = until
                        break
                    budget_hit = True
                    break
                ret = pop_run(batch)
                if type(ret) is tuple:
                    # Singleton batch (the common case on jittered
                    # schedules): pop_run returned the lone head entry
                    # and left ``batch`` untouched.  The head is pending
                    # by construction (pop_run purged dead heads) and
                    # the outer loop already ran the stop/budget checks,
                    # so fire it without engaging the batch bookkeeping.
                    # A callback scheduling at exactly this instant
                    # pushes into the agenda, where it is the new head —
                    # the same position the live-batch insort would give
                    # it — and combined depth matches because
                    # ``_batch_pending`` stays 0 while ``len(agenda)``
                    # counts it.
                    t = ret[0]
                    if t > horizon:
                        # Past the horizon: the entry goes back whole —
                        # no user code ran, so no push point observes
                        # the dip.
                        agenda.push_entry(ret)
                        self._now = until
                        break
                    self._now = t
                    ev = ret[3]
                    if max_batch == 0:
                        max_batch = 1
                    if observe is not None:
                        observe(ev)
                    else:
                        # Inlined Event.fire: the event is pending by
                        # construction here, so the cancelled/double-fire
                        # guards cannot trigger.
                        ev._fired = True
                        fn = ev._fn
                        if fn is not None:
                            fn(*ev._args)
                        for cb in ev.callbacks:
                            cb(ev)
                    self.events_executed += 1
                    executed += 1
                    continue
                nxt = ret
                if nxt == _INF:
                    break
                i = 0
                if nxt > horizon:
                    # Past the horizon: the drained batch goes back whole
                    # (the ``finally`` re-queues it from cursor 0).  No
                    # user code runs between the drain and the re-push,
                    # so no push point can observe the depth dip; entry
                    # tuples are reused, so no id or RNG state is drawn.
                    self._now = until
                    break
                n = len(batch)
                if n > max_batch:
                    max_batch = n
                self._now = nxt
                self._batch_time = nxt
                while i < len(batch):       # callbacks may grow the batch
                    if self._stopped:
                        break
                    ev = batch[i][3]
                    if ev._fired or ev._cancelled:
                        # Lazy-cancellation disposal at the same boundary
                        # the reference heap purge would hit it.
                        agenda.purges += 1
                        batch[i] = None
                        i += 1
                        continue
                    if executed == budget:
                        budget_hit = True
                        break
                    # Consume the entry before firing, so a raising
                    # callback leaves only the untouched suffix for the
                    # ``finally`` to re-queue.
                    self._batch_index = i
                    batch[i] = None
                    i += 1
                    self._batch_pending = len(batch) - i
                    if observe is not None:
                        observe(ev)
                    else:
                        ev.fire()
                    self.events_executed += 1
                    executed += 1
                self._batch_time = None
                self._batch_pending = 0
                if i < len(batch):
                    break                   # stop() or max_events
                del batch[:]
        finally:
            self._batch_time = None
            self._batch_pending = 0
            for entry in batch[i:]:
                agenda.push_entry(entry)
            del batch[:]
            self.max_batch = max_batch
        if (until is not None and self._now < until
                and not self._stopped and not budget_hit):
            self._now = until

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        count = self._agenda.pending_count()
        if self._batch_time is not None:
            for entry in self._batch[self._batch_index + 1:]:
                ev = entry[3]
                if not (ev._fired or ev._cancelled):
                    count += 1
        return count

    def agenda(self) -> Iterator[Event]:
        """Pending events in fire order (for debugging/inspection).

        Sorts entry tuples in C instead of calling a Python key per
        event; cancelled entries are filtered before the sort.
        """
        ordered = self._agenda.ordered()
        if self._batch_time is not None:
            live = [entry for entry in self._batch[self._batch_index + 1:]
                    if not (entry[3]._fired or entry[3]._cancelled)]
            if live:
                ordered = [e[3] for e in sorted(live)] + ordered
        return iter(ordered)

    def agenda_stats(self) -> Dict[str, int]:
        """This simulator's agenda operation counters (diagnostics)."""
        a = self._agenda
        return {"inserts": a.inserts, "pops": a.pops, "purges": a.purges,
                "max_batch": self.max_batch, "depth": len(a),
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
