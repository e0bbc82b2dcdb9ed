"""The discrete-event kernel's agenda: a binary heap of entry tuples.

:class:`HeapAgenda` stores ``(time, priority, seq, event)`` tuples under
``heapq``.  Storing tuples instead of :class:`Event` objects moves every
ordering comparison from a Python ``__lt__`` call (which builds two key
tuples per probe) into C tuple comparison; the order is the kernel's
total event order because ``seq`` is unique, so the tuple prefix
``(time, priority, seq)`` already decides every comparison.

Depth contract
--------------
* Entries leave in exact ``(time, priority, seq)`` order.
* ``__len__`` counts *every* stored entry, pending or lazily
  cancelled — ``peak_agenda_depth`` is digest-visible, so the kernel's
  batched loop and its reference loop must see the same count at every
  push point.
* Dead (fired/cancelled) entries are discarded only when they reach the
  head (the lazy-cancellation boundary).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .events import Event

#: Agenda entry: ``(time, priority, seq, event)``.  The 3-field prefix
#: is the kernel's total event order; the tuple compare never reaches
#: the Event (``seq`` is unique).
Entry = Tuple[float, int, int, Event]

_INF = float("inf")


# ----------------------------------------------------------------------
# the agenda
# ----------------------------------------------------------------------

class HeapAgenda:
    """Binary-heap agenda over C-comparable entry tuples."""

    __slots__ = ("_heap", "inserts", "pops", "purges")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self.inserts = 0
        self.pops = 0
        self.purges = 0

    # -- insertion --------------------------------------------------------
    def push(self, ev: Event) -> int:
        """Insert ``ev``; returns the entry count after insertion."""
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
        self.inserts += 1
        return len(self._heap)

    def push_entry(self, entry: Entry) -> int:
        """Re-insert an existing entry tuple (batch leftovers)."""
        heapq.heappush(self._heap, entry)
        self.inserts += 1
        return len(self._heap)

    # -- extraction -------------------------------------------------------
    def next_time(self) -> float:
        """Purge dead head entries; the next pending time or ``inf``."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            ev = heap[0][3]
            if ev._fired or ev._cancelled:
                heappop(heap)
                self.purges += 1
            else:
                return heap[0][0]
        return _INF

    def pop_next(self) -> Optional[Event]:
        """Pop the earliest pending event (purging dead heads)."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            ev = heappop(heap)[3]
            if ev._fired or ev._cancelled:
                self.purges += 1
                continue
            self.pops += 1
            return ev
        return None

    def pop_run(self, out: List[Entry]):
        """Fused purge + peek + same-timestamp drain: one call per
        kernel iteration.

        Three-way return, discriminated by type (the singleton case is
        the overwhelmingly common one on jittered schedules, and
        returning the entry directly spares the caller all list
        traffic):

        * the lone head **entry tuple** when exactly one live event sits
          at the head timestamp (``out`` untouched);
        * the drained **timestamp** (float) with the batch appended to
          ``out`` when several do;
        * ``inf`` (float) leaving ``out`` empty when nothing is pending.

        Dead entries *behind* a live head at the same timestamp ride
        along in ``out``: the kernel discards them when its batch cursor
        reaches them, the boundary at which a one-at-a-time pop would
        purge them, so they stay counted until then.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev._fired or ev._cancelled:
                heappop(heap)
                self.purges += 1
                continue
            t = entry[0]
            first = heappop(heap)
            if not heap or heap[0][0] != t:
                self.pops += 1
                return first
            out.append(first)
            while heap and heap[0][0] == t:
                out.append(heappop(heap))
            self.pops += len(out)
            return t
        return _INF

    # -- inspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def pending_count(self) -> int:
        count = 0
        for entry in self._heap:
            ev = entry[3]
            if not (ev._fired or ev._cancelled):
                count += 1
        return count

    def ordered(self) -> List[Event]:
        """Pending events in fire order (C tuple sort, no key calls)."""
        live = [entry for entry in self._heap
                if not (entry[3]._fired or entry[3]._cancelled)]
        live.sort()
        return [entry[3] for entry in live]
