"""Trace / metrics bus.

A lightweight publish-subscribe channel carried by the simulator.  Any
component may ``emit(topic, **fields)``; analysis code subscribes by topic
prefix, and a subscriber that wants to keep or count records does so
itself.  A record is a cheap tuple, built only once some subscriber
matches, so tracing a long run stays fast: with no subscriber at all an
emit returns after the observability check, and each prefix level no
subscriber matches costs a dictionary miss and two string operations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    time: float
    topic: str
    fields: Dict[str, Any]


Subscriber = Callable[[TraceRecord], None]


class TraceBus:
    """Topic-based pub/sub attached to a :class:`Simulator`.

    Topics are dot-separated (e.g. ``"ship.role.change"``).  A subscriber
    registered for ``"ship"`` receives every topic starting with
    ``"ship."`` as well as ``"ship"`` itself.
    """

    def __init__(self, sim):
        self._sim = sim
        self._subs: Dict[str, List[Subscriber]] = defaultdict(list)
        self.emitted = 0
        #: Exceptions swallowed from subscribers (a broken analysis
        #: callback must never abort the emitting simulation step).
        self.subscriber_errors = 0
        self.last_error: Optional[BaseException] = None

    # -- subscription -----------------------------------------------------
    def subscribe(self, prefix: str, fn: Subscriber) -> Subscriber:
        self._subs[prefix].append(fn)
        return fn

    def unsubscribe(self, prefix: str, fn: Subscriber) -> None:
        subs = self._subs.get(prefix)
        if subs is None:
            return
        try:
            subs.remove(fn)
        except ValueError:
            pass
        if not subs:
            # Prune: an empty list would still cost the prefix walk a
            # truthiness check per emit, and `if not self._subs` relies
            # on dead prefixes disappearing.
            del self._subs[prefix]

    # -- emission ---------------------------------------------------------
    def emit(self, topic: str, **fields: Any) -> None:
        self.emitted += 1
        obs = getattr(self._sim, "obs", None)
        if obs is not None and obs.on:
            obs.record_topic(topic)
        if not self._subs:
            return
        rec: Optional[TraceRecord] = None
        # Walk the prefix chain: "a.b.c" notifies "a.b.c", "a.b", "a".
        part = topic
        while True:
            subs = self._subs.get(part)
            if subs:
                if rec is None:
                    rec = TraceRecord(self._sim.now, topic, fields)
                for fn in list(subs):
                    try:
                        fn(rec)
                    except Exception as exc:
                        self.subscriber_errors += 1
                        self.last_error = exc
            cut = part.rfind(".")
            if cut < 0:
                break
            part = part[:cut]
