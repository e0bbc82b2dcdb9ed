"""The flight recorder: a bounded ring buffer of recent activity.

A long campaign that fails at minute 40 is useless if the evidence
scrolled away at minute 39 — the flight recorder keeps the *last N*
noteworthy moments (kernel event dispatches, fabric deliveries and
drops, shard barrier crossings) in a fixed-size ring so a failing run
can ship its own black box.  Arm it with ``sim.obs.flight(capacity)``;
dump it on demand with :meth:`FlightRecorder.to_records` (record type
``flight`` in the JSONL stream) or let the chaos harness attach it to a
:class:`~repro.resilience.chaos.CampaignResult` whose invariants
failed.

Determinism: the recorder observes ``(sim time, event name, fields)``
only — it never reads wall clocks, never draws RNG, and never schedules
anything, so arming it cannot perturb a seeded run.  Entries carry a
monotone per-recorder ``seq`` so merged multi-shard dumps sort into one
canonical order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Default ring size — small enough to dump into a report, large enough
#: to cover the few seconds of simulated time before an invariant trips.
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Fixed-capacity ring of the most recent simulator moments."""

    __slots__ = ("capacity", "entries", "recorded")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.entries: deque = deque(maxlen=self.capacity)
        #: Total entries ever recorded; ``recorded - len(entries)`` is
        #: how many the ring has evicted.
        self.recorded = 0

    # -- hot path ----------------------------------------------------------
    def note(self, kind: str, t: float, what: str, **fields: Any) -> None:
        """Record one moment.  ``kind`` is the entry class (``event``,
        ``delivery``, ``drop``, ``barrier``...), ``t`` the simulated
        time, ``what`` a short human label."""
        entry: Dict[str, Any] = {"seq": self.recorded, "kind": kind,
                                 "t": t, "what": what}
        if fields:
            entry.update(fields)
        self.entries.append(entry)
        self.recorded += 1

    # -- introspection -----------------------------------------------------
    @property
    def evicted(self) -> int:
        return self.recorded - len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_records(self, shard: Optional[int] = None
                   ) -> Iterator[Dict[str, Any]]:
        """Ring contents as flat JSONL-able records (oldest first)."""
        for entry in self.entries:
            record = {"type": "flight"}
            record.update(entry)
            if shard is not None:
                record["shard"] = shard
            yield record

    def __repr__(self) -> str:
        return (f"<FlightRecorder {len(self.entries)}/{self.capacity} "
                f"recorded={self.recorded}>")


# ----------------------------------------------------------------------
# offline rendering (``repro obs flight``)
# ----------------------------------------------------------------------

def render_flight(records: Iterable[Dict[str, Any]],
                  last: int = 20) -> str:
    """Plain-text view of the newest ``last`` flight entries.

    Works on live :meth:`FlightRecorder.to_records` output or on
    records reloaded from a JSONL artifact; merged multi-shard dumps
    are re-sorted into the canonical ``(t, shard, seq)`` order first.
    """
    entries = [r for r in records if r.get("type") == "flight"]
    if not entries:
        return "(flight recorder empty — arm with obs.flight(capacity))"
    entries.sort(key=lambda r: (r.get("t", 0.0), r.get("shard", 0),
                                r.get("seq", 0)))
    shown = entries[-last:] if last and last > 0 else entries
    sharded = any("shard" in r for r in entries)
    lines: List[str] = [
        f"flight recorder — {len(entries)} entrie(s), "
        f"showing last {len(shown)}"]
    for rec in shown:
        extras = ", ".join(
            f"{k}={rec[k]}" for k in sorted(rec)
            if k not in ("type", "seq", "kind", "t", "what", "shard"))
        shard_tag = (f" [shard {rec['shard']}]"
                     if sharded and "shard" in rec else "")
        lines.append(
            f"  t={rec.get('t', 0.0):<12.6g} {rec.get('kind', '?'):9s} "
            f"{rec.get('what', '?')}{shard_tag}"
            + (f"  ({extras})" if extras else ""))
    return "\n".join(lines)
