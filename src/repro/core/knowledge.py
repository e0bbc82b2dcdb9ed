"""Knowledge quanta, facts and net functions (PMP definitions 3.2-3.3).

The Pulsating Metamorphosis Principle postulates:

* "A net function can be based on one or more facts (events,
  experiences).  The combination of net function and facts is called a
  *knowledge quantum* (kq)."
* "Facts have a certain lifetime ... which depends on their clustering
  inside the ships (knowledge base), as well as from their transmission
  intensity, or bandwidth ('weight').  As soon as a fact does not reach
  its frequency threshold, it is deleted to leave space for new facts."
* "Since net functions are based on facts, their lifetime ... depends on
  the facts. ... The lifetime of a knowledge quantum is defined by the
  lifetime of its network function."

This module gives those sentences executable semantics: a fact's weight
is an exponentially-decayed access frequency; a knowledge base sweeps
below-threshold facts; a net function is alive while any supporting fact
class is alive.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple


# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_fact_ids = itertools.count(1)
# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_kq_ids = itertools.count(1)

#: Default decay rate: weight halves roughly every 70 seconds.
DEFAULT_DECAY_RATE = 0.01
#: Default frequency threshold below which a fact is evicted.
DEFAULT_THRESHOLD = 0.2
#: Weight saturation: the paper's "weight" is a transmission *intensity*
#: (a rate), so confirmations saturate instead of accumulating without
#: bound — otherwise one busy hour would pin a fact for a week.
MAX_WEIGHT = 8.0


class Fact:
    """One event/experience recorded by a ship.

    ``fact_class`` is the clustering key (e.g. ``"link-state"``,
    ``"content-request"``, ``"role-usage"``); ``value`` is the payload.
    ``weight`` is the paper's "transmission intensity, or bandwidth":
    it decays exponentially and is bumped on every access/confirmation.
    """

    __slots__ = ("fact_id", "fact_class", "value", "created_at", "source",
                 "threshold", "_weight", "_weight_time", "accesses")

    def __init__(self, fact_class: str, value: Any, created_at: float = 0.0,
                 source: Optional[Hashable] = None,
                 weight: float = 1.0,
                 threshold: float = DEFAULT_THRESHOLD):
        if weight <= 0:
            raise ValueError(f"non-positive initial weight {weight}")
        if threshold < 0:
            raise ValueError(f"negative threshold {threshold}")
        self.fact_id = next(_fact_ids)
        self.fact_class = fact_class
        self.value = value
        self.created_at = float(created_at)
        self.source = source
        self.threshold = float(threshold)
        self._weight = float(weight)
        self._weight_time = float(created_at)
        self.accesses = 0

    def weight(self, now: float, decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """Current decayed weight."""
        dt = max(0.0, now - self._weight_time)
        return self._weight * math.exp(-decay_rate * dt)

    def touch(self, now: float, boost: float = 1.0,
              decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """Record an access/confirmation; returns the new weight.

        Weight saturates at :data:`MAX_WEIGHT` — it models intensity,
        not a lifetime counter.
        """
        # weight() and min() inlined on the per-hop path; the
        # conditionals are max(0.0, dt) and min(MAX_WEIGHT, w) exactly.
        dt = now - self._weight_time
        weight = self._weight * math.exp(
            -decay_rate * (dt if dt > 0.0 else 0.0)) + boost
        self._weight = weight if weight < MAX_WEIGHT else MAX_WEIGHT
        self._weight_time = now
        self.accesses += 1
        return self._weight

    def alive(self, now: float, decay_rate: float = DEFAULT_DECAY_RATE) -> bool:
        return self.weight(now, decay_rate) >= self.threshold

    def expiry_time(self, decay_rate: float = DEFAULT_DECAY_RATE) -> float:
        """The time at which the weight crosses the threshold."""
        if self.threshold <= 0:
            return float("inf")
        if self._weight <= self.threshold:
            return self._weight_time
        return self._weight_time + math.log(
            self._weight / self.threshold) / decay_rate

    def snapshot(self, now: float) -> Dict[str, Any]:
        """Serializable summary (what genetic transcoding ships around)."""
        return {"fact_class": self.fact_class, "value": self.value,
                "weight": self.weight(now), "source": self.source}

    def __repr__(self) -> str:
        return (f"<Fact #{self.fact_id} {self.fact_class} "
                f"value={self.value!r}>")


class NetFunction:
    """A network function and the fact classes that keep it alive.

    "Which facts determine the presence of a particular function inside
    the Wandering Network is defined individually for each function."
    """

    __slots__ = ("function_id", "supporting_classes", "min_support_weight")

    def __init__(self, function_id: str,
                 supporting_classes: Iterable[str],
                 min_support_weight: float = DEFAULT_THRESHOLD):
        self.function_id = function_id
        self.supporting_classes: Tuple[str, ...] = tuple(supporting_classes)
        self.min_support_weight = float(min_support_weight)

    def alive(self, kb: "KnowledgeBase", now: float) -> bool:
        """A function lives while any supporting fact class carries weight."""
        if not self.supporting_classes:
            return True  # unconditioned functions never fact-expire
        return any(
            kb.class_weight(cls, now) >= self.min_support_weight
            for cls in self.supporting_classes)

    def __repr__(self) -> str:
        return (f"<NetFunction {self.function_id} "
                f"supports={list(self.supporting_classes)}>")


class KnowledgeQuantum:
    """A transportable (function, facts) capsule — the PMP's ``kq``.

    Knowledge quanta are "a new type of capsules which are distributed
    via shuttles"; their lifetime equals their function's lifetime.
    """

    __slots__ = ("kq_id", "function_id", "fact_snapshots", "origin",
                 "created_at", "generation")

    def __init__(self, function_id: str,
                 fact_snapshots: List[Dict[str, Any]],
                 origin: Optional[Hashable] = None,
                 created_at: float = 0.0, generation: int = 0):
        self.kq_id = next(_kq_ids)
        self.function_id = function_id
        self.fact_snapshots = list(fact_snapshots)
        self.origin = origin
        self.created_at = float(created_at)
        #: How many ship-to-ship transfers this kq has survived.
        self.generation = int(generation)

    @property
    def size_bytes(self) -> int:
        """Wire size: a compact record per fact plus a function header."""
        return 64 + 48 * len(self.fact_snapshots)

    def aged(self) -> "KnowledgeQuantum":
        """A copy as re-emitted by a relaying ship."""
        return KnowledgeQuantum(self.function_id, self.fact_snapshots,
                                self.origin, self.created_at,
                                self.generation + 1)

    def __repr__(self) -> str:
        return (f"<kq #{self.kq_id} fn={self.function_id} "
                f"facts={len(self.fact_snapshots)} gen={self.generation}>")


class KnowledgeBase:
    """A ship's fact store with frequency-threshold eviction.

    Facts cluster by ``fact_class``; the class weight (sum of member
    weights) is what keeps the class's dependent functions alive.
    ``capacity`` bounds the store — when full, the lowest-weight fact is
    displaced ("deleted to leave space for new facts").
    """

    def __init__(self, capacity: int = 512,
                 decay_rate: float = DEFAULT_DECAY_RATE):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if decay_rate <= 0:
            raise ValueError(f"decay rate must be positive: {decay_rate}")
        self.capacity = int(capacity)
        self.decay_rate = float(decay_rate)
        self._facts: Dict[int, Fact] = {}
        self._by_class: Dict[str, List[int]] = {}
        # (fact_class, value) -> fact, for hashable values; per class,
        # the number of members whose unhashable value is not indexed.
        self._index: Dict[Tuple[str, Any], Fact] = {}
        self._unindexed: Dict[str, int] = {}
        #: Moves exactly when the set of :meth:`classes` changes, so a
        #: reader can keep what it derived from that set under this stamp.
        self.class_version = 0
        self.evictions = 0
        self.inserts = 0
        # content_digest() cache: valid while the *membership* of the
        # store is unchanged (weight touches don't enter the digest).
        self._digest: Optional[str] = None
        self._digest_dirty = True
        self.digest_hits = 0

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact_id: int) -> bool:
        return fact_id in self._facts

    # -- insertion ----------------------------------------------------------
    def record(self, fact: Fact, now: float) -> Fact:
        """Insert a fact, displacing the weakest if at capacity.

        If an equal (class, value) fact already exists it is *touched*
        instead — repetition is confirmation, not duplication.
        """
        existing = self.find(fact.fact_class, fact.value)
        if existing is not None:
            existing.touch(now, decay_rate=self.decay_rate)
            return existing
        emptied = None
        if len(self._facts) >= self.capacity:
            emptied = self._displace_weakest(now)
        self._facts[fact.fact_id] = fact
        members = self._by_class.get(fact.fact_class)
        if members is None:
            self._by_class[fact.fact_class] = [fact.fact_id]
        else:
            members.append(fact.fact_id)
        # The set changes when a class appeared or one was emptied,
        # unless the displacement emptied the very class refilled here.
        if (members is None or emptied is not None) \
                and emptied != fact.fact_class:
            self.class_version += 1
        try:
            self._index.setdefault((fact.fact_class, fact.value), fact)
        except TypeError:
            self._unindexed[fact.fact_class] = \
                self._unindexed.get(fact.fact_class, 0) + 1
        self.inserts += 1
        self._digest_dirty = True
        return fact

    def record_fields(self, fact_class: str, value: Any, now: float,
                      source: Optional[Hashable] = None,
                      weight: float = 1.0) -> Fact:
        """``record(Fact(fact_class, value, created_at=now, source=source,
        weight=weight), now)`` without building the fact when an equal
        one exists: the store, the returned fact and the ``ValueError``
        for a non-positive weight are the same.  Only the skipped builds'
        ids are not drawn, which keeps the order of stored ids.
        """
        if weight <= 0:
            raise ValueError(f"non-positive initial weight {weight}")
        existing = self.find(fact_class, value)
        if existing is not None:
            existing.touch(now, decay_rate=self.decay_rate)
            return existing
        return self.record(Fact(fact_class, value, created_at=now,
                                source=source, weight=weight), now)

    def _displace_weakest(self, now: float) -> Optional[str]:
        """Remove the weakest fact; returns the class it emptied, if any."""
        victim = min(self._facts.values(),
                     key=lambda f: (f.weight(now, self.decay_rate), f.fact_id))
        self.evictions += 1
        return victim.fact_class if self._remove(victim) else None

    def _remove(self, fact: Fact) -> bool:
        """Drop one fact; True when its class lost its last member.
        The caller accounts for ``class_version``."""
        del self._facts[fact.fact_id]
        self._digest_dirty = True
        key = (fact.fact_class, fact.value)
        try:
            if self._index.get(key) is fact:
                del self._index[key]
        except TypeError:
            left = self._unindexed[fact.fact_class] - 1
            if left:
                self._unindexed[fact.fact_class] = left
            else:
                del self._unindexed[fact.fact_class]
        members = self._by_class.get(fact.fact_class, [])
        try:
            members.remove(fact.fact_id)
        except ValueError:
            pass
        if members:
            return False
        return self._by_class.pop(fact.fact_class, None) is not None

    # -- queries --------------------------------------------------------------
    def find(self, fact_class: str, value: Any) -> Optional[Fact]:
        """The first fact of ``fact_class``, in insertion order, whose
        value ``== value``; None if there is none.

        A hashable value is answered from the ``(class, value)`` index.
        The linear scan remains the reference: it runs for an unhashable
        value, for a class holding any unhashable value (``{1}`` equals
        ``frozenset({1})``), and when the indexed fact fails ``==`` (a
        NaN is its own dict key but not equal to itself).
        """
        if fact_class not in self._unindexed:
            try:
                fact = self._index.get((fact_class, value))
            except TypeError:
                pass
            else:
                if fact is None or fact.value == value:
                    return fact
        for fid in self._by_class.get(fact_class, ()):
            fact = self._facts[fid]
            if fact.value == value:
                return fact
        return None

    def facts_of_class(self, fact_class: str) -> List[Fact]:
        return [self._facts[fid]
                for fid in self._by_class.get(fact_class, ())]

    def all_facts(self) -> List[Fact]:
        return list(self._facts.values())

    def classes(self) -> List[str]:
        return list(self._by_class)

    def class_weight(self, fact_class: str, now: float) -> float:
        return sum(f.weight(now, self.decay_rate)
                   for f in self.facts_of_class(fact_class))

    # -- lifetime ------------------------------------------------------------
    def sweep(self, now: float) -> List[Fact]:
        """Evict every fact below its frequency threshold; returns them."""
        dead = [f for f in self._facts.values()
                if not f.alive(now, self.decay_rate)]
        emptied = False
        for fact in dead:
            emptied |= self._remove(fact)
        if emptied:
            self.class_version += 1
        self.evictions += len(dead)
        return dead

    def touch_class(self, fact_class: str, now: float,
                    boost: float = 1.0) -> int:
        """Confirm every fact of a class (e.g. the class was transmitted)."""
        facts = self.facts_of_class(fact_class)
        for fact in facts:
            fact.touch(now, boost, self.decay_rate)
        return len(facts)

    # -- content digest -------------------------------------------------------
    def content_digest(self) -> str:
        """Deterministic fingerprint of the store's membership.

        Covers the sorted multiset of ``(fact_class, value, source)``
        triples — the cross-run-comparable content.  Deliberately
        excludes fact ids (drawn from a process-global counter) and
        decayed weights (functions of the query time), so two same-seed
        runs agree and the digest is stable between membership changes.

        The canonical-JSON/sha256 encoding is recomputed only when a
        fact was inserted or removed since the last call (``record``
        and ``_remove`` set the dirty bit); weight touches preserve
        membership and correctly reuse the cache.
        """
        if not self._digest_dirty and self._digest is not None:
            self.digest_hits += 1
            return self._digest
        content = sorted((fact.fact_class, repr(fact.value),
                          repr(fact.source))
                         for fact in self._facts.values())
        payload = json.dumps(content, sort_keys=True, default=repr)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        self._digest = digest
        self._digest_dirty = False
        return digest

    # -- knowledge quanta -----------------------------------------------------
    def make_quantum(self, function: NetFunction, now: float,
                     origin: Optional[Hashable] = None,
                     max_facts: int = 16) -> KnowledgeQuantum:
        """Package a function with its strongest supporting facts."""
        supporting: List[Fact] = []
        for cls in function.supporting_classes:
            supporting.extend(self.facts_of_class(cls))
        supporting.sort(key=lambda f: f.weight(now, self.decay_rate),
                        reverse=True)
        snaps = [f.snapshot(now) for f in supporting[:max_facts]]
        return KnowledgeQuantum(function.function_id, snaps, origin=origin,
                                created_at=now)

    def absorb_quantum(self, kq: KnowledgeQuantum, now: float) -> int:
        """Integrate a received kq's facts; returns facts recorded.

        Received weights are honoured (transmission intensity counts
        toward a fact's bandwidth), capped at the local insert boost.
        """
        count = 0
        for snap in kq.fact_snapshots:
            fact = Fact(snap["fact_class"], snap["value"], created_at=now,
                        source=snap.get("source"),
                        weight=max(0.1, min(snap.get("weight", 1.0), 4.0)))
            self.record(fact, now)
            count += 1
        return count

    def __repr__(self) -> str:
        return (f"<KnowledgeBase facts={len(self._facts)}/{self.capacity} "
                f"classes={len(self._by_class)}>")
