"""Fault-tolerant sharded execution: the recovery substrate.

The conservative executor's determinism premise — a worker's state is a
pure function of ``(workload bytes, plan, shard index, injected handoff
history)`` — is exactly what makes crashed workers *recoverable*: a
replacement process that rebuilds the replica and re-injects the same
journaled batches at the same epoch boundaries reaches the same state,
byte for byte.  This module holds the pieces the supervising parent
needs to exploit that:

* typed barrier-protocol errors (:class:`ShardWorkerTimeout`,
  :class:`ShardWorkerCrash`, :class:`RestartBudgetExhausted`) raised by
  the supervisor's bounded reply wait and restart ladder, and handled
  by the supervisor itself;
* :class:`EpochJournal` — every epoch's per-shard injection batch
  (pickled once, at send time: the journaled bytes are what the epoch
  message carries) plus the worker outbox digests observed at the
  barrier, held in memory for the run;
* :class:`FaultPlan` — deterministic process-level fault injection
  (SIGKILL / SIGSTOP at named barriers) for the chaos campaigns and the
  recovery test matrix;
* :class:`RecoveryConfig` — the supervision knobs (per-barrier
  deadline, restart budget, exponential backoff drawn from a dedicated
  seeded RNG stream).

Replay determinism also leans on one process-level invariant: the
supervising parent never *constructs* domain objects mid-run (it only
pickles and unpickles them, which bypasses ``__init__``), so a
replacement forked at restart time inherits the same module-global id
counters the original worker inherited at launch — both replicas draw
identical packet/quantum/genome id sequences.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..substrates.sim.rng import active_tape, derive_seed

#: The dedicated stream name feeding restart-backoff jitter.
BACKOFF_STREAM = "shard.recovery.backoff"


# ----------------------------------------------------------------------
# typed barrier-protocol errors
# ----------------------------------------------------------------------

class ShardWorkerError(RuntimeError):
    """One shard worker failed the barrier protocol.

    Subclasses ``RuntimeError`` so callers of the pre-recovery executor
    keep working; carries the shard index, the epoch ordinal and the
    barrier's simulated time so the failure is attributable without
    re-running.
    """

    def __init__(self, message: str, shard_index: int, epoch: int,
                 barrier_time: float):
        super().__init__(message)
        self.shard_index = int(shard_index)
        self.epoch = int(epoch)
        self.barrier_time = float(barrier_time)


class ShardWorkerTimeout(ShardWorkerError):
    """A worker missed its per-barrier reply deadline (stall)."""

    def __init__(self, shard_index: int, epoch: int, barrier_time: float,
                 deadline_s: float):
        super().__init__(
            f"shard worker {shard_index} missed the {deadline_s:g}s reply "
            f"deadline at epoch {epoch} (barrier t={barrier_time:g}); "
            "the worker is stalled, not dead — re-run with "
            "backend='inline' to reproduce deterministically",
            shard_index, epoch, barrier_time)
        self.deadline_s = float(deadline_s)


class ShardWorkerCrash(ShardWorkerError):
    """A worker process died mid-protocol (EOF / broken pipe)."""

    def __init__(self, shard_index: int, epoch: int, barrier_time: float,
                 exitcode: Optional[int], cause: str = ""):
        detail = f" ({cause})" if cause else ""
        super().__init__(
            f"shard worker {shard_index} died at epoch {epoch} "
            f"(barrier t={barrier_time:g}, exitcode={exitcode}){detail}; "
            "re-run with backend='inline' to reproduce deterministically",
            shard_index, epoch, barrier_time)
        self.exitcode = exitcode


class RestartBudgetExhausted(ShardWorkerError):
    """The supervisor ran out of restarts; callers degrade to inline."""

    def __init__(self, shard_index: int, epoch: int, barrier_time: float,
                 budget: int):
        super().__init__(
            f"restart budget ({budget}) exhausted reviving shard "
            f"{shard_index} at epoch {epoch}", shard_index, epoch,
            barrier_time)
        self.budget = int(budget)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

class RecoveryConfig:
    """Supervision knobs for the mp backend (always supervised).

    ``barrier_deadline_s`` bounds every per-barrier reply wait
    (:meth:`multiprocessing.connection.Connection.poll`); a miss is a
    *stall* and the worker is killed and replaced.  Every mp run waits
    on it, so the default (120 s) sits far beyond any legitimate epoch
    — a plan with no cut links runs the whole horizon as one epoch —
    and only trips on a genuinely hung worker; chaos campaigns and
    tests set their own.  ``max_restarts`` is the run-wide budget
    across all shards — exhausting it degrades the run to the inline
    oracle instead of raising.  Backoff before each
    respawn is exponential per shard with jitter drawn from the
    dedicated :data:`BACKOFF_STREAM` seeded stream, so even wall-clock
    pauses are a pure function of ``(seed, restart ordinal)``.
    ``faults`` installs a deterministic :class:`FaultPlan` (chaos
    campaigns, tests).
    """

    __slots__ = ("barrier_deadline_s", "max_restarts", "backoff_base_s",
                 "backoff_max_s", "faults")

    def __init__(self, barrier_deadline_s: float = 120.0,
                 max_restarts: int = 3, backoff_base_s: float = 0.05,
                 backoff_max_s: float = 1.0,
                 faults: Optional["FaultPlan"] = None):
        if barrier_deadline_s <= 0:
            raise ValueError("barrier_deadline_s must be positive")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.barrier_deadline_s = float(barrier_deadline_s)
        self.max_restarts = int(max_restarts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.faults = faults

    def backoff_rng(self, seed: int) -> random.Random:
        """The dedicated seeded stream for restart-backoff jitter."""
        return random.Random(derive_seed(seed, BACKOFF_STREAM))

    def __repr__(self) -> str:
        return (f"<RecoveryConfig deadline={self.barrier_deadline_s:g}s "
                f"budget={self.max_restarts}>")


# ----------------------------------------------------------------------
# deterministic fault injection (process level)
# ----------------------------------------------------------------------

#: SIGKILL the worker at the top of its barrier, before the epoch
#: message is sent, so the pre-send sweep detects the death.  After the
#: send the kill would race the worker's reply, and whichever won would
#: move ``replayed_epochs`` (part of the worker campaigns' digest).
FAULT_KILL = "kill"
#: SIGSTOP the worker right before the epoch message is sent — it
#: hangs, the per-barrier deadline trips, and the supervisor kills and
#: replaces it.
FAULT_STALL = "stall"
#: SIGKILL the worker *after* its reply was received — the death lands
#: between barriers (mid-handoff), detected at the next send/collect.
FAULT_KILL_AFTER_REPLY = "kill-after-reply"

FAULT_KINDS = (FAULT_KILL, FAULT_STALL, FAULT_KILL_AFTER_REPLY)


class Fault:
    """One scheduled process-level fault: ``kind`` applied to ``shard``
    at epoch ordinal ``barrier`` (negative counts from the final
    barrier, Python-index style: ``-1`` is the last epoch)."""

    __slots__ = ("kind", "barrier", "shard", "fired")

    def __init__(self, kind: str, barrier: int, shard: int):
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(known: {', '.join(FAULT_KINDS)})")
        self.kind = kind
        self.barrier = int(barrier)
        self.shard = int(shard)
        self.fired = False

    def __repr__(self) -> str:
        return (f"<Fault {self.kind} shard={self.shard} "
                f"barrier={self.barrier}{' fired' if self.fired else ''}>")


class FaultPlan:
    """A deterministic schedule of process-level faults.

    The supervisor applies faults itself (it owns the ``Process``
    handles), at exact protocol points — before the epoch send for
    ``kill``/``stall``, after the reply for ``kill-after-reply`` — so a
    campaign's fault timeline is reproducible run over run.  Each run
    resolves and fires its own copy of the schedule, so one plan can be
    reused: the caller's plan is never mutated.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: Sequence[Fault] = ()):
        self.faults = list(faults)

    def normalize(self, barrier_count: int) -> None:
        """Resolve negative barrier ordinals against the actual epoch
        count (``-1`` becomes the final barrier)."""
        for fault in self.faults:
            if fault.barrier < 0:
                fault.barrier += barrier_count

    def pending(self, kind: str, barrier: int) -> List[Fault]:
        """Unfired faults of ``kind`` scheduled at ``barrier``."""
        return [f for f in self.faults
                if not f.fired and f.kind == kind and f.barrier == barrier]

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.faults!r}>"


# ----------------------------------------------------------------------
# partial digests
# ----------------------------------------------------------------------

def outbox_digest(outbox: Sequence[Any]) -> str:
    """Canonical fingerprint of one epoch's outbox (the worker partial
    digest journaled at every barrier).

    Digests the *identity* of each diverted leg — arrival time, edge,
    packet id and wire size — rather than pickled bytes, so the value
    is stable across pickle round-trips and process generations while
    still pinning the event content a replay must reproduce.
    """
    rows = [(repr(h.time), repr(h.from_node), repr(h.to_node),
             getattr(h.packet, "packet_id", None),
             getattr(h.packet, "size_bytes", None))
            for h in outbox]
    payload = json.dumps(rows, sort_keys=True, default=repr)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    tape = active_tape()
    if tape is not None:
        tape.record_merge(f"outbox[{len(outbox)}]", digest)
    return digest


# ----------------------------------------------------------------------
# the epoch journal
# ----------------------------------------------------------------------

class _EpochEntry:
    """One journaled epoch: end time, per-shard injection batches
    (pickled at send time) and per-shard outbox digests (stamped when
    the barrier replies arrive)."""

    __slots__ = ("epoch_end", "batch_bytes", "digests")

    def __init__(self, epoch_end: float, batch_bytes: List[bytes],
                 k: int):
        self.epoch_end = float(epoch_end)
        self.batch_bytes = batch_bytes
        self.digests: List[Optional[str]] = [None] * k


class EpochJournal:
    """The supervisor's flight log of the barrier protocol.

    ``record_send`` journals (and returns, pickled) the injection
    batches as each epoch opens; ``record_digest`` stamps the worker
    partial digests as replies arrive.  ``replay_entries(shard, upto)``
    assembles the exact replay stream a replacement for ``shard`` needs
    to reach barrier ``upto``.
    """

    def __init__(self, k: int):
        self.k = int(k)
        #: epoch ordinal -> entry.
        self.entries: Dict[int, _EpochEntry] = {}

    # -- recording ---------------------------------------------------------
    def record_send(self, epoch: int, epoch_end: float,
                    batches: Dict[int, List[Any]]) -> List[bytes]:
        """Journal the epoch's per-shard batches; returns the pickled
        bytes, shard by shard, for the epoch messages to carry."""
        batch_bytes = [pickle.dumps(batches.get(i, []))
                       for i in range(self.k)]
        self.entries[epoch] = _EpochEntry(epoch_end, batch_bytes, self.k)
        return batch_bytes

    def record_digest(self, epoch: int, shard_index: int,
                      digest: str) -> None:
        entry = self.entries.get(epoch)
        if entry is not None:
            entry.digests[shard_index] = digest

    # -- replay ------------------------------------------------------------
    def replay_entries(self, shard_index: int, upto_epoch: int
                       ) -> List[Tuple[float, bytes, Optional[str]]]:
        """``(epoch_end, batch_bytes, expected_outbox_digest)`` for
        epochs ``[0, upto_epoch)`` of one shard, oldest first."""
        entries = [self.entries[epoch] for epoch in range(upto_epoch)]
        return [(e.epoch_end, e.batch_bytes[shard_index],
                 e.digests[shard_index]) for e in entries]

    # -- accounting --------------------------------------------------------
    @property
    def journal_bytes(self) -> int:
        """Live journal footprint: the pickled injection batches."""
        return sum(len(b) for entry in self.entries.values()
                   for b in entry.batch_bytes)

    def __repr__(self) -> str:
        return (f"<EpochJournal k={self.k} epochs={len(self.entries)} "
                f"bytes={self.journal_bytes}>")
