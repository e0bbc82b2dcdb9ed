"""The conservative epoch-synchronized shard executor.

Two backends behind one API, stepping the same replica type
(:class:`_Replica`) through the same barrier loop (:func:`_run_epochs`):

``inline``
    K replicas in the calling process, stepped round-robin — the
    always-available determinism oracle.  Handoff batches take the
    same pickle round-trip the multiprocessing transport uses, so the
    two backends exercise byte-identical semantics.
``mp``
    One forked worker per shard, each holding one replica behind its
    pipe, always supervised: :mod:`repro.shard.supervisor` holds both
    ends of the pipe protocol and revives dead or stalled workers.
    Real multi-core speedup; every digest must equal the inline (and
    the single-shard) run.

A backend supplies two steps, *exchange* (one epoch on every shard)
and *collect*; the loop does the rest once: routing, handoff counts,
the epoch timeline, the partial sum, stats and the telemetry merge.
Each replica times its own epoch, and only an ``mp`` worker digests
its outbox (for the supervisor's journal), so the parent does neither.

Epoch protocol
--------------
With ``L`` = the plan's lookahead (minimum latency over cut links),
every shard runs ``run(until=T_n)`` for epoch ends ``T_n = n * L``.  A
packet sent at ``t in (T_{n-1}, T_n]`` cannot arrive across a shard
boundary sooner than ``t + L > T_n``, so handoffs collected at barrier
``n`` always inject strictly into the future of every shard — no shard
ever sees an event earlier than its clock (conservative PDES, no
rollback).  Batches are merged in canonical ``(time, source shard,
send order)`` order before injection so event tie-breaking at equal
timestamps is identical no matter how many shards contributed.

Every benchmark scenario (:class:`repro.perf.scenarios.Scenario`) is
a :class:`ShardWorkload` run through :func:`run_sharded`; one that
does not set ``shardable`` runs at K=1, i.e. :func:`run_single`, where
``--workers K`` is digest-trivially invariant by construction.
"""

from __future__ import annotations

import pickle
import time
from typing import (Any, Dict, FrozenSet, Hashable, List, Optional,
                    Sequence, Tuple)

from .fabric import Handoff, ShardFabric
from .partition import ShardPlan, partition
from .recovery import RecoveryConfig, outbox_digest

NodeId = Hashable


class ShardWorkload:
    """Base protocol for a scenario that can execute sharded.

    Subclasses are plain picklable data (``seed``, ``scale``, derived
    params) plus pure methods — a forked worker reconstructs the whole
    world from the instance alone.  Contract:

    * :meth:`build` constructs the **full** network replica —
      byte-identical construction in every shard — wiring a
      :class:`ShardFabric` that owns ``owned`` (``None`` = everything,
      the single-shard oracle).
    * :meth:`setup` installs event sources (drivers) **only** for
      owned nodes.
    * :meth:`drive` runs an unsharded replica to its end; sharded
      replicas are driven epoch by epoch to :meth:`horizon` instead.
    * :meth:`collect` returns summable numeric partials over owned
      ships; the executor sums them across shards.
    * :meth:`finalize` maps the summed totals to the scenario's
      ``(counters, work)`` — a pure function, so the K-shard digest
      can only equal the single-shard digest if every partial does.
    """

    name = "workload"
    #: Pickle-boundary contract (VIA012): the instance crosses the
    #: executor pipe, so the whole chain stays __slots__-closed.
    __slots__ = ("seed", "scale")

    def __init__(self, seed: int, scale: str):
        self.seed = int(seed)
        self.scale = scale

    def topology(self):
        raise NotImplementedError

    def horizon(self) -> Optional[float]:
        """The simulated end; ``None`` (never sharded) runs until the
        agenda is empty."""
        raise NotImplementedError

    def build(self, owned: Optional[FrozenSet[NodeId]] = None
              ) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, ctx: Dict[str, Any],
              owned: Optional[FrozenSet[NodeId]]) -> None:
        raise NotImplementedError

    def drive(self, ctx: Dict[str, Any]) -> None:
        """Run an unsharded replica to its end (override only to stop a
        driver between two run segments)."""
        ctx["sim"].run(until=self.horizon())

    def collect(self, ctx: Dict[str, Any],
                owned: Optional[FrozenSet[NodeId]]) -> Dict[str, Any]:
        raise NotImplementedError

    def finalize(self, totals: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        raise NotImplementedError


def shard_fabric_factory(owned: Optional[FrozenSet[NodeId]]):
    """A ``fabric_factory`` for :class:`~repro.core.wandering_network.
    WanderingNetwork` producing a boundary-aware fabric, or the plain
    fabric when ``owned`` is ``None`` (the oracle path)."""
    if owned is None:
        return None

    def factory(sim, topology, loss_rate=0.0):
        return ShardFabric(sim, topology, loss_rate=loss_rate, owned=owned)
    return factory


def run_single(workload: ShardWorkload
               ) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The single-shard oracle: build once, drive the whole network."""
    return _run_whole(workload, obs=False)[:2]


def _run_whole(workload: ShardWorkload, obs: bool):
    """:func:`run_single` plus the replica's telemetry snapshot
    (``None`` with ``obs`` off)."""
    replica = _Replica(workload, None, 0, obs)
    workload.drive(replica.ctx)
    partial, snapshot = replica.collect()
    counters, work = workload.finalize(partial)
    return counters, work, snapshot


class _Replica:
    """One shard's replica, the same in both backends: built, armed and
    set up once, then stepped by :meth:`epoch`, :meth:`replay` and
    :meth:`collect`.  The inline backend holds K of them in the calling
    process; an mp worker holds one behind its pipe."""

    __slots__ = ("workload", "owned", "shard_index", "obs", "ctx",
                 "barriers")

    def __init__(self, workload: ShardWorkload,
                 owned: Optional[FrozenSet[NodeId]], shard_index: int,
                 obs: bool):
        self.workload = workload
        self.owned = owned
        self.shard_index = shard_index
        self.obs = obs
        self.ctx = workload.build(owned=owned)
        if obs:
            # Armed *after* construction: every shard builds the full
            # network, so construction-time emissions would be counted
            # K times if collection started earlier — arming post-build
            # is what makes the merged counter sums K-invariant.  The
            # tracer is rebased onto the shard's disjoint id range so
            # merged spans (and the trace contexts crossing handoff
            # boundaries inside ``packet.meta``) stay globally
            # unambiguous.
            from ..obs.snapshot import SHARD_ID_STRIDE
            sim_obs = self.ctx["sim"].obs.enable()
            sim_obs.shard = shard_index
            sim_obs.tracer.rebase_ids(shard_index * SHARD_ID_STRIDE)
        workload.setup(self.ctx, owned=owned)
        self.barriers = 0

    def epoch(self, epoch_end: float, batch_bytes: bytes
              ) -> Tuple[List[Handoff], int, float]:
        """Inject the pickled batch routed here at the previous
        barrier, run to ``epoch_end`` and drain the outbox.  Returns
        ``(outbox, events_executed, cpu_s)``, ``cpu_s`` being the
        process CPU this step took."""
        t0 = time.process_time()  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
        sim, fabric = self.ctx["sim"], self.ctx["fabric"]
        fabric.inject(pickle.loads(batch_bytes))
        sim.run(until=epoch_end)
        if sim.obs.on:
            sim.obs.shard_barriers.inc()
            if sim.obs.flight_recorder is not None:
                sim.obs.flight_recorder.note("barrier", epoch_end,
                                             f"epoch#{self.barriers}")
        self.barriers += 1
        outbox = fabric.drain_outbox()
        cpu_s = time.process_time() - t0  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
        return outbox, sim.events_executed, cpu_s

    def replay(self, entries: List[Tuple[float, bytes, Optional[str]]]
               ) -> Tuple[int, int]:
        """Fast-forward a replacement replica through the journaled
        ``(epoch_end, batch_bytes, expected_digest)`` history with the
        same step, discarding each outbox — the replica it replaces
        already shipped those handoffs.  Returns ``(replayed,
        mismatches)``: an outbox whose digest differs from the
        journaled one is a replay that diverged, caught here rather
        than at the final digest."""
        mismatches = 0
        for epoch_end, batch_bytes, expected in entries:
            outbox = self.epoch(epoch_end, batch_bytes)[0]
            if expected is not None and outbox_digest(outbox) != expected:
                mismatches += 1
        sim = self.ctx["sim"]
        if sim.obs.on:
            sim.obs.shard_worker_restarts.inc()
            if entries:
                sim.obs.recovery_replay_epochs.inc(len(entries))
            if sim.obs.flight_recorder is not None:
                sim.obs.flight_recorder.note(
                    "replay", sim.now, f"replayed {len(entries)} epoch(s)",
                    mismatches=mismatches)
        return len(entries), mismatches

    def collect(self) -> Tuple[Dict[str, Any], Any]:
        """The shard's summable partial and, with ``obs`` on, its
        :class:`~repro.obs.snapshot.ObsSnapshot` (else ``None``)."""
        partial = self.workload.collect(self.ctx, self.owned)
        snapshot = None
        if self.obs:
            from ..obs.snapshot import ObsSnapshot
            snapshot = ObsSnapshot.capture(self.ctx["sim"].obs,
                                           shard=self.shard_index)
        return partial, snapshot


def run_sharded(workload: ShardWorkload, workers: int,
                backend: str = "inline", obs: bool = False,
                recovery: Optional[RecoveryConfig] = None
                ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    """Execute ``workload`` over ``workers`` shards.

    Returns ``(counters, work, stats)`` where counters/work are
    byte-identical to :func:`run_single` and ``stats`` describes the
    parallel execution (never folded into digests).

    With ``obs=True`` each replica collects metrics/spans/profiles,
    the executor snapshots them at collect time (shipped over the
    existing pipes for the mp backend), merges them in canonical
    shard-index order, and attaches the resulting
    :class:`~repro.obs.snapshot.MergedObs` — plus the per-epoch
    timeline — as ``stats["obs"]``.  Observability never draws RNG or
    schedules events, so ``obs=True`` leaves counters and digests
    byte-identical to an obs-off run.

    The ``mp`` backend always runs supervised (see
    :mod:`repro.shard.supervisor`): a dead or stalled worker is
    respawned and replayed from the epoch journal, a spent restart
    budget degrades the run to the inline backend, and an exception
    the workload raises in a worker is raised here.  ``recovery`` (a
    :class:`~repro.shard.recovery.RecoveryConfig`; ``None`` means the
    defaults) only tunes that supervision: reply deadline, restart
    budget, backoff and injected faults.  The inline backend ignores
    it, having no processes to lose.  ``workers=1`` never partitions.
    """
    if backend not in ("inline", "mp"):
        raise ValueError(f"unknown shard backend {backend!r} "
                         "(known: inline, mp)")
    if recovery is not None and not isinstance(recovery, RecoveryConfig):
        raise TypeError(f"recovery must be a RecoveryConfig or None, "
                        f"not {type(recovery).__name__}")
    plan = (partition(workload.topology(), workers, seed=workload.seed)
            if workers > 1 else None)
    if plan is None or plan.k <= 1 or plan.lookahead <= 0.0:
        stats = {
            "mode": "single", "k": 1, "requested_k": workers,
            "backend": backend, "barriers": 0, "handoffs": 0,
            "reason": ("k=1" if plan is None or plan.k <= 1
                       else "zero-lookahead"),
        }
        counters, work, snapshot = _run_whole(workload, obs)
        if obs:
            from ..obs.snapshot import merge_snapshots
            stats["obs"] = merge_snapshots([snapshot])
        return counters, work, stats
    if backend == "mp":
        from .supervisor import run_supervised
        return run_supervised(workload, plan, obs=obs, recovery=recovery)
    return _run_inline(workload, plan, obs=obs)


# ----------------------------------------------------------------------
# the canonical barrier merge
# ----------------------------------------------------------------------

def _epoch_ends(horizon: float, lookahead: float) -> List[float]:
    """Barrier times: multiples of the lookahead, horizon-terminated.

    Zero (or negative) lookahead admits no conservative window — the
    loop could never advance — so it is rejected here rather than
    spinning; :func:`run_sharded` routes such plans to the single-shard
    path before ever computing epochs.
    """
    if lookahead <= 0:
        raise ValueError(
            f"lookahead must be positive, got {lookahead!r} "
            "(zero-lookahead plans cannot run the epoch protocol)")
    ends = []
    t = 0.0
    step = lookahead if lookahead != float("inf") else horizon
    while t < horizon:
        t = min(horizon, t + step)
        ends.append(t)
    return ends


def _route(plan: ShardPlan,
           outboxes: Sequence[List[Handoff]]) -> Dict[int, List[Handoff]]:
    """Merge per-shard outboxes into per-destination injection batches
    in canonical ``(time, source shard, send order)`` order."""
    tagged = []
    for shard_index, outbox in enumerate(outboxes):
        for order, handoff in enumerate(outbox):
            tagged.append((handoff.time, shard_index, order, handoff))
    tagged.sort(key=lambda entry: entry[:3])
    batches: Dict[int, List[Handoff]] = {}
    for _, _, _, handoff in tagged:
        dest = plan.assignment[handoff.to_node]
        batches.setdefault(dest, []).append(handoff)
    return batches


def _sum_partials(partials: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    totals: Dict[str, Any] = {}
    for partial in partials:
        for key, value in partial.items():
            totals[key] = totals.get(key, 0) + value
    return totals


# ----------------------------------------------------------------------
# the one barrier loop, and the inline backend (the determinism oracle)
# ----------------------------------------------------------------------

def _run_epochs(workload: ShardWorkload, plan: ShardPlan, backend: str,
                obs: bool, exchange, collect
                ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    """Drive ``plan``'s shards through every epoch, for either backend.

    ``exchange(epoch, epoch_end, batches)`` steps every shard through
    one epoch, injecting ``batches`` (destination shard -> the handoffs
    routed to it at the previous barrier), and returns each shard's
    :meth:`_Replica.epoch` reply plus the wall seconds spent waiting
    for them; ``collect(epochs, horizon)`` returns each shard's
    :meth:`_Replica.collect` reply.  Worker CPU is the sum of the
    replicas' per-epoch CPU.
    """
    handoffs = 0
    stall_s = 0.0
    worker_cpu_s = [0.0] * plan.k
    epoch_records: List[Dict[str, Any]] = []
    prev_events = [0] * plan.k
    epoch_start = 0.0
    batches: Dict[int, List[Handoff]] = {}
    ends = _epoch_ends(workload.horizon(), plan.lookahead)
    for epoch, epoch_end in enumerate(ends):
        replies, epoch_stall = exchange(epoch, epoch_end, batches)
        outboxes, events, epoch_cpu = zip(*replies)
        batches = _route(plan, outboxes)
        epoch_handoffs = sum(len(b) for b in batches.values())
        handoffs += epoch_handoffs
        stall_s += epoch_stall
        worker_cpu_s = [t + c for t, c in zip(worker_cpu_s, epoch_cpu)]
        if obs:
            from ..obs.timeline import make_epoch_record
            epoch_records.append(make_epoch_record(
                epoch, epoch_start, epoch_end, epoch_handoffs,
                [e - p for e, p in zip(events, prev_events)], epoch_cpu,
                epoch_stall))
            prev_events = events
        epoch_start = epoch_end
    partials, snapshots = zip(*collect(len(ends), epoch_start))
    counters, work = workload.finalize(_sum_partials(partials))
    stats = _stats(plan, backend, len(ends), handoffs,
                   [p.get("events_executed", 0) for p in partials],
                   worker_cpu_s, stall_s)
    if obs:
        from ..obs.snapshot import merge_snapshots
        merged = merge_snapshots(snapshots)
        merged.add_epochs(epoch_records)
        merged.add_shard_stats(worker_cpu_s, stall_s)
        stats["obs"] = merged
    return counters, work, stats


def _run_inline(workload: ShardWorkload, plan: ShardPlan, obs: bool = False
                ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    """The inline backend: K replicas of the caller's own ``workload``
    instance, stepped in shard order in this process."""
    replicas = [_Replica(workload, frozenset(shard), shard_index, obs)
                for shard_index, shard in enumerate(plan.shards)]

    def exchange(epoch, epoch_end, batches):
        # The same wire format the mp transport uses, so inline is an
        # exact oracle for pickled handoff semantics.
        return [replica.epoch(epoch_end, pickle.dumps(batches.get(i, [])))
                for i, replica in enumerate(replicas)], 0.0

    def collect(epochs, horizon):
        return [replica.collect() for replica in replicas]

    return _run_epochs(workload, plan, "inline", obs, exchange, collect)


def _stats(plan: ShardPlan, backend: str, barriers: int, handoffs: int,
           shard_events: List[int], worker_cpu_s: List[float],
           barrier_stall_s: float) -> Dict[str, Any]:
    top = max(shard_events)
    mean = sum(shard_events) / len(shard_events)
    return {
        "mode": "sharded",
        "backend": backend,
        "k": plan.k,
        "requested_k": plan.requested_k,
        "shard_sizes": [len(s) for s in plan.shards],
        "balance": round(plan.balance, 4),
        "edge_cut": plan.edge_cut,
        "lookahead": plan.lookahead,
        "barriers": barriers,
        "handoffs": handoffs,
        "shard_events": shard_events,
        #: max/mean events per shard — 1.0 is a perfectly level load.
        "imbalance": round(top / mean, 4) if mean else 1.0,
        # Per-worker compute seconds.  max() is the critical path: on a
        # host with >= K idle cores, wall clock converges to it (plus
        # barrier overhead), so single_wall / max_worker_cpu_s is the
        # measured parallel speedup independent of how many cores the
        # *measuring* host happens to have.
        "worker_cpu_s": [round(t, 6) for t in worker_cpu_s],
        "max_worker_cpu_s": round(max(worker_cpu_s), 6),
        #: Host wall seconds spent waiting at barriers (0 inline).
        "barrier_stall_s": round(barrier_stall_s, 6),
    }
