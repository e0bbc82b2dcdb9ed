"""The conservative epoch-synchronized shard executor.

Two backends behind one API:

``inline``
    Round-robin over the K shard replicas in one process — the
    always-available determinism oracle.  Handoff batches take the
    same pickle round-trip the multiprocessing transport uses, so the
    two backends exercise byte-identical semantics.
``mp``
    One forked worker per shard, handoff batches exchanged over pipes,
    always supervised: :mod:`repro.shard.supervisor` holds both ends of
    the pipe protocol and revives dead or stalled workers.  Real
    multi-core speedup; every digest must equal the inline (and the
    single-shard) run.

This module keeps the API, the epoch and routing helpers, the one
per-shard epoch step both backends run (:func:`_advance`) and the
inline oracle.

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

A workload is *sharded* only when its scenario opts in (see
``repro.perf.scenarios.SHARD_WORKLOADS``); everything else falls back
to the single-shard path, where ``--workers K`` is digest-trivially
invariant by construction.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from .fabric import Handoff, ShardFabric
from .partition import ShardPlan, partition
from .recovery import RecoveryConfig

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

    def horizon(self) -> float:
        raise NotImplementedError

    def build(self, owned: Optional[FrozenSet[NodeId]] = None
              ) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, ctx: Dict[str, Any],
              owned: Optional[FrozenSet[NodeId]]) -> None:
        raise NotImplementedError

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
    """The single-shard oracle: build once, run to the horizon."""
    ctx = workload.build(owned=None)
    workload.setup(ctx, owned=None)
    ctx["sim"].run(until=workload.horizon())
    totals = workload.collect(ctx, owned=None)
    return workload.finalize(totals)


def _arm_obs(ctx: Dict[str, Any], shard_index: int):
    """Enable one replica's observability *after* construction.

    Every shard builds the full network, so construction-time
    emissions would be counted K times if collection started earlier —
    arming post-build is what makes the merged counter sums
    K-invariant.  The tracer is rebased onto the shard's disjoint id
    range so merged spans (and the trace contexts crossing handoff
    boundaries inside ``packet.meta``) stay globally unambiguous.
    """
    from ..obs.snapshot import SHARD_ID_STRIDE
    obs = ctx["sim"].obs.enable()
    obs.shard = shard_index
    obs.tracer.rebase_ids(shard_index * SHARD_ID_STRIDE)
    return obs


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
    respawned and replayed from the epoch journal, and a spent restart
    budget degrades the run to the inline backend.  ``recovery`` (a
    :class:`~repro.shard.recovery.RecoveryConfig`; ``None`` means the
    defaults) only tunes that supervision: reply deadline, restart
    budget, backoff and injected faults.  The inline backend ignores
    it, having no processes to lose.
    """
    if backend not in ("inline", "mp"):
        raise ValueError(f"unknown shard backend {backend!r} "
                         "(known: inline, mp)")
    plan = partition(workload.topology(), workers, seed=workload.seed)
    if plan.k <= 1 or plan.lookahead <= 0.0:
        stats = {
            "mode": "single", "k": 1, "requested_k": workers,
            "backend": backend, "barriers": 0, "handoffs": 0,
            "reason": ("k=1" if plan.k <= 1 else "zero-lookahead"),
        }
        if not obs:
            counters, work = run_single(workload)
            return counters, work, stats
        from ..obs.snapshot import ObsSnapshot, merge_snapshots
        ctx = workload.build(owned=None)
        _arm_obs(ctx, 0)
        workload.setup(ctx, owned=None)
        ctx["sim"].run(until=workload.horizon())
        totals = workload.collect(ctx, owned=None)
        counters, work = workload.finalize(totals)
        merged = merge_snapshots([ObsSnapshot.capture(ctx["sim"].obs,
                                                      shard=0)])
        stats["obs"] = merged
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
           outboxes: List[List[Handoff]]) -> Dict[int, List[Handoff]]:
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


def _sum_partials(partials: List[Dict[str, Any]]) -> Dict[str, Any]:
    totals: Dict[str, Any] = {}
    for partial in partials:
        for key, value in partial.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _advance(ctx: Dict[str, Any], batch: List[Handoff], epoch_end: float,
             barrier: int) -> None:
    """One shard's epoch step, the same in every backend: inject the
    handoffs routed to it at the previous barrier, run to
    ``epoch_end`` and count barrier ordinal ``barrier``."""
    sim = ctx["sim"]
    ctx["fabric"].inject(batch)
    sim.run(until=epoch_end)
    if sim.obs.on:
        sim.obs.shard_barriers.inc()
        if sim._flight is not None:
            sim._flight.note("barrier", epoch_end, f"epoch#{barrier}")


# ----------------------------------------------------------------------
# inline backend (the determinism oracle)
# ----------------------------------------------------------------------

def _run_inline(workload: ShardWorkload, plan: ShardPlan, obs: bool = False
                ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    import time
    shards = []
    for shard_index in range(plan.k):
        owned = frozenset(plan.shards[shard_index])
        ctx = workload.build(owned=owned)
        if obs:
            _arm_obs(ctx, shard_index)
        workload.setup(ctx, owned=owned)
        shards.append((owned, ctx))
    handoffs = 0
    barriers = 0
    worker_cpu_s = [0.0] * plan.k
    epoch_records: List[Dict[str, Any]] = []
    prev_events = [0] * plan.k
    epoch_start = 0.0
    batches: Dict[int, List[Handoff]] = {}
    for epoch_end in _epoch_ends(workload.horizon(), plan.lookahead):
        epoch_cpu = [0.0] * plan.k
        for shard_index, (_, ctx) in enumerate(shards):
            t0 = time.process_time()  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
            _advance(ctx, batches.get(shard_index, []), epoch_end, barriers)
            epoch_cpu[shard_index] = time.process_time() - t0  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
            worker_cpu_s[shard_index] += epoch_cpu[shard_index]
        # The same wire format the mp transport uses, so inline is an
        # exact oracle for pickled handoff semantics.
        batches = {dest: pickle.loads(pickle.dumps(batch))
                   for dest, batch in _route(
                       plan, [ctx["fabric"].drain_outbox()
                              for _, ctx in shards]).items()}
        epoch_handoffs = sum(len(b) for b in batches.values())
        handoffs += epoch_handoffs
        if obs:
            from ..obs.timeline import make_epoch_record
            events = [ctx["sim"].events_executed for _, ctx in shards]
            epoch_records.append(make_epoch_record(
                barriers, epoch_start, epoch_end, epoch_handoffs,
                [e - p for e, p in zip(events, prev_events)], epoch_cpu))
            prev_events = events
        barriers += 1
        epoch_start = epoch_end
    partials = [workload.collect(ctx, owned) for owned, ctx in shards]
    counters, work = workload.finalize(_sum_partials(partials))
    stats = _stats(plan, "inline", barriers, handoffs,
                   [p.get("events_executed", 0) for p in partials],
                   worker_cpu_s)
    if obs:
        from ..obs.snapshot import ObsSnapshot, merge_snapshots
        merged = merge_snapshots(
            [ObsSnapshot.capture(ctx["sim"].obs, shard=i)
             for i, (_, ctx) in enumerate(shards)])
        merged.add_epochs(epoch_records)
        merged.add_shard_stats(worker_cpu_s, 0.0)
        stats["obs"] = merged
    return counters, work, stats


def _stats(plan: ShardPlan, backend: str, barriers: int, handoffs: int,
           shard_events: List[int],
           worker_cpu_s: Optional[List[float]] = None) -> Dict[str, Any]:
    top = max(shard_events) if shard_events else 0
    mean = (sum(shard_events) / len(shard_events)) if shard_events else 0
    stats = {
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
    }
    if worker_cpu_s:
        # Per-worker compute seconds.  max() is the critical path: on a
        # host with >= K idle cores, wall clock converges to it (plus
        # barrier overhead), so single_wall / max_worker_cpu_s is the
        # measured parallel speedup independent of how many cores the
        # *measuring* host happens to have.
        stats["worker_cpu_s"] = [round(t, 6) for t in worker_cpu_s]
        stats["max_worker_cpu_s"] = round(max(worker_cpu_s), 6)
    return stats
