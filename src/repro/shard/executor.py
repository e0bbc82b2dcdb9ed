"""The conservative epoch-synchronized shard executor.

Two backends behind one API:

``inline``
    Round-robin over the K shard replicas in one process — the
    always-available determinism oracle.  Handoff batches take the
    same pickle round-trip the multiprocessing transport uses, so the
    two backends exercise byte-identical semantics.
``mp``
    One forked worker per shard, handoff batches exchanged over pipes.
    Real multi-core speedup; every digest must equal the inline (and
    the single-shard) run.

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
                recovery: Optional[Any] = None
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

    ``recovery`` (a :class:`~repro.shard.recovery.RecoveryConfig`, or
    ``True`` for the defaults) enables the fault-tolerant mp backend:
    worker supervision, epoch journaling and digest-identical crash
    recovery (see :mod:`repro.shard.supervisor`).  Ignored for the
    inline backend, which has no processes to lose.
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
        if recovery:
            from .recovery import RecoveryConfig
            from .supervisor import run_supervised
            config = (recovery if isinstance(recovery, RecoveryConfig)
                      else RecoveryConfig())
            return run_supervised(workload, plan, obs=obs,
                                  recovery=config)
        return _run_mp(workload, plan, obs=obs)
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
    for epoch_end in _epoch_ends(workload.horizon(), plan.lookahead):
        epoch_cpu = [0.0] * plan.k
        for shard_index, (_, ctx) in enumerate(shards):
            t0 = time.perf_counter()  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
            ctx["sim"].run(until=epoch_end)
            epoch_cpu[shard_index] = time.perf_counter() - t0  # via: ignore[VIA003] per-shard cost accounting; never digest-visible
            worker_cpu_s[shard_index] += epoch_cpu[shard_index]
            sim = ctx["sim"]
            if sim.obs.on:
                sim.obs.shard_barriers.inc()
                if sim._flight is not None:
                    sim._flight.note("barrier", epoch_end,
                                     f"epoch#{barriers}")
        batches = _route(plan, [ctx["fabric"].drain_outbox()
                                for _, ctx in shards])
        epoch_handoffs = 0
        for dest, batch in sorted(batches.items()):
            # The same wire format the mp transport uses, so inline is
            # an exact oracle for pickled handoff semantics.
            payload = pickle.loads(pickle.dumps(batch))
            shards[dest][1]["fabric"].inject(payload)
            epoch_handoffs += len(batch)
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


# ----------------------------------------------------------------------
# mp backend (forked workers, piped handoffs)
# ----------------------------------------------------------------------

def _worker_main(conn, workload_bytes: bytes, plan: ShardPlan,
                 shard_index: int, obs: bool = False) -> None:
    """One shard in its own process: build, then serve the barrier
    protocol — inject, run to the epoch end, return the outbox (plus
    the running event/CPU counters the epoch timeline needs).  With
    ``obs`` on, the collect reply carries the worker's full
    :class:`~repro.obs.snapshot.ObsSnapshot` back over the pipe.

    A ``("replay", entries)`` message (sent by the supervisor to a
    freshly forked replacement, see :mod:`repro.shard.supervisor`)
    fast-forwards this replica through the journaled epoch history:
    each entry's injection batch is unpickled, injected and run to its
    barrier, and the resulting outbox is *discarded* — the original
    worker already shipped those handoffs before it died.  Each
    discarded outbox is fingerprinted against its journaled partial
    digest (when one was recorded), so a replay that diverged is
    detected at the worker, not at the final digest."""
    import time
    workload = pickle.loads(workload_bytes)
    owned = frozenset(plan.shards[shard_index])
    ctx = workload.build(owned=owned)
    if obs:
        _arm_obs(ctx, shard_index)
    workload.setup(ctx, owned=owned)
    sim, fabric = ctx["sim"], ctx["fabric"]
    cpu0 = time.process_time()  # via: ignore[VIA003] per-worker cost accounting; never digest-visible
    barriers = 0
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "epoch":
                _, epoch_end, batch = message
                fabric.inject(batch)
                sim.run(until=epoch_end)
                if sim.obs.on:
                    sim.obs.shard_barriers.inc()
                    if sim._flight is not None:
                        sim._flight.note("barrier", epoch_end,
                                         f"epoch#{barriers}")
                barriers += 1
                cpu_s = time.process_time() - cpu0  # via: ignore[VIA003] per-worker cost accounting; never digest-visible
                conn.send((fabric.drain_outbox(), sim.events_executed,
                           cpu_s))
            elif kind == "replay":
                _, entries = message
                from .recovery import outbox_digest
                mismatches = 0
                for epoch_end, batch_bytes, expected in entries:
                    fabric.inject(pickle.loads(batch_bytes))
                    sim.run(until=epoch_end)
                    if sim.obs.on:
                        sim.obs.shard_barriers.inc()
                        if sim._flight is not None:
                            sim._flight.note("barrier", epoch_end,
                                             f"epoch#{barriers}")
                    barriers += 1
                    outbox = fabric.drain_outbox()
                    if expected is not None \
                            and outbox_digest(outbox) != expected:
                        mismatches += 1
                if sim.obs.on:
                    sim.obs.shard_worker_restarts.inc()
                    if entries:
                        sim.obs.recovery_replay_epochs.inc(len(entries))
                    if sim._flight is not None:
                        sim._flight.note(
                            "replay", sim.now,
                            f"replayed {len(entries)} epoch(s)",
                            mismatches=mismatches)
                conn.send(("replayed", len(entries), mismatches))
            elif kind == "collect":
                cpu_s = time.process_time() - cpu0  # via: ignore[VIA003] per-worker cost accounting; never digest-visible
                snapshot = None
                if obs:
                    from ..obs.snapshot import ObsSnapshot
                    snapshot = ObsSnapshot.capture(sim.obs,
                                                   shard=shard_index)
                conn.send((workload.collect(ctx, owned), cpu_s, snapshot))
            else:  # "quit"
                return
    finally:
        conn.close()


def _recv_deadline(conn, proc, shard_index: int, epoch: int,
                   barrier_time: float,
                   deadline_s: Optional[float] = None):
    """One barrier reply, bounded by ``deadline_s`` (default
    :data:`~repro.shard.recovery.DEFAULT_BARRIER_DEADLINE_S`).

    Raises a typed error instead of blocking forever: a missed deadline
    with a live process is a :class:`~repro.shard.recovery.
    ShardWorkerTimeout` (stall), a dead process or EOF on the pipe is a
    :class:`~repro.shard.recovery.ShardWorkerCrash` — both even when
    recovery is disabled, so a hung worker can never wedge the parent.
    """
    from .recovery import (DEFAULT_BARRIER_DEADLINE_S, ShardWorkerCrash,
                           ShardWorkerTimeout)
    if deadline_s is None:
        deadline_s = DEFAULT_BARRIER_DEADLINE_S
    if not conn.poll(deadline_s):
        if proc.is_alive():
            raise ShardWorkerTimeout(shard_index, epoch, barrier_time,
                                     deadline_s)
        raise ShardWorkerCrash(shard_index, epoch, barrier_time,
                               proc.exitcode)
    try:
        return conn.recv()
    except (EOFError, BrokenPipeError, OSError) as exc:
        proc.join(timeout=10.0)
        raise ShardWorkerCrash(shard_index, epoch, barrier_time,
                               proc.exitcode, cause=repr(exc)) from exc


def _shutdown_workers(pipes, procs) -> None:
    """Escalating teardown shared by every mp exit path (success and
    abort): close the parent pipe ends, then ``join`` → ``terminate``
    → ``kill`` → ``join`` each worker, and ``close()`` the process
    handles so no zombies or leaked fds survive.  ``kill`` matters: a
    SIGSTOPped worker shrugs off SIGTERM (it stays pending while the
    process is stopped) but not SIGKILL."""
    for conn in pipes:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
    for proc in procs:
        try:
            proc.close()
        except ValueError:
            pass


def _run_mp(workload: ShardWorkload, plan: ShardPlan, obs: bool = False
            ) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
    import multiprocessing
    import time
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform: the inline oracle is always exact.
        return _run_inline(workload, plan, obs=obs)
    workload_bytes = pickle.dumps(workload)
    pipes, procs = [], []
    try:
        for shard_index in range(plan.k):
            parent_conn, child_conn = mp_ctx.Pipe()
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(child_conn, workload_bytes, plan, shard_index, obs),
                daemon=True)
            proc.start()
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)
        handoffs = 0
        barriers = 0
        stall_s = 0.0
        epoch_records: List[Dict[str, Any]] = []
        prev_events = [0] * plan.k
        prev_cpu = [0.0] * plan.k
        epoch_start = 0.0
        batches: Dict[int, List[Handoff]] = {}
        for epoch_end in _epoch_ends(workload.horizon(), plan.lookahead):
            for shard_index, conn in enumerate(pipes):
                conn.send(("epoch", epoch_end,
                           batches.get(shard_index, [])))
            t0 = time.perf_counter()  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
            replies = [_recv_deadline(conn, procs[i], i, barriers,
                                      epoch_end)
                       for i, conn in enumerate(pipes)]
            epoch_stall = time.perf_counter() - t0  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
            stall_s += epoch_stall
            outboxes = [reply[0] for reply in replies]
            batches = _route(plan, outboxes)
            epoch_handoffs = sum(len(b) for b in batches.values())
            handoffs += epoch_handoffs
            if obs:
                from ..obs.timeline import make_epoch_record
                events = [reply[1] for reply in replies]
                cpu = [reply[2] for reply in replies]
                epoch_records.append(make_epoch_record(
                    barriers, epoch_start, epoch_end, epoch_handoffs,
                    [e - p for e, p in zip(events, prev_events)],
                    [c - p for c, p in zip(cpu, prev_cpu)],
                    epoch_stall))
                prev_events, prev_cpu = events, cpu
            barriers += 1
            epoch_start = epoch_end
        partials = []
        worker_cpu_s = []
        snapshots = []
        for conn in pipes:
            conn.send(("collect",))
        for i, conn in enumerate(pipes):
            partial, cpu_s, snapshot = _recv_deadline(
                conn, procs[i], i, barriers, epoch_start)
            partials.append(partial)
            worker_cpu_s.append(cpu_s)
            if snapshot is not None:
                snapshots.append(snapshot)
        for conn in pipes:
            conn.send(("quit",))
    except (EOFError, BrokenPipeError, OSError) as exc:
        # A send-side pipe failure: attribute it to the first dead
        # worker (the recv side raises typed errors itself).
        from .recovery import ShardWorkerCrash
        dead = next((i for i, p in enumerate(procs)
                     if not p.is_alive()), -1)
        exitcode = procs[dead].exitcode if dead >= 0 else None
        raise ShardWorkerCrash(dead, barriers, epoch_start, exitcode,
                               cause=repr(exc)) from exc
    finally:
        _shutdown_workers(pipes, procs)
    counters, work = workload.finalize(_sum_partials(partials))
    stats = _stats(plan, "mp", barriers, handoffs,
                   [p.get("events_executed", 0) for p in partials],
                   worker_cpu_s)
    stats["barrier_stall_s"] = round(stall_s, 6)
    if obs and snapshots:
        from ..obs.snapshot import merge_snapshots
        merged = merge_snapshots(snapshots)
        merged.add_epochs(epoch_records)
        merged.add_shard_stats(worker_cpu_s, stall_s)
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
