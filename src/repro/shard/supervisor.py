"""The forked ``mp`` backend: the supervising parent and its workers.

Every ``run_sharded(..., backend="mp")`` runs here, and this module
holds both ends of the pipe protocol: :func:`_worker_main` serves one
shard per forked process, and :class:`ShardSupervisor` drives the
epoch barriers, wrapping every protocol step in supervision:

* every epoch's injection batches are journaled *before* the send
  (:class:`~repro.shard.recovery.EpochJournal`) and the journaled bytes
  are what the epoch message carries; every worker's outbox digest is
  journaled as its reply arrives;
* worker death (exitcode sentinel / EOF / broken pipe) and stall
  (missed per-barrier reply deadline) are detected, the dead process is
  reaped, and a replacement is forked after a seeded exponential
  backoff;
* the replacement rebuilds its replica from the same workload bytes and
  **replays** the journaled injection history to the current barrier —
  determinism guarantees it reaches the exact state the original had,
  so the barrier protocol resumes and the final K-shard digest is
  byte-identical to the fault-free run;
* when the run-wide restart budget is exhausted the run *degrades*
  deterministically: every worker is killed and the inline oracle
  re-executes the workload from scratch in-process, flagged
  ``degraded`` in stats.  A deterministic workload failure (one that
  kills every replacement too) therefore ends in the inline re-run,
  which raises the workload's own exception in the caller.

Fault injection (:class:`~repro.shard.recovery.FaultPlan`) is applied
by the supervisor itself at exact protocol points, so chaos campaigns
are reproducible: ``kill`` lands right before the epoch send (death
detected immediately), ``stall`` suspends the worker so the reply
deadline trips, ``kill-after-reply`` lands between barriers (death
detected at the next send or at collect).

With ``obs`` on, the supervisor keeps its own flight recorder and span
tracer (shard id ``K``, span ids rebased past every worker's range) so
restarts, replays and degradation appear in the merged telemetry next
to the worker-side streams.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from .executor import (ShardWorkload, _advance, _arm_obs, _epoch_ends,
                       _route, _run_inline, _stats, _sum_partials)
from .partition import ShardPlan
from .recovery import (FAULT_KILL, FAULT_KILL_AFTER_REPLY, FAULT_STALL,
                       EpochJournal, RecoveryConfig,
                       RestartBudgetExhausted, ShardWorkerCrash,
                       ShardWorkerError, ShardWorkerTimeout,
                       outbox_digest)


# ----------------------------------------------------------------------
# the worker end of the pipe protocol
# ----------------------------------------------------------------------

def _worker_main(conn, workload_bytes: bytes, plan: ShardPlan,
                 shard_index: int, obs: bool = False) -> None:
    """One shard in its own process: build, then serve the barrier
    protocol.  ``("epoch", epoch_end, batch_bytes)`` injects the
    journaled batch, runs to the epoch end and returns the outbox plus
    the running event/CPU counters the epoch timeline needs;
    ``("collect",)`` returns the shard's partial and, with ``obs`` on,
    its full :class:`~repro.obs.snapshot.ObsSnapshot`.

    A ``("replay", entries)`` message (sent to a freshly forked
    replacement) fast-forwards this replica through the journaled epoch
    history with the same step, and *discards* each outbox — the
    original worker already shipped those handoffs before it died.
    Each discarded outbox is fingerprinted against its journaled
    partial digest (when one was recorded), so a replay that diverged
    is detected at the worker, not at the final digest."""
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
                _, epoch_end, batch_bytes = message
                _advance(ctx, pickle.loads(batch_bytes), epoch_end,
                         barriers)
                barriers += 1
                cpu_s = time.process_time() - cpu0  # via: ignore[VIA003] per-worker cost accounting; never digest-visible
                conn.send((fabric.drain_outbox(), sim.events_executed,
                           cpu_s))
            elif kind == "replay":
                # Recovery's own digest, not this module's name: the
                # replacement checks the journal independently of how
                # the parent fingerprinted it (a test substitutes the
                # parent's to plant a divergence).
                from .recovery import outbox_digest
                _, entries = message
                mismatches = 0
                for epoch_end, batch_bytes, expected in entries:
                    _advance(ctx, pickle.loads(batch_bytes), epoch_end,
                             barriers)
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
                   barrier_time: float, deadline_s: float):
    """One barrier reply, bounded by ``deadline_s``.

    Raises a typed error instead of blocking forever: a missed deadline
    with a live process is a :class:`~repro.shard.recovery.
    ShardWorkerTimeout` (stall), a dead process or EOF on the pipe is a
    :class:`~repro.shard.recovery.ShardWorkerCrash`, so a hung worker
    can never wedge the parent.
    """
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


# ----------------------------------------------------------------------
# the supervising parent
# ----------------------------------------------------------------------

class _Worker:
    """One live shard worker: its process, pipe and generation."""

    __slots__ = ("shard_index", "proc", "conn", "generation")

    def __init__(self, shard_index: int, proc, conn, generation: int):
        self.shard_index = shard_index
        self.proc = proc
        self.conn = conn
        self.generation = generation


class ShardSupervisor:
    """Owns the worker pool, the epoch journal and the restart ladder."""

    def __init__(self, workload: ShardWorkload, plan: ShardPlan,
                 obs: bool, config: RecoveryConfig, mp_ctx):
        self.workload = workload
        self.plan = plan
        self.obs = obs
        self.config = config
        self.mp_ctx = mp_ctx
        self.workload_bytes = pickle.dumps(workload)
        self.journal = EpochJournal(plan.k)
        self.workers: List[Optional[_Worker]] = [None] * plan.k
        self.backoff = config.backoff_rng(workload.seed)
        # recovery accounting
        self.restarts = 0
        self.restarts_by_shard = [0] * plan.k
        self.generations = [0] * plan.k
        self.stall_kills = 0
        self.crashes = 0
        self.replayed_epochs = 0
        self.digest_mismatches = 0
        self.backoff_s = 0.0
        # barrier position (for error attribution)
        self.epoch = 0
        self._prev_cpu = [0.0] * plan.k
        # parent-plane telemetry
        self.flight = None
        self.tracer = None
        if obs:
            from ..obs.flight import FlightRecorder
            from ..obs.snapshot import SHARD_ID_STRIDE
            from ..obs.spans import SpanTracer
            self.flight = FlightRecorder(capacity=256)
            self.tracer = SpanTracer()
            self.tracer.rebase_ids(plan.k * SHARD_ID_STRIDE)

    # -- telemetry ---------------------------------------------------------
    def _note(self, kind: str, t: float, what: str, **fields: Any) -> None:
        if self.flight is not None:
            self.flight.note(kind, t, what, **fields)

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self, shard_index: int) -> _Worker:
        parent_conn, child_conn = self.mp_ctx.Pipe()
        proc = self.mp_ctx.Process(
            target=_worker_main,
            args=(child_conn, self.workload_bytes, self.plan, shard_index,
                  self.obs),
            daemon=True)
        proc.start()
        child_conn.close()
        self.generations[shard_index] += 1
        worker = _Worker(shard_index, proc, parent_conn,
                         self.generations[shard_index])
        self.workers[shard_index] = worker
        return worker

    def _reap(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        proc = worker.proc
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10.0)
        try:
            proc.close()
        except ValueError:
            pass

    def shutdown(self) -> None:
        """Kill and reap every live worker (idempotent)."""
        for worker in self.workers:
            if worker is not None:
                self._reap(worker)
        self.workers = [None] * self.plan.k

    def close(self) -> None:
        self.shutdown()
        self.journal.close()

    # -- protocol primitives ----------------------------------------------
    def _await(self, worker: _Worker, deadline_s: float,
               barrier_time: float) -> Any:
        """One reply through the bounded wait (:func:`_recv_deadline`),
        counted: a *stall* also kills the stalled process before
        re-raising."""
        try:
            return _recv_deadline(worker.conn, worker.proc,
                                  worker.shard_index, self.epoch,
                                  barrier_time, deadline_s)
        except ShardWorkerTimeout:
            self.stall_kills += 1
            worker.proc.kill()
            worker.proc.join(timeout=10.0)
            raise
        except ShardWorkerCrash:
            self.crashes += 1
            raise

    def _send(self, shard_index: int, message: Tuple,
              barrier_time: float, upto_epoch: int) -> None:
        """Send with crash-on-send recovery: a broken pipe means the
        worker died since the last barrier — revive and resend, as
        often as the restart budget allows."""
        while True:
            try:
                self.workers[shard_index].conn.send(message)
                return
            except (BrokenPipeError, OSError):
                self.crashes += 1
            self._revive(shard_index, upto_epoch, "send-failed",
                         barrier_time)

    def _reply(self, shard_index: int, message: Tuple,
               barrier_time: float, upto_epoch: int) -> Any:
        """The worker's reply to ``message`` (already sent): on a crash
        or stall, revive the shard to barrier ``upto_epoch`` and re-send
        ``message`` through :meth:`_send`, as often as the restart
        budget allows."""
        while True:
            try:
                return self._await(self.workers[shard_index],
                                   self.config.barrier_deadline_s,
                                   barrier_time)
            except ShardWorkerError as exc:
                reason = ("stall" if isinstance(exc, ShardWorkerTimeout)
                          else "crash")
            self._revive(shard_index, upto_epoch, reason, barrier_time)
            self._send(shard_index, message, barrier_time, upto_epoch)

    # -- restart ladder ----------------------------------------------------
    def _revive(self, shard_index: int, upto_epoch: int, reason: str,
                barrier_time: float) -> _Worker:
        """Replace the worker for ``shard_index`` and replay it to the
        state at barrier ``upto_epoch``.  Raises
        :class:`RestartBudgetExhausted` when the run-wide budget is
        spent; loops if the replacement itself dies during replay."""
        old = self.workers[shard_index]
        if old is not None:
            self._reap(old)
            self.workers[shard_index] = None
        while True:
            if self.restarts >= self.config.max_restarts:
                raise RestartBudgetExhausted(
                    shard_index, self.epoch, barrier_time,
                    self.config.max_restarts)
            self.restarts += 1
            self.restarts_by_shard[shard_index] += 1
            attempt = self.restarts_by_shard[shard_index]
            # Exponential backoff with jitter from the dedicated seeded
            # stream — even the wall-clock pauses are a pure function of
            # (seed, restart ordinal).
            base = min(self.config.backoff_max_s,
                       self.config.backoff_base_s * (2 ** (attempt - 1)))
            pause = base * (0.5 + 0.5 * self.backoff.random())
            if pause > 0:
                time.sleep(pause)
            self.backoff_s += pause
            worker = self._spawn(shard_index)
            self._note("restart", barrier_time,
                       f"shard{shard_index} gen{worker.generation}",
                       reason=reason, epoch=self.epoch, attempt=attempt)
            span = None
            if self.tracer is not None:
                span = self.tracer.start_trace(
                    "shard.restart", f"shard{shard_index}", barrier_time)
                span.attrs.update(reason=reason, epoch=self.epoch,
                                  generation=worker.generation)
            entries = self.journal.replay_entries(shard_index, upto_epoch)
            replay_span = None
            if self.tracer is not None and span is not None:
                replay_span = self.tracer.start_span(
                    "shard.replay", span.context, f"shard{shard_index}",
                    barrier_time)
                replay_span.attrs["epochs"] = len(entries)
            try:
                worker.conn.send(("replay", entries))
                deadline = (self.config.barrier_deadline_s
                            * max(1, len(entries)))
                ack = self._await(worker, deadline, barrier_time)
            except RestartBudgetExhausted:
                raise
            except ShardWorkerError:
                reason = "replay-died"
                continue
            except (BrokenPipeError, OSError):
                self.crashes += 1
                reason = "replay-send-failed"
                continue
            _, replayed, mismatches = ack
            self.replayed_epochs += replayed
            self.digest_mismatches += mismatches
            self._note("replay", barrier_time,
                       f"shard{shard_index} replayed {replayed} epoch(s)",
                       mismatches=mismatches)
            if replay_span is not None:
                replay_span.finish(barrier_time)
                replay_span.attrs["mismatches"] = mismatches
            if span is not None:
                span.finish(barrier_time)
            # The replacement's CPU clock starts over.
            self._prev_cpu[shard_index] = 0.0
            return worker

    def _revive_dead(self, upto_epoch: int, barrier_time: float) -> None:
        """Pre-send sweep: revive any worker that died between barriers
        (kill-after-reply faults, spontaneous deaths)."""
        for shard_index in range(self.plan.k):
            worker = self.workers[shard_index]
            if worker is None or not worker.proc.is_alive():
                if worker is not None:
                    self.crashes += 1
                self._revive(shard_index, upto_epoch,
                             "died-between-barriers", barrier_time)

    # -- fault injection ---------------------------------------------------
    def _fault_targets(self, fault) -> Optional[_Worker]:
        if not (0 <= fault.shard < self.plan.k):
            return None
        return self.workers[fault.shard]

    def _apply_pre_faults(self, epoch: int, barrier_time: float) -> None:
        """``kill`` and ``stall`` faults land at the top of the barrier,
        before the epoch send — a kill is detected by the pre-send
        sweep, a stall by the reply deadline."""
        faults = self.config.faults
        if faults is None:
            return
        for fault in faults.pending(FAULT_KILL, epoch):
            fault.fired = True
            worker = self._fault_targets(fault)
            if worker is not None and worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=10.0)
                self._note("fault", barrier_time,
                           f"SIGKILL shard{fault.shard}", epoch=epoch)
        for fault in faults.pending(FAULT_STALL, epoch):
            fault.fired = True
            worker = self._fault_targets(fault)
            if worker is not None and worker.proc.is_alive():
                os.kill(worker.proc.pid, signal.SIGSTOP)
                self._note("fault", barrier_time,
                           f"SIGSTOP shard{fault.shard}", epoch=epoch)

    def _apply_post_faults(self, epoch: int, barrier_time: float) -> None:
        """``kill-after-reply`` faults land after the barrier's replies
        were routed — mid-handoff — and are detected at the next send
        (or at collect, for the final barrier)."""
        faults = self.config.faults
        if faults is None:
            return
        for fault in faults.pending(FAULT_KILL_AFTER_REPLY, epoch):
            fault.fired = True
            worker = self._fault_targets(fault)
            if worker is not None and worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=10.0)
                self._note("fault", barrier_time,
                           f"SIGKILL-after-reply shard{fault.shard}",
                           epoch=epoch)

    # -- the supervised barrier loop ---------------------------------------
    def run(self) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
        plan, config = self.plan, self.config
        ends = _epoch_ends(self.workload.horizon(), plan.lookahead)
        if config.faults is not None:
            config.faults.normalize(len(ends))
        for shard_index in range(plan.k):
            self._spawn(shard_index)
        handoffs = 0
        stall_s = 0.0
        epoch_records: List[Dict[str, Any]] = []
        prev_events = [0] * plan.k
        epoch_start = 0.0
        batches: Dict[int, List[Any]] = {}
        for epoch, epoch_end in enumerate(ends):
            self.epoch = epoch
            self._apply_pre_faults(epoch, epoch_end)
            self._revive_dead(epoch, epoch_end)
            messages = [("epoch", epoch_end, batch_bytes)
                        for batch_bytes in self.journal.record_send(
                            epoch, epoch_end, batches)]
            for shard_index, message in enumerate(messages):
                self._send(shard_index, message, epoch_end, epoch)
            t0 = time.perf_counter()  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
            replies = [self._reply(i, message, epoch_end, epoch)
                       for i, message in enumerate(messages)]
            epoch_stall = time.perf_counter() - t0  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
            stall_s += epoch_stall
            outboxes = [reply[0] for reply in replies]
            for shard_index, outbox in enumerate(outboxes):
                self.journal.record_digest(epoch, shard_index,
                                           outbox_digest(outbox))
            batches = _route(plan, outboxes)
            handoffs += sum(len(b) for b in batches.values())
            self._apply_post_faults(epoch, epoch_end)
            if self.obs:
                from ..obs.timeline import make_epoch_record
                events = [reply[1] for reply in replies]
                cpu = [reply[2] for reply in replies]
                epoch_records.append(make_epoch_record(
                    epoch, epoch_start, epoch_end,
                    sum(len(b) for b in batches.values()),
                    [e - p for e, p in zip(events, prev_events)],
                    [max(0.0, c - p)
                     for c, p in zip(cpu, self._prev_cpu)],
                    epoch_stall))
                prev_events = events
                self._prev_cpu = cpu
            epoch_start = epoch_end
        # -- collect phase -------------------------------------------------
        horizon = ends[-1] if ends else 0.0
        self.epoch = len(ends)
        self._revive_dead(len(ends), horizon)
        for shard_index in range(plan.k):
            self._send(shard_index, ("collect",), horizon, len(ends))
        replies = [self._reply(i, ("collect",), horizon, len(ends))
                   for i in range(plan.k)]
        partials = [reply[0] for reply in replies]
        worker_cpu_s = [reply[1] for reply in replies]
        snapshots = [reply[2] for reply in replies if reply[2] is not None]
        for worker in self.workers:
            if worker is not None:
                try:
                    worker.conn.send(("quit",))
                except (BrokenPipeError, OSError):
                    pass
        counters, work = self.workload.finalize(_sum_partials(partials))
        stats = _stats(plan, "mp", len(ends), handoffs,
                       [p.get("events_executed", 0) for p in partials],
                       worker_cpu_s)
        stats["barrier_stall_s"] = round(stall_s, 6)
        stats["supervised"] = True
        recovery = self.recovery_stats()
        stats["recovery"] = recovery
        if self.obs and snapshots:
            from ..obs.snapshot import merge_snapshots
            merged = merge_snapshots(snapshots)
            merged.add_epochs(epoch_records)
            merged.add_shard_stats(worker_cpu_s, stall_s)
            merged.add_recovery(
                recovery,
                flight_records=list(self.flight.to_records(
                    shard=plan.k)) if self.flight else (),
                span_records=list(self.tracer.to_records())
                if self.tracer else ())
            stats["obs"] = merged
        return counters, work, stats

    # -- accounting --------------------------------------------------------
    def recovery_stats(self, degraded: bool = False) -> Dict[str, Any]:
        faults = self.config.faults
        fired = ([{"kind": f.kind, "barrier": f.barrier, "shard": f.shard}
                  for f in faults.faults if f.fired] if faults else [])
        return {
            "enabled": True,
            "worker_restarts": self.restarts,
            "restarts_by_shard": list(self.restarts_by_shard),
            "stall_kills": self.stall_kills,
            "crashes": self.crashes,
            "replayed_epochs": self.replayed_epochs,
            "partial_digest_mismatches": self.digest_mismatches,
            "journal_bytes": self.journal.journal_bytes,
            "backoff_s": round(self.backoff_s, 6),
            "restart_budget": self.config.max_restarts,
            "barrier_deadline_s": self.config.barrier_deadline_s,
            "degraded": degraded,
            "faults_fired": fired,
        }


def run_supervised(workload: ShardWorkload, plan: ShardPlan,
                   obs: bool = False,
                   recovery: Optional[RecoveryConfig] = None
                   ) -> Tuple[Dict[str, Any], Dict[str, int],
                              Dict[str, Any]]:
    """Execute ``workload`` over ``plan`` on forked, supervised workers
    — the ``mp`` backend of :func:`~repro.shard.executor.run_sharded`.

    Counters and work are byte-identical to the fault-free run (and to
    :func:`~repro.shard.executor.run_single`) even when workers are
    killed or stalled mid-run — crash recovery replays journaled
    handoff history into a replacement replica.  When the restart
    budget is exhausted the run degrades to the inline oracle,
    flagged ``stats["degraded"] = True``: deterministic, and the same
    result, or the same workload exception, an inline run gives.
    ``recovery=None`` supervises with the :class:`RecoveryConfig`
    defaults.
    """
    config = recovery if recovery is not None else RecoveryConfig()
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:
        # No fork on this platform: the inline oracle is always exact.
        counters, work, stats = _run_inline(workload, plan, obs=obs)
        stats["requested_backend"] = "mp"
        stats["supervised"] = True
        return counters, work, stats
    supervisor = ShardSupervisor(workload, plan, obs, config, mp_ctx)
    try:
        return supervisor.run()
    except RestartBudgetExhausted as exc:
        supervisor.shutdown()
        counters, work, stats = _run_inline(workload, plan, obs=obs)
        recovery_stats = supervisor.recovery_stats(degraded=True)
        stats["supervised"] = True
        stats["degraded"] = True
        stats["degrade_reason"] = str(exc)
        stats["requested_backend"] = "mp"
        stats["recovery"] = recovery_stats
        if obs and "obs" in stats:
            stats["obs"].add_recovery(
                recovery_stats,
                flight_records=list(supervisor.flight.to_records(
                    shard=plan.k)) if supervisor.flight else (),
                span_records=list(supervisor.tracer.to_records())
                if supervisor.tracer else ())
        return counters, work, stats
    finally:
        supervisor.close()
