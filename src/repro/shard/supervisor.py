"""The forked ``mp`` backend: the supervising parent and its workers.

Every ``run_sharded(..., backend="mp")`` runs here, and this module
holds both ends of the pipe protocol: :func:`_worker_main` serves one
shard's :class:`~repro.shard.executor._Replica` per forked process,
and :class:`ShardSupervisor` supplies the two backend steps of the
executor's one barrier loop (:func:`~repro.shard.executor._run_epochs`),
wrapping every protocol step in supervision:

* every epoch's injection batches are journaled *before* the send
  (:class:`~repro.shard.recovery.EpochJournal`) and the journaled bytes
  are what the epoch message carries; each worker digests its own
  outbox and appends the digest to its epoch reply, and the supervisor
  journals it as the reply arrives;
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
  ``degraded`` in stats;
* an exception raised by the workload itself (a bug every replacement
  would repeat) is not a death: the worker sends it back over the pipe
  and the parent raises it at once — no revival, no degradation, no
  inline re-run.

Fault injection (:class:`~repro.shard.recovery.FaultPlan`) is applied
by the supervisor itself at exact protocol points, so chaos campaigns
are reproducible: ``kill`` lands right before the epoch send (death
detected immediately), ``stall`` suspends the worker so the reply
deadline trips, ``kill-after-reply`` lands between barriers (death
detected at the next send or at collect).  Each run fires its own
resolved copy of the plan.

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

from .executor import (ShardWorkload, _epoch_ends, _Replica,
                       _run_epochs, _run_inline)
from .partition import ShardPlan
from .recovery import (FAULT_KILL, FAULT_KILL_AFTER_REPLY, FAULT_STALL,
                       EpochJournal, Fault, FaultPlan, RecoveryConfig,
                       RestartBudgetExhausted, ShardWorkerCrash,
                       ShardWorkerError, ShardWorkerTimeout, outbox_digest)


# ----------------------------------------------------------------------
# the worker end of the pipe protocol
# ----------------------------------------------------------------------

class _WorkerFailure:
    """A worker's reply when its workload raised: the exception, or a
    ``RuntimeError`` carrying its traceback when it does not pickle."""

    __shard_boundary__ = True     # crosses the worker pipe (VIA012)
    __slots__ = ("error",)

    def __init__(self, error: Exception):
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            import traceback
            error = RuntimeError("shard worker raised an exception that "
                                 "does not pickle:\n" + "".join(
                                     traceback.format_exception(
                                         type(error), error,
                                         error.__traceback__)))
        self.error = error


def _worker_main(conn, workload_bytes: bytes, plan: ShardPlan,
                 shard_index: int, obs: bool = False) -> None:
    """One shard in its own process: a :class:`~repro.shard.executor.
    _Replica` behind the pipe.  Each ``(kind, *args)`` message calls the
    replica's ``epoch``, ``replay`` or ``collect`` step with ``args``
    and sends its reply back, an epoch reply with the outbox digest
    the supervisor journals appended; ``("quit",)`` ends the loop.

    A workload exception is sent back as a :class:`_WorkerFailure`, and
    the pipe is held open until the parent hangs up, so the parent
    reads the failure rather than a broken pipe."""
    try:
        replica = _Replica(pickle.loads(workload_bytes),
                           frozenset(plan.shards[shard_index]),
                           shard_index, obs)

        def epoch(epoch_end: float, batch_bytes: bytes) -> Tuple:
            reply = replica.epoch(epoch_end, batch_bytes)
            return reply + (outbox_digest(reply[0]),)

        steps = {"epoch": epoch, "replay": replica.replay,
                 "collect": replica.collect}
        while True:
            kind, *args = conn.recv()
            if kind == "quit":
                return
            conn.send(steps[kind](*args))
    except Exception as exc:
        try:
            conn.send(_WorkerFailure(exc))
            while True:
                conn.recv()
        except (EOFError, OSError):
            pass        # the parent has hung up
    finally:
        conn.close()


def _recv_deadline(conn, proc, shard_index: int, epoch: int,
                   barrier_time: float, deadline_s: float):
    """One barrier reply, bounded by ``deadline_s``.

    Raises a typed error instead of blocking forever: a missed deadline
    with a live process is a :class:`~repro.shard.recovery.
    ShardWorkerTimeout` (stall), a dead process or EOF on the pipe is a
    :class:`~repro.shard.recovery.ShardWorkerCrash`, so a hung worker
    can never wedge the parent.  A :class:`_WorkerFailure` reply raises
    the workload's own exception.
    """
    if not conn.poll(deadline_s):
        if proc.is_alive():
            raise ShardWorkerTimeout(shard_index, epoch, barrier_time,
                                     deadline_s)
        raise ShardWorkerCrash(shard_index, epoch, barrier_time,
                               proc.exitcode)
    try:
        reply = conn.recv()
    except (EOFError, BrokenPipeError, OSError) as exc:
        proc.join(timeout=10.0)
        raise ShardWorkerCrash(shard_index, epoch, barrier_time,
                               proc.exitcode, cause=repr(exc)) from exc
    if isinstance(reply, _WorkerFailure):
        raise reply.error
    return reply


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
        # This run's own copy of the fault schedule, negative barriers
        # resolved against its epoch count: the caller's plan is never
        # mutated, so one config injects the same faults on every run.
        self.faults = FaultPlan([Fault(f.kind, f.barrier, f.shard)
                                 for f in (config.faults.faults
                                           if config.faults is not None
                                           else ())])
        self.faults.normalize(
            len(_epoch_ends(workload.horizon(), plan.lookahead)))
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
            replayed, mismatches = ack
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
    def _apply_faults(self, kinds: Tuple[str, ...], epoch: int,
                      barrier_time: float) -> None:
        """Fire this run's unfired faults of ``kinds`` scheduled at
        ``epoch``: ``stall`` SIGSTOPs the worker, the kill kinds
        SIGKILL it."""
        for kind in kinds:
            for fault in self.faults.pending(kind, epoch):
                fault.fired = True
                worker = (self.workers[fault.shard]
                          if 0 <= fault.shard < self.plan.k else None)
                if worker is None or not worker.proc.is_alive():
                    continue
                if kind == FAULT_STALL:
                    os.kill(worker.proc.pid, signal.SIGSTOP)
                else:
                    worker.proc.kill()
                    worker.proc.join(timeout=10.0)
                self._note("fault", barrier_time,
                           f"{kind} shard{fault.shard}", epoch=epoch)

    # -- the two backend steps of the barrier loop -------------------------
    def run(self) -> Tuple[Dict[str, Any], Dict[str, int], Dict[str, Any]]:
        for shard_index in range(self.plan.k):
            self._spawn(shard_index)
        return _run_epochs(self.workload, self.plan, "mp", self.obs,
                           self.exchange, self.collect)

    def exchange(self, epoch: int, epoch_end: float,
                 batches: Dict[int, List[Any]]
                 ) -> Tuple[List[Tuple], float]:
        """One supervised epoch on every worker.  ``kill`` and
        ``stall`` faults land before the send (a kill is found by the
        pre-send sweep, a stall by the reply deadline); the batches are
        journaled and the journaled bytes sent; each reply is awaited
        under the deadline, reviving, replaying and re-sending as the
        budget allows; each reply's outbox digest is journaled and
        dropped from the reply handed back; then ``kill-after-reply``
        faults land mid-handoff, to be found at the next send or at
        collect."""
        self.epoch = epoch
        self._apply_faults((FAULT_KILL, FAULT_STALL), epoch, epoch_end)
        self._revive_dead(epoch, epoch_end)
        messages = [("epoch", epoch_end, batch_bytes)
                    for batch_bytes in self.journal.record_send(
                        epoch, epoch_end, batches)]
        for shard_index, message in enumerate(messages):
            self._send(shard_index, message, epoch_end, epoch)
        t0 = time.perf_counter()  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
        replies = [self._reply(i, message, epoch_end, epoch)
                   for i, message in enumerate(messages)]
        stall_s = time.perf_counter() - t0  # via: ignore[VIA003] barrier stall is host wall time by definition; never digest-visible
        for shard_index, reply in enumerate(replies):
            self.journal.record_digest(epoch, shard_index, reply[3])
        self._apply_faults((FAULT_KILL_AFTER_REPLY,), epoch, epoch_end)
        return [reply[:3] for reply in replies], stall_s

    def collect(self, epochs: int, horizon: float) -> List[Tuple]:
        """Every worker's partial and snapshot, after the pre-send
        sweep (a full-history replay for a worker that died after the
        final barrier); then every worker is told to quit."""
        self.epoch = epochs
        self._revive_dead(epochs, horizon)
        for shard_index in range(self.plan.k):
            self._send(shard_index, ("collect",), horizon, epochs)
        replies = [self._reply(i, ("collect",), horizon, epochs)
                   for i in range(self.plan.k)]
        for worker in self.workers:
            try:
                worker.conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        return replies

    # -- accounting --------------------------------------------------------
    def recovery_stats(self, degraded: bool = False) -> Dict[str, Any]:
        fired = [{"kind": f.kind, "barrier": f.barrier, "shard": f.shard}
                 for f in self.faults.faults if f.fired]
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
    result an inline run gives.  An exception raised by the workload in
    a worker is raised here as soon as its reply is read.
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
    degraded = False
    try:
        counters, work, stats = supervisor.run()
    except RestartBudgetExhausted as exc:
        supervisor.shutdown()
        counters, work, stats = _run_inline(workload, plan, obs=obs)
        stats["degraded"] = degraded = True
        stats["degrade_reason"] = str(exc)
        stats["requested_backend"] = "mp"
    finally:
        supervisor.shutdown()
    stats["supervised"] = True
    stats["recovery"] = recovery_stats = supervisor.recovery_stats(
        degraded=degraded)
    if obs:
        stats["obs"].add_recovery(
            recovery_stats,
            flight_records=list(supervisor.flight.to_records(shard=plan.k)),
            span_records=list(supervisor.tracer.to_records()))
    return counters, work, stats
