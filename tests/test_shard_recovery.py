"""repro.shard.recovery: fault-tolerant sharded execution.

The contract under test sharpens the shard invariant: K-shard counters
must equal the single-shard oracle's **even when shard workers are
SIGKILLed or SIGSTOPped mid-run** — the supervisor respawns the dead
shard, replays its journaled handoff history, and the barrier protocol
resumes without a trace in the digest.  When the restart budget runs
out the run must *degrade* (deterministic inline fallback, flagged),
never crash.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.perf.digest import run_digest
from repro.perf.harness import load_results
from repro.perf.scenarios import SCENARIOS
from repro.resilience import run_campaign
from repro.shard import (EpochJournal, Fault, FaultPlan, Handoff,
                         RecoveryConfig, RestartBudgetExhausted,
                         ShardSupervisor, ShardWorkerCrash,
                         ShardWorkerError, ShardWorkerTimeout,
                         outbox_digest, run_sharded, run_single)
from repro.shard.supervisor import _recv_deadline

#: The scenarios that run partitioned, by name.
SHARDABLE = sorted(name for name, cls in SCENARIOS.items() if cls.shardable)
#: Fast restart ladder for tests — chaos on purpose shouldn't idle.
FAST = dict(backoff_base_s=0.005, backoff_max_s=0.02)


def _fault_config(*faults, **kw):
    kw.setdefault("barrier_deadline_s", 30.0)
    return RecoveryConfig(faults=FaultPlan(list(faults)), **FAST, **kw)


# ----------------------------------------------------------------------
# the acceptance proof: digest-identical recovery
# ----------------------------------------------------------------------

class TestDigestIdenticalRecovery:
    """Every shardable scenario × K ∈ {2, 4} × {SIGKILL, stall}: the
    supervised run finishes byte-identical to the fault-free single-
    shard oracle."""

    @pytest.mark.parametrize("name", SHARDABLE)
    @pytest.mark.parametrize("k", [2, 4])
    def test_sigkill_recovers_digest_identical(self, name, k):
        cls = SCENARIOS[name]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, k - 1))
        counters, work, stats = run_sharded(cls(42, "tiny"), k,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        rec = stats["recovery"]
        assert rec["worker_restarts"] >= 1
        assert rec["replayed_epochs"] >= 1
        assert rec["partial_digest_mismatches"] == 0
        assert not stats.get("degraded")

    @pytest.mark.parametrize("name", SHARDABLE)
    @pytest.mark.parametrize("k", [2, 4])
    def test_stall_recovers_digest_identical(self, name, k):
        cls = SCENARIOS[name]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("stall", 1, 0),
                               barrier_deadline_s=0.3)
        counters, work, stats = run_sharded(cls(42, "tiny"), k,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        rec = stats["recovery"]
        assert rec["stall_kills"] >= 1
        assert rec["worker_restarts"] >= 1
        assert not stats.get("degraded")

    def test_kill_during_handoff_recovers(self):
        """Death *between* barriers — outbox already routed — is
        detected at the next epoch send and replayed through a half-
        exchanged barrier."""
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill-after-reply", 2, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["recovery"]["worker_restarts"] == 1

    def test_kill_after_final_barrier_recovers_at_collect(self):
        """Death after the last barrier's reply forces a full-history
        replay at collect time."""
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill-after-reply", -1, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        rec = stats["recovery"]
        assert rec["worker_restarts"] == 1
        assert rec["replayed_epochs"] == stats["barriers"]

    def test_multiple_faults_same_run(self):
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, 0), Fault("kill", 10, 1),
                               max_restarts=5)
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["recovery"]["worker_restarts"] == 2

    def test_no_fault_supervised_matches_plain_mp(self):
        """Every mp run is supervised, and supervision is pure overhead
        when nothing fails: the single-shard oracle's counters, zero
        restarts."""
        cls = SCENARIOS["shuttle-storm"]
        base_counters, base_work = run_single(cls(42, "tiny"))
        counters, work, stats = run_sharded(cls(42, "tiny"), 2,
                                            backend="mp")
        assert (counters, work) == (base_counters, base_work)
        assert stats["supervised"] is True
        assert stats["recovery"]["worker_restarts"] == 0


class TestCommittedBaselineRecovery:
    """Recovery digests gate against the committed baseline — the exact
    check the CI recovery-smoke job runs."""

    def test_worker_kill_matches_committed_digest(self, repo_baseline):
        entry = repo_baseline["shard-scaling"]
        seed, scale = entry["seed"], entry["scale"]
        config = _fault_config(Fault("kill", 3, 1))
        counters, _, stats = run_sharded(
            SCENARIOS["shard-scaling"](seed, scale), 2,
            backend="mp", recovery=config)
        assert run_digest("shard-scaling", seed, scale, counters) \
            == entry["digest"]
        assert stats["recovery"]["worker_restarts"] == 1

    @pytest.fixture(scope="class")
    def repo_baseline(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        return {entry["scenario"]: entry
                for entry in load_results(path)}


# ----------------------------------------------------------------------
# degradation: budget exhaustion must not crash
# ----------------------------------------------------------------------

class BuggyWorkload(SCENARIOS["shard-scaling"]):
    """A worker-side callback that raises: a deterministic failure
    every replacement repeats.  Never scheduled in the single-shard
    oracle."""

    def setup(self, ctx, owned):
        super().setup(ctx, owned)
        if owned is not None:
            ctx["sim"].call_at(0.5, self._bug, name="bug")

    @staticmethod
    def _bug():
        raise RuntimeError("workload bug")


class UnpicklableBug(Exception):
    """A workload exception that cannot cross a pipe: it holds a
    lambda."""

    def __init__(self):
        super().__init__("unpicklable workload bug")
        self.hook = lambda: None


class UnpicklableBuggyWorkload(BuggyWorkload):
    @staticmethod
    def _bug():
        raise UnpicklableBug()


def _no_recovery(*args, **kwargs):
    raise AssertionError("a workload bug must not revive a worker or "
                         "degrade the run")


class TestDegradation:
    def test_budget_exhaustion_degrades_to_inline(self):
        cls = SCENARIOS["shard-scaling"]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 2, 0), max_restarts=0)
        counters, work, stats = run_sharded(cls(42, "tiny"), 2,
                                            backend="mp",
                                            recovery=config)
        assert counters == base_counters
        assert work == base_work
        assert stats["degraded"] is True
        assert stats["backend"] == "inline"
        assert stats["requested_backend"] == "mp"
        assert "restart budget" in stats["degrade_reason"]
        assert stats["recovery"]["degraded"] is True

    def test_degradation_is_deterministic(self):
        cls = SCENARIOS["shuttle-storm"]
        runs = []
        for _ in range(2):
            config = _fault_config(Fault("kill", 1, 1), max_restarts=0)
            counters, work, stats = run_sharded(cls(7, "tiny"), 2,
                                                backend="mp",
                                                recovery=config)
            assert stats["degraded"]
            runs.append((counters, work))
        assert runs[0] == runs[1]
        assert runs[0] == run_single(cls(7, "tiny"))

    def test_budget_counts_run_wide(self):
        """Three kills against a budget of two: the third exhausts it
        and the run degrades — still digest-identical."""
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 1, 0), Fault("kill", 3, 1),
                               Fault("kill", 5, 0), max_restarts=2)
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        assert stats["degraded"] is True
        assert stats["recovery"]["worker_restarts"] == 2

    def test_workload_exception_raises_without_revival(self,
                                                       monkeypatch):
        """A workload bug is not a worker death: the worker sends the
        exception back and the parent raises it at once — no worker is
        revived and the run does not degrade to an inline re-run.  No
        worker outlives the run."""
        from repro.shard import supervisor
        monkeypatch.setattr(supervisor.ShardSupervisor, "_revive",
                            _no_recovery)
        monkeypatch.setattr(supervisor, "_run_inline", _no_recovery)
        with pytest.raises(RuntimeError, match="workload bug"):
            run_sharded(BuggyWorkload(42, "tiny"), 2, backend="mp",
                        recovery=RecoveryConfig(**FAST))
        # via: ignore[VIA003] host-side reaping deadline, not sim time
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:  # via: ignore[VIA003]
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_unpicklable_workload_exception_carries_its_traceback(
            self, monkeypatch):
        from repro.shard import supervisor
        monkeypatch.setattr(supervisor.ShardSupervisor, "_revive",
                            _no_recovery)
        with pytest.raises(RuntimeError, match="does not pickle") as info:
            run_sharded(UnpicklableBuggyWorkload(42, "tiny"), 2,
                        backend="mp", recovery=RecoveryConfig(**FAST))
        assert "UnpicklableBug: unpicklable workload bug" \
            in str(info.value)


# ----------------------------------------------------------------------
# typed barrier errors
# ----------------------------------------------------------------------

class TestTypedBarrierErrors:
    def test_recv_deadline_timeout_carries_context(self):
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=time.sleep, args=(30.0,), daemon=True)
        proc.start()
        child.close()
        try:
            with pytest.raises(ShardWorkerTimeout) as err:
                _recv_deadline(parent, proc, 1, 7, 3.5, deadline_s=0.2)
            assert err.value.shard_index == 1
            assert err.value.epoch == 7
            assert err.value.barrier_time == 3.5
            assert err.value.deadline_s == 0.2
        finally:
            proc.kill()
            proc.join(timeout=10.0)
            parent.close()

    def test_recv_deadline_crash_carries_exitcode(self):
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=lambda: os._exit(9), daemon=True)
        proc.start()
        child.close()
        proc.join(timeout=10.0)
        try:
            with pytest.raises(ShardWorkerCrash) as err:
                _recv_deadline(parent, proc, 0, 3, 1.0, deadline_s=5.0)
            assert err.value.epoch == 3
            assert "inline" in str(err.value)   # points at the repro path
            # Typed errors still satisfy pre-recovery except clauses.
            assert isinstance(err.value, ShardWorkerError)
            assert isinstance(err.value, RuntimeError)
        finally:
            parent.close()
            proc.join(timeout=10.0)


class DiesOnceWorkload(SCENARIOS["shard-scaling"]):
    """The worker owning node ``(1, 1)`` calls ``os._exit`` once
    mid-epoch, while the supervisor awaits its reply.

    The marker file makes the death one-shot, so the replacement (and
    any inline fallback in the test process) survives.  The oracle
    schedules the same callback as a no-op, so ``events_executed``
    matches the sharded run.
    """

    __slots__ = ("marker",)

    def __init__(self, seed, scale, marker):
        super().__init__(seed, scale)
        self.marker = str(marker)

    def setup(self, ctx, owned):
        super().setup(ctx, owned)
        if owned is None or (1, 1) in owned:
            ctx["sim"].call_at(0.52, self._die_once, owned is not None,
                               name="die-once")

    def _die_once(self, in_worker):
        if in_worker and not os.path.exists(self.marker):
            open(self.marker, "x").close()
            os._exit(13)


class TestSupervisedReplyWait:
    """The supervisor's reply wait and replay check, hit directly
    rather than through the pre-send sweep that catches ``kill``
    faults."""

    def test_death_while_awaiting_reply_recovers(self, tmp_path):
        marker = tmp_path / "died"
        base_counters, base_work = run_single(
            DiesOnceWorkload(42, "tiny", marker))
        assert not marker.exists()
        counters, work, stats = run_sharded(
            DiesOnceWorkload(42, "tiny", marker), 2, backend="mp",
            recovery=RecoveryConfig(**FAST))
        assert marker.exists()
        assert counters == base_counters
        assert work == base_work
        rec = stats["recovery"]
        assert rec["crashes"] == 1
        assert rec["worker_restarts"] == 1
        assert not stats.get("degraded")

    def test_divergent_replay_is_counted(self, monkeypatch):
        """Journal wrong outbox digests in the parent: the replacement's
        replay check flags every replayed epoch, and the counters are
        still the oracle's."""
        monkeypatch.setattr("repro.shard.supervisor.outbox_digest",
                            lambda outbox: "0" * 16)
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("kill", 3, 1))
        counters, _, stats = run_sharded(cls(42, "tiny"), 2,
                                         backend="mp", recovery=config)
        assert counters == base_counters
        rec = stats["recovery"]
        assert rec["replayed_epochs"] == 3
        assert rec["partial_digest_mismatches"] == 3

    def test_replacement_dead_before_resend_is_revived(self, monkeypatch):
        """The first replacement dies between its replay ack and the
        re-sent epoch message: the re-send revives it again instead of
        letting the broken pipe escape the run."""
        revive = ShardSupervisor._revive
        killed = []

        def revive_then_kill_once(self, *args):
            worker = revive(self, *args)
            if not killed:
                killed.append(worker.shard_index)
                worker.proc.kill()
                worker.proc.join(timeout=10.0)
            return worker

        monkeypatch.setattr(ShardSupervisor, "_revive",
                            revive_then_kill_once)
        cls = SCENARIOS["shard-scaling"]
        base_counters, base_work = run_single(cls(42, "tiny"))
        config = _fault_config(Fault("stall", 1, 0),
                               barrier_deadline_s=0.3)
        counters, work, stats = run_sharded(cls(42, "tiny"), 2,
                                            backend="mp", recovery=config)
        assert killed == [0]
        assert (counters, work) == (base_counters, base_work)
        assert stats["recovery"]["worker_restarts"] == 2
        assert not stats.get("degraded")


# ----------------------------------------------------------------------
# the epoch journal
# ----------------------------------------------------------------------

class _BenchPacket:
    """Minimal picklable stand-in for a diverted packet."""

    def __init__(self, pid):
        self.packet_id = pid
        self.size_bytes = 64


def _handoff(t, src, dst, packet_id):
    return Handoff(t, src, dst, _BenchPacket(packet_id))


class TestEpochJournal:
    def _journal(self, epochs=6, k=2):
        journal = EpochJournal(k)
        for epoch in range(epochs):
            batches = {i: [_handoff(epoch + 0.5, (0, 0), (0, 1),
                                    epoch * 10 + i)]
                       for i in range(k)}
            journal.record_send(epoch, float(epoch + 1), batches)
            for i in range(k):
                journal.record_digest(epoch, i, f"digest-{epoch}-{i}")
        return journal

    def test_replay_entries_cover_prefix_in_order(self):
        journal = self._journal()
        entries = journal.replay_entries(1, 4)
        assert [e[0] for e in entries] == [1.0, 2.0, 3.0, 4.0]
        assert [e[2] for e in entries] == [f"digest-{i}-1"
                                           for i in range(4)]
        batch = pickle.loads(entries[2][1])
        assert batch[0].packet.packet_id == 21


# ----------------------------------------------------------------------
# fault plans and configuration
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("segfault", 0, 0)

    def test_negative_barriers_normalize_from_end(self):
        plan = FaultPlan([Fault("kill", -1, 0), Fault("stall", -3, 1)])
        plan.normalize(10)
        assert [f.barrier for f in plan.faults] == [9, 7]

    def test_pending_excludes_fired(self):
        plan = FaultPlan([Fault("kill", 2, 0), Fault("kill", 2, 1)])
        pending = plan.pending("kill", 2)
        assert len(pending) == 2
        pending[0].fired = True
        assert len(plan.pending("kill", 2)) == 1
        assert plan.pending("stall", 2) == []


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(barrier_deadline_s=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_restarts=-1)

    def test_backoff_stream_is_seeded(self):
        config = RecoveryConfig()
        a = [config.backoff_rng(42).random() for _ in range(3)]
        b = [config.backoff_rng(42).random() for _ in range(3)]
        c = [config.backoff_rng(43).random() for _ in range(3)]
        assert a == b
        assert a != c

    def test_budget_error_carries_context(self):
        err = RestartBudgetExhausted(1, 5, 2.5, 3)
        assert (err.shard_index, err.epoch, err.budget) == (1, 5, 3)


class TestOutboxDigest:
    def test_stable_across_pickle_round_trip(self):
        outbox = [_handoff(1.5, (0, 0), (0, 1), 7),
                  _handoff(1.7, (1, 0), (1, 1), 8)]
        clone = pickle.loads(pickle.dumps(outbox))
        assert outbox_digest(clone) == outbox_digest(outbox)

    def test_sensitive_to_content(self):
        a = [_handoff(1.5, (0, 0), (0, 1), 7)]
        b = [_handoff(1.5, (0, 0), (0, 1), 8)]
        assert outbox_digest(a) != outbox_digest(b)
        assert outbox_digest([]) != outbox_digest(a)


# ----------------------------------------------------------------------
# telemetry: recovery is visible, never digest-visible
# ----------------------------------------------------------------------

class TestRecoveryObservability:
    def test_recovered_run_keeps_metrics_digest(self):
        cls = SCENARIOS["shard-scaling"]
        _, _, clean = run_sharded(cls(42, "tiny"), 2, backend="inline",
                                  obs=True)
        config = _fault_config(Fault("kill", 2, 1))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        merged = stats["obs"]
        assert merged.metrics_digest() == clean["obs"].metrics_digest()

    def test_restart_lands_in_flight_and_spans(self):
        cls = SCENARIOS["shard-scaling"]
        config = _fault_config(Fault("kill", 2, 1))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        merged = stats["obs"]
        assert merged.recovery is not None
        assert merged.recovery["worker_restarts"] == 1
        supervisor_entries = [r for r in merged.flight_records
                              if r.get("shard") == 2]
        kinds = {r["kind"] for r in supervisor_entries}
        assert {"fault", "restart", "replay"} <= kinds
        names = {r["name"] for r in merged.span_records}
        assert {"shard.restart", "shard.replay"} <= names

    def test_recovery_gauges_in_merged_registry(self):
        cls = SCENARIOS["shard-scaling"]
        config = _fault_config(Fault("kill", 2, 0))
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp",
                                  obs=True, recovery=config)
        samples = {rec["name"]: rec
                   for rec in stats["obs"].registry.collect()
                   if rec["name"].startswith("repro_shard_")}
        assert "repro_shard_worker_restarts" in samples
        assert "repro_shard_recovery_replay_epochs" in samples
        assert "repro_shard_recovery_degraded" in samples


# ----------------------------------------------------------------------
# chaos campaigns
# ----------------------------------------------------------------------

class TestWorkerFaultCampaigns:
    @pytest.mark.parametrize("name", ["worker-kill", "worker-stall",
                                      "worker-kill-during-handoff",
                                      "worker-budget-exhausted"])
    def test_campaign_passes(self, name):
        result = run_campaign(name, seed=42)
        assert result.ok, result.summary()
        assert result.recovery is not None
        assert result.counts["run_digest"] \
            == result.counts["run_digest_single"]

    def test_restarts_asserted_with_digest_unchanged(self):
        result = run_campaign("worker-kill", seed=42)
        assert result.recovery["worker_restarts"] > 0
        assert result.counts["run_digest"] \
            == result.counts["run_digest_single"]
        payload = result.to_dict()
        assert payload["recovery"]["worker_restarts"] > 0

    def test_campaign_digest_reproducible(self):
        a = run_campaign("worker-kill", seed=11, observability=False)
        b = run_campaign("worker-kill", seed=11, observability=False)
        assert a.digest == b.digest
