"""The kernel run contract: batched loop ≡ reference loop.

Four layers of proof:

* **lockstep state machine** (hypothesis) — a :class:`Simulator` and a
  :class:`~tests.kernel_oracle.ReferenceSimulator` receive the same
  random schedule / cancel / same-instant injection / ``stop()`` /
  raising-callback / ``run(until=…)`` / ``run(max_events=…)`` steps,
  with deliberately colliding timestamps, and must agree on the fire
  log, the clock, the counters, the peak depth and the pending agenda
  after every step;
* **digest matrix** — every scenario reproduces its single-shard
  digest at K ∈ {1, 2, 4} shards;
* **batched-loop semantics** — same-instant insertion (including
  URGENT), ``stop()``, ``max_events`` and a raising callback mid-batch
  leave the agenda exactly as the reference loop would;
* **agenda stats export** — obs gauges and
  ``Simulator.agenda_stats()``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.perf.harness import run_scenario
from repro.perf.scenarios import SCENARIOS
from repro.substrates.sim.agenda import HeapAgenda
from repro.substrates.sim.events import LAZY, NORMAL, URGENT, Event
from repro.substrates.sim.kernel import Simulator

from .hypothesis_tiers import STATE_MACHINE_SETTINGS
from .kernel_oracle import simulator

_PRIORITIES = st.sampled_from([URGENT, NORMAL, LAZY])


class _Boom(Exception):
    """Raised by test callbacks; never raised by the kernel itself."""


class TestHeapAgenda:
    def test_pending_count_skips_dead_without_sorting(self):
        agenda = HeapAgenda()
        evs = [Event(float(i)) for i in range(10)]
        for ev in evs:
            agenda.push(ev)
        for ev in evs[::2]:
            ev.cancel()
        assert agenda.pending_count() == 5
        assert len(agenda) == 10  # dead entries still held
        assert [e.time for e in agenda.ordered()] == [
            1.0, 3.0, 5.0, 7.0, 9.0]


# ----------------------------------------------------------------------
# lockstep state machine: batched loop vs. reference loop
# ----------------------------------------------------------------------

class KernelLockstep(RuleBasedStateMachine):
    """Two simulators, one per run loop, driven by identical steps:
    ``sims[True]`` batches, ``sims[False]`` is the reference oracle.

    Times are quarter-second multiples of ``now``, so they are exact
    floats and collide often; mixed priorities make the ``(priority,
    seq)`` tie-break matter.  Both simulators draw their event ``seq``
    values from one process-wide counter, but each draws them in the
    same relative order, so the tie-break agrees.
    """

    def __init__(self):
        super().__init__()
        self.sims = {fast: simulator(fast, seed=5)
                     for fast in (True, False)}
        self.logs = {True: [], False: []}
        self.handles = []      # (batched event, reference event) pairs
        self.count = 0

    def _add(self, kind, offset, priority, child_priority=NORMAL):
        name = f"e{self.count}"
        self.count += 1
        pair = []
        for fast, sim in self.sims.items():
            pair.append(sim.call_at(sim.now + 0.25 * offset,
                                    self._callback(fast, kind, name,
                                                   child_priority),
                                    priority=priority, name=name))
        self.handles.append(tuple(pair))

    def _callback(self, fast, kind, name, child_priority):
        sim, log = self.sims[fast], self.logs[fast]

        def fire():
            log.append((sim.now, name))
            if kind == "inject":
                sim.call_at(sim.now, log.append, (sim.now, name + ".i"),
                            priority=child_priority, name=name + ".i")
            elif kind == "stop":
                sim.stop()
            elif kind == "raise":
                raise _Boom(name)
        return fire

    def _run(self, **kwargs):
        outcomes = []
        for sim in self.sims.values():
            try:
                sim.run(**kwargs)
            except _Boom as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]

    @rule(offset=st.integers(0, 6), priority=_PRIORITIES)
    def schedule(self, offset, priority):
        self._add("plain", offset, priority)

    @rule(offset=st.integers(0, 6), priority=_PRIORITIES,
          child_priority=_PRIORITIES)
    def schedule_same_instant_injector(self, offset, priority,
                                       child_priority):
        self._add("inject", offset, priority, child_priority)

    @rule(offset=st.integers(0, 6), priority=_PRIORITIES)
    def schedule_stopper(self, offset, priority):
        self._add("stop", offset, priority)

    @rule(offset=st.integers(0, 6), priority=_PRIORITIES)
    def schedule_raiser(self, offset, priority):
        self._add("raise", offset, priority)

    @rule(index=st.integers(0, 1000))
    def cancel(self, index):
        if self.handles:
            batched, reference = self.handles[index % len(self.handles)]
            assert batched.cancel() == reference.cancel()

    @rule(delta=st.integers(0, 8))
    def run_until(self, delta):
        self._run(until=self.sims[True].now + 0.25 * delta)

    @rule(k=st.integers(0, 4), delta=st.none() | st.integers(0, 8))
    def run_max_events(self, k, delta):
        until = None if delta is None else self.sims[True].now + 0.25 * delta
        self._run(until=until, max_events=k)

    @invariant()
    def loops_agree(self):
        batched, reference = self.sims[True], self.sims[False]
        assert self.logs[True] == self.logs[False]
        assert batched.now == reference.now
        assert batched.events_executed == reference.events_executed
        assert batched.pending_events == reference.pending_events
        assert batched.peak_agenda_depth == reference.peak_agenda_depth
        assert [e.name for e in batched.agenda()] == \
            [e.name for e in reference.agenda()]


TestKernelLockstep = KernelLockstep.TestCase
TestKernelLockstep.settings = settings(STATE_MACHINE_SETTINGS,
                                       stateful_step_count=30)


# ----------------------------------------------------------------------
# digest matrix: every scenario × K shards
# ----------------------------------------------------------------------

class TestDigestMatrix:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_new_switches_digest_stable_across_shards(self, scenario):
        reference = run_scenario(scenario, seed=7, scale="tiny")
        ks = (1, 2, 4) if SCENARIOS[scenario].shardable else (1,)
        for k in ks:
            got = run_scenario(scenario, seed=7, scale="tiny",
                               workers=k, backend="inline")
            assert got.digest == reference.digest, (
                f"{scenario} drifts at K={k}")


# ----------------------------------------------------------------------
# batched-loop semantics
# ----------------------------------------------------------------------

class TestBatchedDelivery:
    def test_same_instant_insertion_during_batch(self):
        fired = []
        sim = Simulator(seed=3)

        def first():
            fired.append("first")
            # Scheduled at the *current* batch instant: must fire
            # within this batch, after the already-drained entries.
            sim.call_at(sim.now, lambda: fired.append("injected"))

        sim.call_at(1.0, first)
        sim.call_at(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "injected"]

    def test_urgent_same_instant_insertion_fires_before_lazy(self):
        fired = []
        sim = Simulator(seed=3)

        def first():
            fired.append("first")
            sim.call_at(sim.now, lambda: fired.append("urgent"),
                        priority=URGENT)

        sim.call_at(1.0, first)
        sim.call_at(1.0, lambda: fired.append("lazy"), priority=LAZY)
        sim.run()
        # The URGENT injection lands before the pending LAZY entry.
        assert fired == ["first", "urgent", "lazy"]

    def test_stop_mid_batch_preserves_suffix(self):
        fired = []
        sim = Simulator(seed=3)
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(1.0, sim.stop)
        sim.call_at(1.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["a", "c"]

    def test_max_events_mid_batch_resumes_exactly(self):
        fired = []
        sim = Simulator(seed=3)
        for tag in "abcd":
            sim.call_at(1.0, fired.append, tag)
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.now == 1.0
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("fast", [True, False])
    def test_stop_keeps_dead_suffix_entries_counted(self, fast):
        """Regression: after ``stop()`` the batched loop used to purge a
        cancelled entry behind the stopping event, which the reference
        loop keeps until its next peek, so later pushes saw a depth one
        lower and ``peak_agenda_depth`` diverged."""
        sim = simulator(fast, seed=3)
        sim.call_at(1.0, lambda: None)
        sim.call_at(1.0, sim.stop)
        sim.call_at(1.0, lambda: None).cancel()
        sim.call_at(1.0, lambda: None)
        sim.run()
        for t in range(5):
            sim.call_at(3.0 + t, lambda: None)
        assert sim.pending_events == 6
        assert sim.peak_agenda_depth == 7   # 5 new + live + dead entry

    @pytest.mark.parametrize("fast", [True, False])
    def test_raising_callback_keeps_unfired_suffix(self, fast):
        """Regression: the batched loop used to drop the not-yet-fired
        rest of a batch when a callback raised, so a second ``run()``
        never fired it."""
        fired = []

        def boom():
            fired.append("b")
            raise _Boom("b")

        sim = simulator(fast, seed=3)
        sim.call_at(1.0, fired.append, "a")
        sim.call_at(1.0, boom)
        sim.call_at(1.0, fired.append, "c")
        sim.call_at(2.0, fired.append, "d")
        with pytest.raises(_Boom):
            sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 1.0
        assert sim.pending_events == 2
        assert [e.time for e in sim.agenda()] == [1.0, 2.0]
        sim.run()
        assert fired == ["a", "b", "c", "d"]
        assert sim.events_executed == 3    # the raising call not counted


# ----------------------------------------------------------------------
# agenda stats export
# ----------------------------------------------------------------------

class TestAgendaStatsExport:
    def test_obs_gauges_mirrored_and_digest_excluded(self):
        sim = Simulator(seed=2)
        sim.obs.enable()
        sim.call_in(0.1, lambda: None)
        sim.run()
        names = {rec["name"] for rec in sim.obs.registry.collect()}
        assert "repro_kernel_agenda_ops" in names
        assert "repro_kernel_agenda_depth" in names
        # Digest exclusion: mutating the kernel gauges must not move
        # the metrics digest (they vary between the digest-equivalent
        # run loops).
        before = sim.obs.metrics_digest()
        sim.obs.kernel_agenda_ops.set(10**9, op="insert")
        assert sim.obs.metrics_digest() == before

    def test_simulator_agenda_stats_shape(self):
        sim = Simulator(seed=2)
        sim.call_in(0.1, lambda: None)
        sim.run()
        stats = sim.agenda_stats()
        assert set(stats) == {"inserts", "pops", "purges", "max_batch",
                              "depth", "peak_depth"}
        assert stats["inserts"] == 1
        assert stats["pops"] == 1
        assert stats["depth"] == 0
        assert stats["peak_depth"] == 1
