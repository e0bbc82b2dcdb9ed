"""The kernel run contract: the inline loop ≡ the reference loop.

Four layers of proof:

* **lockstep state machine** (hypothesis) — a :class:`Simulator` and a
  :class:`~tests.kernel_oracle.ReferenceSimulator` receive the same
  random schedule / cancel / same-instant injection / ``stop()`` /
  raising-callback / ``run(until=…)`` / ``run(max_events=…)`` steps,
  with deliberately colliding timestamps, and must agree on the fire
  log, the clock, the counters, the agenda tallies, the peak depth and
  the pending agenda after every step, and each must account for
  every entry it was given;
* **digest matrix** — every scenario reproduces its single-shard
  digest at K ∈ {1, 2, 4} shards;
* **same-instant semantics** — same-instant insertion (including
  URGENT), ``stop()``, ``max_events`` and a raising callback amid
  events sharing one timestamp leave the agenda exactly as the
  reference loop would;
* **agenda inspection and stats** — ``pending_events``, ``agenda()``,
  ``Simulator.agenda_stats()`` and the obs gauges that mirror it.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.perf.harness import run_scenario
from repro.perf.scenarios import SCENARIOS
from repro.substrates.sim.events import LAZY, NORMAL, URGENT
from repro.substrates.sim.kernel import Simulator

from .hypothesis_tiers import STATE_MACHINE_SETTINGS
from .kernel_oracle import simulator

_PRIORITIES = st.sampled_from([URGENT, NORMAL, LAZY])


class _Boom(Exception):
    """Raised by test callbacks; never raised by the kernel itself."""


# ----------------------------------------------------------------------
# lockstep state machine: the inline loop vs. the reference loop
# ----------------------------------------------------------------------

class KernelLockstep(RuleBasedStateMachine):
    """Two simulators, one per run loop, driven by identical steps:
    ``sims[True]`` runs the inline loop, ``sims[False]`` is the
    reference oracle.

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
        self.handles = []      # (inline event, reference event) pairs
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
            inline, reference = self.handles[index % len(self.handles)]
            assert inline.cancel() == reference.cancel()

    @rule(delta=st.integers(0, 8))
    def run_until(self, delta):
        self._run(until=self.sims[True].now + 0.25 * delta)

    @rule(k=st.integers(0, 4), delta=st.none() | st.integers(0, 8))
    def run_max_events(self, k, delta):
        until = None if delta is None else self.sims[True].now + 0.25 * delta
        self._run(until=until, max_events=k)

    @invariant()
    def loops_agree(self):
        inline, reference = self.sims[True], self.sims[False]
        assert self.logs[True] == self.logs[False]
        assert inline.now == reference.now
        assert inline.events_executed == reference.events_executed
        assert inline.pending_events == reference.pending_events
        assert inline.peak_agenda_depth == reference.peak_agenda_depth
        assert [e.name for e in inline.agenda()] == \
            [e.name for e in reference.agenda()]
        tallies = ("inserts", "pops", "purges", "depth", "peak_depth")
        inline_stats = inline.agenda_stats()
        reference_stats = reference.agenda_stats()
        assert [inline_stats[k] for k in tallies] == \
            [reference_stats[k] for k in tallies]

    @invariant()
    def every_entry_leaves_once(self):
        for sim in self.sims.values():
            stats = sim.agenda_stats()
            assert stats["inserts"] == (stats["pops"] + stats["purges"]
                                        + stats["depth"])


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
# same-instant semantics
# ----------------------------------------------------------------------

class TestBatchedDelivery:
    def test_same_instant_insertion_during_batch(self):
        fired = []
        sim = Simulator(seed=3)

        def first():
            fired.append("first")
            # Scheduled at the *current* instant: must fire at this
            # instant, after the entries already pending at it.
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
        """Regression: after ``stop()`` a cancelled entry behind the
        stopping event stays counted until the next run's first peek,
        so later pushes see the reference loop's depth (an earlier
        loop purged it at once, and ``peak_agenda_depth`` diverged)."""
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
        """Regression: a callback that raises leaves the not-yet-fired
        events of its instant pending, so a second ``run()`` fires them
        (an earlier loop dropped them)."""
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
# agenda inspection and stats
# ----------------------------------------------------------------------

class TestAgendaInspection:
    def test_dead_entries_count_in_depth_not_pending(self):
        sim = Simulator(seed=2)
        evs = [sim.call_at(float(i), lambda: None) for i in range(9, -1, -1)]
        for ev in evs[1::2]:
            ev.cancel()                     # times 8, 6, 4, 2, 0
        assert sim.pending_events == 5
        assert sim.agenda_stats()["depth"] == 10  # dead entries still held
        assert [e.time for e in sim.agenda()] == [
            1.0, 3.0, 5.0, 7.0, 9.0]


def _four_at_one_two_at_two(sim):
    """Four events at t=1, the second cancelled, then two at t=2."""
    for tag in "abcd":
        ev = sim.call_at(1.0, lambda: None, name=tag)
        if tag == "b":
            ev.cancel()
    for tag in "ef":
        sim.call_at(2.0, lambda: None, name=tag)


class TestAgendaTallies:
    @pytest.mark.parametrize("fast", [True, False])
    def test_every_entry_is_popped_or_purged_once(self, fast):
        sim = simulator(fast, seed=2)
        _four_at_one_two_at_two(sim)
        sim.run()
        stats = sim.agenda_stats()
        assert (stats["inserts"], stats["pops"], stats["purges"],
                stats["depth"], stats["peak_depth"]) == (6, 5, 1, 0, 6)

    @pytest.mark.parametrize("split", [False, True])
    def test_max_batch_counts_events_fired_at_one_time(self, split):
        """The cancelled entry at t=1 fires nothing, so it is not
        counted, and a run paused between two fires at t=1 counts
        that time's fires together."""
        sim = Simulator(seed=2)
        _four_at_one_two_at_two(sim)
        if split:
            sim.run(max_events=2)
            assert sim.now == 1.0
        sim.run()
        assert sim.events_executed == 5
        assert sim.agenda_stats()["max_batch"] == 3


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
        # the metrics digest (the tallies of a K-shard run differ from
        # the single simulator's).
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
