"""Unit tests for the discrete-event kernel."""

import pytest

from repro.substrates.sim import SchedulingError, Simulator

from .kernel_oracle import simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_call_in_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.call_in(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_call_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(3.5, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.call_in(-1.0, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.call_in(10.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(5.0)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_in(3.0, order.append, 3)
        sim.call_in(1.0, order.append, 1)
        sim.call_in(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.call_in(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.call_in(1.0, order.append, "normal")
        sim.call_in(1.0, order.append, "urgent", priority=-10)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.call_in(100.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_run_until_resumable(self):
        sim = Simulator()
        seen = []
        sim.call_in(100.0, seen.append, "late")
        sim.run(until=10.0)
        assert seen == []
        sim.run()
        assert seen == ["late"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        ev = sim.call_in(1.0, seen.append, "x")
        assert ev.cancel()
        sim.run()
        assert seen == []

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        ev = sim.call_in(1.0, lambda: None)
        sim.run()
        assert not ev.cancel()

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: (seen.append(1), sim.stop()))
        sim.call_in(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_in(float(i + 1), seen.append, i)
        sim.run(max_events=2)
        assert seen == [0, 1]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_in(1.0, seen.append, "inner")

        sim.call_in(1.0, outer)
        sim.run()
        assert seen == ["inner"]
        assert sim.now == 2.0


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_stop_prevents_future_firings(self):
        sim = Simulator()
        count = [0]
        task = sim.every(1.0, lambda: count.__setitem__(0, count[0] + 1))
        sim.call_in(3.5, task.stop)
        sim.run(until=10.0)
        assert count[0] == 3

    def test_start_parameter(self):
        sim = Simulator()
        times = []
        sim.every(5.0, lambda: times.append(sim.now), start=1.0)
        sim.run(until=12.0)
        assert times == [1.0, 6.0, 11.0]

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.every(0.0, lambda: None)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = Simulator(seed=7).rng.stream("s")
        b = Simulator(seed=7).rng.stream("s")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_streams_independent(self):
        sim = Simulator(seed=7)
        s1 = [sim.rng.stream("one").random() for _ in range(5)]
        s2 = [sim.rng.stream("two").random() for _ in range(5)]
        assert s1 != s2

    def test_stream_lookup_is_cached(self):
        sim = Simulator(seed=7)
        assert sim.rng.stream("x") is sim.rng.stream("x")

    def test_np_stream(self):
        sim = Simulator(seed=3)
        arr1 = sim.rng.np_stream("v").normal(size=4)
        sim2 = Simulator(seed=3)
        arr2 = sim2.rng.np_stream("v").normal(size=4)
        assert (arr1 == arr2).all()

    def test_fork_independence(self):
        sim = Simulator(seed=3)
        child = sim.rng.fork("child")
        a = sim.rng.stream("s").random()
        b = child.stream("s").random()
        assert a != b


class TestTraceBus:
    def test_prefix_subscription(self):
        sim = Simulator()
        got = []
        sim.trace.subscribe("ship", got.append)
        sim.trace.emit("ship.role.change", role="fusion")
        sim.trace.emit("other.topic")
        assert len(got) == 1
        assert got[0].topic == "ship.role.change"
        assert got[0].fields == {"role": "fusion"}

    def test_exact_topic_subscription(self):
        sim = Simulator()
        got = []
        sim.trace.subscribe("a.b", got.append)
        sim.trace.emit("a.b")
        sim.trace.emit("a.bc")   # not a dotted descendant of a.b
        assert [r.topic for r in got] == ["a.b"]

    def test_unsubscribe(self):
        sim = Simulator()
        got = []
        sim.trace.subscribe("t", got.append)
        sim.trace.unsubscribe("t", got.append)
        sim.trace.emit("t")
        assert got == []


class TestNonFiniteTimes:
    """Regression: a NaN or infinite time used to be accepted, and the
    two run loops then disagreed: given ``call_in(inf, f)`` and
    ``call_in(1.0, g)``, one fired both and ended at ``now == inf``,
    the other took ``peek()``'s inf for "nothing pending" and fired
    only ``g``; a NaN time fired first, with the clock reading NaN."""

    @pytest.mark.parametrize("value", [float("inf"), float("nan"),
                                       float("-inf")],
                             ids=["inf", "nan", "-inf"])
    @pytest.mark.parametrize("entry", ["schedule_at", "call_at",
                                       "schedule", "call_in", "every"])
    def test_rejected_by_every_entry_point(self, entry, value):
        sim = Simulator()
        calls = {
            "schedule_at": lambda: sim.schedule_at(value),
            "call_at": lambda: sim.call_at(value, lambda: None),
            "schedule": lambda: sim.schedule(value),
            "call_in": lambda: sim.call_in(value, lambda: None),
            "every": lambda: sim.every(value, lambda: None),
        }
        with pytest.raises(SchedulingError):
            calls[entry]()
        assert sim.agenda_stats()["inserts"] == 0

    def test_delay_that_overflows_the_clock_rejected(self):
        sim = Simulator()
        sim.run(until=1e308)
        with pytest.raises(SchedulingError):
            sim.call_in(1e308, lambda: None)
        assert sim.pending_events == 0


class TestRunUntilPast:
    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.call_in(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)
        assert sim.now == 10.0   # clock untouched


class TestNonFiniteHorizon:
    """Regression: ``run(until=inf)`` left the clock at inf, so the
    next ``call_in(1.0, g)`` raised "delay outside [0, inf): 1.0"; and
    ``run(until=nan)`` silently ran the agenda to exhaustion."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_infinite_horizon_runs_to_exhaustion(self, fast):
        sim = simulator(fast, seed=1)
        fired = []
        sim.call_in(1.0, fired.append, "f")
        assert sim.run(until=float("inf")) == 1.0
        sim.call_in(1.0, fired.append, "g")
        assert sim.run(until=float("inf")) == 2.0
        assert fired == ["f", "g"]
        # An empty agenda leaves the clock where it is.
        assert sim.run(until=float("inf")) == 2.0

    @pytest.mark.parametrize("fast", [True, False])
    def test_infinite_horizon_with_max_events_matches_none(self, fast):
        runs = {}
        for until in (None, float("inf")):
            sim = simulator(fast, seed=1)
            sim.every(0.5, lambda: None)
            sim.run(until=until, max_events=3)
            runs[until] = (sim.now, sim.events_executed, sim.pending_events)
        assert runs[None] == runs[float("inf")] == (1.5, 3, 1)

    @pytest.mark.parametrize("fast", [True, False])
    def test_nan_horizon_rejected(self, fast):
        sim = simulator(fast, seed=1)
        sim.call_in(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.run(until=float("nan"))
        assert (sim.now, sim.events_executed, sim.pending_events) \
            == (0.0, 0, 1)


class TestHorizonPauseResume:
    """run(until=...) paused at an epoch boundary and resumed must be
    indistinguishable from one monolithic run — zero extra RNG draws,
    zero counter drift.  This is the kernel contract the shard
    executor's epoch barriers rely on.  ``fast`` picks the batched
    :class:`Simulator` or the reference-loop oracle."""

    @staticmethod
    def _build(sim, log):
        def tick(tag):
            log.append((round(sim.now, 9), tag))
            sim.call_in(0.03, lambda: log.append((round(sim.now, 9),
                                                  tag + ".child")))
        sim.every(0.05, tick, "a", jitter=0.02, stream="t.a")
        sim.every(0.07, tick, "b", jitter=0.01, stream="t.b")
        sim.every(0.11, tick, "c")

    @staticmethod
    def _state(sim):
        return (sim.events_executed, sim.now, sim.peak_agenda_depth,
                sim.rng.stream("t.a").getstate(),
                sim.rng.stream("t.b").getstate())

    @pytest.mark.parametrize("fast", [True, False])
    def test_segmented_equals_monolithic(self, fast):
        mono_sim = simulator(fast, seed=7)
        mono_log = []
        self._build(mono_sim, mono_log)
        mono_sim.run(until=2.0)

        seg_sim = simulator(fast, seed=7)
        seg_log = []
        self._build(seg_sim, seg_log)
        t = 0.0
        # Awkward epoch lengths, some landing exactly on event times.
        for step in (0.05, 0.13, 0.02, 0.1) * 10:
            t = min(2.0, t + step)
            seg_sim.run(until=t)
            if t >= 2.0:
                break

        assert seg_log == mono_log
        assert self._state(seg_sim) == self._state(mono_sim)

    @pytest.mark.parametrize("fast", [True, False])
    def test_injection_between_segments(self, fast):
        """External events injected at a barrier (time >= now, beyond
        the paused horizon) fire exactly like natively scheduled ones."""
        native = simulator(fast, seed=3)
        nlog = []
        native.call_at(0.5, nlog.append, "x")
        native.call_at(1.0, nlog.append, "boundary")
        native.call_at(1.25, nlog.append, "y")
        native.run(until=2.0)

        seg = simulator(fast, seed=3)
        slog = []
        seg.call_at(0.5, slog.append, "x")
        seg.run(until=1.0)
        assert seg.now == 1.0
        # Injection at exactly the horizon and strictly beyond it.
        seg.call_at(1.0, slog.append, "boundary")
        seg.call_at(1.25, slog.append, "y")
        seg.run(until=2.0)

        assert slog == nlog
        assert seg.now == native.now == 2.0
        assert seg.events_executed == native.events_executed

    @pytest.mark.parametrize("fast", [True, False])
    def test_max_events_break_does_not_clamp_past_pending(self, fast):
        """Regression: a max_events break used to clamp the clock to
        ``until`` with events still pending before it, so time ran
        backwards on resume and injection raised SchedulingError."""
        sim = simulator(fast, seed=1)
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, fired.append, t)
        sim.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert sim.now == 1.0  # not clamped to 10.0
        # Injection between the paused clock and the pending work
        # must be legal and fire in order.
        sim.call_at(1.5, fired.append, 1.5)
        sim.run(until=10.0)
        assert fired == [1.0, 1.5, 2.0, 3.0]
        assert sim.now == 10.0

    @pytest.mark.parametrize("fast", [True, False])
    def test_zero_length_epoch_is_a_noop(self, fast):
        sim = simulator(fast, seed=1)
        sim.call_at(1.0, lambda: None)
        sim.run(until=0.5)
        before = (sim.now, sim.events_executed, sim.pending_events)
        sim.run(until=0.5)
        assert (sim.now, sim.events_executed,
                sim.pending_events) == before

    def test_scenario_counters_survive_slicing(self):
        """Slicing a macro-scenario's horizon into awkward epochs
        reproduces the monolithic counters bit-for-bit."""
        from repro.perf.scenarios import SCENARIOS
        from repro.shard import run_single
        scenario = SCENARIOS["shuttle-storm"]
        mono, _work = run_single(scenario(42, "tiny"))

        orig_run = Simulator.run

        def sliced_run(self, until=None, max_events=None):
            if until is None or max_events is not None:
                return orig_run(self, until=until, max_events=max_events)
            t = self.now
            while t < until:
                t = min(until, t + 0.037)
                orig_run(self, until=t)
            return self.now

        Simulator.run = sliced_run
        try:
            sliced, _work = run_single(scenario(42, "tiny"))
        finally:
            Simulator.run = orig_run
        assert sliced == mono
