"""repro.shard: deterministic sharded execution.

The contract under test is brutal on purpose: partitioning a scenario
over K workers must produce **byte-identical** counters (and therefore
the same run digest) as the single-shard run — for every shardable
scenario, every K, and both backends.  Everything else (balance,
lookahead, fallback, stats) is in service of that invariant.
"""

import pickle
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perf.digest import run_digest
from repro.perf.harness import (BENCH_VERSION, BenchResult, compare,
                                load_results, run_scenario)
from repro.perf.scenarios import (SCENARIOS, JetFlood, ShardScaling,
                                  ShuttleStorm)
from repro.shard import (Handoff, ShardFabric, ShardWorkload,
                         effective_k, partition, run_sharded, run_single,
                         shard_fabric_factory)
from repro.substrates.phys.topology import grid_topology, ring_topology

from .hypothesis_tiers import QUICK_SETTINGS, SLOW_SETTINGS

#: The scenarios that run partitioned, by name.
SHARDABLE = sorted(name for name, cls in SCENARIOS.items() if cls.shardable)
#: Every grid shape a scenario uses at any scale.
SCENARIO_GRIDS = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4),
                  (4, 5), (5, 5), (6, 6)]


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------

class TestEffectiveK:
    def test_divisible_keeps_k(self):
        assert effective_k(20, 4) == 4
        assert effective_k(9, 3) == 3

    def test_indivisible_clamps_to_half(self):
        assert effective_k(9, 8) == 4
        assert effective_k(4, 3) == 2

    def test_degenerate(self):
        assert effective_k(1, 4) == 1
        assert effective_k(2, 8) == 1
        assert effective_k(5, 1) == 1


class TestPartition:
    @pytest.mark.parametrize("rows,cols", SCENARIO_GRIDS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_balance_bound(self, rows, cols, k):
        plan = partition(grid_topology(rows, cols), k, seed=42)
        assert plan.balance <= 1.5, (
            f"{rows}x{cols} k={k}: sizes "
            f"{[len(s) for s in plan.shards]}")

    @pytest.mark.parametrize("rows,cols", SCENARIO_GRIDS)
    def test_covers_every_node_exactly_once(self, rows, cols):
        topo = grid_topology(rows, cols)
        plan = partition(topo, 4, seed=7)
        seen = [node for shard in plan.shards for node in shard]
        assert sorted(seen, key=repr) == sorted(topo.nodes, key=repr)
        assert len(seen) == len(set(seen))
        for node in topo.nodes:
            assert node in plan.shards[plan.assignment[node]]

    def test_deterministic(self):
        topo = grid_topology(4, 5)
        a = partition(topo, 4, seed=42)
        b = partition(grid_topology(4, 5), 4, seed=42)
        assert a.assignment == b.assignment
        assert a.shards == b.shards
        assert a.cut_links == b.cut_links
        assert a.lookahead == b.lookahead

    def test_seed_rotates_the_cut(self):
        topo = grid_topology(4, 4)
        plans = {tuple(sorted(partition(topo, 4, seed=s).assignment.items(),
                             key=repr))
                 for s in range(8)}
        assert len(plans) > 1

    def test_k1_identity(self):
        topo = grid_topology(3, 3)
        plan = partition(topo, 1, seed=42)
        assert plan.k == 1
        assert plan.shards == [tuple(sorted(topo.nodes, key=repr))]
        assert plan.cut_links == []
        assert plan.edge_cut == 0
        assert plan.lookahead == float("inf")

    def test_lookahead_is_min_cut_latency(self):
        plan = partition(grid_topology(2, 4, latency=0.07), 2, seed=0)
        assert plan.edge_cut >= 1
        assert plan.lookahead == pytest.approx(0.07)

    def test_ring_partitions_cleanly(self):
        plan = partition(ring_topology(12), 4, seed=3)
        assert plan.k == 4
        assert plan.balance == 1.0

    def test_plan_pickles(self):
        plan = partition(grid_topology(3, 3), 2, seed=42)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.assignment == plan.assignment
        assert clone.lookahead == plan.lookahead


# ----------------------------------------------------------------------
# digest invariance: the core guarantee
# ----------------------------------------------------------------------

class TestDigestInvariance:
    """K-shard == 1-shard, byte for byte, for every scenario."""

    @pytest.mark.parametrize("name", SHARDABLE)
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_shardable_matrix_tiny(self, name, k, backend):
        cls = SCENARIOS[name]
        base_counters, base_work = run_single(cls(42, "tiny"))
        counters, work, stats = run_sharded(cls(42, "tiny"), k,
                                            backend=backend)
        assert counters == base_counters
        assert work == base_work
        if k == 1:
            assert stats["mode"] == "single"
        else:
            assert stats["mode"] == "sharded"
            assert stats["k"] > 1
            assert stats["barriers"] > 0

    @pytest.mark.parametrize("name", sorted(set(SCENARIOS) - set(SHARDABLE)))
    def test_non_shardable_falls_back(self, name):
        single = run_scenario(name, seed=42, scale="tiny", repeats=1)
        sharded = run_scenario(name, seed=42, scale="tiny", repeats=1,
                               workers=4, backend="mp")
        assert sharded.digest == single.digest
        assert sharded.workers == 1
        assert sharded.shard_stats is None

    @pytest.mark.parametrize("k", [2, 4])
    def test_harness_worker_runs_match_single_digest(self, k):
        single = run_scenario("shard-scaling", seed=42, scale="tiny",
                              repeats=1)
        sharded = run_scenario("shard-scaling", seed=42, scale="tiny",
                               repeats=1, workers=k, backend="inline")
        assert sharded.digest == single.digest
        assert sharded.workers == k
        assert sharded.shard_stats["mode"] == "sharded"

    def test_different_seeds_diverge(self):
        # The invariance is not vacuous: digests do react to inputs.
        # (shuttle-storm draws destinations from seeded streams;
        # shard-scaling's traffic is deliberately seed-independent.)
        a, _ = run_single(SCENARIOS["shuttle-storm"](1, "tiny"))
        b, _ = run_single(SCENARIOS["shuttle-storm"](2, "tiny"))
        assert a != b


class TestCommittedBaselineSharded:
    """workers=2, mp backend, short scale vs the committed digests —
    the exact check the CI parallel-smoke job runs."""

    @pytest.mark.parametrize("name", SHARDABLE)
    def test_mp_short_matches_committed_digest(self, name, repo_baseline):
        entry = repo_baseline[name]
        result = run_scenario(name, seed=entry["seed"],
                              scale=entry["scale"], repeats=1,
                              workers=2, backend="mp")
        assert result.digest == entry["digest"]

    @pytest.fixture(scope="class")
    def repo_baseline(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        return {entry["scenario"]: entry
                for entry in load_results(path)}


# ----------------------------------------------------------------------
# executor mechanics
# ----------------------------------------------------------------------

class ZeroLatencyWorkload(ShardWorkload):
    """A topology whose cut links have zero latency: no lookahead, so
    the executor must refuse to shard and fall back."""

    def __init__(self, seed=42, scale="tiny"):
        super().__init__(seed, scale)

    def topology(self):
        return grid_topology(2, 2, latency=0.0)

    def horizon(self):
        return 1.0

    def build(self, owned=None):
        from repro.substrates.sim import Simulator
        sim = Simulator(seed=self.seed)
        fabric = ShardFabric(sim, self.topology(), owned=owned)
        return {"sim": sim, "fabric": fabric}

    def setup(self, ctx, owned):
        pass

    def collect(self, ctx, owned):
        return {"events_executed": ctx["sim"].events_executed}

    def finalize(self, totals):
        return dict(totals), {"events": totals["events_executed"],
                              "shuttles": 0}


class SleepyWorkload(SCENARIOS["shard-scaling"]):
    """The shard owning node ``(0, 0)`` sleeps 0.4 s of host time
    mid-run."""

    def setup(self, ctx, owned):
        super().setup(ctx, owned)
        if owned is not None and (0, 0) in owned:
            ctx["sim"].call_at(0.5, time.sleep, 0.4, name="sleep")


class TestExecutor:
    def test_zero_lookahead_falls_back_to_single(self):
        counters, work, stats = run_sharded(ZeroLatencyWorkload(), 2)
        assert stats["mode"] == "single"
        assert stats["reason"] == "zero-lookahead"

    def test_workers_1_is_single(self):
        cls = SCENARIOS["shard-scaling"]
        _, _, stats = run_sharded(cls(42, "tiny"), 1)
        assert stats["mode"] == "single"
        assert stats["reason"] == "k=1"

    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_bad_recovery_rejected_at_the_call(self, backend):
        cls = SCENARIOS["shard-scaling"]
        with pytest.raises(TypeError, match="RecoveryConfig"):
            run_sharded(cls(1, "tiny"), 2, backend=backend, recovery=True)

    def test_unknown_backend_rejected(self):
        cls = SCENARIOS["shard-scaling"]
        with pytest.raises(ValueError, match="unknown shard backend"):
            run_sharded(cls(42, "tiny"), 2, backend="threads")

    def test_stats_shape(self):
        cls = SCENARIOS["shard-scaling"]
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="inline")
        assert stats["backend"] == "inline"
        assert stats["k"] == 2
        assert stats["requested_k"] == 2
        assert sum(stats["shard_sizes"]) == 4
        assert stats["handoffs"] > 0
        assert stats["imbalance"] >= 1.0
        assert stats["lookahead"] == pytest.approx(0.05)

    def test_mp_reports_barrier_stall(self):
        cls = SCENARIOS["shard-scaling"]
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend="mp")
        assert stats["backend"] == "mp"
        assert stats["barrier_stall_s"] >= 0.0

    def test_inline_worker_cpu_is_process_time(self):
        """Inline books CPU time per shard, as the mp worker does: a
        shard that sleeps 0.4 s does not report 0.4 s of work."""
        _, _, stats = run_sharded(SleepyWorkload(42, "tiny"), 2,
                                  backend="inline")
        assert max(stats["worker_cpu_s"]) < 0.3

    def test_mp_worker_cpu_is_process_time(self):
        _, _, stats = run_sharded(SleepyWorkload(42, "tiny"), 2,
                                  backend="mp")
        assert max(stats["worker_cpu_s"]) < 0.3

    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_worker_cpu_is_the_sum_of_epoch_cpu(self, backend):
        """Both backends book each shard's CPU once, per epoch: the
        epoch timeline sums to ``worker_cpu_s`` up to its rounding."""
        cls = SCENARIOS["shard-scaling"]
        _, _, stats = run_sharded(cls(42, "tiny"), 2, backend=backend,
                                  obs=True)
        records = stats["obs"].epoch_records
        assert len(records) == stats["barriers"]
        for shard, total in enumerate(stats["worker_cpu_s"]):
            summed = sum(record["cpu_s"][shard] for record in records)
            assert summed == pytest.approx(total,
                                           abs=len(records) * 1e-6)


# ----------------------------------------------------------------------
# generated grid scenarios
# ----------------------------------------------------------------------
#
# Module-level subclasses, so a drawn scenario pickles into mp workers;
# each carries its own link latency.

class DrawnStorm(ShuttleStorm):
    __slots__ = ("latency",)


class DrawnFlood(JetFlood):
    __slots__ = ("latency",)


class DrawnScaling(ShardScaling):
    __slots__ = ("latency",)


#: drawn scenario -> the size knob that sets its traffic quota.
QUOTA_KNOBS = {DrawnStorm: "per_source", DrawnFlood: "waves",
               DrawnScaling: "per_node"}


@st.composite
def drawn_grids(draw):
    """A grid scenario with a drawn shape, link latency, quota and
    seed, and a shard count from 2 up to its node count.  Latencies
    that divide the send intervals land arrivals from several shards,
    and epoch ends, on the same instants."""
    cls = draw(st.sampled_from(list(QUOTA_KNOBS)))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 4))
    scenario = cls(draw(st.integers(0, 2 ** 16)), "tiny")
    scenario.p = dict(scenario.p, rows=rows, cols=cols,
                      **{QUOTA_KNOBS[cls]: draw(st.integers(1, 12))})
    scenario.latency = draw(st.sampled_from((0.01, 0.025, 0.05, 0.1)))
    return scenario, draw(st.integers(2, rows * cols))


class TestGeneratedGrids:
    """K shards give :func:`run_single`'s ``(counters, work)`` on drawn
    grid scenarios.  A grid scenario reports only counters that no
    same-time tie can move (see ``_GridScenario``), so the whole result
    is compared."""

    @SLOW_SETTINGS
    @given(drawn=drawn_grids())
    def test_inline_shards_match_single(self, drawn):
        scenario, k = drawn
        counters, work, _ = run_sharded(scenario, k, backend="inline")
        assert (counters, work) == run_single(scenario)

    @QUICK_SETTINGS
    @given(drawn=drawn_grids())
    def test_mp_shards_match_single(self, drawn):
        scenario, k = drawn
        counters, work, _ = run_sharded(scenario, k, backend="mp")
        assert (counters, work) == run_single(scenario)


class TestEpochEnds:
    """Barrier-schedule edges: the epoch protocol's only arithmetic."""

    def test_horizon_not_a_multiple_terminates_at_horizon(self):
        from repro.shard.executor import _epoch_ends
        ends = _epoch_ends(1.0, 0.3)
        assert ends == pytest.approx([0.3, 0.6, 0.9, 1.0])
        assert ends[-1] == 1.0

    def test_exact_multiple_has_no_stub_epoch(self):
        from repro.shard.executor import _epoch_ends
        assert _epoch_ends(1.0, 0.25) == pytest.approx(
            [0.25, 0.5, 0.75, 1.0])

    def test_lookahead_beyond_horizon_is_one_epoch(self):
        from repro.shard.executor import _epoch_ends
        assert _epoch_ends(2.0, 5.0) == [2.0]
        assert _epoch_ends(2.0, float("inf")) == [2.0]

    def test_zero_lookahead_rejected(self):
        from repro.shard.executor import _epoch_ends
        with pytest.raises(ValueError, match="lookahead must be positive"):
            _epoch_ends(1.0, 0.0)
        with pytest.raises(ValueError, match="lookahead must be positive"):
            _epoch_ends(1.0, -0.1)


class _RoutePacket:
    """Module-level so Handoff cargo survives pickling in the tests."""

    def __init__(self, pid):
        self.packet_id = pid


class TestCanonicalRouting:
    """_route's (time, source shard, send order) merge is what keeps
    injection deterministic; it must survive the mp wire format."""

    @staticmethod
    def _plan(assignment):
        class _Plan:
            pass
        plan = _Plan()
        plan.assignment = assignment
        return plan

    @staticmethod
    def _handoff(t, dst, pid):
        return Handoff(t, ("n", 0), dst, _RoutePacket(pid))

    def test_merge_order_is_time_then_shard_then_send_order(self):
        from repro.shard.executor import _route
        plan = self._plan({("n", 1): 0, ("n", 2): 0})
        # Shard 1 sent earlier wall-order, but shard 0's handoff at the
        # same simulated time must come first; within a shard, send
        # order breaks the remaining tie.
        outboxes = [
            [self._handoff(0.5, ("n", 1), 10),
             self._handoff(0.2, ("n", 2), 11)],
            [self._handoff(0.2, ("n", 1), 20),
             self._handoff(0.2, ("n", 2), 21)],
        ]
        batches = _route(plan, outboxes)
        ids = [h.packet.packet_id for h in batches[0]]
        assert ids == [11, 20, 21, 10]

    def test_order_survives_pickle_round_trip(self):
        from repro.shard.executor import _route
        plan = self._plan({("n", 1): 1, ("n", 2): 1})
        outboxes = [[self._handoff(0.1 * i, ("n", 1 + i % 2), i)
                     for i in range(6)],
                    [self._handoff(0.05 + 0.1 * i, ("n", 1 + i % 2), 100 + i)
                     for i in range(6)]]
        direct = _route(plan, outboxes)
        wired = _route(plan, [pickle.loads(pickle.dumps(ob))
                              for ob in outboxes])
        for dest in direct:
            assert [h.packet.packet_id for h in wired[dest]] \
                == [h.packet.packet_id for h in direct[dest]]
            assert [h.time for h in wired[dest]] \
                == [h.time for h in direct[dest]]


class TestShardFabric:
    def test_oracle_mode_owns_everything(self):
        wn_factory = shard_fabric_factory(None)
        assert wn_factory is None  # plain NetworkFabric path

    def test_cross_shard_send_lands_in_outbox(self):
        from repro.substrates.phys.packet import Datagram
        from repro.substrates.sim import Simulator
        topo = grid_topology(1, 2)
        nodes = sorted(topo.nodes, key=repr)
        sim = Simulator(seed=1)
        fabric = ShardFabric(sim, topo, owned=frozenset([nodes[0]]))

        class Host:
            def __init__(self):
                self.got = []

            def receive(self, packet, from_node):
                self.got.append(packet)

        hosts = {node: Host() for node in nodes}
        for node, host in hosts.items():
            fabric.attach(node, host)
        packet = Datagram(nodes[0], nodes[1], payload={"k": "v"})
        assert fabric.send(nodes[0], nodes[1], packet)
        sim.run(until=10.0)
        # Diverted: sender accounting done, but never delivered locally.
        assert fabric.packets_sent == 1
        assert hosts[nodes[1]].got == []
        outbox = fabric.drain_outbox()
        assert len(outbox) == 1
        assert fabric.outbox == []
        handoff = outbox[0]
        assert handoff.to_node == nodes[1]
        assert handoff.time > 0.0

    def test_inject_replays_the_delivery(self):
        from repro.substrates.phys.packet import Datagram
        from repro.substrates.sim import Simulator
        topo = grid_topology(1, 2)
        nodes = sorted(topo.nodes, key=repr)
        # Shard A owns node 0, shard B owns node 1; one packet crosses.
        sim_a = Simulator(seed=1)
        fabric_a = ShardFabric(sim_a, grid_topology(1, 2),
                               owned=frozenset([nodes[0]]))
        sim_b = Simulator(seed=1)
        fabric_b = ShardFabric(sim_b, grid_topology(1, 2),
                               owned=frozenset([nodes[1]]))

        got = []

        class Host:
            def __init__(self, tag):
                self.tag = tag

            def receive(self, packet, from_node):
                got.append((self.tag, packet.payload, from_node))

        for node in nodes:
            fabric_a.attach(node, Host(("a", node)))
            fabric_b.attach(node, Host(("b", node)))
        packet = Datagram(nodes[0], nodes[1], payload={"n": 1})
        fabric_a.send(nodes[0], nodes[1], packet)
        sim_a.run(until=1.0)
        batch = pickle.loads(pickle.dumps(fabric_a.drain_outbox()))
        assert fabric_b.inject(batch) == 1
        sim_b.run(until=1.0)
        assert got == [(("b", nodes[1]), {"n": 1}, nodes[0])]
        assert fabric_a.handoffs_out == 1
        assert fabric_b.handoffs_in == 1

    def test_handoff_repr(self):
        h = Handoff(0.25, (0, 0), (0, 1),
                    type("P", (), {"packet_id": 7})())
        assert "0.25" in repr(h)


# ----------------------------------------------------------------------
# ARQ acks across shard boundaries
# ----------------------------------------------------------------------

class ArqCrossShardWorkload(ShardWorkload):
    """Reliable transport where data shuttles and their acks cross the
    shard boundary: one originating ship, zero loss, jitter off (no
    retries fire, so no RNG draws diverge between layouts)."""

    def __init__(self, seed=42, scale="tiny", sends=12):
        super().__init__(seed, scale)
        self.sends = sends

    def topology(self):
        return grid_topology(1, 4, latency=0.02)

    def horizon(self):
        return round(0.1 * (self.sends + 4) + 3.0, 9)

    def build(self, owned=None):
        from repro.core.wandering_network import (WanderingNetwork,
                                                  WanderingNetworkConfig)
        config = WanderingNetworkConfig(
            seed=self.seed, router="static", loss_rate=0.0,
            resonance_enabled=False, horizontal_wandering=False,
            vertical_wandering=False, audits_enabled=False,
            pulse_interval=1e9, publish_interval=1e9)
        wn = WanderingNetwork(
            self.topology(), config,
            fabric_factory=shard_fabric_factory(owned))
        from repro.resilience.arq import ReliableTransport
        transport = ReliableTransport(wn.sim, wn.ships, base_timeout=0.5,
                                      max_timeout=2.0, max_attempts=4,
                                      jitter=0.0)
        return {"wn": wn, "sim": wn.sim, "fabric": wn.fabric,
                "transport": transport}

    def setup(self, ctx, owned):
        from repro.core.shuttle import (OP_ACQUIRE_ROLE, Directive,
                                        Shuttle)
        wn, sim, transport = ctx["wn"], ctx["sim"], ctx["transport"]
        nodes = sorted(wn.ships, key=repr)
        src, dst = nodes[0], nodes[-1]
        if owned is not None and src not in owned:
            return
        count = [0]

        def send_one():
            if count[0] >= self.sends:
                task.stop()
                return
            shuttle = Shuttle(src, dst,
                              directives=[Directive(OP_ACQUIRE_ROLE,
                                                    role_id="fn.caching")],
                              credential=wn.credential,
                              interface=wn.ships[src].interface)
            transport.send(src, shuttle)
            count[0] += 1

        task = sim.every(0.1, send_one)

    def collect(self, ctx, owned):
        transport = ctx["transport"]
        return {
            "sent": transport.sent,
            "delivered": transport.delivered,
            "retries": transport.retries,
            "acks_received": transport.acks_received,
            "dlq": len(transport.dlq),
            "events_executed": ctx["sim"].events_executed,
        }

    def finalize(self, totals):
        return dict(totals), {"events": totals["events_executed"],
                              "shuttles": totals["delivered"]}


class TestArqAcrossShards:
    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_acks_cross_the_boundary(self, backend):
        base_counters, _ = run_single(ArqCrossShardWorkload())
        assert base_counters["sent"] == 12
        assert base_counters["delivered"] == 12
        assert base_counters["retries"] == 0
        assert base_counters["dlq"] == 0
        counters, _, stats = run_sharded(ArqCrossShardWorkload(), 2,
                                         backend=backend)
        assert stats["mode"] == "sharded"
        # Both the data shuttles and their return acks were handed off.
        assert stats["handoffs"] >= 24
        assert counters == base_counters


# ----------------------------------------------------------------------
# harness satellites: per-repeat wall times, old-file compatibility
# ----------------------------------------------------------------------

class TestHarnessWallTimes:
    def test_wall_times_recorded_per_repeat(self):
        result = run_scenario("event-loop", seed=42, scale="tiny",
                              repeats=3)
        assert len(result.wall_times_s) == 3
        assert result.wall_time_s == min(result.wall_times_s)
        payload = result.to_dict()
        assert payload["version"] == BENCH_VERSION
        assert len(payload["wall_times_s"]) == 3
        assert payload["workers"] == 1

    def test_compare_reads_version1_files(self):
        # A version-1 entry has no wall_times_s / workers / backend.
        current = run_scenario("event-loop", seed=42, scale="tiny",
                               repeats=1)
        old_entry = {
            "version": 1,
            "scenario": "event-loop", "seed": 42, "scale": "tiny",
            "digest": current.digest,
            "events_per_sec": current.events_per_sec,
        }
        ok, lines = compare([current.to_dict()], [old_entry])
        assert ok, lines

    def test_digest_ignores_workers(self):
        counters = {"sent": 1, "final_time": 2.0}
        a = BenchResult("shard-scaling", 42, "tiny", 1, 0.5,
                        counters, {"events": 3}, workers=1)
        b = BenchResult("shard-scaling", 42, "tiny", 1, 0.5,
                        counters, {"events": 3}, workers=4, backend="mp",
                        shard_stats={"mode": "sharded"})
        assert a.digest == b.digest
        assert run_digest("shard-scaling", 42, "tiny",
                          counters) == a.digest
