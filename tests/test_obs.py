"""Tests for repro.obs: registry, spans, profiler, exporters, report.

Covers the observability acceptance criteria: label cardinality caps,
histogram bucket edges, causal span linkage across a real multi-hop
shuttle run, and bit-for-bit run determinism with collection on or off.
"""

import json

import pytest

from repro.analysis import LatencyCollector
from repro.core.generations import Generation
from repro.core.ship import Ship
from repro.core.shuttle import OP_ACQUIRE_ROLE
from repro.core.wandering_network import (WanderingNetwork,
                                          WanderingNetworkConfig)
from repro.functions import CachingRole, FusionRole
from repro.obs import (DEFAULT_BUCKETS, TRACE_META_KEY, MetricError,
                       MetricsRegistry, SpanTracer, load_jsonl,
                       merge_snapshots, render_report, render_span_tree,
                       spans_from_records, tree_depth)
from repro.routing import StaticRouter
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import (Datagram, NetworkFabric, line_topology,
                                   ring_topology)
from repro.substrates.sim import Simulator

from .kernel_oracle import simulator


def make_network(n=4, generation=Generation.G4):
    sim = Simulator(seed=1)
    topo = line_topology(n)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    router = StaticRouter(topo)
    ships = {}
    for node in topo.nodes:
        ships[node] = Ship(sim, fabric, node, router=router,
                           generation=generation, authority=authority)
    cred = authority.issue("operator")
    for ship in ships.values():
        ship.nodeos.security.grant("operator", "*")
    return sim, topo, fabric, ships, cred


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labels=("node",))
        c.inc(node=1)
        c.inc(2.0, node=1)
        c.inc(node=2)
        assert c.labels(1).value == 3.0
        assert c.total() == 4.0
        g = reg.gauge("g", labels=("k",))
        g.set(7.5, k="a")
        g.set(1.5, k="a")
        assert g.labels("a").value == 1.5
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        assert h.labels().count == 1

    def test_redeclare_same_family_is_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("node",))
        b = reg.counter("x_total", labels=("node",))
        assert a is b

    def test_redeclare_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("node",))
        with pytest.raises(MetricError):
            reg.gauge("x_total", labels=("node",))
        with pytest.raises(MetricError):
            reg.counter("x_total", labels=("node", "event"))

    def test_wrong_label_arity_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labels=("node", "event"))
        with pytest.raises(MetricError):
            c.labels(1)
        with pytest.raises(MetricError):
            c.inc(node=1)   # missing "event"

    def test_label_cardinality_cap(self):
        reg = MetricsRegistry(max_series=8)
        c = reg.counter("x_total", labels=("packet",))
        for i in range(20):
            c.inc(packet=i)
        assert c.series_count == 8
        assert reg.dropped_series == 12
        # Overflow writes land in the shared null sink, not in a series.
        assert c.total() == 8.0
        # Existing series keep accepting writes after the cap is hit.
        c.inc(packet=0)
        assert c.labels(0).value == 2.0

    def test_collect_shapes(self):
        reg = MetricsRegistry()
        reg.counter("a_total", dimension="per-node",
                    labels=("node",)).inc(node=3)
        reg.histogram("lat", dimension="per-session").observe(0.002)
        records = list(reg.collect())
        by_name = {r["name"]: r for r in records}
        assert by_name["a_total"]["value"] == 1.0
        assert by_name["a_total"]["labels"] == {"node": 3}
        assert by_name["lat"]["count"] == 1
        assert "+Inf" in by_name["lat"]["buckets"]


class TestHistogramEdges:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        child = h.labels()
        for v in (0.5, 1.0):      # both land in the <=1.0 bucket
            child.observe(v)
        child.observe(1.0001)     # first value past an edge
        child.observe(4.0)        # exactly the last finite edge
        child.observe(100.0)      # overflow -> +Inf
        assert child.bucket_counts == [2, 1, 1, 1]
        cumulative = dict(child.cumulative())
        assert cumulative[1.0] == 2
        assert cumulative[2.0] == 3
        assert cumulative[4.0] == 4
        assert cumulative[float("inf")] == 5
        assert child.count == 5
        assert child.sum == pytest.approx(106.5001)

    def test_unsorted_buckets_are_sorted(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(5.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 5.0)

    def test_empty_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=())

    def test_default_buckets_cover_sub_ms_to_tens_of_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------

class TestSpanTracer:
    def test_parent_child_linkage(self):
        tracer = SpanTracer()
        root = tracer.start_trace("journey", node=0, at=0.0)
        hop = tracer.event("hop", root.context, 1, 0.5)
        dock = tracer.event("dock", hop.context, 2, 1.0)
        assert root.parent_id is None
        assert hop.parent_id == root.span_id
        assert dock.parent_id == hop.span_id
        assert {s.trace_id for s in (root, hop, dock)} == {root.trace_id}
        assert tracer.depth(root.trace_id) == 3

    def test_max_spans_cap(self):
        tracer = SpanTracer(max_spans=2)
        root = tracer.start_trace("a", 0, 0.0)
        tracer.event("b", root.context, 0, 0.1)
        overflow = tracer.event("c", root.context, 0, 0.2)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 1
        # The overflow span still carries a usable context.
        assert overflow.trace_id == root.trace_id

    def test_render_tree_roundtrip_through_records(self):
        tracer = SpanTracer()
        root = tracer.start_trace("journey", 0, 0.0)
        hop = tracer.event("hop:0->1", root.context, 1, 0.5, link="0~1")
        tracer.event("dock:1", hop.context, 1, 0.5)
        records = [json.loads(json.dumps(r, default=repr, sort_keys=True))
                   for r in tracer.to_records()]
        spans = spans_from_records(records)
        assert tree_depth(spans) == 3
        text = render_span_tree(spans)
        assert "journey" in text
        assert "└─ hop:0->1" in text
        assert "link=0~1" in text


class TestShuttleTracing:
    def test_three_hop_shuttle_renders_one_causal_chain(self):
        sim, topo, fabric, ships, cred = make_network(4)
        sim.obs.enable()
        ships[0].acquire_role(CachingRole())
        shuttle = ships[0].make_role_shuttle(CachingRole.role_id, 3,
                                             credential=cred)
        assert ships[0].send_toward(shuttle)
        sim.run(until=5.0)
        assert ships[3].has_role(CachingRole.role_id)

        tracer = sim.obs.tracer
        roots = tracer.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name.startswith("shuttle#")
        assert root.attrs["dst"] == 3
        assert OP_ACQUIRE_ROLE in root.attrs["ops"]
        # root -> hop:0->1 -> hop:1->2 -> hop:2->3 -> dock:3
        assert tracer.depth(root.trace_id) == 5
        names = [s.name for s in tracer.spans
                 if s.trace_id == root.trace_id]
        assert names == ["shuttle#%d" % shuttle.packet_id, "hop:0->1",
                         "hop:1->2", "hop:2->3", "dock:3"]
        # Each span is the parent of the next: a single causal chain.
        for parent, child in zip(tracer.spans, tracer.spans[1:]):
            assert child.parent_id == parent.span_id
        dock = tracer.spans[-1]
        assert dock.attrs["applied"] == 2      # acquire-role + quantum
        assert dock.attrs["denied"] == 0

    def test_trace_context_survives_morph_meta(self):
        sim, topo, fabric, ships, cred = make_network(2)
        sim.obs.enable()
        ships[0].acquire_role(FusionRole())
        shuttle = ships[0].make_role_shuttle(FusionRole.role_id, 1,
                                             credential=cred)
        ships[0].send_toward(shuttle)
        assert shuttle.trace_context is not None
        assert shuttle.meta[TRACE_META_KEY] == shuttle.trace_context


# ----------------------------------------------------------------------
# Kernel profiler
# ----------------------------------------------------------------------

class TestKernelProfiler:
    def test_profile_disabled_by_default(self):
        sim = Simulator(seed=1)
        sim.obs.enable()
        sim.call_in(1.0, lambda: None, name="noop")
        sim.run()
        assert sim.obs.profiler.events == 0
        types = {r["type"] for r in
                 merge_snapshots([sim.obs.snapshot()]).records()}
        assert "kernel" not in types and "profile" not in types

    def test_profile_collects_per_handler_stats(self):
        sim = Simulator(seed=1)
        sim.obs.enable(profiling=True)
        for i in range(5):
            sim.call_in(float(i + 1), lambda: None, name="tick")
        sim.call_in(2.5, lambda: sum(range(100)), name="work")
        sim.run()
        records = list(merge_snapshots([sim.obs.snapshot()]).records())
        kernel = next(r for r in records if r["type"] == "kernel")
        assert kernel["events"] == 6
        assert kernel["events_per_sec"] > 0
        by_name = {r["handler"]: r for r in records
                   if r["type"] == "profile"}
        assert by_name["tick"]["calls"] == 5
        assert by_name["work"]["calls"] == 1
        assert by_name["tick"]["total_s"] >= 0.0

    def test_both_run_loops_record_the_same_telemetry(self):
        # The batched loop and the peek()/step() oracle must feed the
        # one observation hook the same events in the same order, and
        # read the same agenda depth after each: same-instant chain
        # links and lazily cancelled timeouts included.
        def drive(fast):
            sim = simulator(fast, seed=3)
            sim.obs.enable(profiling=True)
            ring = sim.obs.flight(capacity=8192)
            rng = sim.rng.stream("test.loops")
            timeouts = {}

            def link(chain):
                old = timeouts.get(chain)
                if old is not None and rng.random() < 0.5:
                    old.cancel()
                timeouts[chain] = sim.call_in(0.5, lambda: None,
                                              name="timeout")
                sim.call_in(rng.choice((0.0, 0.25, 0.5)), link, chain,
                            name=f"link{chain % 3}")

            for chain in range(20):
                sim.call_in(rng.random(), link, chain, name="start")
            sim.run(until=50.0)
            profile = sim.obs.snapshot().profile
            return (list(ring.entries), ring.recorded,
                    sorted((name, calls)
                           for name, calls, _, _ in profile["handlers"]),
                    profile["events"], profile["max_queue_depth"],
                    profile["depth_sum"])

        batched, reference = drive(True), drive(False)
        assert batched == reference
        assert batched[3] == batched[1] > 1000


# ----------------------------------------------------------------------
# Facade, exporters, report
# ----------------------------------------------------------------------

class TestFacadeAndExporters:
    def test_disabled_obs_is_inert(self):
        sim = Simulator(seed=1)
        assert not sim.obs.on
        assert sim.obs.registry is None
        assert sim._observe is None

    def test_enable_disable_cycle(self):
        sim = Simulator(seed=1)
        sim.obs.enable(profiling=True)
        assert sim.obs.on and sim._observe is not None
        registry = sim.obs.registry
        sim.obs.disable()
        assert not sim.obs.on and sim._observe is None
        # Data survives disable for export.
        assert sim.obs.registry is registry
        sim.obs.enable()
        assert sim.obs.registry is registry   # idempotent

    def test_jsonl_roundtrip(self, tmp_path):
        sim, topo, fabric, ships, cred = make_network(3)
        sim.obs.enable(profiling=True)
        ships[0].send_toward(Datagram(0, 2, flow_id="f1"))
        sim.run(until=1.0)
        path = tmp_path / "run.jsonl"
        written = merge_snapshots([sim.obs.snapshot()]).export_jsonl(
            str(path))
        records = load_jsonl(str(path))
        assert len(records) == written
        assert records[0]["type"] == "meta"
        types = {r["type"] for r in records}
        assert {"meta", "metric", "kernel"} <= types

    def test_load_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed"):
            load_jsonl(str(path))

    def test_prometheus_text_format(self):
        sim = Simulator(seed=1)
        sim.obs.enable()
        sim.obs.node_packets.inc(node=0, event="forward")
        sim.obs.session_latency.observe(0.003)
        text = merge_snapshots([sim.obs.snapshot()]).export_prometheus()
        assert "# TYPE repro_node_packets_total counter" in text
        assert 'node="0"' in text
        assert 'le="+Inf"' in text
        assert "repro_session_latency_seconds_count 1" in text

    def test_report_renders_all_three_sections(self):
        sim, topo, fabric, ships, cred = make_network(4)
        sim.obs.enable(profiling=True)
        ships[0].acquire_role(CachingRole())
        shuttle = ships[0].make_role_shuttle(CachingRole.role_id, 3,
                                             credential=cred)
        ships[0].send_toward(shuttle)
        sim.run(until=5.0)
        text = render_report(
            list(merge_snapshots([sim.obs.snapshot()]).records()))
        assert "metrics by MFP dimension" in text
        assert "kernel profile" in text
        assert "causal shuttle traces" in text
        assert "shuttle#" in text
        assert "dock:3" in text


# ----------------------------------------------------------------------
# Determinism: observability must not perturb a seeded run
# ----------------------------------------------------------------------

def _run_scenario(observe):
    wn = WanderingNetwork(
        ring_topology(6, latency=0.01),
        WanderingNetworkConfig(seed=7, pulse_interval=5.0,
                               resonance_threshold=2.0,
                               min_attraction=0.5))
    if observe:
        wn.sim.obs.enable(profiling=True)
    wn.deploy_role(CachingRole, at=0, activate=True)
    wn.deploy_role(FusionRole, at=0)
    shuttle = wn.ship(0).make_role_shuttle(FusionRole.role_id, 3,
                                           credential=wn.credential,
                                           activate=True)
    wn.ship(0).send_toward(shuttle)
    for i in range(40):
        wn.ship(i % 6).record_fact("content", f"item-{i}")
    wn.run(until=60.0)
    return {
        "events_executed": wn.sim.events_executed,
        "now": wn.sim.now,
        "wander_events": list(wn.engine.events),
        "entropy": wn.role_entropy(),
        "roles": {node: sorted(s.roles) for node, s in wn.ships.items()},
        "emitted": wn.sim.trace.emitted,
    }


class TestDeterminism:
    def test_same_digest_with_obs_on_and_off(self):
        assert _run_scenario(observe=False) == _run_scenario(observe=True)

    def test_obs_ids_are_deterministic(self):
        def spans(seed):
            sim, topo, fabric, ships, cred = make_network(3)
            sim.obs.enable()
            ships[0].acquire_role(CachingRole())
            s = ships[0].make_role_shuttle(CachingRole.role_id, 2,
                                           credential=cred)
            ships[0].send_toward(s)
            sim.run(until=5.0)
            # Packet ids are process-global, so mask them out of the
            # root name; everything else must match exactly.
            import re
            return [(x.trace_id, x.span_id, x.parent_id,
                     re.sub(r"#\d+", "#N", x.name), x.start)
                    for x in sim.obs.tracer.spans]
        assert spans(1) == spans(1)


# ----------------------------------------------------------------------
# Satellite: TraceBus hardening
# ----------------------------------------------------------------------

class TestTraceBusHardening:
    def test_subscriber_exception_does_not_abort_emit(self):
        sim = Simulator(seed=1)
        seen = []

        def broken(rec):
            raise RuntimeError("boom")

        sim.trace.subscribe("ship", broken)
        sim.trace.subscribe("ship", seen.append)
        sim.trace.emit("ship.born", node=0)     # must not raise
        assert len(seen) == 1
        assert sim.trace.subscriber_errors == 1
        assert isinstance(sim.trace.last_error, RuntimeError)

    def test_subscriber_exception_does_not_abort_sim_step(self):
        sim = Simulator(seed=1)
        sim.trace.subscribe("tick", lambda rec: 1 / 0)
        fired = []
        sim.call_in(1.0, lambda: (sim.trace.emit("tick"),
                                  fired.append(True)))
        sim.run()
        assert fired == [True]
        assert sim.trace.subscriber_errors == 1

    def test_unsubscribe_prunes_empty_prefix(self):
        sim = Simulator(seed=1)
        fn = sim.trace.subscribe("a.b", lambda rec: None)
        assert "a.b" in sim.trace._subs
        sim.trace.unsubscribe("a.b", fn)
        assert "a.b" not in sim.trace._subs
        # Unsubscribing twice (or an unknown prefix) is harmless.
        sim.trace.unsubscribe("a.b", fn)
        sim.trace.unsubscribe("zzz", fn)


# ----------------------------------------------------------------------
# Satellite: LatencyCollector caching + p999
# ----------------------------------------------------------------------

class TestLatencyCollector:
    def test_summary_includes_p999(self):
        sim = Simulator(seed=1)
        collector = LatencyCollector(sim)
        collector.samples.extend(i / 1000.0 for i in range(1000))
        summary = collector.summary()
        assert summary["count"] == 1000
        assert summary["p999"] == pytest.approx(0.998001, rel=1e-3)
        assert summary["p50"] <= summary["p99"] <= summary["p999"]

    def test_empty_summary_has_nan_p999(self):
        import math
        sim = Simulator(seed=1)
        summary = LatencyCollector(sim).summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p999"])

    def test_cache_invalidated_on_append(self):
        sim, topo, fabric, ships, cred = make_network(2)
        collector = LatencyCollector(sim)
        collector.attach(ships[1])
        ships[0].send_toward(Datagram(0, 1, flow_id="f"))
        sim.run(until=1.0)
        assert collector.count == 1
        first = collector.mean()
        arr1 = collector._array()
        assert arr1 is collector._array()       # cached between reads
        ships[0].send_toward(Datagram(0, 1, flow_id="f"))
        sim.run(until=2.0)
        assert collector.count == 2
        assert collector._array() is not arr1   # invalidated by append
        assert collector.mean() >= first
