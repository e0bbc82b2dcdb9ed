"""Third-wave tests for corners the main suites skip."""

import pytest

from repro.core import WanderingNetwork, WanderingNetworkConfig
from repro.functions import CachingRole
from repro.selfheal import GenomeArchive, HeartbeatDetector, SelfHealer
from repro.substrates.nodeos import CodeCache, CodeModule, CpuScheduler
from repro.substrates.phys import (Datagram, FailureInjector,
                                   NetworkFabric, Topology, TopologyError,
                                   line_topology, ring_topology)
from repro.substrates.sim import LAZY, URGENT, Simulator
from repro.viz import glyph
from repro.workloads import ContentWorkload


class TestKernelCorners:
    def test_lazy_priority_fires_after_normal(self):
        sim = Simulator()
        order = []
        sim.call_in(1.0, order.append, "lazy", priority=LAZY)
        sim.call_in(1.0, order.append, "urgent", priority=URGENT)
        sim.call_in(1.0, order.append, "normal")
        sim.run()
        assert order == ["urgent", "normal", "lazy"]

    def test_agenda_lists_pending_in_order(self):
        sim = Simulator()
        sim.call_in(2.0, lambda: None)
        sim.call_in(1.0, lambda: None)
        times = [ev.time for ev in sim.agenda()]
        assert times == [1.0, 2.0]

    def test_cpu_utilization(self):
        sim = Simulator()
        cpu = CpuScheduler(sim, ops_per_second=100.0)
        cpu.execute(50.0)
        assert cpu.utilization(1.0) == pytest.approx(0.5)
        assert cpu.utilization(0.0) == 0.0
        cpu.execute(1000.0)
        assert cpu.utilization(1.0) == 1.0   # clamped


class TestCacheCorners:
    def test_unpin_makes_module_evictable(self):
        cache = CodeCache(2000)
        cache.install(CodeModule("a", size_bytes=1500), pin=True)
        assert not cache.install(CodeModule("b", size_bytes=1000))
        cache.unpin("a")
        assert cache.install(CodeModule("b", size_bytes=1000))
        assert "a" not in cache

    def test_pin_unknown_module_raises(self):
        cache = CodeCache(1000)
        with pytest.raises(KeyError):
            cache.pin("ghost")

    def test_is_pinned(self):
        cache = CodeCache(1000)
        cache.install(CodeModule("a", size_bytes=100), pin=True)
        assert cache.is_pinned("a")
        cache.unpin("a")
        assert not cache.is_pinned("a")


class TestTopologyCorners:
    def test_set_node_state_unknown_raises(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.set_node_state("ghost", False)

    def test_remove_missing_link_raises(self):
        topo = line_topology(2)
        with pytest.raises(TopologyError):
            topo.remove_link(0, 5)

    def test_degree_ignores_down_links(self):
        topo = line_topology(3)
        topo.set_link_state(0, 1, False)
        assert topo.degree(1) == 1
        assert topo.degree(1, only_up=False) == 2

    def test_fabric_detach_drops_deliveries(self):
        sim = Simulator()
        topo = line_topology(2)
        fabric = NetworkFabric(sim, topo)

        class Sink:
            def __init__(self):
                self.got = []

            def receive(self, packet, from_node):
                self.got.append(packet)

        sink = Sink()
        fabric.attach(1, sink)
        fabric.detach(1)
        fabric.send(0, 1, Datagram(0, 1))
        sim.run()
        assert sink.got == []
        assert fabric.packets_dropped == 1


class TestVizCorners:
    def test_unknown_role_glyph(self):
        assert glyph("fn.completely-new") == "?"
        assert glyph(None) == "."


class TestFailureStorm:
    def test_network_survives_failure_storm_with_healing(self):
        """Robustness: aggressive link+node churn, healing on, long run —
        no exceptions, service continuity, healed functions."""
        wn = WanderingNetwork(
            ring_topology(10, latency=0.01),
            WanderingNetworkConfig(seed=107, router="adaptive",
                                   hello_interval=2.0,
                                   resonance_enabled=False,
                                   horizontal_wandering=False))
        wn.deploy_role(CachingRole, at=3, activate=True)
        injector = FailureInjector(wn.sim, wn.topology,
                                   link_mtbf=30.0, link_mttr=10.0,
                                   node_mtbf=None,
                                   spare_nodes=[0, 5])
        injector.start()
        archive = GenomeArchive(wn.sim, wn.ships, interval=10.0)
        detector = HeartbeatDetector(wn.sim, wn.ships, interval=2.0,
                                     suspicion_threshold=4)
        healer = SelfHealer(wn.sim, wn.ships, archive, detector,
                            wn.catalog)
        archive.start()
        detector.start()
        web = ContentWorkload(wn.sim, wn.ships, clients=[5], origin=0,
                              n_items=5, zipf_s=2.0,
                              request_interval=0.5)
        web.start()
        # Two scripted crashes on top of the random link storm.
        wn.sim.call_in(100.0, wn.ship(3).die)
        wn.sim.call_in(250.0, wn.ship(7).die)
        wn.run(until=500.0)

        assert injector.link_failures > 5
        assert len(healer.events) >= 1      # ship 3's cache healed
        assert healer.restoration_ratio(3) == 1.0
        # The web service kept answering through the storm.  Two dead
        # ring nodes + 30 s-MTBF link churn partitions the client from
        # the origin a large fraction of the time, so "continuity" here
        # means a solid third of requests still complete.
        assert web.response_ratio() > 0.25
        # No dead ship is still in any census.
        for members in wn.role_census().values():
            assert 3 not in members and 7 not in members
