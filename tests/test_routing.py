"""Tests for the routing package: adaptive protocol, DV/flooding
baselines, QoS demands and overlays."""

import pytest

from repro.core.ship import Ship
from repro.functions import RoutingControlRole
from repro.routing import (DistanceVectorRouter, FloodingRouter,
                           OverlayManager, QosDemand, StaticRouter,
                           WLIAdaptiveRouter, path_qos, topology_on_demand)
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import (Datagram, NetworkFabric, Topology,
                                   line_topology, ring_topology)
from repro.substrates.sim import Simulator


def adaptive_net(n=4, topo_factory=line_topology, **router_kw):
    sim = Simulator(seed=5)
    topo = topo_factory(n)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    ships, routers = {}, {}
    for node in topo.nodes:
        router = WLIAdaptiveRouter(sim, **router_kw)
        ships[node] = Ship(sim, fabric, node, router=router,
                           authority=authority)
        routers[node] = router
    return sim, topo, fabric, ships, routers


class TestWLIAdaptiveRouter:
    def test_neighbor_route_is_immediate(self):
        sim, topo, fabric, ships, routers = adaptive_net(2)
        assert routers[0].next_hop(0, 1) == 1

    def test_hellos_build_multi_hop_routes(self):
        sim, topo, fabric, ships, routers = adaptive_net(
            4, hello_interval=2.0)
        sim.run(until=20.0)
        assert routers[0].next_hop(0, 3) == 1
        assert routers[3].next_hop(3, 0) == 2

    def test_reactive_discovery_buffers_then_delivers(self):
        sim, topo, fabric, ships, routers = adaptive_net(
            4, proactive=False)
        got = []
        ships[3].on_deliver(lambda p, f: got.append(p))
        # No hellos: the first packet triggers discovery.
        assert ships[0].send_toward(Datagram(0, 3, size_bytes=100,
                                             created_at=sim.now))
        assert routers[0].discoveries_started == 1
        sim.run(until=10.0)
        assert len(got) == 1

    def test_discovery_timeout_drops_buffer(self):
        sim, topo, fabric, ships, routers = adaptive_net(
            3, proactive=False, discovery_timeout=2.0)
        topo.set_link_state(1, 2, False)
        ships[0].send_toward(Datagram(0, 2, created_at=sim.now))
        sim.run(until=10.0)
        assert routers[0].buffer_drops == 1

    def test_route_expiry(self):
        sim, topo, fabric, ships, routers = adaptive_net(
            3, route_ttl=5.0, proactive=False)
        routers[0].learn_route(2, 1, 2.0)
        assert routers[0].next_hop(0, 2) == 1
        # Stop refreshing: after ttl the route is gone.
        sim.call_in(20.0, lambda: None)
        sim.run()
        routers[0].routes[2] = routers[0].routes[2]._replace(
            expires=sim.now - 1.0)
        assert routers[0].next_hop(0, 2) is None

    def test_invalidate_via_lost_neighbor(self):
        sim, topo, fabric, ships, routers = adaptive_net(3)
        routers[0].learn_route(2, 1, 2.0)
        assert routers[0].invalidate_via(1) == 1
        assert 2 not in routers[0].routes

    def test_route_becomes_fact(self):
        sim, topo, fabric, ships, routers = adaptive_net(3)
        routers[0].learn_route(2, 1, 2.0)
        assert ships[0].knowledge.find("route", (2, 1))

    def test_adapts_after_link_failure(self):
        sim, topo, fabric, ships, routers = adaptive_net(
            4, topo_factory=ring_topology, hello_interval=2.0,
            route_ttl=8.0)
        sim.run(until=30.0)
        assert routers[0].next_hop(0, 1) == 1
        topo.set_link_state(0, 1, False)
        sim.run(until=60.0)
        got = []
        ships[1].on_deliver(lambda p, f: got.append(p))
        ships[0].send_toward(Datagram(0, 1, created_at=sim.now))
        sim.run(until=90.0)
        assert len(got) == 1  # went the long way round

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            WLIAdaptiveRouter(sim, hello_interval=0.0)

    def test_neighbor_set_of_unknown_node_is_empty(self):
        sim, topo, fabric, ships, routers = adaptive_net(3)
        assert routers[1]._neighbor_set() == {0, 2}
        topo.remove_node(1)  # the ship outlives its node
        assert routers[1]._neighbor_set() == frozenset()
        assert routers[1].next_hop(1, 2) is None

    def test_neighbor_set_propagates_other_errors(self):
        class NeighboursOnly:
            """A topology stand-in that predates ``neighbor_set``."""

            def neighbors(self, node):
                return [0]

        sim, topo, fabric, ships, routers = adaptive_net(2)
        fabric.topology = NeighboursOnly()
        with pytest.raises(AttributeError):
            routers[1]._neighbor_set()


class TestDistanceVectorRouter:
    def test_advertisements_build_routes(self):
        sim = Simulator(seed=6)
        topo = line_topology(4)
        fabric = NetworkFabric(sim, topo)
        routers = {}
        ships = {}
        for node in topo.nodes:
            router = DistanceVectorRouter(sim, advertise_interval=2.0)
            ships[node] = Ship(sim, fabric, node, router=router)
            routers[node] = router
        sim.run(until=20.0)
        assert routers[0].next_hop(0, 3) == 1
        got = []
        ships[3].on_deliver(lambda p, f: got.append(p))
        ships[0].send_toward(Datagram(0, 3, created_at=sim.now))
        sim.run(until=25.0)
        assert len(got) == 1

    def test_split_horizon(self):
        sim = Simulator(seed=6)
        topo = line_topology(3)
        fabric = NetworkFabric(sim, topo)
        routers = {}
        for node in topo.nodes:
            router = DistanceVectorRouter(sim, advertise_interval=2.0)
            Ship(sim, fabric, node, router=router)
            routers[node] = router
        sim.run(until=20.0)
        # Node 1 routes to 2 via 2; it must not have learned a route to
        # 2 through 0 (split horizon prevents the bounce).
        assert routers[1].next_hop(1, 2) == 2


class TestFloodingRouter:
    def test_flooded_delivery(self):
        sim = Simulator(seed=7)
        topo = ring_topology(5)
        fabric = NetworkFabric(sim, topo)
        ships = {}
        for node in topo.nodes:
            ships[node] = Ship(sim, fabric, node, router=FloodingRouter())
        got = []
        ships[3].on_deliver(lambda p, f: got.append(p))
        ships[0].send_toward(Datagram(0, 3, created_at=sim.now))
        sim.run(until=5.0)
        assert len(got) >= 1   # duplicates possible from two directions


class TestQos:
    def test_demand_admits_link(self):
        topo = Topology()
        fast = topo.add_link("a", "b", latency=0.001, bandwidth=1e7)
        slow = topo.add_link("b", "c", latency=0.5, bandwidth=1e4)
        demand = QosDemand(max_link_latency=0.01, min_bandwidth=1e6)
        assert demand.admits_link(fast)
        assert not demand.admits_link(slow)

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            QosDemand(max_link_latency=0.0)
        with pytest.raises(ValueError):
            QosDemand(min_bandwidth=-1)

    def test_topology_on_demand_filters(self):
        topo = Topology()
        topo.add_link("a", "b", latency=0.001, bandwidth=1e7)
        topo.add_link("b", "c", latency=0.5, bandwidth=1e4)
        topo.add_link("a", "c", latency=0.002, bandwidth=1e7)
        virtual = topology_on_demand(topo, QosDemand(max_link_latency=0.01))
        assert virtual.has_link("a", "b")
        assert virtual.has_link("a", "c")
        assert not virtual.has_link("b", "c")
        assert set(virtual.nodes) == {"a", "b", "c"}

    def test_topology_on_demand_member_restriction(self):
        topo = ring_topology(5)
        virtual = topology_on_demand(topo, QosDemand(), members=[0, 1, 2])
        assert set(virtual.nodes) == {0, 1, 2}
        assert virtual.has_link(0, 1)
        assert not virtual.has_link(3, 4)

    def test_admits_path_constraints(self):
        topo = line_topology(4, latency=0.1)
        demand = QosDemand(max_path_latency=0.25)
        assert demand.admits_path(topo, [0, 1, 2])
        assert not demand.admits_path(topo, [0, 1, 2, 3])
        hops = QosDemand(max_hops=1)
        assert not hops.admits_path(topo, [0, 1, 2])

    def test_path_qos_figures(self):
        topo = line_topology(3, latency=0.1, bandwidth=1000.0)
        figures = path_qos(topo, [0, 1, 2])
        assert figures["latency"] == pytest.approx(0.2)
        assert figures["hops"] == 2
        assert figures["bottleneck_bandwidth"] == 1000.0


class TestOverlayManager:
    def make(self):
        sim = Simulator(seed=8)
        topo = ring_topology(6)
        # One slow chord that QoS overlays must avoid.
        topo.add_link(0, 3, latency=1.0, bandwidth=1e4)
        fabric = NetworkFabric(sim, topo)
        router = StaticRouter(topo)
        ships = {node: Ship(sim, fabric, node, router=router)
                 for node in topo.nodes}
        manager = OverlayManager(sim, topo)
        for ship in ships.values():
            manager.register_ship(ship)
        return sim, topo, ships, manager

    def test_spawn_overlay_on_demand(self):
        sim, topo, ships, manager = self.make()
        overlay = manager.spawn(QosDemand(max_link_latency=0.1),
                                overlay_id="qos1")
        assert overlay.connected()
        assert not overlay.virtual.has_link(0, 3)   # slow chord excluded
        assert manager.spawned == 1

    def test_overlay_path_respects_demand(self):
        sim, topo, ships, manager = self.make()
        overlay = manager.spawn(QosDemand(max_link_latency=0.1))
        path = overlay.path(0, 3)
        assert path is not None
        assert (0, 3) not in zip(path, path[1:])

    def test_membership_notifies_routing_control_role(self):
        sim, topo, ships, manager = self.make()
        for ship in ships.values():
            ship.acquire_role(RoutingControlRole())
        overlay = manager.spawn(QosDemand(), members=[0, 1, 2],
                                overlay_id="ov")
        for node in (0, 1, 2):
            role = ships[node].role(RoutingControlRole.role_id)
            assert "ov" in role.overlays()
        assert "ov" not in ships[3].role(
            RoutingControlRole.role_id).overlays()

    def test_cluster_contracts_membership(self):
        sim, topo, ships, manager = self.make()
        for ship in ships.values():
            ship.acquire_role(RoutingControlRole())
        overlay = manager.spawn(QosDemand(), overlay_id="ov")
        manager.cluster("ov", active_members=[0, 1])
        assert overlay.members == {0, 1}
        assert "ov" not in ships[5].role(
            RoutingControlRole.role_id).overlays()
        assert overlay.reshapes == 1

    def test_resync_after_topology_change(self):
        sim, topo, ships, manager = self.make()
        overlay = manager.spawn(QosDemand())
        assert overlay.virtual.has_link(0, 1)
        topo.remove_link(0, 1)
        assert manager.resync() == 1
        assert not overlay.virtual.has_link(0, 1)

    def test_remove_overlay(self):
        sim, topo, ships, manager = self.make()
        manager.spawn(QosDemand(), overlay_id="ov")
        manager.remove("ov")
        assert "ov" not in manager.overlays
        assert manager.removed == 1

    def test_best_overlay_path(self):
        sim, topo, ships, manager = self.make()
        manager.spawn(QosDemand(max_link_latency=0.1), overlay_id="fast")
        manager.spawn(QosDemand(), overlay_id="any")
        oid, path = manager.best_overlay_path(1, 2)
        assert oid in ("fast", "any")
        assert path[0] == 1 and path[-1] == 2

    def test_duplicate_overlay_id_rejected(self):
        sim, topo, ships, manager = self.make()
        manager.spawn(QosDemand(), overlay_id="ov")
        with pytest.raises(ValueError):
            manager.spawn(QosDemand(), overlay_id="ov")


class TestRouterLifecycle:
    def test_adaptive_router_stop_halts_hellos(self):
        sim, topo, fabric, ships, routers = adaptive_net(2,
                                                         hello_interval=2.0)
        sim.run(until=10.0)
        sent_before = routers[0].hellos_sent
        routers[0].stop()
        sim.run(until=30.0)
        assert routers[0].hellos_sent == sent_before

    def test_best_overlay_path_none_when_unreachable(self):
        from repro.routing import OverlayManager, QosDemand
        sim = Simulator(seed=5)
        topo = line_topology(3)
        manager = OverlayManager(sim, topo)
        manager.spawn(QosDemand(), members=[0, 1], overlay_id="partial")
        oid, path = manager.best_overlay_path(0, 2)   # 2 not a member
        assert oid is None and path is None
