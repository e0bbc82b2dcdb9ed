"""Tests for workload generators across substrates."""

import pytest

from repro.core.ship import Ship
from repro.functions import CachingRole, DelegationRole, FissionRole, FusionRole
from repro.routing import StaticRouter
from repro.substrates.legacy import build_legacy_network
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import NetworkFabric, line_topology, star_topology
from repro.substrates.sim import Simulator
from repro.workloads import (ContentWorkload, MediaStreamSource,
                             MulticastSession, NomadicUser, SensorField)


def ship_net(topo, seed=11):
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim, topo)
    router = StaticRouter(topo)
    authority = CredentialAuthority()
    ships = {node: Ship(sim, fabric, node, router=router,
                        authority=authority)
             for node in topo.nodes}
    return sim, fabric, ships


class TestMediaStreamSource:
    def test_cbr_emission_and_delivery(self):
        sim, fabric, ships = ship_net(line_topology(3))
        got = []
        ships[2].on_deliver(lambda p, f: got.append(p))
        source = MediaStreamSource(sim, ships, 0, 2, rate_pps=5.0)
        source.start()
        sim.run(until=10.0)
        source.stop()
        sim.run()   # drain in-flight packets
        assert source.sent >= 40
        assert len(got) == source.sent

    def test_quality_spread(self):
        sim, fabric, ships = ship_net(line_topology(2))
        got = []
        ships[1].on_deliver(lambda p, f: got.append(p))
        MediaStreamSource(sim, ships, 0, 1, rate_pps=20.0,
                          quality_spread=0.8).start()
        sim.run(until=5.0)
        qualities = {p.payload["quality"] for p in got}
        assert len(qualities) > 3
        assert all(0.0 <= q <= 1.0 for q in qualities)

    def test_runs_on_legacy_substrate(self):
        sim = Simulator(seed=11)
        topo = line_topology(3)
        fabric = NetworkFabric(sim, topo)
        routers = build_legacy_network(sim, fabric)
        got = []
        routers[2].on_deliver(lambda p, f: got.append(p))
        MediaStreamSource(sim, routers, 0, 2, rate_pps=5.0).start()
        sim.run(until=5.0)
        assert got

    def test_validation(self):
        sim, fabric, ships = ship_net(line_topology(2))
        with pytest.raises(ValueError):
            MediaStreamSource(sim, ships, 0, 1, rate_pps=0.0)


class TestSensorField:
    def test_fusion_reduces_sensor_bytes(self):
        topo = star_topology(4)   # hub 0, sensors 1-3, sink at hub
        sim, fabric, ships = ship_net(topo)
        # Sink at leaf 4? star(4) has leaves 1..4; use sink=4, sensors 1-3.
        fusion = FusionRole(window=3, ratio=0.3)
        ships[0].acquire_role(fusion)
        ships[0].assign_role(FusionRole.role_id)
        field = SensorField(sim, ships, sensors=[1, 2, 3], sink=4,
                            interval=1.0)
        field.start()
        sim.run(until=30.0)
        assert field.readings_sent > 50
        assert fusion.fused_packets > 10
        assert fusion.reduction_ratio < 0.6


class TestContentWorkload:
    def test_requests_answered_by_origin(self):
        sim, fabric, ships = ship_net(line_topology(3))
        workload = ContentWorkload(sim, ships, clients=[0], origin=2,
                                   n_items=10, request_interval=1.0)
        workload.start()
        sim.run(until=20.0)
        assert workload.requests_sent >= 18
        assert workload.response_ratio() > 0.9
        assert workload.mean_latency() > 0

    def test_cache_on_path_cuts_latency(self):
        def run(with_cache):
            sim, fabric, ships = ship_net(
                line_topology(4, latency=0.05))
            if with_cache:
                ships[1].acquire_role(CachingRole())
                ships[1].assign_role(CachingRole.role_id)
            workload = ContentWorkload(sim, ships, clients=[0], origin=3,
                                       n_items=5, zipf_s=2.0,
                                       request_interval=0.5)
            workload.start()
            sim.run(until=60.0)
            return workload.mean_latency()

        assert run(with_cache=True) < run(with_cache=False)

    def test_zipf_popularity_is_skewed(self):
        sim, fabric, ships = ship_net(line_topology(2))
        workload = ContentWorkload(sim, ships, clients=[0], origin=1,
                                   n_items=20, zipf_s=1.5,
                                   request_interval=0.1)
        workload.start()
        sim.run(until=60.0)
        assert workload.server.requests_served > 100

    @pytest.mark.parametrize("seed", [1, 7])
    def test_zipf_draw_equals_generator_choice(self, seed, monkeypatch):
        """The cumulative-sum bisect picks, draw for draw, the item
        ``Generator.choice(n_items, p=popularity)`` picks from the same
        stream."""
        import numpy as np

        import repro.workloads.web as web
        sent = []
        monkeypatch.setattr(web, "inject",
                            lambda hosts, node, packet: sent.append(packet))
        sim, fabric, ships = ship_net(line_topology(2), seed=seed)
        workload = ContentWorkload(sim, ships, clients=[0], origin=1,
                                   n_items=40, zipf_s=1.2)
        for _ in range(5000):
            workload._request(0)
        weights = np.arange(1, 41, dtype=float) ** -1.2
        reference = Simulator(seed=seed).rng.np_stream("web.zipf.web")
        expected = [f"item-{reference.choice(40, p=weights / weights.sum())}"
                    for _ in range(5000)]
        assert [p.payload["key"] for p in sent] == expected

    def test_catalog_validated_at_construction(self):
        sim, fabric, ships = ship_net(line_topology(2))
        for bad in ({"n_items": 0}, {"n_items": -3},
                    {"zipf_s": float("nan")}):
            with pytest.raises(ValueError):
                ContentWorkload(sim, ships, clients=[0], origin=1, **bad)


class TestMulticastSession:
    def test_network_mode_delivers_to_all(self):
        topo = star_topology(4)
        sim, fabric, ships = ship_net(topo)
        ships[0].acquire_role(FissionRole())
        ships[0].assign_role(FissionRole.role_id)
        session = MulticastSession(sim, ships, source=1, fission_point=0,
                                   subscribers=[2, 3, 4], rate_pps=5.0,
                                   mode="network")
        session.start()
        sim.run(until=10.0)
        assert session.delivery_ratio() > 0.9

    def test_unicast_mode_sends_n_copies(self):
        topo = star_topology(4)
        sim, fabric, ships = ship_net(topo)
        session = MulticastSession(sim, ships, source=1, fission_point=0,
                                   subscribers=[2, 3, 4], rate_pps=5.0,
                                   mode="unicast")
        session.start()
        sim.run(until=10.0)
        assert session.delivery_ratio() > 0.9
        # Unicast sends 3x the packets at the source.
        assert session.packets_sent >= 3 * 45

    def test_network_mode_saves_source_link_bytes(self):
        def run(mode):
            topo = star_topology(4)
            sim, fabric, ships = ship_net(topo)
            ships[0].acquire_role(FissionRole())
            ships[0].assign_role(FissionRole.role_id)
            session = MulticastSession(sim, ships, source=1,
                                       fission_point=0,
                                       subscribers=[2, 3, 4],
                                       rate_pps=5.0, mode=mode)
            session.start()
            sim.run(until=10.0)
            return topo.link(1, 0).bytes_carried

        assert run("network") < run("unicast") / 2

    def test_mode_validation(self):
        sim, fabric, ships = ship_net(line_topology(2))
        with pytest.raises(ValueError):
            MulticastSession(sim, ships, 0, 1, [1], mode="anycast")


class TestNomadicUser:
    def test_tasks_complete(self):
        sim, fabric, ships = ship_net(line_topology(4))
        ships[3].acquire_role(DelegationRole())
        ships[3].assign_role(DelegationRole.role_id)
        user = NomadicUser(sim, ships, route=[0, 1], delegate=3,
                           dwell_time=20.0, task_interval=2.0)
        user.start()
        sim.run(until=60.0)
        assert user.tasks_sent >= 25
        assert user.completion_ratio() > 0.8
        assert user.mean_latency() > 0

    def test_user_moves_between_attachments(self):
        sim, fabric, ships = ship_net(line_topology(3))
        ships[2].acquire_role(DelegationRole())
        ships[2].assign_role(DelegationRole.role_id)
        user = NomadicUser(sim, ships, route=[0, 1], delegate=2,
                           dwell_time=10.0, task_interval=5.0)
        user.start()
        positions = []
        sim.every(10.0, lambda: positions.append(user.attachment))
        sim.run(until=50.0)
        assert set(positions) == {0, 1}

    def test_closer_delegate_cuts_latency(self):
        def run(delegate):
            sim, fabric, ships = ship_net(line_topology(5, latency=0.05))
            ships[delegate].acquire_role(DelegationRole())
            ships[delegate].assign_role(DelegationRole.role_id)
            user = NomadicUser(sim, ships, route=[0], delegate=delegate,
                               dwell_time=100.0, task_interval=1.0)
            user.start()
            sim.run(until=40.0)
            return user.mean_latency()

        assert run(delegate=1) < run(delegate=4)


class TestOnOffSource:
    def test_bursty_emission(self):
        from repro.workloads import OnOffSource
        sim, fabric, ships = ship_net(line_topology(2))
        got = []
        ships[1].on_deliver(lambda p, f: got.append(sim.now))
        source = OnOffSource(sim, ships, 0, 1, rate_pps=20.0,
                             mean_on=2.0, mean_off=2.0)
        source.start()
        sim.run(until=60.0)
        source.stop()
        sim.run(until=61.0)
        assert source.bursts >= 3
        assert source.sent > 50
        assert len(got) == source.sent
        # Burstiness: inter-arrival gaps include long OFF silences.
        gaps = [b - a for a, b in zip(got, got[1:])]
        assert max(gaps) > 5 * (1.0 / 20.0)

    def test_validation(self):
        from repro.workloads import OnOffSource
        sim, fabric, ships = ship_net(line_topology(2))
        import pytest as _pytest
        with _pytest.raises(ValueError):
            OnOffSource(sim, ships, 0, 1, rate_pps=0.0)

    def test_stop_during_on_period(self):
        from repro.workloads import OnOffSource
        sim, fabric, ships = ship_net(line_topology(2))
        source = OnOffSource(sim, ships, 0, 1, mean_on=100.0,
                             mean_off=0.1)
        source.start()
        sim.run(until=5.0)
        sent_at_stop = source.sent
        source.stop()
        sim.run(until=20.0)
        assert source.sent == sent_at_stop


class TestContentWorkloadFeedback:
    def test_per_session_dimension_observed(self):
        from repro.core import WanderingNetwork, WanderingNetworkConfig
        from repro.core.feedback import Dimension
        wn = WanderingNetwork(line_topology(3),
                              WanderingNetworkConfig(seed=3))
        web = ContentWorkload(wn.sim, wn.ships, clients=[0], origin=2,
                              n_items=4, request_interval=0.5,
                              name="session-x", feedback=wn.feedback)
        web.start()
        wn.run(until=30.0)
        assert Dimension.PER_SESSION in wn.feedback.active_dimensions()
        assert wn.feedback.level(Dimension.PER_SESSION, "session-x",
                                 "latency") > 0
        assert wn.feedback.level(Dimension.PER_APPLICATION, "web",
                                 "latency") > 0
