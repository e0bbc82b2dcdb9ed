"""Tests for resonance, the wandering engine, netbots and the
WanderingNetwork orchestrator (PMP end to end)."""

import pytest

from repro.core import (Netbot, NetbotState, ResonanceField,
                        Ship, WanderingEngine, WanderingNetwork,
                        WanderingNetworkConfig)
from repro.functions import (CachingRole, DelegationRole, FusionRole,
                             default_catalog)
from repro.routing import StaticRouter
from repro.substrates.hardware import HardwareModule
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import (Datagram, NetworkFabric, line_topology,
                                   ring_topology)
from repro.substrates.sim import Simulator


def small_network(n=3, topo_factory=line_topology):
    sim = Simulator(seed=2)
    topo = topo_factory(n)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    router = StaticRouter(topo)
    catalog = default_catalog()
    ships = {node: Ship(sim, fabric, node, catalog=catalog, router=router,
                        authority=authority)
             for node in topo.nodes}
    cred = authority.issue("op")
    for ship in ships.values():
        ship.nodeos.security.grant("op", "*")
    return sim, topo, fabric, ships, catalog, cred


class TestResonanceField:
    def test_observe_accumulates_coupling(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        field = ResonanceField(sim, decay=1.0)
        ships[0].acquire_role(CachingRole())
        ships[0].record_fact("content-request", "x")
        field.observe(ships.values())
        assert field.coupling(CachingRole.role_id, "content-request") > 0

    def test_decay_fades_stale_couplings(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        field = ResonanceField(sim, decay=0.5)
        ships[0].acquire_role(CachingRole())
        ships[0].record_fact("content-request", "x")
        field.observe(ships.values())
        strong = field.coupling(CachingRole.role_id, "content-request")
        ships[0].knowledge.sweep(1e9)  # all facts die
        field.observe(ships.values())
        assert field.coupling(CachingRole.role_id,
                              "content-request") < strong

    def test_emergence_candidates_cross_threshold(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        field = ResonanceField(sim, decay=1.0, emergence_threshold=2.0)
        # Ship 0 holds caching + strong demand facts -> coupling builds.
        ships[0].acquire_role(CachingRole())
        for key in range(4):
            ships[0].record_fact("content-request", key, weight=2.0)
        for _ in range(3):
            field.observe(ships.values())
        # Ship 1 has the same kind of demand but no caching role.
        for key in range(4):
            ships[1].record_fact("content-request", key, weight=2.0)
        candidates = field.emergent_candidates(ships[1], catalog)
        assert candidates
        assert candidates[0][0] == CachingRole.role_id

    def test_no_emergence_for_held_roles(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        field = ResonanceField(sim, decay=1.0, emergence_threshold=0.01)
        ships[0].acquire_role(CachingRole())
        ships[0].record_fact("content-request", "x", weight=3.0)
        field.observe(ships.values())
        assert field.emergent_candidates(ships[0], catalog) == []

    def test_strongest_couplings_sorted(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        field = ResonanceField(sim, decay=1.0)
        ships[0].acquire_role(CachingRole())
        ships[0].record_fact("content-request", "x", weight=3.0)
        ships[0].record_fact("flow", "f", weight=0.5)
        field.observe(ships.values())
        tops = field.strongest_couplings(top=2)
        assert tops[0][2] >= tops[1][2]


class TestWanderingEngine:
    def test_pulse_sweeps_dead_facts(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred)
        ships[0].record_fact("content-request", "old")
        sim.call_in(2000.0, lambda: None)
        sim.run()
        report = engine.pulse()
        assert report.facts_evicted == 1

    def test_function_dies_with_its_facts(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred)
        role = ships[0].acquire_role(CachingRole())
        role.packets_seen = 5  # exercised at least once
        ships[0].record_fact("content-request", "k")
        engine.pulse()
        assert ships[0].has_role(CachingRole.role_id)  # facts alive
        sim.call_in(2000.0, lambda: None)
        sim.run()
        report = engine.pulse()
        assert report.functions_died == 1
        assert not ships[0].has_role(CachingRole.role_id)

    def test_modal_roles_never_fact_expire(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred)
        role = ships[0].acquire_role(FusionRole(), modal=True)
        role.packets_seen = 5
        sim.call_in(2000.0, lambda: None)
        sim.run()
        engine.pulse()
        assert ships[0].has_role(FusionRole.role_id)

    def test_vertical_switch_consumes_next_step(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred)
        ships[0].next_step.set_next(CachingRole.role_id)
        report = engine.pulse()
        assert report.vertical_switches == 1
        assert ships[0].active_role_id == CachingRole.role_id
        assert ships[0].has_role(CachingRole.role_id)  # auto-acquired

    def test_horizontal_replication_toward_demand(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred,
                                 migrate_bias=1.0, min_attraction=0.5)
        holder = ships[0].acquire_role(CachingRole())
        ships[0].record_fact("content-request", "here", weight=2.0)
        # Demand concentrates at ship 1, which lacks the role.
        for key in range(5):
            ships[1].record_fact("content-request", key, weight=3.0)
        report = engine.pulse()
        sim.run()
        assert report.replications == 1
        assert ships[1].has_role(CachingRole.role_id)
        assert ships[0].has_role(CachingRole.role_id)  # local demand kept it

    def test_horizontal_migration_when_support_collapses(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred,
                                 migrate_bias=1.0, min_attraction=0.5,
                                 settle_threshold=1.5)
        # Local support is only the acquisition bootstrap fact (weight
        # 1.0 < settle threshold): the function moves rather than copies.
        ships[0].acquire_role(CachingRole())
        for key in range(5):
            ships[1].record_fact("content-request", key, weight=3.0)
        report = engine.pulse()
        sim.run()
        assert report.migrations == 1
        assert not ships[0].has_role(CachingRole.role_id)  # moved away
        assert ships[1].has_role(CachingRole.role_id)

    def test_delegation_follows_task_origin(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        engine = WanderingEngine(sim, ships, catalog, credential=cred)
        delegate = ships[0].acquire_role(DelegationRole())
        # All tasks come from node 2 (two hops away).
        for _ in range(4):
            delegate.origins[2] = delegate.origins.get(2, 0) + 1
        ships[0].record_fact("task-origin", 2, weight=2.0)
        engine.pulse()
        sim.run()
        # The role hopped toward node 2 (to neighbour 1).
        assert ships[1].has_role(DelegationRole.role_id)

    def test_usage_statistics_structure(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        engine = WanderingEngine(sim, ships, catalog, credential=cred,
                                 migrate_bias=1.0, min_attraction=0.5)
        ships[0].acquire_role(CachingRole())
        for key in range(5):
            ships[1].record_fact("content-request", key, weight=3.0)
        engine.pulse()
        stats = engine.usage_statistics()
        assert CachingRole.role_id in stats
        assert sum(stats[CachingRole.role_id].values()) >= 1


class TestNetbot:
    def test_netbot_travels_and_docks(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        module = HardwareModule("fn.transcoding", speedup=20.0)
        bot = Netbot(sim, module, location=0, credential=cred,
                     hop_transit_time=10.0)
        bot.dispatch(ships, target=2)
        sim.run(until=100.0)
        assert bot.state == NetbotState.DOCKED
        assert bot.location == 2
        assert bot.hops_travelled == 2
        assert ships[2].backplane.hardware_speedup("fn.transcoding") == 20.0
        assert ships[2].nodeos.has_driver(module.driver.code_id)

    def test_netbot_rejected_without_credential(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        module = HardwareModule("fn.fusion")
        bot = Netbot(sim, module, location=0, credential=None,
                     hop_transit_time=5.0)
        bot.dispatch(ships, target=1)
        sim.run(until=50.0)
        assert bot.state == NetbotState.REJECTED

    def test_netbot_reroutes_around_failure(self):
        sim, topo, fabric, ships, catalog, cred = small_network(
            4, topo_factory=ring_topology)
        module = HardwareModule("fn.caching")
        bot = Netbot(sim, module, location=0, credential=cred,
                     hop_transit_time=10.0)
        topo.set_link_state(0, 1, False)  # force the long way round
        bot.dispatch(ships, target=1)
        sim.run(until=500.0)
        assert bot.state == NetbotState.DOCKED
        assert bot.hops_travelled == 3  # 0 -> 3 -> 2 -> 1

    def test_netbot_undock(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        module = HardwareModule("fn.fusion")
        bot = Netbot(sim, module, location=0, credential=cred,
                     hop_transit_time=1.0)
        bot.dispatch(ships, target=1)
        sim.run(until=10.0)
        assert bot.state == NetbotState.DOCKED
        assert bot.undock(ships[1])
        assert ships[1].backplane.hardware_speedup("fn.fusion") == 1.0

    def test_docked_netbot_cannot_be_dispatched_again(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=1.0)
        bot.dispatch(ships, target=0)
        sim.run()
        assert bot.state == NetbotState.DOCKED
        with pytest.raises(RuntimeError, match="undock"):
            bot.dispatch(ships, target=1)
        sim.run()
        assert bot.location == 0
        assert ships[1].backplane.describe()["modules"] == []
        assert bot.undock(ships[0])
        assert ships[0].backplane.describe()["modules"] == []

    def test_second_dispatch_before_departure_refused(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=1.0)
        bot.dispatch(ships, target=2)
        assert bot.state == NetbotState.IN_TRANSIT
        with pytest.raises(RuntimeError, match="already moving"):
            bot.dispatch(ships, target=2)
        sim.run()
        assert bot.state == NetbotState.DOCKED
        assert ships[2].backplane.describe()["modules"] == ["fn.caching"]


class TestNetbotRefusedDock:
    """Regression: a module the backplane refused left the driver its
    netbot had installed, so the ship kept the driver of hardware it
    never received."""

    @staticmethod
    def _send(sim, ships, cred, function_id):
        bot = Netbot(sim, HardwareModule(function_id), location=0,
                     credential=cred, hop_transit_time=1.0)
        bot.dispatch(ships, target=1)
        sim.run()
        return bot

    def test_refused_module_takes_its_driver_back(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        bots = [self._send(sim, ships, cred, fn)
                for fn in ("fn.caching", "fn.fusion", "fn.boosting")]
        assert [b.state for b in bots] == [
            NetbotState.DOCKED, NetbotState.DOCKED, NetbotState.REJECTED]
        nodeos = ships[1].nodeos
        assert [nodeos.has_driver(b.module.driver.code_id)
                for b in bots] == [True, True, False]
        assert ships[1].backplane.rejections == 1

    def test_driver_of_a_docked_module_stays(self):
        sim, topo, fabric, ships, catalog, cred = small_network(2)
        bots = [self._send(sim, ships, cred, fn)
                for fn in ("fn.caching", "fn.caching", "fn.caching")]
        assert [b.state for b in bots] == [
            NetbotState.DOCKED, NetbotState.DOCKED, NetbotState.REJECTED]
        assert ships[1].nodeos.has_driver("driver:fn.caching")
        assert ships[1].backplane.rejections == 1


class TestNetbotJourneyTiming:
    """Exact simulated times of a journey: a hop takes
    ``hop_transit_time``, a link that fails mid-transit sends the bot
    back to plan from where it stood, and a bot with no path re-plans
    every ``hop_transit_time`` until it strands after 50 tries."""

    @staticmethod
    def _watch(sim):
        seen = []
        sim.trace.subscribe("netbot", lambda rec: seen.append(
            (rec.time, rec.topic)))
        return seen

    def test_line_journey_times(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        seen = self._watch(sim)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=10.0)
        bot.dispatch(ships, target=2)
        sim.run()
        assert bot.itinerary == [(0.0, 0), (10.0, 1), (20.0, 2)]
        assert seen == [(0.0, "netbot.depart"), (10.0, "netbot.hop"),
                        (20.0, "netbot.hop"), (20.0, "netbot.dock")]
        assert ships[2].reconfig_events[-1][0] == 20.0

    def test_link_down_mid_transit_replans_from_origin(self):
        sim, topo, fabric, ships, catalog, cred = small_network(
            4, topo_factory=ring_topology)
        seen = self._watch(sim)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=10.0)
        bot.dispatch(ships, target=1)
        sim.call_at(5.0, topo.set_link_state, 0, 1, False)
        sim.run(until=15.0)
        # The transit toward 1 ended at t=10 on a dead link: the bot
        # stayed at 0 and set off the long way round.
        assert bot.location == 0
        assert bot.hops_travelled == 0
        assert bot.state == NetbotState.IN_TRANSIT
        sim.run()
        assert bot.itinerary == [(0.0, 0), (20.0, 3), (30.0, 2), (40.0, 1)]
        assert bot.hops_travelled == 3
        assert bot.state == NetbotState.DOCKED
        assert seen == [(0.0, "netbot.depart"), (20.0, "netbot.hop"),
                        (30.0, "netbot.hop"), (40.0, "netbot.hop"),
                        (40.0, "netbot.dock")]

    def test_missing_target_strands_announced(self):
        """Regression: a target missing from the ``ships`` map stranded
        the netbot without a ``netbot.stranded`` record."""
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        seen = self._watch(sim)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=10.0)
        bot.dispatch({0: ships[0], 1: ships[1]}, target=2)
        sim.run()
        assert bot.state == NetbotState.STRANDED
        assert seen == [(0.0, "netbot.depart"), (10.0, "netbot.hop"),
                        (20.0, "netbot.hop"), (20.0, "netbot.stranded")]

    def test_target_dying_during_last_hop_strands_announced(self):
        """Regression: a target that died while the netbot was on its
        last hop stranded it without a ``netbot.stranded`` record."""
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        seen = self._watch(sim)
        strands = []
        sim.trace.subscribe("netbot.stranded",
                            lambda rec: strands.append(rec.fields))
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=10.0)
        bot.dispatch(ships, target=2)
        sim.call_at(15.0, ships[2].die)
        sim.run()
        assert bot.state == NetbotState.STRANDED
        assert seen == [(0.0, "netbot.depart"), (10.0, "netbot.hop"),
                        (20.0, "netbot.hop"), (20.0, "netbot.stranded")]
        assert strands == [{"netbot": bot.netbot_id, "at": 2}]

    def test_strands_after_fifty_replans(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        topo.set_link_state(1, 2, False)
        seen = self._watch(sim)
        bot = Netbot(sim, HardwareModule("fn.caching"), location=0,
                     credential=cred, hop_transit_time=1.0)
        bot.dispatch(ships, target=2)
        sim.run()
        assert seen == [(0.0, "netbot.depart"), (50.0, "netbot.stranded")]
        assert bot.state == NetbotState.STRANDED
        assert bot.location == 0


class TestWanderingNetwork:
    def test_builds_ship_per_node(self):
        wn = WanderingNetwork(ring_topology(5))
        assert len(wn.ships) == 5
        assert all(s.alive for s in wn.ships.values())

    def test_pulse_runs_periodically(self):
        wn = WanderingNetwork(ring_topology(4),
                              WanderingNetworkConfig(pulse_interval=5.0))
        wn.run(until=26.0)
        assert wn.engine.pulses == 5

    def test_publish_and_audit_loop(self):
        wn = WanderingNetwork(ring_topology(3),
                              WanderingNetworkConfig(publish_interval=10.0))
        wn.run(until=25.0)
        assert wn.reputation.audits >= 6
        assert wn.community() == sorted(wn.ships)

    def test_deploy_role_and_census(self):
        wn = WanderingNetwork(ring_topology(4))
        wn.deploy_role(FusionRole, at=0, activate=True)
        census = wn.role_census()
        assert census[FusionRole.role_id] == [0]
        assert wn.virtual_networks()[FusionRole.role_id] == [0]

    def test_role_entropy_zero_when_homogeneous(self):
        wn = WanderingNetwork(ring_topology(4))
        assert wn.role_entropy() == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WanderingNetworkConfig(router="carrier-pigeon")

    def test_resonance_disabled(self):
        wn = WanderingNetwork(
            ring_topology(3),
            WanderingNetworkConfig(resonance_enabled=False))
        assert wn.resonance is None
        wn.run(until=15.0)  # pulses still work

    def test_end_to_end_traffic_with_adaptive_router(self):
        wn = WanderingNetwork(
            line_topology(3),
            WanderingNetworkConfig(router="adaptive", hello_interval=2.0))
        got = []
        wn.ship(2).on_deliver(lambda p, f: got.append(p))
        # Let hellos establish routes first.
        wn.run(until=15.0)
        wn.ship(0).send_toward(Datagram(0, 2, size_bytes=100,
                                        created_at=wn.sim.now))
        wn.run(until=30.0)
        assert len(got) == 1

    def test_add_ship_runtime(self):
        wn = WanderingNetwork(line_topology(2))
        wn.topology.add_link(1, 99)
        ship = wn.add_ship(99)
        assert ship.ship_id == 99
        assert 99 in wn.ships

    def test_snapshot_structure(self):
        wn = WanderingNetwork(ring_topology(3))
        wn.deploy_role(CachingRole, at=1, activate=True)
        snap = wn.snapshot()
        assert snap["ships"][1]["active"] == CachingRole.role_id
        assert "entropy" in snap


class TestWanderingNetworkAggregation:
    def test_form_aggregate_explicit(self):
        from repro.substrates.phys import ring_topology
        wn = WanderingNetwork(ring_topology(4))
        agg = wn.form_aggregate([0, 1], name="pair")
        assert agg.member_ids == [0, 1]
        assert wn.aggregates == [agg]

    def test_aggregate_function_clusters_adjacent_only(self):
        from repro.functions import CachingRole
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(line_topology(6))
        # Caching active on 0,1 (adjacent) and 4 (isolated).
        for node in (0, 1, 4):
            wn.deploy_role(CachingRole, at=node, activate=True)
        formed = wn.aggregate_function_clusters(min_size=2)
        assert len(formed) == 1
        assert formed[0].member_ids == [0, 1]
        assert formed[0].has_role(CachingRole.role_id)

    def test_split_clusters_form_separate_aggregates(self):
        from repro.functions import CachingRole
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(line_topology(7))
        for node in (0, 1, 4, 5):
            wn.deploy_role(CachingRole, at=node, activate=True)
        formed = wn.aggregate_function_clusters(min_size=2)
        member_sets = sorted(tuple(a.member_ids) for a in formed)
        assert member_sets == [(0, 1), (4, 5)]

    def test_no_aggregate_below_min_size(self):
        from repro.functions import CachingRole
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(line_topology(4))
        wn.deploy_role(CachingRole, at=0, activate=True)
        assert wn.aggregate_function_clusters(min_size=2) == []


class TestWanderingNetworkRouterVariants:
    def test_dv_router_network_delivers(self):
        from repro.core import WanderingNetworkConfig
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(
            line_topology(4),
            WanderingNetworkConfig(router="dv", hello_interval=2.0))
        got = []
        wn.ship(3).on_deliver(lambda p, f: got.append(p))
        wn.run(until=15.0)   # let advertisements converge
        wn.ship(0).send_toward(Datagram(0, 3, created_at=wn.sim.now))
        wn.run(until=20.0)
        assert len(got) == 1

    def test_flooding_router_network_delivers(self):
        from repro.core import WanderingNetworkConfig
        from repro.substrates.phys import ring_topology
        wn = WanderingNetwork(
            ring_topology(5),
            WanderingNetworkConfig(router="flooding"))
        got = []
        wn.ship(3).on_deliver(lambda p, f: got.append(p))
        wn.ship(0).send_toward(Datagram(0, 3, created_at=wn.sim.now))
        wn.run(until=5.0)
        assert len(got) >= 1


class TestNetbotStranded:
    def test_netbot_strands_when_permanently_partitioned(self):
        sim, topo, fabric, ships, catalog, cred = small_network(3)
        topo.set_link_state(1, 2, False)   # target unreachable forever
        bot = Netbot(sim, HardwareModule("fn.fusion"), location=0,
                     credential=cred, hop_transit_time=1.0)
        bot.dispatch(ships, target=2)
        sim.run(until=500.0)
        assert bot.state == NetbotState.STRANDED
        # The bot never departs toward an unreachable target: it waits,
        # replans, and eventually gives up where it started.
        assert bot.location == 0


class TestOverloadOffload:
    def test_hot_ship_offloads_active_function(self):
        from repro.core import WanderingNetworkConfig
        from repro.functions import TranscodingRole
        from repro.substrates.phys import line_topology
        from repro.workloads import MediaStreamSource
        wn = WanderingNetwork(
            line_topology(4, latency=0.01),
            WanderingNetworkConfig(seed=97, pulse_interval=2.0,
                                   resonance_enabled=False,
                                   horizontal_wandering=False,
                                   overload_offload=True,
                                   cpu_backlog_setpoint=0.001,
                                   cpu_ops_per_second=3e5))
        # A slow CPU + heavy transcoding load saturates ship 1.
        wn.deploy_role(TranscodingRole, at=1, activate=True)
        MediaStreamSource(wn.sim, wn.ships, 0, 3, rate_pps=20.0,
                          packet_bytes=1200).start()
        wn.run(until=60.0)
        assert wn.offload_events, "the overload controller never fired"
        t, frm, to, role = wn.offload_events[0]
        assert frm == 1
        assert role == TranscodingRole.role_id
        assert wn.ships[to].has_role(TranscodingRole.role_id)

    def test_offload_disabled_by_default(self):
        from repro.core import WanderingNetworkConfig
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(line_topology(3),
                              WanderingNetworkConfig(seed=97))
        assert not hasattr(wn.config, "nonexistent")
        assert wn.offload_events == []
        assert not any(c.metric == "cpu-backlog"
                       for c in wn.feedback.controllers())


class TestExclusionFromWandering:
    def test_dishonest_ship_never_receives_wandering_functions(self):
        from repro.core import WanderingNetworkConfig
        from repro.substrates.phys import line_topology
        from repro.workloads import ContentWorkload
        wn = WanderingNetwork(
            line_topology(4, latency=0.02),
            WanderingNetworkConfig(seed=99, pulse_interval=5.0,
                                   publish_interval=5.0,
                                   resonance_enabled=False,
                                   min_attraction=0.3,
                                   migrate_bias=1.0))
        # Ship 2 lies about itself and will be excluded by audits.
        wn.ship(2).honest = False
        wn.deploy_role(CachingRole, at=1, activate=True)
        web = ContentWorkload(wn.sim, wn.ships, clients=[3], origin=0,
                              n_items=5, zipf_s=2.0,
                              request_interval=0.3)
        web.start()
        wn.run(until=200.0)
        assert wn.reputation.excluded(2)
        assert 2 not in wn.community()
        # Despite heavy demand passing through ship 2, no wandering
        # function ever landed on the excluded ship.
        assert not wn.ship(2).has_role(CachingRole.role_id)
        targets = {e.dst for e in wn.engine.events
                   if e.kind in ("migrate", "replicate")}
        assert 2 not in targets


class TestShutdown:
    def test_shutdown_drains_the_agenda(self):
        from repro.core import WanderingNetworkConfig
        from repro.substrates.phys import line_topology
        wn = WanderingNetwork(
            line_topology(3),
            WanderingNetworkConfig(router="adaptive",
                                   hello_interval=2.0))
        wn.run(until=10.0)
        wn.shutdown()
        # Without shutdown the periodic tasks would run forever; with
        # it, an unbounded run terminates.
        wn.sim.run()
        assert wn.sim.pending_events == 0
