"""Unit + integration tests for ships, shuttles and jets."""

import pytest

from repro.core.congruence import CongruenceTracker, congruence
from repro.core.generations import Generation
from repro.core.ship import Ship, ShipError
from repro.core.shuttle import (OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE,
                                OP_DEPLOY_QUANTUM, OP_INSTALL_CODE,
                                OP_LOAD_BITSTREAM, OP_SET_NEXT_STEP,
                                OP_TRANSCRIBE_GENOME, Directive, Jet,
                                Shuttle)
from repro.functions import (CachingRole, FusionRole, NextStepRole,
                             TranscodingRole)
from repro.routing import StaticRouter
from repro.substrates.hardware import Bitstream
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import Datagram, NetworkFabric, line_topology
from repro.substrates.sim import Simulator


def make_network(n=3, generation=Generation.G4, **ship_kw):
    sim = Simulator(seed=1)
    topo = line_topology(n)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    router = StaticRouter(topo)
    ships = {}
    for node in topo.nodes:
        ships[node] = Ship(sim, fabric, node, router=router,
                           generation=generation, authority=authority,
                           **ship_kw)
    cred = authority.issue("operator")
    for ship in ships.values():
        ship.nodeos.security.grant("operator", "*")
    return sim, topo, fabric, ships, cred


class TestShipBasics:
    def test_ship_has_standard_next_step_module(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        assert ship.has_role(NextStepRole.role_id)
        with pytest.raises(ShipError):
            ship.release_role(NextStepRole.role_id)

    def test_acquire_and_assign_single_active_role(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        ship.acquire_role(FusionRole(), modal=True)
        ship.acquire_role(CachingRole())
        ship.assign_role(FusionRole.role_id)
        assert ship.active_role_id == FusionRole.role_id
        ship.assign_role(CachingRole.role_id)
        # One function at a time (Section D postulate).
        assert ship.active_role_id == CachingRole.role_id
        active_ees = [ee for ee in ship.nodeos.ees.in_priority_order()
                      if ee.state == "active"]
        assert len(active_ees) == 1

    def test_duplicate_acquire_rejected(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        ship.acquire_role(FusionRole())
        with pytest.raises(ShipError):
            ship.acquire_role(FusionRole())

    def test_release_role_frees_ee(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        ship.acquire_role(FusionRole())
        n_ees = len(ship.nodeos.ees)
        ship.release_role(FusionRole.role_id)
        assert not ship.has_role(FusionRole.role_id)
        assert len(ship.nodeos.ees) == n_ees - 1

    def test_role_change_history(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        ship.acquire_role(FusionRole())
        ship.acquire_role(CachingRole())
        ship.assign_role(FusionRole.role_id)
        ship.assign_role(CachingRole.role_id)
        prevs = [prev for _, prev, _ in ship.role_changes]
        nexts = [nxt for _, _, nxt in ship.role_changes]
        assert prevs == [None, FusionRole.role_id]
        assert nexts == [FusionRole.role_id, CachingRole.role_id]

    def test_lifecycle_die(self):
        sim, topo, fabric, ships, cred = make_network(2)
        ships[0].die()
        assert not ships[0].alive
        assert ships[0].died_at == sim.now
        # A dead ship no longer receives.
        fabric.send(1, 0, Datagram(1, 0))
        sim.run()
        assert ships[0].packets_delivered == 0

    def test_describe_and_publish_honest(self):
        sim, topo, fabric, ships, cred = make_network(1)
        desc = ships[0].publish()
        assert desc["ship"] == 0
        assert NextStepRole.role_id in desc["roles"]

    def test_dishonest_ship_misreports(self):
        sim = Simulator(seed=1)
        topo = line_topology(1)
        fabric = NetworkFabric(sim, topo)
        ship = Ship(sim, fabric, 0, honest=False)
        assert ship.publish()["roles"] != ship.describe()["roles"]


class TestShipDataPath:
    def test_end_to_end_forwarding(self):
        sim, topo, fabric, ships, cred = make_network(3)
        got = []
        ships[2].on_deliver(lambda p, f: got.append(p))
        ships[0].send_toward(Datagram(0, 2, size_bytes=100))
        sim.run()
        assert len(got) == 1

    def test_active_fusion_role_reduces_traffic(self):
        sim, topo, fabric, ships, cred = make_network(3)
        mid = ships[1]
        mid.acquire_role(FusionRole(window=4, ratio=0.25))
        mid.assign_role(FusionRole.role_id)
        got = []
        ships[2].on_deliver(lambda p, f: got.append(p))
        for i in range(8):
            ships[0].send_toward(Datagram(
                0, 2, size_bytes=1000, flow_id="s1",
                payload={"kind": "media", "stream": "s1"}))
        sim.run()
        # 8 packets in 2 windows of 4 -> 2 fused packets.
        assert len(got) == 2
        assert all(p.meta.get("fused") for p in got)
        role = mid.role(FusionRole.role_id)
        assert role.reduction_ratio < 0.5

    def test_comm_pattern_tracks_neighbors(self):
        sim, topo, fabric, ships, cred = make_network(3)
        ships[0].send_toward(Datagram(0, 2, size_bytes=100))
        sim.run()
        assert ships[1].comm_pattern()  # saw traffic both ways

    def test_record_fact_dedups(self):
        sim, topo, fabric, ships, cred = make_network(1)
        ship = ships[0]
        f1 = ship.record_fact("demand", "x")
        f2 = ship.record_fact("demand", "x")
        assert f1 is f2
        assert len(ship.knowledge) == 1


class TestShuttleProcessing:
    def test_install_code_via_shuttle(self):
        sim, topo, fabric, ships, cred = make_network(2)
        module = FusionRole.code_module()
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_INSTALL_CODE, module=module)], credential=cred)
        ships[0].send_toward(shuttle)
        sim.run()
        assert FusionRole.role_id in ships[1].nodeos.cache
        assert ships[1].shuttles_processed == 1

    def test_acquire_and_activate_role_via_shuttle(self):
        sim, topo, fabric, ships, cred = make_network(2)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=TranscodingRole.role_id,
                      module=TranscodingRole.code_module()),
            Directive(OP_ACTIVATE_ROLE, role_id=TranscodingRole.role_id),
        ], credential=cred)
        ships[0].send_toward(shuttle)
        sim.run()
        assert ships[1].has_role(TranscodingRole.role_id)
        assert ships[1].active_role_id == TranscodingRole.role_id

    def test_unauthorized_shuttle_denied(self):
        sim, topo, fabric, ships, cred = make_network(2)
        bad_cred = ships[0].nodeos.authority.issue("nobody")
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id)],
            credential=bad_cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["denied"] == [OP_ACQUIRE_ROLE]
        assert not ships[1].has_role(FusionRole.role_id)

    def test_generation_gates_hw_reconfiguration(self):
        sim, topo, fabric, ships, cred = make_network(
            2, generation=Generation.G2)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_LOAD_BITSTREAM,
                      bitstream=Bitstream("fn.fusion", cells=128))],
            credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["denied"] == [OP_LOAD_BITSTREAM]

    def test_g3_ship_loads_bitstream(self):
        sim, topo, fabric, ships, cred = make_network(
            2, generation=Generation.G3)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_LOAD_BITSTREAM,
                      bitstream=Bitstream("fn.fusion", cells=128,
                                          speedup=9.0))],
            credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["applied"] == [OP_LOAD_BITSTREAM]
        assert ships[1].fabric_hw.hardware_speedup("fn.fusion") == 9.0
        tiers = [tier for _, tier, _ in ships[1].reconfig_events]
        assert "hardware" in tiers

    def test_set_next_step_via_shuttle(self):
        sim, topo, fabric, ships, cred = make_network(2)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")],
            credential=cred)
        ships[1].process_shuttle(shuttle, 0)
        assert ships[1].next_step.peek_next() == "fn.caching"

    def test_deploy_quantum_absorbs_facts(self):
        sim, topo, fabric, ships, cred = make_network(2)
        src = ships[0]
        src.acquire_role(CachingRole())
        for key in ("a", "b", "c"):
            src.record_fact("content-request", key)
        kq = src.knowledge.make_quantum(
            src.roles[CachingRole.role_id]["function"], sim.now,
            origin=0)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=kq, auto_acquire=True)],
            credential=cred)
        ships[1].process_shuttle(shuttle, 0)
        assert ships[1].knowledge.class_weight("content-request",
                                               sim.now) > 0
        assert ships[1].has_role(CachingRole.role_id)

    def test_morphing_shuttle_adapts_interface(self):
        sim, topo, fabric, ships, cred = make_network(2)
        shuttle = Shuttle(0, 1, directives=[],
                          interface=("alien/9",), credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["morphed"]
        assert shuttle.morphs == 1
        assert shuttle.compatible_with(ships[1].requirements())

    def test_morphing_disabled_rejects_alien_shuttle(self):
        sim, topo, fabric, ships, cred = make_network(
            2, morphing_enabled=False)
        shuttle = Shuttle(0, 1, directives=[], interface=("alien/9",),
                          credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report.get("rejected") == "interface-mismatch"
        assert ships[1].shuttles_rejected == 1

    def test_congruence_gain_positive_when_learning(self):
        sim, topo, fabric, ships, cred = make_network(2)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id,
                      module=FusionRole.code_module())], credential=cred)
        ships[1].process_shuttle(shuttle, 0)
        assert ships[1].congruence.reflection_gain() > 0

    def test_genome_transcription_clones_roles(self):
        sim, topo, fabric, ships, cred = make_network(2)
        donor = ships[0]
        donor.acquire_role(FusionRole(), modal=True)
        donor.acquire_role(CachingRole())
        donor.assign_role(FusionRole.role_id)
        shuttle = donor.make_genome_shuttle(1, credential=cred)
        ships[1].process_shuttle(shuttle, 0)
        assert ships[1].has_role(FusionRole.role_id)
        assert ships[1].has_role(CachingRole.role_id)
        assert ships[1].active_role_id == FusionRole.role_id

    def test_g2_ship_denies_genome_transcription(self):
        sim, topo, fabric, ships, cred = make_network(2)
        donor = ships[0]
        donor.acquire_role(FusionRole(), modal=True)
        shuttle = donor.make_genome_shuttle(1, credential=cred)
        ships[1].generation = Generation.G2
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["denied"] == [OP_TRANSCRIBE_GENOME]


class TestDockStructure:
    """The ship's DCP structure is cached between changes; a dock that
    changes nothing records one object as before and after."""

    def test_mutating_structure_changes_neither_cache_nor_scores(self):
        sim, topo, fabric, ships, cred = make_network(2)
        ship = ships[1]
        ship.process_shuttle(Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=CachingRole.role_id)],
            credential=cred), 0)
        ship.make_role_shuttle(CachingRole.role_id, 0, credential=cred)
        tracker = ship.congruence
        scores = (tracker.history(), tracker.reflection_gain(),
                  tracker.emission_congruence())
        want = ship.structure()
        got = ship.structure()
        assert got is not want
        got["functions"] = ("fn.forged",)
        got.clear()
        assert ship.structure() == want
        assert (tracker.history(), tracker.reflection_gain(),
                tracker.emission_congruence()) == scores

    def test_unchanging_dock_records_one_object(self):
        sim, topo, fabric, ships, cred = make_network(2)
        ship = ships[1]
        ship.congruence = CongruenceTracker(window=3)
        shuttles = [Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id=CachingRole.role_id)],
            credential=cred) for _ in range(5)]
        for shuttle in shuttles:
            ship.process_shuttle(shuttle, 0)
        records = list(ship.congruence._processed)
        assert len(records) == 3
        assert all(after is before for _, _, before, after in records)
        # One build serves every dock that left the structure alone.
        assert all(before is records[0][2] for _, _, before, _ in records)
        want = [(sim.now, congruence(ship.structure(), shuttle.structure()),
                 congruence(ship.structure(), shuttle.structure()))
                for shuttle in shuttles[-3:]]
        assert ship.congruence.history() == want
        assert ship.congruence.reflection_gain() == 0.0
        assert ship.congruence.shuttles_processed == 5

    def test_changing_dock_records_two_objects(self):
        sim, topo, fabric, ships, cred = make_network(2)
        ship = ships[1]
        ship.process_shuttle(Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=CachingRole.role_id)],
            credential=cred), 0)
        (_, _, before, after), = ship.congruence._processed
        assert after is not before
        assert CachingRole.role_id not in before["functions"]
        assert after == ship.structure()


class TestJets:
    def test_jet_replicates_through_network(self):
        sim, topo, fabric, ships, cred = make_network(4)
        jet = Jet(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=CachingRole.role_id,
                      module=CachingRole.code_module())],
            credential=cred, replicate_budget=8)
        ships[0].send_toward(jet)
        sim.run()
        # The jet wandered to every ship and deployed caching.
        deployed = [n for n in (1, 2, 3)
                    if ships[n].has_role(CachingRole.role_id)]
        assert len(deployed) >= 2

    def test_jet_rejected_without_spawn_privilege(self):
        sim, topo, fabric, ships, cred = make_network(2)
        weak = ships[0].nodeos.authority.issue("weak")
        jet = Jet(0, 1, directives=[], credential=weak)
        ships[0].send_toward(jet)
        sim.run()
        assert ships[1].shuttles_rejected >= 1

    def test_jet_respects_spawn_quota(self):
        sim, topo, fabric, ships, cred = make_network(4)
        from repro.substrates.nodeos import Quota
        for ship in ships.values():
            ship.nodeos.security.set_quota("operator",
                                           Quota(max_spawns_per_window=0))
        jet = Jet(0, 1, directives=[], credential=cred,
                  replicate_budget=8)
        ships[0].send_toward(jet)
        sim.run()
        assert all(s.jets_replicated == 0 for s in ships.values())

    def test_g2_network_rejects_jets(self):
        sim, topo, fabric, ships, cred = make_network(
            3, generation=Generation.G2)
        jet = Jet(0, 1, directives=[], credential=cred)
        ships[0].send_toward(jet)
        sim.run()
        assert ships[1].shuttles_processed == 0
        assert ships[1].shuttles_rejected >= 1


class TestFunctionPropagation:
    def test_propagate_function_reaches_neighbors(self):
        sim, topo, fabric, ships, cred = make_network(3)
        mid = ships[1]
        mid.acquire_role(CachingRole())
        mid.record_fact("content-request", "popular")
        sent = mid.propagate_function(CachingRole.role_id, credential=cred)
        assert sent == 2
        sim.run()
        assert ships[0].has_role(CachingRole.role_id)
        assert ships[2].has_role(CachingRole.role_id)

    def test_emitted_shuttle_reflects_ship_structure(self):
        sim, topo, fabric, ships, cred = make_network(2)
        ship = ships[0]
        ship.acquire_role(CachingRole())
        shuttle = ship.make_role_shuttle(CachingRole.role_id, 1,
                                         credential=cred)
        structure = shuttle.structure()
        assert CachingRole.role_id in structure["functions"]
        assert ship.congruence.emission_congruence() > 0


class TestEEQuota:
    def test_principal_ee_quota_enforced(self):
        from repro.substrates.nodeos import Quota
        sim, topo, fabric, ships, cred = make_network(2)
        ships[1].nodeos.security.set_quota("operator",
                                           Quota(max_ees=2))
        roles = [FusionRole, CachingRole, TranscodingRole]
        reports = []
        for role_cls in roles:
            shuttle = Shuttle(0, 1, directives=[
                Directive(OP_ACQUIRE_ROLE, role_id=role_cls.role_id,
                          module=role_cls.code_module())],
                credential=cred)
            reports.append(ships[1].process_shuttle(shuttle, 0))
        assert reports[0]["applied"] and reports[1]["applied"]
        assert reports[2]["denied"] == [OP_ACQUIRE_ROLE]
        assert not ships[1].has_role(TranscodingRole.role_id)
        assert any(action == "ee-quota" for _, _, action in
                   ships[1].nodeos.security.denials)

    def test_quota_tracked_per_principal(self):
        from repro.substrates.nodeos import Quota
        sim, topo, fabric, ships, cred = make_network(2)
        ships[1].nodeos.security.set_quota("operator", Quota(max_ees=1))
        other = ships[1].nodeos.authority.issue("other")
        ships[1].nodeos.security.grant("other", "*")
        ships[1].nodeos.security.set_quota("other", Quota(max_ees=1))
        r1 = ships[1].process_shuttle(Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id,
                      module=FusionRole.code_module())],
            credential=cred), 0)
        r2 = ships[1].process_shuttle(Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=CachingRole.role_id,
                      module=CachingRole.code_module())],
            credential=other), 0)
        assert r1["applied"] and r2["applied"]
