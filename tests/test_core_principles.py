"""Tests for the four WLI principles' machinery: DCP congruence,
SRP self-reference, MFP feedback, and supporting pieces."""

import pytest

from repro.core.congruence import CongruenceTracker, congruence
from repro.core.feedback import Dimension, FeedbackBus, FeedbackController
from repro.core.generations import Capability, Generation, capabilities, classify, supports
from repro.core.selfref import (CommunityDirectory, ReputationSystem,
                                ShipAggregate, clusters_by_function)
from repro.core.ship import Ship
from repro.functions import CachingRole, FusionRole
from repro.routing import StaticRouter
from repro.substrates.phys import NetworkFabric, line_topology
from repro.substrates.sim import Simulator


class TestCongruence:
    def test_identical_structures_score_one(self):
        s = {"functions": ("a",), "hardware": (), "knowledge": ("k",),
             "interface": ("wli/1",)}
        assert congruence(s, s) == pytest.approx(1.0)

    def test_disjoint_structures_score_zero(self):
        a = {"functions": ("x",), "hardware": ("h1",),
             "knowledge": ("k1",), "interface": ("i1",)}
        b = {"functions": ("y",), "hardware": ("h2",),
             "knowledge": ("k2",), "interface": ("i2",)}
        assert congruence(a, b) == pytest.approx(0.0)

    def test_empty_components_count_as_matching(self):
        a = {"functions": ("x",), "hardware": (), "knowledge": (),
             "interface": ()}
        b = {"functions": ("x",), "hardware": (), "knowledge": (),
             "interface": ()}
        assert congruence(a, b) == pytest.approx(1.0)

    def test_partial_overlap_between_zero_and_one(self):
        a = {"functions": ("x", "y"), "hardware": (), "knowledge": (),
             "interface": ("i",)}
        b = {"functions": ("y", "z"), "hardware": (), "knowledge": (),
             "interface": ("i",)}
        score = congruence(a, b)
        assert 0.0 < score < 1.0

    def test_tracker_reflection_gain(self):
        tracker = CongruenceTracker()
        shuttle = {"functions": ("f",), "hardware": (), "knowledge": (),
                   "interface": ()}
        before = {"functions": (), "hardware": (), "knowledge": (),
                  "interface": ()}
        after = {"functions": ("f",), "hardware": (), "knowledge": (),
                 "interface": ()}
        assert tracker.record_processed(1.0, shuttle, before, after) is None
        assert tracker.history() == [(1.0, congruence(before, shuttle),
                                      congruence(after, shuttle))]
        assert tracker.reflection_gain() > 0
        assert tracker.shuttles_processed == 1

    def test_tracker_window_bounds_history(self):
        tracker = CongruenceTracker(window=3)
        s = {"functions": (), "hardware": (), "knowledge": (),
             "interface": ()}
        for i in range(10):
            tracker.record_processed(float(i), s, s, s)
        assert tracker.history() == [(7.0, 1.0, 1.0), (8.0, 1.0, 1.0),
                                     (9.0, 1.0, 1.0)]
        assert tracker.shuttles_processed == 10

    def test_tracker_scores_emissions_when_read(self):
        tracker = CongruenceTracker(window=2)
        ship = {"functions": ("f",), "hardware": (), "knowledge": (),
                "interface": ("i",)}
        shuttles = [dict(ship, functions=fns)
                    for fns in [("g",), ("f",), ("f", "g")]]
        for i, shuttle in enumerate(shuttles):
            assert tracker.record_emitted(float(i), shuttle, ship) is None
        assert tracker.shuttles_emitted == 3
        assert tracker.emission_congruence() == (
            congruence(ship, shuttles[1]) + congruence(ship, shuttles[2])) / 2


class TestGenerations:
    def test_ladder_is_monotone(self):
        caps = [capabilities(g) for g in Generation]
        for lower, higher in zip(caps, caps[1:]):
            assert lower < higher

    def test_g1_is_ee_only(self):
        assert capabilities(Generation.G1) == {Capability.EE_PROGRAMMING}

    def test_g4_has_self_distribution(self):
        assert supports(Generation.G4, Capability.SELF_DISTRIBUTION)
        assert not supports(Generation.G3, Capability.SELF_DISTRIBUTION)

    def test_classify_matches_paper_examples(self):
        # ANTS: EE-layer programmability -> 1G.
        assert classify(ee_programmable=True) == Generation.G1
        # Genesis/Tempest/ANON: + NodeOS -> 2G.
        assert classify(ee_programmable=True,
                        nodeos_programmable=True) == Generation.G2
        # Viator: self-distribution -> 4G.
        assert classify(self_distributing=True) == Generation.G4

    def test_classify_rejects_passive_network(self):
        with pytest.raises(ValueError):
            classify()


def two_ships():
    sim = Simulator(seed=1)
    topo = line_topology(2)
    fabric = NetworkFabric(sim, topo)
    router = StaticRouter(topo)
    a = Ship(sim, fabric, 0, router=router)
    b = Ship(sim, fabric, 1, router=router, honest=False)
    return sim, a, b


class TestSelfReference:
    def test_directory_publish_lookup(self):
        sim, a, b = two_ships()
        directory = CommunityDirectory(sim)
        directory.publish(a)
        assert directory.lookup(0)["ship"] == 0
        assert directory.lookup(99) is None
        assert len(directory) == 1

    def test_directory_age(self):
        sim, a, b = two_ships()
        directory = CommunityDirectory(sim)
        directory.publish(a)
        sim.call_in(7.0, lambda: None)
        sim.run()
        assert directory.age(0) == pytest.approx(7.0)
        assert directory.age(1) == float("inf")

    def test_honest_ship_keeps_reputation(self):
        sim, a, b = two_ships()
        directory = CommunityDirectory(sim)
        rep = ReputationSystem(sim, directory)
        for _ in range(5):
            directory.publish(a)
            assert rep.audit(a)
        assert rep.score(0) == 1.0
        assert not rep.excluded(0)

    def test_dishonest_ship_gets_excluded(self):
        sim, a, b = two_ships()
        directory = CommunityDirectory(sim)
        rep = ReputationSystem(sim, directory)
        for _ in range(3):
            directory.publish(b)
            assert not rep.audit(b)
        assert rep.excluded(1)
        assert rep.community([0, 1]) == [0]
        assert rep.lies_detected == 3

    def test_reputation_recovers_after_honesty(self):
        sim, a, b = two_ships()
        directory = CommunityDirectory(sim)
        rep = ReputationSystem(sim, directory)
        directory.publish(b)
        rep.audit(b)
        rep.audit(b)
        b.honest = True
        score_bad = rep.score(1)
        for _ in range(10):
            directory.publish(b)
            rep.audit(b)
        assert rep.score(1) > score_bad
        assert not rep.excluded(1)

    def test_aggregate_joint_architecture(self):
        sim, a, b = two_ships()
        a.acquire_role(FusionRole())
        b.acquire_role(CachingRole())
        agg = ShipAggregate(sim, [a, b], name="pair")
        assert agg.has_role(FusionRole.role_id)
        assert agg.has_role(CachingRole.role_id)
        assert FusionRole.role_id in agg.joint_roles()
        assert agg.member_for_role(CachingRole.role_id) is b

    def test_aggregate_needs_two_ships(self):
        sim, a, b = two_ships()
        with pytest.raises(ValueError):
            ShipAggregate(sim, [a])

    def test_aggregate_dissolve(self):
        sim, a, b = two_ships()
        agg = ShipAggregate(sim, [a, b])
        agg.dissolve()
        assert not agg.active
        agg.dissolve()  # idempotent

    def test_clusters_by_function(self):
        sim, a, b = two_ships()
        a.acquire_role(FusionRole())
        a.assign_role(FusionRole.role_id)
        clusters = clusters_by_function([a, b])
        assert clusters[FusionRole.role_id] == [0]
        assert clusters[None] == [1]


class TestFeedback:
    def test_observe_smooths_with_ewma(self):
        sim = Simulator()
        bus = FeedbackBus(sim, alpha=0.5)
        bus.observe(Dimension.PER_NODE, "n1", "load", 1.0)
        level = bus.observe(Dimension.PER_NODE, "n1", "load", 0.0)
        assert level == pytest.approx(0.5)

    def test_levels_are_per_tag(self):
        sim = Simulator()
        bus = FeedbackBus(sim)
        bus.observe(Dimension.PER_NODE, "n1", "load", 1.0)
        bus.observe(Dimension.PER_SESSION, "s1", "latency", 9.0)
        assert bus.level(Dimension.PER_NODE, "n1", "load") == 1.0
        assert bus.level(Dimension.PER_SESSION, "s1", "latency") == 9.0
        assert bus.level(Dimension.PER_NODE, "n2", "load") is None

    def test_active_dimensions(self):
        sim = Simulator()
        bus = FeedbackBus(sim)
        for dim in Dimension.ALL:
            bus.observe(dim, "k", "m", 1.0)
        assert bus.active_dimensions() == sorted(Dimension.ALL)

    def test_controller_fires_high_with_hysteresis(self):
        sim = Simulator()
        bus = FeedbackBus(sim, alpha=1.0)
        fired = []
        ctrl = FeedbackController(
            Dimension.PER_SESSION, "latency", setpoint=1.0,
            on_high=lambda key, v, sp: fired.append(("high", key)),
            on_low=lambda key, v, sp: fired.append(("low", key)),
            hysteresis=0.1)
        bus.attach(ctrl)
        bus.observe(Dimension.PER_SESSION, "s", "latency", 2.0)
        bus.observe(Dimension.PER_SESSION, "s", "latency", 2.0)  # no re-fire
        bus.observe(Dimension.PER_SESSION, "s", "latency", 0.5)
        assert fired == [("high", "s"), ("low", "s")]
        assert ctrl.high_firings == 1 and ctrl.low_firings == 1

    def test_controller_dead_band_no_fire(self):
        sim = Simulator()
        ctrl = FeedbackController(Dimension.PER_NODE, "m", setpoint=1.0,
                                  hysteresis=0.2)
        assert ctrl.update("k", 1.1) is None   # inside the band
        assert ctrl.update("k", 1.3) == "high"

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            FeedbackController("d", "m", setpoint=0.0)
        with pytest.raises(ValueError):
            FeedbackController("d", "m", setpoint=1.0, hysteresis=1.5)

    def test_snapshot_structure(self):
        sim = Simulator()
        bus = FeedbackBus(sim)
        bus.observe(Dimension.PER_NODE, "n1", "load", 0.25)
        snap = bus.snapshot()
        assert snap[Dimension.PER_NODE]["n1/load"] == 0.25


class TestJointKnowledge:
    def test_joint_knowledge_sums_members(self):
        sim, a, b = two_ships()
        a.record_fact("flow", "f1", weight=2.0)
        b.record_fact("flow", "f2", weight=3.0)
        b.record_fact("content-request", "k", weight=1.0)
        agg = ShipAggregate(sim, [a, b])
        joint = agg.joint_knowledge(sim.now)
        assert joint["flow"] == pytest.approx(5.0)
        assert joint["content-request"] == pytest.approx(1.0)
