"""Tests for repro.resilience: ARQ transport, circuit breakers, the
dead-letter queue, idempotent directive application, failure-injector
quiescence, and the chaos campaigns."""

import pytest

from repro.core.ship import Ship
from repro.core.shuttle import (OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP,
                                Directive, Shuttle)
from repro.functions import CachingRole, default_catalog
from repro.resilience import (ARQ_META_KEY, CLOSED, HALF_OPEN,
                              OPEN, REASON_MAX_ATTEMPTS,
                              REASON_SHUTDOWN, REASON_SOURCE_DEAD,
                              CircuitBreaker, DeadLetterQueue,
                              LinkBreakerRegistry, ReliableTransport)
from repro.resilience.chaos import (CAMPAIGNS, Campaign, ChaosHarness,
                                    run_campaign)
from repro.routing import StaticRouter, WLIAdaptiveRouter
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import (NetworkFabric, grid_topology,
                                   line_topology, ring_topology)
from repro.substrates.phys.failures import FailureInjector
from repro.substrates.sim import Simulator

OPERATOR = "op"


def build_network(topo, seed=3):
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim, topo)
    router = StaticRouter(topo)
    authority = CredentialAuthority()
    catalog = default_catalog()
    ships = {}
    for node in topo.nodes:
        ship = Ship(sim, fabric, node, catalog=catalog, router=router,
                    authority=authority)
        ship.nodeos.security.grant(OPERATOR, "*")
        ships[node] = ship
    cred = authority.issue(OPERATOR)
    return sim, fabric, ships, cred


def role_shuttle(src_ship, dst, cred, role_id=CachingRole.role_id):
    return Shuttle(src_ship.ship_id, dst,
                   directives=[Directive(OP_ACQUIRE_ROLE, role_id=role_id),
                               Directive(OP_SET_NEXT_STEP,
                                         role_id=role_id)],
                   credential=cred, interface=src_ship.interface)


def advance(sim, until):
    # Guarantee the kernel has an event at `until` so time reaches it.
    sim.call_in(until - sim.now, lambda: None)
    sim.run(until=until)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        sim = Simulator(seed=1)
        brk = CircuitBreaker(sim, "l", failure_threshold=3, cooldown=10.0)
        assert brk.state == CLOSED and brk.admit() and not brk.blocked()
        brk.record_failure()
        brk.record_failure()
        assert brk.state == CLOSED
        brk.record_failure()
        assert brk.state == OPEN
        assert brk.blocked() and not brk.admit()

    def test_success_resets_failure_streak(self):
        sim = Simulator(seed=1)
        brk = CircuitBreaker(sim, "l", failure_threshold=2)
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        assert brk.state == CLOSED

    def test_half_open_probe_lifecycle(self):
        sim = Simulator(seed=1)
        brk = CircuitBreaker(sim, "l", failure_threshold=1, cooldown=5.0,
                             half_open_probes=1)
        brk.record_failure()
        assert brk.state == OPEN
        advance(sim, 6.0)
        assert not brk.blocked()       # cooldown elapsed
        assert brk.admit()             # -> half-open, probe consumed
        assert brk.state == HALF_OPEN
        assert not brk.admit()         # probe budget spent
        brk.record_success()
        assert brk.state == CLOSED
        assert brk.admit()

    def test_half_open_probe_failure_reopens(self):
        sim = Simulator(seed=1)
        brk = CircuitBreaker(sim, "l", failure_threshold=1, cooldown=5.0)
        brk.record_failure()
        advance(sim, 6.0)
        assert brk.admit()
        brk.record_failure()
        assert brk.state == OPEN
        assert brk.times_opened == 2

    def test_validation(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            CircuitBreaker(sim, "l", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(sim, "l", cooldown=0.0)


class TestLinkBreakerRegistry:
    def test_fabric_fast_fails_when_open(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        registry = LinkBreakerRegistry(sim, failure_threshold=3,
                                       cooldown=8.0).install(fabric)
        topo.set_link_state(0, 1, False)
        drops = []
        sim.trace.subscribe("fabric.drop",
                            lambda rec: drops.append(rec.fields["reason"]))
        from repro.substrates.phys import Datagram
        for _ in range(4):
            fabric.send(0, 1, Datagram(0, 1, size_bytes=100))
        assert registry.state_of(0, 1) == OPEN
        assert drops.count("link-down") == 3
        assert drops[-1] == "breaker-open"   # fast fail, no link touch
        # Fast-fails must not feed the failure count (reason filter).
        assert registry.breaker(0, 1).consecutive_failures >= 3

    def test_recovers_through_half_open_probe(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        registry = LinkBreakerRegistry(sim, failure_threshold=2,
                                       cooldown=5.0).install(fabric)
        from repro.substrates.phys import Datagram
        topo.set_link_state(0, 1, False)
        for _ in range(2):
            fabric.send(0, 1, Datagram(0, 1, size_bytes=100))
        assert registry.state_of(0, 1) == OPEN
        topo.set_link_state(0, 1, True)
        advance(sim, 6.0)
        assert fabric.send(0, 1, Datagram(0, 1, size_bytes=100))
        assert registry.state_of(0, 1) == HALF_OPEN
        advance(sim, 7.0)                      # deliver the probe
        assert registry.state_of(0, 1) == CLOSED
        assert ("closed" in [t[3] for t in registry.transitions])

    def test_ship_reroutes_around_open_breaker(self):
        topo = ring_topology(4)
        sim, fabric, ships, cred = build_network(topo)
        registry = LinkBreakerRegistry(sim, failure_threshold=1,
                                       cooldown=50.0).install(fabric)
        brk = registry.breaker(0, 1)
        brk.record_failure()
        assert brk.state == OPEN
        reroutes = []
        sim.trace.subscribe("ship.reroute",
                            lambda rec: reroutes.append(rec.fields))
        from repro.substrates.phys import Datagram
        ships[0].send_toward(Datagram(0, 1, size_bytes=100))
        advance(sim, 5.0)
        assert reroutes and reroutes[0]["avoided"] == 1
        assert reroutes[0]["via"] == 3
        # Delivered the long way round: 0 -> 3 -> 2 -> 1.
        assert ships[1].packets_delivered == 1

    def test_reroute_asks_each_neighbour_its_own_route(self):
        """On a 2x3 adaptive grid with (0,1)->(0,2) open, (0,0) would
        route (0,2) back through (0,1); (1,1) continues via (1,2).  The
        probe asks each neighbour's own router and leaves the sender's
        routes and facts alone."""
        topo = grid_topology(2, 3)
        sim = Simulator(seed=3)
        fabric = NetworkFabric(sim, topo)
        ships = {node: Ship(sim, fabric, node,
                            router=WLIAdaptiveRouter(sim, proactive=False))
                 for node in topo.nodes}
        ships[(0, 0)].router.learn_route((0, 2), (0, 1), 2.0)
        ships[(1, 1)].router.learn_route((0, 2), (1, 2), 2.0)
        registry = LinkBreakerRegistry(sim, failure_threshold=1,
                                       cooldown=50.0).install(fabric)
        registry.breaker((0, 1), (0, 2)).record_failure()
        sender = ships[(0, 1)]

        def sender_state():
            return (dict(sender.router.routes),
                    [(f.fact_class, f.value, f.accesses, f._weight,
                      f._weight_time)
                     for f in sender.knowledge.all_facts()])

        before = sender_state()
        assert sender._reroute_around((0, 2), (0, 2), registry) == (1, 1)
        assert sender_state() == before

        reroutes = []
        sim.trace.subscribe("ship.reroute",
                            lambda rec: reroutes.append(rec.fields))
        from repro.substrates.phys import Datagram
        sender.send_toward(Datagram((0, 1), (0, 2), size_bytes=100))
        advance(sim, 5.0)
        assert [r["via"] for r in reroutes] == [(1, 1)]
        assert ships[(0, 2)].packets_delivered == 1


class TestDeadLetterQueue:
    def test_reason_codes_validated(self):
        sim = Simulator(seed=1)
        dlq = DeadLetterQueue(sim)
        with pytest.raises(ValueError):
            dlq.push("m1", 0, 1, 2, "made-up-reason")
        dlq.push("m1", 0, 1, 2, REASON_MAX_ATTEMPTS)
        dlq.push("m2", 0, 2, 1, REASON_SHUTDOWN)
        assert len(dlq) == 2 and dlq.total_pushed == 2
        assert dlq.by_reason() == {REASON_MAX_ATTEMPTS: 1,
                                   REASON_SHUTDOWN: 1}
        drained = dlq.drain()
        assert len(drained) == 2 and len(dlq) == 0
        assert dlq.total_pushed == 2


class TestReliableTransport:
    def test_happy_path_delivers_and_acks(self):
        topo = line_topology(3)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships, base_timeout=1.0)
        shuttle = role_shuttle(ships[0], 2, cred)
        transport.send(0, shuttle)
        advance(sim, 10.0)
        assert transport.delivered == 1
        assert transport.outstanding == 0
        assert transport.delivery_ratio == 1.0
        assert transport.retries == 0
        assert ships[2].has_role(CachingRole.role_id)
        assert ships[2].acks_sent == 1
        assert transport.mean_latency > 0

    def test_retransmits_through_outage(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships, base_timeout=1.0,
                                      max_attempts=6, jitter=0.0)
        topo.set_link_state(0, 1, False)
        sim.call_in(5.0, topo.set_link_state, 0, 1, True)
        transport.send(0, role_shuttle(ships[0], 1, cred))
        advance(sim, 30.0)
        assert transport.delivered == 1
        assert transport.retries >= 1
        assert len(transport.dlq) == 0
        assert ships[1].has_role(CachingRole.role_id)

    def test_exhausted_attempts_dead_letter(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships, base_timeout=1.0,
                                      max_attempts=3, jitter=0.0)
        topo.set_link_state(0, 1, False)    # never repaired
        transport.send(0, role_shuttle(ships[0], 1, cred))
        advance(sim, 60.0)
        assert transport.delivered == 0
        assert len(transport.dlq) == 1
        entry = transport.dlq.items[0]
        assert entry.reason == REASON_MAX_ATTEMPTS
        assert entry.attempts == 3
        assert transport.sent == transport.delivered + len(transport.dlq)

    def test_source_death_dead_letters(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships, base_timeout=1.0,
                                      max_attempts=6, jitter=0.0)
        topo.set_link_state(0, 1, False)
        transport.send(0, role_shuttle(ships[0], 1, cred))
        sim.call_in(0.5, ships[0].die)
        advance(sim, 30.0)
        assert transport.dlq.by_reason() == {REASON_SOURCE_DEAD: 1}

    def test_finalize_accounts_for_everything(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships, base_timeout=5.0,
                                      max_attempts=9)
        topo.set_link_state(0, 1, False)
        transport.send(0, role_shuttle(ships[0], 1, cred))
        advance(sim, 1.0)
        unresolved = transport.finalize()
        assert unresolved == 1
        assert transport.dlq.by_reason() == {REASON_SHUTDOWN: 1}
        assert transport.sent == transport.delivered + len(transport.dlq)

    def test_broadcast_rejected(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        transport = ReliableTransport(sim, ships)
        from repro.substrates.phys import Datagram
        shuttle = role_shuttle(ships[0], Datagram.BROADCAST, cred)
        with pytest.raises(ValueError):
            transport.send(0, shuttle)

    def test_validation(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        with pytest.raises(ValueError):
            ReliableTransport(sim, ships, max_attempts=0)
        with pytest.raises(ValueError):
            ReliableTransport(sim, ships, base_timeout=0.0)


class TestIdempotency:
    def replayed_shuttle(self, sim, fabric, ships, cred, msg="m-replay"):
        shuttle = role_shuttle(ships[0], 1, cred)
        shuttle.meta[ARQ_META_KEY] = {"msg": msg, "src": 0}
        return shuttle

    def test_duplicate_delivery_suppressed(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        shuttle = self.replayed_shuttle(sim, fabric, ships, cred)
        first = ships[1].process_shuttle(shuttle, 0)
        replay = shuttle.clone()
        second = ships[1].process_shuttle(replay, 0)
        assert first == second          # served from the ledger
        assert ships[1].duplicate_shuttles == 1
        assert ships[1].double_applied == 0
        assert ships[1].shuttles_processed == 1
        assert ships[1].acks_sent == 2  # the lost-ack case re-acks

    def test_dedup_disabled_double_applies(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        ships[1].dedup_enabled = False
        shuttle = self.replayed_shuttle(sim, fabric, ships, cred)
        ships[1].process_shuttle(shuttle, 0)
        ships[1].process_shuttle(shuttle.clone(), 0)
        assert ships[1].double_applied == 1
        assert ships[1].duplicate_shuttles == 0

    def test_knowledge_quantum_absorbed_once(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        ships[0].acquire_role(CachingRole())
        shuttle = ships[0].make_role_shuttle(CachingRole.role_id, 1,
                                             credential=cred)
        shuttle.meta[ARQ_META_KEY] = {"msg": "m-kq", "src": 0}
        duplicates = []
        sim.trace.subscribe("ship.kq.duplicate",
                            lambda rec: duplicates.append(rec.fields))
        ships[1].dedup_enabled = True
        ships[1].process_shuttle(shuttle, 0)
        # Replay with the message dedup bypassed: the kq-level guard
        # must still stop the second absorb.
        ships[1]._shuttle_ledger.clear()
        ships[1].process_shuttle(shuttle.clone(), 0)
        assert len(duplicates) == 1
        assert duplicates[0]["kq"] is not None

    def test_ledger_capped(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        ships[1].LEDGER_CAP = 2
        for i in range(4):
            shuttle = self.replayed_shuttle(sim, fabric, ships, cred,
                                            msg=f"m{i}")
            ships[1].process_shuttle(shuttle, 0)
        assert len(ships[1]._shuttle_ledger) == 2
        assert "m0" not in ships[1]._shuttle_ledger
        assert "m3" in ships[1]._shuttle_ledger


class TestFailureInjectorQuiescence:
    def test_stop_cancels_pending_failures_and_repairs(self):
        sim = Simulator(seed=5)
        topo = ring_topology(5)
        injector = FailureInjector(sim, topo, link_mtbf=5.0, link_mttr=3.0)
        injector.start()
        advance(sim, 30.0)
        assert injector.link_failures > 0
        injector.stop()
        history_at_stop = len(injector.history)
        advance(sim, 100.0)
        # Quiescent: no failure *and no repair* fired after stop().
        assert len(injector.history) == history_at_stop

    def test_stop_cancels_scripted_repair(self):
        sim = Simulator(seed=5)
        topo = ring_topology(3)
        injector = FailureInjector(sim, topo, link_mtbf=None)
        injector.fail_link_now(0, 1, repair_after=5.0)
        injector.stop()
        advance(sim, 20.0)
        assert not topo.link(0, 1).up     # repair was cancelled

    def test_restartable_after_stop(self):
        sim = Simulator(seed=5)
        topo = ring_topology(5)
        injector = FailureInjector(sim, topo, link_mtbf=5.0, link_mttr=2.0)
        injector.start()
        advance(sim, 20.0)
        injector.stop()
        count = injector.link_failures
        injector.start()
        advance(sim, 60.0)
        assert injector.link_failures > count


#: Every campaign's digest at seed 7, recorded before the campaigns
#: were rebuilt on the shared scenario network builder: a refactor of
#: the chaos layer may not move any of them.
PINNED_CAMPAIGN_DIGESTS = {
    "smoke": "499006a6f126e766",
    "link-storm": "61535cbfc90cc81b",
    "node-crash-snapshot": "77d12aa21b5f1487",
    "partition-suspect": "de75f198475449f7",
    "crash-during-heal": "12788a098f50fcda",
    "worker-kill": "da76bb3c3e77de70",
    "worker-stall": "98c9ea0fcdec4783",
    "worker-kill-during-handoff": "8bbeee49aba31dc1",
    "worker-budget-exhausted": "8c6a8def01267403",
}


class TestChaosCampaigns:
    def test_every_campaign_is_pinned(self):
        assert set(PINNED_CAMPAIGN_DIGESTS) == set(CAMPAIGNS)

    @pytest.mark.parametrize("name", sorted(PINNED_CAMPAIGN_DIGESTS))
    def test_campaign_digest_pinned(self, name):
        result = run_campaign(name, seed=7)
        assert result.ok, result.summary()
        assert result.digest == PINNED_CAMPAIGN_DIGESTS[name]

    def test_smoke_campaign_invariants_and_digest(self):
        a = run_campaign("smoke", seed=7)
        assert a.ok, a.summary()
        c = a.counts
        assert c["sent"] == c["delivered"] + c["dlq"]
        assert c["double_applied"] == 0
        b = run_campaign("smoke", seed=7)
        assert a.digest == b.digest       # reproducible end to end

    def test_arq_beats_fire_and_forget_under_storm(self):
        storm = Campaign(
            "mini-storm", "test-sized link storm",
            cols=3, duration=120.0,
            loss_rate=0.02, link_mtbf=30.0, link_mttr=8.0)
        with_arq = ChaosHarness(storm, seed=7, arq=True,
                                observability=False).run()
        without = ChaosHarness(storm, seed=7, arq=False,
                               observability=False).run()
        assert with_arq.counts["delivery_ratio"] >= 0.99
        assert without.counts["delivery_ratio"] \
            < with_arq.counts["delivery_ratio"]
        for result in (with_arq, without):
            c = result.counts
            assert c["sent"] == c["delivered"] + c["dlq"]
            assert c["double_applied"] == 0

    def test_unknown_campaign_raises(self):
        with pytest.raises(KeyError):
            run_campaign("no-such-campaign")

    def test_obs_instruments_populated(self):
        topo = line_topology(2)
        sim, fabric, ships, cred = build_network(topo)
        sim.obs.enable()
        transport = ReliableTransport(sim, ships, base_timeout=1.0)
        transport.send(0, role_shuttle(ships[0], 1, cred))
        advance(sim, 10.0)
        names = {rec["name"] for rec in sim.obs.registry.collect()
                 if rec.get("type") == "metric"}
        assert "repro_resilience_arq_total" in names
        assert "repro_resilience_delivery_seconds" in names
