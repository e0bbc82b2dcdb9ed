"""Property-based tests (hypothesis) on core data structures."""

import hashlib
import json
import math
from collections import Counter, deque
from collections.abc import Hashable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.analysis import entropy
from repro.core import Netbot, NetbotState
from repro.core.congruence import CongruenceTracker, congruence
from repro.core.knowledge import (MAX_WEIGHT, Fact, KnowledgeBase,
                                  KnowledgeQuantum)
from repro.core.ship import Ship, ShipError
from repro.core.shuttle import (OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE,
                                OP_DEPLOY_QUANTUM, OP_LOAD_BITSTREAM,
                                OP_RELEASE_ROLE, OP_SET_NEXT_STEP, Directive,
                                Jet, Shuttle)
from repro.functions import (CachingRole, NextStepRole,
                             SecurityManagementRole, TranscodingRole)
from repro.functions.base import payload_kind
from repro.routing import StaticRouter, WLIAdaptiveRouter
from repro.routing.adaptive import Route
from repro.substrates.hardware import (Bitstream, HardwareError,
                                       HardwareModule)
from repro.substrates.nodeos import CodeCache, CodeModule, Credential
from repro.substrates.phys import (Datagram, NetworkFabric, Topology,
                                   TopologyError, grid_topology,
                                   line_topology)
from repro.substrates.phys.topology import _key
from repro.substrates.sim import Simulator, TokenBucket
from repro.verification.tla import FrozenState

from .hypothesis_tiers import STANDARD_SETTINGS, STATE_MACHINE_SETTINGS

# ----------------------------------------------------------------------
# Facts and knowledge bases (PMP.3 semantics)
# ----------------------------------------------------------------------

fact_strategy = st.builds(
    Fact,
    fact_class=st.sampled_from(["a", "b", "c", "d"]),
    value=st.integers(min_value=0, max_value=30),
    created_at=st.floats(min_value=0, max_value=100),
    weight=st.floats(min_value=0.01, max_value=10.0),
    threshold=st.floats(min_value=0.0, max_value=1.0),
)


class TestFactProperties:
    @given(fact_strategy, st.floats(min_value=0, max_value=1000),
           st.floats(min_value=0, max_value=1000))
    def test_weight_decay_is_monotone(self, fact, t1, t2):
        lo, hi = sorted([fact.created_at + t1, fact.created_at + t2])
        assert fact.weight(hi) <= fact.weight(lo) + 1e-12

    @given(fact_strategy)
    def test_weight_never_negative(self, fact):
        assert fact.weight(fact.created_at + 1e6) >= 0.0

    @given(fact_strategy, st.floats(min_value=0.01, max_value=100))
    def test_touch_increases_weight_up_to_saturation(self, fact, dt):
        now = fact.created_at + dt
        before = fact.weight(now)
        after = fact.touch(now)
        assert after <= MAX_WEIGHT
        assert after > before or before >= MAX_WEIGHT - 1.0

    @given(fact_strategy, st.floats(min_value=0.0, max_value=1000.0),
           st.floats(min_value=0.0, max_value=8.0),
           st.floats(min_value=1e-4, max_value=1.0))
    @example(Fact("a", 0, created_at=5.0, weight=7.5), 0.0, 1.0, 0.01)
    @example(Fact("a", 0, created_at=5.0, weight=2.0), 30.0, 1.0, 0.01)
    def test_touch_is_the_decay_formula(self, fact, dt, boost, rate):
        w, t = fact._weight, fact._weight_time
        now = t + dt
        expected = min(MAX_WEIGHT,
                       w * math.exp(-rate * max(0, now - t)) + boost)
        assert fact.touch(now, boost, rate) == expected
        assert (fact._weight, fact._weight_time) == (expected, now)

    @given(fact_strategy)
    def test_expiry_time_marks_threshold_crossing(self, fact):
        t = fact.expiry_time()
        if t == float("inf"):
            assert fact.threshold == 0.0 or \
                fact.weight(fact.created_at) >= 0
            return
        eps = max(abs(t) * 1e-6, 1e-6)
        assert not fact.alive(t + 1.0)


class TestKnowledgeBaseProperties:
    @given(st.lists(fact_strategy, max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_capacity_never_exceeded(self, facts, capacity):
        kb = KnowledgeBase(capacity=capacity)
        for fact in facts:
            kb.record(fact, now=fact.created_at)
            assert len(kb) <= capacity

    @given(st.lists(fact_strategy, max_size=40))
    def test_class_weight_is_sum_of_members(self, facts):
        kb = KnowledgeBase(capacity=100)
        for fact in facts:
            kb.record(fact, now=0.0)
        for cls in kb.classes():
            total = sum(f.weight(50.0, kb.decay_rate)
                        for f in kb.facts_of_class(cls))
            assert math.isclose(kb.class_weight(cls, 50.0), total,
                                rel_tol=1e-9)

    @given(st.lists(fact_strategy, max_size=40),
           st.floats(min_value=0, max_value=2000))
    def test_sweep_removes_exactly_the_dead(self, facts, now):
        kb = KnowledgeBase(capacity=100)
        for fact in facts:
            kb.record(fact, now=0.0)
        dead = kb.sweep(now)
        assert all(not f.alive(now, kb.decay_rate) for f in dead)
        assert all(f.alive(now, kb.decay_rate) for f in kb.all_facts())

    @given(st.lists(st.tuples(st.sampled_from(["x", "y"]),
                              st.integers(0, 5)), max_size=30))
    def test_duplicate_class_value_never_duplicated(self, pairs):
        kb = KnowledgeBase(capacity=100)
        for cls, value in pairs:
            kb.record(Fact(cls, value, created_at=0.0), now=0.0)
        seen = {(f.fact_class, f.value) for f in kb.all_facts()}
        assert len(seen) == len(kb)


def scan_find(kb, fact_class, value):
    """The reference ``find``: the first member of the class, in
    insertion order, whose value ``==`` the query."""
    for fact in kb.facts_of_class(fact_class):
        if fact.value == value:
            return fact
    return None


def recomputed_digest(kb):
    """The reference ``content_digest``, recomputed from the store's
    current members on every call."""
    content = sorted((fact.fact_class, repr(fact.value), repr(fact.source))
                     for fact in kb.all_facts())
    payload = json.dumps(content, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ScanKnowledgeBase(KnowledgeBase):
    """A knowledge base whose ``record`` decides touch-or-insert with
    the reference scan instead of the index."""

    def find(self, fact_class, value):
        return scan_find(self, fact_class, value)


_NAN = float("nan")
#: Values where hashing and ``==`` disagree in every way the index must
#: honour: unhashable values, equal values of different hashability,
#: ``1 == 1.0 == True``, and one NaN object (its own dict key, yet not
#: equal to itself).
KB_VALUES = (0, 1, 1.0, True, "a", ("t", 1), None, _NAN,
             {"k": 1}, [1, 2], {1}, frozenset({1}))

kb_op_strategy = st.one_of(
    st.tuples(st.just("record"), st.sampled_from("xyz"),
              st.sampled_from(KB_VALUES),
              st.floats(min_value=0.05, max_value=4.0),
              st.floats(min_value=0.0, max_value=1.0)),
    # record_fields on the indexed store, record(Fact(...)) on the
    # reference: a few exact weights make displacement ties common.
    st.tuples(st.just("fields"), st.sampled_from("xyz"),
              st.sampled_from(KB_VALUES),
              st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]),
              st.sampled_from([None, "s", ("n", 1)])),
    st.tuples(st.just("sweep"), st.floats(min_value=0.0, max_value=300.0)),
)


def _rec(value, weight=1.0, threshold=0.2):
    return ("record", "x", value, weight, threshold)


def _fields(value, weight=1.0, source=None):
    return ("fields", "x", value, weight, source)


def _fact_rows(facts):
    return [(f.fact_class, repr(f.value), repr(f.source), f.accesses,
             f._weight, f._weight_time) for f in facts]


class TestFactIndexAgainstScan:
    @STANDARD_SETTINGS
    @given(st.lists(kb_op_strategy, max_size=60),
           st.integers(min_value=1, max_value=8))
    @example([_rec({1}), _rec(frozenset({1}))], 8)
    @example([_rec(frozenset({1})), _rec({1})], 8)
    @example([_rec(1), _rec(1.0), _rec(True)], 8)
    # Two facts on one NaN object; the indexed one dies first.
    @example([_rec(_NAN, weight=0.3, threshold=0.25), _rec(_NAN, weight=4.0),
              ("sweep", 50.0)], 8)
    # A non-positive weight raises even when the fact exists.
    @example([_fields(0), _fields(0, weight=0.0), _fields(0, weight=-1.0)], 8)
    # Equal weights: displacement falls to the older fact, whose id is
    # smaller although touches in between drew no ids.
    @example([_fields(0), _fields(1), _fields(1), _fields(0), _fields(2)], 2)
    def test_find_and_membership_match_the_scan(self, ops, capacity):
        kb = KnowledgeBase(capacity=capacity)
        ref = ScanKnowledgeBase(capacity=capacity)
        now = 0.0
        classes, version = set(), kb.class_version
        for op in ops:
            if op[0] == "record":
                _, cls, value, weight, threshold = op
                for store in (kb, ref):
                    store.record(Fact(cls, value, created_at=now,
                                      weight=weight, threshold=threshold),
                                 now)
            elif op[0] == "fields":
                _, cls, value, weight, source = op
                if weight <= 0:
                    with pytest.raises(ValueError):
                        kb.record_fields(cls, value, now, source=source,
                                         weight=weight)
                    with pytest.raises(ValueError):
                        Fact(cls, value, created_at=now, source=source,
                             weight=weight)
                else:
                    got = kb.record_fields(cls, value, now, source=source,
                                           weight=weight)
                    want = ref.record(Fact(cls, value, created_at=now,
                                           source=source, weight=weight),
                                      now)
                    assert _fact_rows([got]) == _fact_rows([want])
                    assert kb._facts.get(got.fact_id) is got
            else:
                now += op[1]
                assert _fact_rows(kb.sweep(now)) == _fact_rows(ref.sweep(now))
            assert _fact_rows(kb.all_facts()) == _fact_rows(ref.all_facts())
            # The class-set stamp moves exactly when the set does.
            assert (kb.class_version != version) \
                == (set(kb.classes()) != classes)
            classes, version = set(kb.classes()), kb.class_version
            # The cached digest matches a recompute: every insertion
            # and removal invalidated it.
            assert kb.content_digest() == recomputed_digest(kb)
            for cls in "xyz":
                for value in KB_VALUES:
                    assert kb.find(cls, value) is scan_find(kb, cls, value)
            # Index bookkeeping: entries point at live facts, and a
            # class falls back to the scan only while it holds an
            # unhashable value.
            assert all(kb._facts.get(f.fact_id) is f
                       for f in kb._index.values())
            unhashable = Counter(f.fact_class for f in kb.all_facts()
                                 if not isinstance(f.value, Hashable))
            assert kb._unindexed == dict(unhashable)


# ----------------------------------------------------------------------
# Code cache
# ----------------------------------------------------------------------

module_strategy = st.builds(
    CodeModule,
    code_id=st.sampled_from([f"m{i}" for i in range(8)]),
    size_bytes=st.integers(min_value=1, max_value=5000),
    version=st.integers(min_value=1, max_value=3),
)


class TestCodeCacheProperties:
    @given(st.lists(module_strategy, max_size=40))
    def test_used_bytes_is_sum_of_modules(self, modules):
        cache = CodeCache(capacity_bytes=10_000)
        for module in modules:
            cache.install(module)
            assert cache.used_bytes == sum(
                m.size_bytes for m in cache.modules())
            assert cache.used_bytes <= cache.capacity_bytes

    @given(st.lists(module_strategy, max_size=40))
    def test_pinned_module_survives_any_install_sequence(self, modules):
        cache = CodeCache(capacity_bytes=10_000)
        pinned = CodeModule("pinned", size_bytes=2000)
        assert cache.install(pinned, pin=True)
        for module in modules:
            if module.code_id != "pinned":
                cache.install(module)
        assert "pinned" in cache


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------

@st.composite
def topology_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    topo = Topology()
    for i in range(n):
        topo.add_node(i)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    for a, b in chosen:
        latency = draw(st.floats(min_value=0.001, max_value=1.0))
        topo.add_link(a, b, latency=latency)
    return topo


class TestTopologyProperties:
    @given(topology_strategy())
    @settings(max_examples=50)
    def test_paths_are_valid_walks(self, topo):
        for src in topo.nodes:
            dist, prev = topo.shortest_paths(src)
            for dst in dist:
                path = topo.path(src, dst)
                assert path is not None
                assert path[0] == src and path[-1] == dst
                for a, b in zip(path, path[1:]):
                    assert topo.has_link(a, b)
                assert math.isclose(topo.path_latency(path), dist[dst],
                                    rel_tol=1e-9)

    @given(topology_strategy())
    @settings(max_examples=50)
    def test_components_partition_nodes(self, topo):
        comps = topo.connected_components()
        seen = [n for comp in comps for n in comp]
        assert sorted(seen, key=repr) == sorted(topo.nodes, key=repr)
        # No node appears in two components.
        assert len(seen) == len(set(seen))

    @given(topology_strategy())
    @settings(max_examples=30)
    def test_path_symmetry(self, topo):
        nodes = topo.nodes
        for src in nodes[:3]:
            for dst in nodes[:3]:
                fwd = topo.path(src, dst)
                rev = topo.path(dst, src)
                assert (fwd is None) == (rev is None)
                if fwd is not None:
                    assert math.isclose(topo.path_latency(fwd),
                                        topo.path_latency(rev),
                                        rel_tol=1e-9)


def oracle_up_neighbors(topo, node):
    """Up-neighbours recomputed from the raw adjacency, in its order."""
    if not topo._node_up[node]:
        return []
    return [peer for peer, link in topo._adj[node].items()
            if link.up and topo._node_up[peer]]


_NODE_IDS = st.integers(min_value=0, max_value=5)
#: Never a node.
_GHOST = 6


class TopologyCacheMachine(RuleBasedStateMachine):
    """Random mutation sequences; after every step each query must
    equal a from-scratch recomputation, so a stale cache entry fails."""

    def __init__(self):
        super().__init__()
        self.topo = Topology()

    @rule(node=_NODE_IDS)
    def add_node(self, node):
        self.topo.add_node(node)

    @rule(a=_NODE_IDS, b=_NODE_IDS,
          latency=st.floats(min_value=0.001, max_value=1.0))
    def add_link(self, a, b, latency):
        if a == b or _key(a, b) in self.topo._links:
            with pytest.raises(TopologyError):
                self.topo.add_link(a, b, latency=latency)
        else:
            self.topo.add_link(a, b, latency=latency)

    @rule(a=_NODE_IDS, b=_NODE_IDS)
    def remove_link(self, a, b):
        if _key(a, b) in self.topo._links:
            self.topo.remove_link(a, b)
        else:
            with pytest.raises(TopologyError):
                self.topo.remove_link(a, b)

    @rule(node=_NODE_IDS)
    def remove_node(self, node):
        if node in self.topo:
            self.topo.remove_node(node)
        else:
            with pytest.raises(TopologyError):
                self.topo.remove_node(node)

    @rule(a=_NODE_IDS, b=_NODE_IDS, up=st.booleans())
    def set_link_state(self, a, b, up):
        if _key(a, b) in self.topo._links:
            self.topo.set_link_state(a, b, up)
        else:
            with pytest.raises(TopologyError):
                self.topo.set_link_state(a, b, up)

    @rule(node=_NODE_IDS, up=st.booleans())
    def set_node_state(self, node, up):
        if node in self.topo:
            self.topo.set_node_state(node, up)
        else:
            with pytest.raises(TopologyError):
                self.topo.set_node_state(node, up)

    @invariant()
    def queries_match_recomputation(self):
        topo = self.topo
        for node in topo.nodes:
            expected = oracle_up_neighbors(topo, node)
            got = topo.neighbors(node)
            assert got == expected
            got.append("stray")
            got.reverse()
            assert topo.neighbors(node) == expected
            nbrs = topo.neighbor_set(node)
            assert isinstance(nbrs, frozenset)
            assert nbrs == set(expected)
            assert topo.neighbors(node, only_up=False) == \
                list(topo._adj[node])
        probes = topo.nodes + [_GHOST]
        for a in probes:
            for b in probes:
                stored = topo._links.get(_key(a, b))
                assert topo.has_link(a, b) == (stored is not None)
                try:
                    found = topo.link(a, b)
                except TopologyError:
                    found = None
                assert found is stored
        for ghost in range(_GHOST + 1):
            if ghost not in topo:
                with pytest.raises(TopologyError):
                    topo.neighbors(ghost)
                with pytest.raises(TopologyError):
                    topo.neighbor_set(ghost)


TestTopologyCache = TopologyCacheMachine.TestCase
TestTopologyCache.settings = settings(STATE_MACHINE_SETTINGS,
                                      stateful_step_count=25)


# ----------------------------------------------------------------------
# Adaptive routing: the hop pass against the reference methods
# ----------------------------------------------------------------------

class OracleShip(Ship):
    """Reference ``record_fact``: build the fact, then record it."""

    def record_fact(self, fact_class, value, weight=1.0):
        fact = Fact(fact_class, value, created_at=self.sim.now,
                    source=self.ship_id, weight=weight)
        return self.knowledge.record(fact, self.sim.now)


class OracleRouter(WLIAdaptiveRouter):
    """Reference bodies of the methods the hop pass reshaped: every
    liveness check takes the neighbour set afresh, and ``learn_route``
    builds the route before deciding to keep it and always flushes."""

    def _alive_now(self, route):
        return (route.expires > self.sim.now
                and route.next_hop in self._neighbor_set())

    def learn_route(self, dst, next_hop, cost):
        if dst == self.ship.ship_id:
            return
        current = self.routes.get(dst)
        fresh = Route(next_hop, cost, self.sim.now + self.route_ttl)
        if (current is None or not self._alive_now(current)
                or cost < current.cost
                or (next_hop == current.next_hop)):
            self.routes[dst] = fresh
            self.ship.record_fact("route", (dst, next_hop))
            self._flush_buffer(dst)

    def route_table(self):
        return {dst: (r.next_hop, r.cost)
                for dst, r in self.routes.items() if self._alive_now(r)}

    def next_hop(self, ship_id, dst):
        neighbors = self._neighbor_set()
        if dst in neighbors:
            self.learn_route(dst, dst, 1.0)
            return dst
        route = self.routes.get(dst)
        if route is not None and self._alive_now(route):
            self.routes[dst] = Route(route.next_hop, route.cost,
                                     self.sim.now + self.route_ttl)
            return route.next_hop
        return None

    def _on_hello(self, ship, packet, from_node):
        vector = packet.payload["vector"]
        for dst, cost in vector.items():
            if dst == ship.ship_id:
                continue
            new_cost = cost + 1.0
            if new_cost >= self.INFINITY:
                current = self.routes.get(dst)
                if current is not None and current.next_hop == from_node:
                    del self.routes[dst]
                continue
            self.learn_route(dst, from_node, new_cost)


_GRID = grid_topology(2, 3)
_GRID_NODES = st.sampled_from(_GRID.nodes)
_GRID_LINKS = st.sampled_from([(link.a, link.b) for link in _GRID.links])


def _adaptive_grid(ship_cls, router_cls):
    """A 2x3 adaptive grid; a small knowledge base forces displacement
    and a short buffer forces drops."""
    sim = Simulator(seed=17)
    topo = grid_topology(2, 3)
    fabric = NetworkFabric(sim, topo)
    ships = {node: ship_cls(sim, fabric, node, knowledge_capacity=6,
                            router=router_cls(sim, hello_interval=2.0,
                                              route_ttl=5.0,
                                              discovery_timeout=1.5,
                                              max_buffered=2))
             for node in topo.nodes}
    return sim, topo, ships


def _world_state(sim, ships):
    rows = [sim.now, sim.events_executed]
    for node in _GRID.nodes:
        ship, router = ships[node], ships[node].router
        rows.append((list(router.routes.items()),
                     {dst: len(q) for dst, q in router._buffered.items()},
                     router.buffered_total, router.buffer_drops,
                     router.discoveries_started,
                     ship.packets_forwarded, ship.packets_delivered,
                     ship.packets_dropped, ship.knowledge.evictions,
                     [(f.fact_class, f.value, f.accesses, f._weight,
                       f._weight_time)
                      for f in ship.knowledge.all_facts()]))
    return rows


class AdaptiveRouterOracleMachine(RuleBasedStateMachine):
    """Two identical grids in lockstep, one on the hop pass and one on
    the reference methods; every step must leave them equal."""

    def __init__(self):
        super().__init__()
        self.new = _adaptive_grid(Ship, WLIAdaptiveRouter)
        self.ref = _adaptive_grid(OracleShip, OracleRouter)

    def _both(self):
        return (self.new, self.ref)

    @rule(link=_GRID_LINKS, reverse=st.booleans(),
          vector=st.dictionaries(_GRID_NODES, st.sampled_from(
              [0.0, 1.0, 2.0, 3.0, 14.0, 15.0, 16.0]), max_size=6))
    def hello(self, link, reverse, vector):
        # A neighbour's advertisement; costs of 15 and up arrive
        # poisoned (>= INFINITY after +1).
        sender, node = reversed(link) if reverse else link
        for sim, topo, ships in self._both():
            ships[node].receive(
                Datagram(sender, node, ttl=1,
                         payload={"kind": "route-adv",
                                  "vector": dict(vector),
                                  "origin": sender}), sender)

    @rule(node=_GRID_NODES, dst=_GRID_NODES)
    def forwarding_lookup(self, node, dst):
        (_, _, new), (_, _, ref) = self._both()
        probe = new[node].router.lookup(node, dst)
        hop = new[node].router.next_hop(node, dst)
        assert probe == hop == ref[node].router.next_hop(node, dst)

    @rule(node=_GRID_NODES, dst=_GRID_NODES)
    def send_packet(self, node, dst):
        # Without a route the packet is buffered and discovery starts.
        for sim, topo, ships in self._both():
            ships[node].send_toward(Datagram(node, dst, size_bytes=100,
                                             created_at=sim.now))

    @rule(link=_GRID_LINKS, up=st.booleans())
    def flap_link(self, link, up):
        for sim, topo, ships in self._both():
            topo.set_link_state(*link, up)

    @rule(node=_GRID_NODES)
    def kill(self, node):
        for sim, topo, ships in self._both():
            ships[node].die()

    @rule(dt=st.sampled_from([0.0, 0.3, 1.0, 2.5, 6.0]))
    def advance(self, dt):
        for sim, topo, ships in self._both():
            sim.run(until=sim.now + dt)

    @invariant()
    def lookups_are_pure_and_worlds_agree(self):
        (new_sim, _, new), (ref_sim, _, ref) = self._both()
        # A lookup that learned or refreshed anything would show up as
        # a difference below.
        for node in _GRID.nodes:
            for dst in _GRID.nodes:
                new[node].router.lookup(node, dst)
        assert _world_state(new_sim, new) == _world_state(ref_sim, ref)
        for node in _GRID.nodes:
            assert new[node].router.route_table() == \
                ref[node].router.route_table()


TestAdaptiveRouterOracle = AdaptiveRouterOracleMachine.TestCase
TestAdaptiveRouterOracle.settings = settings(STATE_MACHINE_SETTINGS,
                                             stateful_step_count=20)


# ----------------------------------------------------------------------
# Receive plans: the cached receive path against a per-packet lookup
# ----------------------------------------------------------------------

class PerPacketShip(Ship):
    """Reference ``receive``: the path before receive plans, which
    looks the screen, the router's control hook, the roles, the active
    EE and the hardware speedup up again for every packet.  One fix is
    applied to it: an active ``fn.secmgmt`` that already screened the
    packet is not handed it a second time (its CPU and EE invocation
    are still booked)."""

    def receive(self, packet, from_node):
        if not self.alive:
            return
        self._comm[from_node] = self._comm.get(from_node, 0) + 1
        screen = self.roles.get(SecurityManagementRole.role_id)
        if screen is not None:
            if screen["role"].handle(self, packet, from_node):
                return
        if isinstance(packet, Jet):
            self._receive_jet(packet, from_node)
            return
        if isinstance(packet, Shuttle):
            self._receive_shuttle(packet, from_node)
            return
        if (self.router is not None
                and hasattr(self.router, "handle_control")
                and self.router.handle_control(self, packet, from_node)):
            return
        roles = self.roles
        next_step = roles[NextStepRole.role_id]["role"]
        if next_step.handle(self, packet, from_node):
            return
        if self.active_role_id is not None:
            meta = roles[self.active_role_id]
            active = meta["role"]
            if active is not next_step:
                delay = self._role_cpu_delay(active, f"role:{active.role_id}")
                ee = self.nodeos.ees.get(meta["ee"])
                if ee is not None:
                    ee.record_invocation(delay)
                if (screen is None or active is not screen["role"]) \
                        and active.handle(self, packet, from_node):
                    return
        if packet.dst == self.ship_id or packet.is_broadcast:
            self._observe_packet(packet)
            self.deliver_local(packet, from_node)
        else:
            self._observe_packet(packet)
            self.nodeos.forward_cost()
            self.send_toward(packet)

    def _role_cpu_delay(self, role, category):
        speedup = max(self.fabric_hw.hardware_speedup(role.role_id),
                      self.backplane.hardware_speedup(role.role_id))
        ops = role.cpu_ops_per_packet / speedup
        return self.nodeos.cpu.execute(ops, category)


class ClaimingRouter(StaticRouter):
    """A static router that claims route advertisements as its control
    traffic, so swapping it in changes what a ship's receive does."""

    def __init__(self, topology):
        super().__init__(topology)
        self.claimed = 0

    def handle_control(self, ship, packet, from_node):
        if payload_kind(packet) != "route-adv":
            return False
        self.claimed += 1
        return True


_PLAN_ROLES = st.sampled_from([CachingRole, TranscodingRole,
                               SecurityManagementRole])
#: Hardware steps name a role, or None for whichever role is active.
_HW_ROLES = st.one_of(st.none(), _PLAN_ROLES)
_PLAN_KINDS = ("route-adv", "content-request", "content", "media",
               "next-step", "state-request", "plain", "shuttle")
_OPERATOR = "operator"


class _PlanWorld:
    """A 3-ship line whose middle ship takes every reconfiguration and
    every injected packet; a small fabric and one module slot make
    refused loads and docks reachable."""

    def __init__(self, ship_cls, knowledge_capacity=512):
        self.sim = Simulator(seed=23)
        topo = line_topology(3)
        fabric = NetworkFabric(self.sim, topo)
        static = StaticRouter(topo)
        self.ships = {node: ship_cls(self.sim, fabric, node, router=static,
                                     hw_cells=1024, hw_slots=1,
                                     knowledge_capacity=knowledge_capacity)
                      for node in topo.nodes}
        for ship in self.ships.values():
            ship.nodeos.security.grant(_OPERATOR, "*")
        self.ship = self.ships[1]
        self.cred = self.ship.nodeos.authority.issue(_OPERATOR)
        self.routers = {"static": static, "claiming": ClaimingRouter(topo),
                        "none": None}
        self.netbots = []

    def packet(self, kind, sender, dst, key, forged):
        payloads = {
            "route-adv": {"kind": "route-adv", "vector": {}, "origin": sender},
            "content-request": {"kind": "content-request", "key": key,
                                "reply_to": sender},
            "content": {"kind": "content", "key": key},
            "media": {"kind": "media", "stream": "m", "quality": 1.0,
                      "encoding": "raw"},
            "next-step": {"kind": "next-step", "role": key},
            "state-request": {"kind": "state-request", "reply_to": sender},
            "plain": None,
        }
        if kind == "shuttle":
            cred = Credential(_OPERATOR, "0" * 16) if forged else self.cred
            return Shuttle(sender, dst, credential=cred, flow_id="shuttle",
                           directives=[Directive(OP_ACTIVATE_ROLE,
                                                 role_id=key)])
        return Datagram(sender, dst, size_bytes=800, flow_id=kind,
                        payload=payloads[kind], created_at=self.sim.now)

    def state(self):
        rows = [self.sim.now, self.sim.events_executed,
                self.routers["claiming"].claimed]
        for node in sorted(self.ships):
            ship = self.ships[node]
            cpu = ship.nodeos.cpu
            rows.append((
                sorted(cpu.by_category.items()), cpu.total_ops, cpu._free_at,
                [(ee.label, ee.invocations, ee.busy_time)
                 for ee in ship.nodeos.ees.in_priority_order()],
                [(rid, meta["role"].packets_seen,
                  meta["role"].packets_handled)
                 for rid, meta in sorted(ship.roles.items())],
                [(f.fact_class, f.value, f.accesses, f._weight,
                  f._weight_time) for f in ship.knowledge.all_facts()],
                ship.active_role_id, sorted(ship._comm.items()),
                ship.packets_forwarded, ship.packets_delivered,
                ship.packets_dropped, ship.shuttles_processed,
                ship.shuttles_rejected))
        return rows


class _ReconfigurationSteps(RuleBasedStateMachine):
    """Steps that reconfigure the middle ship of every world alike:
    roles, fabric regions and docked modules.  Each is followed by
    :meth:`_probe`, so a cache that outlives a reconfiguration shows at
    once instead of only when a random step happens to read it."""

    def _probe(self):
        raise NotImplementedError

    def _role_id(self, world, role):
        if role is not None:
            return role.role_id
        return world.ship.active_role_id or CachingRole.role_id

    def _region(self, world, role):
        """The region holding the role's bitstream, else the first."""
        fabric = world.ship.fabric_hw
        region = fabric.find_function(self._role_id(world, role))
        if region is None and fabric.regions:
            region = fabric.regions[0]
        return region

    @initialize(held=st.sets(_PLAN_ROLES), active=_PLAN_ROLES)
    def start(self, held, active):
        for world in self.worlds:
            for role in sorted(held, key=lambda cls: cls.role_id):
                world.ship.acquire_role(role())
            if active in held:
                world.ship.assign_role(active.role_id)
        self._probe()

    @rule(role=_PLAN_ROLES)
    def acquire(self, role):
        for world in self.worlds:
            if world.ship.has_role(role.role_id):
                with pytest.raises(ShipError):
                    world.ship.acquire_role(role())
            else:
                world.ship.acquire_role(role())
        self._probe()

    @rule(role=_PLAN_ROLES)
    def release(self, role):
        for world in self.worlds:
            if world.ship.has_role(role.role_id):
                world.ship.release_role(role.role_id)
            else:
                with pytest.raises(ShipError):
                    world.ship.release_role(role.role_id)
        self._probe()

    @rule(role=st.one_of(_PLAN_ROLES, st.just(NextStepRole)))
    def assign(self, role):
        for world in self.worlds:
            if world.ship.has_role(role.role_id):
                world.ship.assign_role(role.role_id)
            else:
                with pytest.raises(ShipError):
                    world.ship.assign_role(role.role_id)
        self._probe()

    @rule(role=_HW_ROLES, fresh=st.booleans(),
          speedup=st.sampled_from([2.0, 8.0, 24.0]))
    def load(self, role, fresh, speedup):
        # Into a fresh region (refused once the fabric is full) or over
        # the first one (refused when it is too small).
        for world in self.worlds:
            role_id = self._role_id(world, role)
            cells = world.ship.catalog.role_class(role_id).hw_cells
            fabric = world.ship.fabric_hw
            try:
                region = (fabric.allocate_region(cells)
                          if fresh or not fabric.regions
                          else fabric.regions[0])
                fabric.load(region, Bitstream(role_id, cells=cells,
                                              speedup=speedup),
                            now=world.sim.now)
            except HardwareError:
                pass
        self._probe()

    @rule(role=_HW_ROLES)
    def unload(self, role):
        for world in self.worlds:
            region = self._region(world, role)
            if region is not None:
                world.ship.fabric_hw.unload(region)
        self._probe()

    @rule(role=_HW_ROLES)
    def free_region(self, role):
        for world in self.worlds:
            region = self._region(world, role)
            if region is not None:
                world.ship.fabric_hw.free_region(region)
        self._probe()

    @rule(role=_HW_ROLES, speedup=st.sampled_from([4.0, 16.0]))
    def dock(self, role, speedup):
        # The netbot starts at its target, so it docks (or is refused
        # for want of a free slot) at the current instant.
        for world in self.worlds:
            module = HardwareModule(self._role_id(world, role),
                                    speedup=speedup)
            bot = Netbot(world.sim, module, location=1,
                         credential=world.cred)
            bot.dispatch(world.ships, 1)
            world.sim.run(until=world.sim.now)
            world.netbots.append(bot)
        self._probe()

    @rule()
    def eject(self):
        for world in self.worlds:
            docked = [bot for bot in world.netbots
                      if bot.state == NetbotState.DOCKED]
            if docked:
                docked[0].undock(world.ship)
        self._probe()


class ReceivePlanOracleMachine(_ReconfigurationSteps):
    """Two identical networks in lockstep, one receiving through plans
    and one through :class:`PerPacketShip`; every step must leave them
    equal.  Each reconfiguration is followed by one probe packet
    through the middle ship."""

    def __init__(self):
        super().__init__()
        self.worlds = (_PlanWorld(Ship), _PlanWorld(PerPacketShip))

    def _probe(self, kind="media"):
        for world in self.worlds:
            world.ship.receive(world.packet(kind, 0, 2, None, False), 0)

    @rule(name=st.sampled_from(["static", "claiming", "none"]))
    def swap_router(self, name):
        for world in self.worlds:
            world.ship.router = world.routers[name]
        # Only the claiming router's hook tells a route advertisement
        # apart, so that is what probes the swap.
        self._probe("route-adv")

    @rule(kind=st.sampled_from(_PLAN_KINDS), sender=st.sampled_from([0, 2]),
          dst=st.sampled_from([0, 1, 2]),
          key=st.sampled_from([CachingRole.role_id,
                               TranscodingRole.role_id]),
          forged=st.booleans())
    def packet(self, kind, sender, dst, key, forged):
        for world in self.worlds:
            world.ship.receive(world.packet(kind, sender, dst, key, forged),
                               sender)

    @rule(dt=st.sampled_from([0.0, 0.001, 0.5]))
    def advance(self, dt):
        for world in self.worlds:
            world.sim.run(until=world.sim.now + dt)

    @invariant()
    def worlds_agree(self):
        planned, reference = self.worlds
        assert planned.state() == reference.state()


TestReceivePlanOracle = ReceivePlanOracleMachine.TestCase
TestReceivePlanOracle.settings = settings(STATE_MACHINE_SETTINGS,
                                          stateful_step_count=30)


# ----------------------------------------------------------------------
# The dock pass: the stamped structure and on-read scores against a
# per-dock rebuild scored at record time
# ----------------------------------------------------------------------

class RecordTimeTracker(CongruenceTracker):
    """Reference tracker: scores each record when it is made and keeps
    only the scores, as the tracker did before it scored on read."""

    def __init__(self, window=64):
        super().__init__(window)
        self._scores = deque(maxlen=window)
        self._emit_scores = deque(maxlen=window)

    def record_processed(self, now, shuttle_structure, ship_before,
                         ship_after):
        self._scores.append((now, congruence(ship_before, shuttle_structure),
                             congruence(ship_after, shuttle_structure)))
        self.shuttles_processed += 1

    def record_emitted(self, now, shuttle_structure, ship_structure):
        self._emit_scores.append(
            (now, congruence(ship_structure, shuttle_structure)))
        self.shuttles_emitted += 1

    def reflection_gain(self):
        if not self._scores:
            return 0.0
        return sum(after - before
                   for _, before, after in self._scores) / len(self._scores)

    def emission_congruence(self):
        if not self._emit_scores:
            return 0.0
        return sum(score for _, score in self._emit_scores) \
            / len(self._emit_scores)

    def history(self):
        return list(self._scores)


class PerDockShip(Ship):
    """Reference structure: rebuilt from the roles, the fabric, the
    backplane and the knowledge base on every call, so a dock builds it
    twice; its tracker scores at record time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.congruence = RecordTimeTracker()

    def _current_structure(self):
        return {
            "functions": tuple(sorted(self.roles)),
            "hardware": tuple(sorted(
                set(self.fabric_hw.describe()["functions"])
                | set(self.backplane.describe()["modules"]))),
            "knowledge": tuple(sorted(self.knowledge.classes())),
            "interface": self.interface,
        }


#: Fact classes a docked quantum carries: two that roles bootstrap,
#: two that only quanta bring.
_DOCK_CLASSES = (CachingRole.supporting_fact_classes[0],
                 TranscodingRole.supporting_fact_classes[0], "kq.a", "kq.b")
_DOCK_ROLE_OPS = {"acquire": OP_ACQUIRE_ROLE, "release": OP_RELEASE_ROLE,
                  "activate": OP_ACTIVATE_ROLE,
                  "next-step": OP_SET_NEXT_STEP}
_dock_fact = st.tuples(st.sampled_from(_DOCK_CLASSES),
                       st.integers(min_value=0, max_value=3),
                       st.sampled_from([0.3, 1.0, 4.0]))
_dock_directive = st.one_of(
    st.tuples(st.sampled_from(sorted(_DOCK_ROLE_OPS)), _PLAN_ROLES),
    st.tuples(st.just("quantum"), _PLAN_ROLES,
              st.lists(_dock_fact, max_size=3), st.booleans()),
    st.tuples(st.just("bitstream"), _PLAN_ROLES))


def _dock_directive_of(spec):
    kind, role = spec[0], spec[1]
    if kind == "quantum":
        snaps = [{"fact_class": cls, "value": value, "weight": weight,
                  "source": 0} for cls, value, weight in spec[2]]
        return Directive(OP_DEPLOY_QUANTUM, auto_acquire=spec[3],
                         quantum=KnowledgeQuantum(role.role_id, snaps,
                                                  origin=0))
    if kind == "bitstream":
        return Directive(OP_LOAD_BITSTREAM,
                         bitstream=Bitstream(role.role_id,
                                             cells=role.hw_cells))
    return Directive(_DOCK_ROLE_OPS[kind], role_id=role.role_id)


class DockOracleMachine(_ReconfigurationSteps):
    """Two identical networks in lockstep, one docking through the
    structure stamp and the on-read tracker, one through
    :class:`PerDockShip`; after every step the structures must be equal
    and the DCP scores equal with ``==``.  Each reconfiguration is
    followed by one dock that changes nothing.  A knowledge capacity of
    six makes displacement common."""

    def __init__(self):
        super().__init__()
        self.worlds = (_PlanWorld(Ship, knowledge_capacity=6),
                       _PlanWorld(PerDockShip, knowledge_capacity=6))

    def _dock(self, specs):
        reports = [world.ship.process_shuttle(
            Shuttle(0, 1, credential=world.cred,
                    directives=[_dock_directive_of(spec) for spec in specs]),
            0) for world in self.worlds]
        assert reports[0] == reports[1]

    def _probe(self):
        self._dock([("next-step", CachingRole)])

    @rule(specs=st.lists(_dock_directive, min_size=1, max_size=4))
    def dock_shuttle(self, specs):
        self._dock(specs)

    @rule(cls=st.sampled_from(_DOCK_CLASSES),
          value=st.integers(min_value=0, max_value=5))
    def record(self, cls, value):
        for world in self.worlds:
            world.ship.record_fact(cls, value)
        self._probe()

    @rule(dt=st.sampled_from([1.0, 60.0, 200.0]))
    def expire(self, dt):
        for world in self.worlds:
            world.sim.run(until=world.sim.now + dt)
            world.ship.knowledge.sweep(world.sim.now)
        self._probe()

    @rule(role=st.one_of(_PLAN_ROLES, st.just(None)))
    def emit(self, role):
        # A role shuttle for a role, or the ship's genome for None.
        for world in self.worlds:
            if role is None:
                world.ship.make_genome_shuttle(2, credential=world.cred)
            elif world.ship.has_role(role.role_id):
                world.ship.make_role_shuttle(role.role_id, 2,
                                             credential=world.cred)
            else:
                with pytest.raises(ShipError):
                    world.ship.make_role_shuttle(role.role_id, 2)

    @invariant()
    def dcp_agrees(self):
        stamped, reference = self.worlds
        for node in sorted(stamped.ships):
            ship, ref = stamped.ships[node], reference.ships[node]
            assert ship.structure() == ref.structure()
            tracker, ref_tracker = ship.congruence, ref.congruence
            assert tracker.history() == ref_tracker.history()
            assert tracker.reflection_gain() == ref_tracker.reflection_gain()
            assert tracker.emission_congruence() \
                == ref_tracker.emission_congruence()
            assert (tracker.shuttles_processed, tracker.shuttles_emitted) \
                == (ref_tracker.shuttles_processed,
                    ref_tracker.shuttles_emitted)


TestDockOracle = DockOracleMachine.TestCase
TestDockOracle.settings = settings(STATE_MACHINE_SETTINGS,
                                   stateful_step_count=30)


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------

class TestTokenBucketProperties:
    @given(st.lists(st.floats(min_value=1.0, max_value=500.0),
                    max_size=30),
           st.floats(min_value=10.0, max_value=1000.0),
           st.floats(min_value=10.0, max_value=1000.0))
    def test_tokens_never_exceed_burst(self, amounts, rate, burst):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=rate, burst=burst)
        for amount in amounts:
            bucket.consume(amount)
            assert bucket.tokens <= burst + 1e-9

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0),
                    min_size=1, max_size=20))
    def test_waits_are_monotone_for_back_to_back_sends(self, amounts):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=50.0, burst=10.0)
        waits = [bucket.consume(a) for a in amounts]
        assert all(b >= a - 1e-9 for a, b in zip(waits, waits[1:]))


# ----------------------------------------------------------------------
# Congruence (DCP measure)
# ----------------------------------------------------------------------

structure_strategy = st.fixed_dictionaries({
    "functions": st.frozensets(st.sampled_from("fghij"), max_size=4),
    "hardware": st.frozensets(st.sampled_from("xyz"), max_size=3),
    "knowledge": st.frozensets(st.sampled_from("klm"), max_size=3),
    "interface": st.frozensets(st.sampled_from("pq"), max_size=2),
})


class TestCongruenceProperties:
    @given(structure_strategy, structure_strategy)
    def test_bounded_and_symmetric(self, a, b):
        score = congruence(a, b)
        assert 0.0 <= score <= 1.0 + 1e-12
        assert math.isclose(score, congruence(b, a), rel_tol=1e-12)

    @given(structure_strategy)
    def test_identity_scores_one(self, a):
        assert math.isclose(congruence(a, a), 1.0, rel_tol=1e-12)


# ----------------------------------------------------------------------
# Entropy / FrozenState
# ----------------------------------------------------------------------

class TestEntropyProperties:
    @given(st.dictionaries(st.text(max_size=3),
                           st.integers(min_value=0, max_value=50),
                           max_size=8))
    def test_entropy_bounds(self, dist):
        h = entropy(dist)
        nonzero = sum(1 for v in dist.values() if v > 0)
        assert h >= 0.0
        if nonzero > 0:
            assert h <= math.log2(nonzero) + 1e-9


class TestFrozenStateProperties:
    @given(st.dictionaries(st.sampled_from("abcde"),
                           st.integers(-5, 5), max_size=5))
    def test_equal_dicts_equal_states(self, data):
        assert FrozenState(data) == FrozenState(dict(data))
        # hash-consistency is the property under test; the value is
        # compared intra-process, never exported or used for ordering
        # via: ignore[VIA009]
        assert hash(FrozenState(data)) == hash(FrozenState(dict(data)))

    @given(st.dictionaries(st.sampled_from("abc"), st.integers(-5, 5),
                           min_size=1),
           st.integers(-5, 5))
    def test_updated_changes_only_target_key(self, data, new_value):
        state = FrozenState(data)
        key = sorted(data)[0]
        updated = state.updated(**{key: new_value})
        assert updated[key] == new_value
        for other in data:
            if other != key:
                assert updated[other] == state[other]


# ----------------------------------------------------------------------
# Fabric packet conservation
# ----------------------------------------------------------------------

class TestFabricConservation:
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=30, deadline=None)
    def test_sent_equals_delivered_plus_dropped(self, n, packets,
                                                loss_rate):
        from repro.substrates.phys import (Datagram, NetworkFabric,
                                           line_topology)

        sim = Simulator(seed=9)
        topo = line_topology(n)
        fabric = NetworkFabric(sim, topo, loss_rate=loss_rate)

        class Sink:
            def receive(self, packet, from_node):
                pass

        for node in topo.nodes:
            fabric.attach(node, Sink())
        for i in range(packets):
            fabric.send(i % (n - 1), i % (n - 1) + 1,
                        Datagram(0, n - 1))
        sim.run()
        assert fabric.packets_sent == \
            fabric.packets_delivered + fabric.packets_dropped


# ----------------------------------------------------------------------
# QoS overlays are subgraphs
# ----------------------------------------------------------------------

class TestOverlaySubgraphProperty:
    @given(topology_strategy(),
           st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=30)
    def test_topology_on_demand_is_admissible_subgraph(self, topo,
                                                       max_latency):
        from repro.routing import QosDemand, topology_on_demand

        demand = QosDemand(max_link_latency=max_latency)
        virtual = topology_on_demand(topo, demand)
        assert set(virtual.nodes) == set(topo.nodes)
        for link in virtual.links:
            assert topo.has_link(link.a, link.b)
            assert link.latency <= max_latency + 1e-12
        # Completeness: every admissible physical link is included.
        for link in topo.links:
            if link.up and link.latency <= max_latency:
                assert virtual.has_link(link.a, link.b)


# ----------------------------------------------------------------------
# Genome encoding determinism
# ----------------------------------------------------------------------

class TestGenomeProperties:
    @given(st.lists(st.sampled_from(
        ["fn.fusion", "fn.caching", "fn.transcoding", "fn.boosting"]),
        unique=True, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_encode_is_deterministic_and_complete(self, role_ids):
        from repro.core import Ship, encode_ship
        from repro.functions import default_catalog
        from repro.routing import StaticRouter
        from repro.substrates.phys import NetworkFabric, line_topology

        sim = Simulator(seed=3)
        topo = line_topology(1)
        fabric = NetworkFabric(sim, topo)
        ship = Ship(sim, fabric, 0, router=StaticRouter(topo))
        catalog = default_catalog()
        for role_id in role_ids:
            ship.acquire_role(catalog.create(role_id))
        g1 = encode_ship(ship, 0.0)
        g2 = encode_ship(ship, 0.0)
        assert g1.payload == g2.payload
        held = set(g1.modal_roles) | set(g1.auxiliary_roles)
        assert held == set(ship.roles)


# ----------------------------------------------------------------------
# Trace bus prefix semantics
# ----------------------------------------------------------------------

class TestTraceProperties:
    @given(st.lists(st.sampled_from(
        ["a", "a.b", "a.b.c", "a.x", "b", "b.c"]), max_size=20))
    def test_prefix_subscriber_sees_exactly_descendants(self, topics):
        sim = Simulator()
        seen = []
        sim.trace.subscribe("a.b", lambda rec: seen.append(rec.topic))
        for topic in topics:
            sim.trace.emit(topic)
        expected = [t for t in topics
                    if t == "a.b" or t.startswith("a.b.")]
        assert seen == expected


# ----------------------------------------------------------------------
# The autopoietic pulse never corrupts ship invariants
# ----------------------------------------------------------------------

class TestPulseRobustness:
    @given(st.lists(st.tuples(
        st.sampled_from(["fn.fusion", "fn.caching", "fn.transcoding",
                         "fn.delegation", "fn.boosting"]),
        st.integers(min_value=0, max_value=2)), max_size=6),
        st.lists(st.tuples(
            st.sampled_from(["flow", "content-request", "task-origin"]),
            st.integers(0, 9), st.integers(min_value=0, max_value=2)),
            max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_pulse_preserves_ship_invariants(self, role_placements,
                                             fact_placements):
        from repro.core import WanderingEngine, Ship
        from repro.functions import default_catalog
        from repro.routing import StaticRouter
        from repro.substrates.phys import NetworkFabric, ring_topology

        sim = Simulator(seed=5)
        topo = ring_topology(3)
        fabric = NetworkFabric(sim, topo)
        router = StaticRouter(topo)
        catalog = default_catalog()
        ships = {n: Ship(sim, fabric, n, catalog=catalog, router=router)
                 for n in topo.nodes}
        engine = WanderingEngine(sim, ships, catalog,
                                 migrate_bias=1.0, min_attraction=0.3)
        for role_id, node in role_placements:
            if not ships[node].has_role(role_id):
                ships[node].acquire_role(catalog.create(role_id))
        for cls, value, node in fact_placements:
            ships[node].record_fact(cls, value)
        for _ in range(3):
            engine.pulse()
            sim.run(until=sim.now + 5.0)
        for ship in ships.values():
            # One active function at most; every role has a bound EE;
            # knowledge stays within capacity.
            active = [rid for rid, meta in ship.roles.items()
                      if ship.nodeos.ees.get(meta["ee"]) is not None
                      and ship.nodeos.ees.get(meta["ee"]).state == "active"]
            assert len(active) <= 1
            for rid, meta in ship.roles.items():
                ee = ship.nodeos.ees.get(meta["ee"])
                assert ee is not None and ee.bound, rid
            assert len(ship.knowledge) <= ship.knowledge.capacity
            assert ship.has_role("fn.nextstep")
