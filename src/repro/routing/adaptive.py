"""The WLI generic adaptive routing protocol for active ad-hoc networks.

Section E reports that the WLI framework was applied to "the formal
specification and verification of a generic adaptive routing protocol
for active ad-hoc wireless networks".  This module is that protocol,
implemented and runnable (its verified model lives in
:mod:`repro.verification.specs.adaptive_routing`):

* **proactive half** — periodic *hello* advertisements to neighbours
  carrying a distance vector of known routes;
* **reactive half** — on-demand route discovery (request flood + reply
  unwinding along reverse routes) when a packet has no route, with the
  packet buffered until the route arrives or times out;
* **PMP coupling** — every learned route is also recorded as a ``route``
  fact in the ship's knowledge base, so routes age and vanish exactly
  like any other fact ("facts have a certain lifetime ...").

Routes themselves carry an expiry refreshed on use/advertisement; link
churn (radio or failures) invalidates affected routes immediately.
"""

from __future__ import annotations

import itertools
from typing import (Dict, FrozenSet, Hashable, List, NamedTuple, Optional,
                    Tuple)

from ..substrates.phys import Datagram, TopologyError
from ..substrates.sim import Simulator

NodeId = Hashable

# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_request_ids = itertools.count(1)


class Route(NamedTuple):
    next_hop: NodeId
    cost: float          # hop count toward dst
    expires: float       # absolute sim time


class WLIAdaptiveRouter:
    """Per-ship adaptive ad-hoc router (one instance per ship)."""

    def __init__(self, sim: Simulator,
                 hello_interval: float = 5.0,
                 route_ttl: float = 30.0,
                 discovery_timeout: float = 3.0,
                 max_buffered: int = 64,
                 proactive: bool = True,
                 reactive: bool = True):
        if hello_interval <= 0 or route_ttl <= 0 or discovery_timeout <= 0:
            raise ValueError("intervals must be positive")
        self.sim = sim
        self.hello_interval = float(hello_interval)
        self.route_ttl = float(route_ttl)
        self.discovery_timeout = float(discovery_timeout)
        self.max_buffered = int(max_buffered)
        self.proactive = proactive
        self.reactive = reactive

        self.ship = None
        self.routes: Dict[NodeId, Route] = {}
        self._buffered: Dict[NodeId, List[Datagram]] = {}
        self._discovering: Dict[NodeId, float] = {}  # dst -> deadline
        self._seen_requests: set = set()

        self.hellos_sent = 0
        self.discoveries_started = 0
        self.replies_sent = 0
        self.buffered_total = 0
        self.buffer_drops = 0
        self._hello_task = None

    # -- attachment --------------------------------------------------------
    def on_attached(self, ship) -> None:
        self.ship = ship
        if self.proactive:
            self._hello_task = self.sim.every(
                self.hello_interval, self._send_hello,
                jitter=self.hello_interval * 0.2,
                stream=f"routing.hello.{ship.ship_id}")

    def stop(self) -> None:
        if self._hello_task is not None:
            self._hello_task.stop()

    # -- route table --------------------------------------------------------
    # One routing decision takes the neighbour set once and passes it
    # down: nothing it runs changes the topology (sends only schedule
    # deliveries), so the set stays valid for the whole decision.
    def _alive(self, route: Route, neighbors: FrozenSet[NodeId]) -> bool:
        return route.expires > self.sim.now and route.next_hop in neighbors

    def _neighbor_set(self) -> FrozenSet[NodeId]:
        if self.ship is None or not self.ship.alive:
            return frozenset()
        try:
            return self.ship.fabric.topology.neighbor_set(self.ship.ship_id)
        except TopologyError:
            return frozenset()

    def learn_route(self, dst: NodeId, next_hop: NodeId, cost: float,
                    neighbors: Optional[FrozenSet[NodeId]] = None) -> None:
        """Install ``dst`` via ``next_hop`` unless a live route through
        another hop is no worse.  ``neighbors`` is the caller's
        neighbour set, taken when omitted."""
        if dst == self.ship.ship_id:
            return
        current = self.routes.get(dst)
        if (current is not None and not cost < current.cost
                and next_hop != current.next_hop):
            if neighbors is None:
                neighbors = self._neighbor_set()
            if self._alive(current, neighbors):
                return
        self.routes[dst] = Route(next_hop, cost,
                                 self.sim.now + self.route_ttl)
        # PMP coupling: the route is an experience of the network.
        self.ship.record_fact("route", (dst, next_hop))
        if dst in self._buffered:
            self._flush_buffer(dst)

    def invalidate_via(self, next_hop: NodeId) -> int:
        """Drop every route through a lost neighbour; returns count."""
        dead = [dst for dst, r in self.routes.items()
                if r.next_hop == next_hop]
        for dst in dead:
            del self.routes[dst]
        return len(dead)

    def route_table(self) -> Dict[NodeId, Tuple[NodeId, float]]:
        neighbors = self._neighbor_set()
        return {dst: (r.next_hop, r.cost)
                for dst, r in self.routes.items()
                if self._alive(r, neighbors)}

    # -- forwarding decisions ---------------------------------------------
    def next_hop(self, ship_id: NodeId, dst: NodeId) -> Optional[NodeId]:
        neighbors = self._neighbor_set()
        if dst in neighbors:
            self.learn_route(dst, dst, 1.0, neighbors)
            return dst
        route = self.routes.get(dst)
        if route is not None and self._alive(route, neighbors):
            # Use refreshes the route's expiry.
            self.routes[dst] = Route(route.next_hop, route.cost,
                                     self.sim.now + self.route_ttl)
            return route.next_hop
        return None

    def lookup(self, ship_id: NodeId, dst: NodeId) -> Optional[NodeId]:
        """The hop :meth:`next_hop` would return, without learning or
        refreshing a route."""
        neighbors = self._neighbor_set()
        if dst in neighbors:
            return dst
        route = self.routes.get(dst)
        if route is not None and self._alive(route, neighbors):
            return route.next_hop
        return None

    def on_no_route(self, ship, packet: Datagram) -> bool:
        """Buffer the packet and start reactive discovery.  True=buffered."""
        if not self.reactive:
            return False
        buf = self._buffered.setdefault(packet.dst, [])
        if len(buf) >= self.max_buffered:
            self.buffer_drops += 1
            return False
        buf.append(packet)
        self.buffered_total += 1
        self._start_discovery(packet.dst)
        return True

    #: Costs at or above this are unreachable (count-to-infinity bound).
    INFINITY = 16.0

    # -- proactive half -----------------------------------------------------
    def _send_hello(self) -> None:
        """Per-neighbour advertisements with split horizon + poisoned
        reverse: a route is advertised back to its own next hop as
        unreachable.  Without this the hello half can build the classic
        two-node count-to-infinity loop — found by the model/
        implementation cross-validation test, not by the spec (whose
        reactive core has no periodic advertisements)."""
        if self.ship is None or not self.ship.alive:
            return
        self.hellos_sent += 1
        if self.sim.obs.on:
            self.sim.obs.protocol_events.inc(method="routing.hello")
        table = self.route_table()
        for neighbor in sorted(self._neighbor_set(), key=repr):
            vector = {self.ship.ship_id: 0.0}
            for dst, (hop, cost) in table.items():
                vector[dst] = self.INFINITY if hop == neighbor else cost
            hello = Datagram(self.ship.ship_id, neighbor,
                             size_bytes=64 + 12 * len(vector), ttl=1,
                             payload={"kind": "route-adv",
                                      "vector": vector,
                                      "origin": self.ship.ship_id})
            self.ship.fabric.send(self.ship.ship_id, neighbor, hello)

    def _on_hello(self, ship, packet, from_node) -> None:
        vector = packet.payload["vector"]
        neighbors = self._neighbor_set()
        for dst, cost in vector.items():
            if dst == ship.ship_id:
                continue
            new_cost = cost + 1.0
            if new_cost >= self.INFINITY:
                # Poisoned: drop our route if it goes through the sender.
                current = self.routes.get(dst)
                if current is not None and current.next_hop == from_node:
                    del self.routes[dst]
                continue
            self.learn_route(dst, from_node, new_cost, neighbors)

    # -- reactive half ------------------------------------------------------
    def _start_discovery(self, dst: NodeId) -> None:
        deadline = self._discovering.get(dst)
        if deadline is not None and deadline > self.sim.now:
            return
        self._discovering[dst] = self.sim.now + self.discovery_timeout
        self.discoveries_started += 1
        if self.sim.obs.on:
            self.sim.obs.protocol_events.inc(method="routing.rreq")
        request_id = next(_request_ids)
        self._seen_requests.add((self.ship.ship_id, request_id))
        rreq = Datagram(self.ship.ship_id, Datagram.BROADCAST,
                        size_bytes=96, ttl=16,
                        payload={"kind": "rreq", "origin": self.ship.ship_id,
                                 "target": dst, "request_id": request_id,
                                 "hops": 0})
        self.ship.fabric.broadcast(self.ship.ship_id, rreq)
        self.sim.call_in(self.discovery_timeout, self._discovery_deadline,
                         dst, name="rreq-timeout")

    def _discovery_deadline(self, dst: NodeId) -> None:
        if dst in self.routes and self._alive(self.routes[dst],
                                              self._neighbor_set()):
            return
        self._discovering.pop(dst, None)
        dropped = self._buffered.pop(dst, [])
        self.buffer_drops += len(dropped)
        if dropped:
            self.sim.trace.emit("routing.discovery.fail",
                                ship=self.ship.ship_id, dst=dst,
                                dropped=len(dropped))

    def _on_rreq(self, ship, packet, from_node) -> None:
        p = packet.payload
        key = (p["origin"], p["request_id"])
        if key in self._seen_requests:
            return
        self._seen_requests.add(key)
        hops = p["hops"] + 1
        # Reverse route toward the origin.
        self.learn_route(p["origin"], from_node, float(hops))
        target = p["target"]
        if target == ship.ship_id:
            self._send_reply(p["origin"], target, 0)
            return
        route = self.routes.get(target)
        if route is not None and self._alive(route, self._neighbor_set()):
            # Intermediate node answers from its route cache.
            self._send_reply(p["origin"], target, int(route.cost))
            return
        fwd = Datagram(ship.ship_id, Datagram.BROADCAST,
                       size_bytes=96, ttl=packet.ttl,
                       payload={**p, "hops": hops})
        ship.fabric.broadcast(ship.ship_id, fwd)

    def _send_reply(self, origin: NodeId, target: NodeId,
                    base_cost: int) -> None:
        self.replies_sent += 1
        if self.sim.obs.on:
            self.sim.obs.protocol_events.inc(method="routing.rrep")
        rrep = Datagram(self.ship.ship_id, origin, size_bytes=96, ttl=16,
                        payload={"kind": "rrep", "target": target,
                                 "cost": base_cost, "origin": origin,
                                 "responder": self.ship.ship_id})
        self._forward_reply(rrep)

    def _forward_reply(self, rrep: Datagram) -> None:
        hop = self.next_hop(self.ship.ship_id, rrep.dst)
        if hop is not None:
            self.ship.fabric.send(self.ship.ship_id, hop, rrep)

    def _on_rrep(self, ship, packet, from_node) -> None:
        p = packet.payload
        cost_here = p["cost"] + packet.hops
        self.learn_route(p["target"], from_node, float(max(cost_here, 1)))
        if p["origin"] == ship.ship_id:
            self._discovering.pop(p["target"], None)
            self._flush_buffer(p["target"])
            return
        self._forward_reply(packet)

    def _flush_buffer(self, dst: NodeId) -> None:
        buffered = self._buffered.pop(dst, [])
        for packet in buffered:
            self.ship.send_toward(packet)

    # -- control dispatch ---------------------------------------------------
    def handle_control(self, ship, packet, from_node) -> bool:
        payload = packet.payload
        if not isinstance(payload, dict):
            return False
        kind = payload.get("kind")
        if kind == "route-adv":
            self._on_hello(ship, packet, from_node)
            return True
        if kind == "rreq":
            self._on_rreq(ship, packet, from_node)
            return True
        if kind == "rrep":
            self._on_rrep(ship, packet, from_node)
            return True
        return False

    def __repr__(self) -> str:
        return (f"<WLIAdaptiveRouter routes={len(self.routes)} "
                f"discoveries={self.discoveries_started}>")
