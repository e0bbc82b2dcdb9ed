"""Proactive distance-vector baseline router.

The conventional ad-hoc baseline the WLI adaptive protocol is compared
against: periodic full-table broadcasts (DSDV-flavoured), no on-demand
discovery, no packet buffering.  Routes time out if not refreshed; a
split-horizon rule avoids two-node count-to-infinity loops.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, NamedTuple, Optional

from ..substrates.phys import Datagram
from ..substrates.sim import Simulator

NodeId = Hashable


class DVRoute(NamedTuple):
    next_hop: NodeId
    cost: float
    expires: float


class DistanceVectorRouter:
    """Periodic-advertisement DV routing (one instance per ship)."""

    INFINITY = 16.0

    def __init__(self, sim: Simulator, advertise_interval: float = 5.0,
                 route_ttl: float = 15.0):
        self.sim = sim
        self.advertise_interval = float(advertise_interval)
        self.route_ttl = float(route_ttl)
        self.ship = None
        self.routes: Dict[NodeId, DVRoute] = {}
        self.advertisements_sent = 0
        self._task = None

    def on_attached(self, ship) -> None:
        self.ship = ship
        self._task = self.sim.every(
            self.advertise_interval, self._advertise,
            jitter=self.advertise_interval * 0.2,
            stream=f"routing.dv.{ship.ship_id}")

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _neighbors(self) -> FrozenSet[NodeId]:
        if self.ship is None or not self.ship.alive:
            return frozenset()
        return self.ship.fabric.topology.neighbor_set(self.ship.ship_id)

    def _alive(self, route: DVRoute) -> bool:
        return (route.expires > self.sim.now
                and route.cost < self.INFINITY
                and route.next_hop in self._neighbors())

    def next_hop(self, ship_id: NodeId, dst: NodeId) -> Optional[NodeId]:
        if dst in self._neighbors():
            return dst
        route = self.routes.get(dst)
        if route is not None and self._alive(route):
            return route.next_hop
        return None

    #: ``next_hop`` has no side effects.
    lookup = next_hop

    def _advertise(self) -> None:
        if self.ship is None or not self.ship.alive:
            return
        self.advertisements_sent += 1
        for neighbor in sorted(self._neighbors(), key=repr):
            vector = {self.ship.ship_id: 0.0}
            for dst, route in self.routes.items():
                if not self._alive(route):
                    continue
                # Split horizon: never advertise back the hop we use.
                if route.next_hop == neighbor:
                    continue
                vector[dst] = route.cost
            adv = Datagram(self.ship.ship_id, neighbor,
                           size_bytes=64 + 12 * len(vector), ttl=1,
                           payload={"kind": "dv-adv", "vector": vector})
            self.ship.fabric.send(self.ship.ship_id, neighbor, adv)

    def handle_control(self, ship, packet, from_node) -> bool:
        payload = packet.payload
        if not isinstance(payload, dict) or payload.get("kind") != "dv-adv":
            return False
        for dst, cost in payload["vector"].items():
            if dst == ship.ship_id:
                continue
            new_cost = min(cost + 1.0, self.INFINITY)
            current = self.routes.get(dst)
            if (current is None or not self._alive(current)
                    or new_cost < current.cost
                    or current.next_hop == from_node):
                self.routes[dst] = DVRoute(from_node, new_cost,
                                           self.sim.now + self.route_ttl)
        return True

    def __repr__(self) -> str:
        return f"<DistanceVectorRouter routes={len(self.routes)}>"


class FloodingRouter:
    """Degenerate baseline: flood everything (robust, hugely wasteful).

    Each packet is re-broadcast once per node (duplicate suppression by
    packet flow+id), and delivered when it reaches its destination.
    """

    def __init__(self):
        self.ship = None
        self._seen = set()
        self.floods = 0

    def on_attached(self, ship) -> None:
        self.ship = ship

    def next_hop(self, ship_id: NodeId, dst: NodeId) -> Optional[NodeId]:
        # Flooding has no single next hop; handle_control does the work.
        return None

    def on_no_route(self, ship, packet: Datagram) -> bool:
        key = (packet.flow_id, packet.packet_id)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.floods += 1
        flood = packet.clone()
        flood.meta["flooded"] = True
        return ship.fabric.broadcast(ship.ship_id, flood) > 0

    def handle_control(self, ship, packet, from_node) -> bool:
        if not packet.meta.get("flooded"):
            return False
        if packet.dst == ship.ship_id:
            ship.deliver_local(packet, from_node)
            return True
        key = (packet.flow_id, "relay", packet.src, packet.dst,
               packet.created_at)
        if key in self._seen or packet.ttl <= 0:
            return True  # suppress duplicate
        self._seen.add(key)
        ship.fabric.broadcast(ship.ship_id, packet)
        return True
