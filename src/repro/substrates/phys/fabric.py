"""Network fabric: binds a topology to a simulator and delivers packets.

The fabric models per-link, per-direction FIFO transmission (token
bucket), propagation latency, TTL, and loss on down links.  Hosts attach
with :meth:`NetworkFabric.attach` and must expose::

    host.receive(packet, from_node)   # called at delivery time

Delivery of a packet on a link that goes down mid-flight is dropped —
the paper's ad-hoc scenarios depend on this loss mode.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Protocol, Tuple

from ...obs import TRACE_META_KEY
from ..sim import Simulator, TokenBucket
from .packet import Datagram
from .topology import Link, Topology, TopologyError

NodeId = Hashable


class Host(Protocol):
    def receive(self, packet: Datagram, from_node: NodeId) -> None: ...


class NetworkFabric:
    """Delivers datagrams between hosts attached to topology nodes."""

    def __init__(self, sim: Simulator, topology: Topology,
                 loss_rate: float = 0.0):
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate out of range: {loss_rate}")
        self.sim = sim
        self.topology = topology
        self.loss_rate = float(loss_rate)
        self._hosts: Dict[NodeId, Host] = {}
        self._buckets: Dict[Tuple, TokenBucket] = {}
        #: Optional per-link circuit breakers (a
        #: :class:`repro.resilience.LinkBreakerRegistry` installs itself
        #: here); ``None`` keeps the legacy fire-and-forget behavior.
        self.breakers = None
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.bytes_delivered = 0

    # -- attachment -------------------------------------------------------
    def attach(self, node: NodeId, host: Host) -> None:
        if node not in self.topology:
            raise TopologyError(f"no node {node!r} in topology")
        self._hosts[node] = host

    def detach(self, node: NodeId) -> None:
        self._hosts.pop(node, None)

    def host(self, node: NodeId) -> Optional[Host]:
        return self._hosts.get(node)

    # -- transmission -----------------------------------------------------
    def _bucket(self, link: Link, direction: NodeId) -> TokenBucket:
        key = (link.name, direction)
        bucket = self._buckets.get(key)
        if bucket is None:
            # One MTU of burst keeps short packets latency-bound rather
            # than rate-bound, like a real line card.
            bucket = TokenBucket(self.sim, rate=link.bandwidth,
                                 burst=1500.0, name=f"{link.name}:{direction}")
            self._buckets[key] = bucket
        return bucket

    def send(self, from_node: NodeId, to_node: NodeId,
             packet: Datagram) -> bool:
        """Transmit one hop.  Returns False if dropped at send time.

        Drops happen when: the link does not exist or is down, either
        endpoint is down, the TTL is exhausted, or random loss strikes.
        """
        self.packets_sent += 1
        if self.sim.obs.on:
            self.sim.obs.fabric_packets.inc(event="send", reason="")
        try:
            link = self.topology.link(from_node, to_node)
        except TopologyError:
            return self._drop(packet, from_node, to_node, "no-link")
        if self.breakers is not None \
                and not self.breakers.admit(from_node, to_node):
            # Tripped breaker: fail fast, no bucket wait, no in-flight.
            return self._drop(packet, from_node, to_node, "breaker-open")
        if not link.up:
            return self._drop(packet, from_node, to_node, "link-down")
        if not (self.topology.node_up(from_node)
                and self.topology.node_up(to_node)):
            return self._drop(packet, from_node, to_node, "node-down")
        if packet.ttl <= 0:
            return self._drop(packet, from_node, to_node, "ttl")
        if self.loss_rate > 0.0:
            rng = self.sim.rng.stream("fabric.loss")
            lost = rng.random() < self.loss_rate
            # FEC-protected packets (protocol boosters) survive a single
            # loss event: they only die if a second draw also strikes.
            if lost and packet.meta.get("fec"):
                lost = rng.random() < self.loss_rate
            if lost:
                link.drops += 1
                return self._drop(packet, from_node, to_node, "loss")

        queue_wait = self._bucket(link, from_node).consume(packet.size_bytes)
        serialization = packet.size_bytes / link.bandwidth
        delay = queue_wait + serialization + link.latency
        self._schedule_delivery(link, from_node, to_node, packet, delay)
        return True

    def _schedule_delivery(self, link: Link, from_node: NodeId,
                           to_node: NodeId, packet: Datagram,
                           delay: float) -> None:
        """Enqueue the in-flight leg.  The shard fabric overrides this
        to divert packets bound for ships another shard owns."""
        self.sim.call_in(delay, self._deliver, link, from_node, to_node,
                         packet, name="deliver")

    def _deliver(self, link: Link, from_node: NodeId, to_node: NodeId,
                 packet: Datagram) -> None:
        # Link may have flapped while the packet was in flight.
        if not link.up or not self.topology.node_up(to_node):
            self._drop(packet, from_node, to_node, "in-flight")
            return
        host = self._hosts.get(to_node)
        if host is None:
            self._drop(packet, from_node, to_node, "no-host")
            return
        packet.ttl -= 1
        packet.hops += 1
        link.bytes_carried += packet.size_bytes
        link.packets_carried += 1
        self.packets_delivered += 1
        self.bytes_delivered += packet.size_bytes
        if self.breakers is not None:
            self.breakers.record_success(from_node, to_node)
        obs = self.sim.obs
        if obs.on:
            obs.fabric_packets.inc(event="deliver", reason="")
            obs.link_bytes.inc(packet.size_bytes, link=link.name)
            if obs.flight_recorder is not None:
                obs.flight_recorder.note(
                    "delivery", self.sim.now,
                    f"{from_node}->{to_node}", link=link.name,
                    packet=packet.packet_id)
            ctx = packet.meta.get(TRACE_META_KEY)
            if ctx is not None:
                # Chain the journey: each hop re-parents the in-flight
                # context so the causal tree reads hop -> hop -> dock.
                hop = obs.tracer.event(f"hop:{from_node}->{to_node}", ctx,
                                       to_node, self.sim.now,
                                       link=link.name, ttl=packet.ttl)
                packet.meta[TRACE_META_KEY] = hop.context
        self.sim.trace.emit("fabric.deliver", link=link.name,
                            packet=packet.packet_id, to=to_node)
        host.receive(packet, from_node)

    def _drop(self, packet: Datagram, from_node: NodeId, to_node: NodeId,
              reason: str) -> bool:
        self.packets_dropped += 1
        if self.breakers is not None:
            self.breakers.record_drop(from_node, to_node, reason)
        obs = self.sim.obs
        if obs.on:
            obs.fabric_packets.inc(event="drop", reason=reason)
            if obs.flight_recorder is not None:
                obs.flight_recorder.note(
                    "drop", self.sim.now, f"{from_node}->{to_node}",
                    reason=reason, packet=packet.packet_id)
            ctx = packet.meta.get(TRACE_META_KEY)
            if ctx is not None:
                obs.tracer.event("drop", ctx, to_node, self.sim.now,
                                 reason=reason)
        self.sim.trace.emit("fabric.drop", reason=reason,
                            packet=packet.packet_id,
                            src=from_node, dst=to_node)
        return False

    def broadcast(self, from_node: NodeId, packet: Datagram) -> int:
        """Send a copy to every up neighbour; returns copies sent."""
        sent = 0
        obs = self.sim.obs
        count_branches = obs.on
        for peer in self.topology.neighbors(from_node):
            copy = packet.clone()
            if self.send(from_node, peer, copy):
                sent += 1
                if count_branches:
                    obs.multicast_branches.inc(node=from_node)
        return sent

    def __repr__(self) -> str:
        return (f"<NetworkFabric hosts={len(self._hosts)} "
                f"delivered={self.packets_delivered} "
                f"dropped={self.packets_dropped}>")
