"""Legacy (passive) IP routers.

The non-active baseline of Table 1's left-hand columns and the
"interoperability" partner of the Multidimensional Feedback Principle
("active routers could also interoperate with legacy routers which
transparently forward datagrams in the traditional manner").

A :class:`LegacyRouter` only stores and forwards: routes are static
shortest paths recomputed when the topology version changes (a stand-in
for a converged link-state IGP), packets carrying code are treated as
opaque bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from ..phys import Datagram, NetworkFabric
from ..sim import Simulator

NodeId = Hashable
DeliveryHandler = Callable[[Datagram, NodeId], None]


class LegacyRouter:
    """A passive store-and-forward router bound to one topology node."""

    def __init__(self, sim: Simulator, fabric: NetworkFabric,
                 node_id: NodeId,
                 convergence_delay: float = 0.0):
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        #: Seconds the router keeps using stale routes after a topology
        #: change (models IGP convergence; 0 = oracle convergence).
        self.convergence_delay = float(convergence_delay)
        self._table: Dict[NodeId, NodeId] = {}
        self._table_version = -1
        self._pending_version = -1
        self._stale_until = 0.0
        self._delivery_handlers: List[DeliveryHandler] = []
        self.forwarded = 0
        self.delivered = 0
        self.dropped_no_route = 0
        fabric.attach(node_id, self)

    # -- application hookup -------------------------------------------------
    def on_deliver(self, fn: DeliveryHandler) -> None:
        self._delivery_handlers.append(fn)

    # -- routing --------------------------------------------------------------
    def _refresh_table(self) -> None:
        topo = self.fabric.topology
        if self._table_version == topo.version:
            return
        if self._table_version >= 0 and self.convergence_delay > 0:
            # The IGP only notices the change now; it keeps forwarding on
            # stale routes until the convergence window elapses.
            if self._pending_version != topo.version:
                self._pending_version = topo.version
                self._stale_until = self.sim.now + self.convergence_delay
                return
            if self.sim.now < self._stale_until:
                return
        self._table = topo.first_hops(self.node_id)
        self._table_version = topo.version

    def next_hop(self, dst: NodeId) -> Optional[NodeId]:
        self._refresh_table()
        return self._table.get(dst)

    @property
    def routing_table(self) -> Dict[NodeId, NodeId]:
        self._refresh_table()
        return dict(self._table)

    # -- data path --------------------------------------------------------
    def originate(self, packet: Datagram) -> bool:
        """Inject a locally generated packet into the network."""
        packet.created_at = self.sim.now
        return self._forward(packet)

    def receive(self, packet: Datagram, from_node: NodeId) -> None:
        if packet.dst == self.node_id or packet.is_broadcast:
            self.delivered += 1
            for fn in self._delivery_handlers:
                fn(packet, from_node)
            if not packet.is_broadcast:
                return
        if packet.dst != self.node_id and not packet.is_broadcast:
            self._forward(packet)

    def _forward(self, packet: Datagram) -> bool:
        hop = self.next_hop(packet.dst)
        if hop is None:
            self.dropped_no_route += 1
            self.sim.trace.emit("legacy.drop.noroute", node=self.node_id,
                                dst=packet.dst)
            return False
        self.forwarded += 1
        return self.fabric.send(self.node_id, hop, packet)

    def __repr__(self) -> str:
        return (f"<LegacyRouter {self.node_id} forwarded={self.forwarded} "
                f"delivered={self.delivered}>")


def build_legacy_network(sim: Simulator, fabric: NetworkFabric,
                         convergence_delay: float = 0.0
                         ) -> Dict[NodeId, LegacyRouter]:
    """Attach a LegacyRouter to every node of the fabric's topology."""
    return {node: LegacyRouter(sim, fabric, node,
                               convergence_delay=convergence_delay)
            for node in fabric.topology.nodes}
