"""Static (oracle) shortest-path routing.

The simplest router a ship can use: an omniscient shortest-path oracle
over the current topology, equivalent to a converged link-state IGP.
Used by wired scenarios and as the upper-bound baseline for the adaptive
ad-hoc protocol (an oracle never has stale routes, but real ad-hoc
networks cannot have one).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..substrates.phys import Topology

NodeId = Hashable


class StaticRouter:
    """Shared shortest-path oracle; one instance serves many ships."""

    def __init__(self, topology: Topology, weight: str = "latency"):
        self.topology = topology
        self.weight = weight
        self._tables: Dict[NodeId, Dict[NodeId, NodeId]] = {}
        self._version = -1

    def _refresh(self) -> None:
        if self._version == self.topology.version:
            return
        self._tables.clear()
        self._version = self.topology.version

    def _table_for(self, src: NodeId) -> Dict[NodeId, NodeId]:
        self._refresh()
        table = self._tables.get(src)
        if table is None:
            table = self.topology.first_hops(src, weight=self.weight)
            self._tables[src] = table
        return table

    def next_hop(self, ship_id: NodeId, dst: NodeId) -> Optional[NodeId]:
        return self._table_for(ship_id).get(dst)

    #: ``next_hop`` has no side effects.
    lookup = next_hop

    def handle_control(self, ship, packet, from_node) -> bool:
        return False

    def on_attached(self, ship) -> None:
        pass

    def __repr__(self) -> str:
        return f"<StaticRouter weight={self.weight}>"
