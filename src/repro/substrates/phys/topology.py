"""Physical topology: nodes, point-to-point links, and path computation.

The topology is the one *real* network of the paper's Figures 3 and 4
("Real (Physical) Network"); everything the Wandering Network does —
virtual outstanding networks, overlays, wandering functions — happens on
top of (and is constrained by) this graph.

Implemented from scratch (no networkx dependency in the substrate): an
adjacency-dict graph with Dijkstra shortest paths weighted by link
latency, honouring link/node up-down state.
"""

from __future__ import annotations

import heapq
from typing import (Any, Dict, FrozenSet, Hashable, Iterable, List, Optional,
                    Set, Tuple)

NodeId = Hashable
#: A node's up-neighbours: in adjacency order, and as a set.
_UpNeighbors = Tuple[Tuple[NodeId, ...], FrozenSet[NodeId]]


class TopologyError(Exception):
    """Raised for structurally invalid topology operations."""


class LinkState:
    UP = "up"
    DOWN = "down"


class Link:
    """An undirected point-to-point link between two nodes.

    Bandwidth is in bytes/second, latency in seconds.  Each direction has
    its own transmission queue (modelled by the fabric's token buckets),
    but capacity figures are symmetric, as in the paper's figures.
    Change ``state`` through :meth:`Topology.set_link_state`, which
    bumps the topology's ``version`` and so drops its neighbour cache.
    """

    __slots__ = ("a", "b", "latency", "bandwidth", "state", "name",
                 "bytes_carried", "packets_carried", "drops", "meta")

    def __init__(self, a: NodeId, b: NodeId, latency: float = 0.01,
                 bandwidth: float = 1_000_000.0,
                 name: Optional[str] = None):
        if a == b:
            raise TopologyError(f"self-link at {a!r}")
        if latency < 0:
            raise TopologyError(f"negative latency {latency}")
        if bandwidth <= 0:
            raise TopologyError(f"non-positive bandwidth {bandwidth}")
        self.a = a
        self.b = b
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.state = LinkState.UP
        self.name = name or f"{a}~{b}"
        self.bytes_carried = 0
        self.packets_carried = 0
        self.drops = 0
        self.meta: Dict[str, Any] = {}

    @property
    def up(self) -> bool:
        return self.state == LinkState.UP

    def other(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node!r} is not an endpoint of {self.name}")

    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return (f"<Link {self.name} {self.state} lat={self.latency:.4g}s "
                f"bw={self.bandwidth:.4g}B/s>")


def _key(a: NodeId, b: NodeId) -> Tuple:
    return (a, b) if repr(a) <= repr(b) else (b, a)


class Topology:
    """An undirected multigraph-free graph of nodes and links."""

    def __init__(self):
        self._adj: Dict[NodeId, Dict[NodeId, Link]] = {}
        self._links: Dict[Tuple, Link] = {}
        self._node_up: Dict[NodeId, bool] = {}
        self.version = 0  # bumped on every structural / state change
        # Up-neighbours per node, valid while ``version`` equals
        # ``_up_version``.
        self._up: Dict[NodeId, _UpNeighbors] = {}
        self._up_version = -1

    # -- construction -----------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        if node not in self._adj:
            self._adj[node] = {}
            self._node_up[node] = True
            self.version += 1

    def add_link(self, a: NodeId, b: NodeId, latency: float = 0.01,
                 bandwidth: float = 1_000_000.0,
                 name: Optional[str] = None) -> Link:
        self.add_node(a)
        self.add_node(b)
        key = _key(a, b)
        if key in self._links:
            raise TopologyError(f"duplicate link {a!r}~{b!r}")
        link = Link(a, b, latency, bandwidth, name=name)
        self._links[key] = link
        self._adj[a][b] = link
        self._adj[b][a] = link
        self.version += 1
        return link

    def remove_link(self, a: NodeId, b: NodeId) -> Link:
        key = _key(a, b)
        link = self._links.pop(key, None)
        if link is None:
            raise TopologyError(f"no link {a!r}~{b!r}")
        del self._adj[a][b]
        del self._adj[b][a]
        self.version += 1
        return link

    def remove_node(self, node: NodeId) -> None:
        if node not in self._adj:
            raise TopologyError(f"no node {node!r}")
        for peer in list(self._adj[node]):
            self.remove_link(node, peer)
        del self._adj[node]
        del self._node_up[node]
        self.version += 1

    # -- state ------------------------------------------------------------
    def set_link_state(self, a: NodeId, b: NodeId, up: bool) -> Link:
        link = self.link(a, b)
        new = LinkState.UP if up else LinkState.DOWN
        if link.state != new:
            link.state = new
            self.version += 1
        return link

    def set_node_state(self, node: NodeId, up: bool) -> None:
        if node not in self._node_up:
            raise TopologyError(f"no node {node!r}")
        if self._node_up[node] != up:
            self._node_up[node] = up
            self.version += 1

    def node_up(self, node: NodeId) -> bool:
        return self._node_up.get(node, False)

    # -- queries ----------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._adj)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        adj = self._adj.get(a)
        return adj is not None and b in adj

    def link(self, a: NodeId, b: NodeId) -> Link:
        adj = self._adj.get(a)
        link = adj.get(b) if adj is not None else None
        if link is None:
            raise TopologyError(f"no link {a!r}~{b!r}")
        return link

    def _up_neighbors(self, node: NodeId) -> _UpNeighbors:
        if self._up_version != self.version:
            self._up.clear()
            self._up_version = self.version
        entry = self._up.get(node)
        if entry is None:
            adj = self._adj.get(node)
            if adj is None:
                raise TopologyError(f"no node {node!r}")
            node_up = self._node_up
            peers: Tuple[NodeId, ...] = ()
            if node_up[node]:
                peers = tuple(peer for peer, link in adj.items()
                              if link.up and node_up[peer])
            entry = self._up[node] = (peers, frozenset(peers))
        return entry

    def neighbors(self, node: NodeId, only_up: bool = True) -> List[NodeId]:
        if only_up:
            return list(self._up_neighbors(node)[0])
        adj = self._adj.get(node)
        if adj is None:
            raise TopologyError(f"no node {node!r}")
        return list(adj)

    def neighbor_set(self, node: NodeId) -> FrozenSet[NodeId]:
        """The up-neighbours of ``node`` as a frozenset (empty when the
        node is down).  Cached until the next topology change, so the
        same object comes back between changes."""
        return self._up_neighbors(node)[1]

    def degree(self, node: NodeId, only_up: bool = True) -> int:
        return len(self.neighbors(node, only_up=only_up))

    # -- paths ------------------------------------------------------------
    def shortest_paths(self, src: NodeId,
                       weight: str = "latency") -> Tuple[Dict[NodeId, float],
                                                         Dict[NodeId, NodeId]]:
        """Dijkstra from ``src`` over up links/nodes.

        Returns ``(dist, prev)``; unreachable nodes are absent from both.
        ``weight`` is ``"latency"`` or ``"hops"``.
        """
        if src not in self._adj:
            raise TopologyError(f"no node {src!r}")
        dist: Dict[NodeId, float] = {src: 0.0}
        prev: Dict[NodeId, NodeId] = {}
        if not self._node_up.get(src, False):
            return dist, prev
        counter = 0
        heap: List[Tuple[float, int, NodeId]] = [(0.0, counter, src)]
        visited: Set[NodeId] = set()
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for peer in self.neighbors(node):
                link = self._adj[node][peer]
                w = link.latency if weight == "latency" else 1.0
                nd = d + w
                if nd < dist.get(peer, float("inf")):
                    dist[peer] = nd
                    prev[peer] = node
                    counter += 1
                    heapq.heappush(heap, (nd, counter, peer))
        return dist, prev

    def path(self, src: NodeId, dst: NodeId,
             weight: str = "latency") -> Optional[List[NodeId]]:
        """Shortest up-path from src to dst, inclusive, or None."""
        if src == dst:
            return [src] if self._node_up.get(src, False) else None
        dist, prev = self.shortest_paths(src, weight=weight)
        if dst not in dist:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_latency(self, path: Iterable[NodeId]) -> float:
        nodes = list(path)
        return sum(self.link(a, b).latency
                   for a, b in zip(nodes, nodes[1:]))

    def connected_components(self) -> List[Set[NodeId]]:
        """Components of the up-subgraph (down nodes are singletons)."""
        seen: Set[NodeId] = set()
        comps: List[Set[NodeId]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for peer in self.neighbors(node):
                    if peer not in comp:
                        comp.add(peer)
                        seen.add(peer)
                        frontier.append(peer)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        comps = self.connected_components()
        return len(comps) == 1

    def copy(self) -> "Topology":
        clone = Topology()
        for node in self._adj:
            clone.add_node(node)
            clone._node_up[node] = self._node_up[node]
        for link in self._links.values():
            new = clone.add_link(link.a, link.b, link.latency,
                                 link.bandwidth, name=link.name)
            new.state = link.state
        return clone

    def __repr__(self) -> str:
        up_links = sum(1 for l in self._links.values() if l.up)
        return (f"<Topology nodes={len(self._adj)} "
                f"links={up_links}/{len(self._links)} v{self.version}>")


# -- generators -----------------------------------------------------------

def line_topology(n: int, latency: float = 0.01,
                  bandwidth: float = 1_000_000.0) -> Topology:
    """N0 - N1 - ... - N(n-1)."""
    topo = Topology()
    for i in range(n):
        topo.add_node(i)
    for i in range(n - 1):
        topo.add_link(i, i + 1, latency, bandwidth)
    return topo


def ring_topology(n: int, latency: float = 0.01,
                  bandwidth: float = 1_000_000.0) -> Topology:
    topo = line_topology(n, latency, bandwidth)
    if n > 2:
        topo.add_link(n - 1, 0, latency, bandwidth)
    return topo


def star_topology(n_leaves: int, latency: float = 0.01,
                  bandwidth: float = 1_000_000.0) -> Topology:
    """Hub node 0 with ``n_leaves`` leaves 1..n."""
    topo = Topology()
    topo.add_node(0)
    for i in range(1, n_leaves + 1):
        topo.add_link(0, i, latency, bandwidth)
    return topo


def grid_topology(rows: int, cols: int, latency: float = 0.01,
                  bandwidth: float = 1_000_000.0) -> Topology:
    """rows x cols mesh; node ids are (r, c) tuples."""
    topo = Topology()
    for r in range(rows):
        for c in range(cols):
            topo.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link((r, c), (r, c + 1), latency, bandwidth)
            if r + 1 < rows:
                topo.add_link((r, c), (r + 1, c), latency, bandwidth)
    return topo


def figure3_topology() -> Topology:
    """The 6-node, 8-link physical network of the paper's Figures 3 and 4.

    Nodes N1..N6 and links L1..L8 arranged so every link label of the
    figure exists; the exact geometry is not specified in the paper, so we
    use the visually apparent wiring: a ring N1-N2-N3-N5-N6-N4-N1 plus two
    chords N2-N4 (L4) and N3-N4 (L5).
    """
    topo = Topology()
    wiring = [("N1", "N2", "L1"), ("N2", "N3", "L3"), ("N3", "N5", "L6"),
              ("N5", "N6", "L8"), ("N6", "N4", "L7"), ("N4", "N1", "L2"),
              ("N2", "N4", "L4"), ("N3", "N4", "L5")]
    for a, b, label in wiring:
        topo.add_link(a, b, latency=0.01, bandwidth=1_000_000.0, name=label)
    return topo


def random_topology(n: int, avg_degree: float, rng,
                    latency: float = 0.01,
                    bandwidth: float = 1_000_000.0) -> Topology:
    """A connected random graph: spanning tree + extra random edges."""
    if n < 1:
        raise TopologyError("need at least one node")
    topo = Topology()
    topo.add_node(0)
    for i in range(1, n):
        parent = rng.randrange(i)
        topo.add_link(parent, i, latency, bandwidth)
    target_links = max(n - 1, int(round(avg_degree * n / 2.0)))
    attempts = 0
    while len(topo.links) < target_links and attempts < 50 * n:
        attempts += 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, latency, bandwidth)
    return topo
