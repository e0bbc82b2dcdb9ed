"""Web-content workload: requests with Zipf popularity + an origin server.

Drives the caching role ("storage of web pages for local processing and
reducing the data flow"): clients at the periphery request keys, the
origin answers with content packets, and any caching ship on the path
short-circuits repeat requests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Dict, Hashable, List, Optional

import numpy as np

from ..substrates.phys import Datagram
from ..substrates.sim import Simulator
from .adapter import inject

NodeId = Hashable

_req_seq = itertools.count(1)


class OriginServer:
    """Serves a content catalog at one node."""

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 node: NodeId, catalog: Optional[Dict[str, int]] = None,
                 n_items: int = 50, item_bytes: int = 8000):
        self.sim = sim
        self.hosts = hosts
        self.node = node
        self.catalog = catalog if catalog is not None else {
            f"item-{i}": item_bytes for i in range(n_items)}
        self.requests_served = 0
        hosts[node].on_deliver(self._on_packet)

    def _on_packet(self, packet, from_node) -> None:
        payload = packet.payload
        if not isinstance(payload, dict) or \
                payload.get("kind") != "content-request":
            return
        key = payload.get("key")
        size = self.catalog.get(key)
        if size is None:
            return
        self.requests_served += 1
        reply = Datagram(self.node, payload.get("reply_to", packet.src),
                         size_bytes=size,
                         created_at=packet.created_at,
                         flow_id=packet.flow_id,
                         payload={"kind": "content", "key": key,
                                  "served_by": self.node})
        inject(self.hosts, self.node, reply)


class ContentWorkload:
    """Clients issuing Zipf-popular content requests toward an origin."""

    def __init__(self, sim: Simulator, hosts: Dict[NodeId, object],
                 clients: List[NodeId], origin: NodeId,
                 n_items: int = 50, zipf_s: float = 1.2,
                 request_interval: float = 1.0,
                 item_bytes: int = 8000,
                 name: str = "web",
                 feedback=None):
        if request_interval <= 0:
            raise ValueError("request_interval must be positive")
        if n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {n_items}")
        self.sim = sim
        self.hosts = hosts
        self.clients = list(clients)
        self.origin_node = origin
        self.name = name
        self.n_items = int(n_items)
        self.item_bytes = int(item_bytes)
        self.request_interval = float(request_interval)
        # Zipf popularity over the catalog, kept as the normalised
        # cumulative sum that Generator.choice(n_items, p=popularity)
        # builds on every call: bisecting one rng.random() draw into it
        # picks the same item from the same stream position.
        ranks = np.arange(1, n_items + 1, dtype=float)
        weights = ranks ** (-zipf_s)
        popularity = weights / weights.sum()
        if not np.isfinite(popularity).all():
            raise ValueError(f"zipf_s={zipf_s} gives no finite popularity "
                             f"over {n_items} items")
        cdf = popularity.cumsum()
        cdf /= cdf[-1]
        self._cdf: List[float] = cdf.tolist()
        self.server = OriginServer(sim, hosts, origin, n_items=n_items,
                                   item_bytes=item_bytes)
        #: Optional MFP hook: a FeedbackBus observed per-session
        #: ("per-application, per-session" dimensions of Section C.3).
        self.feedback = feedback
        self.requests_sent = 0
        self.responses: List[float] = []   # response latencies
        self._tasks: List = []
        for client in self.clients:
            hosts[client].on_deliver(self._make_sink())

    def _make_sink(self):
        def sink(packet, from_node):
            payload = packet.payload
            if isinstance(payload, dict) and payload.get("kind") == "content":
                latency = self.sim.now - packet.created_at
                self.responses.append(latency)
                if self.feedback is not None:
                    from ..core.feedback import Dimension
                    self.feedback.observe(Dimension.PER_SESSION,
                                          self.name, "latency", latency)
                    self.feedback.observe(Dimension.PER_APPLICATION,
                                          "web", "latency", latency)
        return sink

    def start(self) -> None:
        if self._tasks:
            return
        for i, client in enumerate(self.clients):
            task = self.sim.every(
                self.request_interval, self._request, client,
                start=self.request_interval * (i + 1) / (len(self.clients) + 1),
                jitter=self.request_interval * 0.1,
                stream=f"web.{self.name}.{i}")
            self._tasks.append(task)

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks = []

    def _request(self, client: NodeId) -> None:
        rng = self.sim.rng.np_stream(f"web.zipf.{self.name}")
        item = bisect_right(self._cdf, rng.random())
        key = f"item-{item}"
        packet = Datagram(client, self.origin_node, size_bytes=96,
                          created_at=self.sim.now,
                          flow_id=f"req-{next(_req_seq)}",
                          payload={"kind": "content-request", "key": key,
                                   "reply_to": client})
        self.requests_sent += 1
        inject(self.hosts, client, packet)

    def mean_latency(self) -> float:
        return float(np.mean(self.responses)) if self.responses \
            else float("nan")

    def response_ratio(self) -> float:
        return len(self.responses) / self.requests_sent \
            if self.requests_sent else 0.0
