"""Classic active-network node (the 1G Wandering Network baseline).

An :class:`AntsNode` is programmable at the execution-environment layer
only: capsules name a code id; if the node's cache lacks it, the node
demand-loads it from the capsule's previous hop (the ANTS code
distribution scheme), queueing the capsule meanwhile.  Everything below
the EE — the NodeOS layout, the hardware — is fixed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Optional

from ..nodeos import NodeOS
from ..phys import Datagram, NetworkFabric
from ..sim import Simulator
from .capsule import Capsule, CodeReply, CodeRequest
from .registry import ProtocolRegistry

NodeId = Hashable
DeliveryHandler = Callable[[Capsule, NodeId], None]


class AntsNode:
    """An ANTS-like active node with demand-pull code distribution."""

    def __init__(self, sim: Simulator, fabric: NetworkFabric,
                 node_id: NodeId, registry: ProtocolRegistry,
                 cache_bytes: int = 1 << 20,
                 cpu_ops_per_second: float = 1e8):
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.registry = registry
        self.nodeos = NodeOS(sim, node_id, cache_bytes=cache_bytes,
                             cpu_ops_per_second=cpu_ops_per_second)
        self._table: Dict[NodeId, NodeId] = {}
        self._table_version = -1
        self._pending: Dict[str, List[Capsule]] = defaultdict(list)
        self._requested: set = set()
        self._delivery_handlers: List[DeliveryHandler] = []
        # Local soft-state usable by capsule handlers (e.g. caching).
        self.soft_state: Dict = {}
        self.capsules_processed = 0
        self.capsules_delivered = 0
        self.code_fetches = 0
        self.dropped_no_route = 0
        self.dropped_no_code = 0
        fabric.attach(node_id, self)

    # -- application hookup -------------------------------------------------
    def on_deliver(self, fn: DeliveryHandler) -> None:
        self._delivery_handlers.append(fn)

    # -- routing (same static tables as legacy) ------------------------------
    def next_hop(self, dst: NodeId) -> Optional[NodeId]:
        topo = self.fabric.topology
        if self._table_version != topo.version:
            self._table = topo.first_hops(self.node_id)
            self._table_version = topo.version
        return self._table.get(dst)

    # -- capsule origination / forwarding ------------------------------------
    def originate(self, capsule: Capsule) -> bool:
        """Inject a capsule generated at this node."""
        capsule.created_at = self.sim.now
        # The origin must hold the code (the sender application provides
        # it, as in ANTS where senders seed their code group).
        if capsule.code_id not in self.nodeos.cache:
            module = self.registry.get(capsule.code_id)
            if module is None:
                raise ValueError(f"unknown protocol {capsule.code_id}")
            self.nodeos.cache.install(module)
        return self._execute(capsule)

    def forward_capsule(self, capsule: Capsule) -> bool:
        """Forward toward ``capsule.dst`` (handlers call this)."""
        if capsule.dst == self.node_id:
            return True
        hop = self.next_hop(capsule.dst)
        if hop is None:
            self.dropped_no_route += 1
            self.sim.trace.emit("ants.drop.noroute", node=self.node_id,
                                dst=capsule.dst)
            return False
        capsule.prev_hop = self.node_id
        return self.fabric.send(self.node_id, hop, capsule)

    def deliver_local(self, capsule: Capsule,
                      from_node: Optional[NodeId] = None) -> None:
        self.capsules_delivered += 1
        self.sim.trace.emit("ants.deliver", node=self.node_id,
                            capsule=capsule.packet_id)
        for fn in self._delivery_handlers:
            fn(capsule, from_node)

    # -- receive path -------------------------------------------------------
    def receive(self, packet: Datagram, from_node: NodeId) -> None:
        if isinstance(packet, CodeRequest):
            self._serve_code(packet, from_node)
        elif isinstance(packet, CodeReply):
            self._install_code(packet)
        elif isinstance(packet, Capsule):
            self._on_capsule(packet, from_node)
        else:
            # Non-capsule traffic: delivered locally or forwarded
            # transparently (legacy interoperability).
            if packet.dst == self.node_id or packet.is_broadcast:
                self.deliver_local(packet, from_node)
            else:
                hop = self.next_hop(packet.dst)
                if hop is not None:
                    self.fabric.send(self.node_id, hop, packet)

    def _on_capsule(self, capsule: Capsule, from_node: NodeId) -> None:
        module = self.nodeos.lookup_code(capsule.code_id,
                                         capsule.code_version)
        if module is None:
            self._demand_load(capsule, from_node)
            return
        self._execute(capsule, from_node)

    def _execute(self, capsule: Capsule,
                 from_node: Optional[NodeId] = None) -> bool:
        module = self.nodeos.cache.peek(capsule.code_id)
        handler = module.entry if module is not None else None
        if handler is None:
            handler = self.registry.handler(capsule.code_id)
        if handler is None:
            self.dropped_no_code += 1
            return False
        self.capsules_processed += 1
        delay = self.nodeos.execute_capsule(module.size_bytes
                                            if module else 1024)
        # Processing completes after the CPU delay; the handler then
        # decides the capsule's fate (forward / deliver / spawn).
        self.sim.call_in(delay, self._run_handler, handler, capsule,
                         from_node, name="capsule-exec")
        return True

    def _run_handler(self, handler, capsule: Capsule,
                     from_node: Optional[NodeId]) -> None:
        if capsule.dst == self.node_id:
            self.deliver_local(capsule, from_node)
            return
        handler(self, capsule)

    # -- demand-pull code distribution ---------------------------------------
    def _demand_load(self, capsule: Capsule, from_node: NodeId) -> None:
        self._pending[capsule.code_id].append(capsule)
        key = (capsule.code_id, capsule.code_version)
        if key in self._requested:
            return
        source = capsule.prev_hop if capsule.prev_hop is not None else from_node
        if source is None or source == self.node_id:
            self.dropped_no_code += 1
            self._pending[capsule.code_id].remove(capsule)
            return
        self._requested.add(key)
        self.code_fetches += 1
        self.sim.trace.emit("ants.code.request", node=self.node_id,
                            code=capsule.code_id, source=source)
        req = CodeRequest(self.node_id, source, capsule.code_id,
                          capsule.code_version)
        self.fabric.send(self.node_id, source, req)

    def _serve_code(self, request: CodeRequest, from_node: NodeId) -> None:
        module = self.nodeos.cache.peek(request.code_id)
        if module is None or module.version < request.min_version:
            return  # cannot serve; requester will retry via other capsules
        reply = CodeReply(self.node_id, request.requester, module)
        self.fabric.send(self.node_id, request.requester, reply)

    def _install_code(self, reply: CodeReply) -> None:
        module = reply.module
        self.nodeos.cache.install(module)
        self._requested.discard((module.code_id, module.version))
        self.sim.trace.emit("ants.code.install", node=self.node_id,
                            code=module.code_id)
        pending = self._pending.pop(module.code_id, [])
        for capsule in pending:
            self._execute(capsule)

    def __repr__(self) -> str:
        return (f"<AntsNode {self.node_id} "
                f"processed={self.capsules_processed} "
                f"fetches={self.code_fetches}>")


def build_ants_network(sim: Simulator, fabric: NetworkFabric,
                       registry: ProtocolRegistry,
                       **node_kw) -> Dict[NodeId, AntsNode]:
    """Attach an AntsNode to every node of the fabric's topology."""
    return {node: AntsNode(sim, fabric, node, registry, **node_kw)
            for node in fabric.topology.nodes}
