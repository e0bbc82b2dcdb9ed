"""The Wandering Network orchestrator (Definition 1).

"A Wandering Network (WN) is a dynamic composite entity realized as a
unity of a closed set of productions of mobile nodes, called ships,
such that through their interactions in composition and decomposition
... at all functional levels they define the network as self-creating."

:class:`WanderingNetwork` assembles every subsystem over a physical
topology — ships with routers, the PMP wandering engine, the resonance
field, the SRP directory/reputation pair, the MFP feedback bus and the
overlay manager — and runs the autopoietic loop: a periodic *pulse*
(metamorphosis) plus periodic self-publication and audits.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Type

from ..analysis import (active_census, role_census, role_entropy,
                        virtual_outstanding_networks)
from ..functions import Role, RoleCatalog, default_catalog
from ..routing import (DistanceVectorRouter, FloodingRouter, OverlayManager,
                       StaticRouter, WLIAdaptiveRouter)
from ..substrates.nodeos import CredentialAuthority
from ..substrates.phys import NetworkFabric, Topology
from ..substrates.sim import Simulator
from .feedback import Dimension, FeedbackBus, FeedbackController
from .generations import Generation
from .metamorphosis import WanderingEngine
from .resonance import ResonanceField
from .selfref import (CommunityDirectory, ReputationSystem, ShipAggregate,
                      clusters_by_function)
from .ship import Ship

NodeId = Hashable


class WanderingNetworkConfig:
    """All the knobs of a Wandering Network in one place."""

    def __init__(self, *,
                 seed: int = 0,
                 generation: Generation = Generation.G4,
                 router: str = "static",
                 pulse_interval: float = 10.0,
                 publish_interval: float = 20.0,
                 resonance_enabled: bool = True,
                 resonance_threshold: float = 3.0,
                 resonance_decay: float = 0.9,
                 morphing_enabled: bool = True,
                 horizontal_wandering: bool = True,
                 vertical_wandering: bool = True,
                 migrate_bias: float = 1.5,
                 settle_threshold: float = 0.5,
                 min_attraction: float = 1.0,
                 max_migrations_per_pulse: int = 4,
                 fact_decay_rate: float = 0.01,
                 knowledge_capacity: int = 512,
                 hello_interval: float = 5.0,
                 loss_rate: float = 0.0,
                 audits_enabled: bool = True,
                 cpu_ops_per_second: float = 1e8,
                 modal_roles: Iterable[Type[Role]] = (),
                 overload_offload: bool = False,
                 cpu_backlog_setpoint: float = 0.05):
        if router not in ("static", "adaptive", "dv", "flooding"):
            raise ValueError(f"unknown router kind {router!r}")
        self.seed = seed
        self.generation = Generation(generation)
        self.router = router
        self.pulse_interval = float(pulse_interval)
        self.publish_interval = float(publish_interval)
        self.resonance_enabled = resonance_enabled
        self.resonance_threshold = float(resonance_threshold)
        self.resonance_decay = float(resonance_decay)
        self.morphing_enabled = morphing_enabled
        self.horizontal_wandering = horizontal_wandering
        self.vertical_wandering = vertical_wandering
        self.migrate_bias = float(migrate_bias)
        self.settle_threshold = float(settle_threshold)
        self.min_attraction = float(min_attraction)
        self.max_migrations_per_pulse = int(max_migrations_per_pulse)
        self.fact_decay_rate = float(fact_decay_rate)
        self.knowledge_capacity = int(knowledge_capacity)
        self.hello_interval = float(hello_interval)
        self.loss_rate = float(loss_rate)
        self.audits_enabled = audits_enabled
        self.cpu_ops_per_second = float(cpu_ops_per_second)
        self.modal_roles = tuple(modal_roles)
        self.overload_offload = overload_offload
        self.cpu_backlog_setpoint = float(cpu_backlog_setpoint)


class WanderingNetwork:
    """One Wandering Network over a physical topology."""

    OPERATOR = "wn-operator"

    def __init__(self, topology: Topology,
                 config: Optional[WanderingNetworkConfig] = None,
                 sim: Optional[Simulator] = None,
                 catalog: Optional[RoleCatalog] = None,
                 fabric_factory: Optional[Any] = None):
        self.config = config or WanderingNetworkConfig()
        self.sim = sim or Simulator(seed=self.config.seed)
        self.topology = topology
        # fabric_factory(sim, topology, loss_rate) lets the shard
        # executor substitute a boundary-aware fabric; everything else
        # about construction stays byte-identical across substitutions.
        make_fabric = fabric_factory or NetworkFabric
        self.fabric = make_fabric(self.sim, topology,
                                  loss_rate=self.config.loss_rate)
        self.catalog = catalog or default_catalog()
        self.authority = CredentialAuthority()
        self.credential = self.authority.issue(self.OPERATOR)

        self._static_router = StaticRouter(topology)
        self.ships: Dict[NodeId, Ship] = {}
        for node in topology.nodes:
            self._spawn_ship(node)

        self.directory = CommunityDirectory(self.sim)
        self.reputation = ReputationSystem(self.sim, self.directory)
        self.aggregates: List[ShipAggregate] = []
        self.feedback = FeedbackBus(self.sim)
        self.overlays = OverlayManager(self.sim, topology)
        for ship in self.ships.values():
            self.overlays.register_ship(ship)

        self.resonance = ResonanceField(
            self.sim, decay=self.config.resonance_decay,
            emergence_threshold=self.config.resonance_threshold) \
            if self.config.resonance_enabled else None
        self.engine = WanderingEngine(
            self.sim, self.ships, self.catalog,
            credential=self.credential,
            resonance=self.resonance,
            migrate_bias=self.config.migrate_bias,
            settle_threshold=self.config.settle_threshold,
            min_attraction=self.config.min_attraction,
            max_migrations_per_pulse=self.config.max_migrations_per_pulse,
            enable_horizontal=self.config.horizontal_wandering,
            enable_vertical=self.config.vertical_wandering,
            excluded=self.reputation.excluded)

        self._pulse_task = self.sim.every(self.config.pulse_interval,
                                          self._on_pulse)
        self._publish_task = self.sim.every(self.config.publish_interval,
                                            self._on_publish)

        # MFP -> PMP coupling: a per-node CPU-backlog controller that
        # offloads an overloaded ship's active function to its least
        # loaded neighbour ("manipulation of the traffic on a
        # per-(active)-node and a per-configuration basis").
        self.offload_events: List[Tuple[float, NodeId, NodeId, str]] = []
        if self.config.overload_offload:
            self.feedback.attach(FeedbackController(
                Dimension.PER_NODE, "cpu-backlog",
                setpoint=self.config.cpu_backlog_setpoint,
                on_high=self._offload_overloaded_ship))

    # -- construction -----------------------------------------------------
    def _make_router(self):
        kind = self.config.router
        if kind == "static":
            return self._static_router
        if kind == "adaptive":
            return WLIAdaptiveRouter(
                self.sim, hello_interval=self.config.hello_interval)
        if kind == "dv":
            return DistanceVectorRouter(
                self.sim, advertise_interval=self.config.hello_interval)
        return FloodingRouter()

    def _spawn_ship(self, node: NodeId, **overrides: Any) -> Ship:
        ship = Ship(self.sim, self.fabric, node,
                    catalog=self.catalog,
                    router=self._make_router(),
                    generation=overrides.get("generation",
                                             self.config.generation),
                    authority=self.authority,
                    morphing_enabled=self.config.morphing_enabled,
                    honest=overrides.get("honest", True),
                    knowledge_capacity=self.config.knowledge_capacity,
                    fact_decay_rate=self.config.fact_decay_rate,
                    cpu_ops_per_second=self.config.cpu_ops_per_second)
        ship.nodeos.security.grant(self.OPERATOR, "*")
        # The network's own operator is not resource-constrained — the
        # quotas exist to contain third-party principals.
        from ..substrates.nodeos import Quota
        ship.nodeos.security.set_quota(self.OPERATOR, Quota(
            cache_bytes=1 << 24, max_ees=256,
            max_spawns_per_window=4096))
        ship.default_credential = self.credential
        for role_cls in self.config.modal_roles:
            ship.acquire_role(role_cls(), modal=True)
        self.ships[node] = ship
        return ship

    def add_ship(self, node: NodeId, **overrides: Any) -> Ship:
        """Node genesis at runtime: a new ship joins the network."""
        if node not in self.topology:
            self.topology.add_node(node)
        ship = self._spawn_ship(node, **overrides)
        self.overlays.register_ship(ship)
        return ship

    # -- autopoietic loop -----------------------------------------------------
    def _on_pulse(self) -> None:
        for ship in self.alive_ships():
            ship.tick_roles()
        self.engine.pulse()
        self.overlays.resync()
        # MFP: per-node workload observations feed the bus each pulse,
        # in ship order.
        self.feedback.observe_batch(
            Dimension.PER_NODE, "cpu-backlog",
            [(ship.ship_id, ship.nodeos.cpu.backlog)
             for ship in self.alive_ships()])

    def _offload_overloaded_ship(self, node: NodeId, backlog: float,
                                 setpoint: float) -> None:
        """Replicate the hot ship's active function to the least loaded
        neighbour so traffic can be served closer to its sources."""
        ship = self.ships.get(node)
        if ship is None or not ship.alive:
            return
        role_id = ship.active_role_id
        if role_id is None or role_id == "fn.nextstep":
            return
        candidates = [self.ships[peer] for peer in ship.neighbors()
                      if peer in self.ships and self.ships[peer].alive
                      and not self.ships[peer].has_role(role_id)]
        if not candidates:
            return
        target = min(candidates,
                     key=lambda s: (s.nodeos.cpu.backlog,
                                    repr(s.ship_id)))
        shuttle = ship.make_role_shuttle(role_id, target.ship_id,
                                         credential=self.credential,
                                         activate=True)
        if ship.send_toward(shuttle):
            self.offload_events.append(
                (self.sim.now, node, target.ship_id, role_id))
            self.sim.trace.emit("mfp.offload", frm=node,
                                to=target.ship_id, role=role_id,
                                backlog=round(backlog, 4))

    def _on_publish(self) -> None:
        for ship in self.alive_ships():
            self.directory.publish(ship)
            if self.config.audits_enabled:
                self.reputation.audit(ship)

    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def shutdown(self) -> None:
        """Stop the autopoietic loop and all per-ship router chatter.

        After shutdown the simulator's agenda drains naturally, so
        ``wn.sim.run()`` without ``until`` terminates — useful when
        embedding a WN inside a larger simulation.
        """
        self._pulse_task.stop()
        self._publish_task.stop()
        for ship in self.ships.values():
            router = ship.router
            if router is not None and hasattr(router, "stop") \
                    and router is not self._static_router:
                router.stop()

    # -- convenience API ---------------------------------------------------
    def ship(self, node: NodeId) -> Ship:
        return self.ships[node]

    def alive_ships(self) -> List[Ship]:
        return [s for s in self.ships.values() if s.alive]

    def deploy_role(self, role_cls: Type[Role], at: NodeId,
                    activate: bool = False, modal: bool = False,
                    **role_kw: Any) -> Role:
        """Operator-initiated role deployment (out-of-band)."""
        ship = self.ships[at]
        role = ship.acquire_role(role_cls(**role_kw), modal=modal)
        if activate:
            ship.assign_role(role.role_id)
        return role

    def community(self) -> List[NodeId]:
        """Ships not excluded by the reputation system (SRP.1)."""
        return self.reputation.community(
            s.ship_id for s in self.alive_ships())

    # -- aggregation (SRP.3) ------------------------------------------------
    def form_aggregate(self, members: Iterable[NodeId],
                       name: Optional[str] = None) -> ShipAggregate:
        """Aggregate named ships into one joint-architecture node."""
        ships = [self.ships[m] for m in members]
        aggregate = ShipAggregate(self.sim, ships, name=name)
        self.aggregates.append(aggregate)
        return aggregate

    def aggregate_function_clusters(self, min_size: int = 2
                                    ) -> List[ShipAggregate]:
        """SRP.2/3: ships performing the same function and physically
        adjacent organize themselves into aggregates."""
        formed: List[ShipAggregate] = []
        for role_id, members in clusters_by_function(
                self.alive_ships()).items():
            if role_id is None or len(members) < min_size:
                continue
            # Split the cluster into connected groups.
            remaining = set(members)
            while remaining:
                seed_node = min(remaining, key=repr)
                group = {seed_node}
                frontier = [seed_node]
                while frontier:
                    node = frontier.pop()
                    for peer in self.topology.neighbors(node):
                        if peer in remaining and peer not in group:
                            group.add(peer)
                            frontier.append(peer)
                remaining -= group
                if len(group) >= min_size:
                    formed.append(self.form_aggregate(
                        sorted(group, key=repr),
                        name=f"{role_id}@{'+'.join(map(str, sorted(group, key=repr)))}"))
        return formed

    # -- figure-level views ----------------------------------------------------
    def role_census(self) -> Dict[str, List[NodeId]]:
        return role_census(self.alive_ships())

    def active_census(self) -> Dict[Optional[str], List[NodeId]]:
        return active_census(self.alive_ships())

    def virtual_networks(self) -> Dict[str, List[NodeId]]:
        """Figure 3's virtual outstanding networks, right now."""
        return virtual_outstanding_networks(self.alive_ships())

    def role_entropy(self) -> float:
        return role_entropy(self.alive_ships())

    def snapshot(self) -> Dict[str, Any]:
        """One Figure 1 frame: who does what, with what knowledge."""
        return {
            "time": self.sim.now,
            "ships": {
                s.ship_id: {
                    "class": s.ship_class,
                    "active": s.active_role_id,
                    "roles": sorted(s.roles),
                    "facts": len(s.knowledge),
                }
                for s in self.alive_ships()
            },
            "virtual_networks": self.virtual_networks(),
            "entropy": self.role_entropy(),
            "overlays": self.overlays.snapshot(),
        }

    def __repr__(self) -> str:
        return (f"<WanderingNetwork ships={len(self.ships)} "
                f"t={self.sim.now:.6g} pulses={self.engine.pulses}>")
