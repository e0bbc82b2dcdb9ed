"""Ships: active mobile nodes (the node manifestation of a ployon).

"Active nodes may be mobile, — hence the name *ships* —, and
re-configurable (in terms of software and hardware).  In addition to
traditional active nodes, ships can be also modified by shuttles."

A ship is a living entity (SRP.2: "they can be born, live and die"),
owns a NodeOS, a reconfigurable gate fabric, a plug-and-play backplane
and a knowledge base, performs exactly one *active* role at a time
(Section D postulate) while holding further roles resident, interprets
arriving shuttles (subject to its WN generation's capabilities), and
keeps DCP congruence statistics.

Routing is pluggable: a router object with

``next_hop(ship_id, dst) -> Optional[node]``
    forwarding decision;
``lookup(ship_id, dst) -> Optional[node]``
    the same answer without side effects (optional): a ship asks its
    neighbour's router this before rerouting around a tripped breaker;
``handle_control(ship, packet, from_node) -> bool``
    protocol chatter interception (optional); the ship reads the hook
    once per receive plan, not per packet, and replacing
    ``ship.router`` makes it read the new router's;
``on_attached(ship)``
    wiring hook (optional).

Implementations live in :mod:`repro.routing`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..functions import (NextStepRole, Role, RoleCatalog,
                         SecurityManagementRole, default_catalog)
from ..obs import TRACE_META_KEY
from ..resilience.wire import ACK_KIND, ARQ_META_KEY
from ..substrates.hardware import Backplane, GateFabric, HardwareError
from ..substrates.nodeos import Action, NodeOS, NodeOSError
from ..substrates.phys import Datagram, NetworkFabric, TopologyError
from ..substrates.sim import Simulator
from .congruence import CongruenceTracker
from .generations import Capability, Generation, supports
from .genetics import encode_ship, transcribe
from .knowledge import Fact, KnowledgeBase, NetFunction
from .ployon import Manifestation, Ployon
from .shuttle import (OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE, OP_DEPLOY_QUANTUM,
                      OP_INSTALL_CODE, OP_INSTALL_DRIVER, OP_LOAD_BITSTREAM,
                      OP_RELEASE_ROLE, OP_REQUEST_STATE, OP_SET_NEXT_STEP,
                      OP_TRANSCRIBE_GENOME, Directive, Jet, Shuttle)

DeliveryHandler = Callable[[Datagram, Hashable], None]

#: Process-wide admission verifier (repro.staticcheck).  Shared so the
#: carried-code lint cache is filled once per role class, not once per
#: ship; imported lazily because staticcheck itself imports core types.
_ADMISSION_VERIFIER = None


def _shared_admission_verifier():
    # process-local memo: verdicts are pure functions of payload bytes,
    # so independently-filled per-worker caches cannot diverge
    # via: ignore[VIA013]
    global _ADMISSION_VERIFIER
    if _ADMISSION_VERIFIER is None:
        from ..staticcheck.admission import AdmissionVerifier
        _ADMISSION_VERIFIER = AdmissionVerifier()
    return _ADMISSION_VERIFIER


class ShipError(Exception):
    """Raised for invalid ship operations."""


class _ReceivePlan:
    """What :meth:`Ship.receive` needs that changes only when the ship
    reconfigures: the held security screen, the router's control hook,
    the Next-Step module, and the active role with its CPU category, EE
    and per-packet ops after hardware speedup.  Valid while the ship's
    router and its fabric's and backplane's ``version`` are the ones it
    was built with; acquiring, releasing or assigning a role drops it."""

    __slots__ = ("router", "fabric_version", "backplane_version", "screen",
                 "control", "next_step", "active", "category", "ee", "ops")

    def __init__(self, ship: "Ship"):
        roles = ship.roles
        self.router = ship.router
        self.fabric_version = ship.fabric_hw.version
        self.backplane_version = ship.backplane.version
        screen = roles.get(SecurityManagementRole.role_id)
        self.screen = screen["role"] if screen is not None else None
        self.control = getattr(ship.router, "handle_control", None)
        self.next_step = roles[NextStepRole.role_id]["role"]
        meta = roles.get(ship.active_role_id)
        if meta is None or meta["role"] is self.next_step:
            self.active = self.category = self.ee = self.ops = None
            return
        role = self.active = meta["role"]
        self.category = f"role:{role.role_id}"
        self.ee = ship.nodeos.ees.get(meta["ee"])
        speedup = max(ship.fabric_hw.hardware_speedup(role.role_id),
                      ship.backplane.hardware_speedup(role.role_id))
        self.ops = role.cpu_ops_per_packet / speedup


class _StructureRecord:
    """The ship's DCP structure, built once and kept while the ship's
    class and its fabric's, backplane's and knowledge base's versions
    are the ones it was built with; acquiring or releasing a role drops
    it.  Those are everything :meth:`Ship.structure` reads."""

    __slots__ = ("ship_class", "fabric_version", "backplane_version",
                 "class_version", "structure")

    def __init__(self, ship: "Ship"):
        self.ship_class = ship.ship_class
        self.fabric_version = ship.fabric_hw.version
        self.backplane_version = ship.backplane.version
        self.class_version = ship.knowledge.class_version
        self.structure = {
            "functions": tuple(sorted(ship.roles)),
            "hardware": tuple(sorted(
                set(ship.fabric_hw.describe()["functions"])
                | set(ship.backplane.describe()["modules"]))),
            "knowledge": tuple(sorted(ship.knowledge.classes())),
            "interface": ship.interface,
        }


class Ship(Ployon):
    """An active mobile re-configurable node of a Wandering Network."""

    manifestation = Manifestation.SHIP

    #: Bound on the replay-suppression ledgers (oldest entries evicted),
    #: so long runs cannot grow them without limit.
    LEDGER_CAP = 4096

    def __init__(self, sim: Simulator, fabric: NetworkFabric,
                 ship_id: Hashable,
                 catalog: Optional[RoleCatalog] = None,
                 router=None,
                 generation: Generation = Generation.G4,
                 ship_class: str = "agent",
                 authority=None,
                 morphing_enabled: bool = True,
                 honest: bool = True,
                 knowledge_capacity: int = 512,
                 fact_decay_rate: float = 0.01,
                 hw_cells: int = 8192,
                 hw_slots: int = 2,
                 cpu_ops_per_second: float = 1e8,
                 cache_bytes: int = 1 << 20,
                 max_auxiliary_ees: int = 8):
        super().__init__()
        self.sim = sim
        self.fabric = fabric
        self.ship_id = ship_id
        self.ship_class = ship_class
        self.catalog = catalog if catalog is not None else default_catalog()
        self.generation = Generation(generation)
        self.morphing_enabled = morphing_enabled
        self.honest = honest

        self.nodeos = NodeOS(sim, ship_id, authority=authority,
                             cpu_ops_per_second=cpu_ops_per_second,
                             cache_bytes=cache_bytes,
                             max_auxiliary_ees=max_auxiliary_ees)
        self.fabric_hw = GateFabric(total_cells=hw_cells)
        self.backplane = Backplane(slots=hw_slots)
        self.knowledge = KnowledgeBase(capacity=knowledge_capacity,
                                       decay_rate=fact_decay_rate)
        self.congruence = CongruenceTracker()

        #: role_id -> {"role": Role, "modal": bool, "ee": label,
        #:             "function": NetFunction}
        self.roles: Dict[str, Dict[str, Any]] = {}
        self.active_role_id: Optional[str] = None
        self._plan: Optional[_ReceivePlan] = None
        self._structure: Optional[_StructureRecord] = None
        self.role_changes: List[Tuple[float, Optional[str], str]] = []

        self._delivery_handlers: List[DeliveryHandler] = []
        self._comm: Dict[Hashable, int] = {}
        self.alive = True
        self.born_at = sim.now
        self.died_at: Optional[float] = None

        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.shuttles_processed = 0
        self.shuttles_rejected = 0
        self.jets_replicated = 0

        #: Static admission gate (repro.staticcheck): every docking
        #: shuttle's payload is vetted before any directive executes.
        self.admission = _shared_admission_verifier()
        self.admission_enabled = True
        self.shuttles_admission_rejected = 0

        #: At-least-once delivery hardening (repro.resilience): replayed
        #: shuttles are recognised by their ARQ message id and answered
        #: from this ledger instead of re-running their directives.
        self.dedup_enabled = True
        self._shuttle_ledger: "OrderedDict[str, Dict[str, Any]]" = \
            OrderedDict()
        self._absorbed_kqs: "OrderedDict[int, None]" = OrderedDict()
        self.duplicate_shuttles = 0
        #: Directives of one message applied more than once — stays zero
        #: while dedup is on; chaos campaigns assert it network-wide.
        self.double_applied = 0
        self.acks_sent = 0
        #: (time, tier, delay) per reconfiguration: tiers are
        #: "activate" / "software" / "hardware" (Figure 2's cost ladder).
        self.reconfig_events: List[Tuple[float, str, float]] = []

        #: Credential used when the ship itself emits shuttles (set by
        #: the WanderingNetwork to its operator credential).
        self.default_credential = None

        self.router = router
        if router is not None and hasattr(router, "on_attached"):
            router.on_attached(self)

        fabric.attach(ship_id, self)
        # "The Next-Step function ... is a standard module for each
        # node/ship."
        self.acquire_role(NextStepRole(), modal=True)
        sim.trace.emit("ship.born", ship=ship_id, cls=ship_class,
                       generation=int(self.generation))
        if sim.obs.on:
            sim.obs.ship_lifecycle.inc(node=ship_id, event="born")

    # ------------------------------------------------------------------
    # Ployon structure (the DCP vocabulary)
    # ------------------------------------------------------------------
    def structure(self) -> Dict[str, Any]:
        """The ship's roles, hardware functions, knowledge classes and
        interface, as a fresh dict the caller may keep or change."""
        return dict(self._current_structure())

    def _current_structure(self) -> Dict[str, Any]:
        """The cached :meth:`structure`, rebuilt only when it changed;
        one dock that changes nothing sees one object before and after.
        Callers must not mutate it."""
        record = self._structure
        if (record is None or record.ship_class != self.ship_class
                or record.fabric_version != self.fabric_hw.version
                or record.backplane_version != self.backplane.version
                or record.class_version != self.knowledge.class_version):
            record = self._structure = _StructureRecord(self)
        return record.structure

    @property
    def interface(self) -> Tuple[str, ...]:
        """The protocol surface shuttles must match at the dock."""
        return ("wli/1", f"class/{self.ship_class}")

    def requirements(self) -> Dict[str, Any]:
        """What an approaching shuttle must morph to (DCP)."""
        return {"interface": self.interface, "ship_class": self.ship_class}

    # ------------------------------------------------------------------
    # Roles (Section D: one active function at a time)
    # ------------------------------------------------------------------
    def has_role(self, role_id: str) -> bool:
        return role_id in self.roles

    def role(self, role_id: str) -> Role:
        meta = self.roles.get(role_id)
        if meta is None:
            raise ShipError(f"{self.ship_id} has no role {role_id}")
        return meta["role"]

    @property
    def next_step(self) -> NextStepRole:
        return self.roles[NextStepRole.role_id]["role"]

    def acquire_role(self, role: Role, modal: bool = False) -> Role:
        """Install a role: code into the cache, an EE bound to it (SRP.3:
        ships "can acquire or learn other functions")."""
        if role.role_id in self.roles:
            raise ShipError(f"{self.ship_id} already has {role.role_id}")
        module = type(role).code_module()
        ee_label = f"EE:{role.role_id}"
        self.nodeos.provision_function(ee_label, module, modal=modal)
        function = NetFunction(role.role_id,
                               role.supporting_fact_classes)
        self.roles[role.role_id] = {"role": role, "modal": modal,
                                    "ee": ee_label, "function": function}
        self._plan = self._structure = None
        # PMP.3 bootstrap: a fresh function starts with one implanted
        # experience per supporting class, giving it a decaying initial
        # lifetime that only real demand can prolong.
        for fact_class in role.supporting_fact_classes:
            self.record_fact(fact_class, ("bootstrap", role.role_id))
        self.sim.trace.emit("ship.role.acquire", ship=self.ship_id,
                            role=role.role_id, modal=modal)
        return role

    def release_role(self, role_id: str) -> Role:
        if role_id == NextStepRole.role_id:
            raise ShipError("the Next-Step standard module cannot be released")
        meta = self.roles.pop(role_id, None)
        if meta is None:
            raise ShipError(f"{self.ship_id} has no role {role_id}")
        self._plan = self._structure = None
        if self.active_role_id == role_id:
            meta["role"].on_deactivate(self)
            self.active_role_id = None
        ee = self.nodeos.ees.get(meta["ee"])
        if ee is not None:
            ee.unbind()
            self.nodeos.ees.free(meta["ee"])
        self.nodeos.cache.unpin(role_id)
        self.sim.trace.emit("ship.role.release", ship=self.ship_id,
                            role=role_id)
        return meta["role"]

    def assign_role(self, role_id: str) -> float:
        """Make ``role_id`` the ship's single active function.

        Returns the reconfiguration delay.  Resident activation is the
        cheap tier of Figure 2; acquiring the role first (via shuttle or
        hardware) pays the expensive tiers.
        """
        meta = self.roles.get(role_id)
        if meta is None:
            raise ShipError(f"{self.ship_id} cannot assign unknown "
                            f"role {role_id}")
        previous = self.active_role_id
        if previous == role_id:
            return 0.0
        if previous is not None:
            prev_meta = self.roles[previous]
            prev_meta["role"].on_deactivate(self)
            ee = self.nodeos.ees.get(prev_meta["ee"])
            if ee is not None:
                ee.deactivate()
        self.nodeos.activate_function(meta["ee"])
        meta["role"].on_activate(self)
        self.active_role_id = role_id
        self._plan = None
        delay = self.nodeos.cpu.execute(10_000, "role-switch") \
            / 1.0  # resident switch: bookkeeping only
        self.role_changes.append((self.sim.now, previous, role_id))
        self.reconfig_events.append((self.sim.now, "activate", delay))
        self.sim.trace.emit("ship.role.change", ship=self.ship_id,
                            prev=previous, role=role_id)
        return delay

    @property
    def active_role(self) -> Optional[Role]:
        if self.active_role_id is None:
            return None
        return self.roles[self.active_role_id]["role"]

    def tick_roles(self) -> None:
        """Periodic role housekeeping (driven by the WN pulse)."""
        for meta in self.roles.values():
            meta["role"].on_tick(self, self.sim.now)

    def live_functions(self) -> List[str]:
        """Roles whose supporting facts are still alive (PMP.3)."""
        now = self.sim.now
        return sorted(rid for rid, meta in self.roles.items()
                      if meta["function"].alive(self.knowledge, now))

    def expired_functions(self) -> List[str]:
        now = self.sim.now
        return sorted(rid for rid, meta in self.roles.items()
                      if not meta["function"].alive(self.knowledge, now))

    # ------------------------------------------------------------------
    # Knowledge (PMP)
    # ------------------------------------------------------------------
    def record_fact(self, fact_class: str, value: Any,
                    weight: float = 1.0) -> Fact:
        return self.knowledge.record_fields(fact_class, value, self.sim.now,
                                            source=self.ship_id,
                                            weight=weight)

    # ------------------------------------------------------------------
    # Lifecycle (SRP.2: born, live, die)
    # ------------------------------------------------------------------
    def die(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.died_at = self.sim.now
        self.fabric.detach(self.ship_id)
        # The physical node goes dark with its ship: neighbours' routing
        # must see the links as gone, not just a silent host.
        if self.ship_id in self.fabric.topology:
            self.fabric.topology.set_node_state(self.ship_id, False)
        self.sim.trace.emit("ship.die", ship=self.ship_id)
        if self.sim.obs.on:
            self.sim.obs.ship_lifecycle.inc(node=self.ship_id, event="die")

    # ------------------------------------------------------------------
    # Self-description (SRP.1)
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The ship's true self-description."""
        return {
            "ship": self.ship_id,
            "class": self.ship_class,
            "generation": int(self.generation),
            "roles": sorted(self.roles),
            "active_role": self.active_role_id,
            "structure": self.structure(),
            "alive": self.alive,
        }

    def publish(self) -> Dict[str, Any]:
        """What the ship tells the world.  SRP.1 requires ships to "be
        fair and cooperative w.r.t. the information they display";
        a dishonest ship misrepresents its roles and gets excluded by
        the reputation system."""
        desc = self.describe()
        if not self.honest:
            desc = dict(desc)
            desc["roles"] = ["fn.fusion", "fn.caching", "fn.transcoding"]
            desc["active_role"] = "fn.fusion"
        return desc

    def comm_pattern(self) -> Dict[str, int]:
        """Per-neighbour packet counts (encoded into genomes)."""
        return {str(k): v for k, v in sorted(self._comm.items(), key=lambda kv: repr(kv[0]))}

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_deliver(self, fn: DeliveryHandler) -> None:
        self._delivery_handlers.append(fn)

    def neighbors(self) -> List[Hashable]:
        return self.fabric.topology.neighbors(self.ship_id)

    def originate(self, packet: Datagram) -> None:
        """Inject locally generated traffic through the full pipeline.

        Unlike :meth:`send_toward` (pure forwarding), origination runs
        the ship's screening and active function first — an active
        node's own traffic is subject to its own functions (e.g. a
        delegation point that migrated onto the user's node intercepts
        her task capsules right here).
        """
        if packet.created_at == 0.0 and self.sim.now > 0.0:
            packet.created_at = self.sim.now
        self.receive(packet, from_node=self.ship_id)

    def send_toward(self, packet: Datagram) -> bool:
        """Route one packet toward its destination."""
        if not self.alive:
            return False
        obs = self.sim.obs
        if obs.on and isinstance(packet, Shuttle) \
                and TRACE_META_KEY not in packet.meta:
            # First send of a shuttle journey: open the causal root.
            root = obs.tracer.start_trace(
                f"shuttle#{packet.packet_id}", self.ship_id, self.sim.now)
            root.attrs.update(src=packet.src, dst=packet.dst,
                              ops=[d.op for d in packet.directives],
                              jet=isinstance(packet, Jet))
            packet.meta[TRACE_META_KEY] = root.context
        if packet.dst == self.ship_id:
            self.deliver_local(packet, None)
            return True
        if packet.is_broadcast:
            sent = self.fabric.broadcast(self.ship_id, packet)
            return sent > 0
        hop = None
        if self.router is not None:
            hop = self.router.next_hop(self.ship_id, packet.dst)
        if hop is None:
            # Reactive routers may buffer the packet pending discovery.
            if (self.router is not None
                    and hasattr(self.router, "on_no_route")
                    and self.router.on_no_route(self, packet)):
                return True
            self.packets_dropped += 1
            if obs.on:
                obs.node_packets.inc(node=self.ship_id, event="drop-noroute")
            self.sim.trace.emit("ship.drop.noroute", ship=self.ship_id,
                                dst=packet.dst)
            return False
        breakers = self.fabric.breakers
        if breakers is not None and breakers.blocked(self.ship_id, hop):
            alt = self._reroute_around(hop, packet.dst, breakers)
            if alt is not None:
                if obs.on:
                    obs.resilience_events.inc(event="reroute")
                self.sim.trace.emit("ship.reroute", ship=self.ship_id,
                                    avoided=hop, via=alt, dst=packet.dst)
                hop = alt
        self._comm[hop] = self._comm.get(hop, 0) + 1
        self.packets_forwarded += 1
        if obs.on:
            obs.node_packets.inc(node=self.ship_id, event="forward")
        return self.fabric.send(self.ship_id, hop, packet)

    def _reroute_around(self, blocked_hop: Hashable, dst: Hashable,
                        breakers) -> Optional[Hashable]:
        """An alternate first hop avoiding a tripped breaker.

        Prefers neighbours whose own router routes onward, not back
        through this ship; falls back to any non-blocked up neighbour
        (the TTL bounds any detour loops).  Returns None when every
        alternative is blocked — the send then proceeds on the original
        hop and fails fast at the fabric, which is what feeds the
        breaker's recovery probes.
        """
        fallback = None
        for neighbor in self.neighbors():
            if neighbor == blocked_hop \
                    or breakers.blocked(self.ship_id, neighbor):
                continue
            if neighbor == dst:
                return neighbor
            onward = self._onward_hop(neighbor, dst)
            if onward is not None and onward != self.ship_id:
                return neighbor
            if fallback is None:
                fallback = neighbor
        return fallback

    def _onward_hop(self, neighbor: Hashable,
                    dst: Hashable) -> Optional[Hashable]:
        """``neighbor``'s own next hop toward ``dst``, asked through its
        router's side-effect-free ``lookup``; None when it has no host,
        no such router, or no route."""
        router = getattr(self.fabric.host(neighbor), "router", None)
        lookup = getattr(router, "lookup", None)
        if lookup is None:
            return None
        try:
            return lookup(neighbor, dst)
        except TopologyError:
            return None

    def deliver_local(self, packet: Datagram,
                      from_node: Optional[Hashable]) -> None:
        self.packets_delivered += 1
        obs = self.sim.obs
        if obs.on:
            obs.node_packets.inc(node=self.ship_id, event="deliver")
            obs.session_packets.inc(session=packet.flow_id)
            obs.session_latency.observe(self.sim.now - packet.created_at)
            obs.packet_hops.observe(packet.hops)
            ctx = packet.meta.get(TRACE_META_KEY)
            if ctx is not None:
                obs.tracer.event(f"deliver:{self.ship_id}", ctx,
                                 self.ship_id, self.sim.now,
                                 hops=packet.hops)
        self.sim.trace.emit("ship.deliver", ship=self.ship_id,
                            packet=packet.packet_id)
        for fn in self._delivery_handlers:
            fn(packet, from_node)

    def receive(self, packet: Datagram, from_node: Hashable) -> None:
        if not self.alive:
            return
        self._comm[from_node] = self._comm.get(from_node, 0) + 1
        plan = self._plan
        if (plan is None or plan.router is not self.router
                or plan.fabric_version != self.fabric_hw.version
                or plan.backplane_version != self.backplane.version):
            plan = self._plan = _ReceivePlan(self)
        # Security screening applies to everything when the role is held.
        screen = plan.screen
        if screen is not None and screen.handle(self, packet, from_node):
            return
        if isinstance(packet, Shuttle):
            if isinstance(packet, Jet):
                self._receive_jet(packet, from_node)
            else:
                self._receive_shuttle(packet, from_node)
            return
        control = plan.control
        if control is not None and control(self, packet, from_node):
            return
        # The standard Next-Step module sees control capsules always.
        if plan.next_step.handle(self, packet, from_node):
            return
        # The single active function gets the packet next, its
        # hardware-accelerated or plain CPU cost accounted against its
        # EE; an active screen has already seen the packet.
        active = plan.active
        if active is not None:
            delay = self.nodeos.cpu.execute(plan.ops, plan.category)
            if plan.ee is not None:
                plan.ee.record_invocation(delay)
            if active is not screen \
                    and active.handle(self, packet, from_node):
                return
        if packet.dst == self.ship_id or packet.is_broadcast:
            # Receiving is an experience too — demand facts accrue at
            # destinations, not only along the path.
            self._observe_packet(packet)
            self.deliver_local(packet, from_node)
        else:
            self._observe_packet(packet)
            self.nodeos.forward_cost()
            self.send_toward(packet)

    #: Default mapping of payload kinds to recorded experience facts —
    #: ships record passing traffic as "facts (events, experiences)"
    #: (PMP.2), which is what lets demand attract wandering functions
    #: to nodes that do not hold the matching role yet.
    OBSERVED_KINDS = {
        "content-request": ("content-request", "key"),
        "media": ("flow", None),
        "sensor": ("flow", None),
        "task": ("task-origin", "origin"),
    }

    def _observe_packet(self, packet: Datagram) -> None:
        payload = packet.payload
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        spec = self.OBSERVED_KINDS.get(kind)
        if spec is not None:
            fact_class, field = spec
            value = packet.flow_id if field is None else payload.get(field)
            if value is not None:
                self.record_fact(fact_class, value, weight=0.5)
        group = payload.get("group")
        if group is not None:
            self.record_fact("multicast-group", group, weight=0.5)

    # ------------------------------------------------------------------
    # Shuttle interpretation (the hyperactive part)
    # ------------------------------------------------------------------
    def _receive_shuttle(self, shuttle: Shuttle, from_node: Hashable) -> None:
        if shuttle.dst != self.ship_id and not shuttle.is_broadcast:
            # In transit: shuttles are just (actively routed) packets.
            self.nodeos.forward_cost()
            self.send_toward(shuttle)
            return
        self.process_shuttle(shuttle, from_node)

    def process_shuttle(self, shuttle: Shuttle,
                        from_node: Optional[Hashable]) -> Dict[str, Any]:
        """Dock a shuttle: morph, authorize, and run its directives.

        Returns a report dict (also emitted on the trace bus).
        """
        report: Dict[str, Any] = {"applied": [], "denied": [],
                                  "failed": [], "morphed": False}
        obs = self.sim.obs
        observing = obs.on
        ctx = shuttle.meta.get(TRACE_META_KEY) if observing else None
        # -- at-least-once hardening: suppress replayed deliveries ------
        arq = shuttle.meta.get(ARQ_META_KEY)
        if arq is not None and self.dedup_enabled:
            cached = self._shuttle_ledger.get(arq["msg"])
            if cached is not None:
                self.duplicate_shuttles += 1
                if observing:
                    obs.resilience_events.inc(event="duplicate")
                    if ctx is not None:
                        obs.tracer.event(f"duplicate:{self.ship_id}", ctx,
                                         self.ship_id, self.sim.now,
                                         msg=arq["msg"])
                self.sim.trace.emit("ship.shuttle.duplicate",
                                    ship=self.ship_id,
                                    shuttle=shuttle.packet_id,
                                    msg=arq["msg"])
                # Re-ack: the original ack may be the thing that was lost.
                self._send_arq_ack(arq, duplicate=True)
                return dict(cached)
        # -- DCP: the approaching shuttle must match our interface ------
        requirements = self.requirements()
        if not shuttle.compatible_with(requirements):
            if self.morphing_enabled:
                report["morphed"] = shuttle.morph_for(requirements)
                if report["morphed"] and observing:
                    obs.shuttle_events.inc(node=self.ship_id,
                                           event="morph")
                    if ctx is not None:
                        obs.tracer.event(f"morph:{self.ship_id}", ctx,
                                         self.ship_id, self.sim.now,
                                         target_class=shuttle.target_class)
            if not shuttle.compatible_with(requirements):
                self.shuttles_rejected += 1
                report["rejected"] = "interface-mismatch"
                if observing:
                    obs.shuttle_events.inc(node=self.ship_id,
                                           event="reject")
                    if ctx is not None:
                        obs.tracer.event(f"reject:{self.ship_id}", ctx,
                                         self.ship_id, self.sim.now,
                                         reason="interface-mismatch")
                self.sim.trace.emit("ship.shuttle.reject",
                                    ship=self.ship_id,
                                    shuttle=shuttle.packet_id)
                self._finish_arq(arq, report)
                return report
        # -- static admission (repro.staticcheck): reject poison payloads
        # before anything executes.  The vet is pure (no RNG draws, no
        # sim events, no shuttle mutation), so a rejection cannot perturb
        # the run digest of unaffected traffic.
        if self.admission_enabled:
            verdict = self.admission.vet(shuttle, self)
            if not verdict.ok:
                self.shuttles_rejected += 1
                self.shuttles_admission_rejected += 1
                report["rejected"] = f"admission:{verdict.reason_code}"
                report["admission"] = list(verdict.reasons)
                if observing:
                    obs.shuttle_events.inc(node=self.ship_id,
                                           event="reject")
                    obs.rejected_quanta.inc(node=self.ship_id,
                                            reason=verdict.reason_code)
                    for rule in verdict.lint_rules:
                        obs.lint_findings.inc(rule=rule)
                    if ctx is not None:
                        obs.tracer.event(f"reject:{self.ship_id}", ctx,
                                         self.ship_id, self.sim.now,
                                         reason=report["rejected"])
                self.sim.trace.emit("ship.shuttle.admission.reject",
                                    ship=self.ship_id,
                                    shuttle=shuttle.packet_id,
                                    reason=verdict.reason_code)
                self._finish_arq(arq, report)
                return report
        ship_before = self._current_structure()
        # Interpretation costs CPU proportional to cargo size.
        self.nodeos.execute_capsule(shuttle.size_bytes, category="shuttle")
        for directive in shuttle.directives:
            outcome = self._apply_directive(directive, shuttle)
            report[outcome].append(directive.op)
            if observing:
                obs.directives.inc(op=directive.op, outcome=outcome)
        self.congruence.record_processed(self.sim.now, shuttle.structure(),
                                         ship_before,
                                         self._current_structure())
        self.shuttles_processed += 1
        if observing:
            obs.shuttle_events.inc(node=self.ship_id, event="process")
            if ctx is not None:
                dock = obs.tracer.event(
                    f"dock:{self.ship_id}", ctx, self.ship_id,
                    self.sim.now, applied=len(report["applied"]),
                    denied=len(report["denied"]),
                    failed=len(report["failed"]),
                    morphed=report["morphed"])
                # Fan-out after docking (jet replication, onward
                # propagation) parents under the dock span.
                shuttle.meta[TRACE_META_KEY] = dock.context
        self.sim.trace.emit("ship.shuttle.process", ship=self.ship_id,
                            shuttle=shuttle.packet_id,
                            applied=len(report["applied"]),
                            denied=len(report["denied"]))
        self._finish_arq(arq, report)
        return report

    def _finish_arq(self, arq: Optional[Dict[str, Any]],
                    report: Dict[str, Any]) -> None:
        """Record the outcome in the replay ledger and ack the source."""
        if arq is None:
            return
        msg = arq["msg"]
        if msg in self._shuttle_ledger:
            # Only reachable with dedup disabled: the directives of this
            # message ran a second time.
            self.double_applied += 1
        self._ledger_put(self._shuttle_ledger, msg, dict(report))
        self._send_arq_ack(arq)

    def _ledger_put(self, ledger: OrderedDict, key, value) -> None:
        ledger[key] = value
        ledger.move_to_end(key)
        while len(ledger) > self.LEDGER_CAP:
            ledger.popitem(last=False)

    def _send_arq_ack(self, arq: Dict[str, Any],
                      duplicate: bool = False) -> None:
        ack = Datagram(self.ship_id, arq["src"], size_bytes=64,
                       payload={"kind": ACK_KIND, "msg": arq["msg"],
                                "origin": self.ship_id,
                                "duplicate": duplicate},
                       created_at=self.sim.now)
        self.acks_sent += 1
        if self.sim.obs.on:
            self.sim.obs.resilience_events.inc(event="ack")
        self.send_toward(ack)

    def vet_shuttle(self, shuttle: Shuttle,
                    check_authorization: bool = False):
        """Statically vet a shuttle against this ship without docking it.

        The sender-side "would this land?" precheck: with
        ``check_authorization=True`` the verdict additionally proves
        every directive's required action against this ship's
        SecurityManager policy (a pure query — no denial is recorded).
        Returns the :class:`~repro.staticcheck.admission.Verdict`.
        """
        return self.admission.vet(shuttle, self,
                                  check_authorization=check_authorization)

    def _capability_for(self, op: str) -> str:
        if op in (OP_INSTALL_CODE, OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE,
                  OP_RELEASE_ROLE, OP_SET_NEXT_STEP, OP_REQUEST_STATE,
                  OP_DEPLOY_QUANTUM):
            return Capability.EE_PROGRAMMING
        if op == OP_INSTALL_DRIVER:
            return Capability.NODEOS_PROGRAMMING
        if op == OP_LOAD_BITSTREAM:
            return Capability.HW_RECONFIGURATION
        return Capability.SELF_DISTRIBUTION  # transcribe-genome

    def _apply_directive(self, d: Directive, shuttle: Shuttle) -> str:
        """Run one directive; returns 'applied' / 'denied' / 'failed'."""
        if not supports(self.generation, self._capability_for(d.op)):
            return "denied"
        cred = shuttle.credential
        try:
            if d.op == OP_INSTALL_CODE:
                self.nodeos.install_code(d.args["module"], cred=cred)
            elif d.op == OP_INSTALL_DRIVER:
                self.nodeos.install_driver(d.args["module"], cred=cred)
            elif d.op == OP_LOAD_BITSTREAM:
                self._load_bitstream(d.args["bitstream"], cred)
            elif d.op == OP_ACQUIRE_ROLE:
                self._acquire_role_directive(d, cred)
            elif d.op == OP_ACTIVATE_ROLE:
                if not self.nodeos.authorize(cred, Action.RECONFIGURE):
                    return "denied"
                self.assign_role(d.args["role_id"])
            elif d.op == OP_RELEASE_ROLE:
                if not self.nodeos.authorize(cred, Action.RECONFIGURE):
                    return "denied"
                self.release_role(d.args["role_id"])
            elif d.op == OP_SET_NEXT_STEP:
                self.next_step.set_next(d.args["role_id"], self.sim.now)
            elif d.op == OP_DEPLOY_QUANTUM:
                self._deploy_quantum(d, cred)
            elif d.op == OP_TRANSCRIBE_GENOME:
                if not self.nodeos.authorize(cred, Action.RECONFIGURE):
                    return "denied"
                transcribe(d.args["genome"], self, self.catalog,
                           activate=d.args.get("activate", True))
            elif d.op == OP_REQUEST_STATE:
                if not self.nodeos.authorize(cred, Action.READ_STATE):
                    return "denied"
                self._reply_state(d.args.get("reply_to", shuttle.src))
            else:  # pragma: no cover — ALL_OPS is closed
                return "failed"
        except PermissionError:
            return "denied"
        except (NodeOSError, HardwareError, ShipError, KeyError):
            return "failed"
        return "applied"

    def _acquire_role_directive(self, d: Directive, cred) -> None:
        if not self.nodeos.authorize(cred, Action.RECONFIGURE):
            raise PermissionError("acquire-role denied")
        role_id = d.args.get("role_id")
        module = d.args.get("module")
        if self.has_role(role_id):
            return
        # Resource access control: a principal may only hold so many
        # EEs on one ship (Quota.max_ees).
        principal = getattr(cred, "principal", None)
        if principal is not None:
            quota = self.nodeos.security.quota_for(principal)
            owned = sum(1 for meta in self.roles.values()
                        if meta.get("owner") == principal)
            if owned >= quota.max_ees:
                self.nodeos.security.denials.append(
                    (self.sim.now, principal, "ee-quota"))
                raise PermissionError(
                    f"{principal} EE quota exhausted on {self.ship_id}")
        if module is not None and module.entry is not None:
            role = module.entry()
        else:
            role = self.catalog.create(role_id)
        start = self.sim.now
        self.acquire_role(role, modal=d.args.get("modal", False))
        if principal is not None:
            self.roles[role_id]["owner"] = principal
        delay = self.nodeos.cpu.backlog
        self.reconfig_events.append((start, "software", max(delay, 1e-6)))

    def _load_bitstream(self, bitstream, cred) -> None:
        if not self.nodeos.authorize(cred, Action.RECONFIGURE_HW):
            raise PermissionError("hw reconfiguration denied")
        region = self.fabric_hw.find_function(bitstream.function_id)
        if region is None:
            # Re-use a free region of sufficient size or allocate.
            region = next((r for r in self.fabric_hw.regions
                           if not r.configured
                           and r.cells >= bitstream.cells), None)
            if region is None:
                region = self.fabric_hw.allocate_region(bitstream.cells)
        delay = self.fabric_hw.load(region, bitstream, now=self.sim.now)
        self.reconfig_events.append((self.sim.now, "hardware", delay))
        self.sim.trace.emit("ship.hw.load", ship=self.ship_id,
                            function=bitstream.function_id, delay=delay)

    def _deploy_quantum(self, d: Directive, cred) -> None:
        kq = d.args["quantum"]
        # Retransmitted shuttles carry the *same* quantum object, so its
        # id is a stable dedup key: absorbing twice would double-count
        # the snapshot weights under at-least-once delivery.
        if self.dedup_enabled and kq.kq_id in self._absorbed_kqs:
            self.sim.trace.emit("ship.kq.duplicate", ship=self.ship_id,
                                kq=kq.kq_id, fn=kq.function_id)
            return
        self._ledger_put(self._absorbed_kqs, kq.kq_id, None)
        self.knowledge.absorb_quantum(kq, self.sim.now)
        if d.args.get("auto_acquire") and kq.function_id in self.catalog \
                and not self.has_role(kq.function_id):
            if self.nodeos.authorize(cred, Action.RECONFIGURE):
                self.acquire_role(self.catalog.create(kq.function_id))
        self.sim.trace.emit("ship.kq.absorb", ship=self.ship_id,
                            fn=kq.function_id,
                            facts=len(kq.fact_snapshots))

    def _reply_state(self, reply_to: Hashable) -> None:
        reply = Datagram(self.ship_id, reply_to, size_bytes=256,
                         payload={"kind": "state-reply",
                                  "state": self.publish()})
        self.send_toward(reply)

    # ------------------------------------------------------------------
    # Jets (self-replication, 4G only)
    # ------------------------------------------------------------------
    def _receive_jet(self, jet: Jet, from_node: Hashable) -> None:
        # Jets execute at *every* ship they visit.
        jet.visited.add(self.ship_id)
        principal = getattr(jet.credential, "principal", None)
        authorized = (supports(self.generation, Capability.SELF_DISTRIBUTION)
                      and self.nodeos.authorize(jet.credential, Action.SPAWN))
        if authorized:
            self.process_shuttle(jet, from_node)
            self._replicate_jet(jet)
        else:
            self.shuttles_rejected += 1
            if self.sim.obs.on:
                self.sim.obs.shuttle_events.inc(node=self.ship_id,
                                                event="jet-reject")
            self.sim.trace.emit("ship.jet.reject", ship=self.ship_id,
                                jet=jet.packet_id, principal=principal)

    def _replicate_jet(self, jet: Jet) -> int:
        """Spawn jet copies toward unvisited neighbours (NodeOS-supervised)."""
        if jet.replicate_budget <= 0:
            return 0
        principal = getattr(jet.credential, "principal", "anonymous")
        targets = [n for n in self.neighbors() if n not in jet.visited]
        targets = targets[: jet.max_fanout]
        if not targets:
            return 0
        spawned = 0
        share = max(0, (jet.replicate_budget - len(targets)) // len(targets))
        obs = self.sim.obs
        ctx = jet.meta.get(TRACE_META_KEY) if obs.on else None
        for target in targets:
            if not self.nodeos.security.charge_spawn(principal):
                break
            copy = jet.spawn_copy(target, share)
            copy.visited.add(self.ship_id)
            jet.visited.add(target)
            self.jets_replicated += 1
            spawned += 1
            if obs.on:
                obs.shuttle_events.inc(node=self.ship_id, event="jet-spawn")
                if ctx is not None:
                    # Each replica branches the causal tree: its hops
                    # chain under its own spawn span.
                    spawn = obs.tracer.event(
                        f"jet-spawn:{target}", ctx, self.ship_id,
                        self.sim.now, budget=share)
                    copy.meta[TRACE_META_KEY] = spawn.context
            self.sim.trace.emit("ship.jet.spawn", ship=self.ship_id,
                                target=target, budget=share)
            self.send_toward(copy)
        return spawned

    # ------------------------------------------------------------------
    # Function propagation (the push half of WN code distribution)
    # ------------------------------------------------------------------
    def make_role_shuttle(self, role_id: str, dst: Hashable,
                          credential=None, activate: bool = False,
                          modal: bool = False) -> Shuttle:
        """Package a held role (code + knowledge quantum) into a shuttle."""
        meta = self.roles.get(role_id)
        if meta is None:
            raise ShipError(f"{self.ship_id} has no role {role_id}")
        role_cls = type(meta["role"])
        directives = [
            Directive(OP_ACQUIRE_ROLE, role_id=role_id,
                      module=role_cls.code_module(), modal=modal),
            Directive(OP_DEPLOY_QUANTUM,
                      quantum=self.knowledge.make_quantum(
                          meta["function"], self.sim.now,
                          origin=self.ship_id)),
        ]
        if activate:
            directives.append(Directive(OP_ACTIVATE_ROLE, role_id=role_id))
        shuttle = Shuttle(self.ship_id, dst, directives=directives,
                          credential=credential,
                          interface=self.interface)
        self.congruence.record_emitted(self.sim.now, shuttle.structure(),
                                       self._current_structure())
        return shuttle

    def make_genome_shuttle(self, dst: Hashable, credential=None,
                            activate: bool = True) -> Shuttle:
        """Node Genesis: embed this ship's structure into a shuttle."""
        genome = encode_ship(self, self.sim.now)
        shuttle = Shuttle(self.ship_id, dst, directives=[
            Directive(OP_TRANSCRIBE_GENOME, genome=genome,
                      activate=activate)],
            credential=credential, interface=self.interface)
        self.congruence.record_emitted(self.sim.now, shuttle.structure(),
                                       self._current_structure())
        return shuttle

    def propagate_function(self, role_id: str, credential=None) -> int:
        """Push a role to every neighbour ship; returns shuttles sent."""
        if role_id not in self.roles:
            return 0
        if credential is None:
            credential = self.default_credential
        sent = 0
        for neighbor in self.neighbors():
            shuttle = self.make_role_shuttle(role_id, neighbor,
                                             credential=credential)
            if self.send_toward(shuttle):
                sent += 1
        return sent

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"<Ship {self.ship_id} {state} {self.generation.name} "
                f"active={self.active_role_id} roles={len(self.roles)}>")
