"""The standard benchmark scenario suite.

Each scenario is a :class:`Scenario`: a seeded, self-contained workload
that stresses one hot plane of the stack and reports only deterministic
quantities:

========================  ==================================================
``event-loop``            pure kernel churn: timer chains + lazy
                          cancellations (Simulator.run inner loop)
``shuttle-storm``         role shuttles docking across a quiet grid WN
                          (clone + admission + directive interpretation)
``jet-flood``             self-replicating jets sweeping the grid
                          (spawn_copy + NodeOS-supervised replication)
``arq-storm``             reliable transport over a lossy fabric
                          (template clones, retransmission, acks, dedup)
``admission-dock``        repeated docking of identical payload clones at
                          one ship (the verdict-memo hot path)
``nomadic``               a nomadic user firing task capsules while
                          walking a route (end-to-end workload plane)
``audit-sweep``           periodic integrity digests over slowly-changing
                          stores (the digest-cache hot path)
``shard-scaling``         admission-heavy quanta pumped node to node (the
                          partitioned-execution macro-benchmark)
========================  ==================================================

Every scenario follows the one protocol of
:class:`~repro.shard.executor.ShardWorkload` — build, setup, drive,
collect, finalize — and :data:`SCENARIOS` (name -> class) is the only
registry.  Scenarios never read wall clocks or host state; the harness
times them from outside.  The counters a scenario finalizes become the
``counters`` block of its ``BENCH_<scenario>.json`` and are folded into
the run digest, so everything in them must be machine-independent and a
pure function of ``(seed, scale)``.

Scales: ``tiny`` (unit tests), ``short`` (CI smoke), ``medium`` (the
shard-scaling measurements), ``full`` (the committed trajectory
numbers).

Sharding: a scenario with ``shardable = True`` can execute partitioned
over worker shards (``repro bench --workers K``) with byte-identical
digests; every other scenario runs as one replica regardless of
``--workers``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, FrozenSet, Hashable, Optional, Tuple

from ..shard.executor import ShardWorkload, shard_fabric_factory
from .digest import round_floats

SCALES = ("tiny", "short", "medium", "full")
#: roles the shuttle traffic acquires (all in the default catalog).
ROLES = ("fn.caching", "fn.filtering", "fn.transcoding", "fn.fusion")

Owned = Optional[FrozenSet[Hashable]]
#: a finalized run: ``(counters, work)``.
Result = Tuple[Dict[str, Any], Dict[str, int]]


def _quiet_wn(seed: int, rows: int, cols: int, loss_rate: float = 0.0,
              fabric_factory=None, latency: float = 0.01):
    """A grid WN with the autopoietic loop parked far beyond the run,
    so the scenario's own traffic is the only event source (the chaos
    campaigns build their networks here too, for exact accounting)."""
    from ..core.wandering_network import (WanderingNetwork,
                                          WanderingNetworkConfig)
    from ..substrates.phys import grid_topology
    config = WanderingNetworkConfig(
        seed=seed, router="static", loss_rate=loss_rate,
        resonance_enabled=False,
        horizontal_wandering=False, vertical_wandering=False,
        audits_enabled=False,
        pulse_interval=1e9, publish_interval=1e9)
    return WanderingNetwork(grid_topology(rows, cols, latency=latency),
                            config, fabric_factory=fabric_factory)


class Scenario(ShardWorkload):
    """One benchmark scenario: a size per scale plus the shard protocol.

    ``SIZES`` maps each scale to the scenario's knobs; :attr:`p` holds
    the chosen one (a scenario without a ``medium`` size runs it at
    ``short``).  A scenario sets ``shardable`` only when every counter
    it reports is a sum over owned ships that no same-time tie can move
    (see :class:`_GridScenario`); every other scenario runs as one
    replica and may report whatever it likes, such as
    ``peak_agenda_depth``.
    """

    description = ""
    shardable = False
    SIZES: Dict[str, Dict[str, Any]] = {}
    __slots__ = ("p",)

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r} (known: {SCALES})")
        if scale == "medium" and "medium" not in self.SIZES:
            scale = "short"
        self.p = self.SIZES[scale]


# ----------------------------------------------------------------------
# event-loop: kernel churn
# ----------------------------------------------------------------------

class EventLoop(Scenario):
    """Timer chains plus lazy cancellations: the bare agenda loop.

    ``chains`` self-rescheduling callbacks hop forward with jittered
    delays; every few hops a chain schedules a decoy event and cancels
    it, so the lazy-cancellation purge is on the hot path too.
    """

    name = "event-loop"
    description = "kernel churn: timer chains + lazy cancellations"
    SIZES = {"tiny": {"chains": 8, "hops": 50},
             "short": {"chains": 32, "hops": 400},
             "medium": {"chains": 48, "hops": 1200},
             "full": {"chains": 64, "hops": 4000}}
    __slots__ = ()

    def horizon(self) -> None:
        return None          # run until the agenda is empty

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        from ..substrates.sim import Simulator
        return {"sim": Simulator(seed=self.seed)}

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        sim = ctx["sim"]
        rng = sim.rng.stream("perf.event_loop")
        ctx["cancelled"] = 0

        def hop(chain: int, remaining: int) -> None:
            if remaining <= 0:
                return
            delay = 0.001 + rng.uniform(0.0, 0.01)
            sim.call_in(delay, hop, chain, remaining - 1, name="bench-hop")
            if remaining % 4 == 0:
                decoy = sim.schedule(delay + 1.0, name="bench-decoy")
                decoy.cancel()
                ctx["cancelled"] += 1

        for chain in range(self.p["chains"]):
            sim.call_in(0.001 * (chain + 1), hop, chain, self.p["hops"],
                        name="bench-hop")

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        sim = ctx["sim"]
        return {
            "events_executed": sim.events_executed,
            "cancelled": ctx["cancelled"],
            "final_time": round(sim.now, 9),
            "peak_agenda_depth": sim.peak_agenda_depth,
        }

    def finalize(self, totals: Dict[str, Any]) -> Result:
        return totals, {"events": totals["events_executed"], "shuttles": 0}


# ----------------------------------------------------------------------
# grid scenarios: the ones that also run partitioned
# ----------------------------------------------------------------------

class _GridScenario(Scenario):
    """A quiet grid WN replica per shard, and order-invariant counters.

    Every counter a grid scenario reports is a sum over completed
    traffic (the horizon includes a drain tail long past the last send,
    so sent == processed regardless of how equal-timestamp events
    interleave), hop counts come from the static router, and
    ``final_time`` is the horizon itself.  That is what makes the
    K-shard digest equal the single-shard digest byte for byte: the
    conservative epoch executor preserves every event's *time* exactly,
    while same-time tie-breaks may differ — so nothing digest-visible
    may depend on them.  ``peak_agenda_depth`` is the one kernel counter
    that is genuinely tie-order- and partition-dependent, which is why
    grid scenarios do not report it.
    """

    shardable = True
    #: link latency of the benchmark grid (drives the shard lookahead).
    latency = 0.01
    __slots__ = ()

    def topology(self):
        from ..substrates.phys import grid_topology
        return grid_topology(self.p["rows"], self.p["cols"],
                             latency=self.latency)

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_wn(self.seed, self.p["rows"], self.p["cols"],
                       fabric_factory=shard_fabric_factory(owned),
                       latency=self.latency)
        return {"wn": wn, "sim": wn.sim, "fabric": wn.fabric}

    def _ships(self, ctx, owned):
        wn = ctx["wn"]
        if owned is None:
            return list(wn.ships.values())
        return [wn.ships[node] for node in owned]

    def finalize(self, totals: Dict[str, Any]) -> Result:
        counters = dict(totals, final_time=round(self.horizon(), 9))
        work = {"events": totals["events_executed"],
                "shuttles": totals["processed"]}
        return counters, work


class ShuttleStorm(_GridScenario):
    """A storm of role shuttles cloned from a few templates.

    Each of the four source ships runs its own driver on its own RNG
    stream (``perf.shuttle_storm.<i>``) with its own send quota, so a
    shard owning a source reproduces that source's traffic exactly
    without reference to the other shards.  The clone path, the
    admission gate and the directive interpreter all sit on the hot
    path; templates are frozen, so CoW sharing engages when enabled.
    """

    name = "shuttle-storm"
    description = "role-shuttle clones docking across a quiet grid"
    SIZES = {"tiny": {"rows": 2, "cols": 2, "per_source": 10},
             "short": {"rows": 3, "cols": 3, "per_source": 100},
             "medium": {"rows": 4, "cols": 5, "per_source": 400},
             "full": {"rows": 5, "cols": 5, "per_source": 1000}}
    __slots__ = ()

    def horizon(self) -> float:
        # Last send at 0.05 * per_source, then a drain tail so every
        # shuttle in flight docks before the clock stops.
        return round(0.05 * (self.p["per_source"] + 4) + 2.0, 9)

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        wn = ctx["wn"]
        nodes = sorted(wn.ships, key=repr)
        ctx["sent"] = [0] * len(ROLES)
        for index, role in enumerate(ROLES):
            src = nodes[index % len(nodes)]
            if owned is None or src in owned:
                self._install(ctx, wn, nodes, index, role, src)

    def _install(self, ctx, wn, nodes, index, role, src):
        from ..core.shuttle import (OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP,
                                    Directive, Shuttle)
        sim = wn.sim
        template = Shuttle(src, src,
                           directives=[
                               Directive(OP_ACQUIRE_ROLE, role_id=role),
                               Directive(OP_SET_NEXT_STEP, role_id=role)],
                           credential=wn.credential,
                           interface=wn.ships[src].interface).freeze_cargo()
        rng = sim.rng.stream(f"perf.shuttle_storm.{index}")
        quota = self.p["per_source"]
        counts = ctx["sent"]

        def blast() -> None:
            if counts[index] >= quota:
                task.stop()
                return
            shuttle = template.clone()
            shuttle.dst = nodes[rng.randrange(len(nodes))]
            shuttle.created_at = sim.now
            wn.ships[src].send_toward(shuttle)
            counts[index] += 1

        task = sim.every(0.05, blast)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        ships = self._ships(ctx, owned)
        return {
            "sent": sum(ctx["sent"]),
            "processed": sum(s.shuttles_processed for s in ships),
            "rejected": sum(s.shuttles_rejected for s in ships),
            "events_executed": ctx["sim"].events_executed,
        }


class JetFlood(_GridScenario):
    """Waves of self-replicating jets sweeping a grid.

    A wave launches at its origin ship only in the shard owning that
    origin; the jet's copies carry their ``visited`` set with them, so
    replication decisions are packet-local and migrate cleanly across
    shard boundaries.
    """

    name = "jet-flood"
    description = "self-replicating jets sweeping the grid"
    SIZES = {"tiny": {"rows": 3, "cols": 3, "waves": 3, "budget": 8},
             "short": {"rows": 4, "cols": 4, "waves": 12, "budget": 24},
             "medium": {"rows": 5, "cols": 5, "waves": 30, "budget": 36},
             "full": {"rows": 6, "cols": 6, "waves": 60, "budget": 48}}
    __slots__ = ()

    def horizon(self) -> float:
        # Waves land every 0.5; the 10-unit tail drains the last flood.
        return round(0.5 * (self.p["waves"] + 20), 9)

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        wn, sim = ctx["wn"], ctx["sim"]
        nodes = sorted(wn.ships, key=repr)
        ctx["launched"] = [0]

        def launch(wave: int) -> None:
            from ..core.shuttle import OP_SET_NEXT_STEP, Directive, Jet
            origin = nodes[wave % len(nodes)]
            jet = Jet(origin, origin,
                      directives=[Directive(OP_SET_NEXT_STEP,
                                            role_id="fn.caching")],
                      replicate_budget=self.p["budget"], max_fanout=3,
                      credential=wn.credential,
                      interface=wn.ships[origin].interface)
            jet.freeze_cargo()
            wn.ships[origin].originate(jet)
            ctx["launched"][0] += 1

        for wave in range(self.p["waves"]):
            origin = nodes[wave % len(nodes)]
            if owned is None or origin in owned:
                sim.call_in(0.5 * (wave + 1), launch, wave,
                            name="bench-jet")

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        ships = self._ships(ctx, owned)
        return {
            "launched": ctx["launched"][0],
            "replicated": sum(s.jets_replicated for s in ships),
            "processed": sum(s.shuttles_processed for s in ships),
            "events_executed": ctx["sim"].events_executed,
        }


class ShardScaling(_GridScenario):
    """Every node pumps admission-heavy quanta at its ring successor.

    Designed to *scale*: work is spread evenly over all nodes (one
    driver per node), each shuttle carries a unique knowledge quantum
    whose full admission vet is the dominant CPU cost (unique payloads
    defeat the verdict memo on purpose), and the grid's 0.05 latency
    gives the shard executor a wide lookahead — few barriers, long
    epochs.  All quanta are byte-for-byte the same *size* (fixed-width
    fact values), so token-bucket waits are a pure function of the
    per-link arrival multiset, not of tie-break order.
    """

    name = "shard-scaling"
    description = ("admission-heavy quanta pumped node-to-node; the "
                   "partitioned-execution macro-benchmark")
    SIZES = {"tiny": {"rows": 2, "cols": 2, "per_node": 6, "facts": 8},
             "short": {"rows": 3, "cols": 3, "per_node": 40, "facts": 16},
             "medium": {"rows": 4, "cols": 5, "per_node": 220,
                        "facts": 24},
             "full": {"rows": 6, "cols": 6, "per_node": 600, "facts": 24}}
    __slots__ = ()
    latency = 0.05

    def horizon(self) -> float:
        return round(0.1 * (self.p["per_node"] + 4) + 2.0, 9)

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        wn = ctx["wn"]
        nodes = sorted(wn.ships, key=repr)
        ctx["sent"] = [0] * len(nodes)
        for index, src in enumerate(nodes):
            if owned is None or src in owned:
                dst = nodes[(index + 1) % len(nodes)]
                self._install(ctx, wn, index, src, dst)

    def _install(self, ctx, wn, index, src, dst):
        from ..core.knowledge import KnowledgeQuantum
        from ..core.shuttle import OP_DEPLOY_QUANTUM, Directive, Shuttle
        sim = wn.sim
        quota = self.p["per_node"]
        facts = self.p["facts"]
        counts = ctx["sent"]

        def pump() -> None:
            i = counts[index]
            if i >= quota:
                task.stop()
                return
            quantum = KnowledgeQuantum(
                f"bench.sh{index:04d}",
                [{"fact_class": "bench-shard",
                  "value": f"{index:04d}-{i:06d}-{k:02d}",
                  "weight": 1.0} for k in range(facts)])
            shuttle = Shuttle(src, dst,
                              directives=[Directive(OP_DEPLOY_QUANTUM,
                                                    quantum=quantum)],
                              credential=wn.credential,
                              interface=wn.ships[src].interface)
            shuttle.freeze_cargo()
            wn.ships[src].send_toward(shuttle)
            counts[index] = i + 1

        task = sim.every(0.1, pump)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        ships = self._ships(ctx, owned)
        return {
            "sent": sum(ctx["sent"]),
            "processed": sum(s.shuttles_processed for s in ships),
            "rejected": sum(s.shuttles_rejected for s in ships),
            "facts": sum(len(s.knowledge) for s in ships),
            "events_executed": ctx["sim"].events_executed,
        }


# ----------------------------------------------------------------------
# arq-storm: reliable transport under loss
# ----------------------------------------------------------------------

class ArqStorm(Scenario):
    """Reliable role delivery over a lossy fabric.

    Every send stores a frozen template; each attempt transmits a fresh
    clone, so retransmission exercises exactly the CoW path the ARQ
    optimizes.  The drain runs past the worst-case backoff so every
    delivery resolves (``delivered + dlq == sent`` holds).
    """

    name = "arq-storm"
    description = "reliable transport retransmitting over a lossy fabric"
    SIZES = {"tiny": {"rows": 2, "cols": 2, "sends": 30, "loss": 0.15},
             "short": {"rows": 3, "cols": 3, "sends": 200, "loss": 0.15},
             "medium": {"rows": 3, "cols": 4, "sends": 600, "loss": 0.15},
             "full": {"rows": 4, "cols": 4, "sends": 1500, "loss": 0.15}}
    __slots__ = ()

    def horizon(self) -> float:
        # The sends, then the worst-case backoff chain (5 attempts of at
        # most 4 s, 25 % jitter) plus a margin.
        return 0.1 * (self.p["sends"] + 4) + 5 * 4.0 * 1.25 + 5.0

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_wn(self.seed, self.p["rows"], self.p["cols"],
                       loss_rate=self.p["loss"])
        return {"wn": wn, "sim": wn.sim}

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        from ..core.shuttle import (OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP,
                                    Directive, Shuttle)
        from ..resilience.arq import ReliableTransport
        wn, sim = ctx["wn"], ctx["sim"]
        transport = ctx["transport"] = ReliableTransport(
            sim, wn.ships, base_timeout=0.5, max_timeout=4.0,
            max_attempts=5, jitter=0.25)
        nodes = sorted(wn.ships, key=repr)
        rng = sim.rng.stream("perf.arq_storm")
        sends = self.p["sends"]

        def send_one() -> None:
            if transport.sent >= sends:
                task.stop()
                return
            src = nodes[rng.randrange(len(nodes))]
            dst = src
            while dst == src:
                dst = nodes[rng.randrange(len(nodes))]
            role = ROLES[transport.sent % len(ROLES)]
            shuttle = Shuttle(src, dst,
                              directives=[
                                  Directive(OP_ACQUIRE_ROLE, role_id=role),
                                  Directive(OP_SET_NEXT_STEP, role_id=role)],
                              credential=wn.credential,
                              interface=wn.ships[src].interface)
            transport.send(src, shuttle)

        task = sim.every(0.1, send_one)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        wn, sim, transport = ctx["wn"], ctx["sim"], ctx["transport"]
        transport.finalize()
        return {
            "sent": transport.sent,
            "delivered": transport.delivered,
            "retries": transport.retries,
            "dlq": len(transport.dlq),
            "duplicates": sum(s.duplicate_shuttles
                              for s in wn.ships.values()),
            "mean_latency": round(transport.mean_latency, 9),
            "events_executed": sim.events_executed,
            "final_time": round(sim.now, 9),
            "peak_agenda_depth": sim.peak_agenda_depth,
        }

    def finalize(self, totals: Dict[str, Any]) -> Result:
        return totals, {"events": totals["events_executed"],
                        "shuttles": totals["delivered"] + totals["retries"]}


# ----------------------------------------------------------------------
# admission-dock: the verdict-memo hot path
# ----------------------------------------------------------------------

class AdmissionDock(Scenario):
    """Repeated docking of payload-identical clones at one ship.

    The dominant cost is the static admission vet of the same few
    payload shapes over and over — manifest recomputation, directive
    schemas, quantum well-formedness, carried-code lint lookups —
    exactly the sweep the verdict memo collapses.  Most templates are
    *poison* (manifest forged after construction, heavy module +
    quantum cargo): the gate runs its full sweep and rejects them, so
    the vet, not directive execution, dominates.  Two honest templates
    keep the accept path in the digest.  Cache-hit counters stay *out*
    of the digest: they legitimately differ with the memo on vs. off;
    verdict outcomes may not.
    """

    name = "admission-dock"
    description = "payload-identical clones through the admission gate"
    SIZES = {"tiny": {"docks": 60}, "short": {"docks": 600},
             "medium": {"docks": 2000}, "full": {"docks": 6000}}
    __slots__ = ()

    def horizon(self) -> float:
        return 0.01 * (self.p["docks"] + 4)

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_wn(self.seed, 1, 2)
        return {"wn": wn, "sim": wn.sim}

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        from ..core.knowledge import KnowledgeQuantum
        from ..core.shuttle import (OP_ACQUIRE_ROLE, OP_DEPLOY_QUANTUM,
                                    OP_SET_NEXT_STEP, Directive, Shuttle)
        from ..functions import (CachingRole, CombiningRole,
                                 DelegationRole, FilteringRole, FusionRole,
                                 TranscodingRole)
        wn, sim = ctx["wn"], ctx["sim"]
        src, dst = sorted(wn.ships, key=repr)
        ship = ctx["ship"] = wn.ships[dst]
        role_classes = (CachingRole, FilteringRole, FusionRole,
                        DelegationRole, CombiningRole, TranscodingRole)
        templates = []
        for honest_role in (CachingRole, FilteringRole):
            templates.append(Shuttle(
                src, dst,
                directives=[
                    Directive(OP_ACQUIRE_ROLE, role_id=honest_role.role_id),
                    Directive(OP_SET_NEXT_STEP,
                              role_id=honest_role.role_id)],
                credential=wn.credential,
                interface=ship.interface).freeze_cargo())
        for start in range(4):
            quantum = KnowledgeQuantum(
                f"bench.kq{start}",
                [{"fact_class": "bench-fact", "value": f"v{start}-{i}",
                  "weight": 1.0} for i in range(12)])
            poison = Shuttle(
                src, dst,
                directives=[Directive(OP_ACQUIRE_ROLE,
                                      role_id=role_cls.role_id,
                                      module=role_cls.code_module())
                            for role_cls in role_classes[start:start + 5]]
                           + [Directive(OP_DEPLOY_QUANTUM, quantum=quantum)],
                credential=wn.credential, interface=ship.interface)
            poison.meta["manifest"] = ("install-code",)   # forged en route
            poison.freeze_cargo()
            templates.append(poison)
        ctx["docked"] = 0
        docks = self.p["docks"]

        def dock() -> None:
            docked = ctx["docked"]
            if docked >= docks:
                task.stop()
                return
            shuttle = templates[docked % len(templates)].clone()
            shuttle.created_at = sim.now
            ship.process_shuttle(shuttle, from_node=src)
            ctx["docked"] = docked + 1

        task = sim.every(0.01, dock)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        sim, ship = ctx["sim"], ctx["ship"]
        return {
            "docked": ctx["docked"],
            "processed": ship.shuttles_processed,
            "rejected": ship.shuttles_rejected,
            "admission_rejected": ship.shuttles_admission_rejected,
            "events_executed": sim.events_executed,
            "final_time": round(sim.now, 9),
            "peak_agenda_depth": sim.peak_agenda_depth,
        }

    def finalize(self, totals: Dict[str, Any]) -> Result:
        return totals, {"events": totals["events_executed"],
                        "shuttles": totals["docked"]}


# ----------------------------------------------------------------------
# nomadic: the end-to-end workload plane
# ----------------------------------------------------------------------

class Nomadic(Scenario):
    """A nomadic user walks a route firing task capsules at a delegate."""

    name = "nomadic"
    description = "nomadic user firing task capsules along a route"
    SIZES = {"tiny": {"rows": 2, "cols": 3, "duration": 30.0},
             "short": {"rows": 3, "cols": 3, "duration": 200.0},
             "medium": {"rows": 3, "cols": 4, "duration": 600.0},
             "full": {"rows": 4, "cols": 4, "duration": 1500.0}}
    __slots__ = ()

    def horizon(self) -> float:
        return self.p["duration"] + 5.0

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_wn(self.seed, self.p["rows"], self.p["cols"])
        return {"wn": wn, "sim": wn.sim}

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        from ..functions import DelegationRole
        from ..workloads.nomadic import NomadicUser
        wn = ctx["wn"]
        nodes = sorted(wn.ships, key=repr)
        delegate = nodes[0]
        wn.deploy_role(DelegationRole, at=delegate, activate=True)
        user = ctx["user"] = NomadicUser(
            ctx["sim"], wn.ships, route=nodes[1:], delegate=delegate,
            dwell_time=10.0, task_interval=0.5)
        # user_id comes from a process-global sequence and leaks into
        # task flow ids (and from there into recorded facts); pin it so
        # the run is a pure function of (seed, scale) regardless of what
        # ran before.
        user.user_id = "bench-nomad"
        user.start()

    def drive(self, ctx: Dict[str, Any]) -> None:
        # The user stops firing at ``duration``; the tail lets the last
        # capsules come home.
        ctx["sim"].run(until=self.p["duration"])
        ctx["user"].stop()
        ctx["sim"].run(until=self.horizon())

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        sim, user = ctx["sim"], ctx["user"]
        return round_floats({
            "tasks_sent": user.tasks_sent,
            "completed": len(user.results),
            "completion_ratio": user.completion_ratio(),
            "mean_latency": (user.mean_latency()
                             if user.results else 0.0),
            "events_executed": sim.events_executed,
            "final_time": sim.now,
            "peak_agenda_depth": sim.peak_agenda_depth,
        })

    def finalize(self, totals: Dict[str, Any]) -> Result:
        return totals, {"events": totals["events_executed"],
                        "shuttles": totals["tasks_sent"]}


# ----------------------------------------------------------------------
# audit-sweep: the digest-cache hot path
# ----------------------------------------------------------------------

class AuditSweep(Scenario):
    """Periodic integrity audits over large, slowly-changing stores.

    Every sweep fingerprints each ship's knowledge base
    (:meth:`~repro.core.knowledge.KnowledgeBase.content_digest`) and
    the metrics registry (:meth:`~repro.obs.facade.Observability.
    metrics_digest`); mutations arrive an order of magnitude less often
    than sweeps, so most audits re-read unchanged knowledge bases — the
    dirty-bit cache's designed case.  The digests themselves are chained
    into the run digest, so a cache returning a stale fingerprint is a
    hard benchmark failure, not just a slow run.

    Observability is switched on right after the network is built, as
    the executor arms it for an observed run, so the metrics this
    scenario fingerprints are the same with or without ``--obs-out``.
    """

    name = "audit-sweep"
    description = "periodic integrity digests over slowly-changing stores"
    SIZES = {"tiny": {"rows": 1, "cols": 3, "facts": 60, "sweeps": 20},
             "short": {"rows": 2, "cols": 3, "facts": 300, "sweeps": 120},
             "medium": {"rows": 2, "cols": 4, "facts": 350, "sweeps": 240},
             "full": {"rows": 3, "cols": 4, "facts": 400, "sweeps": 600}}
    __slots__ = ()

    def horizon(self) -> float:
        return 0.1 * (self.p["sweeps"] + 4)

    def build(self, owned: Owned = None) -> Dict[str, Any]:
        wn = _quiet_wn(self.seed, self.p["rows"], self.p["cols"])
        wn.sim.obs.enable()
        return {"wn": wn, "sim": wn.sim}

    def setup(self, ctx: Dict[str, Any], owned: Owned) -> None:
        from ..core.shuttle import (OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP,
                                    Directive, Shuttle)
        wn, sim = ctx["wn"], ctx["sim"]
        nodes = ctx["nodes"] = sorted(wn.ships, key=repr)
        for index, node in enumerate(nodes):
            ship = wn.ships[node]
            for i in range(self.p["facts"]):
                ship.record_fact(f"bench-class-{i % 7}", f"fact-{index}-{i}")
        template = Shuttle(nodes[0], nodes[-1],
                           directives=[
                               Directive(OP_ACQUIRE_ROLE,
                                         role_id="fn.caching"),
                               Directive(OP_SET_NEXT_STEP,
                                         role_id="fn.caching")],
                           credential=wn.credential,
                           interface=wn.ships[nodes[0]].interface)
        template.freeze_cargo()
        chain = ctx["chain"] = hashlib.sha256()
        ctx["sweeps"] = ctx["mutations"] = 0
        sweeps = self.p["sweeps"]

        def sweep() -> None:
            if ctx["sweeps"] >= sweeps:
                sweep_task.stop()
                churn_task.stop()
                return
            for node in nodes:
                chain.update(
                    wn.ships[node].knowledge.content_digest().encode())
            chain.update(sim.obs.metrics_digest().encode())
            ctx["sweeps"] += 1

        def churn() -> None:
            # One new fact on one ship + one shuttle in flight: exactly
            # one KB goes dirty, and the metrics move.
            mutations = ctx["mutations"]
            ship = wn.ships[nodes[mutations % len(nodes)]]
            ship.record_fact("bench-churn", f"churn-{mutations}")
            shuttle = template.clone()
            shuttle.created_at = sim.now
            wn.ships[template.src].send_toward(shuttle)
            ctx["mutations"] = mutations + 1

        sweep_task = sim.every(0.1, sweep)
        churn_task = sim.every(1.0, churn)

    def collect(self, ctx: Dict[str, Any], owned: Owned) -> Dict[str, Any]:
        wn, sim = ctx["wn"], ctx["sim"]
        return {
            "sweeps": ctx["sweeps"],
            "mutations": ctx["mutations"],
            "audit_chain": ctx["chain"].hexdigest()[:16],
            "facts": sum(len(wn.ships[n].knowledge) for n in ctx["nodes"]),
            "events_executed": sim.events_executed,
            "final_time": round(sim.now, 9),
            "peak_agenda_depth": sim.peak_agenda_depth,
        }

    def finalize(self, totals: Dict[str, Any]) -> Result:
        # One audit reads every ship's knowledge base.
        return totals, {"events": totals["events_executed"],
                        "shuttles": totals["sweeps"] * self.p["rows"]
                        * self.p["cols"]}


#: name -> scenario class, in catalog order.
SCENARIOS: Dict[str, type] = {cls.name: cls for cls in (
    EventLoop, ShuttleStorm, JetFlood, ArqStorm, AdmissionDock, Nomadic,
    AuditSweep, ShardScaling)}
