"""The benchmark's four workloads, built only from the public repro API.

Every workload is a pure function of ``(seed, scale)``: the seed reaches
the program as the master seed of its Simulator and as small variations
of link latency, while the topology shape, rates and sizes are fixed per
scale (``"full"`` is measured,
``"tiny"`` is for the smoke tests).  A run is a batch job: inside
simulated time every source is open-loop at a fixed simulated rate, and
the host simulates that fixed amount of activity as fast as it can.

Each iteration returns an :class:`Outcome`: completed and attempted
operations, simulated-latency samples, and the deterministic fields
folded into the outcome digest.  README.md says why each workload
exists and which layer it is meant to load.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import (OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE, OP_DEPLOY_QUANTUM,
                        OP_SET_NEXT_STEP, Directive, KnowledgeQuantum,
                        Shuttle, WanderingNetwork, WanderingNetworkConfig)
from repro.functions import CachingRole, FusionRole
from repro.resilience import ReliableTransport
from repro.resilience.wire import ACK_KIND
from repro.shard import ShardWorkload, run_sharded, shard_fabric_factory
from repro.substrates.phys import Topology
from repro.substrates.sim import Simulator
from repro.workloads import ContentWorkload, MediaStreamSource


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child process it reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Outcome:
    """What one iteration of a workload produced.

    ``ops`` completed out of ``attempted``; ``latencies_ms`` holds one
    simulated latency per completed user op; ``fold`` holds the other
    deterministic outcomes.  ``wns``, ``sims`` and ``transports`` are
    the live objects whose public counters the traced run reads.
    """

    def __init__(self, ops: int, attempted: int, latencies_ms: List[float],
                 fold: Dict[str, Any], wns=(), sims=(), transports=(),
                 shard_stats: Optional[Dict[str, Any]] = None):
        self.ops = ops
        self.attempted = attempted
        self.failed = attempted - ops
        self.latencies_ms = latencies_ms
        self.fold = fold
        self.wns = list(wns)
        self.sims = list(sims) + [wn.sim for wn in self.wns]
        self.transports = list(transports)
        self.shard_stats = shard_stats

    def digest(self) -> str:
        body = {"fold": self.fold, "ops": self.ops,
                "attempted": self.attempted,
                "latency_ms": [round(x, 6) for x in sorted(self.latencies_ms)]}
        blob = json.dumps(body, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def grid(rows: int, cols: int, latency: float, seed: int) -> Topology:
    """A rows x cols mesh whose link latencies are drawn from the seed
    within 5 % of ``latency``, so simulated latencies vary a little with
    the seed instead of repeating one lattice of values."""
    rng = random.Random(f"perfbench.links.{seed}")
    topology = Topology()
    for r in range(rows):
        for c in range(cols):
            topology.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            for peer in ((r, c + 1), (r + 1, c)):
                if peer[0] < rows and peer[1] < cols:
                    topology.add_link((r, c), peer,
                                      latency * rng.uniform(0.95, 1.05))
    return topology


def quiet_wn(seed: int, topology, loss_rate: float = 0.0,
             fabric_factory=None) -> WanderingNetwork:
    """A statically routed WN with the autopoietic loop parked far
    beyond any run, so the workload's own traffic is the only load."""
    config = WanderingNetworkConfig(
        seed=seed, router="static", loss_rate=loss_rate,
        resonance_enabled=False, horizontal_wandering=False,
        vertical_wandering=False, audits_enabled=False,
        pulse_interval=1e9, publish_interval=1e9)
    return WanderingNetwork(topology, config, fabric_factory=fabric_factory)


class Workload:
    """One benchmark workload: ``build`` constructs everything up to
    the first simulated event, ``drive`` simulates and collects."""

    name = ""
    SIZES: Dict[str, Dict[str, Any]] = {}
    #: Constructor arguments for the traced run's attribution
    #: iterations (only the sharded workload differs).
    ATTRIBUTION: Dict[str, Any] = {}

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = int(seed)
        self.scale = scale
        self.size = self.SIZES[scale]

    def build(self) -> Dict[str, Any]:
        raise NotImplementedError

    def drive(self, ctx: Dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def timed(self) -> Tuple[float, float, float, Outcome]:
        """One iteration: ``(setup_s, cpu_s, wall_s, outcome)``."""
        wall0 = time.perf_counter()
        cpu0 = cpu_seconds()
        ctx = self.build()
        cpu1 = cpu_seconds()
        outcome = self.drive(ctx)
        cpu2 = cpu_seconds()
        return cpu1 - cpu0, cpu2 - cpu0, time.perf_counter() - wall0, outcome


# ----------------------------------------------------------------------
# growth: the paper's full autopoietic loop
# ----------------------------------------------------------------------

class Growth(Workload):
    """WLI adaptive routing, resonance, both kinds of wandering, pulses,
    publication and audits, under Zipf content requests plus CBR media.
    The caching role reaches its first ships in-band, as role shuttles.

    Media cross the grid on equally long paths and make up most latency
    samples, so the median sits among the one-way media latencies and the
    p99 among the content round trips.
    """

    name = "growth"
    SIZES = {
        "full": {"rows": 5, "cols": 5, "active": 120.0,
                 "caching": [(1, 1), (3, 3)]},
        "tiny": {"rows": 3, "cols": 3, "active": 15.0,
                 "caching": [(0, 1)]},
    }
    #: Hellos converge the adaptive routes before user traffic starts.
    WARMUP = 20.0
    #: After the loop is shut down, everything in flight lands.
    DRAIN = 5.0
    REQUEST_INTERVAL = 0.5
    MEDIA_PPS = 8.0

    def build(self) -> Dict[str, Any]:
        rows, cols = self.size["rows"], self.size["cols"]
        wn = WanderingNetwork(
            grid(rows, cols, 0.01, self.seed),
            WanderingNetworkConfig(seed=self.seed, router="adaptive",
                                   pulse_interval=10.0,
                                   resonance_threshold=2.0,
                                   min_attraction=0.5,
                                   max_migrations_per_pulse=6))
        sim = wn.sim
        middle = (rows // 2, cols // 2)
        clients = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
        ctx = {
            "wn": wn,
            "operator": middle,
            "content": ContentWorkload(
                sim, wn.ships, clients=clients, origin=middle, n_items=40,
                request_interval=self.REQUEST_INTERVAL, name="growth"),
            "media": [
                MediaStreamSource(sim, wn.ships, src, dst,
                                  rate_pps=self.MEDIA_PPS,
                                  stream_id=f"growth-media-{i}")
                for i, (src, dst) in enumerate([
                    ((0, 1), (rows - 1, 1)),
                    ((rows - 1, cols - 2), (0, cols - 2)),
                    ((1, 0), (1, cols - 1)),
                    ((rows - 2, cols - 1), (rows - 2, 0))])],
            "latencies": [],
            "deployed": 0,
        }
        for ship in wn.ships.values():
            ship.on_deliver(functools.partial(self.sink, ctx, ship.ship_id))
        end = self.WARMUP + self.size["active"]
        sim.call_at(1.0, self.deploy_roles, ctx)
        sim.call_at(self.WARMUP, self.start_traffic, ctx)
        sim.call_at(end, self.stop_traffic, ctx)
        ctx["end"] = end + self.DRAIN
        return ctx

    def deploy_roles(self, ctx) -> None:
        wn = ctx["wn"]
        operator = wn.ships[ctx["operator"]]
        for node in self.size["caching"]:
            shuttle = Shuttle(
                operator.ship_id, node,
                directives=[Directive(OP_ACQUIRE_ROLE,
                                      role_id=CachingRole.role_id,
                                      module=CachingRole.code_module()),
                            Directive(OP_ACTIVATE_ROLE,
                                      role_id=CachingRole.role_id)],
                credential=wn.credential, interface=operator.interface)
            if operator.send_toward(shuttle):
                ctx["deployed"] += 1

    def start_traffic(self, ctx) -> None:
        ctx["content"].start()
        for stream in ctx["media"]:
            stream.start()

    def stop_traffic(self, ctx) -> None:
        ctx["content"].stop()
        for stream in ctx["media"]:
            stream.stop()
        ctx["wn"].shutdown()

    def sink(self, ctx, node, packet, from_node) -> None:
        payload = packet.payload
        if packet.dst == node and isinstance(payload, dict) \
                and payload.get("kind") in ("content", "media"):
            ctx["latencies"].append(
                (ctx["wn"].sim.now - packet.created_at) * 1000.0)

    def drive(self, ctx) -> Outcome:
        wn = ctx["wn"]
        wn.sim.run(until=ctx["end"])
        wanders = sum(1 for e in wn.engine.events
                      if e.kind in ("migrate", "replicate"))
        # Shuttles that reached their destination dock, applied or refused.
        shuttles = sum(s.shuttles_processed + s.shuttles_rejected
                       for s in wn.ships.values())
        requests = ctx["content"].requests_sent
        media = sum(stream.sent for stream in ctx["media"])
        latencies = ctx["latencies"]
        fold = {
            "requests": requests, "media": media, "delivered": len(latencies),
            "shuttles_sent": ctx["deployed"] + wanders, "docked": shuttles,
            "wander_events": len(wn.engine.events),
            "emergences": wn.resonance.emergences,
            "dropped": wn.fabric.packets_dropped,
            "facts": sum(len(s.knowledge) for s in wn.ships.values()),
            "roles": sorted((repr(node), sorted(s.roles))
                            for node, s in wn.ships.items()),
            "events": wn.sim.events_executed,
            "final_time": round(wn.sim.now, 9),
        }
        return Outcome(ops=len(latencies) + shuttles,
                       attempted=requests + media + ctx["deployed"] + wanders,
                       latencies_ms=latencies, fold=fold, wns=[wn])


# ----------------------------------------------------------------------
# shuttle-delivery: reliable shuttles over a lossy, static grid
# ----------------------------------------------------------------------

class ShuttleDelivery(Workload):
    """ARQ shuttle delivery with the autopoietic loop parked.  Most
    shuttles clone frozen role templates (the read path: verdict-memo
    hits, copy-on-write clones); a smaller share carries unique
    knowledge quanta (the write path: memo misses, knowledge writes);
    a few forged poison shuttles must be refused by admission."""

    name = "shuttle-delivery"
    SIZES = {"full": {"rows": 4, "cols": 4, "messages": 1500},
             "tiny": {"rows": 2, "cols": 3, "messages": 60}}
    LOSS = 0.03
    SEND_INTERVAL = 0.02
    ROLE_SHARE = 0.70
    QUANTUM_SHARE = 0.25     # the remaining 5 % are poison
    QUANTUM_FACTS = 4
    ROLES = ("fn.caching", "fn.filtering", "fn.transcoding", "fn.fusion")
    #: Twelve attempts at 3 % loss per hop leave a message dead-lettered
    #: with odds far below one in a million.
    ARQ = {"base_timeout": 0.5, "max_timeout": 4.0, "max_attempts": 12,
           "jitter": 0.25}
    #: Longer than the worst backoff chain: 0.5+1+2+4*9 s, +25 % jitter.
    DRAIN = 55.0

    def build(self) -> Dict[str, Any]:
        wn = quiet_wn(self.seed, grid(self.size["rows"], self.size["cols"],
                                      0.01, self.seed),
                      loss_rate=self.LOSS)
        sim = wn.sim
        nodes = sorted(wn.ships, key=repr)
        ctx: Dict[str, Any] = {"wn": wn, "nodes": nodes, "sent": 0,
                               "sent_at": {}, "latencies": [],
                               "rng": sim.rng.stream("bench.delivery")}
        for ship in wn.ships.values():
            ship.on_deliver(functools.partial(self.sink, ctx))
        ctx["transport"] = ReliableTransport(sim, wn.ships, **self.ARQ)
        src = nodes[0]
        interface = wn.ships[src].interface
        ctx["templates"] = [
            Shuttle(src, src, directives=[
                Directive(OP_ACQUIRE_ROLE, role_id=role),
                Directive(OP_SET_NEXT_STEP, role_id=role)],
                credential=wn.credential, interface=interface).freeze_cargo()
            for role in self.ROLES]
        poison = Shuttle(src, src, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id,
                      module=FusionRole.code_module()),
            Directive(OP_DEPLOY_QUANTUM, quantum=KnowledgeQuantum(
                "bench.poison", [{"fact_class": "bench-poison",
                                  "value": i, "weight": 1.0}
                                 for i in range(8)]))],
            credential=wn.credential, interface=interface)
        poison.meta["manifest"] = ("install-code",)   # forged en route
        ctx["poison"] = poison.freeze_cargo()
        ctx["task"] = sim.every(self.SEND_INTERVAL, self.send_one, ctx)
        return ctx

    def send_one(self, ctx) -> None:
        if ctx["sent"] >= self.size["messages"]:
            ctx["task"].stop()
            return
        wn, nodes, rng = ctx["wn"], ctx["nodes"], ctx["rng"]
        src = nodes[rng.randrange(len(nodes))]
        dst = src
        while dst == src:
            dst = nodes[rng.randrange(len(nodes))]
        draw = rng.random()
        if draw < self.ROLE_SHARE:
            templates = ctx["templates"]
            shuttle = templates[rng.randrange(len(templates))].clone()
        elif draw < self.ROLE_SHARE + self.QUANTUM_SHARE:
            number = ctx["sent"]
            quantum = KnowledgeQuantum("bench.delivery", [
                {"fact_class": "bench-delivery",
                 "value": f"{number:06d}-{k}", "weight": 1.0}
                for k in range(self.QUANTUM_FACTS)])
            shuttle = Shuttle(src, dst, directives=[
                Directive(OP_DEPLOY_QUANTUM, quantum=quantum)],
                credential=wn.credential, interface=wn.ships[src].interface)
        else:
            shuttle = ctx["poison"].clone()
        shuttle.src, shuttle.dst = src, dst
        msg = ctx["transport"].send(src, shuttle)
        ctx["sent_at"][msg] = wn.sim.now
        ctx["sent"] += 1

    def sink(self, ctx, packet, from_node) -> None:
        payload = packet.payload
        if isinstance(payload, dict) and payload.get("kind") == ACK_KIND:
            sent_at = ctx["sent_at"].pop(payload.get("msg"), None)
            if sent_at is not None:
                ctx["latencies"].append(
                    (ctx["wn"].sim.now - sent_at) * 1000.0)

    def drive(self, ctx) -> Outcome:
        wn, transport = ctx["wn"], ctx["transport"]
        last_send = self.SEND_INTERVAL * (self.size["messages"] + 1)
        wn.sim.run(until=last_send + self.DRAIN)
        transport.finalize()
        ships = wn.ships.values()
        fold = {
            "sent": transport.sent, "delivered": transport.delivered,
            "retries": transport.retries, "dlq": len(transport.dlq),
            "duplicates": sum(s.duplicate_shuttles for s in ships),
            "processed": sum(s.shuttles_processed for s in ships),
            "admission_rejected": sum(s.shuttles_admission_rejected
                                      for s in ships),
            "facts": sum(len(s.knowledge) for s in ships),
            "dropped": wn.fabric.packets_dropped,
            "events": wn.sim.events_executed,
            "final_time": round(wn.sim.now, 9),
        }
        return Outcome(ops=transport.delivered, attempted=transport.sent,
                       latencies_ms=ctx["latencies"], fold=fold, wns=[wn],
                       transports=[transport])


# ----------------------------------------------------------------------
# timer-churn: the event kernel alone
# ----------------------------------------------------------------------

class TimerChurn(Workload):
    """A large WN's timer population without the WN: periodic hellos,
    each arming a retransmission timeout that its reply usually cancels
    before it fires.  Hosts share a few hello phases, so every phase
    instant is a batch of same-timestamp events."""

    name = "timer-churn"
    SIZES = {"full": {"hosts": 1000, "duration": 60.0},
             "tiny": {"hosts": 40, "duration": 5.0}}
    HELLO = 1.0
    PHASES = 10
    RTO = 0.35
    MAX_RTT = 0.4

    def build(self) -> Dict[str, Any]:
        sim = Simulator(seed=self.seed)
        ctx: Dict[str, Any] = {"sim": sim,
                               "rng": sim.rng.stream("bench.timers"),
                               "latencies": [], "hellos": 0, "armed": 0,
                               "cancelled": 0, "expired": 0}
        ctx["tasks"] = [
            sim.every(self.HELLO, self.hello, ctx,
                      start=self.HELLO * (host % self.PHASES + 1)
                      / self.PHASES)
            for host in range(self.size["hosts"])]
        sim.call_at(self.size["duration"], self.stop, ctx)
        return ctx

    def hello(self, ctx) -> None:
        sim, rng = ctx["sim"], ctx["rng"]
        ctx["hellos"] += 1
        rto = self.RTO * (1.0 + rng.uniform(0.0, 0.25))
        rtt = rng.uniform(0.01, self.MAX_RTT)
        timer = sim.call_in(rto, self.expire, ctx, rto)
        sim.call_in(rtt, self.reply, ctx, timer, rtt)
        ctx["armed"] += 2

    def reply(self, ctx, timer, rtt) -> None:
        ctx["latencies"].append(rtt * 1000.0)
        if timer.cancel():
            ctx["cancelled"] += 1

    def expire(self, ctx, rto) -> None:
        ctx["latencies"].append(rto * 1000.0)
        ctx["expired"] += 1

    def stop(self, ctx) -> None:
        for task in ctx["tasks"]:
            task.stop()

    def drive(self, ctx) -> Outcome:
        sim = ctx["sim"]
        sim.run()
        fired = ctx["hellos"] + len(ctx["latencies"])
        fold = {"hellos": ctx["hellos"], "armed": ctx["armed"],
                "cancelled": ctx["cancelled"], "expired": ctx["expired"],
                "events": sim.events_executed,
                "final_time": round(sim.now, 9)}
        return Outcome(ops=fired,
                       attempted=ctx["hellos"] + ctx["armed"]
                       - ctx["cancelled"],
                       latencies_ms=ctx["latencies"], fold=fold, sims=[sim])


# ----------------------------------------------------------------------
# sharded-quanta: partitioned execution over two forked workers
# ----------------------------------------------------------------------

class QuantaJob(ShardWorkload):
    """Every ship pumps unique knowledge quanta at its ring successor
    on a wide-latency grid.  Plain picklable data: a forked shard worker
    rebuilds the whole network from the instance alone.

    Latency is read back from the absorbed facts: each fact's value
    carries its send time and the knowledge base stamps its dock time,
    so the samples are outcomes of the run, not of any hook."""

    name = "sharded-quanta"
    __slots__ = ("rows", "cols", "per_node", "facts", "end", "built")
    #: Wide links and a fast pump: much work per epoch, few barriers.
    LATENCY = 0.1
    INTERVAL = 0.025
    FACT_CLASS = "bench-quanta"

    def __init__(self, seed: int, scale: str, rows: int, cols: int,
                 per_node: int, facts: int, setup_only: bool = False):
        super().__init__(seed, scale)
        self.rows, self.cols = rows, cols
        self.per_node, self.facts = per_node, facts
        # A setup-only job stops before the first pump fires.
        self.end = (self.INTERVAL / 2 if setup_only
                    else round(self.INTERVAL * (per_node + 4) + 2.0, 9))
        #: Networks this process built (the inline backend's replicas).
        self.built: List[WanderingNetwork] = []

    def topology(self):
        return grid(self.rows, self.cols, self.LATENCY, self.seed)

    def horizon(self) -> float:
        return self.end

    def build(self, owned=None) -> Dict[str, Any]:
        wn = quiet_wn(self.seed, self.topology(),
                      fabric_factory=shard_fabric_factory(owned))
        self.built.append(wn)
        return {"wn": wn, "sim": wn.sim, "fabric": wn.fabric}

    def setup(self, ctx, owned) -> None:
        wn = ctx["wn"]
        nodes = sorted(wn.ships, key=repr)
        ctx["sent"] = [0] * len(nodes)
        ctx["tasks"] = {}
        for index, src in enumerate(nodes):
            if owned is None or src in owned:
                dst = nodes[(index + 1) % len(nodes)]
                ctx["tasks"][index] = wn.sim.every(
                    self.INTERVAL, self.pump, ctx, index, src, dst)

    def pump(self, ctx, index, src, dst) -> None:
        number = ctx["sent"][index]
        if number >= self.per_node:
            ctx["tasks"][index].stop()
            return
        wn = ctx["wn"]
        stamp = f"{index:03d}-{number:05d}-%d@{wn.sim.now!r}"
        quantum = KnowledgeQuantum(f"bench.q{index:03d}", [
            {"fact_class": self.FACT_CLASS, "value": stamp % k,
             "weight": 1.0} for k in range(self.facts)])
        shuttle = Shuttle(src, dst, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=quantum)],
            credential=wn.credential, interface=wn.ships[src].interface)
        wn.ships[src].send_toward(shuttle.freeze_cargo())
        ctx["sent"][index] = number + 1

    def collect(self, ctx, owned) -> Dict[str, Any]:
        wn = ctx["wn"]
        ships = [s for node, s in wn.ships.items()
                 if owned is None or node in owned]
        partial: Dict[str, Any] = {
            "sent": sum(ctx["sent"]),
            "processed": sum(s.shuttles_processed for s in ships),
            "rejected": sum(s.shuttles_rejected for s in ships),
            "facts": sum(len(s.knowledge) for s in ships),
            "events_executed": ctx["sim"].events_executed,
        }
        # One latency per quantum (its fact 0), as a summable histogram
        # keyed by whole simulated microseconds.
        for ship in ships:
            for fact in ship.knowledge.facts_of_class(self.FACT_CLASS):
                head, sent_at = fact.value.split("@")
                if head.endswith("-0"):
                    key = f"lat_us:{round((fact.created_at - float(sent_at)) * 1e6)}"
                    partial[key] = partial.get(key, 0) + 1
        return partial

    def finalize(self, totals):
        counters = {key: value for key, value in totals.items()
                    if not key.startswith("lat_us:")}
        counters["final_time"] = self.end
        histogram = {int(key[len("lat_us:"):]): value
                     for key, value in totals.items()
                     if key.startswith("lat_us:")}
        return counters, histogram


class ShardedQuanta(Workload):
    """:class:`QuantaJob` run by ``run_sharded`` over two workers."""

    name = "sharded-quanta"
    SIZES = {"full": {"rows": 4, "cols": 4, "per_node": 240, "facts": 2},
             "tiny": {"rows": 2, "cols": 2, "per_node": 8, "facts": 2}}
    WORKERS = 2
    #: The traced run attributes layers on the in-process backend, so no
    #: tracing runs inside a worker; shard stats come from an mp run.
    ATTRIBUTION = {"backend": "inline"}

    def __init__(self, seed: int, scale: str = "full", backend: str = "mp"):
        super().__init__(seed, scale)
        self.backend = backend

    def job(self, setup_only: bool = False) -> QuantaJob:
        return QuantaJob(self.seed, self.scale, setup_only=setup_only,
                         **self.size)

    def timed(self) -> Tuple[float, float, float, Outcome]:
        # Set-up is its own run that stops before the first event:
        # partition, worker fork, replica build and the first barrier.
        cpu0 = cpu_seconds()
        run_sharded(self.job(setup_only=True), self.WORKERS,
                    backend=self.backend)
        setup_s = cpu_seconds() - cpu0
        wall0 = time.perf_counter()
        cpu0 = cpu_seconds()
        job = self.job()
        counters, histogram, stats = run_sharded(job, self.WORKERS,
                                                 backend=self.backend)
        cpu_s = cpu_seconds() - cpu0
        wall_s = time.perf_counter() - wall0
        latencies = [us / 1000.0 for us, count in sorted(histogram.items())
                     for _ in range(count)]
        return setup_s, cpu_s, wall_s, Outcome(
            ops=counters["processed"], attempted=counters["sent"],
            latencies_ms=latencies, fold=counters, wns=job.built,
            shard_stats=stats)


WORKLOADS = {cls.name: cls
             for cls in (Growth, ShuttleDelivery, TimerChurn, ShardedQuanta)}

#: Traffic-generator callbacks the traced run wraps too, so that their
#: own cost is not charged to the kernel.
GENERATORS = (
    (ContentWorkload, "_request"), (MediaStreamSource, "_emit"),
    (Growth, "deploy_roles"), (Growth, "start_traffic"),
    (Growth, "stop_traffic"), (Growth, "sink"),
    (ShuttleDelivery, "send_one"), (ShuttleDelivery, "sink"),
    (TimerChurn, "hello"), (TimerChurn, "reply"), (TimerChurn, "expire"),
    (TimerChurn, "stop"),
    (QuantaJob, "pump"),
)
