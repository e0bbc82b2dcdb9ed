"""Chaos campaigns: continuous proof of the resilience invariants.

A *campaign* is a named, seeded scenario that composes the existing
:class:`~repro.substrates.phys.failures.FailureInjector` primitives
(random link storms, scripted partitions, node crashes timed against
genome snapshots) over a small Wandering Network, drives a steady
reconfiguration-shuttle workload through the
:class:`~repro.resilience.arq.ReliableTransport`, and then *asserts*
the invariants the resilience layer promises:

* **no silent loss** — every shuttle handed to the transport is either
  acknowledged or dead-lettered with a reason: ``delivered + dlq ==
  sent`` exactly;
* **no double-apply** — at-least-once retransmission never applies one
  message's directives twice (receiver-side ledger + kq dedup);
* campaign-specific checks — delivery ratio floors, healing counts,
  false-suspicion behaviour under partitions.

Campaigns drain before judging: the injector stops (cancelling its
pending failures *and* repairs), everything repairable is repaired, and
the simulator runs past the worst-case retransmission backoff so each
in-flight delivery resolves one way or the other.  The final counts are
folded into a digest so identical seeds are bit-for-bit comparable
across runs (``repro chaos --campaign smoke --seed 7`` twice must print
the same digest).

Run from the CLI (``repro chaos``) or programmatically via
:func:`run_campaign`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..core.shuttle import OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP, Directive, \
    Shuttle
from ..perf.scenarios import ROLES, SCENARIOS, _quiet_wn
from ..selfheal import GenomeArchive, HeartbeatDetector, SelfHealer
from ..substrates.phys.failures import FailureInjector
from .arq import ReliableTransport
from .breaker import LinkBreakerRegistry

NodeId = Hashable
Check = Callable[["ChaosHarness", Dict[str, Any]], Tuple[str, bool, str]]

# Settings every transport campaign shares.  Nodes never fail at random
# (node deaths are scripted) and circuit breakers are always installed.
#: grid rows (a campaign picks its columns).
ROWS = 3
#: seconds of heartbeats and snapshots before faults and traffic start.
WARMUP = 5.0
#: seconds between two workload shuttles.
SEND_INTERVAL = 2.0
#: self-healing cadence: heartbeats and genome snapshots.
HEARTBEAT_INTERVAL = 5.0
ARCHIVE_INTERVAL = 10.0
#: per-link circuit breakers: drops to open, seconds to half-open.
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN = 10.0
#: the ARQ retransmission ladder.
BASE_TIMEOUT = 2.0
MAX_TIMEOUT = 20.0
MAX_ATTEMPTS = 5
JITTER = 0.25
#: the drain: long enough for the deepest backoff chain to resolve.
SETTLE = sum(min(BASE_TIMEOUT * 2.0 ** k, MAX_TIMEOUT)
             for k in range(MAX_ATTEMPTS)) * (1.0 + JITTER) + 10.0


class Campaign:
    """A named chaos scenario: fault model, run length, checks.

    The network is a quiet ``ROWS`` x ``cols`` grid, built the way the
    benchmark scenarios build theirs; everything no campaign varies is
    a module constant.
    """

    def __init__(self, name: str, description: str, *,
                 cols: int = 3,
                 duration: float = 60.0,
                 loss_rate: float = 0.0,
                 link_mtbf: Optional[float] = None,
                 link_mttr: float = 10.0,
                 selfheal: bool = False,
                 script: Optional[Callable[["ChaosHarness"], None]] = None,
                 checks: Tuple[Check, ...] = ()):
        self.name = name
        self.description = description
        self.cols = cols
        self.duration = float(duration)
        self.loss_rate = float(loss_rate)
        self.link_mtbf = link_mtbf
        self.link_mttr = float(link_mttr)
        self.selfheal = selfheal
        self.script = script
        self.checks = tuple(checks)

    def __repr__(self) -> str:
        return f"<Campaign {self.name} {ROWS}x{self.cols} " \
               f"duration={self.duration}>"


class CampaignResult:
    """Counts, invariant verdicts and the reproducibility digest.

    ``flight`` is the campaign's black box: the flight recorder's ring
    of the last simulated moments, attached whenever the harness ran
    with observability.  It never feeds the digest — the digest is a
    pure function of the deterministic counts, while the black box
    exists precisely to carry *extra* evidence out of a failing run.
    """

    def __init__(self, campaign: str, seed: int, arq: bool,
                 counts: Dict[str, Any],
                 invariants: List[Dict[str, Any]],
                 flight: Optional[List[Dict[str, Any]]] = None,
                 recovery: Optional[Dict[str, Any]] = None):
        self.campaign = campaign
        self.seed = seed
        self.arq = arq
        self.counts = counts
        self.invariants = invariants
        self.flight = list(flight) if flight else []
        #: Shard-supervisor accounting for worker-fault campaigns
        #: (restarts, replayed epochs, degraded flag...); ``None`` for
        #: transport campaigns.  Like ``flight`` it never feeds the
        #: digest — the digestible recovery counters are already folded
        #: into ``counts`` by the campaign itself.
        self.recovery = dict(recovery) if recovery else None
        payload = json.dumps({"campaign": campaign, "seed": seed,
                              "arq": arq, "counts": counts},
                             sort_keys=True, default=repr)
        self.digest = hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def ok(self) -> bool:
        return all(inv["ok"] for inv in self.invariants)

    def to_dict(self) -> Dict[str, Any]:
        out = {"campaign": self.campaign, "seed": self.seed,
               "arq": self.arq, "ok": self.ok, "digest": self.digest,
               "counts": self.counts, "invariants": self.invariants,
               "flight_entries": len(self.flight)}
        if self.recovery is not None:
            out["recovery"] = self.recovery
        return out

    def summary(self) -> str:
        lines = [f"campaign {self.campaign} seed={self.seed} "
                 f"arq={'on' if self.arq else 'off'} digest={self.digest}"]
        c = self.counts
        if "sent" in c:
            lines.append(
                f"  sent={c['sent']} delivered={c['delivered']} "
                f"retries={c['retries']} dlq={c['dlq']} "
                f"ratio={c['delivery_ratio']:.4f}")
            if c["dlq_reasons"]:
                reasons = ", ".join(
                    f"{k}={v}" for k, v in sorted(c["dlq_reasons"].items()))
                lines.append(f"  dead letters: {reasons}")
            lines.append(
                f"  duplicates={c['duplicates']} "
                f"double_applied={c['double_applied']} "
                f"breaker_transitions={c['breaker_transitions']} "
                f"heals={c['heals']} false_suspicions={c['false_suspicions']}")
        else:
            # Worker-fault campaign: process-level counts instead of
            # transport accounting.
            lines.append(
                f"  scenario={c.get('scenario')}/{c.get('scale')} "
                f"workers={c.get('workers')} "
                f"run_digest={c.get('run_digest')}")
            lines.append(
                f"  restarts={c.get('worker_restarts', 0)} "
                f"replayed_epochs={c.get('replayed_epochs', 0)} "
                f"stall_kills={c.get('stall_kills', 0)} "
                f"crashes={c.get('crashes', 0)} "
                f"degraded={c.get('degraded', False)}")
        for inv in self.invariants:
            mark = "PASS" if inv["ok"] else "FAIL"
            lines.append(f"  [{mark}] {inv['name']}: {inv['detail']}")
        if not self.ok and self.flight:
            # A failing campaign ships its own black box.
            from ..obs import render_flight
            lines.append("  black box (flight recorder):")
            lines.extend("    " + line for line
                         in render_flight(self.flight,
                                          last=10).splitlines()[1:])
        return "\n".join(lines)


class ShuttleWorkload:
    """Steady stream of reconfiguration shuttles between random ships."""

    STREAM = "chaos.workload"

    def __init__(self, harness: "ChaosHarness"):
        self.harness = harness
        self._role_ix = 0
        self._task = None
        self.sent = 0

    def start(self) -> None:
        if self._task is None:
            self._task = self.harness.sim.every(SEND_INTERVAL, self._tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _tick(self) -> None:
        alive = [s for s in self.harness.wn.ships.values() if s.alive]
        if len(alive) < 2:
            return
        rng = self.harness.sim.rng.stream(self.STREAM)
        src = alive[rng.randrange(len(alive))]
        dst = src
        while dst is src:
            dst = alive[rng.randrange(len(alive))]
        role = ROLES[self._role_ix % len(ROLES)]
        self._role_ix += 1
        shuttle = Shuttle(src.ship_id, dst.ship_id,
                          directives=[
                              Directive(OP_ACQUIRE_ROLE, role_id=role),
                              Directive(OP_SET_NEXT_STEP, role_id=role)],
                          credential=self.harness.wn.credential,
                          interface=src.interface)
        self.harness.transport.send(src.ship_id, shuttle)
        self.sent += 1


class ChaosHarness:
    """Builds the stack for one campaign run and executes its phases."""

    def __init__(self, campaign: Campaign, seed: int = 0,
                 arq: bool = True, observability: bool = True):
        self.campaign = campaign
        self.seed = int(seed)
        self.arq = bool(arq)
        #: Scratch space scripts use to hand victims etc. to checks.
        self.notes: Dict[str, Any] = {}
        # The autopoietic loop is parked far beyond the campaign: the
        # workload is the only shuttle source, so the accounting
        # invariants are exact.
        self.wn = _quiet_wn(seed, ROWS, campaign.cols,
                            loss_rate=campaign.loss_rate)
        self.sim = self.wn.sim
        if observability:
            self.sim.obs.enable()
            # The black box: last N sim moments, dumped with the
            # verdict (and rendered inline when an invariant fails).
            self.sim.obs.flight(capacity=512)
        self.breakers = LinkBreakerRegistry(
            self.sim, failure_threshold=BREAKER_THRESHOLD,
            cooldown=BREAKER_COOLDOWN).install(self.wn.fabric)
        self.transport = ReliableTransport(
            self.sim, self.wn.ships,
            base_timeout=BASE_TIMEOUT, max_timeout=MAX_TIMEOUT,
            max_attempts=MAX_ATTEMPTS if self.arq else 1, jitter=JITTER)
        self.workload = ShuttleWorkload(self)
        self.injector = FailureInjector(
            self.sim, self.wn.topology,
            link_mtbf=campaign.link_mtbf, link_mttr=campaign.link_mttr)
        self.archive: Optional[GenomeArchive] = None
        self.detector: Optional[HeartbeatDetector] = None
        self.healer: Optional[SelfHealer] = None
        if campaign.selfheal:
            self.archive = GenomeArchive(
                self.sim, self.wn.ships, interval=ARCHIVE_INTERVAL)
            self.detector = HeartbeatDetector(
                self.sim, self.wn.ships, interval=HEARTBEAT_INTERVAL)
            self.healer = SelfHealer(self.sim, self.wn.ships,
                                     self.archive, self.detector,
                                     self.wn.catalog)

    # -- phases ------------------------------------------------------------
    def run(self) -> CampaignResult:
        c = self.campaign
        if self.archive is not None:
            self.archive.start()
        if self.detector is not None:
            self.detector.start()
        # Warmup: heartbeats/snapshots establish steady state.
        self.sim.run(until=WARMUP)
        if c.script is not None:
            c.script(self)
        self.injector.start()
        self.workload.start()
        self.sim.run(until=WARMUP + c.duration)
        self._drain()
        return self._judge()

    def _drain(self) -> None:
        """Stop injecting, repair the world, let deliveries resolve."""
        self.workload.stop()
        self.injector.stop()     # quiescent: pending repairs cancelled...
        self._repair_all()       # ...so we repair deterministically here.
        self.sim.run(until=self.sim.now + SETTLE)
        self.transport.finalize()

    def _repair_all(self) -> None:
        topology = self.wn.topology
        for node in topology.nodes:
            ship = self.wn.ships.get(node)
            if not topology.node_up(node) and ship is not None \
                    and ship.alive:
                # Crashed (injector) but not dead (SRP.2): repairable.
                topology.set_node_state(node, True)
        for link in topology.links:
            if not link.up:
                topology.set_link_state(link.a, link.b, True)

    # -- verdicts ----------------------------------------------------------
    def _counts(self) -> Dict[str, Any]:
        t = self.transport
        ships = list(self.wn.ships.values())
        return {
            "sent": t.sent,
            "delivered": t.delivered,
            "retries": t.retries,
            "late_acks": t.late_acks,
            "dlq": len(t.dlq),
            "dlq_reasons": t.dlq.by_reason(),
            "duplicates": sum(s.duplicate_shuttles for s in ships),
            "double_applied": sum(s.double_applied for s in ships),
            "acks_sent": sum(s.acks_sent for s in ships),
            "link_failures": self.injector.link_failures,
            "node_failures": self.injector.node_failures,
            "breaker_transitions": len(self.breakers.transitions),
            "false_suspicions": (self.detector.false_suspicions
                                 if self.detector else 0),
            "heals": len(self.healer.events) if self.healer else 0,
            "delivery_ratio": round(t.delivery_ratio, 6),
            "mean_latency": round(t.mean_latency, 6),
        }

    def _judge(self) -> CampaignResult:
        counts = self._counts()
        invariants: List[Dict[str, Any]] = []

        def add(name: str, ok: bool, detail: str) -> None:
            invariants.append({"name": name, "ok": bool(ok),
                               "detail": detail})

        gap = counts["sent"] - counts["delivered"] - counts["dlq"]
        add("no-silent-loss", gap == 0,
            f"sent={counts['sent']} delivered={counts['delivered']} "
            f"dlq={counts['dlq']} gap={gap}")
        add("no-double-apply", counts["double_applied"] == 0,
            f"double_applied={counts['double_applied']} "
            f"duplicates_suppressed={counts['duplicates']}")
        for check in self.campaign.checks:
            name, ok, detail = check(self, counts)
            add(name, ok, detail)
        recorder = self.sim.obs.flight_recorder
        flight = (list(recorder.to_records()) if recorder is not None
                  else None)
        return CampaignResult(self.campaign.name, self.seed, self.arq,
                              counts, invariants, flight=flight)


# -- process-level fault campaigns (the execution substrate itself) --------

class WorkerFaultCampaign:
    """Chaos against the *execution substrate*: SIGKILL or SIGSTOP live
    shard workers mid-epoch and assert digest-identical recovery.

    Where :class:`Campaign` attacks the simulated network (links, nodes,
    loss), this attacks the host processes running it — the supervisor
    (:mod:`repro.shard.supervisor`) must detect the death or stall,
    respawn the shard, replay its journaled handoff history and finish
    with a run digest byte-identical to the fault-free single-shard
    oracle: one restart per fault.  A campaign with more faults than its
    restart budget exhausts it on purpose and instead asserts the
    *degradation* contract: deterministic inline fallback, flagged,
    never a crash.
    """

    #: The run every worker-fault campaign attacks.
    SCENARIO = "shard-scaling"
    SCALE = "tiny"
    WORKERS = 2

    def __init__(self, name: str, description: str, *,
                 faults: Tuple[Tuple[str, int, int], ...] = (),
                 max_restarts: int = 3,
                 barrier_deadline_s: float = 30.0):
        self.name = name
        self.description = description
        #: ``(kind, barrier, shard)`` triples — see
        #: :class:`repro.shard.recovery.Fault`.
        self.faults = tuple(faults)
        self.max_restarts = int(max_restarts)
        self.barrier_deadline_s = float(barrier_deadline_s)

    def run(self, seed: int = 0, arq: bool = True,
            observability: bool = True) -> CampaignResult:
        from ..perf.digest import run_digest
        from ..shard import (Fault, FaultPlan, RecoveryConfig,
                             run_sharded, run_single)
        scenario = SCENARIOS[self.SCENARIO]
        single_counters, _ = run_single(scenario(seed, self.SCALE))
        digest_single = run_digest(self.SCENARIO, seed, self.SCALE,
                                   single_counters)
        config = RecoveryConfig(
            barrier_deadline_s=self.barrier_deadline_s,
            max_restarts=self.max_restarts,
            # Fast ladder: chaos campaigns restart on purpose and should
            # not serve real backoff pauses in CI.
            backoff_base_s=0.01, backoff_max_s=0.05,
            faults=FaultPlan([Fault(kind, barrier, shard)
                              for kind, barrier, shard in self.faults]))
        counters, _, stats = run_sharded(
            scenario(seed, self.SCALE), self.WORKERS, backend="mp",
            obs=observability, recovery=config)
        digest_sharded = run_digest(self.SCENARIO, seed, self.SCALE,
                                    counters)
        recovery = stats.get("recovery", {})
        counts = {
            "scenario": self.SCENARIO,
            "scale": self.SCALE,
            "workers": self.WORKERS,
            "faults": [list(f) for f in self.faults],
            "run_digest": digest_sharded,
            "run_digest_single": digest_single,
            "worker_restarts": recovery.get("worker_restarts", 0),
            "replayed_epochs": recovery.get("replayed_epochs", 0),
            "stall_kills": recovery.get("stall_kills", 0),
            "crashes": recovery.get("crashes", 0),
            "partial_digest_mismatches": recovery.get(
                "partial_digest_mismatches", 0),
            "degraded": bool(stats.get("degraded", False)),
        }
        invariants: List[Dict[str, Any]] = []

        def add(name: str, ok: bool, detail: str) -> None:
            invariants.append({"name": name, "ok": bool(ok),
                               "detail": detail})

        add("digest-identical", digest_sharded == digest_single,
            f"sharded={digest_sharded} single={digest_single}")
        add("no-replay-divergence",
            counts["partial_digest_mismatches"] == 0,
            f"partial_digest_mismatches="
            f"{counts['partial_digest_mismatches']}")
        if len(self.faults) > self.max_restarts:
            add("degraded-not-crashed",
                counts["degraded"] and stats.get("backend") == "inline",
                f"degraded={counts['degraded']} "
                f"backend={stats.get('backend')}")
        else:
            add("workers-restarted",
                counts["worker_restarts"] >= len(self.faults),
                f"restarts={counts['worker_restarts']} >= "
                f"{len(self.faults)}")
            add("not-degraded", not counts["degraded"],
                f"degraded={counts['degraded']}")
        flight = None
        merged = stats.get("obs")
        if merged is not None:
            flight = list(merged.flight_records)
        return CampaignResult(self.name, seed, arq, counts, invariants,
                              flight=flight, recovery=recovery)

    def __repr__(self) -> str:
        return (f"<WorkerFaultCampaign {self.name} "
                f"{self.SCENARIO}/{self.SCALE} k={self.WORKERS} "
                f"faults={self.faults!r}>")


# -- campaign scripts and checks -------------------------------------------

def _min_ratio(threshold: float) -> Check:
    def check(harness: ChaosHarness,
              counts: Dict[str, Any]) -> Tuple[str, bool, str]:
        ratio = counts["delivery_ratio"]
        if not harness.arq:
            # Baseline runs exist to show how much worse fire-and-forget
            # is; they report the ratio but never fail on it.
            return ("delivery-ratio", True,
                    f"{ratio:.4f} (arq off, informational)")
        return ("delivery-ratio", ratio >= threshold,
                f"{ratio:.4f} >= {threshold}")
    return check


def _script_crash_snapshot(harness: ChaosHarness) -> None:
    """Kill the centre ship exactly when a genome snapshot is due."""
    victim = (1, 1)
    harness.notes["victim"] = victim
    at = harness.archive.interval * 3
    harness.sim.call_at(at, harness.wn.ships[victim].die,
                        name="chaos-crash")


def _script_partition(harness: ChaosHarness) -> None:
    """Cut column 0 off the grid; repair 30 s later.

    Every cross-cut neighbour goes silent without dying — the failure
    detector must suspect and then retract (false suspicions), and the
    healer must not transcribe anybody's genome.
    """
    for r in range(ROWS):
        harness.injector.fail_link_now((r, 0), (r, 1), repair_after=30.0)


def _script_crash_during_heal(harness: ChaosHarness) -> None:
    """Kill the first victim's surrogate shortly after its heal —
    after the next snapshot has archived the transplanted roles — so
    healing has to cascade onto a third ship."""
    victim = (0, 0)
    harness.notes["victim"] = victim
    harness.sim.call_at(harness.archive.interval * 2,
                        harness.wn.ships[victim].die, name="chaos-crash")
    state = {"armed": True}

    def on_heal(rec) -> None:
        if not state["armed"] or rec.fields.get("dead") != victim:
            return
        state["armed"] = False
        surrogate = rec.fields["surrogate"]
        harness.notes["surrogate"] = surrogate
        harness.sim.call_in(ARCHIVE_INTERVAL + 2.0,
                            harness.wn.ships[surrogate].die,
                            name="chaos-crash-surrogate")

    harness.sim.trace.subscribe("selfheal.heal", on_heal)


def _check_heals(minimum: int) -> Check:
    def check(harness: ChaosHarness,
              counts: Dict[str, Any]) -> Tuple[str, bool, str]:
        return ("healed", counts["heals"] >= minimum,
                f"heals={counts['heals']} >= {minimum}")
    return check


def _check_no_heals(harness: ChaosHarness,
                    counts: Dict[str, Any]) -> Tuple[str, bool, str]:
    return ("no-spurious-heal", counts["heals"] == 0,
            f"heals={counts['heals']} == 0")


def _check_false_suspicions(harness: ChaosHarness,
                            counts: Dict[str, Any]) -> Tuple[str, bool, str]:
    return ("false-suspicion-detected", counts["false_suspicions"] > 0,
            f"false_suspicions={counts['false_suspicions']} > 0")


def _check_restoration(key: str) -> Check:
    def check(harness: ChaosHarness,
              counts: Dict[str, Any]) -> Tuple[str, bool, str]:
        node = harness.notes.get(key)
        if node is None:
            return (f"restoration-{key}", False, f"no {key} recorded")
        ratio = harness.healer.restoration_ratio(node)
        return (f"restoration-{key}", ratio >= 0.99,
                f"{key}={node} ratio={ratio:.2f}")
    return check


CAMPAIGNS: Dict[str, Campaign] = {c.name: c for c in [
    Campaign(
        "smoke",
        "Short link-flap run on a 3x3 grid; CI-sized ARQ sanity check.",
        duration=60.0, loss_rate=0.005, link_mtbf=20.0, link_mttr=5.0,
        checks=(_min_ratio(0.95),)),
    Campaign(
        "link-storm",
        "Sustained random link flaps (MTBF 60 s, MTTR 10 s) plus 1% "
        "packet loss; ARQ must hold the delivery ratio above 0.99.",
        cols=4, duration=300.0, loss_rate=0.01, link_mtbf=60.0,
        link_mttr=10.0,
        checks=(_min_ratio(0.99),)),
    Campaign(
        "node-crash-snapshot",
        "Centre ship dies at the instant a genome snapshot fires; the "
        "healer must still reconstruct every archived role.",
        duration=90.0, selfheal=True,
        script=_script_crash_snapshot,
        checks=(_check_heals(1), _check_restoration("victim"))),
    Campaign(
        "partition-suspect",
        "Column cut for 30 s: silent-but-alive peers must produce false "
        "suspicions, retractions, and zero heals.",
        duration=90.0, selfheal=True,
        script=_script_partition,
        checks=(_check_false_suspicions, _check_no_heals,
                _min_ratio(0.95))),
    Campaign(
        "crash-during-heal",
        "The surrogate chosen by the first heal is killed right after "
        "absorbing the victim's roles; healing must cascade.",
        duration=150.0, selfheal=True,
        script=_script_crash_during_heal,
        checks=(_check_heals(2), _check_restoration("victim"),
                _check_restoration("surrogate"))),
]}

#: Process-level campaigns against the shard execution substrate.
CAMPAIGNS.update({c.name: c for c in [
    WorkerFaultCampaign(
        "worker-kill",
        "SIGKILL one shard worker mid-run; the supervisor must respawn "
        "it, replay the epoch journal and finish digest-identical to "
        "the fault-free single-shard run.",
        faults=(("kill", 2, 1),)),
    WorkerFaultCampaign(
        "worker-stall",
        "SIGSTOP one shard worker so it misses the per-barrier reply "
        "deadline; the supervisor must kill, respawn and replay it.",
        faults=(("stall", 1, 0),), barrier_deadline_s=0.5),
    WorkerFaultCampaign(
        "worker-kill-during-handoff",
        "SIGKILL a worker after its barrier reply — mid-handoff, with "
        "its outbox already routed — so the death is detected at the "
        "next epoch send and the replacement replays into a half-"
        "exchanged barrier.",
        faults=(("kill-after-reply", 2, 1),)),
    WorkerFaultCampaign(
        "worker-budget-exhausted",
        "Kill a worker with a zero restart budget: the run must "
        "degrade deterministically to the inline oracle (flagged, "
        "digest-identical) instead of crashing.",
        faults=(("kill", 2, 0),), max_restarts=0),
]})


def run_campaign(name: str, seed: int = 0, arq: bool = True,
                 observability: bool = True) -> CampaignResult:
    """Build, run and judge one named campaign."""
    campaign = CAMPAIGNS.get(name)
    if campaign is None:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r} (known: {known})")
    if isinstance(campaign, WorkerFaultCampaign):
        return campaign.run(seed=seed, arq=arq,
                            observability=observability)
    harness = ChaosHarness(campaign, seed=seed, arq=arq,
                           observability=observability)
    return harness.run()
