"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 30 --trace 0

The run repeats the workload's fixed batch of simulated activity until
``--seconds`` have passed (at least three times), checks every
iteration's outcome digest, and prints the end-to-end metrics of
BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``)
as the last line of standard output.  Digests and, for a traced run,
the layer shares go to standard error.  The exit code is 0 only when
every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 3
#: Enough samples that the p99 has ten or more beyond it.
MIN_LATENCY_SAMPLES = 1000
#: CPU seconds :func:`calibration_s` takes on a quiet reference host.
#: Host times are reported in reference seconds: each iteration's times
#: are scaled by this over the calibration time measured around that
#: iteration, which cancels most of the drift in host speed between time
#: windows that medians alone cannot (see README.md).
CALIBRATION_REFERENCE_S = 0.04


class _Slot:
    __slots__ = ("count", "links")

    def __init__(self):
        self.count = 0
        self.links = {}


def calibration_s() -> float:
    """CPU seconds of a fixed stdlib-only event loop (a heap agenda,
    slotted objects and dict updates), the yardstick of host speed.  It
    shares no code with the program, so no change to the program moves
    it."""
    rng = random.Random(7)
    slots = [_Slot() for _ in range(64)]
    agenda = [(rng.random(), i, i % 64) for i in range(512)]
    heapq.heapify(agenda)
    start = time.process_time()
    for seq in range(512, 40512):
        when, _, index = heapq.heappop(agenda)
        slot = slots[index]
        slot.count += 1
        slot.links[seq % 97] = slot.links.get(seq % 97, 0.0) + when
        heapq.heappush(agenda, (when + rng.random(), seq, (index * 7 + 3) % 64))
    return time.process_time() - start


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


class Sample:
    """The light record kept of one iteration."""

    def __init__(self, setup_s, cpu_s, wall_s, outcome, keep_latencies,
                 calibration):
        self.calibration_s = calibration
        self.setup_s = setup_s
        self.cpu_s = cpu_s
        self.wall_s = wall_s
        self.ops = outcome.ops
        self.attempted = outcome.attempted
        self.failed = outcome.failed
        self.digest = outcome.digest()
        self.latencies_ms = outcome.latencies_ms if keep_latencies else None
        self.shard_stats = outcome.shard_stats
        self.counters = probe_counters(outcome)


def probe_counters(outcome) -> Dict[str, float]:
    """Per-layer counters read from the program's public state."""
    ships = [s for wn in outcome.wns for s in wn.ships.values()]
    agendas = [sim.agenda_stats() for sim in outcome.sims]
    transports = outcome.transports
    engines = [wn.engine for wn in outcome.wns]
    counters = {
        "sim.kernel.events": sum(sim.events_executed for sim in outcome.sims),
        "sim.kernel.agenda_inserts": sum(a["inserts"] for a in agendas),
        "sim.kernel.agenda_purges": sum(a["purges"] for a in agendas),
        "sim.kernel.agenda_peak_depth": max(
            (a["peak_depth"] for a in agendas), default=0),
        "sim.kernel.max_batch": max((a["max_batch"] for a in agendas),
                                    default=0),
        "phys.fabric.drops": sum(wn.fabric.packets_dropped
                                 for wn in outcome.wns),
        "core.ship.forwards": sum(s.packets_forwarded for s in ships),
        "core.ship.dock.rejected": sum(s.shuttles_rejected for s in ships),
        "core.feedback.observations": sum(wn.feedback.observations
                                          for wn in outcome.wns),
        "core.metamorphosis.pulses": sum(e.pulses for e in engines),
        "core.metamorphosis.migrations": sum(
            1 for e in engines for event in e.events
            if event.kind in ("migrate", "replicate")),
        "resilience.arq.sends": sum(t.sent for t in transports),
        "resilience.arq.retries": sum(t.retries for t in transports),
        "resilience.arq.dlq": sum(len(t.dlq) for t in transports),
        "resilience.arq.delivered": sum(t.delivered for t in transports),
        "resilience.arq.duplicates": sum(s.duplicate_shuttles for s in ships),
    }
    if ships:
        # One verifier serves the whole process; these are running totals.
        counters["admission.vets_total"] = ships[0].admission.vets
        counters["admission.hits_total"] = \
            ships[0].admission.verdict_cache_hits
    return counters


def measure(cls, seed: int, scale: str = "full", keep_latencies=False,
            **kwargs) -> Sample:
    """One iteration of workload ``cls`` from a clean heap, between two
    calibrations of host speed."""
    gc.collect()
    before = calibration_s()
    setup_s, cpu_s, wall_s, outcome = cls(seed, scale, **kwargs).timed()
    calibration = (before + calibration_s()) / 2
    return Sample(setup_s, cpu_s, wall_s, outcome, keep_latencies,
                  calibration)


def repeat(cls, seed, scale, until, minimum, **kwargs) -> List[Sample]:
    samples = [measure(cls, seed, scale, keep_latencies=True, **kwargs)]
    while len(samples) < minimum or time.perf_counter() < until:
        samples.append(measure(cls, seed, scale, **kwargs))
    return samples


def recorded_digest(name: str, seed: int):
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def digests_ok(name: str, seed: int, samples: List[Sample]) -> bool:
    digests = {s.digest for s in samples}
    recorded = recorded_digest(name, seed)
    print(f"digest {name} seed={seed}: {sorted(digests)} "
          f"recorded={recorded}", file=sys.stderr)
    return len(digests) == 1 and recorded in (None, samples[0].digest)


def end_to_end(samples: List[Sample], scale: str):
    latencies = samples[0].latencies_ms

    def reference_s(host_s):
        """Median over iterations of a host time in reference seconds."""
        return statistics.median(host_s(s) * CALIBRATION_REFERENCE_S
                                 / s.calibration_s for s in samples)

    metrics = {
        "ops_per_cpu_s": statistics.median(
            s.ops * s.calibration_s / (s.cpu_s * CALIBRATION_REFERENCE_S)
            for s in samples),
        "wall_s": reference_s(lambda s: s.wall_s),
        "setup_s": reference_s(lambda s: s.setup_s),
        "peak_rss_mb": peak_rss_mib(),
        "completed_share": (sum(s.ops for s in samples)
                            / sum(s.attempted for s in samples)),
        "sim_latency_p50_ms": percentile(latencies, 0.50),
        "sim_latency_p99_ms": percentile(latencies, 0.99),
    }
    enough = scale != "full" or len(latencies) >= MIN_LATENCY_SAMPLES
    return metrics, enough


def per_layer(normal: Sample, untraced: List[Sample], traced: List[Sample],
              tracer) -> Dict[str, float]:
    n = len(traced)

    def mean(key):
        return sum(s.counters.get(key, 0) for s in traced) / n

    def calls(key):
        return tracer.counts.get(key, 0) / n

    def self_s(layer):
        return tracer.self_s.get(layer, 0.0) / n

    def per_call(layer, key, scale):
        return self_s(layer) / calls(key) * scale if calls(key) else 0.0

    def durations_us(layer, q):
        values = tracer.durations.get(layer)
        return percentile(values, q) * 1e6 if values else 0.0

    events = mean("sim.kernel.events")
    vets = (traced[-1].counters.get("admission.vets_total", 0)
            - untraced[-1].counters.get("admission.vets_total", 0))
    hits = (traced[-1].counters.get("admission.hits_total", 0)
            - untraced[-1].counters.get("admission.hits_total", 0))
    arq_attempts = mean("resilience.arq.sends") + mean("resilience.arq.retries")
    stats = normal.shard_stats or {}
    metrics = {
        "sim.kernel.self_s": self_s("sim.kernel"),
        "sim.kernel.events": events,
        "sim.kernel.ns_per_event": (self_s("sim.kernel") / events * 1e9
                                    if events else 0.0),
        "sim.kernel.agenda_inserts": mean("sim.kernel.agenda_inserts"),
        "sim.kernel.agenda_purges": mean("sim.kernel.agenda_purges"),
        "sim.kernel.agenda_peak_depth": mean("sim.kernel.agenda_peak_depth"),
        "sim.kernel.max_batch": mean("sim.kernel.max_batch"),
        "phys.fabric.self_s": self_s("phys.fabric"),
        "phys.fabric.sends": calls("phys.fabric.sends"),
        "phys.fabric.drops": mean("phys.fabric.drops"),
        "phys.fabric.us_per_send": per_call("phys.fabric",
                                            "phys.fabric.sends", 1e6),
        "routing.self_s": self_s("routing"),
        "routing.lookups": calls("routing.lookups"),
        "routing.control_packets": calls("routing.control_packets"),
        "routing.us_per_lookup": per_call("routing", "routing.lookups", 1e6),
        "core.ship.self_s": self_s("core.ship"),
        "core.ship.receives": calls("core.ship.receives"),
        "core.ship.forwards": mean("core.ship.forwards"),
        "core.ship.dock.self_s": self_s("core.ship.dock"),
        "core.ship.dock.calls": calls("core.ship.dock.calls"),
        "core.ship.dock.rejected": mean("core.ship.dock.rejected"),
        "core.ship.dock.us_p50": durations_us("core.ship.dock", 0.50),
        "core.ship.dock.us_p99": durations_us("core.ship.dock", 0.99),
        "staticcheck.admission.self_s": self_s("staticcheck.admission"),
        "staticcheck.admission.vets": calls("staticcheck.admission.vets"),
        "staticcheck.admission.memo_hit_ratio": hits / vets if vets else 0.0,
        "staticcheck.admission.us_p50": durations_us("staticcheck.admission",
                                                     0.50),
        "staticcheck.admission.us_p99": durations_us("staticcheck.admission",
                                                     0.99),
        "core.shuttle.self_s": self_s("core.shuttle"),
        "core.shuttle.clones": calls("core.shuttle.clones"),
        "core.knowledge.self_s": self_s("core.knowledge"),
        "core.knowledge.records": calls("core.knowledge.records"),
        "core.knowledge.absorbs": calls("core.knowledge.absorbs"),
        "core.knowledge.sweeps": calls("core.knowledge.sweeps"),
        "core.knowledge.digests": calls("core.knowledge.digests"),
        "core.feedback.self_s": self_s("core.feedback"),
        "core.feedback.observations": mean("core.feedback.observations"),
        "core.metamorphosis.self_s": self_s("core.metamorphosis"),
        "core.metamorphosis.pulses": mean("core.metamorphosis.pulses"),
        "core.metamorphosis.migrations": mean("core.metamorphosis.migrations"),
        "resilience.arq.self_s": self_s("resilience.arq"),
        "resilience.arq.sends": mean("resilience.arq.sends"),
        "resilience.arq.retries": mean("resilience.arq.retries"),
        "resilience.arq.dlq": mean("resilience.arq.dlq"),
        "resilience.arq.duplicates": mean("resilience.arq.duplicates"),
        "resilience.arq.useful_ratio": (mean("resilience.arq.delivered")
                                        / arq_attempts
                                        if arq_attempts else 0.0),
        "shard.executor.barriers": stats.get("barriers", 0),
        "shard.executor.handoffs": stats.get("handoffs", 0),
        "shard.executor.barrier_stall_s": stats.get("barrier_stall_s", 0.0),
        "shard.executor.max_worker_cpu_s": stats.get("max_worker_cpu_s", 0.0),
        "shard.executor.imbalance": stats.get("imbalance", 0.0),
        "shard.executor.edge_cut": stats.get("edge_cut", 0),
        "trace.overhead_share": (
            statistics.median(s.cpu_s / s.calibration_s for s in traced)
            / statistics.median(s.cpu_s / s.calibration_s for s in untraced)
            - 1.0),
    }
    wall = statistics.mean(s.wall_s for s in traced)
    shares = sorted(((t / n / wall, layer) for layer, t in
                     tracer.self_s.items()), reverse=True)
    print("layer self-time shares of traced wall time: " + ", ".join(
        f"{layer} {share:.1%}" for share, layer in shares), file=sys.stderr)
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full") -> Dict[str, Any]:
    """One benchmark run; returns the result object main() prints."""
    from tracing import SpanTracer, leftover_wrappers
    from workloads import GENERATORS, WORKLOADS

    cls = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + seconds
    if not trace:
        samples = repeat(cls, seed, scale, deadline, MIN_ITERATIONS)
        metrics, correct = end_to_end(samples, scale)
        correct = digests_ok(name, seed, samples) and correct
    else:
        # The normal configuration once (shard stats, reference digest),
        # then untraced and traced attribution iterations, half each.
        normal = measure(cls, seed, scale)
        half = time.perf_counter() + (deadline - time.perf_counter()) / 2
        untraced = repeat(cls, seed, scale, half, 2, **cls.ATTRIBUTION)
        tracer = SpanTracer()
        tracer.install(GENERATORS)
        try:
            traced = repeat(cls, seed, scale, deadline, 2, **cls.ATTRIBUTION)
        finally:
            tracer.remove()
        leftovers = leftover_wrappers(GENERATORS)
        if leftovers:
            print(f"wrappers left installed: {leftovers}", file=sys.stderr)
        samples = [normal] + untraced + traced
        metrics = per_layer(normal, untraced, traced, tracer)
        correct = digests_ok(name, seed, samples) and not leftovers
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {
        "correct": correct,
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no repro package under {source}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
