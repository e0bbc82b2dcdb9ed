"""The deterministic macro-benchmark harness (``repro bench``).

One :class:`BenchResult` per scenario run.  The *counters* block (and
the digest derived from it) is a pure function of ``(scenario, seed,
scale)`` — the only nondeterministic fields are the wall-clock
measurements, which live alongside but never inside the digest.  That
split is what makes the regression gate work: digests must match a
committed baseline **exactly** (semantic drift is a hard failure, no
threshold), while throughput is compared through a median-normalized
ratio that cancels machine-speed differences between the baseline host
and the current one.

The committed anchor ``BENCH_baseline.json`` was recorded by the
reference paths that every optimization replaced (they survive as test
oracles), so each gate run doubles as the optimizations' regression
proof: same digests, higher throughput.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..shard.executor import run_sharded
from .digest import run_digest
from .scenarios import SCENARIOS

#: Schema version of the BENCH_*.json files.  Version 2 added
#: ``wall_times_s`` (per-repeat wall clocks), ``workers``/``backend``
#: and optional ``shard_stats``; version 3 added an ``agenda_stats``
#: block, since dropped: its process-wide tally saw only the
#: coordinator process, so it read zero for every mp-sharded run
#: (``Simulator.agenda_stats()`` and the ``repro_kernel_agenda_*``
#: gauges remain).  The ``switches`` key (the optimization switch
#: state) was dropped with the switches themselves.  :func:`compare`
#: reads only the fields shared by every version, so older files still
#: gate fine.
BENCH_VERSION = 3


class BenchResult:
    """One scenario execution: deterministic counters + wall measurements."""

    __slots__ = ("scenario", "seed", "scale", "repeats",
                 "wall_time_s", "wall_times_s", "events_per_sec",
                 "shuttles_per_sec", "events_executed",
                 "shuttles_processed", "peak_agenda_depth", "digest",
                 "counters", "workers", "backend", "shard_stats", "obs")

    def __init__(self, scenario: str, seed: int, scale: str, repeats: int,
                 wall_time_s: float, counters: Dict[str, Any],
                 work: Dict[str, int],
                 wall_times_s: Optional[Sequence[float]] = None,
                 workers: int = 1, backend: str = "inline",
                 shard_stats: Optional[Dict[str, Any]] = None):
        self.scenario = scenario
        self.seed = int(seed)
        self.scale = scale
        self.repeats = int(repeats)
        self.wall_time_s = wall_time_s
        self.wall_times_s = (list(wall_times_s) if wall_times_s is not None
                             else [wall_time_s])
        self.events_executed = int(work.get("events", 0))
        self.shuttles_processed = int(work.get("shuttles", 0))
        self.events_per_sec = (self.events_executed / wall_time_s
                               if wall_time_s > 0 else 0.0)
        self.shuttles_per_sec = (self.shuttles_processed / wall_time_s
                                 if wall_time_s > 0 else 0.0)
        self.peak_agenda_depth = int(counters.get("peak_agenda_depth", 0))
        self.counters = counters
        self.workers = int(workers)
        self.backend = backend
        self.shard_stats = shard_stats
        #: Merged telemetry (``MergedObs``) when the run collected it.
        #: Lives on the object only — BENCH JSON stays pure counters.
        self.obs = None
        # The digest is a pure function of the deterministic counters —
        # never of workers/backend, which is exactly what lets a
        # --workers K run gate against a single-shard baseline.
        self.digest = run_digest(scenario, seed, scale, counters)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "version": BENCH_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "scale": self.scale,
            "repeats": self.repeats,
            "wall_time_s": round(self.wall_time_s, 6),
            "wall_times_s": [round(t, 6) for t in self.wall_times_s],
            "events_per_sec": round(self.events_per_sec, 2),
            "shuttles_per_sec": round(self.shuttles_per_sec, 2),
            "events_executed": self.events_executed,
            "shuttles_processed": self.shuttles_processed,
            "peak_agenda_depth": self.peak_agenda_depth,
            "workers": self.workers,
            "backend": self.backend,
            "digest": self.digest,
            "counters": self.counters,
        }
        if self.shard_stats is not None:
            payload["shard_stats"] = self.shard_stats
        return payload

    def __repr__(self) -> str:
        return (f"<BenchResult {self.scenario} seed={self.seed} "
                f"scale={self.scale} {self.events_per_sec:.0f} ev/s "
                f"digest={self.digest}>")


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def run_scenario(name: str, seed: int = 42, scale: str = "short",
                 repeats: int = 1, workers: int = 1,
                 backend: str = "inline", obs: bool = False
                 ) -> BenchResult:
    """Run one scenario; wall time is the best of ``repeats`` passes.

    Every scenario runs through :func:`~repro.shard.executor.
    run_sharded`.  ``workers > 1`` partitions a ``shardable`` scenario
    over shards (``backend`` is ``inline`` or ``mp``); any other
    scenario runs as one replica, whose counters are worker-invariant
    by construction.  The digest never depends on ``workers``.

    ``obs=True`` collects the telemetry plane of any scenario: the
    merged :class:`~repro.obs.snapshot.MergedObs` lands on the result's
    ``obs`` attribute (never in BENCH JSON); a single replica gives a
    K=1 merged view.  Telemetry is digest-neutral: counters stay
    byte-identical to an obs-off run.

    The ``mp`` backend always supervises its workers; the supervisor's
    accounting lands in ``shard_stats["recovery"]``.

    Every pass must reproduce the same counters — a mismatch means the
    scenario leaks process-global state and is reported loudly rather
    than averaged away.
    """
    try:
        cls = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    k = workers if cls.shardable else 1
    wall_times: List[float] = []
    counters = work = None
    shard_stats: Dict[str, Any] = {}
    merged_obs = None
    for _ in range(repeats):
        t0 = time.perf_counter()  # via: ignore[VIA003] host wall time
        pass_counters, pass_work, shard_stats = run_sharded(
            cls(seed, scale), k, backend=backend, obs=obs)
        elapsed = time.perf_counter() - t0  # via: ignore[VIA003] host wall time
        # The MergedObs object must never leak into BENCH JSON — pop it
        # off the (serialized) stats dict.
        merged_obs = shard_stats.pop("obs", None) or merged_obs
        if counters is not None and pass_counters != counters:
            raise RuntimeError(
                f"scenario {name!r} is not repeatable at seed={seed} "
                f"scale={scale!r}: counters drifted between passes")
        counters, work = pass_counters, pass_work
        wall_times.append(elapsed)
    result = BenchResult(name, seed, scale, repeats,
                         min(wall_times), counters, work,
                         wall_times_s=wall_times, workers=k,
                         backend=backend,
                         shard_stats=shard_stats if k > 1 else None)
    result.obs = merged_obs
    return result


def run_sanitized(name: str, seed: int = 42, scale: str = "short",
                  against: str = "self",
                  inject: Optional[Any] = None) -> Any:
    """Sanitize mode: run the scenario twice under draw tapes and diff.

    Run A is the plain single-shard scenario.  Run B depends on
    ``against``:

    * ``"self"`` — the identical run again (a clean environment must
      produce byte-identical tapes);
    * ``"obs"``  — telemetry collection on (observability must never
      draw).

    ``inject`` (an :class:`repro.sanitize.Injection`) perturbs one draw
    of run B, planting a divergence the diff must localize.  Returns a
    :class:`repro.sanitize.SanitizeReport`.  Bad arguments raise
    ``KeyError`` (an unknown scenario) or ``ValueError`` before run A
    starts.
    """
    from ..sanitize import SanitizeReport, diff_tapes, taped
    if against not in ("self", "obs"):
        raise ValueError(f"unknown sanitize comparison {against!r} "
                         f"(known: self, obs)")
    with taped() as tape_a:
        result_a = run_scenario(name, seed=seed, scale=scale)
    with taped(inject=inject) as tape_b:
        result_b = run_scenario(name, seed=seed, scale=scale,
                                obs=against == "obs")
    return SanitizeReport(name, seed, scale, against,
                          result_a.digest, result_b.digest,
                          tape_a, tape_b, diff_tapes(tape_a, tape_b))


def run_all(seed: int = 42, scale: str = "short", repeats: int = 1,
            names: Optional[Sequence[str]] = None, workers: int = 1,
            backend: str = "inline") -> List[BenchResult]:
    """Run the suite (or the ``names`` subset) in catalog order."""
    selected = list(names) if names else list(SCENARIOS)
    return [run_scenario(name, seed=seed, scale=scale, repeats=repeats,
                         workers=workers, backend=backend)
            for name in selected]


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def _slug(scenario: str) -> str:
    return scenario.replace("-", "_")


def write_results(results: Iterable[BenchResult], out_dir: str,
                  combined: Optional[str] = None) -> List[str]:
    """Write one ``BENCH_<scenario>.json`` per result into ``out_dir``
    (created if missing); optionally also a combined file holding the
    whole list (the baseline format)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    payloads = [r.to_dict() for r in results]
    for payload in payloads:
        path = os.path.join(out_dir,
                            f"BENCH_{_slug(payload['scenario'])}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if combined is not None:
        with open(combined, "w", encoding="utf-8") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(combined)
    return written


def load_results(path: str) -> List[Dict[str, Any]]:
    """Load a BENCH file: either one result object or a list of them."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a BENCH object or list")
    return payload


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare(current: Sequence[Dict[str, Any]],
            baseline: Sequence[Dict[str, Any]],
            fail_over_pct: float = 25.0) -> Tuple[bool, List[str]]:
    """Gate ``current`` results against a committed ``baseline``.

    Two checks, in order of severity:

    1. **Digest equality** (hard).  For every ``(scenario, seed,
       scale)`` present in both sets the run digests must be byte
       identical — optimizations may only change *when*, never *what*.
    2. **Throughput** (thresholded).  Per-scenario ratios
       ``current/baseline`` of events/sec are first divided by their
       median, cancelling uniform machine-speed differences between the
       baseline host and this one; a scenario whose *normalized* ratio
       falls below ``1 - fail_over_pct/100`` failed the gate.  With
       fewer than three overlapping scenarios the raw ratio is used
       (a median of so few points would cancel real regressions).

    Returns ``(ok, report_lines)``.
    """
    def key(entry: Dict[str, Any]) -> Tuple[Any, ...]:
        return (entry["scenario"], entry["seed"], entry["scale"])

    base_by_key = {key(entry): entry for entry in baseline}
    lines: List[str] = []
    ok = True
    overlap = [(entry, base_by_key[key(entry)]) for entry in current
               if key(entry) in base_by_key]
    if not overlap:
        return False, ["no overlapping (scenario, seed, scale) entries "
                       "between current results and baseline"]
    skipped = [key(entry) for entry in current
               if key(entry) not in base_by_key]
    for missing in skipped:
        lines.append(f"~ {missing[0]}: no baseline entry "
                     f"(seed={missing[1]}, scale={missing[2]}) — skipped")

    for cur, base in overlap:
        if cur["digest"] != base["digest"]:
            ok = False
            lines.append(
                f"✗ {cur['scenario']}: DIGEST MISMATCH "
                f"{cur['digest']} != baseline {base['digest']} "
                f"(semantic drift — hard failure)")

    ratios = []
    for cur, base in overlap:
        base_eps = base.get("events_per_sec") or 0.0
        cur_eps = cur.get("events_per_sec") or 0.0
        ratios.append((cur, base,
                       cur_eps / base_eps if base_eps > 0 else 1.0))
    norm = _median([r for _, _, r in ratios]) if len(ratios) >= 3 else 1.0
    floor = 1.0 - fail_over_pct / 100.0
    for cur, base, ratio in ratios:
        adjusted = ratio / norm if norm > 0 else ratio
        verdict = "✓"
        if adjusted < floor:
            ok = False
            verdict = "✗"
            lines.append(
                f"✗ {cur['scenario']}: throughput regressed "
                f"{(1.0 - adjusted) * 100.0:.1f}% normalized "
                f"(> {fail_over_pct:.0f}% budget)")
        lines.append(
            f"{verdict} {cur['scenario']}: "
            f"{cur['events_per_sec']:.0f} ev/s vs baseline "
            f"{base['events_per_sec']:.0f} ev/s "
            f"(raw ×{ratio:.2f}, normalized ×{adjusted:.2f}), "
            f"digest {cur['digest']} "
            f"{'==' if cur['digest'] == base['digest'] else '!='} baseline")
    lines.append(f"median raw ratio ×{norm:.2f} "
                 f"({len(ratios)} scenario(s), "
                 f"fail-over {fail_over_pct:.0f}%)")
    return ok, lines
