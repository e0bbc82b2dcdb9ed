"""Distributed telemetry: per-shard obs snapshots and their merge.

A ``--workers K`` run executes K full-replica simulators, each owning a
partition of the ships — and each collecting its *own* metrics, spans
and profiles.  Without this module that telemetry dies with the worker
process.  :class:`ObsSnapshot` is the picklable capture of one worker's
entire obs state (registry families including histogram buckets, span
records, kernel profile, flight-recorder ring, meta counters), cheap
enough to ship over the executor's existing pipes at collect time.
:func:`merge_snapshots` folds K of them into one :class:`MergedObs`,
the only exported view of a run: a single simulator exports
``merge_snapshots([sim.obs.snapshot()])``, the K=1 merge every
unsharded bench run already writes.

Merge rules (deterministic, canonical shard-index order):

* **counters / histograms** — summed per label-value tuple.  The shard
  design makes the sums K-invariant: every packet leg executes on
  exactly one shard (send-side accounting happens before a handoff is
  diverted; the receiving shard replays the single deliver event), so
  summed totals equal the single-shard run's totals.
* **gauges** — *lowest contributing shard wins*.  Every gauge in the
  instrument set is node-local (only the shard owning a ship ever
  writes that labelset), so at most one shard contributes a real value
  per labelset and the rule is a no-op tie-break, not information loss.
* **spans** — concatenated.  Each shard's tracer is rebased onto a
  disjoint id range (:data:`SHARD_ID_STRIDE`, see
  :meth:`~repro.obs.spans.SpanTracer.rebase_ids`), and the trace
  context travels *inside* ``packet.meta`` across pickled handoffs —
  so a cross-shard shuttle trace re-links into one causal chain simply
  by putting all spans in one list.
* **profiles / flight rings** — handler stats summed (max-of-max),
  flight entries interleaved by ``(t, shard, seq)``.

Shard-plane measurements (per-worker CPU, barrier stall, per-shard
event counts) land in gauges prefixed ``repro_shard_`` with a ``shard``
label.  :func:`registry_digest` excludes the ``repro_shard_``,
``repro_obs_`` and ``repro_kernel_`` prefixes — those families are
per-partition or host-dependent by definition — which
is what makes the merged digest identical across backends *and* worker
counts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .flight import render_flight
from .registry import (Counter, Gauge, Histogram, MetricError,
                       MetricsRegistry, PER_CONFIGURATION)
from .timeline import render_timeline, timeline_summary

#: Id stride separating shard tracers: shard *i*'s trace/span ids start
#: at ``i * SHARD_ID_STRIDE + 1``, so a ``(trace_id, span_id)`` context
#: crossing a handoff boundary stays globally unambiguous after merge.
SHARD_ID_STRIDE = 1_000_000_000

#: Family-name prefixes excluded from :func:`registry_digest`:
#: per-partition counts
#: (handoffs/barriers fire only when sharded), host-dependent or
#: cap-dependent self-metrics, and kernel agenda diagnostics (each
#: shard's simulator keeps its own insert/pop/purge tallies, so a
#: K-shard run's differ from the single simulator's).
DIGEST_EXCLUDED_PREFIXES = ("repro_shard_", "repro_obs_", "repro_kernel_")

_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def registry_digest(registry: Optional[MetricsRegistry]) -> str:
    """Canonical-JSON/sha256 fingerprint of a registry's samples (none
    for ``None``), minus :data:`DIGEST_EXCLUDED_PREFIXES`."""
    samples = ([rec for rec in registry.collect()
                if not rec["name"].startswith(DIGEST_EXCLUDED_PREFIXES)]
               if registry is not None else [])
    payload = json.dumps(samples, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ObsSnapshot:
    """Picklable capture of one simulator's full observability state."""

    #: Declared pickle-boundary class: shipped back over the collect
    #: pipe from every worker (checked by `repro shardcheck`).
    __shard_boundary__ = True
    __slots__ = ("shard", "families", "spans", "profile", "flight",
                 "meta", "max_series")

    def __init__(self, shard: int, families: List[Dict[str, Any]],
                 spans: List[Dict[str, Any]],
                 profile: Optional[Dict[str, Any]],
                 flight: List[Dict[str, Any]], meta: Dict[str, Any],
                 max_series: int):
        self.shard = int(shard)
        self.families = families
        self.spans = spans
        self.profile = profile
        self.flight = flight
        self.meta = meta
        self.max_series = int(max_series)

    @classmethod
    def capture(cls, obs, shard: int = 0) -> "ObsSnapshot":
        """Freeze ``obs`` (an :class:`~repro.obs.facade.Observability`)
        into plain picklable data.  Spans are captured as their JSONL
        records (``node`` already ``repr()``-ed — live node objects
        hold simulator references and must not cross the pipe)."""
        if obs.registry is None:
            raise MetricError("cannot snapshot a never-enabled obs facade")
        families: List[Dict[str, Any]] = []
        # Same-package access to registry internals: the snapshot *is*
        # the registry's serialisation format.
        for family in obs.registry.families():
            fam: Dict[str, Any] = {
                "name": family.name, "kind": family.kind,
                "help": family.help, "dimension": family.dimension,
                "label_names": family.label_names,
            }
            if family.kind == "histogram":
                fam["buckets"] = family.buckets
                fam["series"] = [
                    (values, (list(child.bucket_counts), child.sum,
                              child.count))
                    for values, child in family.series()]
            else:
                fam["series"] = [(values, child.value)
                                 for values, child in family.series()]
            families.append(fam)
        sim = obs.sim
        profile = None
        if obs.profiler is not None and obs.profiler.events:
            prof = obs.profiler
            profile = {
                "events": prof.events,
                "wall_s": prof.wall_elapsed,
                "max_queue_depth": prof.max_queue_depth,
                "depth_sum": prof.depth_sum,
                "handlers": [(h.name, h.calls, h.total_s, h.max_s)
                             for h in prof.handlers.values()],
            }
        recorder = getattr(obs, "flight_recorder", None)
        flight = list(recorder.to_records(shard=shard)) if recorder else []
        meta = {
            "sim_time": sim.now,
            "seed": getattr(sim, "seed", None),
            "events_executed": getattr(sim, "events_executed", 0),
            "dropped_series": obs.registry.dropped_series,
            "dropped_spans": obs.tracer.dropped if obs.tracer else 0,
            "subscriber_errors": getattr(getattr(sim, "trace", None),
                                         "subscriber_errors", 0),
        }
        spans = (list(obs.tracer.to_records()) if obs.tracer else [])
        return cls(shard, families, spans, profile, flight, meta,
                   obs.max_series)

    def __repr__(self) -> str:
        series = sum(len(f["series"]) for f in self.families)
        return (f"<ObsSnapshot shard={self.shard} "
                f"families={len(self.families)} series={series} "
                f"spans={len(self.spans)}>")


def merge_snapshots(snapshots: Sequence[ObsSnapshot]) -> "MergedObs":
    """Fold K worker snapshots into one unified view.

    Deterministic regardless of arrival order: snapshots are first
    sorted by shard index (the canonical merge order), so the inline
    and mp backends — and any K — produce byte-identical exports.
    """
    if not snapshots:
        raise MetricError("merge_snapshots needs at least one snapshot")
    snaps = sorted(snapshots, key=lambda s: s.shard)
    indices = [s.shard for s in snaps]
    if len(set(indices)) != len(indices):
        raise MetricError(f"duplicate shard indices in merge: {indices}")

    total_series = sum(len(f["series"]) for s in snaps
                       for f in s.families)
    registry = MetricsRegistry(max_series=max(4096, total_series + 128))
    for snap in snaps:
        for fam in snap.families:
            cls = _KIND_CLASSES.get(fam["kind"])
            if cls is None:
                raise MetricError(
                    f"{fam['name']}: unknown metric kind {fam['kind']!r}")
            kw = ({"buckets": fam["buckets"]}
                  if fam["kind"] == "histogram" else {})
            family = registry._declare(cls, fam["name"], fam["help"],
                                       fam["dimension"],
                                       fam["label_names"], **kw)
            if (fam["kind"] == "histogram"
                    and family.buckets != tuple(fam["buckets"])):
                raise MetricError(
                    f"{fam['name']}: bucket edges differ across shards")
            for values, payload in fam["series"]:
                if fam["kind"] == "gauge":
                    # Lowest contributing shard wins: a label set an
                    # earlier shard already wrote keeps its value.
                    if values not in family._children:
                        family.labels(*values).value = payload
                    continue
                child = family.labels(*values)
                if fam["kind"] == "histogram":
                    counts, total, count = payload
                    if len(child.bucket_counts) != len(counts):
                        raise MetricError(
                            f"{fam['name']}: bucket arity differs "
                            f"across shards")
                    for i, n in enumerate(counts):
                        child.bucket_counts[i] += n
                    child.sum += total
                    child.count += count
                else:   # counter
                    child.value += payload

    spans: List[Dict[str, Any]] = []
    for snap in snaps:
        spans.extend(snap.spans)

    profile: Optional[Dict[str, Any]] = None
    contributing = [s.profile for s in snaps if s.profile]
    if contributing:
        handlers: Dict[str, List[float]] = {}
        for prof in contributing:
            for name, calls, total_s, max_s in prof["handlers"]:
                acc = handlers.get(name)
                if acc is None:
                    handlers[name] = [calls, total_s, max_s]
                else:
                    acc[0] += calls
                    acc[1] += total_s
                    acc[2] = max(acc[2], max_s)
        profile = {
            "events": sum(p["events"] for p in contributing),
            # Workers run concurrently: the merged wall clock is the
            # slowest shard's, not the sum.
            "wall_s": max(p["wall_s"] for p in contributing),
            "max_queue_depth": max(p["max_queue_depth"]
                                   for p in contributing),
            "depth_sum": sum(p["depth_sum"] for p in contributing),
            "handlers": [(name, int(acc[0]), acc[1], acc[2])
                         for name, acc in sorted(handlers.items())],
        }

    flight: List[Dict[str, Any]] = []
    for snap in snaps:
        flight.extend(snap.flight)
    flight.sort(key=lambda r: (r.get("t", 0.0), r.get("shard", 0),
                               r.get("seq", 0)))

    meta = {
        "shards": indices,
        "k": len(indices),
        "sim_time": max(s.meta["sim_time"] for s in snaps),
        "seed": snaps[0].meta["seed"],
        "events_executed": sum(s.meta["events_executed"] for s in snaps),
        "dropped_series": sum(s.meta["dropped_series"] for s in snaps),
        "dropped_spans": sum(s.meta["dropped_spans"] for s in snaps),
        "subscriber_errors": sum(s.meta["subscriber_errors"]
                                 for s in snaps),
    }
    merged = MergedObs(registry, spans, profile, flight, meta)
    events_gauge = registry.gauge(
        "repro_shard_events_executed",
        "Events executed per shard replica (merged view).",
        dimension=PER_CONFIGURATION, labels=("shard",))
    for snap in snaps:
        events_gauge.set(snap.meta["events_executed"],
                         shard=str(snap.shard))
    return merged


class MergedObs:
    """The unified K-shard telemetry view and the one exporter (K=1 for
    a single simulator)."""

    def __init__(self, registry: MetricsRegistry,
                 spans: List[Dict[str, Any]],
                 profile: Optional[Dict[str, Any]],
                 flight: List[Dict[str, Any]], meta: Dict[str, Any]):
        self.registry = registry
        self.span_records = spans
        self.profile = profile
        self.flight_records = flight
        self.epoch_records: List[Dict[str, Any]] = []
        self.meta = meta
        #: Supervisor recovery accounting (set by :meth:`add_recovery`).
        self.recovery: Optional[Dict[str, Any]] = None

    # -- shard-plane enrichment (executor stats, epoch stream) -------------
    def add_epochs(self, records: Sequence[Dict[str, Any]]) -> None:
        """Attach the executor's epoch timeline records."""
        self.epoch_records.extend(records)

    def add_shard_stats(self, worker_cpu_s: Sequence[float],
                        barrier_stall_s: float = 0.0) -> None:
        """Fold executor measurements into ``shard``-labeled gauges so
        ``repro obs report`` shows them without reading BENCH JSON."""
        cpu = self.registry.gauge(
            "repro_shard_worker_cpu_seconds",
            "Per-worker CPU seconds spent executing events.",
            dimension=PER_CONFIGURATION, labels=("shard",))
        for i, value in enumerate(worker_cpu_s):
            cpu.set(float(value), shard=str(i))
        stall = self.registry.gauge(
            "repro_shard_barrier_stall_seconds",
            "Executor wall time spent waiting at epoch barriers "
            "(0 for the inline backend).",
            dimension=PER_CONFIGURATION, labels=())
        stall.set(float(barrier_stall_s))

    def add_recovery(self, recovery: Dict[str, Any],
                     flight_records: Sequence[Dict[str, Any]] = (),
                     span_records: Sequence[Dict[str, Any]] = ()) -> None:
        """Fold the supervisor's recovery accounting into the merged
        view: run-wide restart/replay gauges (the
        authoritative counts — a replaced worker's own counters die
        with it), plus the supervisor's parent-plane flight entries and
        restart/replay spans.  All families are ``repro_shard_``
        prefixed, so recovery telemetry can never move the merged
        metrics digest.
        """
        self.recovery = dict(recovery)
        restarts = self.registry.gauge(
            "repro_shard_worker_restarts",
            "Worker restarts performed by the shard supervisor.",
            dimension=PER_CONFIGURATION, labels=("shard",))
        for shard, count in enumerate(
                recovery.get("restarts_by_shard", [])):
            restarts.set(float(count), shard=str(shard))
        replay = self.registry.gauge(
            "repro_shard_recovery_replay_epochs",
            "Journaled epochs replayed into replacement workers.",
            dimension=PER_CONFIGURATION, labels=())
        replay.set(float(recovery.get("replayed_epochs", 0)))
        degraded = self.registry.gauge(
            "repro_shard_recovery_degraded",
            "1 when the restart budget was exhausted and the run fell "
            "back to the inline oracle.",
            dimension=PER_CONFIGURATION, labels=())
        degraded.set(1.0 if recovery.get("degraded") else 0.0)
        if flight_records:
            self.flight_records.extend(flight_records)
            self.flight_records.sort(
                key=lambda r: (r.get("t", 0.0), r.get("shard", 0),
                               r.get("seq", 0)))
        if span_records:
            self.span_records.extend(span_records)

    # -- digests ------------------------------------------------------------
    def metrics_digest(self) -> str:
        """Canonical fingerprint of the merged metric samples.

        Excludes :data:`DIGEST_EXCLUDED_PREFIXES` — per-partition and
        host-dependent families — so the digest is identical across
        backends and worker counts for the same scenario/seed/scale.
        """
        return registry_digest(self.registry)

    # -- export --------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        meta = self.meta
        yield {"type": "meta", "version": 1, "merged": True,
               "shards": list(meta["shards"]), "k": meta["k"],
               "sim_time": meta["sim_time"], "seed": meta["seed"],
               "events_executed": meta["events_executed"],
               "dropped_series": meta["dropped_series"],
               "dropped_spans": meta["dropped_spans"]}
        yield from self.registry.collect()
        yield _self_metric("repro_obs_dropped_series_total",
                           meta["dropped_series"])
        yield _self_metric("repro_obs_trace_subscriber_errors_total",
                           meta["subscriber_errors"])
        yield from iter(self.span_records)
        if self.profile:
            prof = self.profile
            wall = prof["wall_s"]
            yield {"type": "kernel", "events": prof["events"],
                   "wall_s": wall,
                   "events_per_sec": (prof["events"] / wall
                                      if wall > 0 else 0.0),
                   "max_queue_depth": prof["max_queue_depth"],
                   "mean_queue_depth": (prof["depth_sum"] / prof["events"]
                                        if prof["events"] else 0.0)}
            for name, calls, total_s, max_s in sorted(
                    prof["handlers"], key=lambda h: (-h[2], h[0])):
                yield {"type": "profile", "handler": name, "calls": calls,
                       "total_s": total_s, "max_s": max_s,
                       "mean_us": (total_s / calls * 1e6) if calls else 0.0}
        yield from iter(self.epoch_records)
        yield from iter(self.flight_records)

    def export_jsonl(self, path: str) -> int:
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True, default=repr)
                         + "\n")
                n += 1
        return n

    def export_prometheus(self) -> str:
        from .exporters import to_prometheus_text
        return to_prometheus_text(
            self.registry,
            extras=[("repro_obs_dropped_series_total", "counter",
                     "Series dropped at the cardinality cap (all shards).",
                     {}, self.meta["dropped_series"]),
                    ("repro_obs_trace_subscriber_errors_total", "counter",
                     "TraceBus subscriber exceptions swallowed "
                     "(all shards).",
                     {}, self.meta["subscriber_errors"])])

    def summary_text(self, top: int = 10) -> str:
        from .report import render_report
        return render_report(list(self.records()), top=top)

    def render_timeline(self, width: int = 60) -> str:
        return render_timeline(self.epoch_records, width=width)

    def render_flight(self, last: int = 20) -> str:
        return render_flight(self.flight_records, last=last)

    def timeline_summary(self) -> Optional[Dict[str, Any]]:
        return timeline_summary(self.epoch_records)

    def __repr__(self) -> str:
        return (f"<MergedObs k={self.meta['k']} "
                f"families={len(self.registry)} "
                f"spans={len(self.span_records)} "
                f"epochs={len(self.epoch_records)} "
                f"digest={self.metrics_digest()}>")


def _self_metric(name: str, value: float,
                 labels: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """A synthetic ``metric`` record for obs-about-obs counters.

    Kept out of the live registry so self-measurement can never move
    the metrics digest it is measuring."""
    return {"type": "metric", "kind": "counter", "name": name,
            "dimension": PER_CONFIGURATION, "labels": labels or {},
            "value": float(value)}
