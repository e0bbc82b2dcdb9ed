"""repro.obs — unified observability for the Wandering Network stack.

One subsystem, three concerns:

* :class:`MetricsRegistry` — labeled counters/gauges/histograms keyed
  by the MFP feedback dimensions (per-node, per-packet, per-method,
  per-message, per-multicast-branch, per-session, ...);
* :class:`SpanTracer` — causal span tracing; shuttles carry a trace
  context across hops so one journey (morphing, transcoding, jet
  fan-out included) renders as a single tree;
* :class:`KernelProfiler` — per-handler wall time and event-queue
  depth, accumulated by the kernel's one per-event observation hook.

Every :class:`~repro.substrates.sim.kernel.Simulator` owns an
:class:`Observability` facade at ``sim.obs`` (disabled by default —
near-zero overhead) that only collects; enable with
``sim.obs.enable(profiling=True)``.

One view exports every run: :func:`merge_snapshots` folds K
:class:`ObsSnapshot` captures into one :class:`MergedObs` — K=1 for
``merge_snapshots([sim.obs.snapshot()])`` — rendered by ``repro obs
report PATH``.  :class:`FlightRecorder` keeps a black-box ring of the
last N moments (``sim.obs.flight(capacity)``), and the epoch timeline
renders the executor's barrier-by-barrier record as an ASCII Gantt
(``repro obs timeline PATH``).
"""

from .exporters import ascii_table, load_jsonl, to_prometheus_text
from .facade import Observability
from .flight import FlightRecorder, render_flight
from .profiler import HandlerStats, KernelProfiler
from .registry import (DEFAULT_BUCKETS, MFP_DIMENSIONS, Counter, Gauge,
                       Histogram, MetricError, MetricsRegistry)
from .report import (render_dimension_tables, render_profile,
                     render_report, render_span_trees)
from .snapshot import (DIGEST_EXCLUDED_PREFIXES, SHARD_ID_STRIDE,
                       MergedObs, ObsSnapshot, merge_snapshots)
from .spans import (TRACE_META_KEY, Span, SpanTracer, render_span_tree,
                    spans_from_records, tree_depth)
from .timeline import make_epoch_record, render_timeline, timeline_summary

__all__ = [
    "Observability", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "MetricError", "MFP_DIMENSIONS", "DEFAULT_BUCKETS",
    "SpanTracer", "Span", "TRACE_META_KEY", "render_span_tree",
    "spans_from_records", "tree_depth",
    "KernelProfiler", "HandlerStats",
    "load_jsonl", "to_prometheus_text", "ascii_table",
    "render_report", "render_dimension_tables", "render_profile",
    "render_span_trees",
    "ObsSnapshot", "MergedObs", "merge_snapshots",
    "SHARD_ID_STRIDE", "DIGEST_EXCLUDED_PREFIXES",
    "FlightRecorder", "render_flight",
    "make_epoch_record", "render_timeline", "timeline_summary",
]
