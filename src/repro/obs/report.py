"""Offline run report: what ``repro obs report run.jsonl`` prints.

Takes the flat records of one run (live from
:meth:`~repro.obs.snapshot.MergedObs.records` or reloaded via
:func:`repro.obs.exporters.load_jsonl`) and renders:

* one metric table per MFP dimension (top series by value, histograms
  with a :func:`repro.viz.sparkline` of their bucket shape);
* the kernel profile — top handlers by total wall time, plus
  events/sec and queue-depth aggregates;
* the deepest causal shuttle span trees.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .spans import render_span_tree, spans_from_records, tree_depth


def _fmt_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.6g}"


def _metric_rows(records: List[Dict[str, Any]], top: int) -> List[List[str]]:
    from ..viz import sparkline
    rows = []
    for rec in records:
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted((rec.get("labels") or {}).items()))
        if rec["kind"] == "histogram":
            buckets = rec.get("buckets") or {}
            # De-cumulate for the shape sparkline.
            cum = [buckets[k] for k in buckets]
            counts = [b - a for a, b in zip([0] + cum, cum)]
            value = rec.get("count", 0)
            detail = (f"sum={_fmt_value(rec.get('sum', 0.0))} "
                      f"{sparkline(counts) if counts else ''}")
        else:
            value = rec.get("value", 0.0)
            detail = ""
        rows.append((value, [rec["name"], rec["kind"], labels,
                             _fmt_value(value), detail]))
    rows.sort(key=lambda pair: (-pair[0], pair[1][0], pair[1][2]))
    return [row for _, row in rows[:top]]


def render_dimension_tables(records: List[Dict[str, Any]],
                            top: int = 10) -> str:
    """One table per MFP dimension, ordered by dimension name."""
    from .exporters import ascii_table
    metrics = [r for r in records if r.get("type") == "metric"]
    by_dim: Dict[str, List[Dict[str, Any]]] = {}
    for rec in metrics:
        by_dim.setdefault(rec.get("dimension") or "(none)", []).append(rec)
    blocks = []
    for dim in sorted(by_dim):
        series = by_dim[dim]
        rows = _metric_rows(series, top)
        blocks.append(ascii_table(
            ["metric", "kind", "labels", "value", "detail"], rows,
            title=f"[{dim}]  {len(series)} series"))
    if not blocks:
        return "(no metrics recorded)"
    return "\n\n".join(blocks)


def render_profile(records: List[Dict[str, Any]], top: int = 10) -> str:
    """Top handlers by total wall time + kernel aggregates."""
    from .exporters import ascii_table
    kernel = next((r for r in records if r.get("type") == "kernel"), None)
    handlers = [r for r in records if r.get("type") == "profile"]
    if kernel is None and not handlers:
        return "(no kernel profile recorded — run with profiling enabled)"
    lines = []
    if kernel is not None:
        lines.append(
            f"kernel: {kernel.get('events', 0)} events in "
            f"{kernel.get('wall_s', 0.0):.4f}s wall "
            f"({kernel.get('events_per_sec', 0.0):,.0f} events/sec), "
            f"queue depth mean={kernel.get('mean_queue_depth', 0.0):.1f} "
            f"max={kernel.get('max_queue_depth', 0)}")
    handlers.sort(key=lambda h: (-h.get("total_s", 0.0),
                                 h.get("handler", "")))
    rows = [[h.get("handler", "?"), h.get("calls", 0),
             f"{h.get('total_s', 0.0) * 1e3:.3f}",
             f"{h.get('mean_us', 0.0):.2f}",
             f"{h.get('max_s', 0.0) * 1e6:.1f}"]
            for h in handlers[:top]]
    if rows:
        lines.append(ascii_table(
            ["handler", "calls", "total ms", "mean us", "max us"], rows,
            title=f"top {min(top, len(handlers))} handlers "
                  f"(of {len(handlers)})"))
    return "\n".join(lines)


def render_span_trees(records: List[Dict[str, Any]], max_trees: int = 3,
                      min_depth: int = 2) -> str:
    """The deepest causal trees (multi-hop journeys first)."""
    span_recs = [r for r in records if r.get("type") == "span"]
    if not span_recs:
        return "(no spans recorded)"
    spans = spans_from_records(span_recs)
    by_trace: Dict[int, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    ranked = sorted(
        ((tree_depth(trace_spans), len(trace_spans), trace_id, trace_spans)
         for trace_id, trace_spans in by_trace.items()),
        key=lambda item: (-item[0], -item[1], item[2]))
    blocks = []
    for depth, size, trace_id, trace_spans in ranked[:max_trees]:
        if depth < min_depth and blocks:
            break
        blocks.append(f"trace {trace_id} — {size} spans, depth {depth}\n"
                      + render_span_tree(trace_spans))
    if not blocks:
        return "(no multi-hop traces recorded)"
    return f"{len(by_trace)} traces total; deepest:\n\n" \
        + "\n\n".join(blocks)


def render_report(records: List[Dict[str, Any]], top: int = 10) -> str:
    """The full ``repro obs report`` output."""
    meta = next((r for r in records if r.get("type") == "meta"), {})
    header = ("== observability report ==\n"
              f"sim_time={meta.get('sim_time', '?')} "
              f"seed={meta.get('seed', '?')} "
              f"events_executed={meta.get('events_executed', '?')} "
              f"records={len(records)}")
    if meta.get("merged"):
        header += (f"\nmerged view of {meta.get('k', '?')} shard(s): "
                   f"{meta.get('shards', [])}")
    dropped = meta.get("dropped_series", 0) or meta.get("dropped_spans", 0)
    if dropped:
        header += (f"\n(warning: cardinality caps hit — "
                   f"{meta.get('dropped_series', 0)} series and "
                   f"{meta.get('dropped_spans', 0)} spans dropped)")
    sections = [
        header,
        "-- metrics by MFP dimension --\n"
        + render_dimension_tables(records, top=top),
        "-- kernel profile --\n" + render_profile(records, top=top),
        "-- causal shuttle traces --\n" + render_span_trees(records),
    ]
    # The epoch and flight sections appear only when their records do.
    if any(r.get("type") == "epoch" for r in records):
        from .timeline import render_timeline
        sections.append("-- epoch timeline --\n" + render_timeline(records))
    if any(r.get("type") == "flight" for r in records):
        from .flight import render_flight
        sections.append("-- flight recorder --\n" + render_flight(records))
    return "\n\n".join(sections)
