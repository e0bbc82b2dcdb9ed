"""Exporters: JSONL stream, Prometheus-style text, ASCII tables.

Three formats, one source of truth (the flat records produced by
:meth:`~repro.obs.snapshot.MergedObs.records`):

* **JSONL** — one JSON object per line; ``meta`` / ``metric`` /
  ``span`` / ``kernel`` / ``profile`` / ``epoch`` / ``flight`` record
  types.  This is the wire format every ``--obs-out`` writes and
  ``repro obs report`` reads.
* **Prometheus text** — ``# HELP`` / ``# TYPE`` / sample lines, close
  enough to the exposition format to paste into promtool.
* **ASCII** — plain tables through the shared
  :func:`repro.analysis.metrics.format_table` renderer (imported
  lazily; the obs package itself stays dependency-free).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from .registry import MetricsRegistry


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse an ``--obs-out`` file back into record dicts.

    Blank lines are ignored; a malformed line raises ``ValueError``
    naming the line number (truncated files should fail loudly, not
    silently report half a run).
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed JSONL record: {exc}"
                ) from exc
    return records


def _escape_label_value(value: Any) -> str:
    """Escape per the exposition format: backslash, double-quote and
    newline must be ``\\\\``, ``\\"`` and ``\\n`` inside label values."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def to_prometheus_text(registry: MetricsRegistry,
                       extras: Iterable[tuple] = ()) -> str:
    """Render the registry in the Prometheus exposition format.

    ``extras`` are synthetic samples appended after the registry —
    ``(name, kind, help, labels, value)`` tuples for self-metrics that
    deliberately live outside the registry (see
    :mod:`repro.obs.snapshot`).
    """
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in sorted(family.series(),
                                    key=lambda kv: repr(kv[0])):
            labels = dict(zip(family.label_names, values))
            if family.kind == "histogram":
                for edge, cum in child.cumulative():
                    le = "+Inf" if edge == float("inf") else f"{edge:g}"
                    bucket_labels = dict(labels, le=le)
                    lines.append(f"{family.name}_bucket"
                                 f"{_label_str(bucket_labels)} {cum}")
                lines.append(f"{family.name}_sum{_label_str(labels)} "
                             f"{child.sum:g}")
                lines.append(f"{family.name}_count{_label_str(labels)} "
                             f"{child.count}")
            else:
                lines.append(f"{family.name}{_label_str(labels)} "
                             f"{child.value:g}")
    for name, kind, help_text, labels, value in extras:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{_label_str(labels or {})} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence],
                title: str = "") -> str:
    """Shared plain-text table (defers to ``repro.analysis.metrics``)."""
    from ..analysis.metrics import format_table
    return format_table(headers, rows, title=title)
