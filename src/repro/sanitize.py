"""The determinism sanitizer (DSan): draw/merge tapes and their diff.

A digest mismatch says *that* two runs diverged; it cannot say *where*.
The sanitizer turns the hard failure into a localized diagnosis: with a
:class:`DrawTape` installed (see :func:`taped`), every core RNG draw of
every named stream is recorded with its stream name, per-stream
ordinal, simulated time and owning call site, and every digest fold on
the digest path (run digests, shard outbox digests) is appended to a
merge tape.  Two taped runs — same scenario twice, optimizations on vs
off, telemetry on vs off — are then compared with :func:`diff_tapes`,
which reports the **first divergent draw**, the point where causality
split, rather than the digest, where the difference finally surfaced.

Recording never changes a draw's value, so a taped run's digest is
byte-identical to an untaped one.  The only deliberate exception is
*injection* (``repro sanitize --inject stream@N``): the Nth draw of the
named stream is perturbed in the second run, planting a reproducible
nondeterminism whose localization the tooling (and the test suite) can
then verify end to end.

The hook itself lives in :mod:`repro.substrates.sim.rng`; this module
owns the tape, the diff, and the report object that
:func:`repro.perf.harness.run_sanitized` and ``repro sanitize`` render.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

from .substrates.sim import rng as _rng

#: Frames whose filename ends with one of these never own a draw.
_SKIP_SUFFIXES = (
    os.path.join("substrates", "sim", "rng.py"),
    "sanitize.py",
    os.sep + "random.py",
)


class DrawRecord(NamedTuple):
    """One recorded RNG draw."""

    ordinal: int          # global position on the tape
    stream_ordinal: int   # position within this stream
    stream: str
    method: str           # "random" | "getrandbits"
    value: Any
    sim_time: Optional[float]
    site: str             # "path.py:line:function"

    def render(self) -> str:
        when = ("t=?" if self.sim_time is None
                else f"t={self.sim_time:.6f}")
        return (f"draw #{self.ordinal} [{self.stream}@"
                f"{self.stream_ordinal}] {self.method}() -> "
                f"{self.value!r} ({when}, {self.site})")


class MergeRecord(NamedTuple):
    """One digest fold observed on the digest path."""

    ordinal: int
    label: str
    digest: str


class Injection(NamedTuple):
    """Perturb the ``ordinal``-th draw of ``stream`` (0-based)."""

    stream: str
    ordinal: int

    @classmethod
    def parse(cls, spec: str) -> "Injection":
        stream, sep, ordinal = spec.rpartition("@")
        if not sep or not stream or not ordinal.isdigit():
            raise ValueError(
                f"bad injection spec {spec!r}: expected STREAM@N")
        return cls(stream, int(ordinal))


def _call_site() -> str:
    frame = sys._getframe(3)  # record <- _TapeRandom hook <- draw method
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(_SKIP_SUFFIXES):
            try:
                shown = os.path.relpath(filename)
            except ValueError:
                shown = filename
            return f"{shown}:{frame.f_lineno}:{frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class DrawTape:
    """A seeded draw/merge tape (install via :func:`taped`)."""

    __slots__ = ("draws", "merges", "inject", "injected", "_per_stream")

    def __init__(self, inject: Optional[Injection] = None):
        self.draws: List[DrawRecord] = []
        self.merges: List[MergeRecord] = []
        self.inject = inject
        self.injected: Optional[DrawRecord] = None
        self._per_stream: Dict[str, int] = {}

    def record(self, stream: str, method: str, value: Any,
               registry) -> Any:
        """Called by the rng hook for every core draw; returns the
        value the drawing code should see (perturbed iff injected)."""
        stream_ordinal = self._per_stream.get(stream, 0)
        self._per_stream[stream] = stream_ordinal + 1
        inject = self.inject
        if inject is not None and inject.stream == stream \
                and inject.ordinal == stream_ordinal:
            value = ((value + 0.5) % 1.0 if method == "random"
                     else value ^ 1)
        record = DrawRecord(len(self.draws), stream_ordinal, stream,
                            method, value, registry.sim_now(),
                            _call_site())
        self.draws.append(record)
        if inject is not None and inject.stream == stream \
                and inject.ordinal == stream_ordinal:
            self.injected = record
        return value

    def record_merge(self, label: str, digest: str) -> None:
        self.merges.append(MergeRecord(len(self.merges), label, digest))

    def summary(self) -> str:
        return (f"{len(self.draws)} draw(s) over "
                f"{len(self._per_stream)} stream(s), "
                f"{len(self.merges)} digest fold(s)")


@contextmanager
def taped(inject: Optional[Injection] = None) -> Iterator[DrawTape]:
    """Install a fresh tape for the duration of the block."""
    if _rng.active_tape() is not None:
        raise RuntimeError("a draw tape is already active")
    tape = DrawTape(inject=inject)
    _rng.install_tape(tape)
    try:
        yield tape
    finally:
        _rng.clear_tape()


class Divergence(NamedTuple):
    """The first point where two tapes disagree."""

    kind: str                    # "draw" | "draw-count" | "merge"
    index: int
    a: Optional[NamedTuple]
    b: Optional[NamedTuple]

    def describe(self) -> List[str]:
        if self.kind == "draw":
            lines = [f"first divergent draw at tape index {self.index}:"]
            for label, rec in (("run A", self.a), ("run B", self.b)):
                lines.append(f"  {label}: {rec.render()}")
            return lines
        if self.kind == "draw-count":
            lines = [f"tapes diverge in length at draw {self.index}:"]
            for label, rec in (("run A", self.a), ("run B", self.b)):
                lines.append(f"  {label}: "
                             f"{rec.render() if rec else '<tape ends>'}")
            return lines
        return [f"digest fold {self.index} diverged "
                f"(draw tapes identical — nondeterminism outside the "
                f"taped streams):",
                f"  run A: {self.a}",
                f"  run B: {self.b}"]


def diff_tapes(a: DrawTape, b: DrawTape) -> Optional[Divergence]:
    """First divergence between two tapes, or None when identical."""
    for i, (ra, rb) in enumerate(zip(a.draws, b.draws)):
        if (ra.stream, ra.method, ra.value, ra.sim_time, ra.site) \
                != (rb.stream, rb.method, rb.value, rb.sim_time, rb.site):
            return Divergence("draw", i, ra, rb)
    if len(a.draws) != len(b.draws):
        i = min(len(a.draws), len(b.draws))
        return Divergence("draw-count", i,
                          a.draws[i] if i < len(a.draws) else None,
                          b.draws[i] if i < len(b.draws) else None)
    for i, (ma, mb) in enumerate(zip(a.merges, b.merges)):
        if (ma.label, ma.digest) != (mb.label, mb.digest):
            return Divergence("merge", i, ma, mb)
    if len(a.merges) != len(b.merges):
        i = min(len(a.merges), len(b.merges))
        return Divergence("merge", i,
                          a.merges[i] if i < len(a.merges) else None,
                          b.merges[i] if i < len(b.merges) else None)
    return None


class SanitizeReport(NamedTuple):
    """Everything ``repro sanitize`` knows about one A/B comparison."""

    scenario: str
    seed: int
    scale: str
    against: str
    digest_a: str
    digest_b: str
    tape_a: DrawTape
    tape_b: DrawTape
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.digest_a == self.digest_b

    def render(self) -> str:
        lines = [f"sanitize: {self.scenario} seed={self.seed} "
                 f"scale={self.scale} against={self.against}",
                 f"tape A: {self.tape_a.summary()}",
                 f"tape B: {self.tape_b.summary()}"]
        if self.tape_b.injected is not None:
            lines.append(f"injected: {self.tape_b.injected.render()}")
        if self.digest_a == self.digest_b:
            lines.append(f"digest: {self.digest_a} (A == B)")
        else:
            lines.append(f"digest: A {self.digest_a} != B "
                         f"{self.digest_b}")
        if self.divergence is None:
            lines.append("tapes identical — runs drew byte-for-byte "
                         "the same randomness")
        else:
            lines.extend(self.divergence.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        def rec(r) -> Optional[Dict[str, Any]]:
            return None if r is None else {k: repr(v) if k == "value"
                                           else v
                                           for k, v in r._asdict().items()}
        payload: Dict[str, Any] = {
            "scenario": self.scenario, "seed": self.seed,
            "scale": self.scale, "against": self.against,
            "digest_a": self.digest_a, "digest_b": self.digest_b,
            "draws_a": len(self.tape_a.draws),
            "draws_b": len(self.tape_b.draws),
            "merges_a": len(self.tape_a.merges),
            "merges_b": len(self.tape_b.merges),
            "injected": rec(self.tape_b.injected),
            "ok": self.ok,
        }
        if self.divergence is None:
            payload["divergence"] = None
        else:
            payload["divergence"] = {
                "kind": self.divergence.kind,
                "index": self.divergence.index,
                "a": rec(self.divergence.a),
                "b": rec(self.divergence.b),
            }
        return payload
