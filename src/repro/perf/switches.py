"""Optimization switches: every measured hot-path optimization that
keeps a reference path is individually toggleable.

The determinism contract of the perf work is *provable equivalence*:
for any seeded scenario, the run digest must be byte-identical with an
optimization on or off.  That proof needs a way to run the unoptimized
reference path, so every optimization guards itself on one of the flags
below instead of deleting the code it replaces.  A switch stays only
while its fast path wins a measured A/B (the ledger in
``docs/PERFORMANCE.md``); a path that loses is deleted, not kept off.

The flags are process-global (one :data:`switches` instance) because
the optimized call sites are constructors and kernel loops that have no
natural place to thread a config through.  Tests and the bench harness
flip them via :func:`configured`, which restores the previous state on
exit.

Flags
-----
``kernel_fast_loop``
    :meth:`Simulator.run` uses the batched loop — one fused agenda call
    drains every event sharing the head timestamp, hoisted lookups,
    inlined ``Event.fire`` for singletons — instead of the reference
    ``peek()``/``step()`` loop.
``cow_clone``
    :meth:`Shuttle.clone` / :meth:`Jet.spawn_copy` freeze the directive
    cargo into a shared tuple and copy slots directly instead of
    re-running the constructor (no size/manifest recomputation).
``admission_memo``
    :meth:`AdmissionVerifier.vet` memoizes whole-shuttle verdicts keyed
    by a payload digest (retransmitted clones and repeated role
    shuttles vet once).
``digest_cache``
    :meth:`KnowledgeBase.content_digest` and
    :meth:`Observability.metrics_digest` reuse their last canonical
    JSON/sha256 result until a dirty bit invalidates it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: Every known flag with its default (optimizations on).
DEFAULTS: Dict[str, bool] = {
    "kernel_fast_loop": True,
    "cow_clone": True,
    "admission_memo": True,
    "digest_cache": True,
}


class Switches:
    """Process-global optimization toggles (see module docstring)."""

    __slots__ = tuple(DEFAULTS)

    def __init__(self, **overrides: bool):
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown optimization switches: "
                             f"{sorted(unknown)}")
        for name, default in DEFAULTS.items():
            setattr(self, name, bool(overrides.get(name, default)))

    def as_dict(self) -> Dict[str, bool]:
        return {name: getattr(self, name) for name in DEFAULTS}

    def set_all(self, value: bool) -> None:
        for name in DEFAULTS:
            setattr(self, name, bool(value))

    def __repr__(self) -> str:
        state = " ".join(f"{k}={'on' if v else 'off'}"
                         for k, v in self.as_dict().items())
        return f"<Switches {state}>"


#: The process-global switch block consulted by the optimized call sites.
switches = Switches()


@contextmanager
def configured(**overrides: bool) -> Iterator[Switches]:
    """Temporarily override optimization switches.

    >>> with configured(cow_clone=False):
    ...     shuttle.clone()        # eager reference path
    """
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown optimization switches: {sorted(unknown)}")
    saved = switches.as_dict()
    try:
        for name, value in overrides.items():
            setattr(switches, name, bool(value))
        yield switches
    finally:
        for name, value in saved.items():
            setattr(switches, name, value)


@contextmanager
def all_disabled() -> Iterator[Switches]:
    """Run with every optimization off (the pre-optimization tree)."""
    with configured(**{name: False for name in DEFAULTS}) as sw:
        yield sw
