"""Layer attribution measured from outside the program.

A :class:`SpanTracer` replaces each layer's entry points with a timing
wrapper that opens a span around the call.  Spans nest on one stack, so
a layer's self time is its spans' duration minus the part covered by
child spans; the kernel's self time is what remains of
``Simulator.run`` plus the scheduling calls other layers make into it.
Aggregates stay in memory until the caller reads them.  Wrappers draw no random numbers and touch no simulator state; the
frame they add can change the object pool's refcount guard, which is
why traced numbers are for attribution only.

Wrappers go on the classes before a workload is built, so bound methods
captured when events are scheduled are wrapped too.  Three callbacks
the program schedules on the agenda are private but wrapped anyway, so
their work is charged to its layer instead of the kernel: fabric
delivery, adaptive-routing hellos and ARQ retransmission timeouts.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: (module, class, attribute, layer, counter named after its metric)
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("repro.substrates.sim", "Simulator", "run", "sim.kernel", None),
    ("repro.substrates.sim", "Simulator", "call_in", "sim.kernel", None),
    ("repro.substrates.sim", "Simulator", "schedule_at", "sim.kernel", None),
    ("repro.substrates.phys", "NetworkFabric", "send", "phys.fabric",
     "phys.fabric.sends"),
    ("repro.substrates.phys", "NetworkFabric", "_deliver", "phys.fabric",
     None),
    ("repro.routing", "StaticRouter", "next_hop", "routing",
     "routing.lookups"),
    ("repro.routing", "StaticRouter", "handle_control", "routing",
     "routing.control_packets"),
    ("repro.routing", "WLIAdaptiveRouter", "next_hop", "routing",
     "routing.lookups"),
    ("repro.routing", "WLIAdaptiveRouter", "handle_control", "routing",
     "routing.control_packets"),
    ("repro.routing", "WLIAdaptiveRouter", "_send_hello", "routing", None),
    ("repro.core", "Ship", "receive", "core.ship", "core.ship.receives"),
    ("repro.core", "Ship", "send_toward", "core.ship", None),
    ("repro.core", "Ship", "process_shuttle", "core.ship.dock",
     "core.ship.dock.calls"),
    ("repro.staticcheck.admission", "AdmissionVerifier", "vet",
     "staticcheck.admission", "staticcheck.admission.vets"),
    ("repro.core", "Shuttle", "clone", "core.shuttle", "core.shuttle.clones"),
    ("repro.core", "Jet", "spawn_copy", "core.shuttle",
     "core.shuttle.clones"),
    ("repro.core", "KnowledgeBase", "record", "core.knowledge",
     "core.knowledge.records"),
    ("repro.core", "KnowledgeBase", "absorb_quantum", "core.knowledge",
     "core.knowledge.absorbs"),
    ("repro.core", "KnowledgeBase", "sweep", "core.knowledge",
     "core.knowledge.sweeps"),
    ("repro.core", "KnowledgeBase", "content_digest", "core.knowledge",
     "core.knowledge.digests"),
    ("repro.core", "FeedbackBus", "observe", "core.feedback", None),
    ("repro.core", "FeedbackBus", "observe_batch", "core.feedback", None),
    ("repro.core", "WanderingEngine", "pulse", "core.metamorphosis", None),
    ("repro.resilience", "ReliableTransport", "send", "resilience.arq", None),
    ("repro.resilience", "ReliableTransport", "_on_timeout",
     "resilience.arq", None),
)

#: Counters that count only calls returning a true value (a router's
#: ``handle_control`` is asked about every packet but claims only its
#: own control traffic).
COUNT_IF_TRUE = frozenset({"routing.control_packets"})

#: Layers whose per-call durations are kept for percentiles.
SAMPLED_LAYERS = frozenset({"core.ship.dock", "staticcheck.admission"})

#: Layer of the benchmark's own traffic-generator callbacks.
GENERATOR_LAYER = "workload"


def entry_points() -> List[Tuple[type, str, str, Optional[str]]]:
    """``ENTRY_POINTS`` with the classes imported."""
    return [(getattr(importlib.import_module(module), cls), attr, layer,
             counter)
            for module, cls, attr, layer, counter in ENTRY_POINTS]


class SpanTracer:
    """Nested timing spans aggregated per layer."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        # Time covered by child spans, one slot per open span; the
        # bottom slot absorbs top-level spans.
        self._stack: List[float] = [0.0]
        self._installed: List[Tuple[type, str, object]] = []

    def install(self, generators: Sequence[Tuple[type, str]] = ()) -> None:
        """Wrap every entry point, plus ``generators`` as workload code."""
        targets = entry_points() + [(owner, attr, GENERATOR_LAYER, None)
                                    for owner, attr in generators]
        try:
            for owner, attr, layer, counter in targets:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._span(original, layer, counter))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _span(self, fn, layer: str, counter: Optional[str]):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        durations = (self.durations[layer] if layer in SAMPLED_LAYERS
                     else None)
        if_true = counter in COUNT_IF_TRUE
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - covered
                if durations is not None:
                    durations.append(elapsed)
            if counter is not None and (result or not if_true):
                counts[counter] += 1
            return result

        return span


def leftover_wrappers(generators: Sequence[Tuple[type, str]] = ()
                      ) -> List[str]:
    """Entry points that still carry a timing wrapper."""
    targets = [(owner, attr) for owner, attr, _, _ in entry_points()]
    targets += list(generators)
    return [f"{owner.__name__}.{attr}" for owner, attr in targets
            if hasattr(owner.__dict__[attr], "__wrapped__")]
