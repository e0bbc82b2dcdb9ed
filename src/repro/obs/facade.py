"""The per-simulator observability facade.

Every :class:`~repro.substrates.sim.kernel.Simulator` owns one
:class:`Observability` as ``sim.obs``, created *disabled*: the whole
instrumented stack guards its hot-path calls with ``if obs.on:`` (one
attribute read and a branch), so a run that never enables observability
pays near-zero overhead.  ``sim.obs.enable()`` turns on the metrics
registry and the span tracer; ``enable(profiling=True)`` adds the
kernel profiler.  The facade only collects: a run is exported through
``merge_snapshots([sim.obs.snapshot()])``, like any sharded run.

The facade pre-declares the *well-known instruments* the hot paths emit
into, keyed by the MFP dimensions — ship/fabric/routing/selfheal code
writes ``obs.node_packets.inc(node=..., event=...)`` rather than
stringly re-declaring families at every call site.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from .profiler import KernelProfiler
from .registry import (DEFAULT_BUCKETS, PER_CONFIGURATION, PER_DATA_LINK,
                       PER_MESSAGE, PER_METHOD, PER_MULTICAST_BRANCH,
                       PER_NODE, PER_PACKET, PER_SESSION, MetricsRegistry)
from .snapshot import registry_digest
from .spans import SpanTracer


class Observability:
    """Registry + tracer + profiler bundle attached to one simulator."""

    def __init__(self, sim, enabled: bool = False,
                 max_series: int = 4096, max_spans: int = 100_000):
        self.sim = sim
        #: Hot-path guard.  False means every instrument is untouched.
        self.on = False
        self.profiling = False
        self.max_series = int(max_series)
        self.max_spans = int(max_spans)
        self.registry: Optional[MetricsRegistry] = None
        self.tracer: Optional[SpanTracer] = None
        self.profiler: Optional[KernelProfiler] = None
        #: Armed by :meth:`flight`.  While collection is on, the kernel
        #: hook notes every executed event here, and the fabric and the
        #: shard replica note deliveries, drops and barriers.
        self.flight_recorder = None
        #: Shard index when this facade lives inside a worker replica.
        self.shard = 0
        if enabled:
            self.enable()

    # -- lifecycle ---------------------------------------------------------
    def enable(self, profiling: bool = False) -> "Observability":
        """Turn collection on (idempotent); optionally arm the kernel
        profiler."""
        if self.registry is None:
            self.registry = MetricsRegistry(max_series=self.max_series)
            self.tracer = SpanTracer(max_spans=self.max_spans)
            self.profiler = KernelProfiler()
            self._declare_instruments()
        self.on = True
        if profiling:
            self.profiling = True
        self._install_hook()
        return self

    def flight(self, capacity: int = 256):
        """Arm the flight recorder: a bounded ring of the last
        ``capacity`` kernel events / fabric deliveries / barrier
        crossings, dumpable on demand or on invariant failure (the
        chaos harness's black box).  Implies :meth:`enable`."""
        from .flight import FlightRecorder
        if (self.flight_recorder is None
                or self.flight_recorder.capacity != int(capacity)):
            self.flight_recorder = FlightRecorder(capacity=capacity)
        self.enable()
        return self.flight_recorder

    def snapshot(self, shard: Optional[int] = None):
        """Picklable capture of the full obs state (see
        :class:`~repro.obs.snapshot.ObsSnapshot`); export it with
        ``merge_snapshots([obs.snapshot()])``."""
        from .snapshot import ObsSnapshot
        return ObsSnapshot.capture(
            self, shard=self.shard if shard is None else shard)

    def disable(self) -> None:
        """Stop collecting (keeps already-collected data for export)."""
        self.on = False
        self.profiling = False
        self._install_hook()

    def _install_hook(self) -> None:
        """Rebuild the kernel's per-event hook from this facade's state:
        note the event in an armed flight ring while collecting, and
        with profiling on, time ``fire()`` and record the agenda depth
        after it.  ``None`` when there is nothing to observe."""
        sim = self.sim
        ring = self.flight_recorder if self.on else None
        prof = self.profiler if self.profiling else None
        if ring is None and prof is None:
            sim._observe = None
            return
        note = ring.note if ring is not None else None
        record = prof.record if prof is not None else None
        agenda = sim._agenda

        def observe(ev) -> None:
            name = ev.name or "event"
            if note is not None:
                note("event", ev.time, name)
            if record is None:
                ev.fire()
                return
            t0 = perf_counter()  # via: ignore[VIA003] host wall time is the profiled quantity
            ev.fire()
            record(name, t0,
                   perf_counter(),  # via: ignore[VIA003] host wall time is the profiled quantity
                   len(agenda))
        sim._observe = observe

    # -- well-known instruments (MFP dimension -> metric mapping) ----------
    def _declare_instruments(self) -> None:
        r = self.registry
        # per-node: the ship data path.
        self.node_packets = r.counter(
            "repro_node_packets_total",
            "Per-ship packet events (forwarded/delivered/dropped).",
            dimension=PER_NODE, labels=("node", "event"))
        self.ship_lifecycle = r.counter(
            "repro_ship_lifecycle_total",
            "Ship births and deaths.",
            dimension=PER_NODE, labels=("node", "event"))
        # per-packet: the fabric's view of every transmission.
        self.fabric_packets = r.counter(
            "repro_fabric_packets_total",
            "Fabric send/deliver/drop outcomes (drops labeled by reason).",
            dimension=PER_PACKET, labels=("event", "reason"))
        self.packet_hops = r.histogram(
            "repro_packet_hops",
            "Hop count observed at delivery.",
            dimension=PER_PACKET, labels=(),
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64))
        # per-data-link: bytes over each named link.
        self.link_bytes = r.counter(
            "repro_link_bytes_total",
            "Bytes carried per link.",
            dimension=PER_DATA_LINK, labels=("link",))
        # per-multicast-branch: broadcast fan-out copies per branch.
        self.multicast_branches = r.counter(
            "repro_multicast_branches_total",
            "Broadcast copies sent, per originating node branch.",
            dimension=PER_MULTICAST_BRANCH, labels=("node",))
        # per-message: shuttles and jets (the active messages).
        self.shuttle_events = r.counter(
            "repro_shuttle_events_total",
            "Shuttle lifecycle events (processed/rejected/morphed/...).",
            dimension=PER_MESSAGE, labels=("node", "event"))
        # per-method: shuttle directive ops and routing/protocol methods.
        self.directives = r.counter(
            "repro_shuttle_directives_total",
            "Shuttle directive executions by op and outcome.",
            dimension=PER_METHOD, labels=("op", "outcome"))
        self.protocol_events = r.counter(
            "repro_protocol_events_total",
            "Routing/selfheal protocol method invocations.",
            dimension=PER_METHOD, labels=("method",))
        # per-session: end-to-end flows at delivery points.
        self.session_packets = r.counter(
            "repro_session_packets_total",
            "Packets delivered per session (flow).",
            dimension=PER_SESSION, labels=("session",))
        self.session_latency = r.histogram(
            "repro_session_latency_seconds",
            "End-to-end latency at delivery.",
            dimension=PER_SESSION, labels=(), buckets=DEFAULT_BUCKETS)
        # per-configuration: PMP wandering and MFP regulation itself.
        self.wander_events = r.counter(
            "repro_wander_events_total",
            "PMP wandering events (migrate/replicate/emerge/die/switch).",
            dimension=PER_CONFIGURATION, labels=("kind", "role"))
        self.feedback_observations = r.counter(
            "repro_feedback_observations_total",
            "FeedbackBus observations per (dimension, metric).",
            dimension=PER_CONFIGURATION, labels=("dimension", "metric"))
        self.feedback_level = r.gauge(
            "repro_feedback_level",
            "Latest EWMA level per feedback tag.",
            dimension=PER_CONFIGURATION,
            labels=("dimension", "key", "metric"))
        self.controller_firings = r.counter(
            "repro_feedback_controller_firings_total",
            "Threshold-controller transitions per feedback dimension.",
            dimension=PER_CONFIGURATION,
            labels=("dimension", "metric", "direction"))
        # per-message: the resilience layer (repro.resilience).
        self.resilience_events = r.counter(
            "repro_resilience_arq_total",
            "Reliable-transport events "
            "(send/retry/delivered/ack/duplicate/reroute/dead-letter).",
            dimension=PER_MESSAGE, labels=("event",))
        self.arq_delivery_latency = r.histogram(
            "repro_resilience_delivery_seconds",
            "End-to-end acked delivery latency (first send to ack).",
            dimension=PER_MESSAGE, labels=(), buckets=DEFAULT_BUCKETS)
        self.dlq_depth = r.gauge(
            "repro_resilience_dlq_depth",
            "Current dead-letter queue depth.",
            dimension=PER_MESSAGE, labels=())
        self.breaker_transitions = r.counter(
            "repro_resilience_breaker_transitions_total",
            "Circuit-breaker state transitions per directed link.",
            dimension=PER_DATA_LINK, labels=("link", "state"))
        self.false_suspicions = r.counter(
            "repro_selfheal_false_suspicions_total",
            "Heartbeat suspicions later cleared by a live heartbeat.",
            dimension=PER_NODE, labels=("node",))
        # per-message: the static admission gate (repro.staticcheck).
        self.rejected_quanta = r.counter(
            "repro_staticcheck_rejected_total",
            "Shuttle payloads rejected by the static admission verifier "
            "before execution, by reason code.",
            dimension=PER_MESSAGE, labels=("node", "reason"))
        self.lint_findings = r.counter(
            "repro_staticcheck_lint_findings_total",
            "Determinism-lint findings (VIA rules) in statically vetted "
            "mobile code.",
            dimension=PER_METHOD, labels=("rule",))
        # per-configuration: the shard executor (repro.shard).
        self.shard_handoffs = r.counter(
            "repro_shard_handoffs_total",
            "Cross-shard packet legs diverted (out) or injected (in) at "
            "epoch barriers.",
            dimension=PER_CONFIGURATION, labels=("event",))
        self.shard_barriers = r.counter(
            "repro_shard_barriers_total",
            "Epoch barriers this shard synchronized on.",
            dimension=PER_CONFIGURATION, labels=())
        # per-configuration: crash recovery (repro.shard.supervisor).
        # A replica that was restored via journal replay counts itself;
        # the supervisor's run-wide totals land as merged gauges (see
        # MergedObs.add_recovery) and are the authoritative view.
        self.shard_worker_restarts = r.counter(
            "repro_shard_worker_restarts_total",
            "Times this replica was rebuilt by the supervisor after a "
            "worker death or stall.",
            dimension=PER_CONFIGURATION, labels=())
        self.recovery_replay_epochs = r.counter(
            "repro_shard_recovery_replay_epochs_total",
            "Journaled epochs replayed into this replica during crash "
            "recovery.",
            dimension=PER_CONFIGURATION, labels=())
        # trace-bus bridge: every legacy emit() lands here too.
        self.trace_topics = r.counter(
            "repro_trace_topic_total",
            "TraceBus emissions per topic.",
            dimension=PER_METHOD, labels=("topic",))
        # per-configuration: kernel agenda health (mirrored from
        # Simulator.agenda_stats at every run() exit; the repro_kernel_
        # prefix is digest-excluded because a K-shard run's op tallies
        # legitimately differ from the single simulator's).
        self.kernel_agenda_ops = r.gauge(
            "repro_kernel_agenda_ops",
            "Kernel agenda lifetime operation counters, by op "
            "(insert/pop/purge).",
            dimension=PER_CONFIGURATION, labels=("op",))
        self.kernel_agenda_depth = r.gauge(
            "repro_kernel_agenda_depth",
            "Kernel agenda depth diagnostics "
            "(pending/peak/max_batch).",
            dimension=PER_CONFIGURATION, labels=("stat",))

    # -- kernel mirrors -----------------------------------------------------
    def sync_kernel_stats(self) -> None:
        """Mirror the kernel's agenda counters into gauges.

        Called by ``Simulator.run`` on exit (when enabled), so exported
        snapshots always carry the latest agenda health without the hot
        loop touching an instrument per event."""
        stats = self.sim.agenda_stats()
        ops = self.kernel_agenda_ops
        ops.set(stats["inserts"], op="insert")
        ops.set(stats["pops"], op="pop")
        ops.set(stats["purges"], op="purge")
        depth = self.kernel_agenda_depth
        depth.set(stats["depth"], stat="pending")
        depth.set(stats["peak_depth"], stat="peak")
        depth.set(stats["max_batch"], stat="max_batch")

    # -- hot-path helpers ---------------------------------------------------
    def record_topic(self, topic: str) -> None:
        """Bridge for ``TraceBus.emit`` — counts every emitted topic."""
        self.trace_topics.inc(topic=topic)

    # -- digests ------------------------------------------------------------
    def metrics_digest(self) -> str:
        """:func:`~repro.obs.snapshot.registry_digest` of the live
        registry — the fingerprint :meth:`MergedObs.metrics_digest`
        gives this run's exported view, read without a snapshot."""
        return registry_digest(self.registry)

    def __repr__(self) -> str:
        state = "on" if self.on else "off"
        return (f"<Observability {state} "
                f"families={len(self.registry) if self.registry else 0} "
                f"spans={len(self.tracer.spans) if self.tracer else 0}>")
