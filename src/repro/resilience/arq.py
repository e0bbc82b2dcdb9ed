"""Reliable shuttle transport: end-to-end ARQ over the lossy fabric.

``NetworkFabric.send`` is fire-and-forget — a link flap silently eats
the shuttle and the reconfiguration directive it carried.  The
:class:`ReliableTransport` closes that loop end to end:

* every tracked shuttle carries a stable message id in
  ``meta["arq"]`` (it survives cloning, so retransmissions share it);
* the destination ship acknowledges the dock with a small datagram
  routed back to the source (see :meth:`repro.core.ship.Ship.
  process_shuttle`);
* a missing ack retransmits a pristine clone after an exponentially
  backed-off timeout with deterministic jitter (drawn from the
  ``resilience.arq`` RNG stream, so runs stay reproducible);
* an exhausted attempt budget dead-letters the shuttle with a reason
  code — delivery and the DLQ partition the sent set, no silent loss.

Duplicate deliveries caused by retransmission (shuttle docked, ack
lost) are suppressed receiver-side by the ship's shuttle ledger, making
the ARQ's at-least-once delivery effectively exactly-once application.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable

from .dlq import (DeadLetterQueue, REASON_MAX_ATTEMPTS, REASON_SHUTDOWN,
                  REASON_SOURCE_DEAD)
from .wire import ACK_KIND, ARQ_META_KEY

NodeId = Hashable


class PendingDelivery:
    """One in-flight reliable delivery (source-side state)."""

    __slots__ = ("msg_id", "template", "src", "dst", "attempts",
                 "first_sent_at", "timer")

    def __init__(self, msg_id: str, template, src: NodeId, dst: NodeId,
                 first_sent_at: float):
        self.msg_id = msg_id
        self.template = template
        self.src = src
        self.dst = dst
        self.attempts = 0
        self.first_sent_at = first_sent_at
        self.timer = None

    def __repr__(self) -> str:
        return (f"<PendingDelivery {self.msg_id} {self.src}->{self.dst} "
                f"attempts={self.attempts}>")


class ReliableTransport:
    """End-to-end acked shuttle delivery with retransmission and a DLQ.

    Parameters
    ----------
    base_timeout / backoff_factor / max_timeout:
        Attempt *n* waits ``min(base * factor**(n-1), max)`` seconds
        (plus jitter) for its ack before retransmitting.
    max_attempts:
        Total transmission budget per shuttle; ``1`` disables
        retransmission (the ARQ-off baseline of the chaos campaigns).
    jitter:
        Each timeout is stretched by ``uniform(0, jitter)`` of itself,
        drawn from the ``resilience.arq`` stream.
    """

    STREAM = "resilience.arq"

    def __init__(self, sim, ships: Dict[NodeId, object], *,
                 base_timeout: float = 1.0, backoff_factor: float = 2.0,
                 max_timeout: float = 30.0, max_attempts: int = 6,
                 jitter: float = 0.25):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        self.sim = sim
        self.ships = ships
        self.base_timeout = float(base_timeout)
        self.backoff_factor = float(backoff_factor)
        self.max_timeout = float(max_timeout)
        self.max_attempts = int(max_attempts)
        self.jitter = float(jitter)
        self.dlq = DeadLetterQueue(sim)
        self._pending: Dict[str, PendingDelivery] = {}
        self._msg_ids = itertools.count(1)
        self._attached: set = set()
        self.sent = 0
        self.delivered = 0
        self.retries = 0
        self.acks_received = 0
        self.late_acks = 0
        self.latency_sum = 0.0
        for ship in list(ships.values()):
            self.attach(ship)

    # -- wiring ------------------------------------------------------------
    def attach(self, ship) -> None:
        """Subscribe to a ship's local deliveries to harvest acks."""
        if ship.ship_id in self._attached:
            return
        self._attached.add(ship.ship_id)
        ship.on_deliver(self._ack_sink)

    # -- sending -----------------------------------------------------------
    def send(self, src: NodeId, shuttle) -> str:
        """Reliably deliver ``shuttle`` from ``src``; returns the message
        id.  The passed shuttle becomes the retransmission template and
        is never itself transmitted — each attempt sends a fresh clone,
        so in-flight TTL/hop mutation cannot corrupt later attempts."""
        if shuttle.is_broadcast:
            raise ValueError("reliable transport is unicast-only")
        msg_id = f"m{next(self._msg_ids)}"
        shuttle.meta[ARQ_META_KEY] = {"msg": msg_id, "src": src}
        if hasattr(shuttle, "freeze_cargo"):
            # CoW: every retransmission clone shares the template's
            # frozen cargo tuple instead of rebuilding a directive list.
            shuttle.freeze_cargo()
        pending = PendingDelivery(msg_id, shuttle, src, shuttle.dst,
                                  self.sim.now)
        self._pending[msg_id] = pending
        self.sent += 1
        obs = self.sim.obs
        if obs.on:
            obs.resilience_events.inc(event="send")
        self._transmit(pending)
        return msg_id

    def _transmit(self, pending: PendingDelivery) -> None:
        pending.attempts += 1
        src_ship = self.ships.get(pending.src)
        if src_ship is None or not src_ship.alive:
            self._dead_letter(pending, REASON_SOURCE_DEAD)
            return
        copy = pending.template.clone()
        copy.created_at = self.sim.now
        src_ship.send_toward(copy)
        pending.timer = self.sim.call_in(
            self._timeout_for(pending.attempts), self._on_timeout,
            pending.msg_id, name="arq-timeout")

    def _timeout_for(self, attempt: int) -> float:
        base = min(self.base_timeout * self.backoff_factor ** (attempt - 1),
                   self.max_timeout)
        if self.jitter <= 0:
            return base
        rng = self.sim.rng.stream(self.STREAM)
        return base * (1.0 + rng.uniform(0.0, self.jitter))

    # -- timeouts and acks -------------------------------------------------
    def _on_timeout(self, msg_id: str) -> None:
        pending = self._pending.get(msg_id)
        if pending is None:
            return
        if pending.attempts >= self.max_attempts:
            self._dead_letter(pending, REASON_MAX_ATTEMPTS)
            return
        self.retries += 1
        obs = self.sim.obs
        if obs.on:
            obs.resilience_events.inc(event="retry")
        self.sim.trace.emit("resilience.arq.retry", msg=msg_id,
                            attempt=pending.attempts + 1, dst=pending.dst)
        self._transmit(pending)

    def _ack_sink(self, packet, from_node) -> None:
        payload = packet.payload
        if not isinstance(payload, dict) or payload.get("kind") != ACK_KIND:
            return
        self.acks_received += 1
        pending = self._pending.pop(payload.get("msg"), None)
        if pending is None:
            self.late_acks += 1
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self.delivered += 1
        latency = self.sim.now - pending.first_sent_at
        self.latency_sum += latency
        obs = self.sim.obs
        if obs.on:
            obs.resilience_events.inc(event="delivered")
            obs.arq_delivery_latency.observe(latency)
        self.sim.trace.emit("resilience.arq.delivered", msg=pending.msg_id,
                            dst=pending.dst, attempts=pending.attempts)

    def _dead_letter(self, pending: PendingDelivery, reason: str) -> None:
        self._pending.pop(pending.msg_id, None)
        if pending.timer is not None:
            pending.timer.cancel()
        self.dlq.push(pending.msg_id, pending.src, pending.dst,
                      pending.attempts, reason, pending.template)
        if self.sim.obs.on:
            self.sim.obs.resilience_events.inc(event="dead-letter")

    # -- lifecycle / accounting --------------------------------------------
    def finalize(self, reason: str = REASON_SHUTDOWN) -> int:
        """Dead-letter every unresolved delivery (end of run).  After
        this, ``delivered + len(dlq) == sent`` holds exactly."""
        unresolved = list(self._pending.values())
        for pending in unresolved:
            self._dead_letter(pending, reason)
        return len(unresolved)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 1.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.delivered if self.delivered else 0.0

    def __repr__(self) -> str:
        return (f"<ReliableTransport sent={self.sent} "
                f"delivered={self.delivered} retries={self.retries} "
                f"dlq={len(self.dlq)} outstanding={self.outstanding}>")
