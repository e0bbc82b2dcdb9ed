"""The Multidimensional Feedback Principle (MFP) machinery.

Section C.3 enumerates the feedback dimensions an active network opens
up beyond classical per-connection traffic control; this module gives
them a concrete regulation substrate:

* a :class:`FeedbackBus` on which any component reports observations
  tagged ``(dimension, key, metric)`` — EWMA-smoothed per tag;
* :class:`FeedbackController` instances attached to tags, firing a
  control action when the smoothed signal crosses a setpoint (with
  hysteresis so controllers do not flap).

"The number of such interoperating feedback dimensions is virtually
unlimited" — the bus therefore accepts arbitrary dimension strings, but
the paper's named ones are predefined constants.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)


class Dimension:
    """The feedback dimensions named in Section C.3."""

    PER_NODE = "per-node"
    PER_CONFIGURATION = "per-configuration"
    PER_PACKET = "per-packet"
    PER_METHOD = "per-method"
    PER_MULTICAST_BRANCH = "per-multicast-branch"
    PER_MESSAGE = "per-message"
    PER_INTEROP_TASK = "per-interoperability-task"
    PER_APPLICATION = "per-application"
    PER_SESSION = "per-session"
    PER_DATA_LINK = "per-data-link"

    ALL = (PER_NODE, PER_CONFIGURATION, PER_PACKET, PER_METHOD,
           PER_MULTICAST_BRANCH, PER_MESSAGE, PER_INTEROP_TASK,
           PER_APPLICATION, PER_SESSION, PER_DATA_LINK)


Tag = Tuple[str, Hashable, str]          # (dimension, key, metric)
ControlAction = Callable[[Hashable, float, float], None]
# action(key, smoothed_value, setpoint)


class FeedbackController:
    """Threshold controller with hysteresis on one (dimension, metric).

    Fires ``on_high`` when the smoothed signal rises above
    ``setpoint * (1 + hysteresis)`` and ``on_low`` when it falls below
    ``setpoint * (1 - hysteresis)``; at most one transition per
    direction until the opposite band is crossed.
    """

    def __init__(self, dimension: str, metric: str, setpoint: float,
                 on_high: Optional[ControlAction] = None,
                 on_low: Optional[ControlAction] = None,
                 hysteresis: float = 0.1):
        if setpoint <= 0:
            raise ValueError(f"setpoint must be positive: {setpoint}")
        if not (0.0 <= hysteresis < 1.0):
            raise ValueError(f"hysteresis out of [0,1): {hysteresis}")
        self.dimension = dimension
        self.metric = metric
        self.setpoint = float(setpoint)
        self.on_high = on_high
        self.on_low = on_low
        self.hysteresis = float(hysteresis)
        self._state: Dict[Hashable, str] = {}   # key -> "high"/"low"
        self.high_firings = 0
        self.low_firings = 0

    def update(self, key: Hashable, value: float) -> Optional[str]:
        """Feed one smoothed sample; returns 'high'/'low' if it fired."""
        upper = self.setpoint * (1.0 + self.hysteresis)
        lower = self.setpoint * (1.0 - self.hysteresis)
        state = self._state.get(key, "low")
        if state != "high" and value > upper:
            self._state[key] = "high"
            self.high_firings += 1
            if self.on_high is not None:
                self.on_high(key, value, self.setpoint)
            return "high"
        if state != "low" and value < lower:
            self._state[key] = "low"
            self.low_firings += 1
            if self.on_low is not None:
                self.on_low(key, value, self.setpoint)
            return "low"
        return None

    def state(self, key: Hashable) -> str:
        return self._state.get(key, "low")

    def __repr__(self) -> str:
        return (f"<FeedbackController {self.dimension}/{self.metric} "
                f"setpoint={self.setpoint}>")


class FeedbackBus:
    """The multidimensional observation/regulation bus of a WN."""

    def __init__(self, sim, alpha: float = 0.3):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha out of (0,1]: {alpha}")
        self.sim = sim
        self.alpha = float(alpha)
        self._ewma: Dict[Tag, float] = {}
        self._counts: Dict[Tag, int] = {}
        self._controllers: Dict[Tuple[str, str],
                                List[FeedbackController]] = {}
        self.observations = 0

    # -- observation --------------------------------------------------------
    def observe(self, dimension: str, key: Hashable, metric: str,
                value: float) -> float:
        """Report one sample; returns the new smoothed level."""
        tag: Tag = (dimension, key, metric)
        self.observations += 1
        prev = self._ewma.get(tag)
        level = value if prev is None else \
            self.alpha * value + (1.0 - self.alpha) * prev
        self._ewma[tag] = level
        self._counts[tag] = self._counts.get(tag, 0) + 1
        obs = self.sim.obs
        observing = obs.on
        if observing:
            # MFP -> obs routing: every feedback sample is also a metric,
            # so a run can answer "which feedback dimension fired".
            obs.feedback_observations.inc(dimension=dimension,
                                          metric=metric)
            obs.feedback_level.set(level, dimension=dimension, key=key,
                                   metric=metric)
        for controller in self._controllers.get((dimension, metric), ()):
            fired = controller.update(key, level)
            if fired is not None and observing:
                obs.controller_firings.inc(dimension=dimension,
                                           metric=metric, direction=fired)
        return level

    def observe_batch(self, dimension: str, metric: str,
                      items: Sequence[Tuple[Hashable, float]]
                      ) -> List[float]:
        """Report many samples of one ``(dimension, metric)`` at once:
        :meth:`observe` per item, in item order.  Returns the new
        smoothed levels."""
        return [self.observe(dimension, key, metric, value)
                for key, value in items]

    def level(self, dimension: str, key: Hashable,
              metric: str) -> Optional[float]:
        return self._ewma.get((dimension, key, metric))

    def count(self, dimension: str, key: Hashable, metric: str) -> int:
        return self._counts.get((dimension, key, metric), 0)

    # -- regulation -----------------------------------------------------------
    def attach(self, controller: FeedbackController) -> FeedbackController:
        self._controllers.setdefault(
            (controller.dimension, controller.metric), []).append(controller)
        return controller

    def controllers(self) -> List[FeedbackController]:
        return [c for cs in self._controllers.values() for c in cs]

    # -- introspection ----------------------------------------------------
    def active_dimensions(self) -> List[str]:
        """Dimensions with at least one observation — the bench for the
        'virtually unlimited dimensions' claim counts these."""
        return sorted({dim for dim, _, _ in self._ewma})

    def keys_in(self, dimension: str) -> List[Hashable]:
        return sorted({key for dim, key, _ in self._ewma
                       if dim == dimension}, key=repr)

    def snapshot(self) -> Dict[str, Dict]:
        out: Dict[str, Dict] = {}
        for (dim, key, metric), level in sorted(self._ewma.items(),
                                                key=lambda kv: repr(kv[0])):
            out.setdefault(dim, {})[f"{key}/{metric}"] = round(level, 6)
        return out

    def __repr__(self) -> str:
        return (f"<FeedbackBus dims={len(self.active_dimensions())} "
                f"observations={self.observations}>")
