"""The Dualistic Congruence Principle (DCP) machinery.

"The Dualistic Congruence Principle states that a ship's architecture
reflects the shuttle's structure at some previous step and vice versa."

This module provides the *measure* side of the principle: a congruence
score between two ployon structures, and a per-ship tracker that
verifies, over time, that processing shuttles actually pulls the ship's
architecture toward the structures it processed (and that emitted
shuttles reflect the ship).  The *mechanism* side lives in the ship's
shuttle interpreter (directives change architecture) and in
:meth:`~repro.core.shuttle.Shuttle.morph_for` (shuttles adapt to ships).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

#: A ployon structure: component name -> tuple of names.
Structure = Dict[str, Any]

#: Weights of the structural components in the congruence score.
COMPONENT_WEIGHTS = {
    "functions": 0.45,
    "hardware": 0.2,
    "knowledge": 0.2,
    "interface": 0.15,
}


def _jaccard(a, b) -> float:
    sa, sb = set(a or ()), set(b or ())
    if not sa and not sb:
        return 1.0
    union = sa | sb
    return len(sa & sb) / len(union)


def congruence(structure_a: Structure, structure_b: Structure) -> float:
    """Weighted structural similarity of two ployons, in [0, 1].

    1.0 means the ship's architecture and the shuttle's structure are
    images of each other in the shared ployon vocabulary.
    """
    score = 0.0
    for key, weight in COMPONENT_WEIGHTS.items():
        score += weight * _jaccard(structure_a.get(key),
                                   structure_b.get(key))
    return score


class CongruenceTracker:
    """Observes a ship's DCP behaviour over a sliding window.

    ``record_processed`` is called at each dock with the shuttle's
    structure and the ship's structure before and after processing it;
    ``record_emitted`` with the structure of a shuttle the ship created
    and the ship's own.  The tracker keeps the last ``window`` of each
    and scores them with :func:`congruence` only when read, so it holds
    references: a recorded structure must not be mutated afterwards.
    ``reflection_gain`` answers the DCP question directly: did
    processing the shuttle move the ship's structure toward the
    shuttle's?
    """

    def __init__(self, window: int = 64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        # (time, shuttle structure, ship before, ship after)
        self._processed: Deque[Tuple[float, Structure, Structure,
                                     Structure]] = deque(maxlen=window)
        # (time, shuttle structure, ship structure)
        self._emitted: Deque[Tuple[float, Structure, Structure]] = deque(
            maxlen=window)
        self.shuttles_processed = 0
        self.shuttles_emitted = 0

    def record_processed(self, now: float, shuttle_structure: Structure,
                         ship_before: Structure,
                         ship_after: Structure) -> None:
        self._processed.append((now, shuttle_structure, ship_before,
                                ship_after))
        self.shuttles_processed += 1

    def record_emitted(self, now: float, shuttle_structure: Structure,
                       ship_structure: Structure) -> None:
        self._emitted.append((now, shuttle_structure, ship_structure))
        self.shuttles_emitted += 1

    # -- DCP verdicts ------------------------------------------------------
    def reflection_gain(self) -> float:
        """Mean (after - before) congruence across processed shuttles.

        Positive means the ship's architecture moves toward the shuttle
        structures it processes — the forward direction of the DCP.
        """
        history = self.history()
        if not history:
            return 0.0
        return sum(after - before
                   for _, before, after in history) / len(history)

    def emission_congruence(self) -> float:
        """Mean congruence of emitted shuttles with the emitting ship —
        the reverse direction of the DCP ("and vice versa")."""
        if not self._emitted:
            return 0.0
        return sum(congruence(ship, shuttle)
                   for _, shuttle, ship in self._emitted) / len(self._emitted)

    def history(self) -> List[Tuple[float, float, float]]:
        """``(time, congruence before, congruence after)`` per processed
        shuttle in the window; a dock that left the ship's structure
        the same object is scored once."""
        rows = []
        for now, shuttle, before, after in self._processed:
            score = congruence(before, shuttle)
            rows.append((now, score, score if after is before
                         else congruence(after, shuttle)))
        return rows

    def __repr__(self) -> str:
        return (f"<CongruenceTracker processed={self.shuttles_processed} "
                f"gain={self.reflection_gain():+.3f} "
                f"emit={self.emission_congruence():.3f}>")
