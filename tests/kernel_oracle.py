"""The kernel's reference run loop, kept as a test oracle.

:class:`ReferenceSimulator` is a :class:`Simulator` whose run loop
calls ``peek()`` and ``step()`` once per event, the loop that
``Simulator.run`` writes inline.  Everything else (scheduling, the
agenda, ``run()``'s prologue and epilogue) is inherited, so a test
that drives both classes with the same steps diffs exactly the two
loops.
"""

from repro.substrates.sim.kernel import Simulator

_INF = float("inf")


class ReferenceSimulator(Simulator):
    """A simulator that runs the reference loop instead of the inline one."""

    def _loop(self, until, max_events):
        """Fire one event at a time: ``peek()``, then ``step()``."""
        executed = 0
        budget_hit = False
        while not self._stopped:
            nxt = self.peek()
            if nxt == _INF:
                break
            if until is not None and nxt > until:
                self._now = until
                break
            if max_events is not None and executed >= max_events:
                # Clock stays at the last executed event: pending events
                # at times <= until remain, so advancing to ``until``
                # here would let time run backwards on resume.
                budget_hit = True
                break
            self.step()
            executed += 1
        if (until is not None and self._now < until
                and not self._stopped and not budget_hit):
            self._now = until


def simulator(fast, seed=0):
    """The inline-loop :class:`Simulator` when ``fast``, else the oracle."""
    return (Simulator if fast else ReferenceSimulator)(seed=seed)
