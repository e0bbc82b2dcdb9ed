"""Link bandwidth shaping: the token bucket the physical fabric uses.

A :class:`TokenBucket` models a link's transmission queue.  It does not
block anyone: ``consume`` returns the delay until the tokens exist, and
the caller schedules its next step that far ahead.
"""

from __future__ import annotations

from .kernel import Simulator


class TokenBucket:
    """A token-bucket rate limiter used for link bandwidth shaping.

    Tokens accrue at ``rate`` per second up to ``burst``.  ``consume(n)``
    returns the delay until ``n`` tokens are available (0.0 when they
    already are) and debits them; the caller schedules accordingly.
    """

    def __init__(self, sim: Simulator, rate: float, burst: float,
                 name: str = "bucket"):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.burst = float(burst)
        self.name = name
        self._tokens = float(burst)
        self._last = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def consume(self, amount: float) -> float:
        """Debit ``amount`` tokens; return the wait until they exist.

        The bucket may go negative, which serializes subsequent senders —
        exactly the behaviour of a FIFO transmission queue.
        """
        self._refill()
        self._tokens -= amount
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate

    def __repr__(self) -> str:
        return f"<TokenBucket {self.name} tokens={self.tokens:.3g}>"
