"""Unit tests for simulation resource primitives."""

import pytest

from repro.substrates.sim import Simulator, TokenBucket


class TestTokenBucket:
    def test_burst_is_free(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0, burst=1000.0)
        assert bucket.consume(500.0) == 0.0
        assert bucket.consume(500.0) == 0.0

    def test_overdraft_serializes(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0, burst=100.0)
        assert bucket.consume(100.0) == 0.0
        assert bucket.consume(100.0) == pytest.approx(1.0)
        assert bucket.consume(100.0) == pytest.approx(2.0)

    def test_refill_over_time(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0, burst=100.0)
        bucket.consume(100.0)
        sim.call_in(5.0, lambda: None)
        sim.run()
        assert bucket.tokens == pytest.approx(50.0)

    def test_tokens_capped_at_burst(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0, burst=50.0)
        sim.call_in(100.0, lambda: None)
        sim.run()
        assert bucket.tokens == pytest.approx(50.0)

    def test_rate_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=0.0, burst=1.0)
