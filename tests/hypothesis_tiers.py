"""Tiered Hypothesis settings for the property tests.

Tiers, by how much a failure would cost and how much one example costs:

- ``DETERMINISM_SETTINGS``: 500 examples, digest and canonical-order tests
- ``STATE_MACHINE_SETTINGS``: 200 examples, stateful tests
- ``STANDARD_SETTINGS``: 100 examples, regular property tests
- ``SLOW_SETTINGS``: 50 examples, tests that build a simulator
- ``QUICK_SETTINGS``: 20 examples, fast validation tests

No tier has a per-example deadline: the suite runs on shared hosts
whose speed swings between windows, and a deadline there only adds
flaky failures.
"""

from hypothesis import settings

DETERMINISM_SETTINGS = settings(max_examples=500, deadline=None)
STATE_MACHINE_SETTINGS = settings(max_examples=200, deadline=None)
STANDARD_SETTINGS = settings(max_examples=100, deadline=None)
SLOW_SETTINGS = settings(max_examples=50, deadline=None)
QUICK_SETTINGS = settings(max_examples=20, deadline=None)
