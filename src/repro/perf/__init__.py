"""repro.perf: the deterministic throughput harness (``repro bench``).

:mod:`repro.perf.harness` and :mod:`repro.perf.scenarios` hold the
macro-benchmark suite: seeded scenarios whose *digests* are pure
functions of (seed, scale) and whose throughput numbers anchor the
``BENCH_*.json`` trajectory.  Every hot-path optimization has one code
path; its reference lives in the tests as an oracle (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from .digest import canonical_digest, run_digest
from .harness import (BenchResult, compare, load_results, run_all,
                      run_scenario, write_results)
from .scenarios import SCENARIOS, SHARD_WORKLOADS

__all__ = [
    "BenchResult", "SCENARIOS", "SHARD_WORKLOADS", "run_scenario",
    "run_all", "compare", "write_results", "load_results",
    "run_digest", "canonical_digest",
]
