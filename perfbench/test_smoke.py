"""Smoke tests for the benchmark at its tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_completes_with_a_repeatable_digest(name):
    first = run.measure(WORKLOADS[name], seed=3, scale="tiny")
    second = run.measure(WORKLOADS[name], seed=3, scale="tiny")
    assert first.ops > 0
    assert first.failed == 0
    assert first.digest == second.digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_the_declaration(name, trace):
    result = run.run_benchmark(name, seed=3, seconds=0, trace=trace,
                               scale="tiny")
    assert result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert tracing.leftover_wrappers(GENERATORS) == []


def test_traced_run_removes_every_wrapper():
    tracer = tracing.SpanTracer()
    tracer.install(GENERATORS)
    try:
        assert tracing.leftover_wrappers(GENERATORS)
        run.measure(WORKLOADS["timer-churn"], seed=3, scale="tiny")
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers(GENERATORS) == []
    assert tracer.self_s["sim.kernel"] > 0
