# Convenience targets for the Viator reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke \
	bench-baseline bench-parallel \
	examples verify demo figures obs-smoke obs-parallel-smoke \
	chaos-smoke recovery-smoke lint shardcheck sanitize-smoke \
	perfbench-check paper-check all clean

install:
	pip install -e .

# Tier-1: the suite under pyproject's testpaths, stopping at the first
# failure.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The paper's own results: every bench under benchmarks/ runs once,
# untimed, and must regenerate its tables and pass its assertions.
paper-check:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

verify:
	PYTHONPATH=src $(PYTHON) -m repro verify

demo:
	PYTHONPATH=src $(PYTHON) -m repro demo

figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

# Deterministic macro-benchmark gate: run the scenario suite and gate
# it against the committed baseline.  Digest mismatch = semantic drift
# = hard failure; normalized throughput may regress at most 25%.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --all --seed 42 \
		--scale short --out /tmp/bench-smoke \
		--compare BENCH_baseline.json --fail-over 25
	@echo "bench-smoke: digests match baseline, throughput in budget"

# Sharded-execution gate: run every shardable scenario partitioned
# into 2 shards on both backends — forked worker processes, then the
# in-process replicas of the inline oracle — and require byte-identical
# digests against the committed single-shard baseline (digests never
# include workers/backend, so the same anchor gates both).  Throughput
# is not the point here — CI runners may be single-core — so the
# regression threshold is slack; the digest check stays hard.
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m repro bench \
		shuttle-storm jet-flood shard-scaling \
		--workers 2 --backend mp --seed 42 --scale short \
		--out /tmp/bench-parallel \
		--compare BENCH_baseline.json --fail-over 90
	PYTHONPATH=src $(PYTHON) -m repro bench \
		shuttle-storm jet-flood shard-scaling \
		--workers 2 --backend inline --seed 42 --scale short \
		--out /tmp/bench-parallel-inline \
		--compare BENCH_baseline.json --fail-over 90
	@echo "bench-parallel: 2-shard digests on both backends byte-identical to the single-shard baseline"

# Regenerate the committed baseline.  The committed file was recorded
# by the reference paths the optimizations replaced, which now live in
# the tests as oracles; today's single code paths reproduce its digests.
bench-baseline:
	PYTHONPATH=src $(PYTHON) -m repro bench --all --seed 42 \
		--scale short --repeats 3 --out /tmp/bench-baseline \
		--combined BENCH_baseline.json

# Observability gate, two legs.  A tiny instrumented demo: its JSONL
# (one simulator's K=1 merged view) must be non-empty, parseable and
# renderable by `repro obs report`.  The smoke campaign's black box:
# its flight ring must hold the kernel events the observation hook
# notes (beside the fabric's deliveries) and render with `repro obs
# flight`.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro demo --nodes 6 --until 60 \
		--obs-out /tmp/obs-smoke.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs import load_jsonl; \
	records = load_jsonl('/tmp/obs-smoke.jsonl'); \
	assert records and records[0]['type'] == 'meta', records[:1]; \
	print(f'obs-smoke: {len(records)} records ok')"
	PYTHONPATH=src $(PYTHON) -m repro obs report /tmp/obs-smoke.jsonl \
		> /dev/null
	@echo "obs-smoke: report rendered ok"
	PYTHONPATH=src $(PYTHON) -m repro chaos --campaign smoke --seed 7 \
		--flight-out /tmp/obs-smoke-flight.jsonl > /dev/null
	grep -q '"kind": "event"' /tmp/obs-smoke-flight.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs flight \
		/tmp/obs-smoke-flight.jsonl > /dev/null
	@echo "obs-smoke: black box written and rendered ok"

# Distributed telemetry gate: a 2-worker mp bench must produce one
# merged obs artifact whose report renders, with the run digest still
# byte-identical to the committed obs-off single-shard baseline.
obs-parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench shard-scaling \
		--workers 2 --backend mp --seed 42 --scale short \
		--out /tmp/obs-parallel-smoke \
		--obs-out /tmp/obs-parallel-smoke.jsonl \
		--compare BENCH_baseline.json --fail-over 90
	PYTHONPATH=src $(PYTHON) -m repro obs report \
		/tmp/obs-parallel-smoke.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro obs timeline \
		/tmp/obs-parallel-smoke.jsonl
	@echo "obs-parallel-smoke: merged 2-shard telemetry rendered, digest gated"

# Static analysis gate: the custom determinism linter is mandatory;
# ruff and mypy run when installed (pip install -e .[lint]) and are
# skipped with a notice otherwise, so the target works in minimal
# containers.  CI installs both, so all three gates bind there.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/ tests/ benchmarks/ \
		--statistics
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else echo "lint: ruff not installed, skipping"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else echo "lint: mypy not installed, skipping"; fi

# Whole-program shard-safety gate: cross-file analysis of the pickle
# boundary, worker-reachable mutable globals, recovery-metric digest
# hygiene, and RNG seed discipline (rules VIA012+).  Unlike `lint`,
# which judges files in isolation, this builds the import/call graph
# and only flags hazards actually reachable from shard entry points.
shardcheck:
	PYTHONPATH=src $(PYTHON) -m repro shardcheck src/ --statistics
	@echo "shardcheck: worker-reachable code is shard-safe"

# Determinism-sanitizer gate, three legs: (1) a taped run of every
# scenario must reproduce the committed sanitizer-off baseline digest
# (recording never perturbs a draw); (2) a telemetry-on A/B diff must
# find zero divergent draws (observability never draws); (3) a
# deliberately injected draw perturbation MUST be caught and localized
# to its stream + call site (the detector detects).
sanitize-smoke:
	PYTHONPATH=src $(PYTHON) -m repro sanitize --all --scale short \
		--compare BENCH_baseline.json
	PYTHONPATH=src $(PYTHON) -m repro sanitize shuttle-storm \
		--scale tiny --against obs
	@if PYTHONPATH=src $(PYTHON) -m repro sanitize event-loop \
		--scale tiny --inject perf.event_loop@5 \
		> /tmp/sanitize-inject.txt; then \
		echo "sanitize-smoke: injected divergence NOT detected"; \
		exit 1; \
	else \
		grep -q "first divergent draw" /tmp/sanitize-inject.txt; \
	fi
	@echo "sanitize-smoke: digests neutral, injection localized"

# Repository-benchmark outcome gate: the perfbench smoke tests, then
# one untimed run of every workload at seeds 1 and 7.  A run exits 1
# when its outcome digest differs from perfbench/digests.json, so a
# change that moves a workload's simulated outcome fails here.  The
# target only runs perfbench; it never edits it.
PERFBENCH_WORKLOADS = growth shuttle-delivery timer-churn sharded-quanta

perfbench-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q perfbench
	@for w in $(PERFBENCH_WORKLOADS); do \
		for s in 1 7; do \
			$(PYTHON) perfbench/run.py --workload $$w --seed $$s \
				--seconds 0 --trace 0 > /dev/null || exit 1; \
		done; \
	done
	@echo "perfbench-check: every workload digest matches perfbench/digests.json"

# Shortest chaos campaign at a fixed seed: exits non-zero if any
# resilience invariant (no silent loss, no double-apply, delivery
# ratio floor) fails.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --campaign smoke --seed 7
	@echo "chaos-smoke: invariants held"

# Fault-tolerant sharding gate (every mp run is supervised; the
# supervised digests themselves are gated by bench-parallel), one leg
# per fault kind and one for the budget: SIGKILL a shard worker before
# an epoch send (the worker-kill campaign asserts the recovered 2-shard
# digest equals the fault-free single-shard digest and that a restart
# actually happened), SIGSTOP one (the worker-stall campaign drives the
# missed reply deadline through the bounded reply wait, the kill of the
# stalled process and its replay), SIGKILL one after its barrier reply
# (the worker-kill-during-handoff campaign finds the death at the next
# send and replays through a half-exchanged barrier), then spend the
# restart budget (the worker-budget-exhausted campaign asserts the run
# degrades to inline with the same digest).  A workload exception is
# not a death: it is raised at once, without a restart.  Recovery must
# be invisible where determinism is judged.
recovery-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --campaign worker-kill \
		--seed 7
	PYTHONPATH=src $(PYTHON) -m repro chaos --campaign worker-stall \
		--seed 7
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--campaign worker-kill-during-handoff --seed 7
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--campaign worker-budget-exhausted --seed 7
	@echo "recovery-smoke: digest-identical recovery and degradation"

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
