PYTHON ?= python
export PYTHONPATH := src

BENCH_JSON := .bench_current.json
DECODE_BENCH_JSON := .bench_decode.json
TRANSPORT_BENCH_JSON := .bench_transport.json
CACHE_BENCH_JSON := .bench_cache.json
SCHED_BENCH_JSON := .bench_sched.json

.PHONY: test bench bench-check bench-baseline decode-bench transport-bench \
	cache-bench sched-bench bench-e2e-smoke fault-check help

test:
	$(PYTHON) -m pytest -x -q

# Self-describing gate table: every tracked median and same-run speedup
# floor bench-check enforces, straight from check_regression.py.
help:
	@echo "targets: test fault-check bench bench-check bench-baseline"
	@echo "         decode-bench transport-bench cache-bench sched-bench"
	@echo "         bench-e2e-smoke"
	@echo ""
	@$(PYTHON) benchmarks/check_regression.py --list

# Fault-tolerance gate: deterministic FaultPlan chaos tests (failure
# policies, worker crash/hang recovery, queue protocol) on both worker
# backends, plus the trace-side fault-record checks.
fault-check:
	$(PYTHON) -m pytest tests/test_failure_injection.py -q

bench:
	$(PYTHON) -m pytest benchmarks/bench_substrate.py \
		benchmarks/bench_trace_analysis.py \
		benchmarks/bench_preprocessing.py \
		benchmarks/bench_decode_batch.py \
		benchmarks/bench_ipc_transport.py \
		benchmarks/bench_shared_cache.py \
		benchmarks/bench_scheduler.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(BENCH_JSON) -q

# Fail if the microbenchmarks (entropy decode, sample replay, DataLoader
# epoch, trace parse/analyze/export, batched preprocessing, whole-batch
# decode) regressed >25% vs benchmarks/BENCH_baseline.json, or if a
# vectorized path dropped below its floor over the retained reference
# (3x decode/replay, 10x trace, 1.8x batched preprocessing with decode
# included, 2.5x whole-batch decode, 5x warm cache lookup, 2x shm
# transport over the pickle oracle, 2x shared-arena warm epoch over
# private per-worker caches, 1.5x work-stealing epoch over static
# dispatch on both backends). Run `make help` to see the full table.
bench-check: bench
	$(PYTHON) benchmarks/check_regression.py $(BENCH_JSON)

# Refresh the committed baseline after an intentional perf change.
bench-baseline: bench
	$(PYTHON) benchmarks/check_regression.py $(BENCH_JSON) --update

# Standalone ISSUE 6 gate: cold whole-batch decode vs per-image loop
# (>= 2.5x at batch 64) and warm CachingLoader batch lookup, without
# rerunning the full bench suite.
decode-bench:
	$(PYTHON) -m pytest benchmarks/bench_decode_batch.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(DECODE_BENCH_JSON) -q
	$(PYTHON) benchmarks/check_regression.py $(DECODE_BENCH_JSON) \
		--only decode_batch,decode_cache

# Standalone ISSUE 7 gate: shm slab hand-off vs the pickle oracle
# (>= 2x at batch 64), without rerunning the full bench suite.
transport-bench:
	$(PYTHON) -m pytest benchmarks/bench_ipc_transport.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(TRANSPORT_BENCH_JSON) -q
	$(PYTHON) benchmarks/check_regression.py $(TRANSPORT_BENCH_JSON) \
		--only transport

# Standalone ISSUE 8 gate: warm epoch through the shared decoded-sample
# arena vs private per-worker caches (>= 2x at 4 workers, equal
# per-worker capacity), without rerunning the full bench suite.
cache-bench:
	$(PYTHON) -m pytest benchmarks/bench_shared_cache.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(CACHE_BENCH_JSON) -q
	$(PYTHON) benchmarks/check_regression.py $(CACHE_BENCH_JSON) \
		--only shared_cache

# Standalone ISSUE 10 gate: work-stealing epoch vs static § II-B
# dispatch on a skewed-decode-cost workload (>= 1.5x at 4 workers, both
# backends), without rerunning the full bench suite.
sched-bench:
	$(PYTHON) -m pytest benchmarks/bench_scheduler.py --benchmark-only \
		--benchmark-disable-gc --benchmark-json=$(SCHED_BENCH_JSON) -q
	$(PYTHON) benchmarks/check_regression.py $(SCHED_BENCH_JSON) \
		--only sched_stealing

# End-to-end benchmark smoke (benchmarks/e2e, the BENCHMARK.json
# contract): all four workloads at tiny sizes, then the benchmark's own
# tests. The only gate that runs test_layer_budget_closes, i.e. the
# guard that a num_workers=0 epoch stays the strictly serial reference
# the per-layer budget is closed against (DESIGN.md §13).
bench-e2e-smoke:
	$(PYTHON) -m benchmarks.e2e --smoke
	$(PYTHON) -m pytest benchmarks/e2e/test_bench_e2e.py -q
