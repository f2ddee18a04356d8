"""``trace_analyze``: the profiler user's side on a ~1 M-record log.

The only workload where ``core.lotustrace`` *analysis* does the work and
no loader layer does any. Operation = one analysis pass.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

from benchmarks.e2e.analysis_pass import (
    STAGES,
    AnalysisPasses,
    kind_counts,
    oracle_mismatches,
)
from benchmarks.e2e.inputs import TraceLogFacts, write_trace_log
from benchmarks.e2e.loader_workloads import persistent_pool_canary
from benchmarks.e2e.spans import SpanRecorder
from repro.core.lotustrace.analysis import out_of_order_events

TARGET_RECORDS = 1_000_000
SMOKE_RECORDS = 30_000
#: Lines of the big log checked against the ``records`` oracle engine
#: (it is ~10x slower than the columnar one, so not the whole log).
ORACLE_SLICE_LINES = 20_000
#: Fresh interpreters timed for ``setup_s`` (import + first cold pass).
N_COLD_LAUNCHES = 3

_COLD_PASS = (
    "import sys; from benchmarks.e2e.analysis_pass import one_pass; "
    "one_pass(sys.argv[1])"
)


class TraceRun:
    """Everything one child process does for ``trace_analyze``."""

    def __init__(
        self,
        seed: int,
        seconds: float,
        work_dir,
        smoke: bool,
        recorder: Optional[SpanRecorder],
    ) -> None:
        self.seed = seed
        self.recorder = recorder
        self.seconds = seconds
        self.work_dir = work_dir
        self.smoke = smoke
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = {}
        self.info: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def input_digest(self) -> str:
        self.log_path = os.path.join(self.work_dir, "trace_analyze.log")
        begin = time.perf_counter()
        self.facts = write_trace_log(
            self.log_path, SMOKE_RECORDS if self.smoke else TARGET_RECORDS, self.seed
        )
        self.gen_input_s = time.perf_counter() - begin
        return self.facts.digest

    def run_end_to_end(self) -> None:
        self.info["input_digest"] = self.input_digest()
        facts = self.facts

        cold_s = []
        for _ in range(N_COLD_LAUNCHES):
            begin = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", _COLD_PASS, self.log_path],
                check=True,
                timeout=120,
            )
            cold_s.append(time.perf_counter() - begin)

        self._verify_oracle_slice()
        passes = self.passes = AnalysisPasses(self.log_path)
        passes.run(min_passes=2, seconds=self.seconds, recorder=self.recorder)
        self.attempted += len(passes.walls_s)
        self._verify_counts(facts)

        pass_ms = float(statistics.median(passes.walls_s)) * 1e3
        samples_per_s = facts.n_samples / passes.best_pass_s()
        # No loader runs here; the loader-side names carry this
        # workload's analogue so every metric exists on every workload
        # (README, "Metrics on workloads they were not defined on").
        self.e2e = {
            "samples_per_s": samples_per_s,
            "traced_samples_per_s": samples_per_s,
            "wait_p50_ms": pass_ms,
            "wait_p95_ms": pass_ms,
            "analyze_records_per_s": passes.records_per_s(),
            "setup_s": float(statistics.median(cold_s)),
        }
        self.counts = {
            "analysis_passes": len(passes.walls_s),
            "analysis_records": passes.n_records,
            "wait_samples": len(passes.walls_s),
            "setups": len(cold_s),
        }

    def _verify_oracle_slice(self) -> None:
        slice_path = os.path.join(self.work_dir, "trace_analyze.slice.log")
        with open(self.log_path, "rb") as src, open(slice_path, "wb") as dst:
            for _, line in zip(range(ORACLE_SLICE_LINES), src):
                dst.write(line)
        self.attempted += 1
        wrong = oracle_mismatches(slice_path)
        if wrong:
            self.failed += 1
            self.errors.append(f"columnar != records oracle on: {', '.join(wrong)}")

    def _verify_counts(self, facts: TraceLogFacts) -> None:
        """The last pass's results against what the generator wrote."""
        columns, analysis, report, chrome = self.passes.results
        checks = {
            "records": len(columns) == facts.n_records,
            "kind counts": kind_counts(columns) == facts.kind_counts,
            "batches": analysis.num_batches() == facts.n_batches,
            "out-of-order": len(out_of_order_events(analysis)) == facts.n_out_of_order,
            "report": bool(report.op_ranking),
            "export": len(chrome["traceEvents"]) > 2 * facts.n_batches,
        }
        wrong = [name for name, same in checks.items() if not same]
        if wrong:
            # Every pass computed the same wrong answer.
            self.failed += len(self.passes.walls_s)
            self.errors.append(f"analysis disagrees with the generator on: {wrong}")

    def run_layer_probe(self) -> None:
        """Stage budget from the spans the passes were run under."""
        layers = self.layers
        layers.update(self.passes.stage_metrics())
        # Workload-independent, so it is run here too rather than read 0.
        layers["loader.persistent_epochs_ok"] = persistent_pool_canary(self.smoke)
        total_ns = self.recorder.total_ns()
        n_passes = len(self.passes.walls_s)
        layers["closure.serial_epoch_s"] = total_ns["lotustrace.pass"] / 1e9 / n_passes
        layers["closure.layer_sum_s"] = (
            sum(total_ns[f"lotustrace.{stage}"] for stage in STAGES) / 1e9 / n_passes
        )
        layers["closure.residual_frac"] = abs(
            1.0 - layers["closure.layer_sum_s"] / layers["closure.serial_epoch_s"]
        )
        layers["gen.input_s"] = self.gen_input_s
        self.info["ranking"] = sorted(
            (
                (f"lotustrace.{stage}", total_ns[f"lotustrace.{stage}"] / 1e9 / n_passes)
                for stage in STAGES
            ),
            key=lambda item: -item[1],
        )

    def close(self) -> None:
        pass
