"""The profiler user's side: parse -> analyze -> report -> coarse export.

One *pass* runs the four public ``core.lotustrace`` consumers over a log
file, timing each stage from outside. Used on the big generated log
(``trace_analyze``) and, by the loader workloads, on the log their own
traced epochs just wrote.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from benchmarks.e2e.spans import SpanRecorder
from repro.core.lotustrace.analysis import analyze_trace, out_of_order_events
from repro.core.lotustrace.autoreport import generate_report
from repro.core.lotustrace.chrometrace import to_chrome_trace
from repro.core.lotustrace.columns import (
    KIND_STRINGS,
    TraceColumns,
    parse_trace_file_columns,
)
from repro.core.lotustrace.engine import analysis_engine
from repro.core.lotustrace.logfile import parse_trace_file

STAGES = ("parse", "analyze", "report", "export")


def one_pass(path, recorder: Optional[SpanRecorder] = None, pass_id: int = -1):
    """Run the four stages once; returns ``(stage seconds, results)``."""
    clock = time.perf_counter
    span = recorder.span if recorder is not None else _no_span
    marks = [clock()]
    with span("lotustrace.pass", pass_id):
        with span("lotustrace.parse", pass_id):
            columns = parse_trace_file_columns(path)
        marks.append(clock())
        with span("lotustrace.analyze", pass_id):
            analysis = analyze_trace(columns)
        marks.append(clock())
        with span("lotustrace.report", pass_id):
            report = generate_report(columns)
        marks.append(clock())
        with span("lotustrace.export", pass_id):
            chrome = to_chrome_trace(columns, coarse=True)
        marks.append(clock())
    stage_s = [after - before for before, after in zip(marks, marks[1:])]
    return stage_s, (columns, analysis, report, chrome)


def _no_span(*_args):
    return nullcontext()


class AnalysisPasses:
    """Repeated passes over one log: best pass, per-stage medians."""

    def __init__(self, path) -> None:
        self.path = path
        self.walls_s: List[float] = []
        self.stage_s: List[List[float]] = []
        self.n_records = 0
        self.columns_bytes = 0
        self.results = None

    def run(
        self,
        min_passes: int,
        seconds: float,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        """Passes until ``seconds`` have elapsed and ``min_passes`` ran."""
        begin = time.perf_counter()
        while True:
            stage_s, self.results = one_pass(self.path, recorder, len(self.walls_s))
            self.stage_s.append(stage_s)
            self.walls_s.append(sum(stage_s))
            elapsed = time.perf_counter() - begin
            pass_s = elapsed / len(self.walls_s)
            if len(self.walls_s) >= min_passes and elapsed + pass_s / 2 >= seconds:
                break
        columns: TraceColumns = self.results[0]
        self.n_records = len(columns)
        self.columns_bytes = sum(
            getattr(columns, name).nbytes
            for name in (
                "kind", "name_id", "batch_id", "worker_id", "pid",
                "start_ns", "duration_ns", "out_of_order",
            )
        )

    def best_pass_s(self) -> float:
        return min(self.walls_s)

    def records_per_s(self) -> float:
        """At the fastest pass (README, "Why rates are reported at the
        best epoch")."""
        return self.n_records / self.best_pass_s()

    def stage_metrics(self) -> Dict[str, float]:
        """``lotustrace.<stage>_s_per_mrec`` medians and the column
        store's footprint per million records."""
        mrec = self.n_records / 1e6
        metrics = {
            f"lotustrace.{stage}_s_per_mrec": float(
                statistics.median(row[i] for row in self.stage_s)
            )
            / mrec
            for i, stage in enumerate(STAGES)
        }
        metrics["lotustrace.columns_mb_per_mrec"] = self.columns_bytes / 2**20 / mrec
        return metrics


def kind_counts(columns: TraceColumns) -> Dict[str, int]:
    codes, counts = np.unique(columns.kind, return_counts=True)
    return {
        KIND_STRINGS[code]: count
        for code, count in zip(codes.tolist(), counts.tolist())
    }


def oracle_mismatches(path) -> List[str]:
    """Where the columnar engine and the retained ``records`` oracle
    disagree on ``path`` (empty when they agree on every compared
    surface: parsed records, batch flows, op tables, waits, delays, OOO
    events, fault counts, transport / cache / sched stats, the report
    text and the coarse Chrome export)."""
    columns = parse_trace_file_columns(path)
    fast = analyze_trace(columns)
    fast_report = generate_report(columns).format()
    fast_chrome = json.dumps(to_chrome_trace(columns, coarse=True))
    with analysis_engine("records"):
        records = parse_trace_file(path)
        slow = analyze_trace(records)
        slow_report = generate_report(records).format()
        slow_chrome = json.dumps(to_chrome_trace(records, coarse=True))
    checks = {
        "parsed records": columns.to_records() == records,
        "num_batches": fast.num_batches() == slow.num_batches(),
        "batches": fast.batches == slow.batches,
        "op_durations": fast.op_durations == slow.op_durations,
        "op_batch_ids": fast.op_batch_ids == slow.op_batch_ids,
        "op_total_cpu_ns": fast.op_total_cpu_ns() == slow.op_total_cpu_ns(),
        "preprocess_times": fast.preprocess_times_ns() == slow.preprocess_times_ns(),
        "wait_times": fast.wait_times_ns() == slow.wait_times_ns(),
        "delay_times": fast.delay_times_ns() == slow.delay_times_ns(),
        "ooo_events": out_of_order_events(fast) == out_of_order_events(slow),
        "fault_counts": fast.fault_counts() == slow.fault_counts(),
        "skipped_indices": fast.skipped_sample_indices() == slow.skipped_sample_indices(),
        "transport_stats": fast.transport_stats() == slow.transport_stats(),
        "cache_stats": fast.cache_stats() == slow.cache_stats(),
        "sched_stats": fast.sched_stats() == slow.sched_stats(),
        "report": fast_report == slow_report,
        "chrome": fast_chrome == slow_chrome,
    }
    return [name for name, same in checks.items() if not same]
