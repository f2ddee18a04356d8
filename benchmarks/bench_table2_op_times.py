"""Table II: per-operation elapsed-time statistics for IC, IS, OD."""

from benchmarks.conftest import attach_report, result_with_retry
from repro.experiments.table2_op_times import format_table2, run_table2
from repro.workloads import BENCH


def _ic_ordering_holds(result) -> bool:
    ic = {row.op: row for row in result.pipelines["IC"]}
    return (
        ic["Loader"].avg_ms > ic["RandomResizedCrop"].avg_ms
        > ic["RandomHorizontalFlip"].avg_ms
    )


def test_table2_op_times(benchmark):
    # The ordering is a comparison of wall-clock means, which a busy
    # machine can flip for one run; one retry with another seed.
    result = result_with_retry(
        benchmark,
        run_table2,
        accept=_ic_ordering_holds,
        retry_kwargs={"seed": 1},
        profile=BENCH,
        num_workers=2,
        seed=0,
    )
    attach_report(benchmark, "Table II: per-op elapsed times", format_table2(result))
    ic = {row.op: row for row in result.pipelines["IC"]}
    # Loader dominates IC, then RRC; the flip is sub-100us almost always;
    # every pipeline contains sub-10ms operations (Takeaway 1).
    assert _ic_ordering_holds(result)
    assert ic["RandomHorizontalFlip"].pct_under_100us > 50
    for rows in result.pipelines.values():
        assert any(row.pct_under_10ms > 90 for row in rows)
