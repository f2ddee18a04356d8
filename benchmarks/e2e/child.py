"""One workload in one fresh process (launched by ``cli.py``, never by hand
without the pinned environment): generate inputs, run the end-to-end
phase, then — with ``--trace 1`` — the layer-probe pass, and write the
result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys

from benchmarks.e2e.loader_workloads import LOADER_WORKLOADS, SMOKE_BLOBS, LoaderRun
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.spec import load_declaration, metric_units
from benchmarks.e2e.trace_workload import TraceRun

#: With ``--trace 1`` the end-to-end phase only has to feed the derived
#: per-layer numbers (overhead, efficiency, spawn), so it gets this share
#: of ``--seconds`` and the probe pass the rest.
TRACED_RUN_E2E_SHARE = 0.4


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child (KiB on
    Linux): the workload's main process and its biggest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--digest-only", action="store_true")
    args = parser.parse_args(argv)

    # The span recorder exists only in a traced run: end-to-end numbers
    # are taken with it off.
    recorder = SpanRecorder() if args.trace else None
    seconds = args.seconds * (TRACED_RUN_E2E_SHARE if args.trace else 1.0)
    if args.workload in LOADER_WORKLOADS:
        workload = LOADER_WORKLOADS[args.workload]
        min_pairs = workload.min_pairs
        if args.smoke:
            workload = dataclasses.replace(workload, n_blobs=SMOKE_BLOBS[workload.name])
            min_pairs = 1
        elif args.trace:
            min_pairs = 2  # enough epochs for the derived per-layer numbers
        run = LoaderRun(
            workload, args.seed, seconds, args.work_dir, args.smoke, recorder, min_pairs
        )
    elif args.workload == "trace_analyze":
        run = TraceRun(args.seed, seconds, args.work_dir, args.smoke, recorder)
    else:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        if args.digest_only:
            result = {"input_digest": run.input_digest()}
        else:
            run.run_end_to_end()
            run.e2e["peak_rss_mb"] = peak_rss_mb()
            layers = {}
            if args.trace:
                run.run_layer_probe()
                # A layer that does no work on this workload reports 0.
                layers = {
                    name: run.layers.get(name, 0.0)
                    for name in metric_units(load_declaration(), "per_layer")
                }
            result = {
                "workload": args.workload,
                "seed": args.seed,
                "attempted": run.attempted,
                "failed": run.failed,
                "errors": run.errors,
                "end_to_end": run.e2e,
                "per_layer": layers,
                "counts": run.counts,
                "info": run.info,
            }
    finally:
        run.close()
    if args.trace_out and recorder is not None:
        recorder.write(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
