"""Runner: launches each workload in a fresh, pinned child process.

    python -m benchmarks.e2e                      # all workloads, every metric
    python -m benchmarks.e2e --workload ic_cold --seed 3 --seconds 20 --trace 0
    python -m benchmarks.e2e --runs 10 --json-out A.json
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e --selfcheck [--runs 10]
    python -m benchmarks.e2e --smoke

The second form is the driver's contract: its last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

import numpy

from benchmarks.e2e import compare as compare_module
from benchmarks.e2e.spec import (
    CHILD_TIMEOUT_S,
    PINNED_ENV_KEYS,
    ROOT,
    SRC,
    WORK_DIR,
    child_env,
    load_declaration,
    metric_units,
    workload_names,
)

SHM_DIR = "/dev/shm"
SMOKE_SECONDS = 1.0


def shm_segments(pid: int) -> List[str]:
    """Names of the program's shm segments owned by main process ``pid``
    (``lt<pid>q...`` transport slabs, ``lt<pid>c...`` cache arenas)."""
    prefixes = (f"lt{pid}q", f"lt{pid}c")
    try:
        return [name for name in os.listdir(SHM_DIR) if name.startswith(prefixes)]
    except OSError:
        return []


class ShmWatch(threading.Thread):
    """Polls ``/dev/shm`` from outside the child for its peak footprint."""

    def __init__(self, pid: int, period_s: float = 0.05) -> None:
        super().__init__(daemon=True)
        self._pid = pid
        self._period_s = period_s
        self._halt = threading.Event()
        self.peak_bytes = 0

    def run(self) -> None:
        while not self._halt.wait(self._period_s):
            total = 0
            for name in shm_segments(self._pid):
                try:
                    # Allocated pages, not the (sparse) segment size.
                    total += os.stat(os.path.join(SHM_DIR, name)).st_blocks * 512
                except OSError:
                    pass  # unlinked between listing and stat
            self.peak_bytes = max(self.peak_bytes, total)

    def stop(self) -> None:
        self._halt.set()
        self.join()


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one workload in a fresh child; returns its result, extended
    with what only the parent can see (shm audit, timeout)."""
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    out_path = work_dir / "result.json"
    env = child_env(seed)
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work-dir", str(work_dir), "--out", str(out_path),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", os.path.abspath(trace_out)]
    began = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    watch = ShmWatch(child.pid)
    if trace:
        watch.start()
    problem = ""
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            problem = f"child exited with code {code}"
    except subprocess.TimeoutExpired:
        problem = f"child exceeded the {CHILD_TIMEOUT_S:.0f} s timeout"
    finally:
        # The child's session holds its loader workers too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        if trace:
            watch.stop()
    leaked = shm_segments(child.pid)
    for name in leaked:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    result: dict = {}
    if not problem:
        with open(out_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    shutil.rmtree(work_dir, ignore_errors=True)
    result.setdefault("workload", workload)
    result.setdefault("seed", seed)
    result["problem"] = problem
    result["run_wall_s"] = time.perf_counter() - began
    result["trace"] = trace
    result.setdefault("per_layer", {})
    result["per_layer"]["shm.leaked_segments"] = float(len(leaked))
    result["per_layer"]["shm.peak_mb"] = watch.peak_bytes / 2**20
    result["env"] = {key: env[key] for key in PINNED_ENV_KEYS}
    result["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    return result


def contract_line(result: dict, declaration: dict) -> dict:
    """The driver's result object for one run."""
    section = "per_layer" if result["trace"] else "end_to_end"
    units = metric_units(declaration, section)
    values = result.get(section, {})
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    complete = len(metrics) == len(units) and all(
        math.isfinite(entry["value"]) for entry in metrics.values()
    )
    attempted = max(int(result.get("attempted", 0)), 1)
    # A dead child delivered nothing: every operation of the run is
    # failed, never skipped.
    failed = attempted if result["problem"] else int(result.get("failed", 0))
    correct = (
        complete
        and not result["problem"]
        and failed == 0
        and result["per_layer"]["shm.leaked_segments"] == 0
    )
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_run(result: dict, declaration: dict) -> None:
    """Every metric of the run by name, with unit and sample counts."""
    host, env = result["host"], result["env"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"wall={result['run_wall_s']:.1f}s nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        + " ".join(f"{key}={value}" for key, value in env.items())
    )
    counts = result.get("counts", {})
    if counts:
        print("# samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for section in ("end_to_end", "per_layer"):
        if section == "per_layer" and not result["trace"]:
            continue
        units = metric_units(declaration, section)
        for name, unit in units.items():
            if name in result.get(section, {}):
                print(f"{name:48s} {result[section][name]:16.6f} {unit}")
    for name, seconds in result.get("info", {}).get("ranking", []):
        print(f"# rank {name:32s} {seconds:10.4f} s")
    for error in result.get("errors", []):
        print(f"# FAILED {error}")
    if result["problem"]:
        print(f"# FAILED {result['problem']}")


def run_suite(args, declaration: dict) -> List[dict]:
    """Every workload (or ``--workload``) x ``--runs`` seeds."""
    names = [args.workload] if args.workload else workload_names(declaration)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(declaration["run_seconds"])
    results = []
    for run in range(args.runs):
        for name in names:
            if args.trace is not None:
                modes = [args.trace]
            elif args.smoke:
                modes = [1]  # a traced run also computes the end-to-end set
            else:
                # Both modes on the first seed (every metric gets
                # printed), end-to-end only on the repeats.
                modes = [0, 1] if run == 0 else [0]
            for trace in modes:
                result = run_child(
                    name, args.seed + run, seconds, trace, args.smoke, args.trace_out
                )
                print_run(result, declaration)
                result["contract"] = contract_line(result, declaration)
                results.append(result)
    return results


def write_results(results: List[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare_module.main(argv[1:])
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument(
        "--json-out",
        help="write every run's result here (--selfcheck: the second suite "
        "goes to <path>.second)",
    )
    parser.add_argument("--trace-out", help="write the probe pass's spans here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the test")
    parser.add_argument("--selfcheck", action="store_true", help="A/A: two suites must agree")
    args = parser.parse_args(argv)
    declaration = load_declaration()
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload and args.workload not in workload_names(declaration):
        parser.error(f"unknown workload {args.workload!r}")

    if args.selfcheck:
        args.trace = 0
        first = run_suite(args, declaration)
        second = run_suite(args, declaration)
        if args.json_out:
            write_results(first, args.json_out)
            write_results(second, args.json_out + ".second")
        return compare_module.selfcheck(first, second, declaration)

    results = run_suite(args, declaration)
    if args.json_out:
        write_results(results, args.json_out)
    # Last line: the driver's contract object (of the last run made).
    print(json.dumps(results[-1]["contract"]))
    return 0 if all(not r["problem"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
