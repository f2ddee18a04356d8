"""``compare A.json B.json``: one row per workload x end-to-end metric.

A and B are ``--json-out`` files of two suites (A is the base). Verdicts
follow the choosing-metrics guide: ``worse`` / ``better`` when B's
median differs from A's by more than the metric's bound; ``unresolved``
when a side's own run-to-run spread (quartile distance over median)
exceeds the bound and the two sides' runs overlap; ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.spec import load_declaration


def by_workload_metric(results: Sequence[dict]) -> Dict[Tuple[str, str], List[float]]:
    """End-to-end values of the untraced-by-the-benchmark runs."""
    table: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for result in results:
        if result["trace"] or result["problem"]:
            continue
        for name, value in result["end_to_end"].items():
            table[(result["workload"], name)].append(value)
    return table


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    gain = (new_median - base_median) / base_median
    if better == "lower":
        gain = -gain
    if max(spread(base), spread(new)) > bound:
        if min(new) > max(base) or max(new) < min(base):
            return "better" if gain > 0 else "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def compare(first: Sequence[dict], second: Sequence[dict], declaration: dict) -> List[dict]:
    base_table, new_table = by_workload_metric(first), by_workload_metric(second)
    rows = []
    for workload in (entry["name"] for entry in declaration["workloads"]):
        for metric in declaration["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_table or key not in new_table:
                continue
            base, new = base_table[key], new_table[key]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "base": quartiles(base),
                    "new": quartiles(new),
                    "n": (len(base), len(new)),
                    "spread": (spread(base), spread(new)),
                    "verdict": verdict(base, new, metric["bound"], metric["better"]),
                }
            )
    return rows


def print_rows(rows: Sequence[dict]) -> None:
    print(
        f"{'workload':13s} {'metric':22s} {'unit':10s} "
        f"{'A q1 / median / q3 (n)':40s} {'B q1 / median / q3 (n)':40s} "
        f"{'B/A':>18s} {'spread A/B':>13s} {'bound':>6s} verdict"
    )
    for row in rows:
        cells = [
            f"{q1:.4g} / {q2:.4g} / {q3:.4g} (n={n})"
            for (q1, q2, q3), n in ((row["base"], row["n"][0]), (row["new"], row["n"][1]))
        ]
        ratio = f"{row['new'][1] / row['base'][1]:.3f} of {row['base'][1]:.4g}"
        print(
            f"{row['workload']:13s} {row['metric']:22s} {row['unit']:10s} "
            f"{cells[0]:40s} {cells[1]:40s} {ratio:>18s} "
            f"{row['spread'][0]:5.1%}/{row['spread'][1]:5.1%} "
            f"{row['bound']:6.0%} {row['verdict']}"
        )


def selfcheck(first: Sequence[dict], second: Sequence[dict], declaration: dict) -> int:
    """A/A acceptance: two suites of the same checkout must not differ."""
    rows = compare(first, second, declaration)
    print_rows(rows)
    moved = [row for row in rows if row["verdict"] in ("worse", "better")]
    digests = defaultdict(set)
    for result in list(first) + list(second):
        digests[(result["workload"], result["seed"])].add(
            result.get("info", {}).get("input_digest")
        )
    unstable = [key for key, seen in digests.items() if len(seen) != 1]
    failed = [r for r in list(first) + list(second) if not r["contract"]["correct"]]
    for row in moved:
        print(f"SELFCHECK: {row['workload']} {row['metric']} read {row['verdict']} on identical code")
    for workload, seed in unstable:
        print(f"SELFCHECK: {workload} seed {seed} produced different inputs on two launches")
    for result in failed:
        print(f"SELFCHECK: {result['workload']} seed {result['seed']} was not correct")
    ok = not (moved or unstable or failed)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    suites = []
    for path in (args.base, args.new):
        with open(path, "r", encoding="utf-8") as handle:
            suites.append(json.load(handle))
    rows = compare(suites[0], suites[1], load_declaration())
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
