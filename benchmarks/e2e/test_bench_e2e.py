"""Smoke test of the end-to-end benchmark (not part of tier-1; run with
``python -m pytest benchmarks/e2e/test_bench_e2e.py``)."""

import json
import math
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, compare
from benchmarks.e2e.spec import ROOT, child_env, load_declaration

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    return load_declaration()


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--json-out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out, "r", encoding="utf-8") as handle:
        return {result["workload"]: result for result in json.load(handle)}


def test_declaration_meets_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    assert 1 <= declaration["run_seconds"] <= 60
    names = [w["name"] for w in declaration["workloads"]]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declaration["end_to_end"])


def test_smoke_emits_every_declared_metric(smoke_results, declaration):
    assert set(smoke_results) == {w["name"] for w in declaration["workloads"]}
    for workload, result in smoke_results.items():
        assert not result["problem"], (workload, result["problem"])
        assert result["failed"] == 0, (workload, result["errors"])
        assert result["attempted"] >= 1
        assert result["contract"]["correct"], workload
        for section in ("end_to_end", "per_layer"):
            for metric in declaration[section]:
                value = result[section].get(metric["name"])
                assert value is not None, (workload, metric["name"])
                assert math.isfinite(value), (workload, metric["name"], value)
        for metric in declaration["end_to_end"]:
            assert result["end_to_end"][metric["name"]] > 0, (workload, metric["name"])
        assert result["per_layer"]["shm.leaked_segments"] == 0


def test_layer_budget_closes(smoke_results):
    for workload, result in smoke_results.items():
        assert result["per_layer"]["closure.residual_frac"] <= 0.10, workload


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digest(workload, seed):
        out = tmp_path / f"{workload}-{seed}.json"
        subprocess.run(
            [
                sys.executable, "-m", "benchmarks.e2e.child", "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", "0", "--smoke",
                "--digest-only", "--work-dir", str(tmp_path), "--out", str(out),
            ],
            cwd=ROOT, env=child_env(seed), check=True, timeout=120,
        )
        return json.loads(out.read_text())["input_digest"]

    for workload in ("ic_cold", "trace_analyze"):
        assert digest(workload, 7) == digest(workload, 7)
        assert digest(workload, 7) != digest(workload, 8)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, 0.08, "higher") == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.08, "higher") == "better"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.08, "lower") == "worse"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], 0.08, "higher") == "unresolved"
    assert compare.verdict(noisy, [v * 2 for v in noisy], 0.08, "higher") == "better"


def test_dead_child_fails_every_operation(declaration):
    result = {
        "workload": "ic_cold", "seed": 1, "trace": 0, "problem": "child exceeded the timeout",
        "per_layer": {"shm.leaked_segments": 0.0},
    }
    line = cli.contract_line(result, declaration)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
