"""What the benchmark declares: paths, metric names, and the child env.

``BENCHMARK.json`` at the repo root is the single declaration of metric
names, units, bounds and workloads; this module only reads it, so the
runner, ``compare`` and the test can never disagree with the driver.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
SRC = ROOT / "src"
#: Everything a run writes (trace logs, child results, span files) lives
#: here, inside the checkout, and is removed when the run ends.
WORK_DIR = PACKAGE_DIR / ".work"

#: Hard per-child timeout; the contract allows 180 s per run.
CHILD_TIMEOUT_S = 170.0


THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PINNED_ENV_KEYS = ("PYTHONHASHSEED", *THREAD_PINS)


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(declaration: dict) -> List[str]:
    return [entry["name"] for entry in declaration["workloads"]]


def metric_units(declaration: dict, section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in declaration[section]}


def child_env(seed: int) -> Dict[str, str]:
    """Environment of a workload child: inputs and timing depend on it.

    ``utils.rng.derive_rng`` mixes salted ``hash(str(item))``, so without
    a pinned ``PYTHONHASHSEED`` the same ``--seed`` yields different blobs,
    shuffles and crop boxes per interpreter launch. Unpinned BLAS threads
    oversubscribe the two cores the worker processes already fill
    (measured: 165-300 instead of ~880 samples/s on ``ic_cold``).
    """
    env = dict(os.environ)
    env.update(
        THREAD_PINS,
        PYTHONHASHSEED=str(seed % 4294967296),
        PYTHONPATH=os.pathsep.join(
            [str(ROOT), str(SRC)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    return env
