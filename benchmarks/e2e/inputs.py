"""Inputs, made from ``--seed`` alone: image blobs and the big trace log.

The program under test only ever sees what these functions return.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Tuple

import numpy as np

from repro.core.lotustrace.records import (
    CACHE_PRIVATE,
    COLLATION_OP_NAME,
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    KIND_BATCH_WAIT,
    KIND_CACHE_STATS,
    KIND_OP,
    KIND_SAMPLE_RETRIED,
    KIND_SAMPLE_SKIPPED,
    KIND_SCHED,
    KIND_WORKER_HEARTBEAT,
    KIND_WORKER_RESTART,
    MAIN_PROCESS_WORKER_ID,
    OOO_MARKER_DURATION_NS,
    SCHED_STATIC,
    TRANSPORT_INLINE,
    TraceRecord,
    format_cache_stats_name,
    format_sched_name,
    format_transport_name,
)
from repro.datasets.synthetic import SizeDistribution, SyntheticImageNet

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class StratifiedSizes:
    """A ``SizeDistribution``'s size law with the same size mix every seed.

    Image ``k`` of ``n`` takes the ``(k + 0.5) / n`` quantile of the
    log-normal side length and a low-discrepancy aspect ratio, so the
    multiset of image sizes is a fixed discretisation of the law; the
    seed only decides which index gets which size (and every pixel and
    quality draw). Independent draws would move the total pixel count of
    1024 images by ~3 % between seeds (size CV ~1), 320 heavy-tailed ones
    by ~8 % — the whole regression bound, spent on the inputs.
    """

    def __init__(
        self, law: SizeDistribution, n_images: int, rng: np.random.Generator
    ) -> None:
        normal = NormalDist()
        sizes = []
        for k in range(n_images):
            side = math.exp(
                math.log(law.median_side)
                + law.sigma * normal.inv_cdf((k + 0.5) / n_images)
            )
            height = int(np.clip(side, law.min_side, law.max_side))
            aspect = 0.7 + 0.7 * ((k * _GOLDEN) % 1.0)
            width = int(np.clip(height * aspect, law.min_side, law.max_side))
            sizes.append((height, width))
        self._sizes = [sizes[i] for i in rng.permutation(n_images)]
        self._next = 0

    def draw(self, rng: np.random.Generator) -> Tuple[int, int]:
        size = self._sizes[self._next]
        self._next += 1
        return size


def make_image_blobs(
    n_images: int, law: SizeDistribution, seed: int
) -> Tuple[List[bytes], List[int]]:
    """``n_images`` labelled SJPG blobs through ``SyntheticImageNet``."""
    sizes = StratifiedSizes(law, n_images, np.random.default_rng([seed, n_images]))
    dataset = SyntheticImageNet(n_images, sizes=sizes, seed=seed)
    return dataset.blobs, dataset.labels


def blobs_digest(blobs: List[bytes], labels: List[int]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for blob, label in zip(blobs, labels):
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
        digest.update(int(label).to_bytes(8, "little"))
    return digest.hexdigest()


# -- the trace_analyze log -----------------------------------------------------

TRACE_WORKERS = 2
TRACE_BATCH_SIZE = 32
TRACE_OPS = (
    "Loader",
    "RandomResizedCrop",
    "RandomHorizontalFlip",
    "ToTensor",
    "Normalize",
)
#: Per batch: per-sample ops, Collation, fetch span, transport, cache_stats
#: (worker side), wait, consumed, sched (main side).
TRACE_RECORDS_PER_BATCH = TRACE_BATCH_SIZE * len(TRACE_OPS) + 7
TRACE_OOO_FRACTION = 0.05
MAIN_PID = 1


@dataclass
class TraceLogFacts:
    """What the generator knows about the log it wrote (the oracle for
    the analysed counts)."""

    n_records: int = 0
    n_batches: int = 0
    n_samples: int = 0
    n_out_of_order: int = 0
    kind_counts: Dict[str, int] = field(default_factory=dict)
    digest: str = ""


def write_trace_log(path, target_records: int, seed: int) -> TraceLogFacts:
    """A one-epoch, two-worker per-sample-pipeline log of ~``target_records``
    lines covering all 11 record kinds, every line through
    ``TraceRecord.to_line`` and the public name codecs."""
    rng = random.Random(seed)
    n_batches = max(4, target_records // TRACE_RECORDS_PER_BATCH)
    facts = TraceLogFacts(n_batches=n_batches)
    kinds: Counter = Counter()
    lines: List[str] = []
    digest = hashlib.blake2b(digest_size=16)

    def emit(kind, name, batch, worker, pid, start, duration, ooo=False):
        kinds[kind] += 1
        lines.append(
            TraceRecord(kind, name, batch, worker, pid, start, duration, ooo).to_line()
        )

    def spill(handle):
        # In chunks, so the generator's footprint stays far below the
        # analysis it feeds (peak_rss_mb is taken in the same process).
        data = ("\n".join(lines) + "\n").encode("ascii")
        digest.update(data)
        handle.write(data)
        facts.n_records += len(lines)
        lines.clear()

    transport_name = format_transport_name(TRANSPORT_INLINE, 0, 0)
    worker_clock = [0] * TRACE_WORKERS
    main_clock = 0
    # A fault episode (restart + skip + retry) every ~1500 batches, at
    # least one per log; heartbeats every 100.
    fault_every = max(3, min(1500, n_batches // 2))
    with open(path, "wb") as handle:
        for batch in range(n_batches):
            worker = batch % TRACE_WORKERS
            pid = 1000 + worker
            start = worker_clock[worker] + rng.randrange(1_000, 20_000)
            cursor = start
            skipped = 0
            faulty = batch % fault_every == fault_every - 1
            for sample in range(TRACE_BATCH_SIZE):
                index = batch * TRACE_BATCH_SIZE + sample
                if faulty and sample == 3:
                    emit(KIND_SAMPLE_RETRIED, f"sample={index}", batch, worker, pid,
                         cursor, rng.randrange(5_000, 50_000))
                if faulty and sample == 7:
                    emit(KIND_SAMPLE_SKIPPED, f"sample={index}", batch, worker, pid,
                         cursor, rng.randrange(5_000, 50_000))
                    skipped = 1
                    continue
                for op in TRACE_OPS:
                    duration = rng.randrange(5_000, 400_000)
                    emit(KIND_OP, op, -1, worker, pid, cursor, duration)
                    cursor += duration
            collate = rng.randrange(20_000, 300_000)
            emit(KIND_OP, COLLATION_OP_NAME, batch, worker, pid, cursor, collate)
            cursor += collate
            emit(KIND_BATCH_PREPROCESSED, "fetch", batch, worker, pid, start,
                 cursor - start)
            emit(KIND_CACHE_STATS,
                 format_cache_stats_name(
                     CACHE_PRIVATE, rng.randrange(0, 8), TRACE_BATCH_SIZE, 0, 0, 0),
                 batch, worker, pid, cursor, 0)
            emit(KIND_BATCH_TRANSPORT, transport_name, batch, worker, pid, cursor,
                 rng.randrange(1_000, 30_000))
            worker_clock[worker] = cursor
            if batch % 100 == 99:
                emit(KIND_WORKER_HEARTBEAT, "alive", -1, worker, pid, cursor, 0)
            if faulty:
                emit(KIND_WORKER_RESTART, "crash", -1, worker, MAIN_PID, cursor, 0)
            out_of_order = rng.random() < TRACE_OOO_FRACTION
            wait_start = max(main_clock, cursor) + rng.randrange(1_000, 50_000)
            wait = (
                OOO_MARKER_DURATION_NS
                if out_of_order
                else rng.randrange(10_000, 2_000_000)
            )
            emit(KIND_BATCH_WAIT, "wait", batch, MAIN_PROCESS_WORKER_ID, MAIN_PID,
                 wait_start, wait, out_of_order)
            consumed_at = wait_start + wait + rng.randrange(0, 100_000)
            emit(KIND_BATCH_CONSUMED, "consume", batch, MAIN_PROCESS_WORKER_ID,
                 MAIN_PID, consumed_at, rng.randrange(10_000, 200_000))
            emit(KIND_SCHED,
                 format_sched_name(SCHED_STATIC, rng.randrange(0, 5), 0, 2),
                 batch, MAIN_PROCESS_WORKER_ID, MAIN_PID, consumed_at, 0)
            main_clock = consumed_at
            facts.n_out_of_order += out_of_order
            facts.n_samples += TRACE_BATCH_SIZE - skipped
            if len(lines) >= 50_000:
                spill(handle)
        spill(handle)
    facts.kind_counts = dict(kinds)
    facts.digest = digest.hexdigest()
    return facts
