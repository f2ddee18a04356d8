"""The three DataLoader workloads: ``ic_cold``, ``ic_warm``, ``paper_remote``.

End-to-end phase: a closed loop, one client, zero think time — the
child's main thread calls ``next(it)`` back to back on an untraced and a
traced loader in interleaved epochs. Layer-probe pass (``--trace 1``
only, strictly after the end-to-end phase): single-threaded replay of one
epoch's index batches with a benchmark-side span around every call into a
layer, closed against a ``num_workers=0`` epoch of the same pipeline.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.e2e.analysis_pass import AnalysisPasses
from benchmarks.e2e.inputs import blobs_digest, make_image_blobs
from benchmarks.e2e.spans import SpanRecorder
from repro.clib.events import EventRecorder, attach_recorder, detach_recorder
from repro.core.lotustrace.analysis import analyze_trace
from repro.core.lotustrace.columns import KIND_TO_CODE, parse_trace_file_columns
from repro.core.lotustrace.context import batch_scope
from repro.core.lotustrace.logfile import LotusLogWriter, open_trace_log
from repro.core.lotustrace.records import (
    KIND_BATCH_WAIT,
    KIND_OP,
    TRANSPORT_SHM,
    TraceRecord,
    parse_sched_name,
)
from repro.data.backends import THREAD_BACKEND, create_backend
from repro.data.cache import CachingLoader
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset, TensorDataset, pil_loader
from repro.data.sampler import BatchSampler, RandomSampler
from repro.data.shared_cache import DEFAULT_CACHE_CAPACITY_BYTES, SharedSampleCache
from repro.data.transport import (
    InlineTransport,
    ShmMainTransport,
    ShmWorkerTransport,
    TransportSpec,
    next_pool_nonce,
    resolve_transport,
    unlink_worker_generation,
)
from repro.datasets.filestore import SimulatedRemoteStore
from repro.datasets.synthetic import SizeDistribution
from repro.imaging.image import load_rgb_batch
from repro.tensor.batchbuffer import BatchBuffer, round_to_pages
from repro.tensor.collate import default_collate, iter_tensors
from repro.tensor.tensor import Tensor
from repro.transforms import (
    Compose,
    ImageBatch,
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
CROP = 64
#: Traced epochs (warm-up first) whose log prefix ``analyze_records_per_s``
#: is taken on: fixed, so the analysed size does not depend on how many
#: epochs fit into the run.
ANALYSED_TRACED_EPOCHS = 3
#: Seconds of analysis passes over that prefix: long enough to average
#: over the sandbox's sub-second slow phases.
ANALYSIS_SECONDS = 2.0
#: Epochs the persistent-pool canary attempts (README, defect 2).
CANARY_EPOCHS = 8
#: The closure check times serial epochs (and their replays) until it has
#: this much measured time on each side, 9 epochs at most.
CLOSURE_MIN_SECONDS = 0.75
#: Spans of the replay that are layers (their sum must close).
LAYER_SPANS = ("datasets", "imaging", "data.cache.hit", "transforms", "tensor")
CANARY_TIMEOUT_S = 3.0


@dataclass(frozen=True)
class LoaderWorkload:
    """One row of the workload table: inputs plus the *only* DataLoader
    knobs the workload passes (everything else stays at the library
    default, so a changed default is measured, not masked)."""

    name: str
    n_blobs: int
    law: SizeDistribution
    knobs: Dict[str, Any]
    remote: Optional[Tuple[float, float]] = None  # (latency_s, MB/s)
    min_pairs: int = 2

    @property
    def batch_size(self) -> int:
        return self.knobs["batch_size"]

    @property
    def n_batches(self) -> int:
        return -(-self.n_blobs // self.batch_size)

    @property
    def per_sample(self) -> bool:
        return self.knobs.get("batched_execution") is False

    @property
    def cached(self) -> bool:
        return self.knobs.get("cache") is not None

    def store(self, blobs: Sequence[bytes]) -> Any:
        """What the dataset reads blobs from."""
        if self.remote is None:
            return blobs
        latency, bandwidth = self.remote
        return SimulatedRemoteStore(
            blobs, base_latency_s=latency, bandwidth_mb_s=bandwidth
        )


_IC_KNOBS = dict(batch_size=16, shuffle=True, num_workers=2, worker_backend="process")

LOADER_WORKLOADS = {
    "ic_cold": LoaderWorkload("ic_cold", 1024, SizeDistribution(), _IC_KNOBS),
    "ic_warm": LoaderWorkload(
        "ic_warm", 1024, SizeDistribution(), dict(_IC_KNOBS, cache="shared")
    ),
    "paper_remote": LoaderWorkload(
        "paper_remote",
        320,
        SizeDistribution(median_side=112, sigma=0.8),
        dict(batch_size=8, shuffle=True, num_workers=2, batched_execution=False),
        remote=(0.006, 20.0),
        # 5 untraced epochs x 40 batches = 200 pooled waits: the fewest
        # that leave ten samples beyond p95.
        min_pairs=5,
    ),
}
SMOKE_BLOBS = {"ic_cold": 96, "ic_warm": 192, "paper_remote": 32}


# -- building the pipeline -------------------------------------------------------


def ic_chain(seed: int, log=None) -> Compose:
    return Compose(
        [
            RandomResizedCrop(CROP, seed=seed),
            RandomHorizontalFlip(seed=seed + 1),
            ToTensor(),
            Normalize(IMAGENET_MEAN, IMAGENET_STD),
        ],
        log_transform_elapsed_time=log,
    )


def build_loader(
    workload: LoaderWorkload,
    blobs: Sequence[bytes],
    labels: Sequence[int],
    seed: int,
    log_path=None,
    **override: Any,
) -> DataLoader:
    """The workload's loader; ``log_path`` switches every record kind on
    (one shared sink for chain, dataset and loader, as
    ``build_ic_pipeline`` does)."""
    sink = open_trace_log(log_path)
    data = BlobImageDataset(
        workload.store(blobs),
        labels=labels,
        transform=ic_chain(seed, sink),
        log_file=sink,
    )
    return DataLoader(data, log_file=sink, **{**workload.knobs, **override})


# -- running and checking epochs ---------------------------------------------------


@dataclass
class Epoch:
    wall_s: float = 0.0
    spawn_s: float = 0.0
    waits_s: List[float] = field(default_factory=list)
    n_batches: int = 0
    n_samples: int = 0
    label_sum: int = 0
    error: str = ""


def run_epoch(loader: DataLoader, on_batch: Optional[Callable] = None) -> Epoch:
    """One epoch of back-to-back ``next()`` calls. Only ``next()`` is
    inside ``waits_s``; the count/label bookkeeping (and ``on_batch``)
    runs between calls and is subtracted from ``wall_s``."""
    epoch = Epoch()
    clock = time.perf_counter
    untimed = 0.0
    begin = clock()
    try:
        iterator = iter(loader)
        epoch.spawn_s = clock() - begin
        while True:
            asked = clock()
            try:
                batch = next(iterator)
            except StopIteration:
                break
            got = clock()
            epoch.waits_s.append(got - asked)
            labels = batch[1].numpy()
            epoch.n_batches += 1
            epoch.n_samples += int(labels.shape[0])
            epoch.label_sum += int(labels.sum())
            if on_batch is not None:
                on_batch(batch)
            untimed += clock() - got
    except Exception as exc:  # the epoch's undelivered batches count as failed
        epoch.error = f"{type(exc).__name__}: {exc}"
    epoch.wall_s = clock() - begin - untimed
    return epoch


class Ledger:
    """Operations attempted / failed (operation = one batch)."""

    def __init__(self, workload: LoaderWorkload, labels: Sequence[int]) -> None:
        self._workload = workload
        self._label_sum = int(sum(labels))
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def book(self, epoch: Epoch, what: str) -> None:
        expected = self._workload.n_batches
        self.attempted += expected
        failed = max(0, expected - epoch.n_batches)
        intact = (
            epoch.n_samples == self._workload.n_blobs
            and epoch.label_sum == self._label_sum
        )
        if not failed and (epoch.error or not intact):
            failed = 1
        if failed:
            self.failed += failed
            self.errors.append(
                f"{what}: {epoch.n_batches}/{expected} batches, "
                f"{epoch.n_samples} samples, label sum {epoch.label_sum} "
                f"(want {self._label_sum}) {epoch.error}"
            )

    def book_crc(self, got: List[tuple], want: List[tuple], what: str) -> None:
        """CRC mismatches fail the batch they occur in (already attempted)."""
        wrong = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        if wrong:
            self.failed += wrong
            self.errors.append(f"{what}: {wrong} batches differ from the oracle")


def batch_crc(batch: Any) -> tuple:
    return tuple(
        zlib.crc32(np.ascontiguousarray(t.numpy()).data) for t in iter_tensors(batch)
    )


def reference_crcs(
    workload: LoaderWorkload, blobs, labels, seed: int
) -> List[tuple]:
    """First-epoch tensor CRCs of the retained oracle path: same
    ``num_workers`` (pixels depend on it: transform RNG streams are keyed
    by worker id), thread backend, per-sample chain, no cache, static
    scheduler, in-memory blobs."""
    knobs = {
        key: workload.knobs[key] for key in ("batch_size", "shuffle", "num_workers")
    }
    data = BlobImageDataset(blobs, labels=labels, transform=ic_chain(seed))
    loader = DataLoader(
        data,
        worker_backend=THREAD_BACKEND,
        batched_execution=False,
        cache=None,
        scheduler="static",
        **knobs,
    )
    crcs: List[tuple] = []
    epoch = run_epoch(loader, on_batch=lambda batch: crcs.append(batch_crc(batch)))
    loader.close()
    if epoch.error:
        raise RuntimeError(f"reference loader failed: {epoch.error}")
    return crcs


# -- statistics ---------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- the workload ------------------------------------------------------------------


class LoaderRun:
    """Everything one child process does for a loader workload."""

    def __init__(
        self,
        workload: LoaderWorkload,
        seed: int,
        seconds: float,
        work_dir,
        smoke: bool,
        recorder: Optional[SpanRecorder],
        min_pairs: int,
    ) -> None:
        self.workload = workload
        self.recorder = recorder
        self.min_pairs = min_pairs
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.smoke = smoke
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.info: Dict[str, Any] = {}

    attempted = property(lambda self: self.ledger.attempted)
    failed = property(lambda self: self.ledger.failed)
    errors = property(lambda self: self.ledger.errors)

    def input_digest(self) -> str:
        begin = time.perf_counter()
        self.blobs, self.labels = make_image_blobs(
            self.workload.n_blobs, self.workload.law, self.seed
        )
        self.gen_input_s = time.perf_counter() - begin
        return blobs_digest(self.blobs, self.labels)

    # -- end-to-end phase --------------------------------------------------------
    def run_end_to_end(self) -> None:
        workload = self.workload
        self.info["input_digest"] = self.input_digest()
        self.ledger = Ledger(workload, self.labels)
        want = reference_crcs(workload, self.blobs, self.labels, self.seed)

        self.log_path = os.path.join(self.work_dir, f"{workload.name}.trace.log")
        setups: List[float] = []
        log_marks: List[int] = []
        traced_samples = 0
        # Three fresh loaders: untraced (dropped after its warm-up), the
        # traced one and the untraced one that get measured.
        for slot, log in enumerate((None, self.log_path, None)):
            crcs: List[tuple] = []
            begin = time.perf_counter()
            loader = build_loader(workload, self.blobs, self.labels, self.seed, log)
            built = time.perf_counter() - begin
            warm = run_epoch(loader, on_batch=lambda batch: crcs.append(batch_crc(batch)))
            setups.append(built + warm.wall_s)
            self.ledger.book(warm, f"warm-up {slot}")
            self.ledger.book_crc(crcs, want, f"warm-up {slot}")
            if slot == 0:
                loader.close()
            elif log is not None:
                self.traced = loader
                traced_samples += warm.n_samples
                log_marks.append(os.path.getsize(log))
            else:
                self.untraced = loader

        plain: List[Epoch] = []
        traced: List[Epoch] = []
        begin = time.perf_counter()
        while True:
            first_traced = len(plain) % 2 == 1  # alternate who goes first
            for is_traced in (first_traced, not first_traced):
                if is_traced:
                    epoch = run_epoch(self.traced)
                    traced.append(epoch)
                    traced_samples += epoch.n_samples
                    log_marks.append(os.path.getsize(self.log_path))
                else:
                    epoch = run_epoch(self.untraced)
                    plain.append(epoch)
                kind = "traced" if is_traced else "untraced"
                self.ledger.book(epoch, f"{kind} epoch {len(plain)}")
            elapsed = time.perf_counter() - begin
            pair_s = elapsed / len(plain)
            if len(plain) >= self.min_pairs and elapsed + pair_s / 2 >= self.seconds:
                break
        self.plain, self.traced_epochs = plain, traced
        self.traced_samples = traced_samples

        # What the Lotus user does next: analyse the log just written.
        # A fixed prefix (warm-up + first measured traced epochs), so the
        # analysed size does not depend on how many epochs fit the run.
        self.log_records_total = _count_lines(self.log_path)
        self.log_bytes_total = log_marks[-1]
        prefix = os.path.join(self.work_dir, f"{workload.name}.prefix.log")
        with open(self.log_path, "rb") as src, open(prefix, "wb") as dst:
            analysed = min(ANALYSED_TRACED_EPOCHS, len(log_marks))
            dst.write(src.read(log_marks[analysed - 1]))
        self.passes = AnalysisPasses(prefix)
        self.passes.run(min_passes=5, seconds=0.0 if self.smoke else ANALYSIS_SECONDS)

        waits_ms = [w * 1e3 for epoch in plain for w in epoch.waits_s]
        n = workload.n_blobs
        self.e2e = {
            # Best epoch, not the median one: see README, "Why rates are
            # reported at the best epoch".
            "samples_per_s": max(n / e.wall_s for e in plain),
            "traced_samples_per_s": max(n / e.wall_s for e in traced),
            "wait_p50_ms": percentile(waits_ms, 50),
            "wait_p95_ms": percentile(waits_ms, 95),
            "analyze_records_per_s": self.passes.records_per_s(),
            "setup_s": median(setups),
        }
        self.info["epoch_samples_per_s"] = {
            "untraced": [n / e.wall_s for e in plain],
            "traced": [n / e.wall_s for e in traced],
        }
        self.counts = {
            "epochs_untraced": len(plain),
            "epochs_traced": len(traced),
            "wait_samples": len(waits_ms),
            "analysis_passes": len(self.passes.walls_s),
            "analysis_records": self.passes.n_records,
            "setups": len(setups),
        }

    # -- layer-probe pass ----------------------------------------------------------
    def run_layer_probe(self) -> None:
        workload = self.workload
        recorder = self.recorder
        n = workload.n_blobs
        layers = self.layers = defaultdict(float)
        plain = self.plain

        # core.lotustrace (loader side) and the loader's own trace records.
        untraced_rate = self.e2e["samples_per_s"]
        layers["lotustrace.overhead_frac"] = (
            1.0 - self.e2e["traced_samples_per_s"] / untraced_rate
        )
        layers["lotustrace.records_per_sample"] = (
            self.log_records_total / self.traced_samples
        )
        layers["lotustrace.log_bytes_per_sample"] = (
            self.log_bytes_total / self.traced_samples
        )
        layers["lotustrace.write_us_per_record"] = self._probe_log_write()
        layers.update(self.passes.stage_metrics())
        self._probe_trace_records(layers)

        # data.loader, seen from outside.
        layers["loader.pool_spawn_ms"] = median([e.spawn_s for e in plain]) * 1e3
        layers["loader.first_batch_ms"] = (
            median([e.waits_s[0] for e in plain if e.waits_s]) * 1e3
        )
        layers["loader.null_batch_ms"] = self._probe_null_epoch()
        layers["loader.persistent_epochs_ok"] = persistent_pool_canary(self.smoke)

        # Serial epochs and the replays that must close against them.
        serial_s, layer_sum_s, batches, reps = self._close_budget(recorder)
        layers["closure.serial_epoch_s"] = serial_s
        layers["loader.parallel_efficiency"] = untraced_rate / (
            workload.knobs["num_workers"] * n / serial_s
        )
        total_ns = {name: ns / reps for name, ns in recorder.total_ns().items()}
        total_ns["data.cache.fill"] = total_ns.get("data.cache.fill", 0) * reps
        layers["closure.layer_sum_s"] = layer_sum_s
        layers["closure.residual_frac"] = abs(serial_s - layer_sum_s) / serial_s
        layers["gen.input_s"] = self.gen_input_s
        per_sample_ms = lambda name: total_ns.get(name, 0) / 1e6 / n  # noqa: E731
        layers["datasets.fetch_ms_per_sample"] = per_sample_ms("datasets")
        layers["imaging.decode_ms_per_sample"] = per_sample_ms("imaging")
        layers["cache.hit_ms_per_sample"] = per_sample_ms("data.cache.hit")
        layers["cache.fill_ms_per_sample"] = per_sample_ms("data.cache.fill")
        layers["transforms.ms_per_sample"] = per_sample_ms("transforms")
        for transform in ic_chain(0).transforms:
            name = type(transform).__name__
            layers[f"transforms.{name}_ms_per_sample"] = per_sample_ms(
                f"transforms.{name}"
            )
        layers["tensor.collate_ms_per_batch"] = (
            total_ns.get("tensor", 0) / 1e6 / len(batches)
        )
        self.info["ranking"] = sorted(
            ((name, total_ns.get(name, 0) / 1e9) for name in LAYER_SPANS),
            key=lambda item: -item[1],
        )
        # What the replay loop itself cost: the root spans' self time.
        self.info["replay_glue_s"] = recorder.self_ns().get("batch", 0) / 1e9 / reps
        self._probe_kernels(batches)
        self._probe_transport()

    def _probe_log_write(self, n_records: int = 20000) -> float:
        path = os.path.join(self.work_dir, "write_probe.log")
        record = TraceRecord(KIND_OP, "Loader", -1, 0, os.getpid(), 1, 1)
        writer = LotusLogWriter(path)
        begin = time.perf_counter()
        for _ in range(n_records):
            writer.write(record)
        writer.close()
        return (time.perf_counter() - begin) / n_records * 1e6

    def _probe_trace_records(self, layers: Dict[str, float]) -> None:
        """Scheduler / OOO numbers from the program's *existing*
        ``batch_wait`` and ``sched`` records of the traced epochs."""
        columns = parse_trace_file_columns(self.log_path)
        waits = columns.kind == KIND_TO_CODE[KIND_BATCH_WAIT]
        layers["loader.ooo_share"] = float(
            (waits & columns.out_of_order).sum() / max(1, waits.sum())
        )
        analysis = analyze_trace(columns)
        stats = list(analysis.sched_stats().values())
        yields = sum(s.batches for s in stats)
        layers["sched.steals"] = float(sum(s.steals for s in stats))
        layers["sched.queue_depth_mean"] = (
            sum(s.total_queue_depth for s in stats) / max(1, yields)
        )
        depths = [parse_sched_name(r.name)[3] for r in analysis.sched_records]
        layers["sched.inflight_depth_mean"] = float(np.mean(depths)) if depths else 0.0

    def _probe_null_epoch(self) -> float:
        """Per-batch cost of the loader machinery alone: a trivial
        in-memory dataset, same batch count, backend and workers."""
        workload = self.workload
        n = workload.n_blobs
        data = TensorDataset(np.zeros((n, 4), dtype=np.float32), np.arange(n))
        knobs = {
            key: value
            for key, value in workload.knobs.items()
            if key not in ("cache", "batched_execution")
        }
        loader = DataLoader(data, **knobs)
        walls = [run_epoch(loader).wall_s for _ in range(3)]
        loader.close()
        return median(walls) / workload.n_batches * 1e3

    def _close_budget(
        self, recorder: SpanRecorder
    ) -> Tuple[float, float, List[List[int]], int]:
        """Serial epochs against their replays.

        A ``num_workers=0`` loader of the same pipeline is stepped one
        ``next()`` at a time; right after each batch the same index batch
        (same batch id, hence the same crop boxes) is replayed with one
        span per layer call, mirroring the execution mode the loader
        resolves to. Interleaving at batch granularity puts both sides in
        the same phase of this sandbox's seconds-long slow/fast swings,
        which otherwise read as a 20-40 % residual. Returns the median
        epoch wall, the median summed layer time, the last epoch's index
        batches and the number of epochs timed.
        """
        workload = self.workload
        knobs = {k: v for k, v in workload.knobs.items() if k != "worker_backend"}
        loader = build_loader(
            workload, self.blobs, self.labels, self.seed, **{**knobs, "num_workers": 0}
        )
        # A fresh sampler over the same dataset draws the same epoch
        # permutations as the loader's (both derive from seed=None).
        shadow = BatchSampler(
            RandomSampler(self.blobs), workload.batch_size, drop_last=False
        )
        store = workload.store(self.blobs)
        chain = ic_chain(self.seed)
        arena = BatchBuffer(reuse=False, depth=1)
        cache_loader = shared = None
        clock = time.perf_counter
        try:
            batches = list(shadow)  # the warm-up's permutation
            if workload.cached:
                run_epoch(loader)  # fill the loader's arena, then the replay's
                shared = SharedSampleCache(
                    capacity_bytes=DEFAULT_CACHE_CAPACITY_BYTES,
                    max_readers=1,
                    nonce=next_pool_nonce(),
                )
                cache_loader = CachingLoader(pil_loader, shared=shared)
                arena_bytes = 0
                for indices in batches:
                    cache_loader.advance_batch()
                    with recorder.span("data.cache.fill"):
                        filled = cache_loader.load_batch([store[i] for i in indices])
                    arena_bytes += sum(
                        round_to_pages(image.to_array().nbytes) for image in filled
                    )
                cache_loader.release_pins()
                filled_stats = cache_loader.stats()
            else:
                for _ in zip(range(4), loader):
                    pass  # a few batches: lazy filter / LUT caches of this process
            walls: List[float] = []
            layer_sums: List[float] = []
            reps = 1
            while len(walls) < reps:
                batches = list(shadow)
                first_span = len(recorder.spans)
                begin = clock()
                iterator = iter(loader)
                wall = clock() - begin
                for batch_id, indices in enumerate(batches):
                    begin = clock()
                    next(iterator)
                    wall += clock() - begin
                    span = partial(recorder.span, batch_id=batch_id)
                    with batch_scope(batch_id), span("batch"):
                        if workload.per_sample:
                            self._replay_per_sample(store, chain, indices, span)
                        else:
                            self._replay_batched(
                                store, chain, indices, span, arena, cache_loader
                            )
                begin = clock()
                if next(iterator, None) is not None:
                    raise RuntimeError("serial epoch outran its sampler")
                walls.append(wall + clock() - begin)
                layer_sums.append(
                    sum(
                        s["end_ns"] - s["start_ns"]
                        for s in recorder.spans[first_span:]
                        if s["name"] in LAYER_SPANS
                    )
                    / 1e9
                )
                reps = min(9, max(1, math.ceil(CLOSURE_MIN_SECONDS / walls[0])))
        finally:
            loader.close()
            if cache_loader is not None:
                stats = cache_loader.stats()
                hits = stats.hits - filled_stats.hits
                misses = stats.misses - filled_stats.misses
                self.layers["cache.hit_ratio"] = hits / max(1, hits + misses)
                self.layers["cache.evictions"] = float(shared.total_stats().evictions)
                self.layers["cache.arena_used_mb"] = arena_bytes / 2**20
                cache_loader.release_pins()
                shared.unlink()
        if isinstance(store, SimulatedRemoteStore):
            reads = store.stats["reads"] / reps
            nbytes = store.stats["bytes_read"] / reps
        else:
            reads = sum(len(indices) for indices in batches)
            nbytes = sum(len(self.blobs[i]) for indices in batches for i in indices)
        self.layers["datasets.reads"] = float(reads)
        self.layers["datasets.read_bytes_per_sample"] = nbytes / max(1, reads)
        return median(walls), median(layer_sums), batches, reps

    def _replay_batched(self, store, chain, indices, span, arena, cache_loader) -> None:
        """One batch the way ``_BatchExecutionPlan.fetch`` runs it."""
        with span("datasets"):
            sources = [store[i] for i in indices]
        if cache_loader is not None:
            cache_loader.advance_batch()
            with span("data.cache.hit"):
                images = cache_loader.load_batch(sources)
        else:
            with span("imaging"):
                images = load_rgb_batch(sources)
        with span("transforms"):
            arena.advance()
            batch = ImageBatch.from_arrays([image.to_array() for image in images])
            for transform in chain.transforms:
                with span(f"transforms.{type(transform).__name__}"):
                    batch = transform.batch_apply(batch, arena)
            pixels = batch.require_chw()
        with span("tensor"):
            out = arena.get("labels", (len(indices),), np.int64)
            out[:] = [self.labels[i] for i in indices]
            _ = (Tensor(pixels), Tensor(out))

    def _replay_per_sample(self, store, chain, indices, span) -> None:
        samples = []
        for index in indices:
            with span("datasets"):
                blob = store[index]
            with span("imaging"):
                image = pil_loader(blob)
            with span("transforms"):
                for transform in chain.transforms:
                    with span(f"transforms.{type(transform).__name__}"):
                        image = transform(image)
            samples.append((image, self.labels[index]))
        with span("tensor"):
            default_collate(samples)

    def _probe_kernels(self, batches: List[List[int]]) -> None:
        """Kernel self times from a second, shorter replay with an
        ``EventRecorder`` attached (so its cost never reaches the spans)."""
        subset = batches[: max(1, len(batches) // 4)]
        n = sum(len(indices) for indices in subset)
        chain = ic_chain(self.seed)
        arena = BatchBuffer(reuse=False, depth=1)
        recorder = EventRecorder()
        attach_recorder(recorder)
        try:
            for batch_id, indices in enumerate(subset):
                sources = [self.blobs[i] for i in indices]
                with batch_scope(batch_id):
                    if self.workload.per_sample:
                        for source in sources:
                            chain(pil_loader(source))
                        continue
                    images = load_rgb_batch(sources)
                    arena.advance()
                    batch = ImageBatch.from_arrays([im.to_array() for im in images])
                    for transform in chain.transforms:
                        batch = transform.batch_apply(batch, arena)
        finally:
            detach_recorder(recorder)
        self_ns: Dict[str, int] = defaultdict(int)
        last_at_depth: Dict[int, Any] = {}
        for event in recorder.events():
            self_ns[event.function] += event.duration_ns
            last_at_depth[event.depth] = event
            if event.depth > 0:
                self_ns[last_at_depth[event.depth - 1].function] -= event.duration_ns
        ms = lambda *names: sum(self_ns[name] for name in names) / 1e6 / n  # noqa: E731
        decode = 0.0 if self.workload.cached else 1.0  # warm path never decodes
        self.layers["imaging.k.decode_mcu_ms_per_sample"] = decode * ms("decode_mcu")
        self.layers["imaging.k.idct_ms_per_sample"] = decode * ms(
            "jpeg_idct_islow", "jpeg_idct_16x16"
        )
        self.layers["imaging.k.ycc_rgb_convert_ms_per_sample"] = decode * ms(
            "ycc_rgb_convert"
        )
        self.layers["imaging.k.decompress_onepass_ms_per_sample"] = decode * ms(
            "decompress_onepass"
        )
        self.layers["imaging.k.resample_ms_per_sample"] = ms(
            "ImagingResampleHorizontal_8bpc", "ImagingResampleVertical_8bpc"
        )

    def _probe_transport(self, rounds: int = 200) -> None:
        """One batch hand-off through the carrier ``transport="auto"``
        resolves to, as ``bench_ipc_transport.py`` drives it."""
        workload = self.workload
        size = min(workload.batch_size, workload.n_blobs)
        payload = (
            Tensor(np.ones((size, 3, CROP, CROP), dtype=np.float32)),
            Tensor(np.arange(size, dtype=np.int64)),
        )
        backend = create_backend(workload.knobs.get("worker_backend", THREAD_BACKEND))
        mode = resolve_transport("auto", backend.is_process)
        times: List[float] = []
        if mode == TRANSPORT_SHM:
            acks: List[int] = []
            depth = 4  # prefetch_factor + 2, the static scheduler's ring

            class _Acks:
                put = staticmethod(acks.append)
                get = staticmethod(lambda timeout=None: acks.pop(0))

            nonce = next_pool_nonce()
            spec = TransportSpec(TRANSPORT_SHM, os.getpid(), nonce, depth, _Acks)
            worker = ShmWorkerTransport(worker_id=0, generation=0, spec=spec)
            main = ShmMainTransport()
            try:
                for _ in range(rounds):
                    begin = time.perf_counter()
                    ref, _, moved, copies = worker.publish(payload)
                    main.resolve(ref)
                    acks.append(ref.slot)
                    times.append(time.perf_counter() - begin)
            finally:
                main.close()
                worker.close()
                unlink_worker_generation(os.getpid(), nonce, 0, 0, depth)
        else:
            carrier = InlineTransport()
            for _ in range(rounds):
                begin = time.perf_counter()
                _, _, moved, copies = carrier.publish(payload)
                times.append(time.perf_counter() - begin)
        self.layers["transport.handoff_ms_per_batch"] = median(times) * 1e3
        self.layers["transport.bytes_per_batch"] = float(moved)
        self.layers["transport.copies_per_batch"] = float(copies)

    def close(self) -> None:
        for loader in (getattr(self, "traced", None), getattr(self, "untraced", None)):
            if loader is not None:
                loader.close()
                sink = loader.log_sink
                if sink is not None:
                    sink.close()


def persistent_pool_canary(smoke: bool) -> float:
    """Epochs a persistent process pool on the shm transport completes
    out of ``CANARY_EPOCHS`` on a trivial dataset (README, defect 2; the
    smoke run stops at 3, short of the hang's 3 s timeout + 5 s join). A
    canary, not an operation: it never counts toward failed."""
    epochs = 3 if smoke else CANARY_EPOCHS
    data = TensorDataset(np.zeros((64, 8), dtype=np.float32), np.arange(64))
    loader = DataLoader(
        data,
        batch_size=8,
        num_workers=2,
        worker_backend="process",
        persistent_workers=True,
        worker_timeout_s=CANARY_TIMEOUT_S,
    )
    done = 0
    try:
        for _ in range(epochs):
            epoch = run_epoch(loader)
            if epoch.error or epoch.n_batches != 8:
                break
            done += 1
    finally:
        loader.close()
    return float(done)


def _count_lines(path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
