"""Dataset fetchers: turn a batch of indices into a collated batch.

LotusTrace's [T1] instrumentation wraps the common ``fetch`` method from
the *worker loop* instead of subclassing or overriding specific fetcher
classes — the paper's rationale being that targeting ``fetch`` works for
any fetcher (``_MapDatasetFetcher`` or ``_IterableDatasetFetcher``)
without class-specific modifications (§ III-B1).

The map-style fetcher additionally carries the *batched execution* fast
path: when the dataset can hand back untransformed samples, the chain is
a batch-capable :class:`Compose`, and the collate is the stock
``default_collate``, the whole batch is decoded once, pushed through
:class:`~repro.transforms.batch.BatchCompose`, and written straight into
a preallocated :class:`~repro.tensor.batchbuffer.BatchBuffer` arena —
one write per batch instead of the list-of-Tensors + ``stack()`` double
copy. The per-sample path stays behind ``batch_engine("persample")`` as
the parity oracle (DESIGN.md §7).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.lotustrace.context import (
    current_batch_id,
    current_pid,
    current_worker_id,
)
from repro.core.lotustrace.records import COLLATION_OP_NAME, KIND_OP, TraceRecord
from repro.data.dataset import Dataset, IterableDataset
from repro.errors import DataLoaderError
from repro.imaging.image import Image, load_rgb_batch
from repro.tensor.batchbuffer import BatchBuffer
from repro.tensor.collate import default_collate
from repro.tensor.tensor import Tensor
from repro.transforms.batch import ENGINE_BATCHED, BatchCompose, current_batch_engine
from repro.transforms.compose import Compose
from repro.transforms.vision import RandomResizedCrop


class _BaseDatasetFetcher:
    def __init__(self, dataset: Any, collate_fn: Callable) -> None:
        self.dataset = dataset
        self.collate_fn = collate_fn

    def fetch(self, indices: Sequence[int]) -> Any:
        raise NotImplementedError


def _batchable_label(label: Any) -> bool:
    return isinstance(label, (int, np.integer))


class _BatchExecutionPlan:
    """Everything the batched fast path needs, resolved once per fetcher.

    ``resolve`` returns None unless the (dataset, transform, collate)
    triple supports batch-granular execution; ``fetch`` still validates
    each loaded batch and falls back to the per-sample chain for samples
    the batch engine cannot represent (undecoded/grayscale images,
    non-integer labels), reusing the already-loaded images so the Loader
    runs — and is traced — exactly once either way.

    In a worker (``in_worker``), a chain headed by RandomResizedCrop over
    the stock bulk loader takes the fused decode-and-crop path (DESIGN.md
    §14): the boxes are drawn from RRC's stream before the decode, each
    image is decoded only inside its box, and RRC then only resizes.
    """

    def __init__(
        self,
        dataset: Any,
        compose: Compose,
        collate_fn: Callable,
        reuse_buffers: bool,
        buffer_depth: int,
        in_worker: bool,
    ) -> None:
        self._compose = compose
        self._collate_fn = collate_fn
        self._load_one = dataset.load_untransformed
        self._load_batch = getattr(dataset, "load_untransformed_batch", None)
        self._head = compose.transforms[0]
        self._fused = (
            in_worker
            and type(self._head) is RandomResizedCrop
            and getattr(dataset, "batch_loader", None) is load_rgb_batch
        )
        self._batch_compose = BatchCompose(
            compose, head=self._head.batch_apply_cropped if self._fused else None
        )
        self._draw_ns = 0  # the current batch's box-draw time (fused path)
        self.arena = BatchBuffer(reuse=reuse_buffers, depth=buffer_depth)
        # The Collation record goes to the same sink the instrumented
        # collate would use; duck-typed to avoid importing the dataloader
        # (which imports this module).
        self._sink = getattr(collate_fn, "_sink", None)

    @classmethod
    def resolve(
        cls,
        dataset: Any,
        collate_fn: Callable,
        reuse_buffers: bool,
        buffer_depth: int,
        in_worker: bool,
    ) -> Optional["_BatchExecutionPlan"]:
        if not hasattr(dataset, "load_untransformed"):
            return None
        compose = getattr(dataset, "transform", None)
        if not isinstance(compose, Compose) or not BatchCompose.supports(compose):
            return None
        # Unwrap _InstrumentedCollate (duck-typed) to check for the stock
        # collate; a custom collate_fn means sample structure we cannot
        # assume, so the per-sample path keeps authority.
        unwrapped = getattr(collate_fn, "_collate_fn", collate_fn)
        if unwrapped is not default_collate:
            return None
        return cls(dataset, compose, collate_fn, reuse_buffers, buffer_depth, in_worker)

    @staticmethod
    def _batchable(samples: List[Any]) -> bool:
        """Whether every loaded sample is (decoded RGB Image, int label)."""
        if not samples:
            return False
        for sample in samples:
            if not (isinstance(sample, tuple) and len(sample) == 2):
                return False
            image, label = sample
            if not isinstance(image, Image) or not image.is_decoded:
                return False
            if image.mode != "RGB":
                return False
            if not _batchable_label(label):
                return False
        return True

    def _draw_boxes(self, labels, widths, heights):
        """The fused load's crop hook. Labels are checked before any box
        is drawn, so a batch that falls back to the per-sample chain gets
        whole images and finds RRC's stream untouched."""
        if not all(_batchable_label(label) for label in labels):
            return None
        start = time.time_ns()
        boxes = self._head.draw_boxes(widths, heights)
        self._draw_ns = time.time_ns() - start
        return boxes

    def fetch(self, indices: Sequence[int]) -> Any:
        # Whole-batch load first: one stacked decode pass and one Loader
        # record per batch. Datasets (or loaders) without a bulk form
        # return None and keep the per-sample load loop.
        samples = None
        if self._fused:
            samples = self._load_batch(indices, self._draw_boxes)
        elif self._load_batch is not None:
            samples = self._load_batch(indices)
        if samples is None:
            samples = [self._load_one(index) for index in indices]
        if not self._batchable(samples):
            # Per-sample fallback over the *already loaded* images: the
            # transforms run in the oracle's order (preserving RNG
            # draws) and Loader records are not duplicated.
            transformed = [
                (self._compose(image), label) for image, label in samples
            ]
            return self._collate_fn(transformed)
        self.arena.advance()
        images = [image for image, _ in samples]
        batch = self._batch_compose(images, self.arena, head_ns=self._draw_ns)
        # Final assembly is this path's collation: label writeout plus
        # the Tensor wraps (the image batch itself was already written
        # in place by the transform chain).
        start = time.time_ns()
        labels = self.arena.get("labels", (len(samples),), np.int64)
        labels[:] = [label for _, label in samples]
        data = (Tensor(batch), Tensor(labels))
        if self._sink is not None:
            self._sink.write(
                TraceRecord(
                    kind=KIND_OP,
                    name=COLLATION_OP_NAME,
                    batch_id=current_batch_id(),
                    worker_id=current_worker_id(),
                    pid=current_pid(),
                    start_ns=start,
                    duration_ns=time.time_ns() - start,
                )
            )
        return data


class _MapDatasetFetcher(_BaseDatasetFetcher):
    """Fetcher for map-style datasets: index each sample, then collate.

    When a batch execution plan resolves (and the engine selection — the
    explicit ``batched`` flag, else the ambient ``batch_engine()`` —
    asks for it), ``fetch`` runs the whole batch through the plan
    instead of the per-sample loop.
    """

    def __init__(
        self,
        dataset: Any,
        collate_fn: Callable,
        batched: Optional[bool] = None,
        reuse_buffers: bool = False,
        buffer_depth: int = 1,
        in_worker: bool = False,
    ) -> None:
        super().__init__(dataset, collate_fn)
        self._batched = batched
        # The dataset's bulk form of the per-sample loop (DESIGN.md §13),
        # resolved once; None keeps ``[dataset[i] for i in indices]``.
        self._getitems = (
            getattr(dataset, "__getitems__", None) if in_worker else None
        )
        self._plan: Optional[_BatchExecutionPlan] = None
        if batched is not False:
            self._plan = _BatchExecutionPlan.resolve(
                dataset, collate_fn, reuse_buffers, buffer_depth, in_worker
            )
        # Shared decoded-sample cache (DESIGN.md §11): the caching loader
        # pins arena entries it hands out and releases them a fixed
        # number of batches later — the fetch boundary is that batch
        # clock. Duck-typed so datasets without a caching loader resolve
        # to None once and pay nothing per fetch.
        self._advance_cache_batch = getattr(
            getattr(dataset, "loader", None), "advance_batch", None
        )

    def _use_batched(self) -> bool:
        if self._plan is None:
            return False
        if self._batched is not None:
            return self._batched
        return current_batch_engine() == ENGINE_BATCHED

    def fetch(self, indices: Sequence[int]) -> Any:
        if self._advance_cache_batch is not None:
            self._advance_cache_batch()
        if self._use_batched():
            return self._plan.fetch(indices)
        if self._getitems is not None:
            samples = self._getitems(indices)
        else:
            samples = [self.dataset[index] for index in indices]
        return self.collate_fn(samples)


class _IterableDatasetFetcher(_BaseDatasetFetcher):
    """Fetcher for iterable datasets: pull ``len(indices)`` items."""

    def __init__(self, dataset: Any, collate_fn: Callable) -> None:
        super().__init__(dataset, collate_fn)
        self._iterator: Optional[Iterator[Any]] = None

    def fetch(self, indices: Sequence[int]) -> Any:
        if self._iterator is None:
            self._iterator = iter(self.dataset)
        samples: List[Any] = []
        for _ in indices:
            try:
                samples.append(next(self._iterator))
            except StopIteration:
                break
        if not samples:
            raise StopIteration
        return self.collate_fn(samples)


def create_fetcher(
    dataset: Any,
    collate_fn: Callable,
    batched: Optional[bool] = None,
    reuse_buffers: bool = False,
    buffer_depth: int = 1,
    in_worker: bool = False,
) -> _BaseDatasetFetcher:
    """Pick the fetcher class matching the dataset style.

    ``batched``/``reuse_buffers``/``buffer_depth`` configure the
    map-style fetcher's batched fast path (iterable fetchers stream
    sample by sample and ignore them). ``buffer_depth`` is the loader's
    scheduler-governed ``batch_buffer_depth`` (DESIGN.md §12): the arena
    must cycle at least as many generations as batches this worker can
    have in flight, which stealing/adaptive dispatch widens beyond the
    static ``prefetch_factor + 2``.

    ``in_worker`` arms the two worker-only rewrites: the per-sample
    branch reads ahead through the dataset's ``__getitems__`` (DESIGN.md
    §13), and the batched branch fuses RandomResizedCrop into the decode
    (§14). Only ``worker_loop`` passes it, so ``num_workers=0`` stays the
    strictly serial, unfused reference — the parity oracle, and what the
    benchmark's per-layer budget is closed against.
    """
    if buffer_depth < 1:
        raise DataLoaderError(
            f"buffer_depth must be >= 1, got {buffer_depth}"
        )
    if isinstance(dataset, IterableDataset):
        return _IterableDatasetFetcher(dataset, collate_fn)
    if hasattr(dataset, "__getitem__"):
        return _MapDatasetFetcher(
            dataset,
            collate_fn,
            batched=batched,
            reuse_buffers=reuse_buffers,
            buffer_depth=buffer_depth,
            in_worker=in_worker,
        )
    raise DataLoaderError(
        f"dataset {type(dataset)!r} is neither map-style nor iterable"
    )
