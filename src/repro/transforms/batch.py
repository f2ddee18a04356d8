"""Batched execution engine for the preprocessing hot loop.

:class:`BatchCompose` applies each transform of a :class:`Compose` chain
once per *batch* over stacked numpy arrays instead of once per sample,
using the batch-aware branches of the ``@native`` imaging kernels — so
LotusMap attribution and the simulated PMU cost model see the same
C-symbol buckets as the per-sample oracle.

Engine selection follows the substrate's ``entropy_mode()`` /
``analysis_engine()`` pattern: ``"batched"`` is the default wherever the
transform chain supports it, ``"persample"`` forces the retained
per-sample path (the parity oracle). The contract both engines are held
to — bit-identical pixels, identical RNG draw order, equivalent [T3]
records — is DESIGN.md §7; ``tests/test_batched_parity.py`` enforces it.

Batch layout moves through three stages:

* ``ragged`` — list of per-image ``(H, W, C)`` uint8 arrays (decoded
  images are heterogeneously sized until a crop/resize normalizes them);
* ``hwc`` — one uniform ``(N, H, W, C)`` uint8 stack;
* ``chw8`` — a uniform ``(N, C, H, W)`` uint8 stack (what
  :func:`batch_resample` produces: the resample core runs channels
  first so each GEMM needs no transpose copy, and ToTensor then scales
  straight into the float batch buffer with no layout change);
* ``chw`` — the ``(N, C, H, W)`` float32 tensor batch after ToTensor.

Transforms advertise a ``batch_stage`` (``"image"``, ``"to_tensor"`` or
``"tensor"``) plus a ``batch_apply(batch, arena)`` method;
:meth:`BatchCompose.supports` only engages the fast path for chains of
the shape ``image* to_tensor tensor*``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lotustrace.context import (
    current_batch_id,
    current_pid,
    current_worker_id,
)
from repro.core.lotustrace.records import KIND_OP, TraceRecord
from repro.errors import ReproError
from repro.imaging import kernels
from repro.tensor.batchbuffer import BatchBuffer

ENGINE_BATCHED = "batched"
ENGINE_PERSAMPLE = "persample"

STAGE_IMAGE = "image"
STAGE_TO_TENSOR = "to_tensor"
STAGE_TENSOR = "tensor"

_engine = threading.local()


def current_batch_engine() -> str:
    """The preprocessing engine selected for the calling thread."""
    return getattr(_engine, "mode", ENGINE_BATCHED)


@contextmanager
def batch_engine(mode: str) -> Iterator[None]:
    """Select the preprocessing execution engine for the current thread.

    ``"batched"`` (the default) runs :class:`BatchCompose` over whole
    batches when the transform chain supports it; ``"persample"`` forces
    the per-sample ``Compose`` loop — the parity oracle, and the
    granularity the paper's own instrumentation logs at.
    """
    if mode not in (ENGINE_BATCHED, ENGINE_PERSAMPLE):
        raise ValueError(f"unknown batch engine: {mode!r}")
    previous = getattr(_engine, "mode", None)
    _engine.mode = mode
    try:
        yield
    finally:
        if previous is None:
            del _engine.mode
        else:
            _engine.mode = previous


class ImageBatch:
    """A batch of images in one of the three batched layouts."""

    __slots__ = ("arrays", "stack", "layout")

    def __init__(
        self,
        layout: str,
        arrays: List[np.ndarray] = None,
        stack: np.ndarray = None,
    ) -> None:
        self.layout = layout
        self.arrays = arrays
        self.stack = stack

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "ImageBatch":
        return cls("ragged", arrays=list(arrays))

    @property
    def n(self) -> int:
        if self.layout == "ragged":
            return len(self.arrays)
        return self.stack.shape[0]

    def image_arrays(self) -> List[np.ndarray]:
        """Per-image (H, W, C) views, regardless of layout (not chw)."""
        if self.layout == "ragged":
            return self.arrays
        if self.layout == "hwc":
            return [self.stack[i] for i in range(self.stack.shape[0])]
        if self.layout == "chw8":
            return [
                self.stack[i].transpose(1, 2, 0)
                for i in range(self.stack.shape[0])
            ]
        raise ReproError("chw batch has no per-image HWC arrays")

    def image_sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-image (widths, heights) in PIL (width, height) order."""
        if self.layout in ("hwc", "chw8"):
            if self.layout == "hwc":
                n, height, width = self.stack.shape[:3]
            else:
                n, _, height, width = self.stack.shape
            full = np.full(n, 0, dtype=np.int64)
            return full + width, full + height
        if self.layout == "ragged":
            widths = np.array([a.shape[1] for a in self.arrays], dtype=np.int64)
            heights = np.array([a.shape[0] for a in self.arrays], dtype=np.int64)
            return widths, heights
        raise ReproError("chw batch has no image sizes")

    def require_hwc_stack(self) -> np.ndarray:
        """The uniform (N, H, W, C) uint8 stack; stacks a ragged batch
        whose images happen to share a shape, raises otherwise."""
        if self.layout == "hwc":
            return self.stack
        if self.layout == "chw8":
            return self.stack.transpose(0, 2, 3, 1)
        if self.layout == "ragged":
            first = self.arrays[0].shape
            if any(a.shape != first for a in self.arrays):
                raise ReproError(
                    "cannot stack heterogeneously sized images; add a "
                    "size-normalizing transform (Resize/RandomResizedCrop) "
                    "before ToTensor"
                )
            return np.stack(self.arrays)
        raise ReproError("batch is already in CHW tensor layout")

    def require_chw(self) -> np.ndarray:
        if self.layout != "chw":
            raise ReproError(f"expected CHW tensor batch, got {self.layout!r}")
        return self.stack


def batch_resample(
    images: Sequence[np.ndarray],
    widths: np.ndarray,
    heights: np.ndarray,
    size: Tuple[int, int],
    arena: BatchBuffer,
    key: str,
) -> np.ndarray:
    """Bilinear-resize N ragged images to ``size`` in two passes.

    ``images`` is a list of per-image ``(H, W, C)`` uint8 arrays of
    heterogeneous sizes — no padding to the batch-max box, so no wasted
    arithmetic; the result is a ``(N, C, out_h, out_w)`` uint8 stack
    (the ``chw8`` layout). Filter matrices come memoized per size from
    ``resample_filter_matrix``; both resample passes run once per batch
    through the kernels' batched list form, which loops the *same*
    channels-first per-image GEMM the oracle's ``Image.resize`` makes —
    so output pixels are bit-identical to the per-sample path while the
    per-image Python/framework overhead (coefficient recomputes, wrapper
    objects, allocator calls, final round/clip/cast) is amortized across
    the batch (DESIGN.md §7).
    """
    n_images = len(images)
    out_w, out_h = size
    channels = images[0].shape[2]
    h_matrices = [
        kernels.resample_filter_matrix(w, out_w) for w in widths.tolist()
    ]
    v_matrices = [
        kernels.resample_filter_matrix(h, out_h) for h in heights.tolist()
    ]
    # Per-image channels-first float sources and horizontal-pass outputs
    # are carved out of two reused flat slabs — N fresh MB-scale numpy
    # allocations per batch cost more in allocator/page-fault traffic
    # than the arithmetic they feed.
    src_sizes = channels * heights * widths
    src_offsets = np.concatenate(([0], np.cumsum(src_sizes)))
    src_slab = arena.get(f"{key}-src", (int(src_offsets[-1]),), np.float32)
    sources = []
    for n, img in enumerate(images):
        view = src_slab[src_offsets[n] : src_offsets[n + 1]].reshape(
            channels, int(heights[n]), int(widths[n])
        )
        np.copyto(view, img.transpose(2, 0, 1), casting="unsafe")
        sources.append(view)
    mid_sizes = channels * heights * out_w
    mid_offsets = np.concatenate(([0], np.cumsum(mid_sizes)))
    mid_slab = arena.get(f"{key}-mid", (int(mid_offsets[-1]),), np.float32)
    mids = kernels.imaging_resample_horizontal(
        sources,
        None,
        None,
        channels_first=True,
        out=[
            mid_slab[mid_offsets[n] : mid_offsets[n + 1]].reshape(
                channels, int(heights[n]), out_w
            )
            for n in range(n_images)
        ],
        matrices=h_matrices,
    )
    final = arena.get(
        f"{key}-f32", (n_images, channels, out_h, out_w), np.float32
    )
    kernels.imaging_resample_vertical(
        mids, None, None, channels_first=True, out=final, matrices=v_matrices
    )
    # Same allocator-visibility calls the per-image resize makes, once
    # per batch instead of once per image.
    kernels.memmove_gather(final, np.arange(n_images))
    kernels.int_free(final)
    np.rint(final, out=final)
    np.clip(final, 0.0, 255.0, out=final)
    out = arena.get(f"{key}-u8", (n_images, channels, out_h, out_w), np.uint8)
    np.copyto(out, final, casting="unsafe")
    return out


class BatchCompose:
    """Batch-granular executor for a supported :class:`Compose` chain.

    Emits the same [T3] op records as the per-sample loop — one record
    per transform per *batch* (duration = the batch's wall time for that
    transform, i.e. what the oracle's N per-sample records sum to), with
    the real batch id from the ambient :func:`batch_scope` instead of the
    -1 placeholder that analysis recovers by span containment.

    ``head`` replaces the first transform's ``batch_apply`` while its
    record keeps that transform's name: the fused decode-and-crop path
    runs RandomResizedCrop's resize alone on images the decode already
    cropped (DESIGN.md §14).
    """

    def __init__(self, compose, head: Optional[Callable] = None) -> None:
        if not self.supports(compose):
            raise ReproError(
                f"transform chain does not support batched execution: {compose!r}"
            )
        self._compose = compose
        # (record name, batch_apply) per transform, resolved once.
        self._stages = [
            (
                getattr(transform, "lotus_op_name", None) or type(transform).__name__,
                transform.batch_apply,
            )
            for transform in compose.transforms
        ]
        if head is not None:
            self._stages[0] = (self._stages[0][0], head)

    @staticmethod
    def supports(compose) -> bool:
        """True when every transform is batch-aware and the chain has the
        shape ``image* to_tensor tensor*`` (exactly one ToTensor stage)."""
        transforms = getattr(compose, "transforms", None)
        if not transforms:
            return False
        stages = []
        for transform in transforms:
            stage = getattr(transform, "batch_stage", None)
            if stage is None or not hasattr(transform, "batch_apply"):
                return False
            stages.append(stage)
        if stages.count(STAGE_TO_TENSOR) != 1:
            return False
        pivot = stages.index(STAGE_TO_TENSOR)
        return all(s == STAGE_IMAGE for s in stages[:pivot]) and all(
            s == STAGE_TENSOR for s in stages[pivot + 1 :]
        )

    def __call__(
        self, images: Sequence, arena: BatchBuffer, head_ns: int = 0
    ) -> np.ndarray:
        """Run the chain over decoded images; returns the (N, C, H, W)
        float32 tensor batch (backed by the arena). ``head_ns`` is work
        the first transform did before this call (the fused path's box
        draw); its record covers it, ending where the stage ends."""
        batch = ImageBatch.from_arrays([image.to_array() for image in images])
        sink = self._compose.log_sink
        if sink is None:
            for _, apply in self._stages:
                batch = apply(batch, arena)
            return batch.require_chw()
        pid = current_pid()
        worker_id = current_worker_id()
        batch_id = current_batch_id()
        for name, apply in self._stages:
            start = time.time_ns()
            batch = apply(batch, arena)
            duration = time.time_ns() - start + head_ns
            sink.write(
                TraceRecord(
                    kind=KIND_OP,
                    name=name,
                    batch_id=batch_id,
                    worker_id=worker_id,
                    pid=pid,
                    start_ns=start - head_ns,
                    duration_ns=duration,
                )
            )
            head_ns = 0
        return batch.require_chw()

    def __repr__(self) -> str:
        inner = ", ".join(type(t).__name__ for t in self._compose.transforms)
        return f"BatchCompose([{inner}])"
