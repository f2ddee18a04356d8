"""Vision transforms for the image classification pipeline (paper § V-A IC).

Loader (decode) happens in the dataset's loader function; these are the
post-decode operations: RandomResizedCrop, RandomHorizontalFlip, ToTensor,
Normalize (and plain Resize for the detection pipeline).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clib.costmodel import MEMORY_BOUND
from repro.clib.registry import LIBTENSOR, native
from repro.errors import ReproError
from repro.imaging import kernels
from repro.imaging.image import FLIP_LEFT_RIGHT, Image
from repro.tensor.tensor import Tensor
from repro.transforms import batch
from repro.transforms.base import RandomTransform, Transform

SizeLike = Union[int, Tuple[int, int]]


def _as_size(size: SizeLike) -> Tuple[int, int]:
    if isinstance(size, int):
        return (size, size)
    width, height = size
    return (int(width), int(height))


@native(
    "at::native::div_",
    library=LIBTENSOR,
    signature=MEMORY_BOUND,
)
def _tensor_div(
    array: np.ndarray, divisor: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    if out is None:
        return array / divisor
    return np.divide(array, divisor, out=out)


@native(
    "at::native::sub_",
    library=LIBTENSOR,
    signature=MEMORY_BOUND,
)
def _tensor_sub(
    array: np.ndarray, value: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    if out is None:
        return array - value
    return np.subtract(array, value, out=out)


class RandomResizedCrop(RandomTransform):
    """Crop a random area/aspect-ratio box, then resize to ``size``.

    Follows torchvision's sampling: up to 10 attempts to draw a box with
    area in ``scale`` × image area and aspect ratio in ``ratio``; on
    failure, falls back to a center crop.
    """

    def __init__(
        self,
        size: SizeLike,
        scale: Tuple[float, float] = (0.08, 1.0),
        ratio: Tuple[float, float] = (3.0 / 4.0, 4.0 / 3.0),
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        self.size = _as_size(size)
        if not 0 < scale[0] <= scale[1]:
            raise ReproError(f"invalid scale range: {scale}")
        if not 0 < ratio[0] <= ratio[1]:
            raise ReproError(f"invalid ratio range: {ratio}")
        self.scale = scale
        self.ratio = ratio

    def _sample_box(self, width: int, height: int) -> Tuple[int, int, int, int]:
        rng = self._rng()
        area = width * height
        log_ratio = (math.log(self.ratio[0]), math.log(self.ratio[1]))
        for _ in range(10):
            target_area = area * rng.uniform(*self.scale)
            aspect = math.exp(rng.uniform(*log_ratio))
            w = int(round(math.sqrt(target_area * aspect)))
            h = int(round(math.sqrt(target_area / aspect)))
            if 0 < w <= width and 0 < h <= height:
                left = int(rng.integers(0, width - w + 1))
                top = int(rng.integers(0, height - h + 1))
                return (left, top, left + w, top + h)
        # Fallback: largest center crop within the ratio bounds.
        in_ratio = width / height
        if in_ratio < self.ratio[0]:
            w, h = width, int(round(width / self.ratio[0]))
        elif in_ratio > self.ratio[1]:
            w, h = int(round(height * self.ratio[1])), height
        else:
            w, h = width, height
        left = (width - w) // 2
        top = (height - h) // 2
        return (left, top, left + w, top + h)

    def __call__(self, image: Image) -> Image:
        width, height = image.size
        box = self._sample_box(width, height)
        return image.crop(box).resize(self.size)

    batch_stage = batch.STAGE_IMAGE

    def draw_boxes(
        self, widths: Sequence[int], heights: Sequence[int]
    ) -> List[Tuple[int, int, int, int]]:
        """One crop box per image, drawn *in sample order*.

        This transform owns its own RNG stream, so drawing N parameter
        sets up front consumes that stream exactly as the interleaved
        per-sample loop does (DESIGN.md §7) — which is what lets the
        fused decode draw them before any pixel exists (§14).
        """
        return [self._sample_box(int(w), int(h)) for w, h in zip(widths, heights)]

    def batch_apply(self, batch_in, arena):
        """Crop+resize all N images in one fused pass."""
        widths, heights = batch_in.image_sizes()
        boxes = np.array(self.draw_boxes(widths, heights), dtype=np.int64)
        lefts, tops, rights, lowers = boxes.reshape(-1, 4).T
        crops = kernels.imaging_crop(
            batch_in.image_arrays(), tops, lefts, lowers - tops, rights - lefts
        )
        return self.batch_apply_cropped(batch.ImageBatch.from_arrays(crops), arena)

    def batch_apply_cropped(self, batch_in, arena):
        """:meth:`batch_apply` for images already cropped to the boxes
        :meth:`draw_boxes` returned (the fused decode's output): the
        resize alone."""
        widths, heights = batch_in.image_sizes()
        resized = batch.batch_resample(
            batch_in.image_arrays(), widths, heights, self.size, arena, key="rrc"
        )
        return batch.ImageBatch("chw8", stack=resized)

    def __repr__(self) -> str:
        return f"RandomResizedCrop(size={self.size})"


class RandomHorizontalFlip(RandomTransform):
    """Mirror the image with probability ``p`` (default 0.5)."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__(seed)
        if not 0.0 <= p <= 1.0:
            raise ReproError(f"p must be in [0, 1], got {p}")
        self.p = p

    def __call__(self, image: Image) -> Image:
        if self._rng().random() < self.p:
            return image.transpose(FLIP_LEFT_RIGHT)
        return image

    batch_stage = batch.STAGE_IMAGE

    def batch_apply(self, batch_in, arena):
        # One vectorized draw of N coins consumes the PCG64 stream
        # exactly as N scalar random() calls would (DESIGN.md §7).
        coins = self._rng().random(batch_in.n)
        flip = np.nonzero(coins < self.p)[0]
        if flip.size == 0:
            return batch_in
        if batch_in.layout in ("hwc", "chw8"):
            batch_in.stack[flip] = kernels.imaging_flip_left_right(
                batch_in.stack[flip],
                channels_first=batch_in.layout == "chw8",
            )
            return batch_in
        arrays = list(batch_in.arrays)
        for i in flip:
            arrays[int(i)] = kernels.imaging_flip_left_right(arrays[int(i)])
        return batch.ImageBatch.from_arrays(arrays)

    def __repr__(self) -> str:
        return f"RandomHorizontalFlip(p={self.p})"


class Resize(Transform):
    """Deterministic bilinear resize to ``size`` (width, height)."""

    def __init__(self, size: SizeLike) -> None:
        self.size = _as_size(size)

    def __call__(self, image: Image) -> Image:
        return image.resize(self.size)

    batch_stage = batch.STAGE_IMAGE

    def batch_apply(self, batch_in, arena):
        widths, heights = batch_in.image_sizes()
        resized = batch.batch_resample(
            batch_in.image_arrays(), widths, heights, self.size, arena,
            key="resize",
        )
        return batch.ImageBatch("chw8", stack=resized)

    def __repr__(self) -> str:
        return f"Resize(size={self.size})"


class ToTensor(Transform):
    """(H, W, C) uint8 image -> (C, H, W) float32 tensor in [0, 1]."""

    def __call__(self, image: Image) -> Tensor:
        array = image.to_array()
        if array.ndim == 2:
            array = array[..., None]
        chw = np.ascontiguousarray(array.transpose(2, 0, 1)).astype(np.float32)
        scaled = _tensor_div(chw, np.float32(255.0))
        return Tensor(scaled)

    batch_stage = batch.STAGE_TO_TENSOR

    def batch_apply(self, batch_in, arena):
        # uint8 / float32-scalar divides straight into the float32 batch
        # buffer — bit-identical to the oracle's astype-then-divide, one
        # pass instead of transpose-copy + cast + divide per sample. A
        # chw8 batch (the resample core's native layout) needs no
        # transpose at all.
        if batch_in.layout == "chw8":
            stack = batch_in.stack
            out = arena.get("tensor", stack.shape, np.float32)
            _tensor_div(stack, np.float32(255.0), out=out)
            return batch.ImageBatch("chw", stack=out)
        stack = batch_in.require_hwc_stack()
        n, height, width, channels = stack.shape
        out = arena.get("tensor", (n, channels, height, width), np.float32)
        _tensor_div(stack.transpose(0, 3, 1, 2), np.float32(255.0), out=out)
        return batch.ImageBatch("chw", stack=out)


class Normalize(Transform):
    """Per-channel standardization of a (C, H, W) float tensor."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]) -> None:
        if len(mean) != len(std):
            raise ReproError(
                f"mean/std length mismatch: {len(mean)} vs {len(std)}"
            )
        if any(s == 0 for s in std):
            raise ReproError("std contains zero")
        self.mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)

    def __call__(self, tensor: Tensor) -> Tensor:
        array = tensor.numpy()
        if array.shape[0] != self.mean.shape[0]:
            raise ReproError(
                f"channel mismatch: tensor has {array.shape[0]}, "
                f"normalize configured for {self.mean.shape[0]}"
            )
        centered = _tensor_sub(array, self.mean)
        return Tensor(_tensor_div(centered, self.std))

    batch_stage = batch.STAGE_TENSOR

    def batch_apply(self, batch_in, arena):
        array = batch_in.require_chw()
        if array.shape[1] != self.mean.shape[0]:
            raise ReproError(
                f"channel mismatch: tensor has {array.shape[1]}, "
                f"normalize configured for {self.mean.shape[0]}"
            )
        # In place on the batch buffer: float32 sub/div give the same
        # bits whether or not they allocate a destination.
        _tensor_sub(array, self.mean, out=array)
        _tensor_div(array, self.std, out=array)
        return batch_in

    def __repr__(self) -> str:
        return (
            f"Normalize(mean={self.mean.ravel().tolist()}, "
            f"std={self.std.ravel().tolist()})"
        )


class CenterCrop(Transform):
    """Crop the central (width, height) region, padding if too small."""

    def __init__(self, size: SizeLike) -> None:
        self.size = _as_size(size)

    def __call__(self, image: Image) -> Image:
        target_w, target_h = self.size
        width, height = image.size
        if width < target_w or height < target_h:
            image = Pad(
                (max(0, (target_w - width + 1) // 2),
                 max(0, (target_h - height + 1) // 2)),
            )(image)
            width, height = image.size
        left = (width - target_w) // 2
        top = (height - target_h) // 2
        return image.crop((left, top, left + target_w, top + target_h))

    def __repr__(self) -> str:
        return f"CenterCrop(size={self.size})"


class Pad(Transform):
    """Pad by (left/right, top/bottom) pixels with a constant fill."""

    def __init__(self, padding: Union[int, Tuple[int, int]], fill: int = 0) -> None:
        if isinstance(padding, int):
            padding = (padding, padding)
        pad_w, pad_h = padding
        if pad_w < 0 or pad_h < 0:
            raise ReproError(f"padding must be >= 0, got {padding}")
        self.padding = (pad_w, pad_h)
        self.fill = fill

    def __call__(self, image: Image) -> Image:
        pad_w, pad_h = self.padding
        if pad_w == 0 and pad_h == 0:
            return image
        array = image.to_array()
        spec = [(pad_h, pad_h), (pad_w, pad_w)]
        if array.ndim == 3:
            spec.append((0, 0))
        padded = np.pad(array, spec, mode="constant", constant_values=self.fill)
        return Image(padded, mode=image.mode)

    def __repr__(self) -> str:
        return f"Pad(padding={self.padding}, fill={self.fill})"


class Grayscale(Transform):
    """Convert to grayscale; ``num_output_channels`` 1 keeps mode L,
    3 replicates the luma into an RGB image (torchvision semantics)."""

    def __init__(self, num_output_channels: int = 1) -> None:
        if num_output_channels not in (1, 3):
            raise ReproError(
                f"num_output_channels must be 1 or 3, got {num_output_channels}"
            )
        self.num_output_channels = num_output_channels

    def __call__(self, image: Image) -> Image:
        gray = image.convert("L")
        if self.num_output_channels == 1:
            return gray
        return gray.convert("RGB")


class Lambda(Transform):
    """Wrap an arbitrary callable; ``name`` labels it in traces.

    ``Compose`` honors the ``lotus_op_name`` attribute over the class
    name, so ad-hoc functions get meaningful [T3] op records.
    """

    def __init__(self, fn, name: str = "Lambda") -> None:
        if not callable(fn):
            raise ReproError(f"Lambda needs a callable, got {fn!r}")
        self._fn = fn
        self.lotus_op_name = name

    def __call__(self, value):
        return self._fn(value)

    def __repr__(self) -> str:
        return f"Lambda(name={self.lotus_op_name!r})"
