"""Color-space conversion and chroma resampling kernels.

These mirror libjpeg's ``jccolor.c`` / ``jdcolor.c`` / ``jdsample.c``
kernels and are registered under the symbols hardware profilers report
(``ycc_rgb_convert``, ``sep_upsample``).
"""

from __future__ import annotations

import numpy as np

from repro.clib.costmodel import COMPUTE_BOUND, MEMORY_BOUND, CostSignature
from repro.clib.registry import LIBJPEG, native


@native(
    "rgb_ycc_convert",
    library=LIBJPEG,
    signature=COMPUTE_BOUND,
)
def rgb_ycc_convert(rgb: np.ndarray) -> np.ndarray:
    """RGB (H, W, 3) uint8 -> YCbCr float32 planes, BT.601 full range."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got shape {rgb.shape}")
    r = rgb[..., 0].astype(np.float32)
    g = rgb[..., 1].astype(np.float32)
    b = rgb[..., 2].astype(np.float32)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


@native(
    "ycc_rgb_convert",
    library=LIBJPEG,
    signature=CostSignature(
        ipc=2.2,
        uops_per_instruction=1.1,
        front_end_bound=0.10,
        back_end_bound=0.28,
        dram_bound=0.08,
        l1_mpki=14.0,
        llc_mpki=2.0,
        branch_mpki=0.8,
    ),
)
def ycc_rgb_convert(ycc: np.ndarray) -> np.ndarray:
    """YCbCr float32 (H, W, 3) -> RGB uint8, BT.601 full range.

    Also accepts a stacked ``(B, H, W, 3)`` batch — the conversion is
    purely elementwise, so one call over a whole decode group produces
    bit-identical pixels to B per-image calls.
    """
    if ycc.ndim not in (3, 4) or ycc.shape[-1] != 3:
        raise ValueError(
            f"expected (..., H, W, 3) array, got shape {ycc.shape}"
        )
    y = ycc[..., 0]
    cb = ycc[..., 1] - 128.0
    cr = ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=-1)
    np.rint(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    return rgb.astype(np.uint8)


@native(
    "h2v2_downsample",
    library=LIBJPEG,
    signature=MEMORY_BOUND,
)
def h2v2_downsample(plane: np.ndarray) -> np.ndarray:
    """2x2 box-average chroma downsampling (4:2:0 encode path).

    The plane must have even dimensions (the codec pads to a multiple of
    16 before subsampling).
    """
    h, w = plane.shape
    if h % 2 or w % 2:
        raise ValueError(f"plane dims must be even, got {plane.shape}")
    quads = plane.reshape(h // 2, 2, w // 2, 2)
    return quads.mean(axis=(1, 3)).astype(np.float32)


@native(
    "sep_upsample",
    library=LIBJPEG,
    signature=MEMORY_BOUND,
    vendors=("amd",),
)
def sep_upsample(plane: np.ndarray) -> np.ndarray:
    """2x nearest-neighbour chroma upsampling (4:2:0 decode path).

    Listed as AMD-specific in the paper's Table I: Intel's driver does not
    resolve this short symbol, so it only shows up in uProf profiles.
    Upsampling runs over the trailing two axes, so a stacked ``(B, H, W)``
    plane batch upsamples in one call.
    """
    return np.repeat(np.repeat(plane, 2, axis=-2), 2, axis=-1)
