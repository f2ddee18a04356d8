"""Forward / inverse blockwise DCT kernels (libjpeg ``jfdctint``/``jidctint``).

The transforms are exact type-II/type-III DCTs computed as matrix products
over all blocks of a plane at once. ``jpeg_idct_islow`` is the standard
8x8 inverse used for the luma plane; ``jpeg_idct_16x16`` fuses the 2x
chroma upscale into the inverse transform, which is how libjpeg decodes
subsampled chroma when output scaling is requested — and why both symbols
appear in the paper's Table I for the Loader operation.
"""

from __future__ import annotations

import numpy as np

from repro.clib.costmodel import COMPUTE_BOUND, CostSignature
from repro.clib.registry import LIBJPEG, native
from repro.imaging.jpeg.tables import BLOCK


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix of size n."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat.astype(np.float64)


_D8 = _dct_matrix(BLOCK)
_D8_T = _D8.T
# 16-point synthesis basis truncated to 8 input coefficients: reconstructs a
# 16x16 spatial block from an 8x8 coefficient block (fused 2x upscale).
_D16 = _dct_matrix(2 * BLOCK)
_SYN16 = (_D16.T[:, :BLOCK] * np.sqrt(2.0)).astype(np.float64)


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) plane -> (n_blocks, 8, 8), H and W multiples of 8."""
    h, w = plane.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"plane dims must be multiples of {BLOCK}, got {plane.shape}")
    blocks = plane.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
    return blocks.transpose(0, 2, 1, 3).reshape(-1, BLOCK, BLOCK)


def blocks_to_plane(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """(n_blocks, B, B) -> (height, width) plane (inverse of the above)."""
    b = blocks.shape[-1]
    rows, cols = height // b, width // b
    if rows * cols != blocks.shape[0]:
        raise ValueError(
            f"{blocks.shape[0]} blocks cannot tile a {height}x{width} plane"
        )
    grid = blocks.reshape(rows, cols, b, b).transpose(0, 2, 1, 3)
    return grid.reshape(height, width)


def blocks_to_planes(
    blocks: np.ndarray, count: int, height: int, width: int
) -> np.ndarray:
    """(count * blocks_per_plane, B, B) -> (count, height, width) stack.

    The batched form of :func:`blocks_to_plane`: every plane of a
    shape-homogeneous decode group detiles in one transpose-reshape,
    with each plane's slice laid out exactly as its per-plane call
    would produce.
    """
    b = blocks.shape[-1]
    rows, cols = height // b, width // b
    if count * rows * cols != blocks.shape[0]:
        raise ValueError(
            f"{blocks.shape[0]} blocks cannot tile {count} {height}x{width} planes"
        )
    grid = blocks.reshape(count, rows, cols, b, b).transpose(0, 1, 3, 2, 4)
    return grid.reshape(count, height, width)


def repeat_quant_tables(
    tables: "tuple[np.ndarray, ...]", repeats: "tuple[int, ...]"
) -> np.ndarray:
    """Stack 8x8 quant tables broadcast by per-table block repeat counts.

    Produces the ``(sum(repeats), 8, 8)`` table stack that lets one
    :func:`dequantize_blocks` call cover every block of a whole decode
    group — numpy broadcasting makes the batched multiply elementwise-
    identical to N per-plane calls.
    """
    return np.repeat(
        np.stack([np.asarray(t) for t in tables]),
        np.asarray(repeats, dtype=np.int64),
        axis=0,
    )


def _to_pixels(spatial: np.ndarray) -> np.ndarray:
    """Level-shift, round and clip a float IDCT output to uint8, in place."""
    spatial += 128.0
    np.rint(spatial, out=spatial)
    np.clip(spatial, 0, 255, out=spatial)
    return spatial.astype(np.uint8)


@native(
    "forward_DCT",
    library=LIBJPEG,
    signature=COMPUTE_BOUND,
)
def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Type-II DCT of each (8, 8) block; input level-shifted by -128."""
    shifted = blocks.astype(np.float64) - 128.0
    return _D8 @ shifted @ _D8_T


@native(
    "jpeg_idct_islow",
    library=LIBJPEG,
    signature=CostSignature(
        ipc=2.6,
        uops_per_instruction=1.05,
        front_end_bound=0.07,
        back_end_bound=0.18,
        dram_bound=0.03,
        l1_mpki=3.0,
        llc_mpki=0.2,
        branch_mpki=0.6,
    ),
)
def jpeg_idct_islow(coeff_blocks: np.ndarray) -> np.ndarray:
    """Inverse 8x8 DCT; returns uint8 spatial blocks (level shift +128)."""
    spatial = _D8_T @ coeff_blocks.astype(np.float64) @ _D8
    return _to_pixels(spatial)


@native(
    "jpeg_idct_16x16",
    library=LIBJPEG,
    signature=COMPUTE_BOUND,
)
def jpeg_idct_16x16(coeff_blocks: np.ndarray) -> np.ndarray:
    """Inverse DCT with fused 2x upscale: (n, 8, 8) -> (n, 16, 16) uint8."""
    spatial = _SYN16 @ coeff_blocks.astype(np.float64) @ _SYN16.T
    return _to_pixels(spatial)


@native(
    "quantize_block",
    library=LIBJPEG,
    signature=COMPUTE_BOUND,
)
def quantize_blocks(coeff_blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize DCT coefficients to int16 by the given 8x8 table."""
    return np.round(coeff_blocks / table).astype(np.int16)


@native(
    "dequantize_block",
    library=LIBJPEG,
    signature=COMPUTE_BOUND,
)
def dequantize_blocks(quant_blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Undo :func:`quantize_blocks` (lossy: rounding is not invertible)."""
    return quant_blocks.astype(np.float64) * table
