"""SJPG container encode/decode drivers.

File layout (little endian)::

    magic   4s   b"SJPG"
    version u8   (currently 1)
    flags   u8   bit0: 4:2:0 chroma subsampling
    quality u8   1..100
    mode    u8   0 = fused chroma IDCT, 1 = separate upsample
    width   u32  true image width
    height  u32  true image height
    3 x plane:
        padded_h u16, padded_w u16, payload_len u32, payload bytes

The decode driver is registered as ``decompress_onepass`` and, on machines
where the symbol resolves (AMD per Table I), wrapped by
``process_data_simple_main`` — so hardware profiles of the Loader
operation contain the same symbol set as the paper's Table I.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.clib.costmodel import BALANCED
from repro.clib.registry import LIBJPEG, native
from repro.errors import CodecError, ImageError
from repro.imaging.jpeg import color, dct, entropy
from repro.imaging.jpeg.tables import (
    BLOCK,
    CHROMA_QUANT_BASE,
    LUMA_QUANT_BASE,
    quant_table,
)
from repro.imaging import kernels
from repro.tensor.batchbuffer import BatchBuffer

MAGIC = b"SJPG"
VERSION = 1
FLAG_SUBSAMPLED = 0x01
MODE_FUSED_IDCT = 0
MODE_SEPARATE_UPSAMPLE = 1
# Encode quality at or above this threshold selects the fused 16x16 chroma
# IDCT; below it, decode takes the separate idct + sep_upsample path. The
# branch depends on per-image data, which is exactly the "inconsistent
# C/C++ functions" capture problem LotusMap handles (§ IV-B).
FUSED_QUALITY_THRESHOLD = 70

_HEADER = struct.Struct("<4sBBBBII")
_PLANE_HEADER = struct.Struct("<HHI")


@dataclass(frozen=True)
class SjpgHeader:
    """Parsed container header (cheap to read; no pixel decode)."""

    width: int
    height: int
    quality: int
    subsampled: bool
    mode: int

    @property
    def size(self) -> "tuple[int, int]":
        return (self.width, self.height)


def _pad_plane(plane: np.ndarray, multiple: int) -> np.ndarray:
    h, w = plane.shape
    ph = (h + multiple - 1) // multiple * multiple
    pw = (w + multiple - 1) // multiple * multiple
    if (ph, pw) == (h, w):
        return plane
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")


def _encode_plane(plane: np.ndarray, table: np.ndarray) -> bytes:
    blocks = dct.plane_to_blocks(plane)
    coeffs = dct.forward_dct(blocks)
    quantized = dct.quantize_blocks(coeffs, table)
    payload = entropy.encode_mcu_huff(quantized)
    ph, pw = plane.shape
    return _PLANE_HEADER.pack(ph, pw, len(payload)) + payload


def encode_sjpg(rgb: np.ndarray, quality: int = 85, subsample: bool = True) -> bytes:
    """Encode an (H, W, 3) uint8 RGB array to SJPG bytes."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise CodecError(f"expected (H, W, 3) RGB array, got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise CodecError(f"expected uint8 pixels, got {rgb.dtype}")
    height, width = rgb.shape[:2]
    if height < BLOCK or width < BLOCK:
        raise CodecError(f"image too small to encode: {width}x{height}")
    luma_table = quant_table(LUMA_QUANT_BASE, quality)
    chroma_table = quant_table(CHROMA_QUANT_BASE, quality)

    ycc = color.rgb_ycc_convert(rgb)
    mode = MODE_FUSED_IDCT if quality >= FUSED_QUALITY_THRESHOLD else MODE_SEPARATE_UPSAMPLE
    flags = FLAG_SUBSAMPLED if subsample else 0
    header = _HEADER.pack(MAGIC, VERSION, flags, quality, mode, width, height)

    parts = [header]
    luma = _pad_plane(ycc[..., 0], 16 if subsample else BLOCK)
    parts.append(_encode_plane(luma, luma_table))
    for channel in (1, 2):
        chroma = _pad_plane(ycc[..., channel], 16 if subsample else BLOCK)
        if subsample:
            chroma = color.h2v2_downsample(chroma)
        parts.append(_encode_plane(chroma, chroma_table))
    return b"".join(parts)


def peek_header(blob: bytes) -> SjpgHeader:
    """Parse the container header without decoding pixels.

    This is what ``Image.open`` does — PIL-style lazy loading, where the
    expensive decode happens later in ``convert`` (the paper's Loader op).
    """
    if len(blob) < _HEADER.size:
        raise CodecError("blob too short for SJPG header")
    magic, version, flags, quality, mode, width, height = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic: {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported SJPG version: {version}")
    if mode not in (MODE_FUSED_IDCT, MODE_SEPARATE_UPSAMPLE):
        raise CodecError(f"unknown SJPG mode byte: {mode}")
    return SjpgHeader(
        width=width,
        height=height,
        quality=quality,
        subsampled=bool(flags & FLAG_SUBSAMPLED),
        mode=mode,
    )


def _decode_plane_payload(
    blob: bytes, offset: int, window=None
) -> "tuple[np.ndarray, tuple[int, int], int]":
    """Entropy-decode a plane; ``window = (row0, row1, col0, col1)``
    keeps only those block rows and columns."""
    if offset + _PLANE_HEADER.size > len(blob):
        raise CodecError("truncated SJPG plane header")
    ph, pw, payload_len = _PLANE_HEADER.unpack_from(blob, offset)
    offset += _PLANE_HEADER.size
    if offset + payload_len > len(blob):
        raise CodecError("truncated SJPG plane payload")
    if ph == 0 or pw == 0 or ph % BLOCK or pw % BLOCK:
        raise CodecError(f"corrupt SJPG plane dimensions: {ph}x{pw}")
    payload = blob[offset : offset + payload_len]
    n_blocks = (ph // BLOCK) * (pw // BLOCK)
    keep = None if window is None else (pw // BLOCK, *window)
    quantized = entropy.decode_mcu(payload, n_blocks, keep)
    return quantized, (ph, pw), offset + payload_len


@native(
    "decompress_onepass",
    library=LIBJPEG,
    signature=BALANCED,
)
def decompress_onepass(blob: bytes) -> np.ndarray:
    """Full decode of an SJPG blob to an (H, W, 3) uint8 RGB array."""
    header = peek_header(blob)
    luma_table = quant_table(LUMA_QUANT_BASE, header.quality)
    chroma_table = quant_table(CHROMA_QUANT_BASE, header.quality)
    offset = _HEADER.size

    # Working-buffer allocation: the float32 YCC buffer through calloc
    # (an Intel-resolved symbol), the uint8 output through memset (whose
    # symbol name differs per vendor).
    kernels.libc_calloc((header.height, header.width, 3), dtype=np.float32)
    kernels.memset_zero((header.height, header.width, 3), dtype=np.uint8)

    planes = []
    for channel in range(3):
        quantized, (ph, pw), offset = _decode_plane_payload(blob, offset)
        coeffs = dct.dequantize_blocks(
            quantized, luma_table if channel == 0 else chroma_table
        )
        is_chroma = channel > 0
        if is_chroma and header.subsampled:
            if header.mode == MODE_FUSED_IDCT:
                spatial = dct.jpeg_idct_16x16(coeffs)
                plane = dct.blocks_to_plane(spatial, ph * 2, pw * 2)
            else:
                spatial = dct.jpeg_idct_islow(coeffs)
                plane = dct.blocks_to_plane(spatial, ph, pw)
                plane = color.sep_upsample(plane)
        else:
            spatial = dct.jpeg_idct_islow(coeffs)
            plane = dct.blocks_to_plane(spatial, ph, pw)
        # Crop the padded plane to true size (bulk memcpy).
        plane = kernels.memcpy_copy(plane[: header.height, : header.width])
        if plane.shape != (header.height, header.width):
            raise CodecError(
                f"corrupt SJPG: plane {channel} decodes to {plane.shape}, "
                f"header says {(header.height, header.width)}"
            )
        planes.append(plane.astype(np.float32))

    ycc = np.stack(planes, axis=-1)
    return color.ycc_rgb_convert(ycc)


@native(
    "process_data_simple_main",
    library=LIBJPEG,
    signature=BALANCED,
    vendors=("amd",),
)
def process_data_simple_main(blob: bytes) -> np.ndarray:
    """Decode driver wrapper (symbol resolved only by AMD uProf)."""
    return decompress_onepass(blob)


def decode_sjpg(blob: bytes) -> np.ndarray:
    """Decode SJPG bytes to an (H, W, 3) uint8 RGB array."""
    return process_data_simple_main(blob)


@native(
    "jpeg_crop_scanline",
    library=LIBJPEG,
    signature=BALANCED,
)
def decode_sjpg_roi(blob: bytes, box: Tuple[int, int, int, int]) -> np.ndarray:
    """Decode only ``box`` = (left, upper, right, lower) of an SJPG blob.

    Equal bit for bit to ``decode_sjpg(blob)[upper:lower, left:right]``
    (DESIGN.md §14). Every plane is scanned whole (DC prediction runs
    through the entire plane, and all of the payload validation stays),
    but the AC scatter, dequantize, IDCT, upsampling, the plane copy and
    the colour conversion run only on the blocks that cover the box. A
    corrupt blob raises the same :class:`CodecError` :func:`decode_sjpg`
    raises for it.
    """
    header = peek_header(blob)
    left, upper, right, lower = box
    if not (0 <= left < right <= header.width and 0 <= upper < lower <= header.height):
        raise ImageError(
            f"decode box {box} outside {header.width}x{header.height} image"
        )
    height, width = lower - upper, right - left
    luma_table = quant_table(LUMA_QUANT_BASE, header.quality)
    chroma_table = quant_table(CHROMA_QUANT_BASE, header.quality)
    offset = _HEADER.size

    # Working-buffer allocation: the float32 YCC buffer through calloc
    # (an Intel-resolved symbol), the uint8 output through memset (whose
    # symbol name differs per vendor).
    kernels.libc_calloc((height, width, 3), dtype=np.float32)
    kernels.memset_zero((height, width, 3), dtype=np.uint8)

    planes = []
    for channel in range(3):
        is_chroma = channel > 0
        # Output pixels per plane pixel, along each axis.
        scale = 2 if is_chroma and header.subsampled else 1
        span = BLOCK * scale  # output pixels per block edge
        row0, row1 = upper // span, -(-lower // span)
        col0, col1 = left // span, -(-right // span)
        blocks, (ph, pw), offset = _decode_plane_payload(
            blob, offset, (row0, row1, col0, col1)
        )
        decoded = (min(ph * scale, header.height), min(pw * scale, header.width))
        if decoded != (header.height, header.width):
            raise CodecError(
                f"corrupt SJPG: plane {channel} decodes to {decoded}, "
                f"header says {(header.height, header.width)}"
            )
        coeffs = dct.dequantize_blocks(
            blocks, luma_table if channel == 0 else chroma_table
        )
        tile_h, tile_w = (row1 - row0) * BLOCK, (col1 - col0) * BLOCK
        if is_chroma and header.subsampled:
            if header.mode == MODE_FUSED_IDCT:
                spatial = dct.jpeg_idct_16x16(coeffs)
                plane = dct.blocks_to_plane(spatial, tile_h * 2, tile_w * 2)
            else:
                spatial = dct.jpeg_idct_islow(coeffs)
                plane = dct.blocks_to_plane(spatial, tile_h, tile_w)
                plane = color.sep_upsample(plane)
        else:
            spatial = dct.jpeg_idct_islow(coeffs)
            plane = dct.blocks_to_plane(spatial, tile_h, tile_w)
        # Crop the block-aligned tile to the box (bulk memcpy).
        top, start = upper - row0 * span, left - col0 * span
        plane = kernels.memcpy_copy(plane[top : top + height, start : start + width])
        planes.append(plane.astype(np.float32))

    ycc = np.stack(planes, axis=-1)
    return color.ycc_rgb_convert(ycc)


# Scratch arena for the stacked YCC buffer of the batched decode: the
# float32 (B, H, W, 3) staging slab is reused across batches (per
# thread), so the decode hot loop makes no MB-scale allocation for it.
# Only the staging buffer lives here — the returned RGB arrays are the
# fresh output of ycc_rgb_convert, so callers may hold them across
# batches.
_scratch = threading.local()


def _decode_arena() -> BatchBuffer:
    arena = getattr(_scratch, "arena", None)
    if arena is None:
        arena = BatchBuffer(reuse=True, depth=1)
        _scratch.arena = arena
    return arena


def _split_plane_payloads(
    blob: bytes, header: SjpgHeader
) -> "List[Tuple[Tuple[int, int], bytes]]":
    """The three ((padded_h, padded_w), payload) plane entries of a blob."""
    offset = _HEADER.size
    planes = []
    for _ in range(3):
        if offset + _PLANE_HEADER.size > len(blob):
            raise CodecError("truncated SJPG plane header")
        ph, pw, payload_len = _PLANE_HEADER.unpack_from(blob, offset)
        offset += _PLANE_HEADER.size
        if offset + payload_len > len(blob):
            raise CodecError("truncated SJPG plane payload")
        if ph == 0 or pw == 0 or ph % BLOCK or pw % BLOCK:
            raise CodecError(f"corrupt SJPG plane dimensions: {ph}x{pw}")
        planes.append(((ph, pw), blob[offset : offset + payload_len]))
        offset += payload_len
    return planes


def _decode_group(blobs: Sequence[bytes], header: SjpgHeader) -> List[np.ndarray]:
    """Decode a shape/quality/mode-homogeneous group in stacked passes.

    One entropy scan over every plane payload of every image, one
    dequantize over all blocks with repeat-broadcast quant tables, one
    (or two, in the fused-chroma case) inverse-DCT GEMM, and one color
    conversion over the stacked ``(B, H, W, 3)`` YCC buffer. Raises
    :class:`CodecError` when any blob violates the group invariants —
    the caller then falls back to per-image :func:`decode_sjpg`, which
    reproduces the per-image error exactly.
    """
    count = len(blobs)
    plane_sets = [_split_plane_payloads(blob, header) for blob in blobs]
    # Same padded dims for every image of the group, per channel; a
    # crafted blob can violate this even with an identical header.
    plane_dims = [dims for dims, _ in plane_sets[0]]
    for planes in plane_sets[1:]:
        if [dims for dims, _ in planes] != plane_dims:
            raise CodecError("heterogeneous plane dimensions within group")

    # The same simulated working-buffer allocations the per-image decode
    # makes, amortized to one batch-sized call each.
    kernels.libc_calloc((count, header.height, header.width, 3), dtype=np.float32)
    kernels.memset_zero((count, header.height, header.width, 3), dtype=np.uint8)

    # Channel-major concatenation: [all luma][all cb][all cr], so the
    # quant-table broadcast and the luma/chroma IDCT split are plain
    # slices of the block stack.
    blocks_per_plane = [
        (ph // BLOCK) * (pw // BLOCK) for ph, pw in plane_dims
    ]
    payloads = [
        plane_sets[image][channel][1]
        for channel in range(3)
        for image in range(count)
    ]
    counts = [
        blocks_per_plane[channel] for channel in range(3) for _ in range(count)
    ]
    quantized = entropy.decode_mcu(payloads, counts)

    # Dequantize per channel segment: every image of the group shares
    # the quality, so each segment broadcasts one (8, 8) table over all
    # its blocks — the same per-block multiply as N per-plane calls,
    # without materializing a block-count-sized table stack.
    luma_table = quant_table(LUMA_QUANT_BASE, header.quality)
    chroma_table = quant_table(CHROMA_QUANT_BASE, header.quality)
    n_luma = count * blocks_per_plane[0]
    luma_coeffs = dct.dequantize_blocks(quantized[:n_luma], luma_table)
    chroma_coeffs = dct.dequantize_blocks(quantized[n_luma:], chroma_table)

    plane_stacks = []
    luma_spatial = dct.jpeg_idct_islow(luma_coeffs)
    if header.subsampled and header.mode == MODE_FUSED_IDCT:
        chroma_spatial = dct.jpeg_idct_16x16(chroma_coeffs)
    else:
        chroma_spatial = dct.jpeg_idct_islow(chroma_coeffs)
    ph, pw = plane_dims[0]
    plane_stacks.append(dct.blocks_to_planes(luma_spatial, count, ph, pw))
    chroma_split = count * blocks_per_plane[1]
    for channel, chroma_blocks in enumerate(
        (chroma_spatial[:chroma_split], chroma_spatial[chroma_split:]), start=1
    ):
        ph, pw = plane_dims[channel]
        if header.subsampled:
            if header.mode == MODE_FUSED_IDCT:
                stack = dct.blocks_to_planes(chroma_blocks, count, ph * 2, pw * 2)
            else:
                stack = dct.blocks_to_planes(chroma_blocks, count, ph, pw)
                stack = color.sep_upsample(stack)
        else:
            stack = dct.blocks_to_planes(chroma_blocks, count, ph, pw)
        plane_stacks.append(stack)

    arena = _decode_arena()
    arena.advance()
    ycc = arena.get(
        "decode-ycc", (count, header.height, header.width, 3), np.float32
    )
    for channel, stack in enumerate(plane_stacks):
        # Crop every padded plane to true size in one bulk copy (the
        # per-image path's memcpy, once per channel per batch).
        cropped = kernels.memcpy_copy(
            stack[:, : header.height, : header.width]
        )
        if cropped.shape != (count, header.height, header.width):
            raise CodecError(
                f"corrupt SJPG: plane {channel} decodes to {cropped.shape[1:]}, "
                f"header says {(header.height, header.width)}"
            )
        np.copyto(ycc[..., channel], cropped, casting="unsafe")
    rgb = color.ycc_rgb_convert(ycc)
    return [rgb[image] for image in range(count)]


def decode_sjpg_batch(blobs: Sequence[bytes]) -> List[np.ndarray]:
    """Decode a batch of SJPG blobs to (H, W, 3) uint8 RGB arrays.

    Blobs are grouped by ``(width, height, quality, subsampled, mode)``
    and each multi-image group runs through :func:`_decode_group`'s
    stacked kernel passes; singletons, blobs whose header fails to
    parse, and groups whose stacked decode raises fall back to per-image
    :func:`decode_sjpg`. Output is bit-identical to N per-image decodes;
    a corrupt blob raises the same :class:`CodecError` the per-image
    path raises for it (though a mixed batch may surface a later blob's
    error first, since groups decode group-by-group).
    """
    results: List[np.ndarray] = [None] * len(blobs)  # type: ignore[list-item]
    groups: "Dict[tuple, List[int]]" = {}
    singles: List[int] = []
    headers: List[SjpgHeader] = [None] * len(blobs)  # type: ignore[list-item]
    for index, blob in enumerate(blobs):
        try:
            header = peek_header(blob)
        except CodecError:
            singles.append(index)
            continue
        headers[index] = header
        key = (
            header.width,
            header.height,
            header.quality,
            header.subsampled,
            header.mode,
        )
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        if len(indices) == 1:
            singles.extend(indices)
            continue
        try:
            decoded = _decode_group(
                [blobs[i] for i in indices], headers[indices[0]]
            )
        except CodecError:
            singles.extend(indices)
            continue
        for index, rgb in zip(indices, decoded):
            results[index] = rgb
    for index in singles:
        results[index] = decode_sjpg(blobs[index])
    return results
