"""Entropy coding kernels (libjpeg ``jchuff.c`` / ``jdhuff.c`` analogues).

The SJPG entropy format is a byte-aligned run-length code rather than a
true Huffman bitstream, but the decode loop has the same shape as
``decode_mcu``: per-block data-dependent parsing, refilling its input
buffer via ``jpeg_fill_bit_buffer`` every few MCUs. This makes
``decode_mcu`` the most CPU-hungry, branchy symbol in the decode profile —
matching its role in the paper (§ V-D notes it is the most time-consuming
function).

Block layout (little endian)::

    u8  nnz        -- number of non-zero AC coefficients
    i16 dc_delta   -- DC difference from the previous block
    nnz x (u8 zigzag_index, i16 value)

Every field is 3 bytes wide, so a payload is a flat sequence of 3-byte
*cells*: one header cell per block followed by its AC cells. The default
implementation exploits this to decode block-parallel with numpy — a
linear walk over the header bytes (``payload[::3]``) that recovers every
block-header offset, a single ``np.frombuffer`` view of all cells, a
cumulative-sum DC reconstruction, and one fancy-indexed scatter straight
to natural (un-zigzagged) order — the SIMD shape a production entropy
codec would have. The original per-block scalar loop is retained behind
:func:`entropy_mode` as the paper-fidelity reference: it is
bit-compatible with the vectorized path (see
``tests/test_substrate_parity.py``) and reproduces the serial, branchy
execution profile of real libjpeg that § V-D characterizes.

Both paths keep the observable profiling semantics identical: the same
byte format, a ``jpeg_fill_bit_buffer`` call every ``_REFILL_PERIOD``
MCUs with the same (offset, size) arguments while a recorder is attached
(the vectorized path skips them otherwise), and a ``CodecError`` on
truncated, corrupt, or over-long payloads (a payload with bytes left
after the last block is rejected — trailing garbage would previously
decode silently).
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.clib.costmodel import BRANCHY, MEMORY_BOUND
from repro.clib.events import armed
from repro.clib.registry import LIBJPEG, native
from repro.imaging.jpeg.tables import BLOCK, UNZIGZAG, ZIGZAG
from repro.errors import CodecError

_AC_DTYPE = np.dtype([("idx", "u1"), ("val", "<i2")])
_BLOCK_HEADER = struct.Struct("<Bh")
#: Header cells and AC cells share one packed 3-byte layout; ``b`` is the
#: nnz count (header) or zigzag index (AC), ``v`` the DC delta or value.
_CELL_DTYPE = np.dtype([("b", "u1"), ("v", "<i2")])
_CELL = _CELL_DTYPE.itemsize
# decode_mcu refills its input buffer after this many MCUs, mirroring
# libjpeg's periodic calls into jpeg_fill_bit_buffer.
_REFILL_PERIOD = 16
# Worst-case bytes one refill window must cover: a full period of dense
# blocks (header + 63 AC records each).
_WORST_WINDOW = _REFILL_PERIOD * (_BLOCK_HEADER.size + 63 * _AC_DTYPE.itemsize)
# Natural (row-major) position of each AC zigzag index 0..62.
_AC_NATURAL = ZIGZAG[1:].astype(np.intp)

_mode = threading.local()


def _scalar_mode() -> bool:
    return getattr(_mode, "scalar", False)


@contextmanager
def entropy_mode(mode: str) -> Iterator[None]:
    """Select the entropy implementation for the current thread.

    ``"vectorized"`` (the default) runs the block-parallel numpy passes;
    ``"scalar"`` runs the retained per-block reference loop, which
    reproduces the serial execution profile of real libjpeg entropy
    decoding (the paper's § V-D testbed). Both produce identical bytes
    and arrays and emit the same native call events.
    """
    if mode not in ("vectorized", "scalar"):
        raise ValueError(f"unknown entropy mode: {mode!r}")
    previous = _scalar_mode()
    _mode.scalar = mode == "scalar"
    try:
        yield
    finally:
        _mode.scalar = previous


def _encode_mcu_huff_scalar(quant_blocks: np.ndarray) -> bytes:
    """Reference per-block encode loop (paper-fidelity / parity oracle)."""
    chunks: List[bytes] = []
    prev_dc = 0
    flat_blocks = quant_blocks.reshape(len(quant_blocks), BLOCK * BLOCK)
    zigzagged = flat_blocks[:, ZIGZAG]
    for zz in zigzagged:
        dc = int(zz[0])
        ac = zz[1:]
        nonzero = np.nonzero(ac)[0]
        delta = dc - prev_dc
        if not -32768 <= delta <= 32767:
            raise CodecError(f"DC delta out of range: {delta}")
        record = np.empty(len(nonzero), dtype=_AC_DTYPE)
        record["idx"] = nonzero.astype(np.uint8)
        record["val"] = ac[nonzero]
        chunks.append(_BLOCK_HEADER.pack(len(nonzero), delta))
        chunks.append(record.tobytes())
        prev_dc = dc
    return b"".join(chunks)


def _encode_mcu_huff_vectorized(quant_blocks: np.ndarray) -> bytes:
    """Block-parallel encode: one cell-array scatter, no per-block loop."""
    n_blocks = len(quant_blocks)
    if n_blocks == 0:
        return b""
    flat = quant_blocks.reshape(n_blocks, BLOCK * BLOCK)
    zigzagged = flat[:, ZIGZAG]
    dc = zigzagged[:, 0].astype(np.int64)
    ac = zigzagged[:, 1:]
    deltas = np.diff(dc, prepend=0)
    if deltas.size and (deltas.max() > 32767 or deltas.min() < -32768):
        raise CodecError("DC delta out of range")
    rows, cols = np.nonzero(ac)
    nnz = np.bincount(rows, minlength=n_blocks)
    # Output cell index of each block header: one cell per prior block
    # plus one per prior AC record.
    header_pos = np.arange(n_blocks) + np.concatenate(([0], np.cumsum(nnz)[:-1]))
    cells = np.zeros(n_blocks + len(rows), dtype=_CELL_DTYPE)
    cells["b"][header_pos] = nnz
    cells["v"][header_pos] = deltas.astype(np.int16)
    ac_mask = np.ones(len(cells), dtype=bool)
    ac_mask[header_pos] = False
    cells["b"][ac_mask] = cols
    cells["v"][ac_mask] = ac[rows, cols]
    return cells.tobytes()


@native(
    "encode_mcu_huff",
    library=LIBJPEG,
    signature=BRANCHY,
)
def encode_mcu_huff(quant_blocks: np.ndarray) -> bytes:
    """Entropy-encode quantized (n, 8, 8) int16 blocks to bytes."""
    if quant_blocks.ndim != 3 or quant_blocks.shape[1:] != (BLOCK, BLOCK):
        raise CodecError(f"expected (n, 8, 8) blocks, got {quant_blocks.shape}")
    if _scalar_mode():
        return _encode_mcu_huff_scalar(quant_blocks)
    return _encode_mcu_huff_vectorized(quant_blocks)


@native(
    "jpeg_fill_bit_buffer",
    library=LIBJPEG,
    signature=MEMORY_BOUND,
)
def jpeg_fill_bit_buffer(payload: bytes, offset: int, size: int) -> bytes:
    """Refill the decoder's working buffer from the compressed stream."""
    return payload[offset : offset + size]


def _decode_mcu_scalar(payload: bytes, n_blocks: int) -> np.ndarray:
    """Reference per-block decode loop (paper-fidelity / parity oracle)."""
    out = np.zeros((n_blocks, BLOCK * BLOCK), dtype=np.int16)
    offset = 0
    prev_dc = 0
    window = b""
    window_base = 0
    for block_index in range(n_blocks):
        if block_index % _REFILL_PERIOD == 0:
            # Refill a working window large enough for the next period of
            # worst-case blocks (header + 63 AC records each).
            window_base = offset
            window = jpeg_fill_bit_buffer(payload, window_base, _WORST_WINDOW)
        local = offset - window_base
        if local + _BLOCK_HEADER.size > len(window):
            raise CodecError("truncated SJPG payload (block header)")
        nnz, dc_delta = _BLOCK_HEADER.unpack_from(window, local)
        local += _BLOCK_HEADER.size
        ac_bytes = nnz * _AC_DTYPE.itemsize
        if local + ac_bytes > len(window):
            raise CodecError("truncated SJPG payload (AC records)")
        zz = np.zeros(BLOCK * BLOCK, dtype=np.int16)
        prev_dc += dc_delta
        zz[0] = np.int16(prev_dc)
        if nnz:
            records = np.frombuffer(window, dtype=_AC_DTYPE, count=nnz, offset=local)
            indices = records["idx"].astype(np.int64) + 1
            if indices.max() >= BLOCK * BLOCK:
                raise CodecError("corrupt SJPG payload (AC index out of range)")
            zz[indices] = records["val"]
        out[block_index] = zz[UNZIGZAG]
        offset = window_base + local + ac_bytes
    if offset != len(payload):
        raise CodecError(
            f"trailing garbage after SJPG payload: {len(payload) - offset} bytes"
        )
    return out.reshape(n_blocks, BLOCK, BLOCK)


def _walk_block_starts(payload: bytes, n_blocks: int) -> "tuple[np.ndarray, int]":
    """Cell index of every block header, and the cell after the last block.

    A linear walk over the header bytes (``payload[::3]``): a header's
    nnz says how many AC cells to skip to reach the next header.
    """
    n_cells = len(payload) // _CELL
    heads = payload[::_CELL]
    starts = [0] * n_blocks
    cell = 0
    for block in range(n_blocks):
        if cell >= n_cells:
            raise CodecError("truncated SJPG payload (block header)")
        starts[block] = cell
        cell += 1 + heads[cell]
    if cell > n_cells:
        raise CodecError("truncated SJPG payload (AC records)")
    return np.array(starts, dtype=np.intp), cell


def _kept_blocks(n_blocks: int, keep) -> np.ndarray:
    """Raster-order block ids of ``keep = (cols, row0, row1, col0, col1)``."""
    cols, row0, row1, col0, col1 = keep
    grid = np.arange(n_blocks).reshape(-1, cols)
    return grid[row0:row1, col0:col1].ravel()


def _decode_mcu_vectorized(payload: bytes, n_blocks: int, keep=None) -> np.ndarray:
    """Block-parallel decode: header walk + cumsum DC + natural-order scatter.

    Every cell is validated and the DC prediction runs over every block;
    with ``keep`` only the kept blocks' AC cells are scattered.
    """
    if n_blocks == 0:
        if payload:
            raise CodecError(
                f"trailing garbage after SJPG payload: {len(payload)} bytes"
            )
        return np.zeros((0, BLOCK, BLOCK), dtype=np.int16)
    starts, end_cell = _walk_block_starts(payload, n_blocks)
    if end_cell * _CELL != len(payload):
        raise CodecError(
            f"trailing garbage after SJPG payload: "
            f"{len(payload) - end_cell * _CELL} bytes"
        )

    # Preserve the refill cadence while observed: the same
    # jpeg_fill_bit_buffer call, with the same (offset, size) arguments,
    # every _REFILL_PERIOD MCUs — so hardware profiles of the vectorized
    # decoder keep the paper's refill pattern. The loop is over refill
    # windows, not blocks.
    if armed():
        for window_start in range(0, n_blocks, _REFILL_PERIOD):
            jpeg_fill_bit_buffer(
                payload, int(starts[window_start]) * _CELL, _WORST_WINDOW
            )

    # Contiguous copies of the two cell fields: gathers from the packed
    # (unaligned, strided) field views are slower than the copy.
    cells = np.frombuffer(payload, dtype=_CELL_DTYPE, count=end_cell)
    index_at, values = cells["b"].copy(), cells["v"].copy()
    # AC zigzag indices run 0..62; a header's nnz byte may hold more.
    too_big = index_at >= BLOCK * BLOCK - 1
    if np.count_nonzero(too_big) > np.count_nonzero(too_big.take(starts)):
        raise CodecError("corrupt SJPG payload (AC index out of range)")
    dc = np.cumsum(values.take(starts), dtype=np.int64).astype(np.int16)
    nnz = index_at.take(starts).astype(np.intp)
    if keep is not None:
        kept = _kept_blocks(n_blocks, keep)
        starts, nnz, dc = starts.take(kept), nnz.take(kept), dc.take(kept)
    # Cell of every kept AC record: its block's header + 1 + rank in block.
    ends = np.cumsum(nnz)
    cell = np.arange(int(ends[-1]) if len(ends) else 0)
    cell += np.repeat(starts + 1 - (ends - nnz), nnz)
    out = np.zeros((len(dc), BLOCK * BLOCK), dtype=np.int16)
    natural = _AC_NATURAL.take(index_at.take(cell))
    out[np.repeat(np.arange(len(dc)), nnz), natural] = values.take(cell)
    out[:, 0] = dc
    return out.reshape(-1, BLOCK, BLOCK)


def _block_starts_batch(
    nnz_at: np.ndarray,
    n_cells: int,
    base_cells: np.ndarray,
    counts: np.ndarray,
    first_block: np.ndarray,
) -> np.ndarray:
    """Every plane's block-header cell indices in one multi-seed scan.

    A pointer-jumping recurrence (``jump[i] = i + 1 + nnz_at[i]``
    composed with itself), seeded at *every* plane's base cell
    simultaneously: planes with the same block count form a ``(planes,
    blocks)`` matrix whose columns double per pass, so the scan needs
    only ``O(log max_blocks_per_plane)`` squarings of the shared jump
    table — the per-plane pass count — instead of ``O(log
    total_blocks)`` for one chain threaded through all planes. Sentinel-absorbed chains (truncated payloads)
    surface as starts ``>= n_cells``; the caller validates.
    """
    total_blocks = int(first_block[-1])
    starts = np.empty(total_blocks, dtype=np.int64)
    step = np.append(
        np.minimum(np.arange(n_cells, dtype=np.int64) + 1 + nnz_at, n_cells),
        n_cells,  # sentinel absorbs further jumps
    )
    by_count: "dict[int, List[int]]" = {}
    for plane, count in enumerate(counts.tolist()):
        if count > 0:
            by_count.setdefault(count, []).append(plane)
    mats = {
        count: np.empty((len(planes), count), dtype=np.int64)
        for count, planes in by_count.items()
    }
    for count, planes in by_count.items():
        mats[count][:, 0] = base_cells[planes]
    known = 1
    max_count = max(by_count) if by_count else 0
    while known < max_count:
        for count, mat in mats.items():
            if known < count:
                hi = min(2 * known, count)
                mat[:, known:hi] = step[mat[:, : hi - known]]
        known *= 2
        if known < max_count:
            step = step[step]
    for count, planes in by_count.items():
        mat = mats[count]
        for row, plane in enumerate(planes):
            starts[first_block[plane] : first_block[plane + 1]] = mat[row]
    return starts


def _decode_mcu_batch_vectorized(
    payloads: List[bytes], n_blocks: List[int]
) -> np.ndarray:
    """One structured-cell scan over the concatenated plane payloads.

    All planes' block starts come from one multi-seed pointer-jumping
    scan over the concatenated cell array; exact consumption of every
    payload is validated by checking each plane's last block ends
    exactly at the next plane's base cell. Any violation (truncation,
    trailing garbage, a payload that is not whole cells) drops to the
    per-plane decode loop, which raises the same :class:`CodecError`
    the per-image path would.

    DC prediction resets per plane: the global int64 cumulative sum
    minus each plane's running base equals the per-plane cumulative sum
    exactly, so the int16 wrap-around is bit-identical to N independent
    decodes (DESIGN.md §9).
    """
    n_planes = len(payloads)
    counts = np.asarray(n_blocks, dtype=np.int64)
    total_blocks = int(counts.sum())
    cells_per = np.array([len(p) // _CELL for p in payloads], dtype=np.int64)
    base_cells = np.concatenate(([0], np.cumsum(cells_per)))
    first_block = np.concatenate(([0], np.cumsum(counts)))

    def fallback() -> np.ndarray:
        planes = [
            _decode_mcu_vectorized(payload, int(count))
            for payload, count in zip(payloads, n_blocks)
        ]
        return np.concatenate(planes) if planes else np.zeros(
            (0, BLOCK, BLOCK), dtype=np.int16
        )

    if any(len(p) % _CELL for p in payloads) or total_blocks == 0:
        return fallback()
    # A zero-block plane must have an empty payload (else: garbage).
    if np.any((counts == 0) & (cells_per != 0)):
        return fallback()
    blob = b"".join(payloads)
    n_cells = int(base_cells[-1])
    if n_cells == 0:
        return fallback()
    cells = np.frombuffer(blob, dtype=_CELL_DTYPE, count=n_cells)
    nnz_at = cells["b"].astype(np.int64)
    starts = _block_starts_batch(nnz_at, n_cells, base_cells, counts, first_block)
    # Exact-consumption validation: each plane's chain is strictly
    # increasing, so its last block ending exactly at the plane's end
    # cell pins every start inside the plane's own payload. A sentinel
    # (truncated) start indexes the padded nnz as 0 and fails the check.
    nnz_ext = np.append(nnz_at, 0)
    with_blocks = counts > 0
    last_start = starts[first_block[1:][with_blocks] - 1]
    plane_ends = last_start + 1 + nnz_ext[last_start]
    if not np.array_equal(plane_ends, base_cells[1:][with_blocks]):
        return fallback()

    # The refill traffic while observed, amortized: one
    # jpeg_fill_bit_buffer call per plane payload instead of one per
    # _REFILL_PERIOD blocks — the batched engine's usual once-per-batch
    # treatment of simulated native calls (DESIGN.md §7/§9); the symbol
    # set stays a subset of the per-image path's.
    if armed():
        for payload in payloads:
            jpeg_fill_bit_buffer(payload, 0, len(payload))

    nnz = nnz_at[starts]
    values = cells["v"]
    # Per-plane DC cumsum via one global cumsum minus each plane's base.
    dc_global = np.cumsum(values[starts].astype(np.int64))
    dc_base = np.concatenate(([0], dc_global))[
        np.repeat(first_block[:n_planes], counts)
    ]
    dc = (dc_global - dc_base).astype(np.int16)
    ac_mask = np.ones(n_cells, dtype=bool)
    ac_mask[starts] = False
    block_id = np.repeat(np.arange(total_blocks), nnz)
    indices = nnz_at[ac_mask] + 1
    if indices.size and int(indices.max()) >= BLOCK * BLOCK:
        return fallback()
    zz = np.zeros((total_blocks, BLOCK * BLOCK), dtype=np.int16)
    zz[block_id, indices] = values[ac_mask]
    zz[:, 0] = dc
    return zz[:, UNZIGZAG].reshape(total_blocks, BLOCK, BLOCK)


@native(
    "decode_mcu",
    library=LIBJPEG,
    signature=BRANCHY,
)
def decode_mcu(payload, n_blocks, keep=None) -> np.ndarray:
    """Entropy-decode ``n_blocks`` blocks; returns (n, 8, 8) int16.

    Raises :class:`CodecError` on truncated, corrupt, or over-long
    payloads (any bytes remaining after the last block are rejected).

    ROI form: ``keep = (cols, row0, row1, col0, col1)`` returns only the
    blocks ``[row0:row1, col0:col1]`` of the ``cols``-wide block grid, in
    raster order; the whole payload is still validated, with the same errors.

    Batched form: a *list* of payloads with a matching list of block
    counts decodes every plane in one block-parallel pass under this
    same ``decode_mcu`` symbol (the kernels' batched-list idiom), and
    returns the concatenated ``(sum(n_blocks), 8, 8)`` stack.
    """
    if isinstance(payload, (list, tuple)):
        if len(payload) != len(n_blocks):
            raise CodecError(
                f"{len(payload)} payloads but {len(n_blocks)} block counts"
            )
        if _scalar_mode():
            planes = [
                _decode_mcu_scalar(item, int(count))
                for item, count in zip(payload, n_blocks)
            ]
            return np.concatenate(planes) if planes else np.zeros(
                (0, BLOCK, BLOCK), dtype=np.int16
            )
        return _decode_mcu_batch_vectorized(list(payload), list(n_blocks))
    if _scalar_mode():
        out = _decode_mcu_scalar(payload, n_blocks)
        return out if keep is None else out[_kept_blocks(n_blocks, keep)]
    return _decode_mcu_vectorized(payload, n_blocks, keep)


def decode_mcu_batch(payloads: List[bytes], n_blocks: List[int]) -> np.ndarray:
    """Entropy-decode many plane payloads in one block-parallel pass.

    Returns the ``(sum(n_blocks), 8, 8)`` int16 stack of every plane's
    blocks in payload order — bit-identical to concatenating N
    independent :func:`decode_mcu` results. A payload that fails the
    whole-batch scan's exact-consumption invariants is re-decoded plane
    by plane so the raised :class:`CodecError` matches the per-image
    path's message.
    """
    return decode_mcu(list(payloads), list(n_blocks))


def encoded_length(quant_blocks: np.ndarray) -> int:
    """Byte length :func:`encode_mcu_huff` would produce (without encoding)."""
    flat = quant_blocks.reshape(len(quant_blocks), BLOCK * BLOCK)
    ac_nonzeros = np.count_nonzero(flat[:, ZIGZAG][:, 1:], axis=1)
    return int(
        len(quant_blocks) * _BLOCK_HEADER.size
        + ac_nonzeros.sum() * _AC_DTYPE.itemsize
    )
