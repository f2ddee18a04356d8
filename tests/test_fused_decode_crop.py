"""Fused decode-and-crop on worker batches (DESIGN.md §14).

A worker whose chain starts with RandomResizedCrop over the stock bulk
loader draws the batch's crop boxes first and decodes only inside them.
It is held to the unfused paths bit for bit: the ROI decode against
``decode_sjpg`` + crop (same errors on corrupt blobs), and a worker epoch
against the same-``num_workers`` per-sample oracle, with the same trace
records per batch. No wall-clock assertions.
"""

import multiprocessing
import struct
from collections import Counter

import numpy as np
import pytest

from repro.core.lotustrace import KIND_OP, InMemoryTraceLog
from repro.data import FailurePolicy
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset, pil_loader
from repro.errors import CodecError, ImageError
from repro.imaging.image import load_rgb_batch
from repro.imaging.jpeg import codec, entropy
from repro.transforms import (
    Compose,
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    Resize,
    ToTensor,
)
from tests.conftest import make_test_image

# test_decode_batch_parity's corpus: both sides of the fused-IDCT quality
# threshold (mode 0 and 1), 4:2:0 and 4:4:4, odd true sizes whose padded
# planes extend past the image.
CORPUS = [
    (32, 32, 55, True),
    (32, 32, 95, True),
    (33, 47, 85, True),
    (64, 24, 70, False),
    (16, 16, 60, True),
    (41, 19, 90, False),
    (57, 35, 65, True),
]


def encode(height, width, quality=85, subsample=True, seed=0):
    return codec.encode_sjpg(
        make_test_image(height, width, seed=seed), quality=quality, subsample=subsample
    )


BLOBS = [encode(*spec, seed=i) for i, spec in enumerate(CORPUS)]


def edge_boxes(width, height):
    """Boxes touching every edge, 1-px strips, the whole image, and a
    box ending inside each plane's padding block."""
    boxes = {
        (0, 0, width, height),
        (0, 0, 1, 1),
        (width - 1, height - 1, width, height),
        (0, 0, 1, height),  # 1 px wide, full height
        (width - 1, 0, width, height),
        (0, height - 1, width, height),  # 1 px tall
        (width // 3, height // 3, width, height),  # ends at the padded edge
        (1, 1, width - 1, height - 1),
    }
    for edge in (7, 8, 9, 15, 16, 17):
        if edge < width and edge < height:
            boxes.add((edge, edge, width, height))
            boxes.add((0, 0, edge, edge))
    return sorted(boxes)


# -- kernel parity ---------------------------------------------------------------


@pytest.mark.parametrize(
    "blob", BLOBS, ids=[f"{h}x{w}q{q}s{int(s)}" for h, w, q, s in CORPUS]
)
def test_roi_decode_equals_decode_then_crop(blob):
    full = codec.decode_sjpg(blob)
    height, width = full.shape[:2]
    boxes = edge_boxes(width, height)
    rng = np.random.default_rng(len(blob))
    for _ in range(24):
        left, right = sorted(rng.choice(width + 1, size=2, replace=False))
        upper, lower = sorted(rng.choice(height + 1, size=2, replace=False))
        boxes.append((int(left), int(upper), int(right), int(lower)))
    for left, upper, right, lower in boxes:
        roi = codec.decode_sjpg_roi(blob, (left, upper, right, lower))
        assert roi.dtype == np.uint8
        np.testing.assert_array_equal(roi, full[upper:lower, left:right])


def test_centre_crop_fallback_box():
    # A scale above 1 defeats all ten draws, so RRC falls back to the
    # largest centre crop within its ratio bounds.
    blob = encode(24, 64, quality=70, subsample=False)
    rrc = RandomResizedCrop(16, scale=(2.0, 3.0), seed=0)
    (box,) = rrc.draw_boxes([64], [24])
    assert box == (16, 0, 48, 24)
    left, upper, right, lower = box
    whole = codec.decode_sjpg(blob)
    np.testing.assert_array_equal(
        codec.decode_sjpg_roi(blob, box), whole[upper:lower, left:right]
    )


def test_load_rgb_batch_hook_equals_convert_then_crop():
    rrc = RandomResizedCrop(16, seed=3)
    seen = []

    def draw(widths, heights):
        seen.append((widths.tolist(), heights.tolist()))
        return rrc.draw_boxes(widths, heights)

    images = load_rgb_batch(BLOBS, draw_boxes=draw)
    assert seen == [([w for _, w, _, _ in CORPUS], [h for h, _, _, _ in CORPUS])]
    oracle = RandomResizedCrop(16, seed=3)
    for blob, image in zip(BLOBS, images):
        whole = pil_loader(blob)
        box = oracle.draw_boxes([whole.width], [whole.height])[0]
        np.testing.assert_array_equal(image.to_array(), whole.crop(box).to_array())
    declined = load_rgb_batch(BLOBS, draw_boxes=lambda widths, heights: None)
    for blob, image in zip(BLOBS, declined):
        np.testing.assert_array_equal(image.to_array(), pil_loader(blob).to_array())


@pytest.mark.parametrize("mode", ["vectorized", "scalar"])
def test_roi_entropy_equals_whole_decode_then_select(mode):
    rng = np.random.default_rng(7)
    with entropy.entropy_mode(mode):
        for blob in BLOBS:
            for (ph, pw), payload in codec._split_plane_payloads(
                blob, codec.peek_header(blob)
            ):
                rows, cols = ph // 8, pw // 8
                whole = entropy.decode_mcu(payload, rows * cols)
                grid = whole.reshape(rows, cols, 8, 8)
                windows = [(0, rows, 0, cols), (0, 1, 0, 1),
                           (rows - 1, rows, cols - 1, cols)]
                for _ in range(6):
                    row0, row1 = sorted(rng.choice(rows + 1, 2, replace=False))
                    col0, col1 = sorted(rng.choice(cols + 1, 2, replace=False))
                    windows.append((int(row0), int(row1), int(col0), int(col1)))
                for row0, row1, col0, col1 in windows:
                    roi = entropy.decode_mcu(
                        payload, rows * cols, (cols, row0, row1, col0, col1)
                    )
                    want = grid[row0:row1, col0:col1].reshape(-1, 8, 8)
                    assert roi.dtype == np.int16
                    np.testing.assert_array_equal(roi, want)


# -- error parity ------------------------------------------------------------------


HEADER = struct.Struct("<4sBBBBII")
PLANE_HEADER = struct.Struct("<HHI")


def with_header(blob, **fields):
    """``blob`` with its magic, width or height replaced."""
    magic, version, flags, quality, mode, width, height = HEADER.unpack_from(blob)
    values = {"magic": magic, "width": width, "height": height, **fields}
    header = HEADER.pack(
        values["magic"], version, flags, quality, mode, values["width"], values["height"]
    )
    return header + blob[HEADER.size:]


def with_short_luma_payload(blob, cut=3):
    """``blob`` with the last ``cut`` bytes of the luma entropy payload
    gone and the container lengths kept consistent."""
    ph, pw, length = PLANE_HEADER.unpack_from(blob, HEADER.size)
    start = HEADER.size + PLANE_HEADER.size
    return (
        blob[: HEADER.size]
        + PLANE_HEADER.pack(ph, pw, length - cut)
        + blob[start : start + length - cut]
        + blob[start + length :]
    )


def with_luma_payload(blob, edit):
    """``blob`` with its luma entropy payload replaced by ``edit(payload)``
    and the container lengths kept consistent."""
    ph, pw, length = PLANE_HEADER.unpack_from(blob, HEADER.size)
    start = HEADER.size + PLANE_HEADER.size
    payload = edit(bytearray(blob[start : start + length]))
    return (
        blob[: HEADER.size]
        + PLANE_HEADER.pack(ph, pw, len(payload))
        + bytes(payload)
        + blob[start + length :]
    )


def bad_ac_index_in_last_block(payload):
    """Point the first AC record of the last block that has one past 62."""
    cell, last = 0, None
    while cell * 3 < len(payload):
        if payload[cell * 3]:
            last = cell
        cell += 1 + payload[cell * 3]
    payload[(last + 1) * 3] = 63
    return payload


GOOD = encode(24, 24, seed=1)
CORRUPT = {
    "bad-magic": with_header(GOOD, magic=b"nope"),
    "truncated-container": GOOD[:-8],
    "truncated-entropy": with_short_luma_payload(GOOD),
    # The planes cover 32x32 (24 padded to 16); the header claims more.
    "plane-too-small": with_header(GOOD, width=48),
    "plane-too-small-rows": with_header(GOOD, height=40),
}


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_blob_raises_the_same_error(case):
    blob = CORRUPT[case]
    with pytest.raises(CodecError) as oracle:
        codec.decode_sjpg(blob)
    with pytest.raises(CodecError) as roi:
        codec.decode_sjpg_roi(blob, (0, 0, 8, 8))
    assert type(roi.value) is type(oracle.value)
    assert str(roi.value) == str(oracle.value)
    with pytest.raises(CodecError) as batch:
        load_rgb_batch([GOOD, blob], draw_boxes=lambda w, h: [(0, 0, 8, 8)] * len(w))
    assert str(batch.value) == str(oracle.value)


# 64x64: an 8x8-block luma grid, so corruption at the end of the luma
# payload lies in blocks far outside a box in the top-left block.
WIDE = encode(64, 64, seed=2)
OUTSIDE_BOX = {
    "bad-ac-index": (
        with_luma_payload(WIDE, bad_ac_index_in_last_block),
        "AC index out of range",
    ),
    "truncated": (with_short_luma_payload(WIDE), "truncated SJPG payload"),
    "trailing-garbage": (
        with_luma_payload(WIDE, lambda p: p + b"\x00\x01\x00"),
        "trailing garbage",
    ),
}


@pytest.mark.parametrize("mode", ["vectorized", "scalar"])
@pytest.mark.parametrize("case", sorted(OUTSIDE_BOX))
def test_corruption_outside_the_box_raises_the_same_error(case, mode):
    blob, message = OUTSIDE_BOX[case]
    with entropy.entropy_mode(mode):
        with pytest.raises(CodecError, match=message) as oracle:
            codec.decode_sjpg(blob)
        with pytest.raises(CodecError) as roi:
            codec.decode_sjpg_roi(blob, (0, 0, 8, 8))
    assert type(roi.value) is type(oracle.value)
    assert str(roi.value) == str(oracle.value)


def test_box_outside_image_rejected():
    with pytest.raises(ImageError, match="outside 24x24"):
        codec.decode_sjpg_roi(GOOD, (0, 0, 25, 8))
    with pytest.raises(ImageError, match="outside"):
        codec.decode_sjpg_roi(GOOD, (4, 4, 4, 8))


# -- the loader ------------------------------------------------------------------------

LOADER_BLOBS = [encode(*CORPUS[i % len(CORPUS)], seed=10 + i) for i in range(28)]
LABELS = [i % 5 for i in range(len(LOADER_BLOBS))]


def chain(log=None, head=None):
    return Compose(
        [
            head if head is not None else RandomResizedCrop(16, seed=21),
            RandomHorizontalFlip(seed=22),
            ToTensor(),
            Normalize((0.5,) * 3, (0.25,) * 3),
        ],
        log_transform_elapsed_time=log,
    )


def unfused_bulk_loader(source):
    return pil_loader(source)


# The stock bulk form under another name: batched, but not fused.
unfused_bulk_loader.load_batch = lambda sources: load_rgb_batch(sources)


def epoch(labels=LABELS, log=None, loader=pil_loader, head=None, **knobs):
    dataset = BlobImageDataset(
        LOADER_BLOBS,
        labels=labels,
        transform=chain(log, head),
        loader=loader,
        log_file=log,
    )
    knobs = {"batch_size": 8, "shuffle": True, "seed": 4, "num_workers": 2, **knobs}
    data_loader = DataLoader(dataset, log_file=log, **knobs)
    try:
        # String labels collate to a list, int labels to a Tensor.
        return [
            (images.numpy().copy(), got if isinstance(got, list) else got.numpy().tolist())
            for images, got in data_loader
        ]
    finally:
        data_loader.close()


def assert_epochs_equal(got, want):
    assert len(got) == len(want)
    for (got_images, got_labels), (want_images, want_labels) in zip(got, want):
        np.testing.assert_array_equal(got_images, want_images)
        assert got_labels == want_labels


@pytest.fixture
def roi_calls(monkeypatch):
    """Counts ROI decodes in this process and in forked workers."""
    calls = multiprocessing.Value("i", 0)
    decode = codec.decode_sjpg_roi

    def counting(blob, box):
        with calls.get_lock():
            calls.value += 1
        return decode(blob, box)

    monkeypatch.setattr(codec, "decode_sjpg_roi", counting)
    return calls


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_worker_epoch_matches_per_sample_oracle(backend, roi_calls):
    oracle = epoch(worker_backend="thread", batched_execution=False)
    assert roi_calls.value == 0
    fused = epoch(worker_backend=backend, scheduler="static")
    assert roi_calls.value == len(LOADER_BLOBS)
    assert_epochs_equal(fused, oracle)


def test_unbatchable_labels_leave_the_stream_untouched(roi_calls):
    # String labels send the batch to the per-sample chain; the hook
    # declines before drawing, so RRC's stream still matches the oracle.
    labels = [f"class-{label}" for label in LABELS]
    oracle = epoch(labels=labels, worker_backend="thread", batched_execution=False)
    fused = epoch(labels=labels, worker_backend="thread")
    assert roi_calls.value == 0
    assert_epochs_equal(fused, oracle)


def op_records_per_batch(**knobs):
    log = InMemoryTraceLog()
    epoch(log=log, worker_backend="thread", **knobs)
    per_batch = {}
    kinds = Counter(record.kind for record in log.records())
    for record in log.records():
        if record.kind == KIND_OP:
            per_batch.setdefault(record.batch_id, Counter())[record.name] += 1
    return per_batch, kinds


def test_records_per_batch_equal_the_unfused_batched_path(roi_calls):
    fused, fused_kinds = op_records_per_batch()
    assert roi_calls.value == len(LOADER_BLOBS)
    unfused, unfused_kinds = op_records_per_batch(loader=unfused_bulk_loader)
    assert roi_calls.value == len(LOADER_BLOBS)
    assert fused == unfused
    assert fused_kinds == unfused_kinds
    names = Counter(
        ["Loader", "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor",
         "Normalize", "Collation"]
    )
    assert all(counts == names for counts in fused.values())
    assert sorted(fused) == list(range(4))


ENGAGEMENT = {
    "workers": (dict(), True),
    "num_workers=0": (dict(num_workers=0), False),
    "cache=private": (dict(cache="private"), False),
    "cache=shared": (dict(cache="shared"), False),
    "custom loader": (dict(loader=unfused_bulk_loader), False),
    "non-RRC head": (dict(head=Resize(16)), False),
    "per-sample": (dict(batched_execution=False), False),
    "failure policy": (dict(failure_policy=FailurePolicy(mode="skip_sample")), False),
}


@pytest.mark.parametrize("case", sorted(ENGAGEMENT))
def test_engagement(case, roi_calls):
    knobs, fused = ENGAGEMENT[case]
    epoch(worker_backend="thread", **knobs)
    assert roi_calls.value == (len(LOADER_BLOBS) if fused else 0)
