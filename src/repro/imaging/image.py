"""PIL-style ``Image`` with lazy decode.

``Image.open`` only parses the container header — the expensive decode
work runs when ``convert("RGB")`` is called, matching how the MLPerf image
classification loader behaves (``pil_loader`` opens then converts) and why
the paper attributes decode cost to the *Loader* operation.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ImageError
from repro.imaging import kernels
from repro.imaging.jpeg import codec

FLIP_LEFT_RIGHT = 0

_GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float32)


class Image:
    """An image that is either decoded (array-backed) or lazy (blob-backed)."""

    def __init__(self, array: np.ndarray, mode: str = "RGB") -> None:
        if mode == "RGB":
            if array.ndim != 3 or array.shape[2] != 3:
                raise ImageError(f"RGB image needs (H, W, 3), got {array.shape}")
        elif mode == "L":
            if array.ndim != 2:
                raise ImageError(f"L image needs (H, W), got {array.shape}")
        else:
            raise ImageError(f"unsupported mode: {mode!r}")
        if array.dtype != np.uint8:
            raise ImageError(f"image pixels must be uint8, got {array.dtype}")
        self._array: Optional[np.ndarray] = array
        self._blob: Optional[bytes] = None
        self._header: Optional[codec.SjpgHeader] = None
        self.mode = mode

    # -- construction --------------------------------------------------------
    @classmethod
    def open(cls, source: Union[str, bytes, os.PathLike]) -> "Image":
        """Open an SJPG blob or file path without decoding pixels."""
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as handle:
                blob = handle.read()
        else:
            blob = bytes(source)
        header = codec.peek_header(blob)
        image = cls.__new__(cls)
        image._array = None
        image._blob = blob
        image._header = header
        image.mode = "SJPG"
        return image

    @classmethod
    def new(cls, size: Tuple[int, int], color: int = 0, mode: str = "RGB") -> "Image":
        width, height = size
        shape = (height, width, 3) if mode == "RGB" else (height, width)
        return cls(np.full(shape, color, dtype=np.uint8), mode=mode)

    # -- metadata -------------------------------------------------------------
    @property
    def size(self) -> Tuple[int, int]:
        """(width, height) — PIL convention."""
        if self._array is not None:
            return (self._array.shape[1], self._array.shape[0])
        assert self._header is not None
        return self._header.size

    @property
    def width(self) -> int:
        return self.size[0]

    @property
    def height(self) -> int:
        return self.size[1]

    @property
    def is_decoded(self) -> bool:
        return self._array is not None

    # -- decode / convert -------------------------------------------------------
    def convert(self, mode: str = "RGB") -> "Image":
        """Decode (if lazy) and convert to ``mode``; returns a new Image.

        This is the paper's *Loader* hot spot: entropy decode, inverse
        DCT, chroma upsampling, color conversion, and packing all run
        here.
        """
        if mode not in ("RGB", "L"):
            raise ImageError(f"unsupported target mode: {mode!r}")
        if self._array is None:
            assert self._blob is not None
            rgb = codec.decode_sjpg(self._blob)
            # Pack plane views into the final interleaved buffer and take
            # Pillow's internal copy (AMD-visible `copy` symbol).
            rgb = kernels.imaging_unpack_rgb((rgb[..., 0], rgb[..., 1], rgb[..., 2]))
            rgb = kernels.pillow_copy(rgb)
        elif self.mode == "RGB":
            rgb = self._array
        else:  # L source
            rgb = np.repeat(self._array[..., None], 3, axis=2)
        if mode == "RGB":
            return Image(np.ascontiguousarray(rgb), mode="RGB")
        gray = (rgb.astype(np.float32) @ _GRAY_WEIGHTS).round()
        return Image(np.clip(gray, 0, 255).astype(np.uint8), mode="L")

    def _decoded_array(self) -> np.ndarray:
        if self._array is None:
            raise ImageError(
                "image is lazy (undecoded); call convert() before raster ops"
            )
        return self._array

    # -- raster operations ----------------------------------------------------
    def resize(self, size: Tuple[int, int]) -> "Image":
        """Bilinear resize to (width, height) via separable passes.

        Pixels move through channels-first float32 so each pass is one
        reshape-view GEMM (no transpose copy inside the contraction) —
        the identical per-image calls the batched engine loops over,
        which is what pins the two engines' outputs bit-together
        (DESIGN.md §7).
        """
        width, height = size
        if width <= 0 or height <= 0:
            raise ImageError(f"invalid resize target: {size}")
        source = self._decoded_array()
        h_bounds, h_weights = kernels.precompute_coeffs(source.shape[1], width)
        v_bounds, v_weights = kernels.precompute_coeffs(source.shape[0], height)
        if source.ndim == 3:
            array = source.transpose(2, 0, 1).astype(np.float32)
        else:
            array = source.astype(np.float32)
        array = kernels.imaging_resample_horizontal(
            array, h_bounds, h_weights, channels_first=True
        )
        array = kernels.imaging_resample_vertical(
            array, v_bounds, v_weights, channels_first=True
        )
        # Intel-visible allocator traffic from the two temporary passes.
        kernels.memmove_gather(array, np.arange(array.shape[0]))
        kernels.int_free(array)
        out = np.clip(np.round(array), 0, 255).astype(np.uint8)
        if out.ndim == 3:
            out = np.ascontiguousarray(out.transpose(1, 2, 0))
        return Image(out, mode=self.mode)

    def crop(self, box: Tuple[int, int, int, int]) -> "Image":
        """Crop to (left, upper, right, lower) — PIL box convention."""
        left, upper, right, lower = box
        if right <= left or lower <= upper:
            raise ImageError(f"degenerate crop box: {box}")
        array = self._decoded_array()
        region = kernels.imaging_crop(array, upper, left, lower - upper, right - left)
        return Image(region, mode=self.mode)

    def transpose(self, method: int) -> "Image":
        if method != FLIP_LEFT_RIGHT:
            raise ImageError(f"unsupported transpose method: {method}")
        return Image(
            kernels.imaging_flip_left_right(self._decoded_array()), mode=self.mode
        )

    def to_array(self) -> np.ndarray:
        """Return the pixel array (decoding is the caller's job)."""
        return self._decoded_array()

    def save_sjpg(self, path: Union[str, os.PathLike], quality: int = 85) -> None:
        if self.mode != "RGB":
            raise ImageError("only RGB images can be saved as SJPG")
        blob = codec.encode_sjpg(self._decoded_array(), quality=quality)
        with open(path, "wb") as handle:
            handle.write(blob)

    def __repr__(self) -> str:
        state = "decoded" if self.is_decoded else "lazy"
        return f"Image(mode={self.mode!r}, size={self.size}, {state})"


def load_rgb_batch(
    sources: Sequence[Union[str, bytes, os.PathLike]],
    draw_boxes: Optional[Callable] = None,
) -> List[Image]:
    """Open + decode a whole batch of SJPG sources to RGB images.

    The bulk form of ``pil_loader`` (``Image.open(...).convert("RGB")``
    per source): all blobs go through :func:`codec.decode_sjpg_batch`'s
    stacked kernel passes, then each image takes the same unpack +
    Pillow-copy finishing steps ``convert`` makes — so every returned
    image is bit-identical to its per-sample counterpart (DESIGN.md §9).

    ``draw_boxes(widths, heights)`` fuses a crop into the decode
    (DESIGN.md §14): it is called once with every image's true size,
    read from the headers, and returns one ``(left, upper, right,
    lower)`` box per image; each image is then decoded only inside its
    box, bit-identical to ``convert("RGB")`` followed by ``crop(box)``.
    A hook that returns None gets whole images.
    """
    blobs: List[bytes] = []
    for source in sources:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "rb") as handle:
                blobs.append(handle.read())
        else:
            blobs.append(bytes(source))
    boxes = None
    if draw_boxes is not None:
        sizes = np.array(
            [codec.peek_header(blob).size for blob in blobs], dtype=np.int64
        ).reshape(-1, 2)
        boxes = draw_boxes(sizes[:, 0], sizes[:, 1])
    if boxes is None:
        decoded = codec.decode_sjpg_batch(blobs)
    else:
        decoded = [codec.decode_sjpg_roi(blob, box) for blob, box in zip(blobs, boxes)]
    images = []
    for rgb in decoded:
        rgb = kernels.imaging_unpack_rgb((rgb[..., 0], rgb[..., 1], rgb[..., 2]))
        rgb = kernels.pillow_copy(rgb)
        images.append(Image(np.ascontiguousarray(rgb), mode="RGB"))
    return images
