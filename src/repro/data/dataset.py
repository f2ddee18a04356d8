"""Datasets: map-style, iterable, folder-of-images, and blob-backed.

``ImageFolder`` takes the same ``log_file`` parameter as the paper's
instrumented torchvision build (Listing 1): when set, each image load
(open + decode/convert — the *Loader* operation) is logged as a [T3] op
record named ``Loader``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.lotustrace.context import (
    current_batch_id,
    current_pid,
    current_worker_id,
)
from repro.core.lotustrace.logfile import PathLike, TraceSink, open_trace_log
from repro.core.lotustrace.records import KIND_OP, TraceRecord
from repro.errors import DataLoaderError
from repro.imaging.image import Image, load_rgb_batch

LOADER_OP_NAME = "Loader"

#: Read-ahead byte budget per worker (DESIGN.md §13): a further read is
#: submitted only while fewer than this many bytes are in flight. Bytes,
#: not a count, because blob sizes are heavy-tailed.
READ_AHEAD_BYTES = 1 << 20


class Dataset:
    """Map-style dataset: index in, sample out."""

    def __getitem__(self, index: int) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class IterableDataset:
    """Stream-style dataset consumed via iteration."""

    def __iter__(self) -> Iterator[Any]:
        raise NotImplementedError


class TensorDataset(Dataset):
    """Dataset over pre-materialized aligned sequences."""

    def __init__(self, *columns: Sequence[Any]) -> None:
        if not columns:
            raise DataLoaderError("TensorDataset needs at least one column")
        length = len(columns[0])
        if any(len(col) != length for col in columns):
            raise DataLoaderError("TensorDataset columns have unequal lengths")
        self._columns = columns

    def __getitem__(self, index: int) -> Tuple[Any, ...]:
        return tuple(col[index] for col in self._columns)

    def __len__(self) -> int:
        return len(self._columns[0])


def pil_loader(source: Union[str, bytes, os.PathLike]) -> Image:
    """Default image loader: open + convert('RGB'), PIL-style.

    The decode cost lives here, which is why the paper reports it as the
    Loader preprocessing operation.
    """
    return Image.open(source).convert("RGB")


def _resolve_batch_loader(loader: Callable) -> Optional[Callable]:
    """The bulk form of a per-sample loader, or None when there is none.

    The stock ``pil_loader`` maps to :func:`load_rgb_batch`; any other
    loader may advertise a ``load_batch`` attribute (duck-typed — e.g.
    ``CachingLoader``, which this module must not import). Loaders with
    neither keep the per-sample path (custom/grayscale loaders).
    """
    if loader is pil_loader:
        return load_rgb_batch
    return getattr(loader, "load_batch", None)


class _LoaderLogging:
    """Mixin owning the dataset's loader and the instrumented Loader timing."""

    @property
    def loader(self) -> Callable:
        return self._loader

    @loader.setter
    def loader(self, loader: Callable) -> None:
        self._loader = loader
        #: The loader's bulk form (or None), resolved whenever the loader
        #: is set (the DataLoader wraps it for ``cache=``), never per batch.
        self.batch_loader = _resolve_batch_loader(loader)

    def _init_loader_log(
        self, log_file: Union[PathLike, TraceSink, None]
    ) -> None:
        self._sink: Optional[TraceSink] = open_trace_log(log_file)

    def _batch_sources(self, indices: Sequence[int]) -> Tuple[List[Any], List[Any]]:
        """(loader sources, labels) of a batch; reading them is not Loader time."""
        raise NotImplementedError

    def _timed_load(self, load: Callable[[], Any]) -> Any:
        sink = self._sink
        if sink is None:
            return load()
        start = time.time_ns()
        sample = load()
        duration = time.time_ns() - start
        sink.write(
            TraceRecord(
                kind=KIND_OP,
                name=LOADER_OP_NAME,
                batch_id=-1,
                worker_id=current_worker_id(),
                pid=current_pid(),
                start_ns=start,
                duration_ns=duration,
            )
        )
        return sample

    def load_untransformed_batch(
        self, indices: Sequence[int], draw_boxes: Optional[Callable] = None
    ) -> Optional[List[Tuple[Any, Any]]]:
        """Whole-batch ``(image, label)`` load through the loader's bulk
        form, or None when the loader has no bulk form (the fetcher then
        takes the per-sample loop).

        Writes one Loader [T3] record carrying the real batch id from the
        ambient ``batch_scope`` (its duration is what the per-sample
        path's N records would sum to). ``draw_boxes(labels, widths,
        heights)`` is :func:`load_rgb_batch`'s crop hook with the batch's
        labels bound first (DESIGN.md §14); the time spent inside it is
        left out of the Loader record, because the transform that owns
        the boxes reports it.
        """
        batch_loader = self.batch_loader
        if batch_loader is None:
            return None
        sources, labels = self._batch_sources(indices)
        drawn_ns = 0
        load = partial(batch_loader, sources)
        if draw_boxes is not None:

            def hook(widths, heights):
                nonlocal drawn_ns
                begin = time.time_ns()
                boxes = draw_boxes(labels, widths, heights)
                drawn_ns = time.time_ns() - begin
                return boxes

            load = partial(batch_loader, sources, hook)
        sink = self._sink
        if sink is None:
            return list(zip(load(), labels))
        start = time.time_ns()
        images = load()
        duration = time.time_ns() - start - drawn_ns
        sink.write(
            TraceRecord(
                kind=KIND_OP,
                name=LOADER_OP_NAME,
                batch_id=current_batch_id(),
                worker_id=current_worker_id(),
                pid=current_pid(),
                start_ns=start,
                duration_ns=duration,
            )
        )
        return list(zip(images, labels))


class ImageFolder(_LoaderLogging, Dataset):
    """Directory-of-class-subdirectories dataset (torchvision layout).

    ``root/<class_name>/<image>.sjpg`` files become ``(image, label)``
    samples, where the image has been loaded by ``loader`` and transformed
    by ``transform`` if given.
    """

    def __init__(
        self,
        root: PathLike,
        transform: Optional[Callable] = None,
        loader: Callable = pil_loader,
        log_file: Union[PathLike, TraceSink, None] = None,
        extensions: Tuple[str, ...] = (".sjpg",),
    ) -> None:
        self.root = os.fspath(root)
        self.transform = transform
        self.loader = loader
        self._init_loader_log(log_file)
        self.classes = sorted(
            entry
            for entry in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, entry))
        )
        if not self.classes:
            raise DataLoaderError(f"no class directories under {self.root}")
        self.class_to_idx = {name: i for i, name in enumerate(self.classes)}
        self.samples: List[Tuple[str, int]] = []
        for name in self.classes:
            class_dir = os.path.join(self.root, name)
            for filename in sorted(os.listdir(class_dir)):
                if filename.lower().endswith(extensions):
                    self.samples.append(
                        (os.path.join(class_dir, filename), self.class_to_idx[name])
                    )
        if not self.samples:
            raise DataLoaderError(f"no images with {extensions} under {self.root}")

    def __getitem__(self, index: int) -> Tuple[Any, int]:
        path, label = self.samples[index]
        image = self._timed_load(lambda: self.loader(path))
        if self.transform is not None:
            image = self.transform(image)
        return image, label

    def load_untransformed(self, index: int) -> Tuple[Any, int]:
        """(image, label) with the Loader timed but the transform
        skipped — the batched fetcher applies the chain per batch."""
        path, label = self.samples[index]
        return self._timed_load(lambda: self.loader(path)), label

    def _batch_sources(self, indices: Sequence[int]) -> Tuple[List[Any], List[Any]]:
        samples = [self.samples[index] for index in indices]
        return [path for path, _ in samples], [label for _, label in samples]

    def __len__(self) -> int:
        return len(self.samples)


class BlobImageDataset(_LoaderLogging, Dataset):
    """Dataset over in-memory encoded image blobs.

    Functionally an ImageFolder without the filesystem — used by the
    benchmark harness so experiments are not bottlenecked on disk setup.
    """

    def __init__(
        self,
        blobs: Sequence[bytes],
        labels: Optional[Sequence[int]] = None,
        transform: Optional[Callable] = None,
        loader: Callable = pil_loader,
        log_file: Union[PathLike, TraceSink, None] = None,
    ) -> None:
        if labels is not None and len(labels) != len(blobs):
            raise DataLoaderError(
                f"labels length {len(labels)} != blobs length {len(blobs)}"
            )
        # Keep the sequence as given: it may be a SimulatedRemoteStore
        # whose per-item reads carry I/O cost (listing it would pay that
        # cost eagerly, and silently drop the store's accounting).
        self._blobs = blobs
        self._labels = list(labels) if labels is not None else [0] * len(self._blobs)
        self.transform = transform
        self.loader = loader
        self._init_loader_log(log_file)

    def __getitem__(self, index: int) -> Tuple[Any, int]:
        return self._decode(index, self._blobs[index])

    def _decode(self, index: int, blob: bytes) -> Tuple[Any, int]:
        image = self._timed_load(lambda: self.loader(blob))
        if self.transform is not None:
            image = self.transform(image)
        return image, self._labels[index]

    def __getitems__(self, indices: Sequence[int]) -> List[Tuple[Any, int]]:
        """Bulk ``[self[i] for i in indices]`` (PyTorch's protocol) that
        overlaps storage reads with decode (DESIGN.md §13).

        Over a store with ``begin_read``/``finish_read`` the batch's
        reads are submitted ahead of the decode, chained one behind the
        other (one read on the wire) within :data:`READ_AHEAD_BYTES`,
        and sample ``k`` is decoded while read ``k+1`` transfers.
        Samples are still finished, decoded and transformed strictly in
        order, so records, RNG draws and pixels match the plain loop —
        which is what any other store, or a subclass with its own
        ``__getitem__``, gets.
        """
        store = self._blobs
        if (
            not hasattr(store, "begin_read")
            or type(self).__getitem__ is not BlobImageDataset.__getitem__
        ):
            return [self[index] for index in indices]
        samples = []
        pending: deque = deque()
        bytes_ahead = 0
        submitted = 0
        tail = None
        for index in indices:
            # ``len(pending) < 2``: whatever the sizes, the next read is
            # on the wire while this sample decodes.
            while submitted < len(indices) and (
                len(pending) < 2 or bytes_ahead < READ_AHEAD_BYTES
            ):
                tail = store.begin_read(indices[submitted], after=tail)
                pending.append(tail)
                bytes_ahead += len(tail.blob)
                submitted += 1
            handle = pending.popleft()
            bytes_ahead -= len(handle.blob)
            samples.append(self._decode(index, store.finish_read(handle)))
        return samples

    def load_untransformed(self, index: int) -> Tuple[Any, int]:
        """(image, label) with the Loader timed but the transform
        skipped — the batched fetcher applies the chain per batch."""
        blob = self._blobs[index]
        return self._timed_load(lambda: self.loader(blob)), self._labels[index]

    def _batch_sources(self, indices: Sequence[int]) -> Tuple[List[Any], List[Any]]:
        return (
            [self._blobs[index] for index in indices],
            [self._labels[index] for index in indices],
        )

    def __len__(self) -> int:
        return len(self._blobs)
