"""Blob storage with optional simulated remote-I/O latency.

The paper's testbed mounts the dataset from a remote ZFS zvol over iSCSI;
reads therefore pay a network round trip plus bandwidth-proportional
transfer time. :class:`SimulatedRemoteStore` wraps an in-memory blob list
with that cost model so experiments can reproduce I/O-sensitive behaviour
without real remote storage.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple, Optional, Sequence

from repro.data.faults import FAULT_CORRUPT, FaultPlan, corrupt_blob
from repro.errors import ReproError


class ReadHandle(NamedTuple):
    """A read submitted by :meth:`SimulatedRemoteStore.begin_read`."""

    index: int
    blob: bytes
    ready_at: float  # time.monotonic() at which the transfer completes


class SimulatedRemoteStore:
    """Sequence of blobs whose reads cost latency + size/bandwidth.

    ``store[i]`` is the blocking read. Its two halves are also exposed so
    a caller can compute while the transfer runs (DESIGN.md §13):
    :meth:`begin_read` submits a read and returns at once,
    :meth:`finish_read` waits out whatever of it is left.

    Args:
        blobs: the stored payloads.
        base_latency_s: per-read round-trip latency.
        bandwidth_mb_s: transfer bandwidth in MB/s (0 = infinite).
        fault_plan: optional :class:`~repro.data.faults.FaultPlan`
            consumed per read — transient faults raise ``IOError``
            mid-flight, hangs stall the read, and corrupt faults return
            a deterministically damaged blob (so the downstream decode
            fails with a real codec error, like a torn remote transfer).
    """

    def __init__(
        self,
        blobs: Sequence[bytes],
        base_latency_s: float = 0.0005,
        bandwidth_mb_s: float = 400.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if base_latency_s < 0:
            raise ReproError(f"latency must be >= 0, got {base_latency_s}")
        if bandwidth_mb_s < 0:
            raise ReproError(f"bandwidth must be >= 0, got {bandwidth_mb_s}")
        self._blobs = list(blobs)
        self.base_latency_s = base_latency_s
        self.bandwidth_mb_s = bandwidth_mb_s
        self.fault_plan = fault_plan
        self._reads = 0
        self._bytes_read = 0
        # Thread workers share one store; the counters are
        # read-modify-writes.
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._blobs)

    def __getitem__(self, index: int) -> bytes:
        return self.finish_read(self.begin_read(index))

    def begin_read(
        self, index: int, after: Optional[ReadHandle] = None
    ) -> ReadHandle:
        """Submit the read of blob ``index`` without waiting for it.

        ``after`` queues this read behind an earlier one on the same
        link: its transfer starts when that one completes, so a chain of
        handles models one read on the wire at a time, not N parallel
        links. No fault is consumed and nothing is counted until
        :meth:`finish_read`; a handle may simply be dropped.
        """
        blob = self._blobs[index]
        delay = self.base_latency_s
        if self.bandwidth_mb_s > 0:
            delay += (len(blob) / 1e6) / self.bandwidth_mb_s
        start = time.monotonic()
        if after is not None:
            start = max(start, after.ready_at)
        return ReadHandle(index, blob, start + delay)

    def finish_read(self, handle: ReadHandle) -> bytes:
        """Wait for a submitted read and return its payload.

        The fault plan runs here, in the calling (worker) thread, so
        faults key on the right worker id and surface where a blocking
        read would raise them.
        """
        fault = (
            self.fault_plan.apply(handle.index)
            if self.fault_plan is not None
            else None
        )
        remaining = handle.ready_at - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        blob = handle.blob
        with self._stats_lock:
            self._reads += 1
            self._bytes_read += len(blob)
        if fault == FAULT_CORRUPT:
            return corrupt_blob(blob)
        return blob

    @property
    def stats(self) -> dict:
        with self._stats_lock:
            return {"reads": self._reads, "bytes_read": self._bytes_read}
