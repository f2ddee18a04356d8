"""The DataLoader worker loop.

The main process forks/starts workers that each run :func:`worker_loop`:
create a dataset fetcher once, then repeatedly take ``(batch_id,
indices)`` tasks from this worker's index queue, fetch-and-collate, and
put ``(batch_id, payload)`` on the shared data queue.

Queue protocol (main -> worker): ``(batch_id, indices)`` tuples, or the
dedicated :data:`SHUTDOWN_SENTINEL` object to stop the worker — a
sentinel *instance*, not ``None``, so a legitimate ``None`` task payload
can never shut a worker down, and pickled across a
``multiprocessing.Queue`` it still resolves to the module singleton.

Queue protocol (worker -> main): ``(batch_id, payload)`` where payload
is the collated batch, a :class:`PartialBatch` (skip/retry policies were
exercised), a :class:`WorkerFailure` (exception surrogate), an
:class:`IterableStreamEnd`, or — with ``batch_id`` of
:data:`HEARTBEAT_BATCH_ID` — a :class:`WorkerHeartbeat` liveness beacon.

LotusTrace's [T1] hook lives here: the ``fetch`` call is wrapped with two
timestamps and one ``batch_preprocessed`` record — the paper's chosen
instrumentation point because every fetcher class shares ``fetch``.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

from repro.core.lotustrace.context import (
    batch_scope,
    current_pid,
    set_process_worker_id,
    worker_identity,
)
from repro.core.lotustrace.logfile import (
    PathLike,
    TraceSink,
    flush_all_writers,
    open_trace_log,
)
from repro.core.lotustrace.records import (
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    KIND_CACHE_STATS,
    KIND_WORKER_HEARTBEAT,
    TraceRecord,
    format_cache_stats_name,
    format_transport_name,
)
from repro.data.faults import WorkerCrashInjection, set_worker_generation
from repro.data.fetcher import create_fetcher
from repro.data.resilience import FailurePolicy, fetch_with_policy
from repro.data.transport import (
    ShmBatchRef,
    TransportCancelled,
    TransportSpec,
    create_worker_transport,
)
from repro.data.worker_info import WorkerInfo, worker_info_scope

#: ``batch_id`` carried by heartbeat payloads on the data queue.
HEARTBEAT_BATCH_ID = -1

#: ``batch_id`` carried by claim-confirmation payloads on the data queue
#: (DESIGN.md §12; emitted only under non-static schedulers).
CLAIM_BATCH_ID = -2


class _ShutdownSentinel:
    """Dedicated shutdown token for the index queues.

    ``multiprocessing.Queue`` pickles payloads, which would break ``is``
    identity for a plain ``object()``; ``__reduce__`` resolves every
    unpickle back to the module singleton.
    """

    def __reduce__(self):
        return (_shutdown_sentinel, ())

    def __repr__(self) -> str:
        return "SHUTDOWN_SENTINEL"


def _shutdown_sentinel() -> "_ShutdownSentinel":
    """Unpickle target: the module-level singleton."""
    return SHUTDOWN_SENTINEL


#: Sentinel placed on an index queue to stop its worker.
SHUTDOWN_SENTINEL = _ShutdownSentinel()


@dataclass
class WorkerFailure:
    """Exception surrogate shipped from a worker to the main process."""

    worker_id: int
    batch_id: int
    exc_type: str
    message: str
    traceback_text: str
    #: Restart generation of the emitting worker; the main process drops
    #: failures from generations it has already replaced.
    generation: int = 0

    def describe(self) -> str:
        return f"{self.exc_type}: {self.message}\n{self.traceback_text}"


@dataclass(frozen=True)
class IterableStreamEnd:
    """Signal that a worker's iterable-dataset shard is exhausted.

    Mirrors PyTorch's ``_IterableDatasetStopIteration``: the main process
    stops dispatching to this worker and skips the batch id that could
    not be filled.
    """

    worker_id: int
    batch_id: int


@dataclass(frozen=True)
class WorkerHeartbeat:
    """Liveness beacon a worker ships while idle between tasks."""

    worker_id: int
    generation: int
    sent_ns: int


@dataclass(frozen=True)
class WorkerClaim:
    """Claim confirmation for a dispatched batch (DESIGN.md §12).

    Shipped on the data queue the moment a worker dequeues a task,
    before the fetch begins, when the loader runs a non-static
    scheduler. Generation-stamped like :class:`WorkerFailure` so the
    supervisor can tell a live claim from a replaced incarnation's —
    the restart sweep counts reclaimed claims into
    :class:`~repro.data.resilience.FaultStats` and requeues the batches
    for deterministic replay.
    """

    worker_id: int
    generation: int
    batch_id: int
    sent_ns: int


@dataclass(frozen=True)
class StampedBatch:
    """Producer-stamped payload wrapper for non-shm carriers.

    Shared-memory payloads already carry ``(worker_id, generation)`` in
    their slab descriptor; pickle/inline payloads do not, so under a
    non-static scheduler a hung-then-replaced worker's late duplicate
    for a batch requeued to a *different* worker would otherwise be
    indistinguishable from the new assignee's receipt — crediting
    activity and a claim slot to a worker that produced nothing. The
    stamp lets the main process drop stale-generation payloads before
    they touch scheduler or supervision state.
    """

    worker_id: int
    generation: int
    data: Any


@dataclass
class PartialBatch:
    """A batch whose fetch exercised the skip/retry policies.

    ``data`` is ``None`` when every sample was skipped. Plain batches
    ship unwrapped, so the fault-free payload path is byte-identical to
    a policy-free run.
    """

    worker_id: int
    batch_id: int
    data: Any
    skipped_indices: Tuple[int, ...]
    retried: int


def worker_loop(
    worker_id: int,
    dataset: Any,
    index_queue: Any,
    data_queue: Any,
    collate_fn: Callable,
    log_target: Union[PathLike, TraceSink, None] = None,
    is_process_worker: bool = False,
    num_workers: int = 1,
    batched_execution: Optional[bool] = None,
    reuse_batch_buffers: bool = False,
    batch_buffer_depth: int = 1,
    failure_policy: Union[FailurePolicy, str, None] = None,
    heartbeat_interval_s: Optional[float] = None,
    cancel_flag: Any = None,
    restart_generation: int = 0,
    transport_spec: Optional[TransportSpec] = None,
    emit_claims: bool = False,
) -> None:
    """Run one DataLoader worker until a shutdown sentinel arrives.

    ``log_target`` may be a path (required for process-backed workers,
    which must reopen the log file in the child) or a shared sink for
    thread-backed workers. ``num_workers`` is exposed to dataset code via
    :func:`~repro.data.worker_info.get_worker_info` so iterable datasets
    can shard their streams. The ``batched_execution`` /
    ``reuse_batch_buffers`` / ``batch_buffer_depth`` triple configures
    this worker's fetcher fast path (each worker owns its own buffer
    arena).

    Fault tolerance (DESIGN.md §8): an active ``failure_policy`` routes
    the fetch through the per-sample policy path; with
    ``heartbeat_interval_s`` set the idle wait becomes a timed poll that
    ships :class:`WorkerHeartbeat` beacons (and heartbeat trace records);
    ``cancel_flag`` is the backend's cooperative cancellation flag,
    checked between tasks and again before shipping a finished batch so a
    cancelled (hung, later woken) worker never ships stale payloads;
    ``restart_generation`` identifies this incarnation of the worker id —
    it stamps failures and suppresses one-shot injected faults on replay.

    Batch transport (DESIGN.md §10): ``transport_spec`` selects the
    carrier that ships finished payloads to the main process — inline
    reference hand-off, the pickle mp-queue path, or shared-memory slabs
    — and every published batch gets a ``batch_transport`` trace record
    naming the mode, bytes moved, and copy count. ``None`` (direct
    callers, tests) keeps the legacy bare ``data_queue.put``.

    Scheduling (DESIGN.md §12): with ``emit_claims`` the worker ships a
    generation-stamped :class:`WorkerClaim` on the data queue as soon as
    it dequeues a task — the supervisor's view of which claim slots are
    actually being executed, consumed like heartbeats on the main side.
    """
    if is_process_worker:
        set_process_worker_id(worker_id)
    set_worker_generation(worker_id, restart_generation)
    policy = FailurePolicy.resolve(failure_policy)
    sink: Optional[TraceSink] = open_trace_log(log_target)
    with worker_identity(worker_id), worker_info_scope(
        WorkerInfo(worker_id=worker_id, num_workers=num_workers)
    ):
        fetcher = create_fetcher(
            dataset,
            collate_fn,
            batched=batched_execution,
            reuse_buffers=reuse_batch_buffers,
            buffer_depth=batch_buffer_depth,
            in_worker=True,
        )
        transport = create_worker_transport(
            transport_spec, worker_id, restart_generation, cancel_flag
        )
        # Decoded-sample cache hooks (DESIGN.md §11), duck-typed off
        # ``dataset.loader`` so a dataset without a caching loader (or a
        # fault-injection wrapper without a ``loader`` at all) costs one
        # getattr here and nothing per batch. Worker ``w`` is shared-cache
        # reader ``w + 1`` (the main process is reader 0); the restart
        # generation stamps this incarnation's claims.
        cache_loader = getattr(dataset, "loader", None)
        bind_cache_reader = getattr(cache_loader, "bind_reader", None)
        consume_cache_stats = getattr(cache_loader, "consume_batch_stats", None)
        advance_cache_batch = getattr(cache_loader, "advance_batch", None)
        release_cache_pins = getattr(cache_loader, "release_pins", None)
        if bind_cache_reader is not None:
            bind_cache_reader(worker_id + 1, restart_generation)
        pid = current_pid()
        while True:
            if cancel_flag is not None and cancel_flag.is_set():
                break
            if heartbeat_interval_s is None:
                task = index_queue.get()
            else:
                try:
                    task = index_queue.get(timeout=heartbeat_interval_s)
                except queue_module.Empty:
                    sent_ns = time.time_ns()
                    if sink is not None:
                        sink.write(
                            TraceRecord(
                                kind=KIND_WORKER_HEARTBEAT,
                                name="alive",
                                batch_id=HEARTBEAT_BATCH_ID,
                                worker_id=worker_id,
                                pid=pid,
                                start_ns=sent_ns,
                                duration_ns=0,
                            )
                        )
                    data_queue.put(
                        (
                            HEARTBEAT_BATCH_ID,
                            WorkerHeartbeat(worker_id, restart_generation, sent_ns),
                        )
                    )
                    continue
            if isinstance(task, _ShutdownSentinel):
                break
            batch_id, indices = task
            if emit_claims:
                # Confirm the claim before the fetch: the main process
                # learns which claim slot went busy (and that this
                # incarnation is alive) even if the fetch then stalls.
                data_queue.put(
                    (
                        CLAIM_BATCH_ID,
                        WorkerClaim(
                            worker_id,
                            restart_generation,
                            batch_id,
                            time.time_ns(),
                        ),
                    )
                )
            start = time.time_ns()
            skipped: Tuple[int, ...] = ()
            retried = 0
            try:
                with batch_scope(batch_id):
                    if policy.active:
                        # The policy path bypasses the fetcher (and its
                        # cache-pin scope rotation): rotate here.
                        if advance_cache_batch is not None:
                            advance_cache_batch()
                        data, skipped_list, retried = fetch_with_policy(
                            dataset, indices, collate_fn, policy, sink
                        )
                        skipped = tuple(skipped_list)
                    else:
                        data = fetcher.fetch(indices)
            except StopIteration:
                # Iterable shard exhausted; tell the main process and
                # keep serving (only the shutdown sentinel ends the loop).
                data_queue.put((batch_id, IterableStreamEnd(worker_id, batch_id)))
                continue
            except WorkerCrashInjection:
                # Injected hard death: die without shipping any payload,
                # exactly like a real crash — process workers exit hard,
                # thread workers fall off the loop.
                if is_process_worker:
                    # Let the feeder thread finish what was already put:
                    # exiting mid-write leaves the queue's shared write
                    # lock held, and every other writer blocks on it.
                    data_queue.close()
                    data_queue.join_thread()
                    os._exit(1)
                return
            except Exception as exc:  # ship to main process, keep serving
                data_queue.put(
                    (
                        batch_id,
                        WorkerFailure(
                            worker_id=worker_id,
                            batch_id=batch_id,
                            exc_type=type(exc).__name__,
                            message=str(exc),
                            traceback_text=traceback.format_exc(),
                            generation=restart_generation,
                        ),
                    )
                )
                continue
            duration = time.time_ns() - start
            if cancel_flag is not None and cancel_flag.is_set():
                # Cancelled mid-fetch (hang recovery): the batch was
                # re-dispatched elsewhere — drop it, do not ship stale data.
                break
            if sink is not None:
                sink.write(
                    TraceRecord(
                        kind=KIND_BATCH_PREPROCESSED,
                        name="fetch",
                        batch_id=batch_id,
                        worker_id=worker_id,
                        pid=pid,
                        start_ns=start,
                        duration_ns=duration,
                    )
                )
                if consume_cache_stats is not None:
                    # One zero-width cache_stats record per batch, on
                    # every carrier, draining this worker's hit/miss
                    # deltas accumulated during the fetch above.
                    sink.write(
                        TraceRecord(
                            kind=KIND_CACHE_STATS,
                            name=format_cache_stats_name(*consume_cache_stats()),
                            batch_id=batch_id,
                            worker_id=worker_id,
                            pid=pid,
                            start_ns=start + duration,
                            duration_ns=0,
                        )
                    )
            if skipped or retried:
                payload: Any = PartialBatch(
                    worker_id, batch_id, data, skipped, retried
                )
            else:
                payload = data
            if transport is None:
                if emit_claims:
                    payload = StampedBatch(
                        worker_id, restart_generation, payload
                    )
                data_queue.put((batch_id, payload))
                continue
            # Publish through the configured carrier. PartialBatch is a
            # control wrapper, not payload: only its ``data`` rides the
            # carrier, so the descriptor (or fallback) nests inside it.
            inner = payload.data if isinstance(payload, PartialBatch) else payload
            publish_start = time.time_ns()
            try:
                wire, mode, moved_bytes, copies = transport.publish(inner)
            except TransportCancelled:
                # Cancelled while waiting for a reclaimable slab slot:
                # the batch was re-dispatched elsewhere — drop it.
                break
            if isinstance(payload, PartialBatch):
                payload.data = wire
                wire = payload
            if emit_claims and not isinstance(wire, ShmBatchRef):
                # Non-shm carriers (and PartialBatch wrappers) lack the
                # slab descriptor's generation stamp; add one so the
                # main process can reject late duplicates from replaced
                # incarnations (DESIGN.md §12).
                wire = StampedBatch(worker_id, restart_generation, wire)
            data_queue.put((batch_id, wire))
            publish_duration = time.time_ns() - publish_start
            if sink is not None:
                sink.write(
                    TraceRecord(
                        kind=KIND_BATCH_TRANSPORT,
                        name=format_transport_name(mode, moved_bytes, copies),
                        batch_id=batch_id,
                        worker_id=worker_id,
                        pid=pid,
                        start_ns=publish_start,
                        duration_ns=publish_duration,
                    )
                )
        if release_cache_pins is not None:
            # Clean exit: drop this worker's shared-cache pins so entries
            # it read stay evictable across epochs (a crashed worker's
            # pins are swept by the supervisor's release_reader instead).
            release_cache_pins()
        if transport is not None:
            transport.close()
    if is_process_worker:
        # Spill every buffered writer in this child — including writers the
        # dataset or transform chain inherited across the fork — before the
        # sink itself is closed.
        flush_all_writers()
        if sink is not None:
            sink.close()
