"""Per-thread native call stacks and precise call-event recording.

Each native-function invocation pushes onto a thread-local stack (so the
"what C function is this thread executing right now" question has an
answer, exactly what a sampling PMU driver observes) and, when at least one
:class:`EventRecorder` is attached and collecting, records a precise
:class:`CallEvent` on exit.

The simulated hardware profilers in :mod:`repro.hwprof` *replay* these
events with a virtual sampling clock instead of running a live sampler
thread. That keeps the paper's sampling pathologies — short functions
missed with probability ``(1 - f/s)`` per run, skid misattribution across
operation boundaries — while making experiments deterministic.

Instrumentation is attach-on-demand: while no recorder is attached
(:func:`armed` is false) a native call only pushes and pops the stack.
Armed calls run in :func:`native_span`, which reads an immutable snapshot
of the attached recorders; each appends to an unlocked per-thread buffer
(list appends are atomic under the GIL), merged and sorted only when
:meth:`EventRecorder.events` is called.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

_state = threading.local()

# Number of threads currently executing native code; read at call entry to
# stamp events with the concurrency level the contention model needs.
_active_lock = threading.Lock()
_active_count = 0

# Attach/detach mutate under the lock and publish an immutable snapshot
# tuple; native_span reads the snapshot without locking (an atomic
# reference read under the GIL).
_recorders_lock = threading.Lock()
_recorders: Tuple["EventRecorder", ...] = ()


@dataclass(frozen=True)
class CallEvent:
    """One completed native-function call.

    Attributes:
        thread_id: ``threading.get_ident()`` of the calling thread.
        function: native function name (e.g. ``decode_mcu``).
        library: shared library name (e.g. ``libjpeg.so.9``).
        start_ns: ``time.time_ns()`` at call entry.
        duration_ns: elapsed nanoseconds.
        depth: native stack depth at entry (0 = outermost native call).
        active_threads: threads executing native code when this call began.
    """

    thread_id: int
    function: str
    library: str
    start_ns: int
    duration_ns: int
    depth: int
    active_threads: int

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def covers(self, t_ns: int) -> bool:
        """Whether timestamp ``t_ns`` falls inside this call's span."""
        return self.start_ns <= t_ns < self.end_ns


class EventRecorder:
    """Collects :class:`CallEvent` records while attached and resumed.

    Collection gating mirrors the ITT / AMDProfileControl model: a recorder
    is attached (registered globally) but only stores events while
    ``collecting`` is True; ``resume()`` / ``pause()`` toggle it.

    Events are appended to unlocked per-thread buffers; the registry of
    buffers is guarded by a lock taken only once per (recorder, thread)
    pair, never on the per-event path. :meth:`events` merges and sorts
    the buffers into one chronological snapshot.
    """

    def __init__(self, collecting: bool = True) -> None:
        # All per-thread buffers, in creation order. Buffers are append-only
        # lists; threads keep a reference via ``self._local.buffer``.
        self._buffers: List[List[CallEvent]] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # guards _buffers registration only
        self.collecting = collecting
        self._attached = False

    # -- lifecycle ---------------------------------------------------------
    def resume(self) -> None:
        self.collecting = True

    def pause(self) -> None:
        self.collecting = False

    @property
    def attached(self) -> bool:
        return self._attached

    # -- recording ---------------------------------------------------------
    def record(self, event: CallEvent) -> None:
        if not self.collecting:
            return
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = []
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
        buffer.append(event)

    def events(self) -> List[CallEvent]:
        """Snapshot of recorded events, ordered by start time."""
        with self._lock:
            buffers = list(self._buffers)
        merged: List[CallEvent] = []
        for buffer in buffers:
            merged.extend(buffer)
        return sorted(merged, key=lambda e: (e.start_ns, e.depth))

    def clear(self) -> None:
        with self._lock:
            for buffer in self._buffers:
                buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(buffer) for buffer in self._buffers)


def attach_recorder(recorder: EventRecorder) -> None:
    """Register ``recorder`` to receive native call events."""
    global _recorders
    with _recorders_lock:
        if recorder not in _recorders:
            _recorders = _recorders + (recorder,)
            recorder._attached = True


def detach_recorder(recorder: EventRecorder) -> None:
    """Unregister ``recorder``; missing recorders are ignored."""
    global _recorders
    with _recorders_lock:
        if recorder in _recorders:
            _recorders = tuple(r for r in _recorders if r is not recorder)
            recorder._attached = False


def armed() -> bool:
    """Whether a recorder is attached. Work that exists only to be seen
    by one (call events, the entropy decoder's refill windows) runs only
    while this is true."""
    return bool(_recorders)


def _thread_stack() -> List[Tuple[str, str]]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def current_native_function() -> Optional[Tuple[str, str]]:
    """(function, library) this thread is executing, or None.

    This is the leaf-frame view a sampling hardware profiler has of a
    thread: the innermost native function, with no Python frames.
    """
    stack = _thread_stack()
    return stack[-1] if stack else None


def active_native_threads() -> int:
    """Number of threads currently inside native code (min 1)."""
    return max(1, _active_count)


@contextmanager
def native_span(function: str, library: str) -> Iterator[None]:
    """Execute the body as native function ``function`` of ``library``.

    Pushes the per-thread native stack, counts toward the concurrency
    level, and emits a :class:`CallEvent` to attached recorders on exit.
    An outermost call takes ``_active_lock`` twice to keep the count;
    fan-out reads the immutable recorder snapshot and appends to each
    recorder's per-thread buffer without a lock. ``@native`` calls enter
    it only while :func:`armed`.
    """
    global _active_count
    stack = _thread_stack()
    depth = len(stack)
    stack.append((function, library))
    if depth == 0:
        with _active_lock:
            _active_count += 1
    active = _active_count
    start = time.time_ns()
    try:
        yield
    finally:
        duration = time.time_ns() - start
        stack.pop()
        if depth == 0:
            with _active_lock:
                _active_count -= 1
        recorders = _recorders
        if recorders:
            event = CallEvent(
                thread_id=threading.get_ident(),
                function=function,
                library=library,
                start_ns=start,
                duration_ns=duration,
                depth=depth,
                active_threads=active,
            )
            for recorder in recorders:
                recorder.record(event)
