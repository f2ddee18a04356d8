import threading
import time

import numpy as np
import pytest

from repro.clib import events
from repro.clib.events import (
    CallEvent,
    EventRecorder,
    active_native_threads,
    armed,
    attach_recorder,
    current_native_function,
    detach_recorder,
    native_span,
)
from repro.clib.registry import NativeRegistry, native
from repro.imaging.jpeg import codec, entropy
from tests.conftest import make_test_image


class TestNativeSpan:
    def test_stack_tracking(self):
        assert current_native_function() is None
        with native_span("outer", "libA"):
            assert current_native_function() == ("outer", "libA")
            with native_span("inner", "libB"):
                assert current_native_function() == ("inner", "libB")
            assert current_native_function() == ("outer", "libA")
        assert current_native_function() is None

    def test_stack_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with native_span("f", "lib"):
                raise RuntimeError("boom")
        assert current_native_function() is None

    def test_no_event_without_recorder(self):
        recorder = EventRecorder()
        attach_recorder(recorder)
        detach_recorder(recorder)
        with native_span("f", "lib"):
            pass
        assert len(recorder) == 0

    def test_active_count_minimum_one(self):
        assert active_native_threads() >= 1


class TestEventRecorder:
    def test_records_nested_events_with_depth(self):
        recorder = EventRecorder()
        attach_recorder(recorder)
        try:
            with native_span("outer", "libA"):
                with native_span("inner", "libB"):
                    time.sleep(0.001)
        finally:
            detach_recorder(recorder)
        events = recorder.events()
        assert [e.function for e in events] == ["outer", "inner"]
        by_name = {e.function: e for e in events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].start_ns >= by_name["outer"].start_ns
        assert by_name["inner"].end_ns <= by_name["outer"].end_ns

    def test_pause_resume_gating(self):
        recorder = EventRecorder(collecting=False)
        attach_recorder(recorder)
        try:
            with native_span("skipped", "lib"):
                pass
            recorder.resume()
            with native_span("kept", "lib"):
                pass
            recorder.pause()
            with native_span("skipped2", "lib"):
                pass
        finally:
            detach_recorder(recorder)
        assert [e.function for e in recorder.events()] == ["kept"]

    def test_multiple_recorders_both_receive(self):
        a, b = EventRecorder(), EventRecorder()
        attach_recorder(a)
        attach_recorder(b)
        try:
            with native_span("f", "lib"):
                pass
        finally:
            detach_recorder(a)
            detach_recorder(b)
        assert len(a) == 1 and len(b) == 1

    def test_detach_is_idempotent(self):
        recorder = EventRecorder()
        attach_recorder(recorder)
        detach_recorder(recorder)
        detach_recorder(recorder)  # no error
        assert not recorder.attached

    def test_clear(self):
        recorder = EventRecorder()
        attach_recorder(recorder)
        try:
            with native_span("f", "lib"):
                pass
        finally:
            detach_recorder(recorder)
        recorder.clear()
        assert len(recorder) == 0

    def test_concurrency_stamp_across_threads(self):
        recorder = EventRecorder()
        attach_recorder(recorder)
        barrier = threading.Barrier(3)

        def work():
            barrier.wait()
            with native_span("threaded", "lib"):
                time.sleep(0.02)

        threads = [threading.Thread(target=work) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            detach_recorder(recorder)
        counts = [e.active_threads for e in recorder.events()]
        assert max(counts) >= 2  # concurrent native execution observed


class TestUnarmedNative:
    """``@native`` calls with no recorder attached keep only the stack."""

    def test_nested_calls_track_the_stack(self):
        registry = NativeRegistry()
        seen = []

        @native("inner_fn", library="libB", registry=registry)
        def inner():
            seen.append(current_native_function())

        @native("outer_fn", library="libA", registry=registry)
        def outer():
            seen.append(current_native_function())
            inner()
            seen.append(current_native_function())

        assert not armed()
        outer()
        assert seen == [("outer_fn", "libA"), ("inner_fn", "libB"), ("outer_fn", "libA")]
        assert current_native_function() is None

    def test_stack_restored_after_exception(self):
        registry = NativeRegistry()

        @native("failing", library="lib", registry=registry)
        def failing():
            assert current_native_function() == ("failing", "lib")
            raise RuntimeError("boom")

        @native("caller", library="lib", registry=registry)
        def caller():
            with pytest.raises(RuntimeError):
                failing()
            return current_native_function()

        assert caller() == ("caller", "lib")
        assert current_native_function() is None

    def test_attach_and_detach_mid_call_keep_the_count_balanced(self):
        registry = NativeRegistry()
        recorder = EventRecorder()
        before = events._active_count

        @native("leaf", library="lib", registry=registry)
        def leaf():
            pass

        @native("attaching", library="lib", registry=registry)
        def attaching():
            attach_recorder(recorder)
            leaf()

        @native("detaching", library="lib", registry=registry)
        def detaching():
            detach_recorder(recorder)

        try:
            attaching()  # entered unarmed, leaves armed
            assert events._active_count == before
            assert [(e.function, e.depth) for e in recorder.events()] == [("leaf", 1)]
            detaching()  # entered armed, leaves unarmed
            assert events._active_count == before
        finally:
            detach_recorder(recorder)
        assert not armed()
        assert current_native_function() is None


def _plane_payloads():
    blob = codec.encode_sjpg(make_test_image(72, 56, seed=5), quality=80)
    planes = codec._split_plane_payloads(blob, codec.peek_header(blob))
    return [(payload, (ph // 8) * (pw // 8)) for (ph, pw), payload in planes]


@pytest.fixture
def refills(monkeypatch):
    """(offset, size) of every jpeg_fill_bit_buffer call the decoder makes."""
    calls = []
    fill = entropy.jpeg_fill_bit_buffer

    def counting(payload, offset, size):
        calls.append((offset, size))
        return fill(payload, offset, size)

    monkeypatch.setattr(entropy, "jpeg_fill_bit_buffer", counting)
    return calls


class TestRefillWindows:
    def test_unarmed_vectorized_decodes_make_no_refill_call(self, refills):
        planes = _plane_payloads()
        for payload, n_blocks in planes:
            entropy.decode_mcu(payload, n_blocks)
            entropy.decode_mcu(payload, n_blocks, (1, 0, 1, 0, 1))
        entropy.decode_mcu([p for p, _ in planes], [n for _, n in planes])
        assert refills == []

    def test_armed_vectorized_refills_match_the_scalar_oracle(self, refills):
        planes = _plane_payloads()
        recorder = EventRecorder()
        attach_recorder(recorder)
        try:
            for payload, n_blocks in planes:
                refills.clear()
                with entropy.entropy_mode("scalar"):
                    want = entropy.decode_mcu(payload, n_blocks)
                scalar_calls = list(refills)
                refills.clear()
                got = entropy.decode_mcu(payload, n_blocks)
                assert refills == scalar_calls
                assert len(scalar_calls) == -(-n_blocks // 16)
                np.testing.assert_array_equal(got, want)
        finally:
            detach_recorder(recorder)
        depths = {(e.function, e.depth) for e in recorder.events()}
        assert depths == {("decode_mcu", 0), ("jpeg_fill_bit_buffer", 1)}

    def test_armed_list_form_refills_once_per_plane(self, refills):
        planes = _plane_payloads()
        recorder = EventRecorder()
        attach_recorder(recorder)
        try:
            entropy.decode_mcu([p for p, _ in planes], [n for _, n in planes])
        finally:
            detach_recorder(recorder)
        assert refills == [(0, len(payload)) for payload, _ in planes]


class TestCallEvent:
    def test_covers(self):
        event = CallEvent(1, "f", "lib", start_ns=100, duration_ns=50,
                          depth=0, active_threads=1)
        assert event.covers(100)
        assert event.covers(149)
        assert not event.covers(150)
        assert not event.covers(99)
        assert event.end_ns == 150
