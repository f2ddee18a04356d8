"""Simulated native (C/C++) function layer.

PyTorch/Pillow preprocessing work is actually performed by C functions in
shared libraries (``libjpeg.so.9``, the Pillow ``_imaging`` extension,
``libc.so.6``) which is precisely why hardware profilers see function names
like ``decode_mcu`` instead of Python operations — the attribution gap that
LotusMap closes (paper § IV).

This package recreates that world in pure Python:

* every compute kernel in :mod:`repro.imaging` is registered here as a
  :class:`NativeFunction` carrying a *(function name, shared library)*
  identity matching the paper's Table I, and a :class:`CostSignature`
  describing its microarchitectural behaviour;
* calls to native functions maintain a per-thread native call stack and —
  when a collector is attached — record precise call events that the
  simulated hardware profiler (:mod:`repro.hwprof`) later samples.
"""

from repro.clib.costmodel import ContentionModel, CostSignature
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
from repro.clib.registry import (
    NativeFunction,
    NativeRegistry,
    SharedLibrary,
    default_registry,
    native,
)

__all__ = [
    "CallEvent",
    "ContentionModel",
    "CostSignature",
    "EventRecorder",
    "NativeFunction",
    "NativeRegistry",
    "SharedLibrary",
    "active_native_threads",
    "armed",
    "attach_recorder",
    "current_native_function",
    "default_registry",
    "detach_recorder",
    "native",
    "native_span",
]
