"""Registry of simulated native functions and shared libraries.

Kernels register themselves with the :func:`native` decorator, declaring
the *(function, library)* identity a hardware profiler would report for
them plus a :class:`~repro.clib.costmodel.CostSignature`. The registry is
what the simulated VTune/uProf reports group by ("Function / Library"
grouping in the paper's artifact workflow) and what LotusMap's mapping is
expressed against.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.clib.costmodel import BALANCED, CostSignature
from repro.clib.events import _thread_stack, armed, native_span

# Canonical shared-library names, mirroring Table I of the paper.
LIBJPEG = "libjpeg.so.9"
LIBC = "libc.so.6"
PILLOW = "_imaging.cpython-310-x86_64-linux-gnu.so"
LIBTENSOR = "libtensor_cpu.so"
LIBNUMPYCORE = "_multiarray_umath.cpython-310-x86_64-linux-gnu.so"


@dataclass(frozen=True)
class SharedLibrary:
    """A shared library grouping native functions."""

    name: str

    def __str__(self) -> str:
        return self.name


class NativeFunction:
    """A Python callable posing as a C/C++ function in a shared library.

    A call pushes the per-thread native stack; only while a recorder is
    attached does it run inside a :func:`~repro.clib.events.native_span`,
    which also counts concurrency and records a call event.
    """

    def __init__(
        self,
        func: Callable,
        name: str,
        library: str,
        signature: CostSignature,
        vendors: Iterable[str] = ("intel", "amd"),
        aliases: Optional[Dict[str, "tuple[str, str]"]] = None,
    ) -> None:
        self._func = func
        self.name = name
        self.library = library
        self._frame = (name, library)
        self.signature = signature
        self.vendors = frozenset(vendors)
        # Per-vendor (symbol, library) identities: the same kernel resolves
        # to differently named symbols on Intel vs AMD machines (e.g.
        # ``__memset_avx2_unaligned_erms`` in ``libc.so.6`` on Intel vs
        # ``__memset_avx2_unaligned`` in ``libc-2.31.so`` on AMD) — the
        # reason the paper requires mapping on the same machine as the job.
        self.aliases: Dict[str, "tuple[str, str]"] = dict(aliases or {})
        functools.update_wrapper(self, func)

    def __call__(self, *args, **kwargs):
        if armed():
            with native_span(self.name, self.library):
                return self._func(*args, **kwargs)
        stack = _thread_stack()
        stack.append(self._frame)
        try:
            return self._func(*args, **kwargs)
        finally:
            stack.pop()

    def visible_to(self, vendor: str) -> bool:
        """Whether this function appears in ``vendor`` profiles.

        Table I lists Intel-specific and AMD-specific functions — e.g. only
        one vendor's sampling driver resolves a given symbol (the other may
        inline it or never sample it). Functions declare which vendor
        runtimes they exist in.
        """
        return vendor in self.vendors

    def reported_identity(self, vendor: str) -> "tuple[str, str]":
        """(symbol, library) as reported by ``vendor``'s profiler."""
        return self.aliases.get(vendor, (self.name, self.library))

    def __repr__(self) -> str:
        return f"NativeFunction({self.name!r}, library={self.library!r})"


class NativeRegistry:
    """Thread-safe registry mapping function names to native functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, NativeFunction] = {}
        self._lock = threading.Lock()

    def register(self, function: NativeFunction) -> NativeFunction:
        with self._lock:
            existing = self._functions.get(function.name)
            if existing is not None and existing is not function:
                raise ValueError(
                    f"native function {function.name!r} already registered "
                    f"in {existing.library!r}"
                )
            self._functions[function.name] = function
        return function

    def get(self, name: str) -> NativeFunction:
        with self._lock:
            try:
                return self._functions[name]
            except KeyError:
                raise KeyError(f"unknown native function: {name!r}") from None

    def lookup_signature(self, name: str) -> CostSignature:
        """Signature for ``name``; BALANCED for unknown functions.

        Hardware profiles can contain functions outside the preprocessing
        libraries (the paper's "300+ C/C++ functions"); those get a generic
        signature.
        """
        with self._lock:
            function = self._functions.get(name)
        return function.signature if function is not None else BALANCED

    def functions(self) -> List[NativeFunction]:
        with self._lock:
            return list(self._functions.values())

    def libraries(self) -> List[str]:
        with self._lock:
            return sorted({f.library for f in self._functions.values()})

    def by_library(self, library: str) -> List[NativeFunction]:
        with self._lock:
            return [f for f in self._functions.values() if f.library == library]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._functions

    def __len__(self) -> int:
        with self._lock:
            return len(self._functions)


default_registry = NativeRegistry()


def native(
    name: str,
    library: str,
    signature: Optional[CostSignature] = None,
    vendors: Iterable[str] = ("intel", "amd"),
    aliases: Optional[Dict[str, "tuple[str, str]"]] = None,
    registry: Optional[NativeRegistry] = None,
) -> Callable[[Callable], NativeFunction]:
    """Decorator registering a Python function as a native kernel.

    >>> @native("my_kernel", library=LIBC)
    ... def my_kernel(x):
    ...     return x + 1
    >>> my_kernel(1)
    2
    """

    def decorate(func: Callable) -> NativeFunction:
        wrapped = NativeFunction(
            func,
            name=name,
            library=library,
            signature=signature if signature is not None else BALANCED,
            vendors=vendors,
            aliases=aliases,
        )
        (registry if registry is not None else default_registry).register(wrapped)
        return wrapped

    return decorate
