"""Outside-in span recording for one verification.

The benchmark never edits the program.  Instead ``Tracer.install`` replaces
the public functions of each primesum layer (and a few named extras) with
timing wrappers, in every already-imported ``primesum`` module that holds a
reference to them, so the CLI, the pipeline and the modules' own internal
calls all go through the wrapper.  ``numpy.fft`` is wrapped the same way.

A span is the tuple ``(name, start, end, parent, detail)``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``detail`` is the one
call detail a layer metric reads, or None (a sieve limit, a transform
length, a Bohr set size, a rendered size).  Flat tuples of numbers and
strings keep the garbage collector's work, and so the tracing overhead, low.
Spans stay in memory; the worker hands them to the benchmark, which writes
them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import threading
import time

# Layer name -> modules whose ``__all__`` functions are wrapped.
LAYER_MODULES = {
    "ntheory": ("primesum.ntheory",),
    "prime_embed": ("primesum.prime_embed",),
    "zn_spectral": ("primesum.zn_spectral",),
    "zm_sumsets": ("primesum.zm_sumsets",),
    "expcli": (
        "primesum.expcli.config",
        "primesum.expcli.pipeline",
        "primesum.expcli.reports",
        "primesum.expcli.cli",
    ),
}

# Targets outside ``__all__`` that the layer metrics read: (layer, module,
# dotted attribute).
EXTRA_TARGETS = (
    ("expcli", "primesum.expcli.config", "ExperimentConfig.validate"),
)
# Span names of the pipeline's exact integer sumset.  Every layer function
# whose span name matches is wrapped, public or private, so that whichever
# one the pipeline calls is timed.
INT_SUMSET = re.compile(r"^zm_sumsets\._?int(eger)?_sumset")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _fft_length(args, kwargs) -> int:
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    shape = getattr(args[0], "shape", None)
    return int(shape[-1]) if shape else len(args[0])


def _call_detail(name: str):
    """Detail extractor ``(args, kwargs, result) -> int`` for a span name."""
    if name == "ntheory.sieve_primes":
        return lambda args, kwargs, result: int(args[0])
    if name == "zn_spectral.green_decompose":
        return lambda args, kwargs, result: int(result.bohr.size)
    if name == "expcli.emit_report":
        return lambda args, kwargs, result: len(result.encode("utf-8"))
    if name.startswith("numpy.fft."):
        return lambda args, kwargs, result: _fft_length(args, kwargs)
    return None


class Tracer:
    """Records nested spans for the calls it wraps, in the calling thread."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.wrapped: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        detail_of = _call_detail(name)
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # holds the index until the call returns
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
            if detail_of is not None:
                spans[index] = spans[index][:4] + (detail_of(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self.wrapped.append(name)
        return traced

    def install(self) -> None:
        """Wrap every target that exists; ``wrapped`` lists their span names."""
        targets: list[tuple[str, object, str, object]] = []
        for layer, modules in LAYER_MODULES.items():
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    continue
                for attr, value in vars(module).items():
                    name = f"{layer}.{attr}"
                    if (
                        (attr in getattr(module, "__all__", ()) or INT_SUMSET.match(name))
                        and inspect.isfunction(value)
                        and value.__module__ == modname
                    ):
                        targets.append((name, module, attr, value))
        for layer, modname, dotted in EXTRA_TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            value = getattr(owner, attr, None) if owner is not None else None
            if inspect.isfunction(value):
                targets.append((f"{layer}.{dotted}", owner, attr, value))

        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "primesum" or key.startswith("primesum."))
        ]
        for name, owner, attr, original in targets:
            wrapper = self.wrap(name, original)
            setattr(owner, attr, wrapper)
            # rebind every ``from .x import f`` copy so callers hit the wrapper
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        import numpy.fft

        for attr in FFT_FUNCTIONS:
            original = getattr(numpy.fft, attr, None)
            if original is not None:
                setattr(numpy.fft, attr, self.wrap(f"numpy.fft.{attr}", original))
