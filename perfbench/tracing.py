"""Span tracing of bmfactor's public functions, installed from outside the library.

``instrumented`` wraps every public function of every bmfactor module, plus
the methods ``core.Polynomial`` defines, and rebinds each wrapper wherever the
original is reachable: the defining module, the package namespace, and every
module that took the name with ``from .x import y``.  Each call records a
span (layer, parent span, start, end, raised).  Nothing under ``src/`` changes;
leaving the context restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Iterator

MODULES = ("core", "special", "dunkl", "orthopoly", "factors", "oracle", "inequality", "cli")
ROOT = "pass"

# Functions grouped under a layer name other than "<module>.other".
_LAYERS = {
    "cmd_verify": "cli.verify",
    "factor_hermite_ddx": "factors.factor",
    "factor_hermite_dunkl": "factors.factor",
    "factor_gegenbauer_ddx": "factors.factor",
    "factor_gegenbauer_dunkl": "factors.factor",
    "build_pencil_F": "factors.build_pencil",
    "build_pencil_G": "factors.build_pencil",
    "rayleigh_factor": "oracle.rayleigh_factor",
    "gauss_rule": "oracle.gauss_rule",
    "recurrence_betas": "oracle.recurrence_betas",
    "weighted_inner": "oracle.weighted_inner",
    "moment_table": "special.moment_table",
    "hermite_poly": "orthopoly.poly",
    "gegenbauer_poly": "orthopoly.poly",
    "residual_hermite": "orthopoly.residual",
    "residual_gegenbauer": "orthopoly.residual",
    "residual_classical_L": "orthopoly.residual",
}
# Modules that form a single layer whatever the function.
_WHOLE_MODULE = {"dunkl": "dunkl", "inequality": "inequality", "core": "core.polynomial"}


def layer_of(module: str, name: str) -> str:
    return _WHOLE_MODULE.get(module) or _LAYERS.get(name, f"{module}.other")


class Tracer:
    """In-memory span recorder; ``spans`` holds [layer, parent index, start, end, raised]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` recording a span per call; wrapping a whole pass as ROOT gives its root span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = clock()
                stack.pop()

        return traced


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, calls that raised, and self time.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans sum to the duration of the roots.
    """
    child = [0.0] * len(spans)
    for layer, parent, start, end, _raised in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (layer, _parent, start, end, raised), inner in zip(spans, child):
        entry = out.setdefault(layer, {"calls": 0, "failed": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += raised
        entry["self_s"] += (end - start) - inner
    return out


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route every public bmfactor function and Polynomial method through ``tracer``."""
    package = importlib.import_module("bmfactor")
    modules = {name: importlib.import_module(f"bmfactor.{name}") for name in MODULES}
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                wrappers[id(obj)] = (obj, tracer.wrap(layer_of(short, name), obj))

    undo: list[tuple[object, str, object]] = []
    polynomial = modules["core"].Polynomial
    core_file = modules["core"].__file__
    for name, fn in list(vars(polynomial).items()):
        if inspect.isfunction(fn) and fn.__code__.co_filename == core_file:
            wrapper = wrappers.setdefault(id(fn), (fn, tracer.wrap("core.polynomial", fn)))[1]
            undo.append((polynomial, name, fn))
            setattr(polynomial, name, wrapper)
    for namespace in (package, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((namespace, name, obj))
                setattr(namespace, name, hit[1])
    try:
        yield
    finally:
        for namespace, name, original in reversed(undo):
            setattr(namespace, name, original)
