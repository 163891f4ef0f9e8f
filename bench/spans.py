"""Span tracing of mpshrink from outside the package.

``instrument`` replaces every public function and public method of the layer
modules with a wrapper that records a span (name, start, end, parent).  The
wrapper is also bound under every name that referred to the original, which
covers names re-bound by ``from .x import y`` (``functionals.solve_mF``,
``simulate.solve_density``, ...).  ``numpy.linalg.eigh`` is wrapped too, so
the draw can be split into its eigen-decomposition and the rest.

Spans are kept in memory; ``span_table`` turns them into per-name totals and
per-layer self times (span time minus the time of its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time

LAYERS = ("spectrum", "stieltjes", "functionals", "overlap", "shrinkage",
          "simulate", "cli")
EIGH = "numpy.eigh"


class Tracer:
    """Spans of one process as parallel lists; a parent is a span index or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._paused = 0

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Spans as gzip TSV: index, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                 self.ends, self.parents)):
                fh.write(f"{i}\t{p}\t{n}\t{s!r}\t{e!r}\n")

    def dump(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "counts": self.counts}

    @classmethod
    def load(cls, doc: dict) -> "Tracer":
        tracer = cls()
        tracer.names = doc["names"]
        tracer.starts = doc["starts"]
        tracer.ends = doc["ends"]
        tracer.parents = doc["parents"]
        tracer.counts = dict(doc["counts"])
        return tracer


def _count_boundary_values(tracer, solution) -> None:
    tracer.add_count("stieltjes.grid_points", len(solution.grid))


def _count_solve_density(tracer, solution) -> None:
    tracer.add_count("stieltjes.invalid_points", int((~solution.valid).sum()))


ON_RESULT = {
    "stieltjes.boundary_values": _count_boundary_values,
    "stieltjes.solve_density": _count_solve_density,
}


def _is_public_callable(obj, module_name: str) -> bool:
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module_name)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    import numpy

    modules = {layer: importlib.import_module(f"mpshrink.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if _is_public_callable(obj, mod.__name__):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, ON_RESULT.get(name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth,
                                tracer.wrap(f"{layer}.{obj.__name__}.{meth}", fn))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            try:
                wrapper = wrappers.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    numpy.linalg.eigh = tracer.wrap(EIGH, numpy.linalg.eigh)


def quadrature_cache_counts(tracer: Tracer) -> None:
    """Add the process's quadrature-node cache hits and misses as counts."""
    from mpshrink import spectrum
    info = spectrum.quadrature_nodes.__wrapped__.cache_info()
    tracer.add_count("spectrum.cache_hits", info.hits)
    tracer.add_count("spectrum.cache_misses", info.misses)


def span_table(tracers) -> dict:
    """Per-name totals over one or more tracers (one per process).

    Returns {name: {"calls", "total_s", "self_s"}} where total_s sums every
    span of the name and self_s subtracts the time of their child spans.
    """
    table: dict[str, dict] = {}
    for tr in tracers:
        n = len(tr.names)
        child = [0.0] * n
        for i in range(n):
            p = tr.parents[i]
            if p >= 0:
                child[p] += tr.ends[i] - tr.starts[i]
        for i in range(n):
            name = tr.names[i]
            dur = tr.ends[i] - tr.starts[i]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
    return table


def outermost_time(tracers, names) -> float:
    """Time in spans named in ``names`` that have no ancestor in ``names``."""
    names = set(names)
    total = 0.0
    for tr in tracers:
        for i, name in enumerate(tr.names):
            if name not in names:
                continue
            p = tr.parents[i]
            while p >= 0 and tr.names[p] not in names:
                p = tr.parents[p]
            if p < 0:
                total += tr.ends[i] - tr.starts[i]
    return total


def layer_self_times(table: dict) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += row["self_s"]
    return out
