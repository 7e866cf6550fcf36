"""In-memory spans around calls into ghgeo's layers, for the traced run.

``Tracer.install`` replaces each traced public function by a wrapper at every
module attribute that holds it, including the names other modules imported
(``realization.validate_metric``, ``geodesic.gh_distance_exact``, ...), so a
call is seen whichever module makes it.  Spans are only recorded while an op
is open; the benchmark's own checks run between ops and stay out of the
trace.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced run, with the work counter
# each one adds, computed from its arguments.
TRACED = {
    ("metric_core", "validate_metric"): None,
    ("metric_core", "max_triangle_deficit"): ("triples", lambda a, kw: len(a[0]) ** 3),
    ("correspondence", "gh_distance_exact"): ("slots", lambda a, kw: len(a[0]) * len(a[1])),
    ("correspondence", "gh_distance_heuristic"): (
        "delta_cells", lambda a, kw: (len(a[0]) * len(a[1])) ** 2),
    ("correspondence", "distortion"): None,
    ("geodesic", "slice_gh_check"): None,
    ("geodesic", "pullback_matrices"): None,
    ("realization", "realize_geodesic"): None,
    ("realization", "build_product"): (
        "cells", lambda a, kw: (a[0].ground_size * len(a[2])) ** 2),
    ("realization", "verify_product"): None,
    ("realization", "run_condition_checks"): None,
}

# Other callables traced under a benchmark-level span name.
ALIASES = {
    ("cli", "load_product"): "realization.product_load",
}


class NullTracer:
    """Stand-in for the untraced run: spans cost one no-op context manager."""

    active = False

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def op(self, k: int):
        yield

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self.ops = 0
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op(self, k: int):
        """Root span of one op; its self time is the unattributed time."""
        self._op = k
        self.active = True
        self.ops += 1
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.count(name + ".calls", 1)
            if counter is not None:
                key, compute = counter
                tracer.count(f"{name}.{key}", compute(args, kwargs))
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each module attribute holding it."""
        import ghgeo
        import ghgeo.cli  # noqa: F401  (the package does not import its CLI)

        modules = [ghgeo] + [getattr(ghgeo, m) for m in
                             ("metric_core", "correspondence", "geodesic", "realization", "cli")]
        wrappers = {}
        for (mod, fname), counter in TRACED.items():
            fn = getattr(getattr(ghgeo, mod), fname)
            wrappers[id(fn)] = self._wrap(fn, f"{mod}.{fname}", counter)
        for (mod, fname), span_name in ALIASES.items():
            fn = getattr(getattr(ghgeo, mod), fname)
            wrappers[id(fn)] = self._wrap(fn, span_name, None)
        for module in modules:
            for attr, value in list(vars(module).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, w)
        product = ghgeo.realization.ProductSpace
        self._undo.append((product, "to_json_dict", product.to_json_dict))
        product.to_json_dict = self._wrap(product.to_json_dict, "realization.product_dump", None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_ms_by_name(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i]) * 1e3
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names listed once, times in microseconds."""
        names: dict[str, int] = {}
        rows = []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, op in self.spans:
            nid = names.setdefault(name, len(names))
            rows.append([nid, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, op])
        return {"names": list(names), "columns": ["name", "start_us", "end_us", "parent", "op"],
                "spans": rows}
