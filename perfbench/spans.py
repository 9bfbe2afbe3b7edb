"""Spans around every public function of the ``mislate`` package.

Nothing in the program changes.  ``Tracer.install`` replaces each module
attribute a layer is called through with a wrapper that records a span, so
one function is wrapped under every name it is reachable by: both
``mislate.gmm.moment_matrix`` and ``mislate.moments.moment_matrix``, both
``mislate.cli.gmm_estimate`` and ``mislate.gmm.estimate``.  The scipy solver
is reached through ``mislate.gmm.optimize``, which is swapped for a proxy whose
``least_squares`` records a ``gmm.least_squares`` span.  ``uninstall`` puts
every original back.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are handed out per op by ``take``.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

# Counts recorded at a layer boundary, computed from the call's result.
COUNTERS = {
    "io.load_csv": lambda ds: {"rows": ds.n},
    # n * (4K+3) * 8: the dense moment matrix's size, computed, not measured
    "moments.moment_matrix": lambda g: {"bytes_computed": g.nbytes},
    "gmm.least_squares": lambda res: {"nfev": res.nfev, "njev": res.njev or 0},
    "simulation.run_study": lambda summary: {"failed_reps": summary.n_failed},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _Proxy:
    """Forwards attribute reads to a module, except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _layer_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self._spans: list = []
        self._stack: list = []
        self._saved: list = []   # (module, attribute, original value)

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self._spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def take(self) -> list:
        """Hand out the spans recorded since the last call."""
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts.update(counter(result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mislate" or name.startswith("mislate.")]
        wrappers: dict = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("mislate.")
                        and not value.__name__.startswith("_")):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(_layer_name(value), value)
                    replacement = wrappers[value]
                elif (isinstance(value, types.ModuleType)
                      and value.__name__ == "scipy.optimize"):
                    replacement = _Proxy(value, least_squares=self._wrap(
                        "gmm.least_squares", value.least_squares))
                else:
                    continue
                self._saved.append((mod, attr, value))
                setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and the summed counters."""
    out: dict = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


def moment_passes(spans) -> tuple:
    """(passes made for numerical derivatives, all moment passes).

    Under a ``least_squares`` span every pass beyond its ``nfev`` is a
    finite-difference Jacobian evaluation; every pass under
    ``moment_jacobian`` is one too.
    """
    total = fd = 0
    under_solver: dict = {}
    for span in spans:
        if span.name != "moments.moment_matrix":
            continue
        total += 1
        owner = _nearest(span, ("moments.moment_jacobian", "gmm.least_squares"))
        if owner is None:
            continue
        if owner.name == "moments.moment_jacobian":
            fd += 1
        else:
            under_solver[owner] = under_solver.get(owner, 0) + 1
    fd += sum(n - solver.counts["nfev"] for solver, n in under_solver.items())
    return fd, total


def _nearest(span: Span, names):
    node = span.parent
    while node is not None and node.name not in names:
        node = node.parent
    return node
