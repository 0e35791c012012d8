"""Spans recorded around kscertify's public functions, from outside.

Each patch point names a module attribute that the calling code looks up at
call time, so replacing it with a wrapper times every call made through that
lookup.  A patch point that no longer exists (a function moved to another
module, say) is reported as absent instead of failing the run.

Two kinds of wrapper are used.  A span wrapper records (name, request,
parent, start, end) and keeps self time, its duration minus the time of the
spans it encloses.  A leaf wrapper, for the per-pair and per-ray functions
called tens of thousands of times per command, only adds its count and time
to a running total and to the enclosing span's child time.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


def _mode(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    return str(getattr(mode, "value", "unknown"))


def _removed(args: tuple, result: Any) -> int:
    return args[0].graph.vertex_count - result.graph.vertex_count


# (module, attribute, span name or naming function, leaf?, counter, counting function)
PATCH_POINTS: tuple = (
    ("kscertify.cli", "parse_rayset", "cli.parse", False, None, None),
    ("kscertify", "parse_rayset", "cli.parse", False, None, None),
    ("kscertify.cli", "emit_rayset", "cli.emit", False, None, None),
    ("kscertify.cli", "emit_inequality", "cli.emit", False, None, None),
    ("kscertify.cli", "validate_rayset", "rayset.validate", False, None, None),
    ("kscertify.cli", "build_instance", "rayset.build", False, None, None),
    ("kscertify", "build_instance", "rayset.build", False, None, None),
    ("kscertify.rayset", "build_graph", "rayset.graph", False,
     "rayset.edges", lambda args, result: len(result.edges)),
    ("kscertify.rayset", "enumerate_bases", "rayset.bases", False,
     "rayset.bases", lambda args, result: len(result)),
    ("kscertify.cli", "prune_unbased", "rayset.prune", False, "rayset.rays_removed", _removed),
    ("kscertify.rayset", "canonicalize_ray", "algebra.canonicalize", True, None, None),
    ("kscertify.rayset", "is_orthogonal", "algebra.orthogonality", True, None, None),
    ("kscertify.cli", "check_colorable", lambda a, k: "coloring." + _mode(a, k), False,
     lambda a, k: f"coloring.{_mode(a, k)}_nodes", lambda args, result: result.nodes_explored),
    ("kscertify.cli", "build_inequality", "inequality.build", False, None, None),
    ("kscertify.cli", "gap_report", "inequality.gap", False, None, None),
    ("kscertify.inequality", "weighted_independence_number", "inequality.alpha", False, None, None),
    ("kscertify.inequality", "compute_weights", "inequality.weights", False, None, None),
    ("kscertify.inequality", "edge_weights", "inequality.weights", False, None, None),
    ("kscertify", "compute_weights", "inequality.weights", False, None, None),
    ("kscertify.cli", "quantum_value", "inequality.quantum", False, None, None),
    ("kscertify", "operator_sum_check", "inequality.opsum", False, None, None),
)


class Tracer:
    """Span and counter store for one traced pass; holds everything in memory."""

    def __init__(self) -> None:
        self.request: int | None = None
        self.spans: list[tuple[str, int | None, int, float, float]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple[Any, str, Callable]] = []

    def span(self, name: str | Callable, fn: Callable, counter=None, count=None) -> Callable:
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            start = perf_counter()
            self.spans.append((label, self.request, parent, start, start))
            self._stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    key = counter(args, kwargs) if callable(counter) else counter
                    self.counts[key] += count(args, result)
                return result
            finally:
                end = perf_counter()
                _, child = self._stack.pop()
                self.spans[index] = (label, self.request, parent, start, end)
                self.calls[label] += 1
                self.total[label] += end - start
                self.self_time[label] += end - start - child
                if self._stack:
                    self._stack[-1][1] += end - start

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.calls[name] += 1
                self.total[name] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return wrapper

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, leaf, counter, count in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.leaf(name, fn) if leaf else self.span(name, fn, counter, count)
            setattr(module, attr, wrapped)
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def dump(self) -> list:
        return [list(s) for s in self.spans]
