"""Outside-in span tracer for the spectral_abstraction layers.

The package is not instrumented. Instead, every public function of every
layer module is replaced by a timing wrapper at each place it is bound:
its own module, every sibling module that imported it by name, and the
package namespace. Patching only the defining module would miss calls
made through those other bindings (``sa.fit_fc`` or ``partition``'s own
``cut_metrics`` name, for example).

Spans are kept in memory until the run ends. A span's self time is its
duration minus the time its child spans cover; the package runs on one
thread, so spans nest and children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("graphs", "spectral", "partition", "nonlinear", "hierarchy", "structfunc", "fileio", "cli")

# Per-element helpers called once per output number. Wrapping them would
# cost more than the work they do; their volume is derived from output
# sizes instead.
UNWRAPPED = frozenset({"fileio.format_float"})


def _adjacency_cells(args, kwargs) -> float:
    g = args[0] if args else kwargs["g"]
    return float(g.n) ** 2


def _decompose_n3(args, kwargs) -> float:
    L = args[0] if args else kwargs["L"]
    return float(L.n) ** 3


# Work sizes computed from arguments, not measured: sum of n^2 over the
# dense adjacency matrices built, sum of n^3 over the dense eigensolves.
SIZE_OF = {
    "graphs.adjacency_matrix": _adjacency_cells,
    "spectral.eigendecompose": _decompose_n3,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "child_s")

    def __init__(self, name: str, start: float, parent: Span | None, size: float):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = size
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records a span for every call into a layer while its wrappers are installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    def public_functions(self) -> dict[str, object]:
        """Qualified name -> function for every wrapped function of every layer."""
        found = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, value in vars(module).items():
                qualified = f"{layer}.{attr}"
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and qualified not in UNWRAPPED
                ):
                    found[qualified] = value
        return found

    def install(self) -> None:
        originals = {id(fn): name for name, fn in self.public_functions().items()}
        wrappers = {}
        namespaces = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patches.append((namespace, attr, value))
                setattr(namespace, attr, wrappers[name])

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def call(self, fn, *args):
        """fn(*args) with the wrappers installed, so the package runs unpatched otherwise."""
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        size_of = SIZE_OF.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open
            span = Span(name, clock(), parent, size_of(args, kwargs) if size_of else 0.0)
            self._open = span
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open = parent
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)

        return wrapper

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function and per layer: calls, self seconds and summed work size."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        for key in (span.name, layer):
            entry = out.setdefault(key, {"calls": 0.0, "self_s": 0.0, "size": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["size"] += span.size
    return out
