"""Outside-in layer tracer for quivergrass.

``from .x import f`` copies the binding of ``f`` into the importing module,
so patching ``x.f`` alone misses most calls.  ``Tracer.install`` instead
finds every module of the package whose namespace holds the original
function object and rebinds each of those names to one timing wrapper.

Each wrapped call is a span.  The tracer keeps a stack of open spans; when a
span ends, its duration is added to its parent's child time, and its self
time is its duration minus that child time.  Spans are aggregated in memory
by (layer, parent layer), which keeps memory flat for the ~10^5-10^6 calls of
a pass, and written out by ``write`` when the pass ends.  Top-level item
spans are kept one record per item.

Per-layer counters besides calls and time come from ``COUNTERS`` (work
measured from arguments or results) and from ``cache_info()`` of the
``@cache``d layers.  Cache sizes are read by name when the pass ends, so a
cache that a later version removed reads as size 0.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PACKAGE = "quivergrass"

# (module, public function) for every traced layer.  verify_theorem and
# check_degeneration are traced so that their callers' self time excludes them.
LAYERS = (
    ("cli", "main"),
    ("specialize", "verify_theorem"),
    ("specialize", "check_degeneration"),
    ("specialize", "saturated_chain"),
    ("degen", "degeneration_poset"),
    ("degen", "bongartz_data"),
    ("degen", "boundary_check"),
    ("grass", "strata_table"),
    ("grass", "betti_recursion"),
    ("grass", "betti_oracle"),
    ("grass", "point_count"),
    ("homalg", "middle_term"),
    ("homalg", "iso_identify"),
    ("homalg", "subquotient_class"),
    ("homalg", "hom_basis"),
    ("homalg", "hom_dim"),
    ("linalg", "rref"),
    ("quiver", "enumerate_rep_classes"),
)

# layer -> (counter name, function of (args, result) giving the amount)
COUNTERS = {
    "linalg.rref": ("cells", lambda args, result: args[0].nrows * args[0].ncols),
    "quiver.enumerate_rep_classes": ("classes", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child_time]
        self.edges: dict[tuple[str, str], list[float]] = {}  # (name, parent) -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.items: list[dict] = []
        self.cached: dict[str, object] = {}  # layer -> original @cache function
        self.misses_at_install: dict[str, int] = {}

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for short, func in LAYERS:
            module = sys.modules[f"{PACKAGE}.{short}"]
            original = getattr(module, func)
            name = f"{short}.{func}"
            wrapper = self._wrap(name, original)
            if hasattr(original, "cache_info"):
                self.cached[name] = original
                self.misses_at_install[name] = original.cache_info().misses
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, original):
        stack, edges, counters = self.stack, self.edges, self.counters
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counter_key = f"{name}.{counter[0]}" if counter else None

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                key = (name, parent[0] if parent is not None else "")
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[2]
            if counter is not None:
                counters[counter_key] = counters.get(counter_key, 0) + counter[1](args, result)
            return result

        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        traced.__doc__ = original.__doc__
        traced._traced_original = original
        return traced

    def item_span(self, item_id: str, start: float, end: float) -> None:
        """Record one top-level item as a root span (its layers are its children)."""
        self.items.append({"item": item_id, "start": start, "end": end})

    def cache_sizes(self) -> dict[str, int]:
        """Entries held by every module-level cache of the package, by name."""
        sizes: dict[str, int] = {}
        for mod in self._modules():
            for attr, value in vars(mod).items():
                target = getattr(value, "_traced_original", value)
                if hasattr(target, "cache_info") and getattr(target, "__module__", None) == mod.__name__:
                    sizes[attr] = target.cache_info().currsize
                elif attr.endswith("_CACHE") and isinstance(value, dict):
                    sizes[attr] = len(value)
        return sizes

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self_s, misses and counters."""
        out: dict[str, float] = {}
        for (name, _parent), (calls, _total, self_time) in self.edges.items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_time
        for name, original in self.cached.items():
            out[f"{name}.misses"] = original.cache_info().misses - self.misses_at_install[name]
        out.update(self.counters)
        sizes = self.cache_sizes()
        for attr, size in sizes.items():
            out[f"cache.{attr}.currsize"] = size
        out["cache.all.currsize"] = sum(sizes.values())
        return out

    def total(self, name: str, parent: str | None = None) -> float:
        """Inclusive time of a layer, optionally only under one parent layer."""
        return sum(
            edge[1]
            for (layer, caller), edge in self.edges.items()
            if layer == name and parent in (None, caller)
        )

    def layer_split(self) -> dict[str, float]:
        """Inclusive seconds of the roadmap's layers, strata net of boundary checks."""
        return {
            "strata": self.total("grass.strata_table")
            - self.total("degen.boundary_check", "grass.strata_table"),
            "boundary": self.total("degen.boundary_check"),
            "bongartz": self.total("degen.bongartz_data"),
            "betti_nodes": self.total("grass.betti_recursion")
            - self.total("grass.betti_recursion", "grass.strata_table"),
            "poset": self.total("degen.degeneration_poset"),
            "oracle": self.total("grass.betti_oracle"),
        }

    def write(self, path: Path) -> None:
        spans = [
            {"layer": name, "parent": parent or None, "calls": calls, "total_s": total, "self_s": self_time}
            for (name, parent), (calls, total, self_time) in sorted(self.edges.items())
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"items": self.items, "spans": spans, "metrics": self.metrics()}, handle, indent=1)
