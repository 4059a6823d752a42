"""Spans and cache counters for a traced benchmark pass.

Wrappers go around the public functions of each qtau layer module from
the benchmark's side, so nothing under src/ changes.  Modules that did
`from .x import f` hold their own reference to f, so every such alias in
every qtau module is rebound too; otherwise calls made through
qboson_model, suites or cli bindings would be missed.

A span is (name, start, end, parent index).  Spans stay in memory and
are written out once the pass is over.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

LAYERS = ("algebra_core", "symfunc", "miwa", "phase_model", "qboson_model",
          "fock_oracle", "bethe")
# private functions worth a span of their own: the oracle's Q-keyed
# symbolic block build is the cost the fresh-Q workload exists to show
PRIVATE = {("fock_oracle", "_symbolic_blocks"): "fock_oracle.blocks"}
# ring arithmetic lives in methods, which a module scan does not reach
METHODS = {
    ("algebra_core", "QPoly"): {"__mul__": "mul", "__rmul__": "mul",
                                "__add__": "add", "__radd__": "add",
                                "__call__": "eval"},
    ("algebra_core", "TruncatedSeries"): {"__mul__": "mul",
                                          "__add__": "add"},
}
# memoised functions whose cache_info() is read around a pass
CACHES = {
    "fock_oracle.sector_basis": ("fock_oracle", "sector_basis"),
    "fock_oracle.blocks": ("fock_oracle", "_symbolic_blocks"),
    "symfunc.kostka_tables": ("symfunc", "kostka_tables"),
    "symfunc.hl_monomial_table": ("symfunc", "hl_monomial_table"),
    "symfunc.schur_monomial_table": ("symfunc", "schur_monomial_table"),
    "symfunc._chain_sum": ("symfunc", "_chain_sum"),
    "symfunc._chain_count": ("symfunc", "_chain_count"),
    "qboson_model.c_tilde_matrix": ("qboson_model", "c_tilde_matrix"),
}

Span = Tuple[str, float, float, int]


class Recorder:
    """Collects spans of one pass; `wrap` makes the timing wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        mode_at = _mode_position(fn)

        def wrapper(*args, **kwargs):
            label = name
            if mode_at is not None:
                pos, default = mode_at
                mode = kwargs.get("mode",
                                  args[pos] if len(args) > pos else default)
                label = f"{name}.{mode}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (label, start, perf_counter(), parent)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def _mode_position(fn):
    """(index, default) of a `mode` parameter; such spans are named per mode."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == "mode":
            return i, p.default
    return None


def _module(layer: str):
    return importlib.import_module(f"qtau.{layer}")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def install(rec: Recorder) -> List[tuple]:
    """Wrap every layer's public functions; return the patches to undo."""
    wrapped: Dict[int, tuple] = {}
    for layer in LAYERS:
        mod = _module(layer)
        for attr, obj in vars(mod).items():
            private = PRIVATE.get((layer, attr))
            if attr.startswith("_") and private is None:
                continue
            if _is_function(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, rec.wrap(obj, private
                                                  or f"{layer}.{attr}"))
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "qtau" and not modname.startswith("qtau."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, obj))
    for (layer, cls_name), table in METHODS.items():
        cls = getattr(_module(layer), cls_name)
        for meth, short in table.items():
            orig = cls.__dict__[meth]
            setattr(cls, meth, rec.wrap(orig, f"{layer}.{cls_name}.{short}"))
            patches.append((cls, meth, orig))
    return patches


def uninstall(patches: List[tuple]) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def cache_snapshot() -> Dict[str, Tuple[int, int, int]]:
    """(hits, misses, currsize) of every memoised function in CACHES."""
    out = {}
    for name, (layer, attr) in CACHES.items():
        info = getattr(_module(layer), attr).cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def cache_stats(before, after) -> Dict[str, Dict[str, float]]:
    out = {}
    for name, (hits, misses, currsize) in after.items():
        d_hits = hits - before[name][0]
        d_misses = misses - before[name][1]
        calls = d_hits + d_misses
        out[name] = {"hit_rate": d_hits / calls if calls else 0.0,
                     "currsize": currsize, "calls": calls}
    return out


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls and self time per span name, plus self time per layer module."""
    calls: Counter = Counter()
    own: Dict[str, float] = defaultdict(float)
    for (name, *_), st in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += st
        own[name.split(".", 1)[0]] += st
    return {"calls": dict(calls), "self_s": dict(own)}
