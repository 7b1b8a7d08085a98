"""Span tracing at the public functions of each lrpoly layer.

Only the traced run imports this module; untraced runs wrap nothing.
`install` replaces every module binding of a traced function with a
wrapper, because `from .x import y` copies the function into the
importing module.  Spans are kept in memory as (name, start_ns, end_ns,
parent) and are recorded only while `Tracer.active` is true, so the
benchmark's own generation and checking never produce spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The public entry points of each layer, as named in the per-layer metrics.
LAYER_FUNCTIONS = {
    "exactla": ("rref", "solve_nonneg_combination", "interpolate_univariate",
                "fit_poly"),
    "typea": ("build",),
    "kostant": ("kostant_count", "kostant_chambers"),
    "steinberg": ("steinberg_sum", "is_generic"),
    "hive": ("hive_count", "build_system", "count_via_system"),
    "tableaux": ("lr_rule_count",),
    "stretch": ("stretch_poly", "count_by"),
    "lr3": ("load_k3", "membership", "verify_cone"),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
               for fn in fns)
SUBCOMMANDS = ("lr", "stretch", "kostant", "chambers", "matrix", "generic",
               "ktt")


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.spans = []        # [name_id, start_ns, end_ns, parent_index]
        self._stack = []
        self.results = {}      # name -> extracted return values, for counts

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), time.perf_counter_ns(), 0,
                           parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, extract=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if extract is not None:
                self.results.setdefault(name, []).append(extract(result))
            return result

        return traced

    def adopt(self, spans, names, results, parent: int) -> None:
        """Append spans recorded by another process under one parent span.

        CLOCK_MONOTONIC is shared by all processes on the host, so the
        child's timestamps nest inside the parent's span unchanged.
        """
        base = len(self.spans)
        for nid, start, end, par in spans:
            self.spans.append([self.name_id(names[nid]), start, end,
                               parent if par < 0 else base + par])
        for name, values in results.items():
            self.results.setdefault(name, []).extend(values)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "results": self.results, **extra}, fh)


# What to keep of each return value, for the per-layer counts.
_EXTRACT = {
    "hive.hive_count": int,
    "hive.build_system": lambda system: system.k,
    "lr3.membership": bool,
}


def _cli_span_name(args) -> str:
    for a in (args[0] if args and args[0] else ()):
        if a in SUBCOMMANDS:
            return f"cli.{a}"
    return "cli.other"


def install(tracer: Tracer) -> None:
    """Wrap each traced function at every lrpoly module binding of it."""
    import lrpoly.cli  # noqa: F401  (loads every layer module)

    modules = [m for n, m in sys.modules.items()
               if n == "lrpoly" or n.startswith("lrpoly.")]
    originals = {}
    for qual in TRACED:
        layer, fn = qual.split(".")
        obj = getattr(sys.modules[f"lrpoly.{layer}"], fn, None)
        if obj is None:  # removed from the program: its metrics read 0
            continue
        originals[id(obj)] = (obj, tracer.wrap(qual, obj,
                                               extract=_EXTRACT.get(qual)))
    run = lrpoly.cli.run
    originals[id(run)] = (run, tracer.wrap("cli", run,
                                           name_of=_cli_span_name))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def memo_info():
    """(hits, misses, entries) of the Kostant memo, or None without one."""
    from lrpoly import kostant

    count_from = getattr(kostant, "_count_from", None)
    info = getattr(count_from, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses, ci.currsize


def summarize(tracer: Tracer) -> dict:
    """Calls, busy time and self time per span name, in nanoseconds.

    Busy time counts a span only when no ancestor has the same name, so
    recursion is not double counted.  Self time is the span's duration
    minus the durations of its direct children, which must lie inside it;
    then the self times of all spans add up to the root spans' time.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {tracer.names[nid]} escapes its "
                                 "parent; self times would not add up")
            child_ns[parent] += end - start
    out = {}
    root_ns = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = tracer.names[nid]
        row = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        dur = end - start
        row["calls"] += 1
        row["self_ns"] += dur - child_ns[i]
        if parent < 0:
            root_ns += dur
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            row["busy_ns"] += dur
    return {"functions": out, "root_ns": root_ns, "spans": len(spans)}
