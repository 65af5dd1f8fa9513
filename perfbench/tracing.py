"""Calls into the library by name, with optional spans around each call.

The benchmark never traces inside ``src/``: every span is opened here, in
the benchmark's own code, around a call to one public function of one
layer.  A span is ``(name, start, end, parent, op_id)``; spans live in a
list in memory and are summarized (and optionally written out) when the
run ends.
"""

from __future__ import annotations

import gzip
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# The public functions the workloads call, by layer.  Each one is reported
# as ``<layer>.<function>.{calls,self_ms,p50_us,failed}`` in a traced run.
FUNCTIONS = {
    "farey": ("neighbors", "cf_expand", "normalize", "neighbors_oracle"),
    "bypass": ("attach_bypass", "attach_bypass_oracle"),
    "torus_knots": ("locate", "influence_interval", "tori_census"),
    "legendrian": ("classify", "classes_at", "mountain_range"),
    "transverse": ("quotient_transverse", "classify_transverse", "verify_qualitative"),
    "cli": ("render_mountain",),
}
LAYERS = tuple(FUNCTIONS)
FUNCTION_NAMES = tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns)

OP = "op"
CHECK = "check"


class Caller:
    """Dispatches ``call(name, *args)`` to ``funcs[name]``.

    With ``traced`` set, each call, and each ``root`` block around it,
    appends a span.  ``raised`` names the last call that raised, so a
    failure can be charged to the function that produced it; ``counters``
    holds the answer sizes the workloads add up.
    """

    def __init__(self, funcs: dict, traced: bool = False):
        self.funcs = funcs
        self.traced = traced
        self.counters = Counter()
        self.spans = []
        self.op_id = 0
        self.raised = None
        self._stack = []

    def call(self, name: str, *args):
        if not self.traced:
            try:
                return self.funcs[name](*args)
            except Exception:
                self.raised = name
                raise
        idx = self._open()
        start = perf_counter()
        try:
            return self.funcs[name](*args)
        except Exception:
            self.raised = name
            raise
        finally:
            self._close(idx, name, start)

    @contextmanager
    def root(self, name: str):
        """A span around one op or one check; the calls inside are its children."""
        if not self.traced:
            yield
            return
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        self.spans.append(None)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op_id)

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines, times in microseconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_us\tend_us\tparent\top_id\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\t{op_id}\n")


def summarize(spans: list) -> dict:
    """Per-name call counts, self times and median durations.

    A span's self time is its duration minus the durations of its children.
    ``layer_self_s`` sums the self time of the calls made inside op spans,
    by layer (the part of the op time each layer accounts for);
    ``op_s`` is the total duration of the op spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_name = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        if name == OP:
            op_s += dur
            continue
        if name == CHECK:
            continue
        rec = per_name.setdefault(name, {"durations": [], "self_s": 0.0})
        rec["durations"].append(dur)
        rec["self_s"] += self_s
        if parent >= 0 and spans[parent][0] == OP:
            layer_self[name.split(".")[0]] += self_s
    stats = {
        name: {
            "calls": len(rec["durations"]),
            "self_s": rec["self_s"],
            "p50_s": statistics.median(rec["durations"]),
        }
        for name, rec in per_name.items()
    }
    return {"functions": stats, "layer_self_s": layer_self, "op_s": op_s}
