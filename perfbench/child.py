"""One workload run in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src/``.  It imports what the workload needs, prints ``ready`` (the parent
times set-up up to that line), runs the closed loop and prints one JSON
line: the metrics, each with its unit and sample count, the op counts and
the input properties.  With ``--ready-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

import tracing
import workloads
from hostspeed import NOMINAL_S, HostSpeed

MODULES = ("torus_cables", "farey", "bypass", "torus_knots", "legendrian", "transverse", "cli")
SUBPROCESS_PROBES = 5
FAILURES_KEPT = 5
SPANS_DIR = ".perfbench_out"
# Op time between two host-speed samples (see hostspeed.py).
SPEED_EVERY_S = 0.1

# ROADMAP rows that the repeated runs cannot afford, run once per traced run:
# (metric prefix, (p, q), (r, s)[, depth]).
CLASSIFY_PROBE = ("probe.classify_T301_303_r7_s3", (301, 303), (7, 3))
MOUNTAIN_PROBE = ("probe.mountain_T11_13_r101_s97_d20", (11, 13), (101, 97), 20)


class Table(dict):
    """Name -> library callable, resolved on first use so that a workload
    imports only the layers it calls."""

    def __missing__(self, name):
        layer, fn = name.split(".")
        func = getattr(importlib.import_module(f"torus_cables.{layer}"), fn)
        self[name] = func
        return func


def make_caller(wl, traced: bool) -> tracing.Caller:
    table = Table()
    if hasattr(wl, "functions"):
        table.update(wl.functions())
    return tracing.Caller(table, traced)


class Loop:
    """Result of one closed loop: latencies, failures and input properties.

    Latencies go into a flat array of doubles, so that the benchmark's own
    bookkeeping hardly moves the peak RSS it reports.
    """

    def __init__(self):
        self.latencies = array("d")
        self.windows = array("l")  # host-speed window of each op
        self.speed = HostSpeed()
        self.failed = 0
        self.failed_by_fn = Counter()
        self.failures = []
        self.repeated = 0
        self.invalid = 0
        self.widths = None  # (min, max)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list:
        """Op latencies at the nominal host speed."""
        scales = self.speed.scales()
        return [t * scales[w] for t, w in zip(self.latencies, self.windows)]

    def props(self, caller) -> dict:
        return {
            "ops": self.ops,
            "raw_ops_per_s": self.ops / self.busy_s,
            "host_reference_ms": statistics.median(self.speed.samples) * 1e3,
            "answer_size_per_op": {k: v / self.ops for k, v in caller.counters.items()},
            "repeated_input_share": self.repeated / self.ops,
            "invalid_input_share": self.invalid / self.ops,
            "width_range": self.widths,
            "failures": self.failures,
        }


def run_loop(wl, caller, seconds: float) -> Loop:
    """Issue ops back to back until they have taken ``seconds`` in total at
    the nominal host speed, and on to the end of the workload's ``cycle`` of
    input strata, if any.  So a run holds the same mix of inputs whether the
    host is fast or slow.

    Only the op is timed; its check runs after the clock stops.  The
    host-speed reference is timed before the first op and after every
    ``SPEED_EVERY_S`` of op time.
    """
    res = Loop()
    seen = set()
    busy = since_speed = 0.0
    stream = wl.stream()
    res.speed.sample()
    cycle = getattr(wl, "cycle", 1)
    while busy < seconds or res.ops % cycle:
        if since_speed >= SPEED_EVERY_S:
            res.speed.sample()
            since_speed = 0.0
        inp = next(stream)
        caller.op_id += 1
        caller.raised = None
        start = perf_counter()
        with caller.root(tracing.OP):
            try:
                out, exc = wl.op(caller, inp), None
            except Exception as e:  # charged to the op below unless expected
                out, exc = None, e
        elapsed = perf_counter() - start
        busy += elapsed * NOMINAL_S / res.speed.samples[-1]
        since_speed += elapsed
        res.latencies.append(elapsed)
        res.windows.append(res.speed.window)
        expected_error = wl.invalid(inp)
        res.invalid += expected_error
        if exc is not None:
            rejected = isinstance(exc, ValueError) and caller.raised == wl.rejected_by
            if expected_error and rejected:
                bad = []
            else:
                bad = [wl.rejected_by if expected_error else caller.raised or "op"]
        else:
            with caller.root(tracing.CHECK):
                bad = wl.check(caller, inp, out)
        if bad:
            res.failed += 1
            res.failed_by_fn.update(bad)
            if len(res.failures) < FAILURES_KEPT:
                res.failures.append(f"{bad} on {inp!r}: {exc!r}")
        key = wl.key(inp)
        res.repeated += key in seen
        seen.add(key)
        width = wl.width(inp)
        if width is not None:
            lo, hi = res.widths or (width, width)
            res.widths = (min(lo, width), max(hi, width))
    return res


def percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(res: Loop) -> dict:
    """Metrics of an untraced loop, at the nominal host speed:
    name -> [value, unit, samples]."""
    n = res.ops
    scaled = res.scaled()
    return {
        "ops_per_s": [n / sum(scaled), "1/s", n],
        "op_p50_ms": [percentile(scaled, 50) * 1e3, "ms", n],
        "op_p90_ms": [percentile(scaled, 90) * 1e3, "ms", n],
    }


def _timed_runs(cmd: list) -> list:
    out = []
    for _ in range(SUBPROCESS_PROBES):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        out.append((perf_counter() - start, proc))
    return out


IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")


def import_probes() -> dict:
    """Per-module cumulative import time of ``import torus_cables.cli`` and
    the bare interpreter start, each the median of a few fresh processes."""
    metrics = {}
    runs = _timed_runs([sys.executable, "-c", "pass"])
    metrics["cli.interpreter_ms"] = [statistics.median(t for t, _ in runs) * 1e3, "ms", len(runs)]
    runs = _timed_runs([sys.executable, "-X", "importtime", "-c", "import torus_cables.cli"])
    per_module = {m: [] for m in MODULES}
    for _, proc in runs:
        found = dict((name, int(us)) for us, name in IMPORTTIME.findall(proc.stderr))
        for m in MODULES:
            full = m if m == "torus_cables" else f"torus_cables.{m}"
            per_module[m].append(found.get(full, 0) / 1e3)  # 0: not imported
    for m, values in per_module.items():
        metrics[f"import.{m}_ms"] = [statistics.median(values), "ms", len(values)]
    return metrics


def roadmap_probes() -> dict:
    from torus_cables import CableSpec, TorusKnotSpec, classify, mountain_range

    name, pq, rs = CLASSIFY_PROBE
    start = perf_counter()
    cls = classify(CableSpec(TorusKnotSpec(*pq), *rs))
    elapsed = perf_counter() - start
    metrics = {
        f"{name}.ms": [elapsed * 1e3, "ms", 1],
        f"{name}.generators": [len(cls.generators), "count", 1],
    }
    name, pq, rs, depth = MOUNTAIN_PROBE
    cls = classify(CableSpec(TorusKnotSpec(*pq), *rs))
    start = perf_counter()
    mr = mountain_range(cls, cls.tb_max - depth)
    elapsed = perf_counter() - start
    metrics[f"{name}.ms"] = [elapsed * 1e3, "ms", 1]
    metrics[f"{name}.cells"] = [len(mr.counts), "count", 1]
    return metrics


def per_layer(traced: Loop, caller, untraced: Loop) -> dict:
    """Metrics of a traced loop, by function and layer."""
    summary = tracing.summarize(caller.spans)
    fstats = summary["functions"]
    metrics = {}
    for name in tracing.FUNCTION_NAMES:
        st = fstats.get(name, {"calls": 0, "self_s": 0.0, "p50_s": 0.0})
        n = st["calls"]
        metrics[f"{name}.calls"] = [n, "count", n]
        metrics[f"{name}.self_ms"] = [st["self_s"] * 1e3, "ms", n]
        metrics[f"{name}.p50_us"] = [st["p50_s"] * 1e6, "us", n]
        metrics[f"{name}.failed"] = [traced.failed_by_fn[name], "count", n]
    for sub in workloads.SUBCOMMANDS:
        st = fstats.get(f"cli.{sub}", {"calls": 0, "p50_s": 0.0})
        metrics[f"cli.{sub}.p50_ms"] = [st["p50_s"] * 1e3, "ms", st["calls"]]
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}.self_ms"] = [summary["layer_self_s"][layer] * 1e3, "ms", traced.ops]
    # Answer sizes per call, so that they do not scale with throughput.
    calls = {name: fstats.get(name, {"calls": 0})["calls"] for name in ("legendrian.classify", "legendrian.mountain_range")}
    gens = caller.counters["legendrian.classify.generators"]
    cells = caller.counters["legendrian.mountain_range.cells"]
    mr_self_s = fstats.get("legendrian.mountain_range", {"self_s": 0.0})["self_s"]
    n_cls, n_mr = calls["legendrian.classify"], calls["legendrian.mountain_range"]
    metrics["legendrian.classify.generators"] = [gens / n_cls if n_cls else 0.0, "count", n_cls]
    metrics["legendrian.mountain_range.cells"] = [cells / n_mr if n_mr else 0.0, "count", n_mr]
    metrics["legendrian.mountain_range.us_per_cell"] = [mr_self_s * 1e6 / cells if cells else 0.0, "us", n_mr]
    layer_total = sum(summary["layer_self_s"].values())
    metrics["trace.layer_share"] = [layer_total / summary["op_s"], "ratio", traced.ops]
    metrics["trace.overhead_ratio"] = [
        (traced.ops / traced.busy_s) / (untraced.ops / untraced.busy_s), "ratio", traced.ops + untraced.ops]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    for module in cls.imports:
        importlib.import_module(module)
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(sys.modules["torus_cables"].__file__).startswith(src):
        print(f"torus_cables was not imported from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.ready_only:
        return 0

    if not args.trace:
        wl = cls(args.seed)
        caller = make_caller(wl, False)
        res = run_loop(wl, caller, args.seconds)
        doc = {"metrics": end_to_end(res), "attempted": res.ops, "failed": res.failed, "inputs": res.props(caller)}
    else:
        # Half the time untraced, then the same input stream traced, so the
        # two throughputs give the tracing overhead.
        wl = cls(args.seed)
        untraced = run_loop(wl, make_caller(wl, False), args.seconds / 2)
        wl = cls(args.seed)
        caller = make_caller(wl, True)
        traced = run_loop(wl, caller, args.seconds / 2)
        metrics = per_layer(traced, caller, untraced)
        metrics.update(import_probes())
        metrics.update(roadmap_probes())
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        caller.write(spans)
        doc = {
            "metrics": metrics,
            "attempted": untraced.ops + traced.ops,
            "failed": untraced.failed + traced.failed,
            "inputs": traced.props(caller),
            "spans": spans,
        }
    doc["inputs"]["seed"] = args.seed
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
