"""Benchmark of the torus-cables library and CLI.

Run from the root of a checkout (nothing to build: the library is imported
from ``src/``)::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``census``, ``wide``,
``mountain`` and ``cli``.  Each run is one closed loop with one caller in a
fresh child interpreter.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` (op latencies in the child, only
the op timed), ``peak_rss_mb`` (largest process the run started, from
``getrusage``) and ``setup_s`` (median time from starting a fresh child to
its first op being ready to issue: interpreter plus the workload's imports).
Every time among them is given at one nominal host speed: it is scaled by a
fixed reference loop timed next to it, because the shared host's own speed
drifts by up to 1.5x for longer than a run (see ``hostspeed.py``; the
report line keeps the raw throughput and the reference's median time).
With ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it, ``{"report": ...}``, gives every metric's sample count, the
failed-op share and the input properties (seed, widths, answer sizes,
repeated-input share).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


def child_cmd(args, *extra) -> list:
    return [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def start_child(cmd: list, env: dict):
    """Start a child and wait for its ``ready`` line; returns (proc, set-up s)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not start: {line!r}")
    return proc, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "torus_cables", "__init__.py")):
        print("run.py: no src/torus_cables here; run it from the root of a torus-cables checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)

    try:
        # The first start compiles bytecode; it is not a set-up sample.
        # Each start is scaled to the nominal host speed, like the op times.
        setup = []
        speed = HostSpeed()
        for i in range(SETUP_PROBES + 1):
            speed.sample()
            proc, elapsed = start_child(child_cmd(args, "--ready-only"), env)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
            if i:
                setup.append((elapsed, speed.window))
        speed.sample()
        proc, elapsed = start_child(child_cmd(args), env)
        setup.append((elapsed, speed.window))
        speed.sample()
        scales = speed.scales()
        setup = [elapsed * scales[w] for elapsed, w in setup]
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: workload child exited {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(out.strip().splitlines()[-1])

    metrics = doc["metrics"]
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["peak_rss_mb"] = [rss_mb, "MB", 1]
        metrics["setup_s"] = [statistics.median(setup), "s", len(setup)]
    attempted, failed = doc["attempted"], doc["failed"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": failed / attempted,
        "samples": {name: m[2] for name, m in metrics.items()},
        "inputs": doc["inputs"],
    }
    if "spans" in doc:
        report["spans"] = doc["spans"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
