"""Self-tests of the benchmark: a wrong result is counted as failed, and
every metric named in BENCHMARK.json is emitted with its unit and sample
count.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_briefly(name, funcs=None, seconds=0.3, traced=False):
    wl = workloads.WORKLOADS[name](7)
    caller = child.make_caller(wl, traced)
    caller.funcs.update(funcs or {})
    return child.run_loop(wl, caller, seconds), caller


def wrong_neighbors(u):
    from torus_cables.farey import neighbors

    upper, lower = neighbors(u)
    return lower, upper


def wrong_bypass(state, side):
    return state.ruling


def wrong_quotient(cls):
    from torus_cables.transverse import quotient_transverse

    tcls = quotient_transverse(cls)
    top = tcls.branches[0]
    return replace(tcls, branches=(replace(top, sl_top=top.sl_top + 2),) + tcls.branches[1:])


def wrong_mountain(cls, tb_floor):
    from torus_cables.legendrian import mountain_range

    mr = mountain_range(cls, tb_floor)
    counts = {pt: c + 1 for pt, c in mr.counts.items()}
    return replace(mr, counts=counts)


def never_raises(cable):
    from torus_cables import CableSpec, TorusKnotSpec, classify

    return classify(CableSpec(TorusKnotSpec(2, 5), 7, 5))


def wrong_cli(argv):
    code, out, err = workloads.run_cli(argv)
    return code, out + "extra\n", err


@pytest.mark.parametrize("workload,name,func", [
    ("census", "farey.neighbors", wrong_neighbors),
    ("census", "bypass.attach_bypass", wrong_bypass),
    ("census", "transverse.quotient_transverse", wrong_quotient),
    ("mountain", "legendrian.mountain_range", wrong_mountain),
    ("cli", "cli.farey", wrong_cli),
])
def test_wrong_result_counts_as_failed(workload, name, func):
    seconds = 1.5 if workload == "cli" else 0.3
    res, _ = run_briefly(workload, {name: func}, seconds)
    assert res.failed > 0
    assert res.failed_by_fn[name] > 0
    assert res.failed <= res.ops


def test_invalid_input_that_does_not_raise_counts_as_failed():
    res, _ = run_briefly("census", {"legendrian.classify": never_raises}, 0.5)
    assert res.invalid > 0
    assert res.failed_by_fn["legendrian.classify"] >= res.invalid


@pytest.mark.parametrize("workload", ["census", "wide", "mountain"])
def test_correct_library_gives_no_failures(workload):
    res, _ = run_briefly(workload, seconds=0.5)
    assert res.ops > 0
    assert res.failed == 0, res.failures


def test_op_times_are_scaled_by_the_nearby_host_speed():
    # Two host states: the reference runs at nominal speed, then twice as slow.
    res = child.Loop()
    nominal = hostspeed.NOMINAL_S
    res.speed.samples = [nominal] * 8 + [2 * nominal] * 8
    res.latencies.extend([1e-3, 2e-3])
    res.windows.extend([1, 14])
    assert res.scaled() == pytest.approx([1e-3, 1e-3])
    # One stray sample does not move a window's speed.
    res.speed.samples[1] = 10 * nominal
    assert res.scaled() == pytest.approx([1e-3, 1e-3])


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _names("end_to_end")
    assert all(isinstance(report["samples"][name], int) and report["samples"][name] >= 1 for name in units)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_emits_every_per_layer_metric(workload, monkeypatch, tmp_path, capsys):
    # Small stand-ins for the ROADMAP probes; the metric names stay the same.
    monkeypatch.setattr(child, "CLASSIFY_PROBE", child.CLASSIFY_PROBE[:1] + ((2, 5), (7, 5)))
    monkeypatch.setattr(child, "MOUNTAIN_PROBE", child.MOUNTAIN_PROBE[:1] + ((2, 5), (7, 5), 3))
    monkeypatch.setattr(child, "SPANS_DIR", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.chdir(ROOT)
    seconds = "2" if workload == "cli" else "0.4"
    assert child.main(["--workload", workload, "--seed", "5", "--seconds", seconds, "--trace", "1"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["failed"] == 0, doc["inputs"]["failures"]
    units = {name: m[1] for name, m in doc["metrics"].items()}
    assert units == _names("per_layer")
    assert all(isinstance(m[2], int) for m in doc["metrics"].values())
    assert os.path.exists(doc["spans"])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
