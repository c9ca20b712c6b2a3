"""Self-test of the benchmark harness (``pytest benchmarks/perf -q``).

Not collected by tier-1 (``testpaths = ["tests"]``). Runs every
workload at ``--smoke`` size through the real command line and holds
the output to the contract in BENCHMARK.json.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


def run_benchmark(*extra):
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "3", "--seconds", "6",
         *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.strip().splitlines()


def check_result_line(line, declared):
    result = json.loads(line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    return result


@pytest.mark.parametrize("workload",
                         [w["name"] for w in MANIFEST["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    out = tmp_path / "result.json"
    lines = run_benchmark("--workload", workload, "--trace", "0",
                          "--out", str(out))
    result = check_result_line(lines[-1], MANIFEST["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every metric is also printed by name with its unit.
    for metric in MANIFEST["end_to_end"]:
        assert sum(1 for line in lines
                   if line.split()[:1] == [metric["name"]]) == 1
    run, = json.loads(out.read_text())["runs"]
    assert re.fullmatch(r"[0-9a-f]{64}", run["sim_fingerprint"])
    assert run["passes"] >= 1 and run["ops_failed_frac"] == 0
    assert {"python", "nproc", "loadavg_1m_start",
            "loadavg_1m_end"} <= set(run["host"])


def test_traced_run_emits_every_per_layer_metric_and_nested_spans(tmp_path):
    trace = tmp_path / "trace.json"
    out = tmp_path / "result.json"
    lines = run_benchmark("--workload", "guest_exits", "--trace", "1",
                          "--trace-out", str(trace), "--out", str(out))
    check_result_line(lines[-1], MANIFEST["per_layer"])
    spans = json.loads(trace.read_text())["spans"]
    assert spans
    for span in spans:
        assert span["end_s"] >= span["start_s"]
        assert span["self_s"] >= -1e-9
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_s"] <= span["start_s"]
            assert span["end_s"] <= parent["end_s"]
            assert parent["op"] == span["op"]
    # A result compared with itself: nothing worse, nothing different.
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         "--base", str(out), "--new", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout


def test_manifest_lists_the_names_the_harness_derives():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import layers
    finally:
        del sys.path[:2]
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == list(layers.PER_LAYER)
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert len(MANIFEST["per_layer"]) <= 128


def test_refuses_to_run_outside_a_checkout(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and the
    # benchmark's own directory exist: it must fail without a result.
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "guest_compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
