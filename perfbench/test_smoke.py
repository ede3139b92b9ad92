"""Smoke test of the benchmark harness at a tiny dataset size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced for a fraction of a second and
checks the result line against BENCHMARK.json. It measures nothing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.2",
                             "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_run_is_correct(results):
    for key, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, key
        assert res["correct"] is True and res["failed"] == 0, (key, res)
        assert res["attempted"] >= 1, key


def test_untraced_runs_report_every_end_to_end_metric(results):
    for workload in WORKLOADS:
        metrics = results[workload, 0]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END, workload
        for name, m in metrics.items():
            assert m["value"] > 0, (workload, name)


def test_traced_runs_report_every_per_layer_metric(results):
    for workload in WORKLOADS:
        metrics = results[workload, 1]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == PER_LAYER, workload
        for name, m in metrics.items():
            assert name == "trace.overhead_pct" or m["value"] > 0, (workload, name)
        assert metrics["encoder.frozen_calls_per_train_image"]["value"] == 2
        assert metrics["autodiff.tape_ops_per_image"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark's own files it must fail
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "score", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
