"""The scripts run end to end, each started as its own process. The
experiment script runs on a fresh work directory, with training cut to zero
epochs so that only the wiring (data generation, fitting, evaluation,
reports) is exercised. A rename in the package then fails here rather than
in a long experiment run. It runs once per module; each test reads its own
cells. The fingerprint script runs its small case once."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualflow
from dualflow.flow import FLOW_VARIANTS
from dualflow.scoring import MODES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ZERO_EPOCHS = ["--set", "train.stage1_epochs=0", "--set", "train.stage2_epochs=0"]


def run_script(name, *args):
    src = str(Path(dualflow.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("desk")
    out = run_script("run_desk_benchmark.py", "--workdir", str(workdir), *ZERO_EPOCHS)
    return workdir, json.loads(out)


def test_desk_benchmark_script(desk_run):
    workdir, summary = desk_run
    assert set(summary) == {"train_seconds", "cells"}
    # every scoring mode of the default variant D, then likelihood for the others
    want = list(MODES) + [f"likelihood_{v}" for v in FLOW_VARIANTS if v != "D"]
    assert len(want) == 8 and list(summary["cells"]) == want
    assert sorted(p.name for p in workdir.glob("report_*.json")) == \
        sorted(f"report_{cell}.json" for cell in want)
    assert (workdir / "model.ckpt").is_file()


def test_ablations_script(desk_run):
    # the ablation cells: three reconstruction modes and the likelihood of
    # every flow variant (D's is the plain "likelihood" cell)
    workdir, summary = desk_run
    want = ["recon_self", "recon_mem", "recon_fused"]
    want += ["likelihood" if v == "D" else f"likelihood_{v}" for v in FLOW_VARIANTS]
    assert len(want) == 3 + len(FLOW_VARIANTS) and set(want) <= set(summary["cells"])
    for cell in want:
        assert json.loads((workdir / f"report_{cell}.json").read_text()) == \
            summary["cells"][cell]


def test_fingerprint_script_prints_one_line_of_digests():
    out = run_script("fingerprint.py")
    digests = json.loads(out)
    assert out.count("\n") == 1
    assert list(digests) == ["log", "arrays", "echo", "maps", "image_scores", "report"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
