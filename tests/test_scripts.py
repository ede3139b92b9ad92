"""The two experiment scripts run end to end: each is started as its own
process on a fresh work directory, with training cut to zero epochs so that
only the wiring (data generation, fitting, evaluation, reports) is
exercised. A rename in the package then fails here rather than in a long
experiment run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dualflow
from dualflow.flow import FLOW_VARIANTS
from dualflow.scoring import MODES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ZERO_EPOCHS = ["--set", "train.stage1_epochs=0", "--set", "train.stage2_epochs=0"]


def run_script(name, workdir):
    src = str(Path(dualflow.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), "--workdir", str(workdir),
                           *ZERO_EPOCHS], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def report_names(workdir):
    return sorted(p.name for p in workdir.glob("report_*.json"))


def test_desk_benchmark_script(tmp_path):
    summary = run_script("run_desk_benchmark.py", tmp_path)
    assert {"train_seconds", "image_auroc", "pixel_auroc", "au_pro", "spro"} <= set(summary)
    assert report_names(tmp_path) == sorted(f"report_{mode}.json" for mode in MODES)
    assert (tmp_path / "model.ckpt").is_file()


def test_ablations_script(tmp_path):
    cells = run_script("run_ablations.py", tmp_path)
    want = ["recon_self", "recon_mem", "recon_fused"]
    want += [f"likelihood_{variant}" for variant in FLOW_VARIANTS]
    assert sorted(cells) == sorted(want)
    assert report_names(tmp_path) == sorted(f"report_{cell}.json" for cell in want)
    for cell in want:
        assert json.loads((tmp_path / f"report_{cell}.json").read_text()) == cells[cell]
