#!/usr/bin/env python3
"""Print sha256 digests of everything a seeded run produces, as one JSON line.

Generates a dataset, trains a model with the default run config, saves its
checkpoint, scores every test image in every scoring mode and evaluates the
likelihood mode. The digests cover:

    log           the training log rows, floats written with ``repr``
    arrays        the checkpoint's bytes before the config echo (header and
                  every named array)
    echo          the checkpoint's config echo
    maps          every mode's fused and per-scale maps, image by image
    image_scores  every mode's image scores, written with ``repr``
    report        the likelihood mode's ``EvalReport.to_json()``

Two trees that should compute the same bits print the same line. By default
the run is small: ``DatasetSpec(seed=3, n_train=16, n_test_normal=4,
n_test_anomalous=6)`` at 2+1 epochs. ``--full`` runs the default dataset and
config (50+30 epochs). Set ``OPENBLAS_NUM_THREADS=1`` when comparing trees.

Usage:
    python3 scripts/fingerprint.py [--full]
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dualflow import (MODES, DatasetSpec, anomaly_map, apply_overrides,
                      default_run_config, evaluate, generate, load,
                      save_checkpoint, test_split, train, train_split)

SMALL_SPEC = DatasetSpec(seed=3, n_train=16, n_test_normal=4, n_test_anomalous=6)
SMALL_EPOCHS = ["train.stage1_epochs=2", "train.stage2_epochs=1"]


def split_checkpoint(blob: bytes) -> tuple:
    """(bytes before the echo's u32 length, echo bytes). The echo is the
    file's tail and starts with its first section, ``[encoder]``."""
    start = blob.rindex(b"[encoder]\n")
    if int.from_bytes(blob[start - 4:start], "little") != len(blob) - start:
        raise ValueError("the config echo is not the checkpoint's tail")
    return blob[:start - 4], blob[start:]


def fingerprint(spec: DatasetSpec, overrides, workdir: Path) -> dict:
    generate(spec, workdir / "data")
    samples = load(workdir / "data")
    rc = apply_overrides(default_run_config(), overrides)
    log_rows = hashlib.sha256()

    def log(stage, epoch, *values):
        log_rows.update("\t".join([stage, str(epoch), *map(repr, values)]).encode() + b"\n")

    model = train([s.image for s in train_split(samples)], rc, log=log)
    save_checkpoint(model, rc, workdir / "model.ckpt")
    arrays, echo = split_checkpoint((workdir / "model.ckpt").read_bytes())
    maps, image_scores = hashlib.sha256(), hashlib.sha256()
    tests = test_split(samples)
    for mode in MODES:
        for s in tests:
            amap = anomaly_map(model, s.image, mode=mode)
            for m in (amap.scores, *amap.per_scale):
                maps.update(m.tobytes())
            image_scores.update(f"{mode}\t{s.path}\t{amap.image_score!r}\n".encode())
    report = evaluate(model, tests).to_json().encode()
    return {"log": log_rows.hexdigest(),
            "arrays": hashlib.sha256(arrays).hexdigest(),
            "echo": hashlib.sha256(echo).hexdigest(),
            "maps": maps.hexdigest(),
            "image_scores": image_scores.hexdigest(),
            "report": hashlib.sha256(report).hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="the default dataset and config instead of the small run")
    args = ap.parse_args()
    spec, overrides = (DatasetSpec(), []) if args.full else (SMALL_SPEC, SMALL_EPOCHS)
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(fingerprint(spec, overrides, Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
