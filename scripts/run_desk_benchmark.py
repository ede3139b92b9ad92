#!/usr/bin/env python3
"""Run the desk experiment: scoring modes and flow input variants.

Generates the dataset and fits the transformer once. Then fits the flows of
the configured variant (``flow.variant``, D by default: prior plus both
reconstruction branches), saves that model's checkpoint and evaluates it in
every scoring mode. Each other variant (P: prior features only; P-S / P-M:
prior plus one reconstruction branch) gets fresh flows on the same
transformer and is evaluated in likelihood mode. Writes one JSON report per
cell, ``report_<mode>.json`` and ``report_likelihood_<variant>.json``, prints
a summary table to stderr and ``{"train_seconds", "cells"}`` as JSON to
stdout.

Usage:
    python3 scripts/run_desk_benchmark.py --workdir runs/desk [--seed 0]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from dualflow import (DatasetSpec, default_run_config, evaluate, generate,
                      load, save_checkpoint, switch_variant, test_split, train,
                      train_split)
from dualflow.config import apply_overrides
from dualflow.flow import FLOW_VARIANTS
from dualflow.pipeline import train_flow
from dualflow.scoring import MODES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--texture", default="stripes")
    ap.add_argument("--set", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="run-config override")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rc = apply_overrides(default_run_config(), args.set)

    data_dir = workdir / "data"
    print(f"generating dataset at {data_dir} ...", file=sys.stderr)
    generate(DatasetSpec(texture=args.texture, seed=args.seed), data_dir)
    samples = load(data_dir)
    train_images = [s.image for s in train_split(samples)]
    test_samples = test_split(samples)

    def log(stage, epoch, *losses):
        print("\t".join([stage, str(epoch)] + [f"{v:.4f}" for v in losses]),
              file=sys.stderr)

    t0 = time.perf_counter()
    model = train(train_images, rc, log=log)
    train_s = time.perf_counter() - t0
    ckpt = workdir / "model.ckpt"
    save_checkpoint(model, rc, ckpt)
    print(f"trained in {train_s:.0f}s; checkpoint at {ckpt}", file=sys.stderr)

    rows = []

    def record(cell, scored, mode):
        t0 = time.perf_counter()
        report = evaluate(scored, test_samples, mode)
        (workdir / f"report_{cell}.json").write_text(report.to_json())
        rows.append((cell, report, time.perf_counter() - t0))

    for mode in MODES:
        record(mode, model, mode)
    for variant in FLOW_VARIANTS:
        if variant == rc.flow.variant:
            continue
        print(f"stage 2: flows, variant {variant} ...", file=sys.stderr)
        alt = switch_variant(model, variant)
        train_flow(alt, train_images, rc.train, log=log)
        record(f"likelihood_{variant}", alt, "likelihood")

    header = f"{'cell':<16} {'img AUROC':>9} {'pix AUROC':>9} {'AU-PRO':>7} {'sPRO':>7} {'sec':>5}"
    print(header, file=sys.stderr)
    print("-" * len(header), file=sys.stderr)
    for cell, rep, sec in rows:
        print(f"{cell:<16} {rep.image_auroc:>9.4f} {rep.pixel_auroc:>9.4f} "
              f"{rep.au_pro:>7.4f} {rep.spro:>7.4f} {sec:>5.1f}", file=sys.stderr)

    print(json.dumps({"train_seconds": round(train_s, 1),
                      "cells": {cell: rep.to_dict() for cell, rep, _ in rows}},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
