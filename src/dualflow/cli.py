"""Command-line entry points.

Subcommands: ``gen-data``, ``train``, ``score``, ``eval``, ``selftest``.
stdout carries machine-parseable output only (TSV for training logs, JSON for
reports, bare values for scores); everything diagnostic goes to stderr.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data, metrics, pipeline, scoring
from .checkpoint import load_checkpoint, save_checkpoint
from .config import apply_overrides, default_run_config, load_run_config, render_run_config
from .errors import ContractError, ShapeError
from .selftest import run_selftest


def _load_config(args):
    rc = load_run_config(args.config) if args.config else default_run_config()
    return apply_overrides(rc, args.set or [])


def cmd_gen_data(args) -> int:
    spec = data.DatasetSpec(
        texture=args.texture, image_size=args.size, n_train=args.n_train,
        n_test_normal=args.n_test_normal, n_test_anomalous=args.n_test_anomalous,
        anomaly_kinds=tuple(args.kinds.split(",")), seed=args.seed)
    manifest = data.generate(spec, args.out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    if args.stage == "flow" and args.config:
        raise ContractError("--stage flow keeps the config of the checkpoint at --out; "
                            "pass train.* and scoring.* changes with --set, not --config")
    rc = _load_config(args)
    samples = data.load(args.data)
    images = [s.image for s in data.train_split(samples)]

    def log(stage, epoch, *losses):
        print("\t".join([stage, str(epoch)] + [repr(v) for v in losses]))

    if args.stage == "flow":
        # Resume from the checkpoint written by the transformer stage; its
        # embedded config defines the architecture, so only non-structural
        # overrides are permitted here.
        for pair in args.set or []:
            key = pair.split("=", 1)[0].strip()
            if not key.startswith(("train.", "scoring.")):
                raise ContractError(
                    f"--stage flow resumes an existing checkpoint; only train.* "
                    f"and scoring.* overrides apply, got {key!r}")
        model, rc = load_checkpoint(args.out)
        rc = apply_overrides(rc, args.set or [])
        pipeline.train_flow(model, images, rc.train, log=log)
    elif args.stage == "transformer":
        model = pipeline.build_model(rc)
        pipeline.train_transformer(model, images, rc.train, log=log)
    else:
        model = pipeline.train(images, rc, log=log)
    save_checkpoint(model, rc, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    model, rc = load_checkpoint(args.ckpt)
    image = data.read_ppm(args.image)
    expected = rc.encoder.in_size
    if image.shape[0] != expected or image.shape[1] != expected:
        raise ShapeError(f"checkpoint expects {expected}x{expected} images, "
                         f"got {image.shape[1]}x{image.shape[0]}")
    amap = scoring.anomaly_map(model, image, mode=args.mode or rc.scoring.mode,
                               smooth_sigma=rc.scoring.smooth_sigma,
                               fuse_weight=rc.scoring.fuse_weight)
    if args.heatmap:
        lo = float(amap.scores.min())
        hi = float(amap.scores.max())
        span = hi - lo if hi > lo else 1.0
        scaled = np.round((amap.scores - lo) / span * 65535.0).astype(np.uint16)
        data.write_pgm16(args.heatmap, scaled, comment=f"raw range [{lo!r}, {hi!r}]")
    print(repr(amap.image_score))
    return 0


def cmd_eval(args) -> int:
    model, rc = load_checkpoint(args.ckpt)
    samples = data.load(args.data)
    report = metrics.evaluate(
        model, data.test_split(samples), mode=args.mode or rc.scoring.mode,
        smooth_sigma=rc.scoring.smooth_sigma, fuse_weight=rc.scoring.fuse_weight,
        fpr_limit=rc.scoring.fpr_limit)
    text = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_selftest(_args) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualflow",
        description="Desk-scale visual anomaly detection: frozen multi-scale "
                    "features, dual-attention reconstruction, per-scale "
                    "discriminative normalizing flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    spec = data.DatasetSpec()
    p = sub.add_parser("gen-data", help="generate a synthetic defect dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--texture", default=spec.texture, choices=data.TEXTURES)
    p.add_argument("--size", type=int, default=spec.image_size)
    p.add_argument("--n-train", type=int, default=spec.n_train)
    p.add_argument("--n-test-normal", type=int, default=spec.n_test_normal)
    p.add_argument("--n-test-anomalous", type=int, default=spec.n_test_anomalous)
    p.add_argument("--kinds", default=",".join(spec.anomaly_kinds),
                   help="comma-separated subset of patch,scratch,swap")
    p.add_argument("--seed", type=int, default=spec.seed)
    p.set_defaults(fn=cmd_gen_data)

    epilog = ("default config:\n\n" +
              render_run_config(default_run_config()))
    p = sub.add_parser("train", help="train on a generated dataset",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=epilog)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", help="run-config file (defaults used if absent)")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override one config value (repeatable)")
    p.add_argument("--stage", default="all", choices=("transformer", "flow", "all"),
                   help="flow stage resumes from the checkpoint at --out, with its "
                        "config (no --config; --set train.* and scoring.* only)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("score", help="score one PPM image against a checkpoint")
    p.add_argument("--image", required=True, help="input PPM (P6)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mode", choices=scoring.MODES,
                   help="override the checkpoint's scoring mode")
    p.add_argument("--heatmap", help="write 16-bit PGM anomaly heatmap here")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset's test split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mode", choices=scoring.MODES,
                   help="override the checkpoint's scoring mode")
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
