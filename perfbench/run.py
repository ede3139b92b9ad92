"""dualflow benchmark.

    python3 perfbench/run.py --workload {train,score} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the repository root. The program is imported from ``src/`` of the
same checkout. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced steps with steps in which every public dualflow call
is wrapped in a span, and prints the per-layer metrics and self-time
tables; it ends with one small pass through the layers its steps never
reach. The last line of standard output is the JSON result; the line
before it is the run's provenance. Spans of a traced run go to
``perfbench/out/``. ``--tiny`` shrinks the dataset for the smoke test.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# One BLAS thread (at most nproc): the matrices here are small, and one
# thread keeps reductions in a fixed order and runs steady on a shared box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train", "score")

# per-layer metric -> (span, statistic, unit); statistic is "mean" (per
# call, total time) or "self" (per call, minus child spans)
SPAN_METRICS = {
    "data.generate_s": ("data.generate", "mean", "s"),
    "data.load_s": ("data.load", "mean", "s"),
    "checkpoint.save_s": ("checkpoint.save", "mean", "s"),
    "checkpoint.load_s": ("checkpoint.load", "mean", "s"),
    "encoder.frozen_ms": ("encoder.frozen", "mean", "ms"),
    "encoder.patch_embed_ms": ("encoder.patch_embed", "mean", "ms"),
    "attention.self_block_ms.L0": ("attention.self_block.L0", "mean", "ms"),
    "attention.self_block_ms.L1": ("attention.self_block.L1", "mean", "ms"),
    "attention.mem_block_ms.L0": ("attention.mem_block.L0", "mean", "ms"),
    "attention.mem_block_ms.L1": ("attention.mem_block.L1", "mean", "ms"),
    "attention.output_heads_ms": ("attention.output_heads", "mean", "ms"),
    "autodiff.backward_ms.stage1": ("autodiff.backward.stage1", "mean", "ms"),
    "autodiff.backward_ms.stage2": ("autodiff.backward.stage2", "mean", "ms"),
    "optim.step_ms.stage1": ("optim.step.stage1", "mean", "ms"),
    "optim.step_ms.stage2": ("optim.step.stage2", "mean", "ms"),
    "flow.forward_ms.scale0": ("flow.forward.scale0", "mean", "ms"),
    "flow.forward_ms.scale1": ("flow.forward.scale1", "mean", "ms"),
    "flow.forward_ms.scale2": ("flow.forward.scale2", "mean", "ms"),
    "pipeline.collect_joints_s": ("pipeline.collect_joints", "mean", "s"),
    "pipeline.reconstruct_ms": ("pipeline.reconstruct", "mean", "ms"),
    "scoring.upsample_ms": ("scoring.upsample", "mean", "ms"),
    "scoring.smooth_ms": ("scoring.smooth", "mean", "ms"),
    "metrics.auroc_pixel_ms": ("metrics.auroc_pixel", "mean", "ms"),
    "metrics.auroc_image_ms": ("metrics.auroc_image", "mean", "ms"),
    "metrics.connected_components_ms": ("metrics.connected_components", "mean", "ms"),
    "metrics.au_pro_ms": ("metrics.au_pro", "self", "ms"),
    "metrics.spro_ms": ("metrics.spro", "self", "ms"),
    "scoring.anomaly_map_ms": ("scoring.anomaly_map", "mean", "ms"),
    "metrics.evaluate_s": ("metrics.evaluate", "mean", "s"),
}
# per-layer metric -> (training span, count of image-epochs it ran)
STAGE_METRICS = {
    "pipeline.train_transformer_ms_per_img": ("pipeline.train_transformer", "stage1.image_epochs"),
    "pipeline.train_flow_ms_per_img": ("pipeline.train_flow", "stage2.image_epochs"),
}
SETUP_SPANS = ("data.generate", "data.load", "checkpoint.save", "checkpoint.load")
REGIONS = ("setup", "steps", "cover")
TRAIN_SPANS = ("pipeline.train_transformer", "pipeline.train_flow")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="dualflow benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small dataset, for the smoke test only")
    return ap.parse_args(argv)


# -- provenance ------------------------------------------------------------


def git_commit():
    """HEAD's commit read from .git without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of every file under src/, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"library": name, "threads": blas_threads()}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the requested one."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def provenance(args, rc):
    import numpy as np
    import scipy
    from dualflow import config
    return {
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        "config_sha256": hashlib.sha256(config.render_run_config(rc).encode()).hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- metrics ---------------------------------------------------------------


def ratio(a, b) -> float:
    return a / b if b else float("nan")


def layer_metrics(tracer, workload, steps):
    """Per-layer metrics from the traced run: set-up layers from the set-up
    spans, every other layer from the traced steps, and a layer that the
    workload's own set-up or steps never reach from the cover. Training
    counts and stage times come from the steps of ``train`` and from the
    cover of the other workloads."""
    tables = {r: tracer.table(*tracer.bounds(r)) for r in REGIONS}
    out = {}
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        own = tables["setup" if span in SETUP_SPANS else "steps"]
        row = own.get(span) or tables["cover"].get(span)
        value = float("nan")
        if row:
            value = (row["self_s"] if stat == "self" else row["total_s"]) / row["calls"]
            value *= 1e3 if unit == "ms" else 1.0
        out[metric] = (value, unit)
    region = "steps" if tracer.regions["steps"][1]["train.images"] else "cover"
    c = tracer.regions[region][1]
    for metric, (span, count) in STAGE_METRICS.items():
        row = tables[region].get(span, {"total_s": float("nan")})
        out[metric] = (ratio(1e3 * row["total_s"], c[count]), "ms")
    frozen = tracer.count_within("encoder.frozen", TRAIN_SPANS, *tracer.bounds(region))
    out["encoder.frozen_calls_per_train_image"] = (ratio(frozen, c["train.images"]), "count")
    out["autodiff.tape_ops_per_image"] = (
        ratio(c["tape_ops.stage1"], c["stage1.image_epochs"]), "count")
    out["autodiff.tape_ops_per_batch"] = (
        ratio(c["tape_ops.stage2"], c["backward_calls.stage2"]), "count")
    plain = [sum(r) for traced, r in steps if not traced]
    traced = [sum(r) for traced, r in steps if traced]
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    out["trace.overhead_pct"] = (overhead, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualflow", "__init__.py")):
        print(f"error: no dualflow package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer

    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as work_dir:
        wl = workloads.CLASSES[args.workload](args.seed, work_dir, tiny=args.tiny,
                                              tracer=tracer)
        steps = wl.run(args.seconds)
    prov = provenance(args, wl.rc)
    if tracer is None:
        metrics = wl.metrics([r for _, r in steps])
    else:
        metrics = layer_metrics(tracer, wl, steps)
        tag = "-tiny" if args.tiny else ""
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}{tag}.json")
        tracer.write(path, prov)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        for region in REGIONS:
            print(f"self time by span, {args.workload}, {region}:")
            print(tracer.format_table(*tracer.bounds(region)))
    for problem in wl.ledger.problems:
        print(f"failed: {problem}", file=sys.stderr)
    led = wl.ledger
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": led.failed == 0 and finite,
        "attempted": led.attempted, "failed": led.failed,
        "metrics": {k: {"value": float(v) if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
