"""Span tracing of dualflow from outside the package.

``Tracer.install`` replaces the public functions and methods of each
dualflow module with thin wrappers that record a span (name, start, end,
parent) around every call; ``uninstall`` puts the originals back, so an
untraced phase runs the program's own code objects. Spans live in memory
and are written once, when the run ends.

A run is split into named regions (``begin``); each region has its own
span range and its own counts.

Per-instance layers (attention level, flow scale) are named from the model
that owns them, recorded when the model is built.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict

from dualflow import (attention, autodiff, checkpoint, data, encoder, flow,
                      metrics, optim, pipeline, scoring)

STAGE_SPANS = {"pipeline.train_transformer": "stage1", "pipeline.train_flow": "stage2"}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = Counter()    # counts of the current region
        self.regions = {}          # region -> (first span index, counts)
        self._open = []            # indices of spans not yet closed
        self._patches = []         # (owner, attribute, original)
        self._labels = weakref.WeakKeyDictionary()
        self._n_samples = 0        # sample count of the evaluate call in progress

    # -- recording --------------------------------------------------------

    def begin(self, region: str) -> None:
        """Start ``region``: later spans and counts belong to it."""
        self.counts = Counter()
        self.regions[region] = (len(self.spans), self.counts)

    def bounds(self, region: str) -> tuple:
        """(first, last) span indices of ``region``."""
        first = self.regions[region][0]
        later = [f for f, _ in self.regions.values() if f > first]
        return first, min(later, default=len(self.spans))

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def stage(self) -> str:
        """Training stage of the innermost open training call, or 'none'."""
        for idx in reversed(self._open):
            stage = STAGE_SPANS.get(self.spans[idx][0])
            if stage:
                return stage
        return "none"

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def _label(self, model) -> None:
        for level, blk in enumerate(model.attn.self_blocks):
            self._labels[blk] = f"L{level}"
        for level, blk in enumerate(model.attn.mem_blocks):
            self._labels[blk] = f"L{level}"
        for scale, stack in enumerate(model.flows):
            self._labels[stack] = f"scale{scale}"

    # -- patching ---------------------------------------------------------

    def _wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a span-recording wrapper. ``name`` is a
        string or a function of the call's arguments returning one."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        naming = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            return self.call(naming(*args, **kwargs), original, *args, **kwargs)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def install(self) -> None:
        if self._patches:
            return
        init = pipeline.Model.__init__
        self._patches.append((pipeline.Model, "__init__", init))

        def labelled_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            self._label(model)

        pipeline.Model.__init__ = labelled_init
        w = self._wrap
        w(data, "generate", "data.generate")
        w(data, "load", "data.load")
        w(checkpoint, "save_checkpoint", "checkpoint.save")
        w(checkpoint, "load_checkpoint", "checkpoint.load")
        w(pipeline, "train_transformer", "pipeline.train_transformer")
        w(pipeline, "train_flow", "pipeline.train_flow")
        w(pipeline, "collect_joints", "pipeline.collect_joints")
        w(pipeline.Model, "reconstruct", "pipeline.reconstruct")
        w(encoder.FrozenEncoder, "__call__", "encoder.frozen")
        w(encoder.PatchEmbed, "__call__", "encoder.patch_embed")
        w(attention.SelfBlock, "__call__",
          lambda blk, *a: f"attention.self_block.{self._labels.get(blk, 'L?')}")
        w(attention.MemorialBlock, "__call__",
          lambda blk, *a: f"attention.mem_block.{self._labels.get(blk, 'L?')}")
        w(attention.OutputHeads, "__call__", "attention.output_heads")
        w(autodiff.Tape, "backward", self._backward_name)
        w(optim.AdamW, "step", lambda *a: f"optim.step.{self.stage()}")
        w(flow.FlowStack, "forward",
          lambda stack, *a: f"flow.forward.{self._labels.get(stack, 'scale?')}")
        # evaluate reaches anomaly_map through its own module's binding
        w(scoring, "anomaly_map", "scoring.anomaly_map")
        w(metrics, "anomaly_map", "scoring.anomaly_map")
        w(scoring, "bilinear_upsample", "scoring.upsample")
        w(scoring, "gaussian_filter", "scoring.smooth")
        w(metrics, "evaluate", self._evaluate_name)
        w(metrics, "auroc", self._auroc_name)
        w(metrics, "connected_components", "metrics.connected_components")
        w(metrics, "au_pro", "metrics.au_pro")
        w(metrics, "spro", "metrics.spro")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _backward_name(self, tape, *args, **kwargs):
        stage = self.stage()
        self.counts[f"tape_ops.{stage}"] += len(tape)
        self.counts[f"backward_calls.{stage}"] += 1
        return f"autodiff.backward.{stage}"

    def _evaluate_name(self, model, samples, *args, **kwargs):
        self._n_samples = len(samples)
        return "metrics.evaluate"

    def _auroc_name(self, scores, labels, *args, **kwargs):
        image_level = len(scores) == self._n_samples
        return "metrics.auroc_image" if image_level else "metrics.auroc_pixel"

    # -- summaries --------------------------------------------------------

    def table(self, first=0, last=None) -> dict:
        """name -> {"calls", "total_s", "self_s"} over spans ``first`` to
        ``last``. Self time is a span's duration minus that of its direct
        children."""
        last = len(self.spans) if last is None else last
        child = defaultdict(float)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx in range(first, last):
            name, start, end, _ = self.spans[idx]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def count_within(self, name: str, ancestors, first=0, last=None) -> int:
        """Number of ``name`` spans from ``first`` to ``last`` with an
        ancestor named in ``ancestors``."""
        n = 0
        for span in self.spans[first:last]:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] in ancestors:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def format_table(self, first=0, last=None) -> str:
        rows = sorted(self.table(first, last).items(), key=lambda kv: -kv[1]["self_s"])
        lines = [f"{'span':<34}{'calls':>8}{'total_s':>10}{'self_s':>10}{'self_ms/call':>14}"]
        for name, row in rows:
            lines.append(f"{name:<34}{row['calls']:>8}{row['total_s']:>10.3f}"
                         f"{row['self_s']:>10.3f}{1e3 * row['self_s'] / row['calls']:>14.3f}")
        return "\n".join(lines)

    def write(self, path, provenance: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                 for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance,
                       "regions": {r: {"first_span": f, "counts": dict(c)}
                                   for r, (f, c) in self.regions.items()},
                       "spans": spans}, fh)
