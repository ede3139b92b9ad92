"""The benchmark workloads, driven through dualflow's public API.

Each workload is a closed loop with one caller: it sets up, checks the
set-up's outputs, then repeats one unit of work (a step) until the steps
have run for the given time. An untraced run sets up ``SETUP_REPEATS``
times in all, spread over that time, and reports the fastest. In a traced
run the steps alternate between untraced and traced, which gives the
tracing overhead.

Every step repeats the same parts (epochs, images), each timed on its
own. ``img_per_s`` takes the fastest time of each part over the run: the
host shares its cores with other tenants and runs the same code up to 1.6
times slower in phases of seconds to minutes, so a median moves with the
neighbours while the fastest time of a short part stays with the
program's own cost (perfbench/NOTES.md).

  train  stage 1 then stage 2 on 24 training images, batch 8
  score  anomaly_map in likelihood mode, one test image at a time, on a
         model reloaded from a checkpoint

``metrics.evaluate`` runs only in a traced run's cover: timed as a
workload of its own it drifted by up to a third between sets of runs on
the shared host (perfbench/NOTES.md).

Every workload reports the same end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``img_per_s``). A traced run ends with ``cover``, one
small pass through the layers its steps never reach, so that it reports
every per-layer metric.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

from dualflow import checkpoint, config, data, metrics, pipeline, scoring

MODE = "likelihood"
SETUP_REPEATS = 5
# (stage1_epochs, stage2_epochs) of the train workload's rounds, of the
# set-up fit of the score workload, and of a traced run's cover
TRAIN_EPOCHS = (2, 1)
SETUP_EPOCHS = (0, 0)
COVER_EPOCHS = (1, 1)
# training images of a train round and of a traced run's cover. A round on
# 24 images does the same work per batch and per image as one on all 192
# and takes about 1 s, so a run holds enough rounds to find fast ones.
TRAIN_IMAGES = 24
COVER_IMAGES = 16
# dataset sizes of the smoke test's --tiny runs
TINY_SPEC = {"n_train": 16, "n_test_normal": 2, "n_test_anomalous": 3}
REPORT_KEYS = ("image_auroc", "pixel_auroc", "au_pro", "spro")


class Ledger:
    """Attempted and failed operations. An operation fails when it raises
    or when a check on its output reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, what, fn, *args, **kwargs):
        """Call ``fn``; return (result, seconds), result None on a raise."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, the run goes on
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, what, problem) -> bool:
        """Record ``problem`` (a message, or None when the output is fine)
        against the operation just attempted."""
        if problem:
            self._fail(f"{what}: {problem}")
            return False
        return True

    def verify(self, what, problem) -> bool:
        """A check that is an operation of its own."""
        self.attempted += 1
        return self.check(what, problem)

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def bench_config(epochs):
    rc = config.default_run_config()
    train = dataclasses.replace(rc.train, stage1_epochs=epochs[0], stage2_epochs=epochs[1])
    return dataclasses.replace(rc, train=train)


def map_problem(amap, size):
    if amap.scores.shape != (size, size):
        return f"map shape {amap.scores.shape}, expected {(size, size)}"
    if not np.isfinite(amap.scores).all() or not np.isfinite(amap.image_score):
        return "non-finite anomaly map"
    return None


def report_problem(report):
    values = [getattr(report, k) for k in REPORT_KEYS]
    for scale in report.per_scale.values():
        values += list(scale.values())
    if not all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return f"report value outside [0, 1]: {report.to_dict()}"
    return None


class Workload:
    """Shared set-up and the measuring loop; subclasses define ``step``.

    Set-up generates and loads the dataset and builds the model. Workloads
    that score also fit it with ``SETUP_EPOCHS`` (image and flow input
    statistics only) and pass it through a checkpoint."""

    checkpointed = True
    epochs = SETUP_EPOCHS

    def __init__(self, seed, work_dir, tiny=False, tracer=None):
        self.work_dir = work_dir
        self.spec = data.DatasetSpec(seed=seed, **(TINY_SPEC if tiny else {}))
        self.tracer = tracer
        self.ledger = Ledger()
        self.setup_times = []
        self.rc = bench_config(self.epochs)

    # -- set-up -------------------------------------------------------------

    def _timed_setup(self, keep):
        """One set-up, timed. The workload keeps the state of the first."""
        gc.collect()
        data_dir = tempfile.mkdtemp(prefix="data-", dir=self.work_dir)
        t0 = time.perf_counter()
        state = self._setup_once(data_dir)
        self.setup_times.append(time.perf_counter() - t0)
        shutil.rmtree(data_dir)
        if keep:
            self.train_images, self.test, self.model, self.loaded = state

    def _setup_once(self, data_dir):
        led = self.ledger
        led.attempt("data.generate", data.generate, self.spec, data_dir)
        samples, _ = led.attempt("data.load", data.load, data_dir)
        samples = samples or []
        train_images = [s.image for s in data.train_split(samples)]
        model = pipeline.build_model(self.rc)
        loaded = None
        if self.checkpointed:
            self._train(model, self.rc, train_images)
            loaded = self._round_trip(model, self.rc, data_dir)
        return train_images, data.test_split(samples), model, loaded

    def prepare(self):
        """Work after set-up that no metric times."""

    def _round_trip(self, model, rc, directory):
        path = os.path.join(directory, "model.ckpt")
        self.ledger.attempt("checkpoint.save", checkpoint.save_checkpoint, model, rc, path)
        loaded, _ = self.ledger.attempt("checkpoint.load", checkpoint.load_checkpoint, path)
        return loaded[0] if loaded else None

    def _check_reload(self, model, loaded):
        """``loaded`` must map every test image bit for bit like ``model``,
        the model it was saved from."""
        size = self.rc.encoder.in_size
        for s in self.test:
            a, _ = self.ledger.attempt("anomaly_map", scoring.anomaly_map, model, s.image, MODE)
            b, _ = self.ledger.attempt("anomaly_map", scoring.anomaly_map, loaded, s.image, MODE)
            if a is None or b is None:
                continue
            self.ledger.check("anomaly_map", map_problem(a, size) or map_problem(b, size))
            same = np.array_equal(a.scores, b.scores) and a.image_score == b.image_score
            self.ledger.verify("checkpoint round trip",
                               None if same else "reloaded model maps differently")

    def _train(self, model, rc, images):
        """Both stages on ``images``. Returns the wall time of each epoch,
        stage 1's then stage 2's; the first epoch of a stage includes the
        stage's caching (pyramids, joint features)."""
        losses = []
        ends = [time.perf_counter()]

        def log(stage, epoch, *values):
            ends.append(time.perf_counter())
            losses.extend(values)

        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.counts["train.images"] += len(images)
            tracer.counts["stage1.image_epochs"] += len(images) * rc.train.stage1_epochs
            tracer.counts["stage2.image_epochs"] += len(images) * rc.train.stage2_epochs
        led = self.ledger
        led.attempt("train_transformer", pipeline.train_transformer,
                    model, images, rc.train, log=log)
        led.attempt("train_flow", pipeline.train_flow, model, images, rc.train, log=log)
        led.check("training", None if np.isfinite(losses).all() else f"non-finite loss {losses}")
        return [b - a for a, b in zip(ends, ends[1:])]

    def _evaluate(self, model, samples):
        """``metrics.evaluate`` over ``samples``; returns (report or None,
        seconds)."""
        report, dt = self.ledger.attempt("evaluate", metrics.evaluate, model, samples, MODE)
        if report is not None and not self.ledger.check("evaluate", report_problem(report)):
            report = None
        return report, dt

    def cover(self):
        """The end of a traced run: one small pass through every layer, so
        that a layer the steps never reach still has spans. A fresh model
        trains ``COVER_EPOCHS`` on ``COVER_IMAGES`` training images, goes
        through a checkpoint, scores the test split (checked against the
        model it was saved from) and is evaluated once."""
        rc = bench_config(COVER_EPOCHS)
        model = pipeline.build_model(rc)
        self._train(model, rc, self.train_images[:COVER_IMAGES])
        loaded = self._round_trip(model, rc, self.work_dir)
        if loaded is not None:
            self._check_reload(model, loaded)
            self._evaluate(loaded, self.test)

    # -- measuring ----------------------------------------------------------

    def run(self, seconds):
        """Set up, then repeat ``step`` until the steps have run for
        ``seconds``. An untraced run spreads its other set-ups over that
        time, so that the fastest set-up is one at a fast moment of the
        machine. A traced run records its spans in the tracer regions
        "setup", "steps" and "cover". Returns the list of (traced, step
        result) pairs."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("setup")
            tracer.install()
        self._timed_setup(keep=True)
        self.prepare()
        if tracer is not None:
            tracer.begin("steps")
        repeats, min_steps = (1, 2) if tracer is not None else (SETUP_REPEATS, 1)
        steps = []
        stepping = 0.0
        while stepping < seconds or len(steps) < min_steps:
            while len(self.setup_times) < repeats and \
                    stepping >= seconds * len(self.setup_times) / repeats:
                self._timed_setup(keep=False)
            traced = tracer is not None and len(steps) % 2 == 1
            if tracer is not None:
                (tracer.install if traced else tracer.uninstall)()
            gc.collect()
            t0 = time.perf_counter()
            steps.append((traced, self.step()))
            stepping += time.perf_counter() - t0
            if len(steps) == 1:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(self.setup_times) < repeats:
            self._timed_setup(keep=False)
        if tracer is not None:
            tracer.begin("cover")
            tracer.install()
            self.cover()
            tracer.uninstall()
        return steps

    def step(self):
        """One unit of work; returns the wall time of each of its parts, in
        an order that every step repeats."""
        raise NotImplementedError

    def images_per_step(self) -> int:
        raise NotImplementedError

    def fast_seconds_per_image(self, results) -> float:
        """The fastest step at each part, summed, over the images of a
        step."""
        return sum(min(part) for part in zip(*results)) / self.images_per_step()

    def metrics(self, results):
        """End-to-end metrics from the untraced step results: the fastest
        set-up, the peak resident memory of set-up and the first step (later
        steps add heap fragmentation that depends on how many fit in the
        run), and images per second."""
        return {"setup_s": (min(self.setup_times), "s"),
                "peak_rss_mb": (self.peak_rss_mb, "MB"),
                "img_per_s": (1.0 / self.fast_seconds_per_image(results), "img/s")}


class Train(Workload):
    """A step is one round on ``TRAIN_IMAGES`` training images: a new
    model, stage 1 then stage 2. Its parts are the epochs; images count once
    per epoch."""

    checkpointed = False
    epochs = TRAIN_EPOCHS

    def step(self):
        model = pipeline.build_model(self.rc)
        return self._train(model, self.rc, self.train_images[:TRAIN_IMAGES])

    def images_per_step(self):
        return len(self.train_images[:TRAIN_IMAGES]) * sum(self.epochs)


class Score(Workload):
    """A step is one pass over the test split; its parts are the images."""

    def prepare(self):
        self._check_reload(self.model, self.loaded)

    def step(self):
        size = self.rc.encoder.in_size
        times = []
        for s in self.test:
            amap, dt = self.ledger.attempt("anomaly_map", scoring.anomaly_map,
                                           self.loaded, s.image, MODE)
            if amap is not None:
                self.ledger.check("anomaly_map", map_problem(amap, size))
            times.append(dt)
        return times

    def images_per_step(self):
        return len(self.test)


CLASSES = {"train": Train, "score": Score}
