"""End-to-end acceptance gate.

Ten criteria, one test and one printed pass/fail line each. The heavyweight
state (the 64x64 synthetic benchmark and a fully trained model at default
settings, seed 0) is built once per module and shared. All thresholds are
fixed below; run with ``pytest -rA`` to see the verdict lines for passing
tests as well.
"""

import math
import time

import numpy as np
import pytest

from dualflow import autodiff as ad
from dualflow import data, metrics, pipeline
from dualflow.autodiff import Tape, Tensor, using_dtype
from dualflow.checkpoint import save_checkpoint
from dualflow.config import default_run_config
from dualflow.flow import FlowConfig, FlowStack
from dualflow.metrics import au_pro, auroc, spro
from dualflow.optim import AdamW
from dualflow.scoring import anomaly_map
from dualflow.selftest import (_perturbed_stack, check_gradients, check_metric_oracles,
                               numeric_jacobian)

# thresholds
ROUNDTRIP_F32 = 1e-5
ROUNDTRIP_F64 = 1e-10
ROUNDTRIP_BUDGET_S = 30.0
LOGDET_REL = 1e-3
LOGDET_SEEDS = 20
DENSITY_ERR = 0.01
GRAD_REL = 1e-4
METRIC_TOL = 1e-9
BENCH_BUDGET_S = 900.0
BENCH_IMAGE_AUROC = 0.90
BENCH_PIXEL_AUROC = 0.90
VARIANT_MARGIN = 0.01


def _verdict(num: int, ok, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavyweight state


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    data.generate(data.DatasetSpec(), root)  # all defaults, seed 0
    samples = data.load(root)
    return {
        "root": root,
        "train_images": [s.image for s in data.train_split(samples)],
        "test": data.test_split(samples),
    }


@pytest.fixture(scope="module")
def trained(dataset):
    rc = default_run_config()
    t0 = time.perf_counter()
    model = pipeline.train(dataset["train_images"], rc)
    return {"model": model, "rc": rc, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def map_cache(dataset):
    cache = {}

    def get(model, mode, tag):
        key = (tag, mode)
        if key not in cache:
            cache[key] = [anomaly_map(model, s.image, mode=mode)
                          for s in dataset["test"]]
        return cache[key]

    return get


def _image_auroc(samples, maps):
    return auroc([m.image_score for m in maps], [s.label for s in samples])


def _pixel_auroc(samples, maps):
    scores = np.concatenate([m.scores.reshape(-1) for m in maps])
    labels = np.concatenate([s.mask.reshape(-1) for s in samples]).astype(int)
    return auroc(scores, labels)


def _subset(samples, maps, keep):
    pairs = [(s, m) for s, m in zip(samples, maps) if keep(s)]
    return [s for s, _ in pairs], [m for _, m in pairs]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_flow_bijectivity(trained):
    """inverse(forward(u)) recovers u on every scale stack, before and after
    training, in both float widths, within the time budget."""
    model, rc = trained["model"], trained["rc"]
    fresh = pipeline.build_model(rc)
    t0 = time.perf_counter()

    def roundtrip(stack, rng, n=100):
        # Draw inputs at the stack's operating scale (its fitted per-channel
        # statistics); for untrained stacks this is the unit Gaussian.  Unit
        # draws on a trained stack are >50-sigma events on its narrowest
        # channels and say nothing about invertibility where the flow runs.
        mean = np.asarray(stack.standardize.mean, dtype=np.float64)
        std = np.asarray(stack.standardize.std, dtype=np.float64)
        u = Tensor(mean + std * rng.normal(size=(n, 3, 3, stack.channels)))
        z, _ = stack.forward(u)
        return float(np.abs(stack.inverse(z).data - u.data).max())

    worst32 = 0.0
    rng = np.random.default_rng(0)
    for stack in list(fresh.flows) + list(model.flows):
        worst32 = max(worst32, roundtrip(stack, rng))

    worst64 = 0.0
    with using_dtype(np.float64):
        rng = np.random.default_rng(1)
        twin = pipeline.build_model(rc)  # same seed: same permutation stages
        src = model.flow_parameters()
        for key, p in twin.flow_parameters().items():
            p.data = src[key].data.astype(np.float64)
        for tw, tr in zip(twin.flows, model.flows):
            tw.standardize.set_stats(tr.standardize.mean.astype(np.float64),
                                     tr.standardize.std.astype(np.float64))
        init = pipeline.build_model(rc)
        for stack in list(init.flows) + list(twin.flows):
            worst64 = max(worst64, roundtrip(stack, rng))

    elapsed = time.perf_counter() - t0
    ok = (worst32 < ROUNDTRIP_F32 and worst64 < ROUNDTRIP_F64
          and elapsed < ROUNDTRIP_BUDGET_S)
    _verdict(1, ok, f"round-trip f32 {worst32:.2e} (<{ROUNDTRIP_F32}), "
                    f"f64 {worst64:.2e} (<{ROUNDTRIP_F64}), {elapsed:.1f}s")


def test_criterion_02_logdet_exactness():
    """The analytic log-determinant matches the numerically assembled
    Jacobian's log|det| on small instances across many weight draws."""
    worst = 0.0
    with using_dtype(np.float64):
        for seed in range(LOGDET_SEEDS):
            rng = np.random.default_rng(seed)
            stack = _perturbed_stack(8, rng)  # (1, 2, 2, 8): 32 dimensions
            u0 = rng.normal(size=32)

            def fn(flat):
                z, _ = stack.forward(Tensor(flat.reshape(1, 2, 2, 8)))
                return z.data.reshape(-1)

            z, fields = stack.forward(Tensor(u0.reshape(1, 2, 2, 8)))
            logdet = stack.log_det(fields)
            analytic = float(np.asarray(logdet.data).reshape(-1)[0])
            sign, ln = np.linalg.slogdet(numeric_jacobian(fn, u0))
            rel = abs(ln - analytic) / max(abs(ln), 1e-12)
            worst = max(worst, rel)
            if sign <= 0:
                _verdict(2, False, f"seed {seed}: Jacobian determinant not positive")
    _verdict(2, worst < LOGDET_REL,
             f"{LOGDET_SEEDS} seeds, worst log|det| rel err {worst:.2e} (<{LOGDET_REL})")


def test_criterion_03_density_normalization():
    """A trained 2-d flow defines a proper density: exp(log p) integrates
    to 1 over a +-6 sigma grid."""
    with using_dtype(np.float64):
        rng = np.random.default_rng(0)

        def draw(n):
            x1 = rng.normal(0.0, 1.0, size=n)
            x2 = 0.5 * x1 ** 2 + 0.4 * rng.normal(size=n)
            return np.stack([x1, x2], axis=-1)

        train = draw(4096)
        stack = FlowStack(2, FlowConfig(n_blocks=6, hidden_ratio=2.0), rng)
        (mean, std), = pipeline.flow_input_stats([train.reshape(-1, 1, 1, 2)])
        stack.standardize.set_stats(mean, std)
        opt = AdamW(list(stack.params().values()), lr=3e-3)
        for _ in range(400):
            batch = train[rng.integers(0, len(train), size=256)]
            opt.zero_grad()
            with Tape() as tape:
                loss = pipeline.loss_flow([stack], [Tensor(batch.reshape(-1, 1, 1, 2))])
                tape.backward(loss)
            opt.step()

        mu, sg = train.mean(axis=0), train.std(axis=0)
        n_grid = 241
        xs = np.linspace(mu[0] - 6 * sg[0], mu[0] + 6 * sg[0], n_grid)
        ys = np.linspace(mu[1] - 6 * sg[1], mu[1] + 6 * sg[1], n_grid)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1).reshape(-1, 1, 1, 2)
        z, fields = stack.forward(Tensor(pts))
        logdet = stack.log_det(fields)
        zz = z.data.reshape(-1, 2)
        logp = -(0.5 * (zz ** 2).sum(axis=-1)
                 - np.asarray(logdet.data).reshape(-1) + math.log(2 * math.pi))
        dens = np.exp(logp).reshape(n_grid, n_grid)
        integral = float(np.trapezoid(np.trapezoid(dens, ys, axis=1), xs))
    _verdict(3, abs(integral - 1.0) < DENSITY_ERR,
             f"exp(log p) integral {integral:.4f} within {DENSITY_ERR} of 1")


def test_criterion_04_gradient_integrity():
    """Finite differences confirm the tape gradients of both composite stage
    objectives, covering every learnable parameter of every module."""
    from dataclasses import replace

    from dualflow.attention import DualAttnConfig
    from dualflow.encoder import EncoderConfig, PatchEmbedConfig

    with using_dtype(np.float64):
        model = pipeline.Model(replace(
            default_run_config(),
            encoder=EncoderConfig(in_size=16, stage_channels=(2, 2, 4)),
            patch_embed=PatchEmbedConfig(token_dim=12),
            attention=DualAttnConfig(depth=1, heads=2, mlp_ratio=1),
            flow=FlowConfig(n_blocks=2, hidden_ratio=1.0)))
        model.set_image_norm(np.zeros(3), np.ones(3))
        rng = np.random.default_rng(0)
        pyr = model.prior_features(rng.random((16, 16, 3)))

        def stage1():
            rs, rm = model.reconstruct(pyr)
            return ad.add(pipeline.recon_loss(pyr, rs), pipeline.recon_loss(pyr, rm))

        # central differences at the optimum step for a loss of this
        # magnitude (~1e2): large enough that f64 roundoff in the loss does
        # not swamp the difference, small enough that truncation stays cubic
        worst1 = check_gradients(stage1, list(model.transformer_parameters().values()),
                                 eps=1e-5)

        rs, rm = model.reconstruct(pyr)
        joints = [Tensor(j[None]) for j in model.joint_arrays(pyr, rs, rm)]

        def stage2():
            return pipeline.loss_flow(model.flows, joints)

        worst2 = check_gradients(stage2, list(model.flow_parameters().values()),
                                 eps=1e-5)

    ok = worst1 < GRAD_REL and worst2 < GRAD_REL
    _verdict(4, ok, f"composite losses: stage-1 rel err {worst1:.2e}, "
                    f"stage-2 rel err {worst2:.2e} (<{GRAD_REL})")


def test_criterion_05_metric_oracles():
    """Production metrics equal brute-force oracles exactly and are invariant
    under strictly increasing score transforms."""
    ok, detail = check_metric_oracles()
    if not ok:
        _verdict(5, False, detail)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        amap = rng.integers(0, 9, size=(8, 8)) / 8.0
        mask = rng.random((8, 8)) < 0.3
        if not mask.any():
            mask[4, 4] = True
        if mask.all():
            mask[0, 0] = False
        scores = rng.integers(0, 9, size=20) / 8.0
        labels = rng.integers(0, 2, size=20)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        for tf in (lambda x: 2.0 * x + 1.0, lambda x: x ** 3):
            worst = max(worst, abs(auroc(scores, labels) - auroc(tf(scores), labels)))
            worst = max(worst, abs(au_pro([amap], [mask]) - au_pro([tf(amap)], [mask])))
            worst = max(worst, abs(spro([amap], [mask], [0.5])
                                   - spro([tf(amap)], [mask], [0.5])))
    _verdict(5, worst <= METRIC_TOL,
             f"{detail}; monotone-transform drift {worst:.1e} (<= {METRIC_TOL})")


def test_criterion_06_desk_benchmark(dataset, trained, map_cache):
    """Full pipeline at default settings, seed 0: strong detection and
    localization of the structural (patch + scratch) defects, within the
    CPU time budget."""
    maps = map_cache(trained["model"], "likelihood", "D")
    # structural defects carry saturation 1.0; the quadrant swap does not
    samples, maps = _subset(dataset["test"], maps,
                            lambda s: s.label == 0 or s.saturation == 1.0)
    img = _image_auroc(samples, maps)
    pix = _pixel_auroc(samples, maps)
    ok = (img >= BENCH_IMAGE_AUROC and pix >= BENCH_PIXEL_AUROC
          and trained["seconds"] < BENCH_BUDGET_S)
    _verdict(6, ok, f"image AUROC {img:.4f}, pixel AUROC {pix:.4f} "
                    f"(>= {BENCH_IMAGE_AUROC}), trained in {trained['seconds']:.0f}s "
                    f"(< {BENCH_BUDGET_S:.0f}s)")


def test_criterion_07_likelihood_beats_reconstruction(dataset, trained, map_cache):
    """Scoring by flow likelihood localizes at least as well as scoring by
    fused reconstruction error from the same checkpoint."""
    lik = _pixel_auroc(dataset["test"], map_cache(trained["model"], "likelihood", "D"))
    fus = _pixel_auroc(dataset["test"], map_cache(trained["model"], "recon_fused", "D"))
    _verdict(7, lik >= fus, f"pixel AUROC likelihood {lik:.4f} >= recon_fused {fus:.4f}")


def test_criterion_08_joint_features_beat_prior_only(dataset, trained, map_cache):
    """Flows over the concatenated (prior, self, memorial) features score at
    least as well as flows over the prior features alone."""
    model, rc = trained["model"], trained["rc"]
    alt = pipeline.switch_variant(model, "P")
    pipeline.train_flow(alt, dataset["train_images"], rc.train)
    d = _pixel_auroc(dataset["test"], map_cache(model, "likelihood", "D"))
    p = _pixel_auroc(dataset["test"], map_cache(alt, "likelihood", "P"))
    _verdict(8, d >= p - VARIANT_MARGIN,
             f"pixel AUROC variant D {d:.4f} >= variant P {p:.4f} - {VARIANT_MARGIN}")


def test_criterion_09_memorial_branch_repairs_anomalies(dataset, trained, map_cache):
    """On anomalous pixels the memorial reconstruction sits farther from the
    prior features than the self reconstruction (it pulls toward normality),
    and on the quadrant-swap subset it detects at least as well."""
    model = trained["model"]
    d_self, d_mem = [], []
    for s in dataset["test"]:
        if s.label != 1:
            continue
        pyr = model.prior_features(s.image)
        rs, rm = model.reconstruct(pyr)
        for k, base in enumerate(pyr):
            h = np.asarray(base).shape[0]
            block = s.mask.shape[0] // h
            coarse = s.mask.reshape(h, block, h, block).mean(axis=(1, 3)) > 0.5
            if not coarse.any():
                continue
            base = np.asarray(base, dtype=np.float64)
            d_self.append((((base - rs[k].data) ** 2).sum(axis=-1))[coarse])
            d_mem.append((((base - rm[k].data) ** 2).sum(axis=-1))[coarse])
    mean_self = float(np.concatenate(d_self).mean())
    mean_mem = float(np.concatenate(d_mem).mean())

    swap_samples = [s for s in dataset["test"]
                    if s.label == 0 or s.saturation < 1.0]
    mem_maps = [anomaly_map(model, s.image, mode="recon_mem") for s in swap_samples]
    self_maps = [anomaly_map(model, s.image, mode="recon_self") for s in swap_samples]
    a_mem = _image_auroc(swap_samples, mem_maps)
    a_self = _image_auroc(swap_samples, self_maps)

    ok = mean_mem > mean_self and a_mem >= a_self
    _verdict(9, ok, f"anomalous-pixel distance memorial {mean_mem:.3f} > "
                    f"self {mean_self:.3f}; swap image AUROC recon_mem "
                    f"{a_mem:.4f} >= recon_self {a_self:.4f}")


def test_criterion_10_determinism(dataset, trained, tmp_path):
    """Two complete runs from the same seed produce byte-identical
    checkpoints and evaluation reports."""
    model, rc = trained["model"], trained["rc"]
    again = pipeline.train(dataset["train_images"], rc)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, rc, p1)
    save_checkpoint(again, rc, p2)
    same_ckpt = p1.read_bytes() == p2.read_bytes()
    rep1 = metrics.evaluate(model, dataset["test"]).to_json()
    rep2 = metrics.evaluate(again, dataset["test"]).to_json()
    _verdict(10, same_ckpt and rep1 == rep2,
             f"checkpoints byte-identical: {same_ckpt}; reports identical: "
             f"{rep1 == rep2}")
