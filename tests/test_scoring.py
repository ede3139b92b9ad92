"""Anomaly maps: bilinear upsampling, mode algebra, fusion invariants."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import tiny_images, tiny_run_config

from dualflow import autodiff as ad, metrics, pipeline
from dualflow.errors import ContractError, ShapeError
from dualflow.metrics import evaluate
from dualflow.scoring import (MAX_SMOOTH_SIGMA, MODES, ScoringConfig, anomaly_map,
                              bilinear_upsample, raw_scale_maps)


@pytest.fixture(scope="module")
def model():
    return pipeline.train(tiny_images(4), tiny_run_config())


@pytest.fixture(scope="module")
def probe():
    return tiny_images(1, seed=7)[0]


# ---------------------------------------------------------------------------
# bilinear upsampling


def test_upsample_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 7))
    np.testing.assert_allclose(bilinear_upsample(m, 5, 7), m, atol=1e-12)


def test_upsample_constant_map():
    m = np.full((3, 4), 2.5)
    out = bilinear_upsample(m, 17, 9)
    assert out.shape == (17, 9)
    np.testing.assert_allclose(out, 2.5)


def test_upsample_half_pixel_hand_example():
    # 1x2 map [0, 1] to 1x4: source x-coords are (i+0.5)/2 - 0.5, clipped.
    out = bilinear_upsample(np.array([[0.0, 1.0]]), 1, 4)
    np.testing.assert_allclose(out, [[0.0, 0.25, 0.75, 1.0]])


def test_upsample_matches_scalar_loop():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 5))
    h, w, oh, ow = 3, 5, 8, 11
    want = np.empty((oh, ow))
    for i in range(oh):
        for j in range(ow):
            y = min(max((i + 0.5) * h / oh - 0.5, 0), h - 1)
            x = min(max((j + 0.5) * w / ow - 0.5, 0), w - 1)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            want[i, j] = (m[y0, x0] * (1 - fy) * (1 - fx)
                          + m[y0, x1] * (1 - fy) * fx
                          + m[y1, x0] * fy * (1 - fx)
                          + m[y1, x1] * fy * fx)
    np.testing.assert_allclose(bilinear_upsample(m, oh, ow), want, atol=1e-12)


def test_upsample_preserves_linear_ramps():
    # Bilinear interpolation is exact for a plane wherever no clipping occurs.
    h, w, oh, ow = 6, 6, 24, 24
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    m = 0.7 * yy - 0.3 * xx + 1.1
    out = bilinear_upsample(m, oh, ow)
    ys = (np.arange(oh) + 0.5) * (h / oh) - 0.5
    xs = (np.arange(ow) + 0.5) * (w / ow) - 0.5
    inner_y = (ys >= 0) & (ys <= h - 1)
    inner_x = (xs >= 0) & (xs <= w - 1)
    want = 0.7 * ys[:, None] - 0.3 * xs[None, :] + 1.1
    np.testing.assert_allclose(out[np.ix_(inner_y, inner_x)],
                               want[np.ix_(inner_y, inner_x)], atol=1e-12)


def test_upsample_range_bounded():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4))
    out = bilinear_upsample(m, 19, 23)
    assert out.min() >= m.min() - 1e-12
    assert out.max() <= m.max() + 1e-12


def test_upsample_rejects_non_2d():
    with pytest.raises(ShapeError):
        bilinear_upsample(np.zeros((2, 2, 2)), 4, 4)


# ---------------------------------------------------------------------------
# mode algebra


def test_config_validation():
    assert ScoringConfig(smooth_sigma=0.0).smooth_sigma == 0.0  # 0 turns smoothing off
    ScoringConfig(smooth_sigma=MAX_SMOOTH_SIGMA)
    for bad in (dict(smooth_sigma=float("nan")), dict(smooth_sigma=-2.0),
                dict(smooth_sigma=float("inf")), dict(smooth_sigma=MAX_SMOOTH_SIGMA * 2),
                dict(fuse_weight=float("nan")),
                dict(fpr_limit=0.0), dict(mode="badmode")):
        with pytest.raises(ContractError):
            ScoringConfig(**bad)


def test_signature_defaults_are_the_scoring_config_defaults():
    default = ScoringConfig()
    checked = 0
    for fn in (anomaly_map, raw_scale_maps, evaluate, metrics.au_pro, metrics.spro):
        params = inspect.signature(fn).parameters
        for name in ("mode", "smooth_sigma", "fuse_weight", "fpr_limit"):
            if name in params and params[name].default is not inspect.Parameter.empty:
                assert params[name].default == getattr(default, name), (fn.__name__, name)
                checked += 1
    assert checked == 10


def test_unknown_mode_rejected(model, probe):
    with pytest.raises(ContractError):
        raw_scale_maps(model, probe, "badmode")
    with pytest.raises(ContractError):
        anomaly_map(model, probe, "badmode")


def normal_and_anomalous(image):
    """Two evaluation samples of one image: a normal one and an anomalous one
    with a square mask."""
    mask = np.zeros(image.shape[:2], dtype=bool)
    mask[8:16, 8:16] = True
    return [SimpleNamespace(image=image, mask=mask & bool(label), label=label,
                            saturation=1.0) for label in (0, 1)]


@pytest.mark.parametrize("bad", [dict(smooth_sigma=-1.0), dict(smooth_sigma=float("nan")),
                                 dict(smooth_sigma=float("inf")), dict(fuse_weight=7.0),
                                 dict(fuse_weight=-0.5), dict(fuse_weight=float("nan"))])
def test_anomaly_map_and_evaluate_check_scoring_arguments(model, probe, bad):
    with pytest.raises(ContractError):
        anomaly_map(model, probe, **bad)
    samples = normal_and_anomalous(probe)
    with pytest.raises(ContractError):
        evaluate(model, samples, **bad)


@pytest.mark.parametrize("fpr_limit", [7.0, 0.0, -0.3, float("nan")])
def test_evaluate_checks_fpr_limit_before_scoring(model, probe, monkeypatch, fpr_limit):
    scored = []

    def counting(model, image, **kwargs):
        scored.append(image)
        return anomaly_map(model, image, **kwargs)

    monkeypatch.setattr(metrics, "anomaly_map", counting)
    samples = normal_and_anomalous(probe)
    with pytest.raises(ContractError):
        evaluate(model, samples, fpr_limit=fpr_limit)
    assert scored == []
    evaluate(model, samples)  # the wrapper counts every scored image
    assert len(scored) == 2


def test_likelihood_requires_trained_flows(probe):
    fresh = pipeline.build_model(tiny_run_config())
    pipeline.train_transformer(fresh, tiny_images(3), tiny_run_config().train)
    with pytest.raises(ContractError):
        raw_scale_maps(fresh, probe, "likelihood")


def test_likelihood_map_builds_no_log_det(model, probe, monkeypatch):
    """Scoring needs only per-location terms, so a likelihood map never
    reduces a coupling's scale field to the per-sample log-det."""
    sum_batch = ad.sum_batch
    calls = []
    monkeypatch.setattr(ad, "sum_batch", lambda x: calls.append(x.shape) or sum_batch(x))
    anomaly_map(model, probe, mode="likelihood")
    assert calls == []


def test_fused_is_convex_combination(model, probe):
    s = raw_scale_maps(model, probe, "recon_self")
    m = raw_scale_maps(model, probe, "recon_mem")
    for w in (0.0, 0.3, 1.0):
        f = raw_scale_maps(model, probe, "recon_fused", fuse_weight=w)
        for fs, ss, ms in zip(f, s, m):
            np.testing.assert_allclose(fs, (1 - w) * ss + w * ms, rtol=1e-12)


def test_recon_maps_nonnegative(model, probe):
    for mode in ("recon_self", "recon_mem", "recon_fused", "latent_norm"):
        for raw in raw_scale_maps(model, probe, mode):
            assert (raw >= 0).all()


def test_latent_norm_identity_flow_equals_input_energy(probe):
    # With untrained (zero-initialized) flows every coupling layer is the
    # identity and channel permutations preserve per-location energy, so the
    # latent norm map must equal the squared norm of the joint features.
    rc = tiny_run_config()
    model = pipeline.build_model(rc)
    pipeline.train_transformer(model, tiny_images(3), rc.train)
    pyr = model.prior_features(probe)
    rs, rm = model.reconstruct(pyr)
    joints = model.joint_arrays(pyr, rs, rm)
    maps = raw_scale_maps(model, probe, "latent_norm")
    for raw, joint in zip(maps, joints):
        np.testing.assert_allclose(raw, (joint.astype(np.float64) ** 2).sum(axis=-1),
                                   rtol=1e-5, atol=1e-8)


def test_likelihood_is_half_energy_for_identity_flow(probe):
    # Zero-initialized couplings also have zero log-determinant, so the
    # likelihood map reduces to exactly half the latent-norm map.
    rc = tiny_run_config()
    model = pipeline.build_model(rc)
    pipeline.train_transformer(model, tiny_images(3), rc.train)
    model.flow_trained = True  # bypass the guard; flows are identity maps
    lik = raw_scale_maps(model, probe, "likelihood")
    lat = raw_scale_maps(model, probe, "latent_norm")
    for a, b in zip(lik, lat):
        np.testing.assert_allclose(a, 0.5 * b, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# fused maps


def test_map_shapes_and_fusion(model, probe):
    out = anomaly_map(model, probe, "likelihood")
    size = model.enc_cfg.in_size
    assert out.scores.shape == (size, size)
    assert len(out.per_scale) == len(model.flows)
    for m in out.per_scale:
        assert m.shape == (size, size)
    np.testing.assert_allclose(out.scores, np.sum(out.per_scale, axis=0),
                               rtol=1e-12)
    assert out.image_score == out.scores.max()
    assert out.mode == "likelihood"


def test_map_deterministic(model, probe):
    a = anomaly_map(model, probe, "likelihood")
    b = anomaly_map(model, probe, "likelihood")
    np.testing.assert_array_equal(a.scores, b.scores)
    assert a.image_score == b.image_score


def test_every_mode_runs(model, probe):
    for mode in MODES:
        out = anomaly_map(model, probe, mode)
        assert np.isfinite(out.scores).all()
        assert np.isfinite(out.image_score)


def test_smoothing_toggle_changes_map_but_not_order_of_magnitude(model, probe):
    smooth = anomaly_map(model, probe, "likelihood", smooth_sigma=4.0)
    raw = anomaly_map(model, probe, "likelihood", smooth_sigma=0.0)
    assert not np.array_equal(smooth.scores, raw.scores)
    # Smoothing averages locally: the smoothed max can only drop (or tie).
    assert smooth.image_score <= raw.image_score + 1e-9


def test_smoothed_map_mean_is_preserved_approximately(model, probe):
    # Reflect-mode Gaussian filtering redistributes mass without creating it.
    raw = anomaly_map(model, probe, "likelihood", smooth_sigma=0.0)
    smooth = anomaly_map(model, probe, "likelihood", smooth_sigma=4.0)
    assert smooth.scores.mean() == pytest.approx(raw.scores.mean(), rel=0.05)
