"""Training objectives, stage schedule, and checkpoint round-trips."""

import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import assert_same_bits, tiny_images, tiny_run_config, with_specials

from dualflow import autodiff as ad
from dualflow import pipeline, scoring
from dualflow.attention import DualAttnConfig
from dualflow.autodiff import Tape, Tensor, reset_grads, using_dtype
from dualflow.checkpoint import load_checkpoint, save_checkpoint
from dualflow.cli import main
from dualflow.config import default_run_config, render_run_config
from dualflow.data import DatasetSpec, generate, load
from dualflow.encoder import EncoderConfig, PatchEmbedConfig
from dualflow.errors import CheckpointError, ContractError, NumericError, ShapeError
from dualflow.flow import FlowConfig, FlowStack
from dualflow.pipeline import (TrainConfig, build_model, collect_joints, loss_flow, recon_loss,
                               train, train_flow, train_transformer)
from dualflow.scoring import ScoringConfig
from dualflow.selftest import check_gradients, max_rel_error
from test_acceptance import GRAD_REL


# ---------------------------------------------------------------------------
# reconstruction losses


def test_loss_self_zero_for_equal_args():
    pyr = [np.ones((2, 2, 3)), np.zeros((1, 1, 4))]
    recon = [Tensor(p.copy()) for p in pyr]
    assert recon_loss(pyr, recon).item() == 0.0


def test_loss_self_hand_value():
    pyr = [np.zeros((1, 1, 2))]
    recon = [Tensor(np.array([[[1.0, -1.0]]]))]
    assert recon_loss(pyr, recon).item() == pytest.approx(2.0)


def test_loss_memory_same_kernel_and_positive():
    # both branches are fitted with the one recon_loss kernel
    rng = np.random.default_rng(0)
    pyr = [rng.normal(size=(3, 3, 2))]
    recon = [Tensor(rng.normal(size=(3, 3, 2)))]
    assert recon_loss(pyr, recon).item() > 0.0


def test_recon_loss_shape_mismatch():
    with pytest.raises(Exception):
        recon_loss([np.zeros((2, 2, 2))], [])


def test_loss_self_gradcheck(f64):
    rng = np.random.default_rng(1)
    pyr = [rng.normal(size=(2, 2, 3))]
    recon = [Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)]

    def f():
        return recon_loss(pyr, recon)

    assert check_gradients(f, recon) < 1e-6


# ---------------------------------------------------------------------------
# flow loss


def test_loss_flow_identity_stack_value(f64):
    rng = np.random.default_rng(2)
    stack = FlowStack(4, FlowConfig(n_blocks=3), rng)  # zero-init: identity
    u = Tensor(rng.normal(size=(5, 2, 2, 4)))
    d = u.data[0].size
    got = loss_flow([stack], [u]).item()
    expected = float(np.mean([(s ** 2).sum() / 2 for s in u.data])
                     + 0.5 * d * math.log(2 * math.pi))
    assert got == pytest.approx(expected, rel=1e-12)


def test_loss_flow_gradcheck_toy(f64):
    rng = np.random.default_rng(3)
    stack = FlowStack(2, FlowConfig(n_blocks=2), rng)
    for p in stack.params().values():
        p.data = p.data + rng.normal(0, 0.1, size=p.data.shape)
    u = Tensor(rng.normal(size=(4, 1, 1, 2)))

    def f():
        return loss_flow([stack], [u])

    assert check_gradients(f, list(stack.params().values())) < 1e-4


def test_default_loss_flow_records_95_tape_ops():
    """Each coupling is one tape op: its subnet, the clamp of its log-scale
    and its affine map run inside the op, with one hand-written vjp. A
    default-config loss on a batch of 8 records 95 ops (425 with each
    coupling an op chain of 15: two gathers, the conv, two ``linear``s, the
    leaky ReLU, two slices, the clamp's ``mul``, ``tanh`` and ``mul``,
    ``exp``, ``mul``, ``add`` and ``concat_last``). The count does not depend
    on the map size."""
    model = build_model(default_run_config())
    rng = np.random.default_rng(0)
    joints = [Tensor(rng.normal(size=(8, 2, 2, s.channels)).astype(np.float32))
              for s in model.flows]
    with Tape() as tape:
        loss_flow(model.flows, joints)
    assert len(tape) == 95


def test_default_stage1_loss_records_102_tape_ops():
    """Stage 1's loss on a default batch of 8, ``reconstruct`` then both
    ``recon_loss`` terms and their mean, records 102 ops: 78 for
    ``reconstruct``, whose four attention cores and six ``unpatchify`` calls
    are one op each, 11 per loss term, and an ``add`` and a ``mul``. It
    recorded 158 with each core an op chain of 12 and each ``unpatchify`` a
    chain of 3. The count does not depend on the pyramid's values."""
    model = build_model(default_run_config())
    pyramid = model.prior_features(np.zeros((model.enc_cfg.in_size,) * 2 + (3,)))
    targets = [np.stack([m] * 8) for m in pyramid]
    with Tape() as tape:
        recon_s, recon_m = model.reconstruct(targets)
        ad.mul(ad.add(recon_loss(targets, recon_s), recon_loss(targets, recon_m)), 1.0 / 8)
    assert len(tape) == 102


def _default_batch_joints(model):
    rng = np.random.default_rng(0)
    maps = model.prior_features(np.zeros((model.enc_cfg.in_size,) * 2 + (3,)))
    return [Tensor(rng.normal(size=(8,) + m.shape[:2] + (s.channels,)).astype(np.float32))
            for m, s in zip(maps, model.flows)]


def test_default_loss_flow_forward_holds_only_what_backward_reads():
    """A default-config ``loss_flow`` forward on a batch of 8 at the default
    map sizes, 95 tape ops, keeps alive only the arrays its vjps read: about
    16.5 MiB. It held 24.4 MiB while each coupling's vjp kept ``exp(s)`` and
    the leaky ReLU's output, which it now recomputes, and 68.5 MiB when the
    tape kept every op output."""
    model = build_model(default_run_config())
    joints = _default_batch_joints(model)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss_flow(model.flows, joints)
            held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 95
    assert held <= 18 * 2 ** 20, held / 2 ** 20


def test_default_loss_flow_backward_peaks_under_19_mib():
    """The same forward plus its backward, on one tape, peaks at about
    17.95 MiB, which is the forward's own peak: backward frees each record
    once it has run it, and each coupling's vjp frees its temporaries once
    their last reader is done, so the backward itself peaks at about
    17.4 MiB. Both read 21.5 MiB while the tape kept every record until the
    backward ended (29.2 MiB while the vjps kept ``exp(s)`` and the leaky
    ReLU's output; 29.5 with each coupling an op chain; 31.5 with the vjp
    keeping its temporaries until it returned)."""
    model = build_model(default_run_config())
    joints = _default_batch_joints(model)
    tracemalloc.start()
    try:
        with Tape() as tape:
            tape.backward(loss_flow(model.flows, joints))
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19 * 2 ** 20, peak / 2 ** 20


def test_default_train_flow_batch_peaks_under_20_mib():
    """A default-config ``train_flow`` on one batch of 8 images, one epoch,
    peaks about 17.5 MiB above its start: each scale's loss is built and
    backpropagated on its own tape before the next scale's is built. It
    peaked 26.8 MiB above its start while the three scales shared one tape
    that kept every record until its backward ended."""
    model = build_model(default_run_config())
    model.transformer_trained = True
    rng = np.random.default_rng(0)
    images = [rng.random((model.enc_cfg.in_size,) * 2 + (3,)) for _ in range(8)]
    cfg = TrainConfig(stage1_epochs=0, stage2_epochs=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_flow(model, images, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.flow_trained
    assert peak - start <= 20 * 2 ** 20, (peak - start) / 2 ** 20


def test_loss_flow_stack_count_mismatch():
    rng = np.random.default_rng(0)
    stack = FlowStack(2, FlowConfig(n_blocks=1), rng)
    with pytest.raises(Exception):
        loss_flow([stack], [])


# ---------------------------------------------------------------------------
# stage separation


def test_stage1_leaves_flow_params_untouched():
    rc = tiny_run_config()
    model = build_model(rc)
    images = tiny_images(4)
    before = {k: v.data.copy() for k, v in model.flow_parameters().items()}
    train_transformer(model, images, rc.train)
    after = model.flow_parameters()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k].data)
    # flow params were never on the tape: no gradients accumulated
    assert all(after[k].grad is None for k in after)


def test_stage2_leaves_transformer_untouched():
    rc = tiny_run_config()
    model = build_model(rc)
    images = tiny_images(4)
    train_transformer(model, images, rc.train)
    before = {k: v.data.copy() for k, v in model.transformer_parameters().items()}
    train_flow(model, images, rc.train)
    after = model.transformer_parameters()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k].data)


def test_stage_parameter_sets_disjoint():
    model = build_model(tiny_run_config())
    t_keys = set(model.transformer_parameters())
    f_keys = set(model.flow_parameters())
    assert t_keys and f_keys
    assert not (t_keys & f_keys)
    assert set(model.parameters()) == t_keys | f_keys


def test_train_config_validation():
    # zero epochs skip a stage (the benchmark's score set-up fits with (0, 0))
    assert TrainConfig(stage1_epochs=0, stage2_epochs=0).stage1_epochs == 0
    nan, inf = float("nan"), float("inf")
    for bad in (dict(lr=nan), dict(lr=inf), dict(lr=0.0), dict(batch_size=0),
                dict(stage1_epochs=-3),
                dict(stage2_epochs=-1), dict(seed=-1)):
        with pytest.raises(ContractError):
            TrainConfig(**bad)


def test_flow_stage_requires_trained_transformer():
    rc = tiny_run_config()
    model = build_model(rc)
    with pytest.raises(ContractError):
        train_flow(model, tiny_images(2), rc.train)


def test_mixed_size_training_images_raise_shape_error():
    # a ShapeError naming the image, not numpy's ValueError from np.stack
    rc = tiny_run_config()
    images = tiny_images(3) + tiny_images(1, size=16)
    model = build_model(rc)
    with pytest.raises(ShapeError, match=r"training image 3 has shape \(16, 16, 3\)"):
        train_transformer(model, images, rc.train)
    train_transformer(model, images[:3], rc.train)
    # stage 2 runs the same check
    with pytest.raises(ShapeError, match=r"training image 3 has shape \(16, 16, 3\)"):
        train_flow(model, images, rc.train)


# ---------------------------------------------------------------------------
# batched stage 1: one forward over stacked pyramids


def perturbed_default_model(seed=0):
    """A default-config model whose transformer weights are moved off their
    initial values, so that every branch and memory table carries signal."""
    model = pipeline.Model()
    rng = np.random.default_rng(seed)
    for p in model.transformer_parameters().values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape).astype(p.data.dtype)
    return model


def stacked(pyramids):
    return [np.stack(maps) for maps in zip(*pyramids)]


def test_batched_reconstruct_equals_per_image_bit_for_bit():
    model = perturbed_default_model()
    images = tiny_images(8, size=64, seed=4)
    pyramids = [model.prior_features(im) for im in images]
    batch_s, batch_m = model.reconstruct(stacked(pyramids))
    assert batch_s[0].data.dtype == np.float32
    for b, pyr in enumerate(pyramids):
        single_s, single_m = model.reconstruct(pyr)
        for scale in range(len(pyr)):
            assert np.array_equal(batch_s[scale].data[b], single_s[scale].data), (b, scale)
            assert np.array_equal(batch_m[scale].data[b], single_m[scale].data), (b, scale)
    # joint collection runs the same batched forward
    per_image = stacked([model.joint_arrays(pyr, *model.reconstruct(pyr)) for pyr in pyramids])
    for got, want in zip(collect_joints(model, images), per_image):
        assert np.array_equal(got, want)


def test_batched_reconstruct_keeps_samples_apart():
    """Changing one sample's pyramid changes its own reconstructions and
    leaves every other sample's bit-identical."""
    model = perturbed_default_model(1)
    batch = stacked([model.prior_features(im) for im in tiny_images(6, size=64, seed=5)])
    base_s, base_m = model.reconstruct(batch)
    j = 2
    moved = [maps.copy() for maps in batch]
    for maps in moved:
        maps[j] += np.random.default_rng(6).normal(size=maps[j].shape).astype(maps.dtype)
    new_s, new_m = model.reconstruct(moved)
    others = [b for b in range(6) if b != j]
    for base, new in zip(base_s + base_m, new_s + new_m):
        assert np.array_equal(base.data[others], new.data[others])
    for base, new in zip(base_s, new_s):
        assert not np.array_equal(base.data[j], new.data[j])


def stage1_loss(model, pyramid):
    recon_s, recon_m = model.reconstruct(pyramid)
    return ad.add(recon_loss(pyramid, recon_s), recon_loss(pyramid, recon_m))


def stage1_grads(model, pyramid):
    params = list(model.transformer_parameters().values())
    reset_grads(params)
    with Tape() as tape:
        tape.backward(stage1_loss(model, pyramid))
    grads = [p.grad.copy() for p in params]
    reset_grads(params)
    return grads


def test_batched_stage1_gradients_equal_sum_of_per_sample_gradients():
    """Only the order of the batch sums differs (one GEMM over B*L rows
    instead of per-sample terms added on the tape), so float32 gradients
    agree to a few ulps of their scale."""
    model = perturbed_default_model(2)
    pyramids = [model.prior_features(im) for im in tiny_images(4, size=64, seed=8)]
    batched = stage1_grads(model, stacked(pyramids))
    summed = None
    for pyr in pyramids:
        grads = stage1_grads(model, pyr)
        summed = grads if summed is None else [a + g for a, g in zip(summed, grads)]
    grads = dict(zip(model.transformer_parameters(), zip(batched, summed)))
    for name, (got, want) in grads.items():
        if name.endswith("wk.b"):
            # a key bias shifts all logits of a query row alike, so softmax
            # cancels it: its exact gradient is zero and both sides hold
            # roundoff only, far below the key weights' gradient
            scale = np.abs(grads[name[:-1] + "w"][1]).max()
            assert max(np.abs(got).max(), np.abs(want).max()) < 1e-5 * scale, name
        else:
            assert max_rel_error(got, want) < 1e-5, name


def test_batched_stage1_gradcheck():
    """Finite differences confirm the tape gradients of the stage-1 loss of
    a stacked batch of two pyramids, for every transformer parameter."""
    with using_dtype(np.float64):
        model = pipeline.Model(
            enc_cfg=EncoderConfig(in_size=16, stage_channels=(2, 2, 4)),
            emb_cfg=PatchEmbedConfig(token_dim=12),
            attn_cfg=DualAttnConfig(depth=1, heads=2, mlp_ratio=1), seed=0)
        model.set_image_norm(np.zeros(3), np.ones(3))
        rng = np.random.default_rng(1)
        batch = stacked([model.prior_features(rng.random((16, 16, 3))) for _ in range(2)])
        worst = check_gradients(lambda: stage1_loss(model, batch),
                                list(model.transformer_parameters().values()), eps=1e-5)
    assert worst < GRAD_REL, worst


# ---------------------------------------------------------------------------
# training behavior


def test_same_seed_runs_identical():
    rc = tiny_run_config()
    images = tiny_images(4)
    logs_a, logs_b = [], []
    model_a = train(images, rc, log=lambda *row: logs_a.append(row))
    model_b = train(images, rc, log=lambda *row: logs_b.append(row))
    assert logs_a == logs_b
    pa, pb = model_a.parameters(), model_b.parameters()
    assert pa.keys() == pb.keys()
    for k in pa:
        np.testing.assert_array_equal(pa[k].data, pb[k].data)


def test_losses_decrease():
    rc = tiny_run_config(stage1_epochs=8, stage2_epochs=8)
    images = tiny_images(6)
    rows = []
    train(images, rc, log=lambda *row: rows.append(row))
    s1 = [r[2] + r[3] for r in rows if r[0] == "stage1"]
    s2 = [r[2] for r in rows if r[0] == "stage2"]
    assert np.mean(s1[-2:]) < np.mean(s1[:2])
    assert np.mean(s2[-2:]) < np.mean(s2[:2])
    assert all(np.isfinite(v) for v in s1 + s2)


def test_flow_input_stats_floor_and_values():
    images = [np.full((4, 4, 3), 0.25), np.full((4, 4, 3), 0.75)]
    (mean, std), = pipeline.flow_input_stats([np.stack(images)])
    np.testing.assert_allclose(mean, [0.5, 0.5, 0.5])
    np.testing.assert_allclose(std, [0.25, 0.25, 0.25])
    (mean, std), = pipeline.flow_input_stats([np.zeros((1, 2, 2, 3))])
    assert (std == 1e-6).all()


def test_flow_input_stats_match_a_float64_copy_bit_for_bit(rng):
    """Reducing a float32 or float64 stack a block of rows at a time onto a
    float64 total gives the bits of numpy's whole-stack reductions. The
    first shapes span several blocks, none a whole number of them; the last
    is less than one block; the float64 cases hold NaN, inf and -0.0."""
    for shape in [(16, 16, 16, 48), (8, 64, 64, 3), (24, 4, 4, 192), (7, 3, 5, 3)]:
        for dtype in (np.float32, np.float64):
            stack = rng.normal(1.0, 2.0, size=shape).astype(dtype)
            if dtype == np.float64:
                stack = with_specials(rng, shape, dtype)
            flat = stack.reshape(-1, shape[-1])
            with np.errstate(invalid="ignore"):
                (mean, std), = pipeline.flow_input_stats([stack])
                want_mean = flat.mean(axis=0, dtype=np.float64)
                want_std = np.maximum(flat.std(axis=0, dtype=np.float64), 1e-6)
            assert mean.dtype == std.dtype == np.float64
            assert_same_bits(mean, want_mean)
            assert_same_bits(std, want_std)


def test_flow_input_stats_pool_a_list_of_images_as_their_float_stack(rng):
    """A list of images counts as the stack of their values: uint8 rasters as
    ``raster / 255``, float images as they are, also when the two forms mix
    (a raw stack of such a list would read the rasters as 0 to 255)."""
    rasters = [rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8) for _ in range(9)]
    rasters[0][:2] = 0
    rasters[1][:2] = 255
    floats = [r / 255.0 for r in rasters]
    mixed = [r if i % 2 else f for i, (r, f) in enumerate(zip(rasters, floats))]
    (want_mean, want_std), = pipeline.flow_input_stats([np.stack(floats)])
    for images in (rasters, floats, mixed):
        (mean, std), = pipeline.flow_input_stats([images])
        assert_same_bits(mean, want_mean)
        assert_same_bits(std, want_std)
    assert 0.4 < want_mean.min() and want_mean.max() < 0.6


def test_flow_input_stats_hold_no_float64_copy(rng):
    """The statistics of a 3 MiB float32 stack allocate well under the
    6 MiB of its float64 copy: the squared deviations live one block at a
    time."""
    stack = rng.normal(size=(64, 16, 16, 48)).astype(np.float32)
    tracemalloc.start()
    try:
        pipeline.flow_input_stats([stack])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_image_statistics_hold_no_float64_stack(monkeypatch):
    """Stage 1's image statistics over 192 default-sized images, as 8-bit
    rasters or as float64 images, hold well under 2 MiB at their peak: the
    float64 stack of the images they replaced was 18.9 MB."""
    rng = np.random.default_rng(4)
    model = build_model(default_run_config())
    rasters = [rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8) for _ in range(192)]

    class StatsDone(Exception):
        pass

    def stop(mean, std):
        raise StatsDone

    monkeypatch.setattr(model, "set_image_norm", stop)
    for images in (rasters, [r / 255.0 for r in rasters]):
        tracemalloc.start()
        try:
            with pytest.raises(StatsDone):
                train_transformer(model, images, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


# ---------------------------------------------------------------------------
# 8-bit images: a raster and its float64 ``/ 255`` give the same bits


def test_prior_features_read_a_raster_as_its_float_values():
    model = build_model(default_run_config())
    model.set_image_norm(np.array([0.45, 0.5, 0.55]), np.array([0.2, 0.25, 0.3]))
    for seed in range(3):
        raster = np.random.default_rng(seed).integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        raster[0, :3] = 0
        raster[-1, :3] = 255
        for got, want in zip(model.prior_features(raster),
                             model.prior_features(raster / 255.0)):
            assert_same_bits(got, want)


@pytest.fixture(scope="module")
def small_loaded(tmp_path_factory):
    """The samples of a small 32x32 generated dataset, images as 8-bit rasters."""
    root = tmp_path_factory.mktemp("small8")
    generate(DatasetSpec(image_size=32, n_train=6, n_test_normal=1, n_test_anomalous=3,
                         seed=2), root)
    return load(root)


def test_rasters_and_mixed_lists_train_as_float_images(small_loaded, tmp_path):
    """Training on the loaded rasters, or on a list that mixes rasters with
    float images, gives the log rows and checkpoint bytes of training on the
    same images all given as float."""
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=1)
    rasters = [s.image for s in small_loaded if s.split == "train"]
    assert all(r.dtype == np.uint8 for r in rasters)
    floats = [r / 255.0 for r in rasters]
    mixed = [r if i % 2 else f for i, (r, f) in enumerate(zip(rasters, floats))]
    runs = []
    for name, images in (("float", floats), ("raster", rasters), ("mixed", mixed)):
        rows = []
        save_checkpoint(train(images, rc, log=lambda *row: rows.append(row)), rc,
                        tmp_path / name)
        runs.append((rows, (tmp_path / name).read_bytes()))
    assert runs[0][0] and runs[1] == runs[0] and runs[2] == runs[0]


def test_anomaly_map_of_a_loaded_sample_matches_its_float_image(small_loaded):
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=1)
    model = train([s.image for s in small_loaded if s.split == "train"], rc)
    for s in small_loaded:
        if s.split != "test":
            continue
        for mode in scoring.MODES:
            a = scoring.anomaly_map(model, s.image, mode)
            b = scoring.anomaly_map(model, s.image / 255.0, mode)
            for got, want in zip((a.scores, *a.per_scale), (b.scores, *b.per_scale)):
                assert_same_bits(got, want)
            assert a.image_score == b.image_score


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8, np.bool_])
def test_images_neither_uint8_nor_float_are_rejected(small_loaded, dtype):
    """Only uint8 counts as an 8-bit raster, so any other integer (or bool)
    image, which would enter the model as its raw values, fails in
    ``prior_features``, in stage 1's image statistics and in
    ``anomaly_map``. A float32 image passes, with its float64 form's bits."""
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=0)
    rasters = [s.image for s in small_loaded if s.split == "train"]
    model = build_model(rc)
    image = rasters[0].astype(dtype)
    match = f"must be uint8 or floating point, not {np.dtype(dtype)}"
    with pytest.raises(ContractError, match=match):
        model.prior_features(image)
    with pytest.raises(ContractError, match=match):
        train_transformer(model, [*rasters[1:], image], rc.train)
    train_transformer(model, rasters, rc.train)
    with pytest.raises(ContractError, match=match):
        scoring.anomaly_map(model, image, "recon_self")
    floats = rasters[0] / 255.0
    for got, want in zip(model.prior_features(floats.astype(np.float32)),
                         model.prior_features(floats)):
        assert_same_bits(got, want)


def test_images_that_are_not_arrays_are_rejected(small_loaded):
    """An image given as a nested list fails as ``ContractError`` in
    ``anomaly_map`` and in stage 1, not as a raw ``AttributeError`` from
    reading its ``ndim``."""
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=0)
    rasters = [s.image for s in small_loaded if s.split == "train"]
    model = build_model(rc)
    image = (rasters[0] / 255.0).tolist()
    match = "must be a numpy array, not list"
    with pytest.raises(ContractError, match=match):
        train_transformer(model, [*rasters[1:], image], rc.train)
    train_transformer(model, rasters, rc.train)
    with pytest.raises(ContractError, match=match):
        scoring.anomaly_map(model, image, "recon_self")


def test_batches_cover_every_index_once():
    rng = np.random.default_rng(0)
    seen = np.concatenate(list(pipeline._batches(10, 3, rng)))
    assert sorted(seen.tolist()) == list(range(10))


# ---------------------------------------------------------------------------
# variant plumbing


def test_switch_variant_shares_transformer():
    rc = tiny_run_config()
    images = tiny_images(4)
    model = train(images, rc)
    alt = pipeline.switch_variant(model, rc, "P")
    assert alt.variant == "P"
    assert not alt.flow_trained
    src, dst = model.transformer_parameters(), alt.transformer_parameters()
    for k in src:
        np.testing.assert_array_equal(src[k].data, dst[k].data)
    # channel widths: P sees one branch, D sees three
    assert alt.flows[0].channels * 3 == model.flows[0].channels


def test_joint_arrays_variant_selection():
    rc = tiny_run_config()
    model_p = build_model(replace(rc, flow=replace(rc.flow, variant="P")))
    model_d = build_model(rc)
    image = tiny_images(1)[0]
    pyr = model_d.prior_features(image)
    rs, rm = model_d.reconstruct(pyr)
    joints_p = model_p.joint_arrays(pyr, rs, rm)
    joints_d = model_d.joint_arrays(pyr, rs, rm)
    for jp, jd, base in zip(joints_p, joints_d, pyr):
        c = base.shape[-1]
        np.testing.assert_array_equal(jp, np.asarray(base))
        assert jd.shape[-1] == 3 * c
        np.testing.assert_array_equal(jd[..., :c], np.asarray(base))


# ---------------------------------------------------------------------------
# checkpoints


def trained_tiny_model():
    rc = tiny_run_config()
    model = train(tiny_images(4), rc)
    return model, rc


def test_checkpoint_roundtrip_bit_identical_maps(tmp_path):
    model, rc = trained_tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, rc, path)
    loaded, rc2 = load_checkpoint(path)
    assert rc2 == rc
    for img in tiny_images(5, seed=9):
        a = scoring.anomaly_map(model, img, "likelihood")
        b = scoring.anomaly_map(loaded, img, "likelihood")
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.image_score == b.image_score


def test_checkpoint_truncation_rejected(tmp_path):
    model, rc = trained_tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, rc, path)
    blob = path.read_bytes()
    for cut in (2, len(blob) // 2, len(blob) - 3):
        broken = tmp_path / f"cut{cut}.ckpt"
        broken.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(broken)


def test_checkpoint_bad_magic_and_trailing(tmp_path):
    model, rc = trained_tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, rc, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(blob + b"junk")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)


def _first_entry_dims_offset(blob: bytes) -> int:
    """Byte offset of the dims of the first array entry ("embed.0.w", rank 2)."""
    (name_len,) = struct.unpack_from("<H", blob, 12)
    assert blob[14:14 + name_len] == b"embed.0.w" and blob[15 + name_len] == 2
    return 16 + name_len


def _assert_rejected(path, match=None):
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)
    # the checkpoint is loaded before the image is opened
    assert main(["score", "--image", str(path), "--ckpt", str(path)]) == 1


def _saved(model, rc, tmp_path, name="m.ckpt"):
    path = tmp_path / name
    save_checkpoint(model, rc, path)
    return path


def test_checkpoint_dim_overflowing_int64_size_rejected(tmp_path):
    rc = tiny_run_config()
    blob = bytearray(_saved(build_model(rc), rc, tmp_path).read_bytes())
    struct.pack_into("<Q", blob, _first_entry_dims_offset(blob), 2 ** 61)
    (tmp_path / "big.ckpt").write_bytes(bytes(blob))
    _assert_rejected(tmp_path / "big.ckpt", match="exceed the file")


def test_checkpoint_dim_beyond_numpy_limit_rejected(tmp_path):
    rc = tiny_run_config()
    blob = bytearray(_saved(build_model(rc), rc, tmp_path).read_bytes())
    # a zero second dim makes the byte size 0, so only the dim check stops it
    struct.pack_into("<QQ", blob, _first_entry_dims_offset(blob), 2 ** 63, 0)
    (tmp_path / "huge.ckpt").write_bytes(bytes(blob))
    _assert_rejected(tmp_path / "huge.ckpt", match="exceed the file")


def test_checkpoint_non_utf8_name_rejected(tmp_path):
    rc = tiny_run_config()
    blob = bytearray(_saved(build_model(rc), rc, tmp_path).read_bytes())
    blob[14] = 0xFF
    (tmp_path / "name.ckpt").write_bytes(bytes(blob))
    _assert_rejected(tmp_path / "name.ckpt", match="not UTF-8")


def test_checkpoint_non_finite_parameter_rejected(tmp_path):
    rc = tiny_run_config()
    model = build_model(rc)
    model.parameters()["attn.memory0"].data[0, 0] = np.nan
    _assert_rejected(_saved(model, rc, tmp_path), match="non-finite")


def test_checkpoint_wrong_buffer_shape_rejected(tmp_path):
    rc = tiny_run_config()
    model = build_model(rc)
    model.norm_mean = np.zeros(5, dtype=np.float32)
    _assert_rejected(_saved(model, rc, tmp_path), match="norm.mean")


def test_checkpoint_bad_config_echo_rejected(tmp_path):
    rc = tiny_run_config()
    blob = _saved(build_model(rc), rc, tmp_path).read_bytes()
    # each replacement keeps the echo's length, which the file records
    for good, bad, match in ((b"heads = 2\n", b"heads = 0\n", "bad config echo"),
                             (b"lr = 0.0001\n", b"lr =    nan\n", "bad config echo"),
                             (b"clamp = 2.0\n", b"clamp = inf\n", "bad config echo"),
                             (b"stage1_epochs = 2\n", b"stage1_epochs =-3\n",
                              "bad config echo"),
                             (b"smooth_sigma = 4.0\n", b"smooth_sigma = -2.\n",
                              "bad config echo"),
                             (b"smooth_sigma = 4.0\n", b"smooth_sigma = 1e8\n",
                              "bad config echo"),
                             # configparser's [DEFAULT] is no config section
                             (b"[encoder]\n", b"[DEFAULT]\n",
                              r"bad config echo: unknown config section \[DEFAULT\]"),
                             (b"flow_trained = false", b"flow_trained = yes!!", "malformed")):
        assert blob.count(good) == 1 and len(good) == len(bad)
        (tmp_path / "cfg.ckpt").write_bytes(blob.replace(good, bad))
        _assert_rejected(tmp_path / "cfg.ckpt", match=match)


def test_build_model_rejects_heads_not_dividing_the_width():
    """The token width lives in ``patch_embed`` alone, so the heads are
    checked against it where the model is built."""
    rc = default_run_config()
    with pytest.raises(ContractError, match="token_dim 96 must divide over 5 heads"):
        build_model(replace(rc, attention=replace(rc.attention, heads=5)))


def test_checkpoint_echo_with_heads_not_dividing_the_width_rejected(tmp_path):
    rc = tiny_run_config()
    blob = _saved(build_model(rc), rc, tmp_path).read_bytes()
    assert blob.count(b"heads = 2\n") == 1
    (tmp_path / "heads.ckpt").write_bytes(blob.replace(b"heads = 2\n", b"heads = 5\n"))
    _assert_rejected(tmp_path / "heads.ckpt",
                     match="bad config echo: token_dim 24 must divide over 5 heads")


# echo splices that turn today's echo into one written before each key retired
RETIRED_KEYS = {
    # the variant was a [train] key
    "train.flow_variant": ((b"[flow]\nvariant = D\n", b"[flow]\n"),
                           (b"[train]\n", b"[train]\nflow_variant = D\n")),
    "attention.memorial_query_source": ((b"[attention]\n",
                                         b"[attention]\nmemorial_query_source = stream\n"),),
    "encoder.seed": ((b"[encoder]\n", b"[encoder]\nseed = 0\n"),),
    "train.weight_decay": ((b"\n\n[scoring]\n", b"\nweight_decay = 0.0\n\n[scoring]\n"),),
}


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_checkpoint_with_retired_key_rejected(tmp_path, capsys, key):
    rc = tiny_run_config()
    blob = _saved(build_model(rc), rc, tmp_path).read_bytes()
    start = blob.index(b"[encoder]")
    echo = blob[start:]
    for old, new in RETIRED_KEYS[key]:
        assert echo.count(old) == 1
        echo = echo.replace(old, new)
    path = tmp_path / "old.ckpt"
    path.write_bytes(blob[:start - 4] + struct.pack("<I", len(echo)) + echo)
    _assert_rejected(path, match=f"unknown config key {key}")
    capsys.readouterr()
    assert main(["eval", "--data", str(tmp_path), "--ckpt", str(path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_retired_key_rejected_in_config_file_and_override(tmp_path, capsys, key):
    section, name = key.split(".")
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[{section}]\n{name} = 0\n", encoding="ascii")
    for args in (["--config", str(cfg)], ["--set", f"{key}=0"]):
        assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt"),
                     *args]) == 1
        assert f"unknown config key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("section, values", [
    ("train", dict(lr=np.float64(1e-4))), ("flow", dict(clamp=np.float64(1.5))),
    ("scoring", dict(smooth_sigma=np.float64(2.5))),
    ("encoder", dict(stage_channels=[np.int64(4), 6, 8])),
    ("patch_embed", dict(patch_sizes=[4, 2, 1])), ("train", dict(seed=np.int32(3)))])
def test_numpy_and_list_config_values_round_trip(tmp_path, section, values):
    """Such values were built, trained and saved, and then the checkpoint's
    own echo was rejected on load."""
    rc = tiny_run_config()
    rc = replace(rc, **{section: replace(getattr(rc, section), **values)})
    _, loaded = load_checkpoint(_saved(build_model(rc), rc, tmp_path))
    assert loaded == rc and render_run_config(loaded) == render_run_config(rc)


@pytest.mark.parametrize("cls, values", [
    (TrainConfig, dict(seed=True)), (TrainConfig, dict(batch_size=2.5)),
    (TrainConfig, dict(lr="a")), (FlowConfig, dict(n_blocks=2.5)),
    (FlowConfig, dict(variant=["D"])), (DualAttnConfig, dict(depth=1.5)),
    (EncoderConfig, dict(in_size=64.0)), (EncoderConfig, dict(stage_channels=(16, 32.0, 64))),
    (PatchEmbedConfig, dict(patch_sizes=4)), (ScoringConfig, dict(smooth_sigma="x")),
    (DatasetSpec, dict(n_train=2.5)), (DatasetSpec, dict(seed=-1))])
def test_config_values_of_a_wrong_type_rejected(cls, values):
    with pytest.raises(ContractError):
        cls(**values)


# Every array name of ``tiny_run_config()``'s model in checkpoint order, the
# order of ``parameters()`` then ``buffers()``: the checkpoint's byte layout.
TINY_ARRAY_ORDER = """
    embed.0.w embed.0.b embed.1.w embed.1.b embed.2.w embed.2.b
    attn.block0.self.ln1.g attn.block0.self.ln1.b attn.block0.self.wq.w
    attn.block0.self.wq.b attn.block0.self.wk.w attn.block0.self.wk.b
    attn.block0.self.wv.w attn.block0.self.wv.b attn.block0.self.wo.w
    attn.block0.self.wo.b attn.block0.self.ln2.g attn.block0.self.ln2.b
    attn.block0.self.mlp1.w attn.block0.self.mlp1.b attn.block0.self.mlp2.w
    attn.block0.self.mlp2.b
    attn.block0.mem.lnq.g attn.block0.mem.lnq.b attn.block0.mem.lnkv.g
    attn.block0.mem.lnkv.b attn.block0.mem.wq.w attn.block0.mem.wq.b
    attn.block0.mem.wk.w attn.block0.mem.wk.b attn.block0.mem.wv.w attn.block0.mem.wv.b
    attn.block0.mem.wo.w attn.block0.mem.wo.b attn.block0.mem.ln2.g
    attn.block0.mem.ln2.b attn.block0.mem.mlp1.w attn.block0.mem.mlp1.b
    attn.block0.mem.mlp2.w attn.block0.mem.mlp2.b
    attn.memory0
    head.self.0.w head.self.0.b head.self.1.w head.self.1.b head.self.2.w head.self.2.b
    head.mem.0.w head.mem.0.b head.mem.1.w head.mem.1.b head.mem.2.w head.mem.2.b
    flow.0.layer0.dw.k flow.0.layer0.dw.b flow.0.layer0.pw1.w flow.0.layer0.pw1.b
    flow.0.layer0.pw2.w flow.0.layer0.pw2.b
    flow.0.layer1.dw.k flow.0.layer1.dw.b flow.0.layer1.pw1.w flow.0.layer1.pw1.b
    flow.0.layer1.pw2.w flow.0.layer1.pw2.b
    flow.1.layer0.dw.k flow.1.layer0.dw.b flow.1.layer0.pw1.w flow.1.layer0.pw1.b
    flow.1.layer0.pw2.w flow.1.layer0.pw2.b
    flow.1.layer1.dw.k flow.1.layer1.dw.b flow.1.layer1.pw1.w flow.1.layer1.pw1.b
    flow.1.layer1.pw2.w flow.1.layer1.pw2.b
    flow.2.layer0.dw.k flow.2.layer0.dw.b flow.2.layer0.pw1.w flow.2.layer0.pw1.b
    flow.2.layer0.pw2.w flow.2.layer0.pw2.b
    flow.2.layer1.dw.k flow.2.layer1.dw.b flow.2.layer1.pw1.w flow.2.layer1.pw1.b
    flow.2.layer1.pw2.w flow.2.layer1.pw2.b
    norm.mean norm.std flow.0.in_mean flow.0.in_std flow.1.in_mean flow.1.in_std
    flow.2.in_mean flow.2.in_std
""".split()


def test_checkpoint_array_order_is_pinned(tmp_path):
    rc = tiny_run_config()
    model = build_model(rc)
    assert [*model.parameters(), *model.buffers()] == TINY_ARRAY_ORDER
    blob = _saved(model, rc, tmp_path).read_bytes()
    positions = [blob.index(struct.pack("<H", len(n)) + n.encode()) for n in TINY_ARRAY_ORDER]
    assert positions == sorted(positions)


def test_checkpoint_with_two_subnet_couplings_rejected(tmp_path, capsys, monkeypatch):
    """A checkpoint written while each coupling had a scale and a shift
    subnet names their arrays ``layerK.s.*`` and ``layerK.t.*``: each the
    shape of today's coupling tensor of that name, but predicting one
    ``n_out``-wide field instead of both side by side."""
    rc = tiny_run_config()
    model = build_model(rc)
    params = {n: p for n, p in model.parameters().items() if ".layer" not in n}
    rng = np.random.default_rng(0)
    for i, stack in enumerate(model.flows):
        for k, c in enumerate(stack.couplings):
            for half in "st":
                for n, p in c.params().items():
                    shape = (*p.shape[:-1], c.n_out) if n.startswith("pw2") else p.shape
                    params[f"flow.{i}.layer{k}.{half}.{n}"] = Tensor(
                        rng.normal(size=shape).astype(p.data.dtype), requires_grad=True)
    assert "flow.0.layer0.s.dw.k" in params and "flow.0.layer0.t.pw2.b" in params
    monkeypatch.setattr(model, "parameters", lambda: params)
    path = _saved(model, rc, tmp_path, "old.ckpt")
    _assert_rejected(path, match="array names do not match")
    capsys.readouterr()
    assert main(["eval", "--data", str(tmp_path), "--ckpt", str(path)]) == 1
    assert "layer0.s.dw.k" in capsys.readouterr().err


def test_checkpoint_non_positive_std_rejected(tmp_path):
    rc = tiny_run_config()
    model = build_model(rc)
    model.norm_std = np.zeros(3, dtype=np.float32)
    _assert_rejected(_saved(model, rc, tmp_path), match="std must be positive")


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_fit_rejects_non_finite_statistics(tmp_path):
    # one NaN image used to give NaN norm and flow statistics, and a
    # checkpoint that load_checkpoint refuses
    rc = tiny_run_config(stage1_epochs=0, stage2_epochs=0)
    images = tiny_images(3)
    images[1] = images[1].copy()
    images[1][0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        train(images, rc)
    model = build_model(rc)
    stack = model.flows[0]
    ones = np.ones(stack.channels)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            model.set_image_norm(np.array([0.5, bad, 0.5]), np.ones(3))
        with pytest.raises(NumericError):
            model.set_image_norm(np.full(3, 0.5), np.array([1.0, 1.0, bad]))
        with pytest.raises(NumericError):
            stack.standardize.set_stats(ones * bad, ones)
        with pytest.raises(NumericError):
            stack.standardize.set_stats(ones, ones * bad)
    # statistics are checked as cast to the model's float32: 1e39 is inf
    # there, and 1e-50 is 0
    with pytest.raises(NumericError):
        stack.standardize.set_stats(ones * 1e39, ones)
    with pytest.raises(ContractError, match="image normalization std must be positive"):
        model.set_image_norm(np.full(3, 0.5), np.full(3, 1e-50))
    # a finite 0-epoch fit still writes a checkpoint that loads
    save_checkpoint(train(tiny_images(2), rc), rc, tmp_path / "m.ckpt")
    load_checkpoint(tmp_path / "m.ckpt")


def test_both_training_stages_refuse_an_empty_image_list():
    """Stage 2 and its joint collection run stage 1's image check; an empty
    list once reached the patch embedding as a pyramid of no maps."""
    rc = tiny_run_config(stage1_epochs=1)
    model = build_model(rc)
    with pytest.raises(ContractError, match="training needs at least one image"):
        train_transformer(model, [], rc.train)
    train_transformer(model, tiny_images(2), rc.train)
    with pytest.raises(ContractError, match="training needs at least one image"):
        train_flow(model, [], rc.train)
    with pytest.raises(ContractError, match="training needs at least one image"):
        collect_joints(model, [])


def test_fit_rejects_non_finite_loss():
    """A NaN weight makes the first batch's loss non-finite: stage 1 stops
    at its per-batch loss check, stage 2 at the flow's per-stage check,
    which fires before the loss is formed."""
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=1)
    images = tiny_images(4)
    model = build_model(rc)
    model.transformer_parameters()["attn.memory0"].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite loss"):
        train_transformer(model, images, rc.train)

    model = build_model(rc)
    train_transformer(model, images, rc.train)
    weight = next(iter(model.flow_parameters().values()))
    weight.data.flat[0] = np.nan
    with pytest.raises(NumericError, match="non-finite values after flow stage"):
        train_flow(model, images, rc.train)


def test_fit_rejects_non_finite_stage2_loss(monkeypatch):
    """A non-finite flow loss stops stage 2 at the loop's loss check, before
    backward and the step: no flow weight moves and no epoch is logged."""
    rc = tiny_run_config(stage1_epochs=1, stage2_epochs=1)
    images = tiny_images(4)
    model = build_model(rc)
    train_transformer(model, images, rc.train)
    before = {k: v.data.copy() for k, v in model.flow_parameters().items()}
    real = pipeline.loss_flow
    monkeypatch.setattr(pipeline, "loss_flow",
                        lambda stacks, joints: ad.mul(real(stacks, joints), np.nan))
    rows = []
    with pytest.raises(NumericError, match="non-finite loss in flow training"):
        train_flow(model, images, rc.train, log=lambda *row: rows.append(row))
    assert rows == []
    for k, v in model.flow_parameters().items():
        np.testing.assert_array_equal(v.data, before[k])


def test_epoch_log_contract(monkeypatch):
    """One row per epoch per stage, epochs in order; stage 1 logs both
    branch losses, stage 2 the flow loss; every value is a built-in float
    (a numpy scalar would print as np.float64(...) in the CLI's TSV), the
    mean of the batch values summed in batch order; stage 2 calls
    ``loss_flow`` once per scale, and its batch value is the float32 sum of
    the three scales' losses, in scale order; no row for a stage with zero
    epochs."""
    batch_losses = []
    real = pipeline.loss_flow

    def recording_loss_flow(stacks, joints):
        assert len(stacks) == len(joints) == 1
        loss = real(stacks, joints)
        batch_losses.append(loss.data)
        return loss

    monkeypatch.setattr(pipeline, "loss_flow", recording_loss_flow)
    images = tiny_images(5)  # batches of 2, 2 and 1
    rows = []
    train(images, tiny_run_config(stage1_epochs=3, stage2_epochs=2),
          log=lambda *row: rows.append(row))
    assert [r[:2] for r in rows] == [("stage1", 0), ("stage1", 1), ("stage1", 2),
                                     ("stage2", 0), ("stage2", 1)]
    assert [len(r) for r in rows] == [4, 4, 4, 3, 3]
    assert all(type(v) is float for r in rows for v in r[2:])
    assert len(batch_losses) == 2 * 3 * 3  # epochs, batches, scales
    for epoch, row in enumerate(rows[3:]):
        total = 0.0
        for b in range(3):
            t0, t1, t2 = batch_losses[9 * epoch + 3 * b:9 * epoch + 3 * b + 3]
            assert t0.dtype == np.float32
            total += float((t0 + t1) + t2)
        assert row[2] == total / 3

    for epochs, stages in (((0, 0), []), ((1, 0), ["stage1"]), ((0, 1), ["stage2"])):
        rows = []
        train(images, tiny_run_config(stage1_epochs=epochs[0], stage2_epochs=epochs[1]),
              log=lambda *row: rows.append(row))
        assert [r[0] for r in rows] == stages
