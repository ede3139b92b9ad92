"""Training objectives, stage schedule, and checkpoint round-trips."""

import math
import struct

import numpy as np
import pytest
from helpers import tiny_images, tiny_run_config

from dualflow import pipeline, scoring
from dualflow.autodiff import Tensor
from dualflow.checkpoint import load_checkpoint, save_checkpoint
from dualflow.cli import main
from dualflow.errors import CheckpointError, ContractError, NumericError
from dualflow.flow import FlowConfig, FlowStack
from dualflow.gradcheck import check_gradients
from dualflow.pipeline import (TrainConfig, build_model, loss_flow, recon_loss, train,
                               train_flow, train_transformer)


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
    assert TrainConfig(stage1_epochs=0, stage2_epochs=0, weight_decay=0.0).stage1_epochs == 0
    nan, inf = float("nan"), float("inf")
    for bad in (dict(lr=nan), dict(lr=inf), dict(lr=0.0), dict(batch_size=0),
                dict(weight_decay=-1.0), dict(weight_decay=nan), dict(stage1_epochs=-3),
                dict(stage2_epochs=-1), dict(seed=-1), dict(flow_variant="Q")):
        with pytest.raises(ContractError):
            TrainConfig(**bad)


def test_flow_stage_requires_trained_transformer():
    rc = tiny_run_config()
    model = build_model(rc)
    with pytest.raises(ContractError):
        train_flow(model, tiny_images(2), rc.train)


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


def test_epoch_column_monotone():
    rc = tiny_run_config()
    rows = []
    train(tiny_images(3), rc, log=lambda *row: rows.append(row))
    for stage in ("stage1", "stage2"):
        epochs = [r[1] for r in rows if r[0] == stage]
        assert epochs == sorted(epochs)


def test_image_norm_stats_floor_and_values():
    images = [np.full((4, 4, 3), 0.25), np.full((4, 4, 3), 0.75)]
    mean, std = pipeline.image_norm_stats(images)
    np.testing.assert_allclose(mean, [0.5, 0.5, 0.5])
    np.testing.assert_allclose(std, [0.25, 0.25, 0.25])
    mean, std = pipeline.image_norm_stats([np.zeros((2, 2, 3))])
    assert (std == 1e-6).all()


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
    model = build_model(rc)
    model.set_image_norm(np.zeros(3), np.ones(3))
    image = tiny_images(1)[0]
    pyr = model.prior_features(image)
    rs, rm = model.reconstruct(pyr)
    joints_p = model.joint_arrays(pyr, rs, rm, variant="P")
    joints_d = model.joint_arrays(pyr, rs, rm, variant="D")
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
                             (b"flow_trained = false", b"flow_trained = yes!!", "malformed")):
        assert blob.count(good) == 1 and len(good) == len(bad)
        (tmp_path / "cfg.ckpt").write_bytes(blob.replace(good, bad))
        _assert_rejected(tmp_path / "cfg.ckpt", match=match)


def test_checkpoint_non_positive_std_rejected(tmp_path):
    rc = tiny_run_config()
    model = build_model(rc)
    model.norm_std = np.zeros(3, dtype=np.float32)
    _assert_rejected(_saved(model, rc, tmp_path), match="std must be positive")


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
    # a finite 0-epoch fit still writes a checkpoint that loads
    save_checkpoint(train(tiny_images(2), rc), rc, tmp_path / "m.ckpt")
    load_checkpoint(tmp_path / "m.ckpt")
