"""Frozen extractor and tokenization tests, including a receptive-field
oracle derived independently from the conv stack geometry."""

import numpy as np
import pytest
from helpers import assert_same_bits, with_specials

from dualflow import autodiff as ad
from dualflow.autodiff import Tensor, using_dtype
from dualflow.encoder import (EncoderConfig, FrozenEncoder, PatchEmbed, PatchEmbedConfig,
                              _conv3x3_s2, patchify, position_encoding, unpatchify)
from dualflow.errors import ContractError, ShapeError


def unpatchify_np(rows: np.ndarray, p: int, h: int, w: int, c: int) -> np.ndarray:
    """Plain-numpy inverse of ``patchify``, the oracle for the tape op."""
    gy, gx = h // p, w // p
    out = rows.reshape(gy, gx, p, p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(out).reshape(h, w, c)


def conv3x3_s2_np_pad(x, w, b):
    """The stride-2 conv as it was written with ``np.pad``."""
    ho, wo = x.shape[0] // 2, x.shape[1] // 2
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(b, (ho, wo, w.shape[-1])).copy()
    for dy in range(3):
        for dx in range(3):
            patch = xp[dy:dy + 2 * ho - 1:2, dx:dx + 2 * wo - 1:2, :]
            out += np.tensordot(patch, w[dy, dx], axes=([-1], [0]))
    return out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_frozen_conv_matches_np_pad_form():
    rng = np.random.default_rng(4)
    x = with_specials(rng, (8, 10, 3), np.float32)
    w = rng.normal(size=(3, 3, 3, 5)).astype(np.float32)
    b = rng.normal(size=5).astype(np.float32)
    assert_same_bits(_conv3x3_s2(x, w, b), conv3x3_s2_np_pad(x, w, b))


def test_config_validation():
    with pytest.raises(ContractError):
        EncoderConfig(in_size=60)
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(16, 32))
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(0, 32, 64))
    for token_dim in (0, -12):
        with pytest.raises(ContractError):
            PatchEmbedConfig(token_dim=token_dim)


def test_pyramid_shapes_and_dtype():
    cfg = EncoderConfig()
    enc = FrozenEncoder(cfg)
    img = np.zeros((64, 64, 3))
    f1, f2, f3 = enc(img)
    assert f1.shape == (16, 16, 16)
    assert f2.shape == (8, 8, 32)
    assert f3.shape == (4, 4, 64)
    assert f1.dtype == np.float32


def test_zero_image_gives_bias_driven_nonzero_pyramid():
    enc = FrozenEncoder(EncoderConfig())
    maps_a = enc(np.zeros((64, 64, 3)))
    maps_b = enc(np.zeros((64, 64, 3)))
    assert any(np.abs(m).max() > 0 for m in maps_a)
    for a, b in zip(maps_a, maps_b):
        np.testing.assert_array_equal(a, b)


def test_seed_determinism_and_variation(rng):
    """The weights come from one fixed seed: every build gives the same
    pyramid, and only the image varies it."""
    img = rng.random((64, 64, 3))
    same = [FrozenEncoder(EncoderConfig())(img) for _ in range(2)]
    for a, b in zip(*same):
        np.testing.assert_array_equal(a, b)
    other = FrozenEncoder(EncoderConfig())(rng.random((64, 64, 3)))
    assert any(np.abs(a - o).max() > 1e-6 for a, o in zip(same[0], other))


def test_encoder_holds_no_learnable_tensors():
    enc = FrozenEncoder(EncoderConfig())
    for w, b in enc.weights:
        assert isinstance(w, np.ndarray) and isinstance(b, np.ndarray)


def test_receptive_field_of_stride4_tap(rng):
    """Two 3x3 stride-2 convs compose to a 7x7 window with stride 4: output
    (i, j) may only see input rows 4i-3 .. 4i+3 and likewise for columns."""
    enc = FrozenEncoder(EncoderConfig())
    base = rng.random((64, 64, 3))
    ref = enc(base)[0]
    for y, x in [(0, 0), (31, 17), (63, 63), (20, 41)]:
        bumped = base.copy()
        bumped[y, x] += 1.0
        diff = np.abs(enc(bumped)[0] - ref).sum(axis=-1)
        changed = np.argwhere(diff > 0)
        assert changed.size > 0
        lo_y, hi_y = np.ceil((y - 3) / 4), np.floor((y + 3) / 4)
        lo_x, hi_x = np.ceil((x - 3) / 4), np.floor((x + 3) / 4)
        assert changed[:, 0].min() >= lo_y and changed[:, 0].max() <= hi_y
        assert changed[:, 1].min() >= lo_x and changed[:, 1].max() <= hi_x


def test_patchify_roundtrip(rng):
    fmap = rng.random((8, 8, 5))
    rows = patchify(fmap, 2)
    assert rows.shape == (16, 20)
    np.testing.assert_array_equal(unpatchify_np(rows, 2, 8, 8, 5), fmap)


def test_unpatchify_tape_op_matches_numpy(rng):
    with using_dtype(np.float64):
        rows = rng.random((16, 12))
        out = unpatchify(Tensor(rows), 2, 8, 8, 3)
        np.testing.assert_array_equal(out.data, unpatchify_np(rows, 2, 8, 8, 3))


def test_patchify_rejects_indivisible():
    with pytest.raises(ShapeError):
        patchify(np.zeros((6, 6, 2)), 4)


def test_position_encoding_rows_distinct_and_bounded():
    pe = position_encoding(16, 96)
    assert pe.shape == (16, 96)
    assert pe.min() >= -1.0 and pe.max() <= 1.0
    assert len({row.tobytes() for row in pe}) == 16
    np.testing.assert_array_equal(pe, position_encoding(16, 96))


def test_position_encoding_validation():
    with pytest.raises(ContractError):
        position_encoding(15, 96)
    with pytest.raises(ContractError):
        position_encoding(16, 90)


def test_patch_embed_token_shape_and_scale_mixing(rng):
    enc = FrozenEncoder(EncoderConfig())
    embed = PatchEmbed((16, 32, 64), PatchEmbedConfig(), np.random.default_rng(0))
    tokens = embed(enc(rng.random((64, 64, 3))))
    assert tokens.shape == (16, 96)


def test_patch_embed_is_linear_at_init(rng):
    with using_dtype(np.float64):
        embed = PatchEmbed((4, 8), PatchEmbedConfig(patch_sizes=(2, 1), token_dim=16),
                           np.random.default_rng(1))
        pyr = [rng.random((4, 4, 4)), rng.random((2, 2, 8))]
        one = embed(pyr).data
        three = embed([3.0 * m for m in pyr]).data
        np.testing.assert_allclose(three, 3.0 * one, rtol=1e-5, atol=1e-12)


def test_patch_embed_rejects_unequal_token_counts(rng):
    embed = PatchEmbed((4, 8), PatchEmbedConfig(patch_sizes=(2, 2), token_dim=16),
                       np.random.default_rng(1))
    with pytest.raises(ShapeError):
        embed([rng.random((4, 4, 4)), rng.random((2, 2, 8))])


def test_patch_embed_gradients_reach_heads(rng):
    embed = PatchEmbed((4,), PatchEmbedConfig(patch_sizes=(2,), token_dim=8),
                       np.random.default_rng(1))
    pyr = [rng.random((4, 4, 4))]
    with ad.Tape() as tape:
        tokens = embed(pyr)
        tape.backward(ad.sum_all(ad.mul(tokens, tokens)))
    w, b = embed.heads[0]
    assert w.grad is not None and np.abs(w.grad).max() > 0
    assert b.grad is not None
