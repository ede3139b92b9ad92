"""Frozen extractor and tokenization tests, including a receptive-field
oracle derived independently from the conv stack geometry."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import assert_same_bits, permute, reshape, tiny_run_config, with_specials

from dualflow import autodiff as ad
from dualflow.autodiff import Tape, Tensor, using_dtype
from dualflow.encoder import (PATCH_SIZES, EncoderConfig, FrozenEncoder, PatchEmbed,
                              PatchEmbedConfig, _conv3x3_s2, patchify, position_encoding,
                              unpatchify)
from dualflow.errors import ContractError, ShapeError
from dualflow.pipeline import build_model
from dualflow.selftest import conv3x3_s2_loop


def unpatchify_np(rows: np.ndarray, p: int, h: int, w: int, c: int) -> np.ndarray:
    """Plain-numpy inverse of ``patchify``, the oracle for the tape op."""
    gy, gx = h // p, w // p
    out = rows.reshape(gy, gx, p, p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(out).reshape(h, w, c)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_frozen_conv_matches_np_pad_form():
    """The one stacked product over the nine taps equals the bias plus nine
    ``np.tensordot``s of the ``np.pad``-ed map, added tap by tap, bit for
    bit: on a non-square map and on every conv of the default and the
    small encoder, with zeros, -0.0, denormals, infinities and NaN."""
    rng = np.random.default_rng(4)
    for shape, cout in (((8, 10, 3), 5), ((64, 64, 3), 16), ((32, 32, 16), 16),
                        ((16, 16, 16), 32), ((8, 8, 32), 64), ((32, 32, 3), 4),
                        ((16, 16, 4), 4), ((8, 8, 4), 6), ((4, 4, 6), 8)):
        x = with_specials(rng, shape, np.float32)
        w = with_specials(rng, (3, 3, shape[-1], cout), np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        assert_same_bits(_conv3x3_s2(x, w, b), conv3x3_s2_loop(x, w, b))


def test_config_validation():
    with pytest.raises(ContractError):
        EncoderConfig(in_size=60)
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(16, 32))
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(0, 32, 64))
    for token_dim in (0, -12, 18, 20):  # 4 sin/cos columns per grid axis over 3 scales
        with pytest.raises(ContractError, match="token_dim must be a positive multiple of 12"):
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


def unpatchify_chain(rows, p, h, w, c):
    """The op chain the one-op ``unpatchify`` replaced, and its oracle."""
    lead = rows.shape[:-2]
    n = len(lead)
    x = reshape(rows, lead + (h // p, w // p, p, p, c))
    x = permute(x, (*range(n), n, n + 2, n + 1, n + 3, n + 4))
    return reshape(x, lead + (h, w, c))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unpatchify_matches_op_chain_bit_for_bit(lead, dtype):
    """The one-op ``unpatchify`` and its ``patchify`` vjp give the chain's
    map and row gradient bit for bit, NaN payloads and -0.0 included, for
    the default heads' patch sizes and with leading (batch) axes."""
    rng = np.random.default_rng(len(lead))
    for p, size, c in ((4, 16, 5), (2, 8, 3), (1, 4, 2)):
        rows = with_specials(rng, lead + ((size // p) ** 2, p * p * c), dtype)
        cotangent = with_specials(rng, lead + (size, size, c), dtype)
        got = []
        with using_dtype(dtype):
            for fn in (unpatchify, unpatchify_chain):
                x = Tensor(rows, requires_grad=True)
                with Tape() as tape:
                    out = fn(x, p, size, size, c)
                    tape.backward(ad.sum_all(ad.mul(out, cotangent)))
                got.append((out.data, x.grad))
        for fused, chained in zip(*got):
            assert_same_bits(fused, chained)


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


def _small_pyramid(rng, grid=2, channels=(4, 6, 8)):
    """A 3-scale pyramid of a ``16 * grid`` image: maps of side 4, 2 and 1
    times ``grid``, so one token per cell of the last map."""
    return [rng.random((grid * p, grid * p, c)) for p, c in zip(PATCH_SIZES, channels)]


def test_patch_sizes_are_the_stride_ratios():
    assert PATCH_SIZES == (4, 2, 1)


@pytest.mark.parametrize("in_size", [16, 32, 64, 128])
def test_model_tokens_are_the_stride_16_cells(in_size, rng):
    """Every scale of a built model's pyramid yields one token per cell of
    its stride-16 map, and so does the embedding."""
    rc = tiny_run_config()
    model = build_model(replace(rc, encoder=replace(rc.encoder, in_size=in_size)))
    pyramid = model.prior_features(rng.random((in_size, in_size, 3)))
    length = (in_size // 16) ** 2
    for fmap, p in zip(pyramid, PATCH_SIZES):
        assert patchify(fmap, p).shape[0] == length
    assert model.embed(pyramid).shape == (length, rc.patch_embed.token_dim)


def test_patch_embed_is_linear_at_init(rng):
    with using_dtype(np.float64):
        embed = PatchEmbed((4, 6, 8), PatchEmbedConfig(token_dim=12), np.random.default_rng(1))
        pyr = _small_pyramid(rng)
        one = embed(pyr).data
        three = embed([3.0 * m for m in pyr]).data
        np.testing.assert_allclose(three, 3.0 * one, rtol=1e-5, atol=1e-12)


def test_patch_embed_rejects_wrong_size_maps(rng):
    """Without a token-count check of its own, a pyramid of wrong-size maps
    still fails as ``ShapeError``: unequal token counts at the concatenation,
    a map not divisible into patches at ``patchify``, a missing scale at the
    scale count."""
    embed = PatchEmbed((4, 6, 8), PatchEmbedConfig(token_dim=12), np.random.default_rng(1))
    good = _small_pyramid(rng)
    for pyr in (good[:2] + [rng.random((4, 4, 8))], [rng.random((6, 6, 4))] + good[1:],
                good[:2]):
        with pytest.raises(ShapeError):
            embed(pyr)


def test_patch_embed_gradients_reach_heads(rng):
    embed = PatchEmbed((4, 6, 8), PatchEmbedConfig(token_dim=12), np.random.default_rng(1))
    with ad.Tape() as tape:
        tokens = embed(_small_pyramid(rng))
        tape.backward(ad.sum_all(ad.mul(tokens, tokens)))
    for w, b in embed.heads:
        assert w.grad is not None and np.abs(w.grad).max() > 0
        assert b.grad is not None
