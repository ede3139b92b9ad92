"""Dual-attention behavior: the fused heads against a per-head loop,
stochastic attention rows, permutation equivariance, memory-stream
isolation, and an independent pseudo-inverse oracle for the output heads."""

import numpy as np
import pytest

from dualflow import autodiff as ad
from dualflow.autodiff import Tape, Tensor, using_dtype
from dualflow.attention import (DualAttention, DualAttnConfig, MemorialBlock, OutputHeads,
                                SelfBlock, _multi_head)
from dualflow.encoder import patchify, position_encoding
from dualflow.errors import ContractError


CFG = DualAttnConfig(depth=2, heads=4, token_dim=96)


def record_attention(monkeypatch) -> list:
    """Collect the weights of every attention softmax into the returned list."""
    softmax = ad.softmax_rows
    weights = []

    def recording(logits):
        out = softmax(logits)
        weights.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "softmax_rows", recording)
    return weights


def freeze_attention(monkeypatch) -> None:
    """Replace every attention's logits by the constant 0 (uniform weights,
    no path back to the logits)."""
    softmax = ad.softmax_rows
    monkeypatch.setattr(ad, "softmax_rows",
                        lambda logits: softmax(Tensor(np.zeros_like(logits.data))))


def make_tokens(rng, length=16, dim=96):
    return Tensor(rng.normal(size=(length, dim)).astype(np.float64))


def multi_head_loop(q, k, v, heads):
    """Scaled dot-product attention one head at a time on (L, dim) tensors:
    slice each head's columns, attend, concatenate. The oracle of the fused
    ``_multi_head``."""
    dh = q.shape[-1] // heads
    scale = 1.0 / np.sqrt(dh)
    outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (ad.take_last(t, lo, hi) for t in (q, k, v))
        logits = ad.mul(ad.matmul(qh, ad.permute(kh, (1, 0))), scale)
        outs.append(ad.matmul(ad.softmax_rows(logits), vh))
    return ad.concat_last(outs)


def test_fused_heads_match_per_head_loop_bit_for_bit(rng):
    """Output and q/k/v gradients of the fused heads equal the loop's exactly
    in the default float32 build at the default width."""
    length, dim, heads = 16, CFG.token_dim, CFG.heads
    data = [rng.normal(size=(length, dim)).astype(np.float32) for _ in range(3)]
    cotangent = Tensor(rng.normal(size=(length, dim)).astype(np.float32))
    results = []
    for attend in (_multi_head, multi_head_loop):
        q, k, v = (Tensor(d, requires_grad=True) for d in data)
        with Tape() as tape:
            out = attend(q, k, v, heads)
            tape.backward(ad.sum_all(ad.mul(out, cotangent)))
        results.append([out.data, q.grad, k.grad, v.grad])
    assert results[0][0].dtype == np.float32
    for fused, looped, name in zip(*results, ("out", "dq", "dk", "dv")):
        assert np.array_equal(fused, looped), name


def test_batched_heads_match_per_sample_loop_bit_for_bit(rng):
    """On (B, L, dim) operands the fused heads give each sample the output
    and q/k/v gradients of its own unbatched call, bit for bit in float32."""
    batch, length, dim, heads = 5, 16, CFG.token_dim, CFG.heads
    data = [rng.normal(size=(batch, length, dim)).astype(np.float32) for _ in range(3)]
    cotangent = rng.normal(size=(batch, length, dim)).astype(np.float32)

    def attend(q_data, k_data, v_data, g):
        q, k, v = (Tensor(d, requires_grad=True) for d in (q_data, k_data, v_data))
        with Tape() as tape:
            out = _multi_head(q, k, v, heads)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        return [out.data, q.grad, k.grad, v.grad]

    batched = attend(*data, cotangent)
    assert batched[0].shape == (batch, length, dim) and batched[0].dtype == np.float32
    for b in range(batch):
        single = attend(*(d[b] for d in data), cotangent[b])
        for got, want, name in zip(batched, single, ("out", "dq", "dk", "dv")):
            assert np.array_equal(got[b], want), (b, name)


def test_config_validation():
    with pytest.raises(ContractError):
        DualAttnConfig(heads=5, token_dim=96)
    with pytest.raises(ContractError):
        DualAttnConfig(heads=0, token_dim=96)
    with pytest.raises(ContractError):
        DualAttnConfig(heads=4, token_dim=0)
    with pytest.raises(ContractError):
        DualAttnConfig(mlp_ratio=0)


def test_attention_rows_stochastic_everywhere(rng, monkeypatch):
    with using_dtype(np.float64):
        model = DualAttention(CFG, 16, np.random.default_rng(0))
        weights = record_attention(monkeypatch)
        model(make_tokens(rng))
        # one (heads, L, L) weight stack per block of both branches
        assert len(weights) == 2 * CFG.depth
        for w in weights:
            assert w.shape == (CFG.heads, 16, 16)
            assert (w >= 0).all()
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)


def test_self_block_permutation_equivariance(rng):
    with using_dtype(np.float64):
        blk = SelfBlock(DualAttnConfig(depth=1, heads=2, token_dim=8), np.random.default_rng(1))
        x = rng.normal(size=(4, 8))
        perm = np.array([2, 0, 3, 1])
        out = blk(Tensor(x)).data
        out_p = blk(Tensor(x[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def test_self_block_identity_with_zero_output_projections(rng):
    with using_dtype(np.float64):
        blk = SelfBlock(DualAttnConfig(depth=1, heads=2, token_dim=8), np.random.default_rng(1))
        blk.wo[0].data[:] = 0.0
        blk.wo[1].data[:] = 0.0
        blk.mlp2[0].data[:] = 0.0
        blk.mlp2[1].data[:] = 0.0
        x = rng.normal(size=(4, 8))
        np.testing.assert_allclose(blk(Tensor(x)).data, x, atol=1e-12)


def test_memorial_output_in_convex_hull_of_normed_memory(rng, monkeypatch):
    """With identity value/output projections and a zeroed MLP, each update
    row must equal attention-weighted rows of LN(memory)."""
    with using_dtype(np.float64):
        cfg = DualAttnConfig(depth=1, heads=1, token_dim=8)
        blk = MemorialBlock(cfg, np.random.default_rng(2))
        eye = np.eye(8)
        blk.wv[0].data[:] = eye
        blk.wv[1].data[:] = 0.0
        blk.wo[0].data[:] = eye
        blk.wo[1].data[:] = 0.0
        blk.mlp2[0].data[:] = 0.0
        blk.mlp2[1].data[:] = 0.0
        q_src = Tensor(rng.normal(size=(5, 8)))
        mem = Tensor(rng.normal(size=(5, 8)))
        weights = record_attention(monkeypatch)
        out = blk(q_src, mem).data
        mem_n = ad.layer_norm(mem, *blk.norms["lnkv"]).data
        (stack,) = weights
        (attn,) = stack  # the single head's weights
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
        assert (attn >= 0).all()
        np.testing.assert_allclose(out - mem.data, attn @ mem_n, atol=1e-10)


def test_memorial_query_shift_invariance(rng):
    """Adding a constant to every entry of the query source is absorbed by
    its layer norm."""
    with using_dtype(np.float64):
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2, token_dim=8),
                            np.random.default_rng(3))
        q = rng.normal(size=(4, 8))
        mem = Tensor(rng.normal(size=(4, 8)))
        a = blk(Tensor(q), mem).data
        b = blk(Tensor(q + 7.5), mem).data
        np.testing.assert_allclose(a, b, atol=1e-5)


def test_memorial_independent_of_input_with_frozen_attention(rng, monkeypatch):
    """Clamping attention logits to a constant severs the only path from the
    feature stream into the memorial output."""
    with using_dtype(np.float64):
        model = DualAttention(CFG, 16, np.random.default_rng(4))
        freeze_attention(monkeypatch)
        _, mem_a = model(make_tokens(np.random.default_rng(10)))
        _, mem_b = model(make_tokens(np.random.default_rng(11)))
        np.testing.assert_array_equal(mem_a.data, mem_b.data)


def test_memorial_value_path_carries_no_input_gradient(rng, monkeypatch):
    """With detached logits the memorial output still varies with the input
    only through attention; its gradient w.r.t. the input must vanish."""
    with using_dtype(np.float64):
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2, token_dim=8),
                            np.random.default_rng(5))
        softmax = ad.softmax_rows
        monkeypatch.setattr(ad, "softmax_rows", lambda logits: softmax(Tensor(logits.data)))
        q = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        mem = Tensor(rng.normal(size=(4, 8)))
        with Tape() as tape:
            out = blk(q, mem)
            tape.backward(ad.sum_all(ad.mul(out, out)))
        assert q.grad is None


def test_memorial_query_gradient_flows_only_through_logits(rng, monkeypatch):
    """Unpatched, the query does receive gradient, and freezing attention to
    uniform weights removes it entirely."""
    with using_dtype(np.float64):
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2, token_dim=8),
                            np.random.default_rng(6))
        q = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        mem = Tensor(rng.normal(size=(4, 8)))
        with Tape() as tape:
            out = blk(q, mem)
            tape.backward(ad.sum_all(ad.mul(out, out)))
        assert q.grad is not None and np.abs(q.grad).max() > 0
        freeze_attention(monkeypatch)
        q2 = Tensor(q.data.copy(), requires_grad=True)
        with Tape() as tape:
            out = blk(q2, mem)
            tape.backward(ad.sum_all(ad.mul(out, out)))
        assert q2.grad is None


def test_depth_zero_degenerates_to_inputs(rng):
    with using_dtype(np.float64):
        cfg = DualAttnConfig(depth=0, heads=4, token_dim=96)
        model = DualAttention(cfg, 16, np.random.default_rng(7))
        tokens = make_tokens(rng)
        t_s, t_m = model(tokens)
        np.testing.assert_array_equal(model.pos, position_encoding(16, 96))
        np.testing.assert_array_equal(t_s.data, tokens.data + model.pos)
        np.testing.assert_array_equal(t_m.data, model.memory[0].data + model.pos)


def test_forward_deterministic_and_branches_differ(rng):
    with using_dtype(np.float64):
        tokens = make_tokens(rng)
        outs = []
        for _ in range(2):
            model = DualAttention(CFG, 16, np.random.default_rng(8))
            outs.append(model(tokens))
        np.testing.assert_array_equal(outs[0][0].data, outs[1][0].data)
        np.testing.assert_array_equal(outs[0][1].data, outs[1][1].data)
        assert np.abs(outs[0][0].data - outs[0][1].data).max() > 1e-6


def test_batch_forward_records_124_tape_ops():
    """The position table is added to the input tokens once and the memorial
    queries reuse the feature stream: a taped batch forward at depth 2
    records 124 ops."""
    model = DualAttention(CFG, 16, np.random.default_rng(0))
    tokens = Tensor(np.random.default_rng(1).normal(size=(8, 16, 96)).astype(np.float32),
                    requires_grad=True)
    with Tape() as tape:
        model(tokens)
    assert len(tape) == 124


def test_memory_tokens_are_learnable_and_per_level():
    model = DualAttention(CFG, 16, np.random.default_rng(0))
    assert len(model.memory) == 2
    assert all(m.requires_grad for m in model.memory)
    assert model.memory[0].shape == (16, 96)


# ---------------------------------------------------------------------------
# output heads


def test_unproject_shapes_and_zero_tokens_give_bias_maps():
    with using_dtype(np.float64):
        heads = OutputHeads((16, 32, 64), (4, 2, 1), (16, 8, 4), 96, np.random.default_rng(1))
        maps = heads(Tensor(np.zeros((16, 96))))
        assert [m.shape for m in maps] == [(16, 16, 16), (8, 8, 32), (4, 4, 64)]
        for (w, b), m, p in zip(heads.heads, maps, (4, 2, 1)):
            np.testing.assert_array_equal(np.unique(m.data), np.unique(b.data))


def test_unproject_pseudo_inverse_roundtrip(rng):
    """Patchifying the produced maps and applying the Moore-Penrose inverse
    of each head must recover the token slice exactly (heads are injective
    token -> patch maps at these widths)."""
    with using_dtype(np.float64):
        heads = OutputHeads((16, 32, 64), (4, 2, 1), (16, 8, 4), 96, np.random.default_rng(2))
        tokens = rng.normal(size=(16, 96))
        maps = heads(Tensor(tokens))
        for i, ((w, b), m, p) in enumerate(zip(heads.heads, maps, (4, 2, 1))):
            rows = patchify(m.data, p)
            recovered = (rows - b.data) @ np.linalg.pinv(w.data)
            np.testing.assert_allclose(recovered, tokens[:, 32 * i:32 * (i + 1)], atol=1e-8)


def test_unproject_gradients_reach_tokens_and_heads(rng):
    heads = OutputHeads((4,), (2,), (4,), 8, np.random.default_rng(3))
    tokens = Tensor(rng.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        maps = heads(tokens)
        tape.backward(ad.sum_all(ad.mul(maps[0], maps[0])))
    assert tokens.grad is not None
    assert heads.heads[0][0].grad is not None
