"""Dual-attention behavior: the one-op attention against the op chain it
replaced and a per-head loop, stochastic attention rows, permutation
equivariance, memory-stream isolation, and an independent pseudo-inverse
oracle for the output heads."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import assert_same_bits, matmul, permute, reshape, softmax_rows, with_specials

from dualflow import attention
from dualflow import autodiff as ad
from dualflow.autodiff import Tape, Tensor, using_dtype
from dualflow.attention import (DualAttention, DualAttnConfig, MemorialBlock, OutputHeads,
                                SelfBlock, _multi_head)
from dualflow.encoder import patchify, position_encoding
from dualflow.errors import ContractError


CFG = DualAttnConfig(depth=2, heads=4)
WIDTH = 96


def multi_head_chain(q, k, v, heads, softmax=softmax_rows):
    """The op chain the one-op ``_multi_head`` replaced, and its oracle:
    three reshape-then-permute head splits, a ``matmul`` and a ``mul`` for
    the logits, ``softmax``, a ``matmul`` for the weighted values, then a
    permute and a reshape to merge the heads."""
    *lead, length, dim = q.shape
    n = len(lead)
    dh = dim // heads

    def split(t, axes):
        return permute(reshape(t, (*lead, t.shape[-2], heads, dh)),
                       (*range(n), *(n + a for a in axes)))

    qh, kt, vh = split(q, (1, 0, 2)), split(k, (1, 2, 0)), split(v, (1, 0, 2))
    logits = ad.mul(matmul(qh, kt), 1.0 / np.sqrt(dh))
    out = matmul(softmax(logits), vh)
    return reshape(permute(out, (*range(n), n + 1, n, n + 2)), (*lead, length, dim))


def chain_attention(monkeypatch, softmax) -> None:
    """Run every attention block's heads as the op chain, with ``softmax``
    in place of the chain's softmax op."""
    monkeypatch.setattr(attention, "_multi_head",
                        lambda q, k, v, heads: multi_head_chain(q, k, v, heads, softmax))


def record_attention(monkeypatch) -> list:
    """Collect the weights of every attention softmax into the returned list."""
    weights = []

    def recording(logits):
        out = softmax_rows(logits)
        weights.append(out.data.copy())
        return out

    chain_attention(monkeypatch, recording)
    return weights


def freeze_attention(monkeypatch) -> None:
    """Replace every attention's logits by the constant 0 (uniform weights,
    no path back to the logits)."""
    chain_attention(monkeypatch, lambda logits: softmax_rows(Tensor(np.zeros_like(logits.data))))


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
        logits = ad.mul(matmul(qh, permute(kh, (1, 0))), scale)
        outs.append(matmul(softmax_rows(logits), vh))
    return ad.concat_last(outs)


def test_fused_heads_match_per_head_loop_bit_for_bit(rng):
    """Output and q/k/v gradients of the fused heads equal the loop's exactly
    in the default float32 build at the default width."""
    length, dim, heads = 16, WIDTH, CFG.heads
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
    batch, length, dim, heads = 5, 16, WIDTH, CFG.heads
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(16, 96), (1, 16, 96), (8, 16, 96), (3, 2, 16, 96), (16, 24)])
def test_attention_op_matches_op_chain_bit_for_bit(shape, dtype):
    """The one-op ``_multi_head`` gives the output and the q, k and v
    gradients of the op chain it replaced, bit for bit: at (L, D), (B, L, D)
    and (B, S, L, D), at the default width and a narrow one, in float32 and
    float64, on inputs with zeros, -0.0 and denormals."""
    rng = np.random.default_rng(sum(shape))
    data = [with_specials(rng, shape, dtype, finite_only=True) for _ in range(3)]
    cotangent = with_specials(rng, shape, dtype, finite_only=True)
    results = []
    with using_dtype(dtype):
        for attend in (_multi_head, multi_head_chain):
            q, k, v = (Tensor(d, requires_grad=True) for d in data)
            with Tape() as tape:
                out = attend(q, k, v, CFG.heads)
                tape.backward(ad.sum_all(ad.mul(out, cotangent)))
            results.append([out.data, q.grad, k.grad, v.grad])
    for fused, chained in zip(*results):
        assert_same_bits(fused, chained)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-50.0, 50.0))
def test_attention_logit_row_shift_invariant(seed, c):
    """Adding one vector to every key shifts each query's row of logits by
    a constant, which the softmax's max shift absorbs."""
    rng = np.random.default_rng(seed)
    with using_dtype(np.float64):
        q, k, v = (rng.normal(size=(2, 5, 8)) for _ in range(3))
        a = _multi_head(Tensor(q), Tensor(k), Tensor(v), 2).data
        b = _multi_head(Tensor(q), Tensor(k + c * rng.normal(size=8)), Tensor(v), 2).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_attention_extreme_logits_stay_finite():
    """Logit rows of [1e4, -1e4, 0] and [-1e4, 1e4, 0] in float32, far
    beyond ``exp``'s range, give finite weights and gradients: each query takes the value of
    the key it favours, and an all-zero row averages the values."""
    q = Tensor(np.array([[100.0], [-100.0], [0.0]], dtype=np.float32), requires_grad=True)
    k = Tensor(np.array([[100.0], [-100.0], [0.0]], dtype=np.float32), requires_grad=True)
    v = Tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        out = _multi_head(q, k, v, 1)
        tape.backward(ad.sum_all(ad.mul(out, out)))
    np.testing.assert_allclose(out.data, [[1.0], [2.0], [2.0]], rtol=1e-6)
    assert all(np.isfinite(t.grad).all() for t in (q, k, v))


def test_config_validation():
    with pytest.raises(ContractError):
        DualAttnConfig(heads=0)
    with pytest.raises(ContractError):
        DualAttnConfig(mlp_ratio=0)
    with pytest.raises(ContractError):
        DualAttnConfig(depth=-1)
    assert [f.name for f in dataclasses.fields(DualAttnConfig)] == ["depth", "heads", "mlp_ratio"]


@pytest.mark.parametrize("block", [SelfBlock, MemorialBlock])
def test_heads_must_divide_the_token_width(block):
    """The width comes from the model, so the heads are checked where a
    block is built."""
    with pytest.raises(ContractError, match="must divide over 5 heads"):
        block(DualAttnConfig(heads=5), 96, np.random.default_rng(0))
    block(DualAttnConfig(heads=4), 96, np.random.default_rng(0))


def test_attention_rows_stochastic_everywhere(rng, monkeypatch):
    with using_dtype(np.float64):
        model = DualAttention(CFG, 16, WIDTH, np.random.default_rng(0))
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
        blk = SelfBlock(DualAttnConfig(depth=1, heads=2), 8, np.random.default_rng(1))
        x = rng.normal(size=(4, 8))
        perm = np.array([2, 0, 3, 1])
        out = blk(Tensor(x)).data
        out_p = blk(Tensor(x[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def test_self_block_identity_with_zero_output_projections(rng):
    with using_dtype(np.float64):
        blk = SelfBlock(DualAttnConfig(depth=1, heads=2), 8, np.random.default_rng(1))
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
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=1), 8, np.random.default_rng(2))
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
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2), 8,
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
        model = DualAttention(CFG, 16, WIDTH, np.random.default_rng(4))
        freeze_attention(monkeypatch)
        _, mem_a = model(make_tokens(np.random.default_rng(10)))
        _, mem_b = model(make_tokens(np.random.default_rng(11)))
        np.testing.assert_array_equal(mem_a.data, mem_b.data)


def test_memorial_value_path_carries_no_input_gradient(rng, monkeypatch):
    """With detached logits the memorial output still varies with the input
    only through attention; its gradient w.r.t. the input must vanish."""
    with using_dtype(np.float64):
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2), 8,
                            np.random.default_rng(5))
        chain_attention(monkeypatch, lambda logits: softmax_rows(Tensor(logits.data)))
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
        blk = MemorialBlock(DualAttnConfig(depth=1, heads=2), 8,
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
        model = DualAttention(DualAttnConfig(depth=0, heads=4), 16, WIDTH,
                              np.random.default_rng(7))
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
            model = DualAttention(CFG, 16, WIDTH, np.random.default_rng(8))
            outs.append(model(tokens))
        np.testing.assert_array_equal(outs[0][0].data, outs[1][0].data)
        np.testing.assert_array_equal(outs[0][1].data, outs[1][1].data)
        assert np.abs(outs[0][0].data - outs[0][1].data).max() > 1e-6


def test_batch_forward_records_56_tape_ops():
    """The position table is added to the input tokens once, the memorial
    queries reuse the feature stream, each projection is one ``linear``
    with its bias, and each attention core is one op: a taped batch forward
    at depth 2 records 56 ops (100 with each core an op chain of 12, 124
    with a bias op per projection)."""
    model = DualAttention(CFG, 16, WIDTH, np.random.default_rng(0))
    tokens = Tensor(np.random.default_rng(1).normal(size=(8, 16, 96)).astype(np.float32),
                    requires_grad=True)
    with Tape() as tape:
        model(tokens)
    assert len(tape) == 56


def test_memory_tokens_are_learnable_and_per_level():
    model = DualAttention(CFG, 16, WIDTH, np.random.default_rng(0))
    assert len(model.memory) == 2
    assert all(m.requires_grad for m in model.memory)
    assert model.memory[0].shape == (16, 96)


# ---------------------------------------------------------------------------
# output heads


def test_unproject_shapes_and_zero_tokens_give_bias_maps():
    with using_dtype(np.float64):
        heads = OutputHeads((16, 32, 64), (4, 2, 1), (16, 8, 4), 32, np.random.default_rng(1))
        maps = heads(Tensor(np.zeros((16, 96))))
        assert [m.shape for m in maps] == [(16, 16, 16), (8, 8, 32), (4, 4, 64)]
        for (w, b), m, p in zip(heads.heads, maps, (4, 2, 1)):
            np.testing.assert_array_equal(np.unique(m.data), np.unique(b.data))


def test_unproject_pseudo_inverse_roundtrip(rng):
    """Patchifying the produced maps and applying the Moore-Penrose inverse
    of each head must recover the token slice exactly (heads are injective
    token -> patch maps at these widths)."""
    with using_dtype(np.float64):
        heads = OutputHeads((16, 32, 64), (4, 2, 1), (16, 8, 4), 32, np.random.default_rng(2))
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
