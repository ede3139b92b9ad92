"""Dual-branch token transformer.

Each depth level runs two pre-norm blocks side by side. The self branch is a
plain ViT block updating the feature stream. The memorial branch updates a
separate memory stream built from learnable per-level memory tokens: queries
come from the feature stream, but keys, values, residuals and the MLP all
live on the memory stream, so the output can only be assembled from memory
content. That asymmetry is what keeps anomalous evidence out of the memorial
reconstruction.

Both branches run one attention+MLP body, differing only in where queries
and keys/values come from; the attention heads are a tensor axis. Tokens
are (..., L, D): any leading axes are a batch, run as one forward pass.

``unproject`` maps either branch's tokens back to per-scale feature maps
through per-scale affine heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, default_dtype
from .encoder import affine_params, head_params, merged_params, position_encoding, unpatchify
from .errors import ContractError, ShapeError, check_field_types


@dataclass(frozen=True)
class DualAttnConfig:
    depth: int = 2
    heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        check_field_types(self)
        if self.depth < 0 or min(self.heads, self.mlp_ratio) < 1:
            raise ContractError("depth must be >= 0, heads and mlp_ratio >= 1")


def _ln_params(d):
    dt = default_dtype()
    return (Tensor(np.ones(d, dtype=dt), requires_grad=True),
            Tensor(np.zeros(d, dtype=dt), requires_grad=True))


def _multi_head(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention on (..., L, dim) tensors as one tape op
    from (q, k, v) to the heads side by side. The heads are an axis after
    the leading (batch) axes: (..., H, L, dh) queries and values and
    (..., H, dh, L) keys, each a view of its input. Then come the logits
    ``q @ k`` times ``1 / sqrt(dh)``, a max-shifted softmax over each row,
    and the weighted values. Samples of a batch never mix: every product
    runs per leading index. Forward and vjp do the arithmetic of the op
    chain this replaced, in its order and on its memory layouts, so they
    give its bits; ``tests/test_attention.py`` keeps that chain as the
    oracle. The vjp keeps q, k, v and the attention weights, not the
    logits, their ``exp`` or the output."""
    *lead, length, dim = q.shape
    n = len(lead)
    dh = dim // heads
    axes_q, axes_k = (*range(n), n + 1, n, n + 2), (*range(n), n + 1, n + 2, n)

    def split(a, axes):
        return a.reshape(*lead, a.shape[-2], heads, dh).transpose(axes)

    def unsplit(g, axes):
        return np.ascontiguousarray(g.transpose(np.argsort(axes)))

    qh, kt, vh = split(q.data, axes_q), split(k.data, axes_k), split(v.data, axes_q)
    logits = qh @ kt
    scale = logits.dtype.type(1.0 / np.sqrt(dh))
    logits *= scale
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    weights = e / e.sum(axis=-1, keepdims=True)
    out = (weights @ vh).transpose(axes_q).reshape(*lead, length, dim)
    shapes = q.shape, k.shape, v.shape

    def vjp(g):
        g = unsplit(g.reshape(*lead, length, heads, dh), axes_q)
        g_w, g_vh = g @ np.swapaxes(vh, -1, -2), np.swapaxes(weights, -1, -2) @ g
        g_l = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_l *= scale
        g_qh, g_kt = g_l @ np.swapaxes(kt, -1, -2), np.swapaxes(qh, -1, -2) @ g_l
        return tuple(unsplit(gi, axes).reshape(shape) for gi, axes, shape
                     in zip((g_qh, g_kt, g_vh), (axes_q, axes_k, axes_q), shapes))

    return ad._emit(out, (q, k, v), vjp)


class _Block:
    """Pre-norm multi-head attention plus MLP, the body both branches share:
    queries come from the normed query source, keys and values from the
    normed stream, and both residuals (attention output, then MLP) land on
    the stream. ``norms`` names the input layer norms, in parameter order."""

    def __init__(self, cfg: DualAttnConfig, d: int, rng, norms):
        if d % cfg.heads:
            raise ContractError(f"token_dim {d} must divide over {cfg.heads} heads")
        self.heads = cfg.heads
        self.norms = {name: _ln_params(d) for name in norms}
        self.wq, self.wk, self.wv, self.wo = (affine_params(rng, d, d) for _ in range(4))
        self.ln2 = _ln_params(d)
        hidden = d * cfg.mlp_ratio
        self.mlp1 = affine_params(rng, d, hidden)
        self.mlp2 = affine_params(rng, hidden, d)

    def params(self):
        named = [*self.norms.items(), ("wq", self.wq), ("wk", self.wk), ("wv", self.wv),
                 ("wo", self.wo), ("ln2", self.ln2), ("mlp1", self.mlp1), ("mlp2", self.mlp2)]
        return {f"{name}.{part}": t for name, pair in named
                for part, t in zip("gb" if name.startswith("ln") else "wb", pair)}

    def _attend(self, qn: Tensor, kvn: Tensor, stream: Tensor) -> Tensor:
        q, k, v = ad.linear(qn, *self.wq), ad.linear(kvn, *self.wk), ad.linear(kvn, *self.wv)
        stream = ad.add(stream, ad.linear(_multi_head(q, k, v, self.heads), *self.wo))
        h = ad.gelu(ad.linear(ad.layer_norm(stream, *self.ln2), *self.mlp1))
        return ad.add(stream, ad.linear(h, *self.mlp2))


class SelfBlock(_Block):
    """Plain ViT block: x + Attn(LN(x)), then + MLP(LN(.))."""

    def __init__(self, cfg: DualAttnConfig, width: int, rng):
        super().__init__(cfg, width, rng, ("ln1",))

    def __call__(self, x: Tensor) -> Tensor:
        xn = ad.layer_norm(x, *self.norms["ln1"])
        return self._attend(xn, xn, x)


class MemorialBlock(_Block):
    """Cross-attention block reading the memory stream. The query source
    contributes only attention logits; there is no residual from it, so
    values, residuals and the MLP involve memory content exclusively."""

    def __init__(self, cfg: DualAttnConfig, width: int, rng):
        super().__init__(cfg, width, rng, ("lnq", "lnkv"))

    def __call__(self, q_src: Tensor, mem: Tensor) -> Tensor:
        if q_src.shape != mem.shape:
            raise ShapeError(f"query source {q_src.shape} and memory {mem.shape} differ")
        qn = ad.layer_norm(q_src, *self.norms["lnq"])
        kn = ad.layer_norm(mem, *self.norms["lnkv"])
        return self._attend(qn, kn, mem)


class DualAttention:
    """Runs the two streams in lockstep over ``depth`` levels and returns the
    final (self tokens, memorial tokens) pair, both shaped like the input
    tokens (..., L, D), D being ``width``. It owns the fixed (L, D) position
    table ``pos``, built once here and added to the input tokens and to
    every level's memory tokens. At every level the memorial queries read
    the feature stream as it enters that level. The per-level memory tokens
    are (L, D) parameters, broadcast over the leading (batch) axes of the
    input."""

    def __init__(self, cfg: DualAttnConfig, length: int, width: int, rng):
        self.cfg = cfg
        self.pos = position_encoding(length, width)
        dt = default_dtype()
        self.self_blocks = [SelfBlock(cfg, width, rng) for _ in range(cfg.depth)]
        self.mem_blocks = [MemorialBlock(cfg, width, rng) for _ in range(cfg.depth)]
        self.memory = [Tensor(rng.normal(0.0, 0.02, size=(length, width)).astype(dt),
                              requires_grad=True)
                       for _ in range(max(cfg.depth, 1))]

    def params(self):
        out = merged_params(*((f"block{i}.self", b) for i, b in enumerate(self.self_blocks)),
                            *((f"block{i}.mem", b) for i, b in enumerate(self.mem_blocks)))
        return out | {f"memory{i}": m for i, m in enumerate(self.memory)}

    def __call__(self, tokens: Tensor):
        def memory(level):
            return ad.broadcast_lead(ad.add(self.memory[level], self.pos), tokens.shape)

        feat = ad.add(tokens, self.pos)
        mem = memory(0)
        for level in range(self.cfg.depth):
            if level > 0:
                mem = ad.add(mem, memory(level))
            feat, mem = self.self_blocks[level](feat), self.mem_blocks[level](feat, mem)
        return feat, mem


class OutputHeads:
    """Affine heads mapping each scale's ``width``-channel token slice of
    (..., L, D) tokens back to its (..., H, W, C) feature map."""

    def __init__(self, stage_channels, patch_sizes, map_sizes, width: int, rng):
        self.width = width
        self.patch_sizes = tuple(patch_sizes)
        self.map_shapes = [(s, s, c) for s, c in zip(map_sizes, stage_channels)]
        self.heads = [affine_params(rng, self.width, c * p * p)
                      for c, p in zip(stage_channels, patch_sizes)]

    def params(self):
        return head_params(self.heads)

    def __call__(self, tokens: Tensor) -> list:
        maps = []
        for i, ((w, b), p, (h, wd, c)) in enumerate(zip(self.heads, self.patch_sizes,
                                                        self.map_shapes)):
            lo, hi = i * self.width, (i + 1) * self.width
            rows = ad.linear(ad.take_last(tokens, lo, hi), w, b)
            maps.append(unpatchify(rows, p, h, wd, c))
        return maps
