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
from .encoder import position_encoding, unpatchify
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class DualAttnConfig:
    depth: int = 2
    heads: int = 4
    token_dim: int = 96
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.depth < 0:
            raise ContractError("depth must be >= 0")
        if self.heads < 1 or self.token_dim < 1 or self.token_dim % self.heads != 0:
            raise ContractError(f"token_dim {self.token_dim} must divide over {self.heads} heads")
        if self.mlp_ratio < 1:
            raise ContractError("mlp_ratio must be >= 1")


def _linear_params(rng, d_in, d_out, dt):
    w = Tensor(rng.normal(0.0, 0.02, size=(d_in, d_out)).astype(dt), requires_grad=True)
    b = Tensor(np.zeros(d_out, dtype=dt), requires_grad=True)
    return w, b


def _ln_params(d, dt):
    g = Tensor(np.ones(d, dtype=dt), requires_grad=True)
    b = Tensor(np.zeros(d, dtype=dt), requires_grad=True)
    return g, b


def _multi_head(q, k, v, heads):
    """Scaled dot-product attention on (..., L, dim) tensors with the heads
    as an axis after the leading (batch) axes: (..., H, L, dh) queries and
    values, (..., H, dh, L) keys, one op each for logits, softmax and
    weighted values; returns the heads side by side. Samples of a batch never
    mix: every product runs per leading index."""
    *lead, length, dim = q.shape
    n = len(lead)
    dh = dim // heads

    def split(t, axes):
        return ad.permute(ad.reshape(t, (*lead, t.shape[-2], heads, dh)),
                          (*range(n), *(n + a for a in axes)))

    qh, kt, vh = split(q, (1, 0, 2)), split(k, (1, 2, 0)), split(v, (1, 0, 2))
    logits = ad.mul(ad.matmul(qh, kt), 1.0 / np.sqrt(dh))
    out = ad.matmul(ad.softmax_rows(logits), vh)
    return ad.reshape(ad.permute(out, (*range(n), n + 1, n, n + 2)), (*lead, length, dim))


class _Block:
    """Pre-norm multi-head attention plus MLP, the body both branches share:
    queries come from the normed query source, keys and values from the
    normed stream, and both residuals (attention output, then MLP) land on
    the stream. ``norms`` names the input layer norms, in parameter order."""

    def __init__(self, cfg: DualAttnConfig, rng, norms):
        d = cfg.token_dim
        dt = default_dtype()
        self.heads = cfg.heads
        self.norms = {name: _ln_params(d, dt) for name in norms}
        self.wq = _linear_params(rng, d, d, dt)
        self.wk = _linear_params(rng, d, d, dt)
        self.wv = _linear_params(rng, d, d, dt)
        self.wo = _linear_params(rng, d, d, dt)
        self.ln2 = _ln_params(d, dt)
        hidden = d * cfg.mlp_ratio
        self.mlp1 = _linear_params(rng, d, hidden, dt)
        self.mlp2 = _linear_params(rng, hidden, d, dt)

    def params(self):
        named = [*self.norms.items(), ("wq", self.wq), ("wk", self.wk), ("wv", self.wv),
                 ("wo", self.wo), ("ln2", self.ln2), ("mlp1", self.mlp1), ("mlp2", self.mlp2)]
        out = {}
        for name, (weight, bias) in named:
            out[f"{name}.g" if name.startswith("ln") else f"{name}.w"] = weight
            out[f"{name}.b"] = bias
        return out

    def _attend(self, qn: Tensor, kvn: Tensor, stream: Tensor) -> Tensor:
        q = ad.add_bias(ad.matmul(qn, self.wq[0]), self.wq[1])
        k = ad.add_bias(ad.matmul(kvn, self.wk[0]), self.wk[1])
        v = ad.add_bias(ad.matmul(kvn, self.wv[0]), self.wv[1])
        mixed = _multi_head(q, k, v, self.heads)
        stream = ad.add(stream, ad.add_bias(ad.matmul(mixed, self.wo[0]), self.wo[1]))
        sn = ad.layer_norm(stream, *self.ln2)
        h = ad.gelu(ad.add_bias(ad.matmul(sn, self.mlp1[0]), self.mlp1[1]))
        return ad.add(stream, ad.add_bias(ad.matmul(h, self.mlp2[0]), self.mlp2[1]))


class SelfBlock(_Block):
    """Plain ViT block: x + Attn(LN(x)), then + MLP(LN(.))."""

    def __init__(self, cfg: DualAttnConfig, rng):
        super().__init__(cfg, rng, ("ln1",))

    def __call__(self, x: Tensor) -> Tensor:
        xn = ad.layer_norm(x, *self.norms["ln1"])
        return self._attend(xn, xn, x)


class MemorialBlock(_Block):
    """Cross-attention block reading the memory stream. The query source
    contributes only attention logits; there is no residual from it, so
    values, residuals and the MLP involve memory content exclusively."""

    def __init__(self, cfg: DualAttnConfig, rng):
        super().__init__(cfg, rng, ("lnq", "lnkv"))

    def __call__(self, q_src: Tensor, mem: Tensor) -> Tensor:
        if q_src.shape != mem.shape:
            raise ShapeError(f"query source {q_src.shape} and memory {mem.shape} differ")
        qn = ad.layer_norm(q_src, *self.norms["lnq"])
        kn = ad.layer_norm(mem, *self.norms["lnkv"])
        return self._attend(qn, kn, mem)


class DualAttention:
    """Runs the two streams in lockstep over ``depth`` levels and returns the
    final (self tokens, memorial tokens) pair, both shaped like the input
    tokens (..., L, D). It owns the fixed (L, D) position table ``pos``,
    built once here and added to the input tokens and to every level's
    memory tokens. At every level the memorial queries read the feature
    stream as it enters that level. The per-level memory tokens are (L, D)
    parameters, broadcast over the leading (batch) axes of the input."""

    def __init__(self, cfg: DualAttnConfig, length: int, rng):
        self.cfg = cfg
        self.length = length
        self.pos = position_encoding(length, cfg.token_dim)
        dt = default_dtype()
        self.self_blocks = [SelfBlock(cfg, rng) for _ in range(cfg.depth)]
        self.mem_blocks = [MemorialBlock(cfg, rng) for _ in range(cfg.depth)]
        n_mem = max(cfg.depth, 1)
        self.memory = [Tensor(rng.normal(0.0, 0.02, size=(length, cfg.token_dim)).astype(dt),
                              requires_grad=True)
                       for _ in range(n_mem)]

    def params(self):
        out = {}
        for i, blk in enumerate(self.self_blocks):
            for k, v in blk.params().items():
                out[f"block{i}.self.{k}"] = v
        for i, blk in enumerate(self.mem_blocks):
            for k, v in blk.params().items():
                out[f"block{i}.mem.{k}"] = v
        for i, m in enumerate(self.memory):
            out[f"memory{i}"] = m
        return out

    def __call__(self, tokens: Tensor):
        if tokens.shape[-2] != self.length:
            raise ShapeError(f"expected {self.length} tokens, got {tokens.shape[-2]}")

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
    """Affine heads mapping each scale's token slice of (..., L, D) tokens
    back to its (..., H, W, C) feature map."""

    def __init__(self, stage_channels, patch_sizes, map_sizes, token_dim: int, rng):
        n = len(stage_channels)
        if token_dim % n != 0:
            raise ContractError(f"token_dim {token_dim} must divide over {n} scales")
        self.width = token_dim // n
        self.patch_sizes = tuple(patch_sizes)
        self.map_shapes = [(s, s, c) for s, c in zip(map_sizes, stage_channels)]
        dt = default_dtype()
        self.heads = []
        for c, p in zip(stage_channels, patch_sizes):
            w = Tensor(rng.normal(0.0, 0.02, size=(self.width, c * p * p)).astype(dt),
                       requires_grad=True)
            b = Tensor(np.zeros(c * p * p, dtype=dt), requires_grad=True)
            self.heads.append((w, b))

    def params(self):
        out = {}
        for i, (w, b) in enumerate(self.heads):
            out[f"{i}.w"] = w
            out[f"{i}.b"] = b
        return out

    def __call__(self, tokens: Tensor) -> list:
        maps = []
        for i, ((w, b), p, (h, wd, c)) in enumerate(zip(self.heads, self.patch_sizes,
                                                        self.map_shapes)):
            lo, hi = i * self.width, (i + 1) * self.width
            rows = ad.add_bias(ad.matmul(ad.take_last(tokens, lo, hi), w), b)
            maps.append(unpatchify(rows, p, h, wd, c))
        return maps
