"""Dual-branch token transformer.

Each depth level runs two pre-norm blocks side by side. The self branch is a
plain ViT block updating the feature stream. The memorial branch updates a
separate memory stream built from learnable per-level memory tokens: queries
come from the feature stream, but keys, values, residuals and the MLP all
live on the memory stream, so the output can only be assembled from memory
content. That asymmetry is what keeps anomalous evidence out of the memorial
reconstruction.

``unproject`` maps either branch's tokens back to per-scale feature maps
through per-scale affine heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, default_dtype
from .encoder import TokenSequence, unpatchify
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class DualAttnConfig:
    depth: int = 2
    heads: int = 4
    token_dim: int = 96
    mlp_ratio: int = 4
    memorial_query_source: str = "stream"

    def __post_init__(self):
        if self.depth < 0:
            raise ContractError("depth must be >= 0")
        if self.heads < 1 or self.token_dim % self.heads != 0:
            raise ContractError(f"token_dim {self.token_dim} must divide over {self.heads} heads")
        if self.memorial_query_source not in ("stream", "input"):
            raise ContractError("memorial_query_source must be 'stream' or 'input'")


def _linear_params(rng, d_in, d_out, dt):
    w = Tensor(rng.normal(0.0, 0.02, size=(d_in, d_out)).astype(dt), requires_grad=True)
    b = Tensor(np.zeros(d_out, dtype=dt), requires_grad=True)
    return w, b


def _ln_params(d, dt):
    g = Tensor(np.ones(d, dtype=dt), requires_grad=True)
    b = Tensor(np.zeros(d, dtype=dt), requires_grad=True)
    return g, b


def _multi_head(q, k, v, heads):
    """Per-head scaled dot-product attention on (L, dim) tensors; returns the
    concatenated head outputs."""
    dim = q.shape[-1]
    dh = dim // heads
    scale = 1.0 / np.sqrt(dh)
    outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = ad.take_last(q, lo, hi)
        kh = ad.take_last(k, lo, hi)
        vh = ad.take_last(v, lo, hi)
        logits = ad.mul(ad.matmul(qh, ad.transpose(kh)), scale)
        outs.append(ad.matmul(ad.softmax_rows(logits), vh))
    return ad.concat_last(outs)


class SelfBlock:
    """Pre-norm transformer block: x + Attn(LN(x)), then + MLP(LN(.))."""

    def __init__(self, cfg: DualAttnConfig, rng):
        d = cfg.token_dim
        dt = default_dtype()
        self.heads = cfg.heads
        self.ln1 = _ln_params(d, dt)
        self.wq = _linear_params(rng, d, d, dt)
        self.wk = _linear_params(rng, d, d, dt)
        self.wv = _linear_params(rng, d, d, dt)
        self.wo = _linear_params(rng, d, d, dt)
        self.ln2 = _ln_params(d, dt)
        hidden = d * cfg.mlp_ratio
        self.mlp1 = _linear_params(rng, d, hidden, dt)
        self.mlp2 = _linear_params(rng, hidden, d, dt)

    def params(self):
        return {
            "ln1.g": self.ln1[0], "ln1.b": self.ln1[1],
            "wq.w": self.wq[0], "wq.b": self.wq[1],
            "wk.w": self.wk[0], "wk.b": self.wk[1],
            "wv.w": self.wv[0], "wv.b": self.wv[1],
            "wo.w": self.wo[0], "wo.b": self.wo[1],
            "ln2.g": self.ln2[0], "ln2.b": self.ln2[1],
            "mlp1.w": self.mlp1[0], "mlp1.b": self.mlp1[1],
            "mlp2.w": self.mlp2[0], "mlp2.b": self.mlp2[1],
        }

    def __call__(self, x: Tensor) -> Tensor:
        xn = ad.layer_norm(x, *self.ln1)
        q = ad.add_bias(ad.matmul(xn, self.wq[0]), self.wq[1])
        k = ad.add_bias(ad.matmul(xn, self.wk[0]), self.wk[1])
        v = ad.add_bias(ad.matmul(xn, self.wv[0]), self.wv[1])
        mixed = _multi_head(q, k, v, self.heads)
        x = ad.add(x, ad.add_bias(ad.matmul(mixed, self.wo[0]), self.wo[1]))
        xn2 = ad.layer_norm(x, *self.ln2)
        h = ad.gelu(ad.add_bias(ad.matmul(xn2, self.mlp1[0]), self.mlp1[1]))
        return ad.add(x, ad.add_bias(ad.matmul(h, self.mlp2[0]), self.mlp2[1]))


class MemorialBlock:
    """Cross-attention block reading the memory stream. The query source
    contributes only attention logits; there is no residual from it, so
    values, residuals and the MLP involve memory content exclusively."""

    def __init__(self, cfg: DualAttnConfig, rng):
        d = cfg.token_dim
        dt = default_dtype()
        self.heads = cfg.heads
        self.ln_q = _ln_params(d, dt)
        self.ln_kv = _ln_params(d, dt)
        self.wq = _linear_params(rng, d, d, dt)
        self.wk = _linear_params(rng, d, d, dt)
        self.wv = _linear_params(rng, d, d, dt)
        self.wo = _linear_params(rng, d, d, dt)
        self.ln2 = _ln_params(d, dt)
        hidden = d * cfg.mlp_ratio
        self.mlp1 = _linear_params(rng, d, hidden, dt)
        self.mlp2 = _linear_params(rng, hidden, d, dt)

    def params(self):
        return {
            "lnq.g": self.ln_q[0], "lnq.b": self.ln_q[1],
            "lnkv.g": self.ln_kv[0], "lnkv.b": self.ln_kv[1],
            "wq.w": self.wq[0], "wq.b": self.wq[1],
            "wk.w": self.wk[0], "wk.b": self.wk[1],
            "wv.w": self.wv[0], "wv.b": self.wv[1],
            "wo.w": self.wo[0], "wo.b": self.wo[1],
            "ln2.g": self.ln2[0], "ln2.b": self.ln2[1],
            "mlp1.w": self.mlp1[0], "mlp1.b": self.mlp1[1],
            "mlp2.w": self.mlp2[0], "mlp2.b": self.mlp2[1],
        }

    def __call__(self, q_src: Tensor, mem: Tensor) -> Tensor:
        if q_src.shape != mem.shape:
            raise ShapeError(f"query source {q_src.shape} and memory {mem.shape} differ")
        qn = ad.layer_norm(q_src, *self.ln_q)
        kn = ad.layer_norm(mem, *self.ln_kv)
        q = ad.add_bias(ad.matmul(qn, self.wq[0]), self.wq[1])
        k = ad.add_bias(ad.matmul(kn, self.wk[0]), self.wk[1])
        v = ad.add_bias(ad.matmul(kn, self.wv[0]), self.wv[1])
        mixed = _multi_head(q, k, v, self.heads)
        mem = ad.add(mem, ad.add_bias(ad.matmul(mixed, self.wo[0]), self.wo[1]))
        mn = ad.layer_norm(mem, *self.ln2)
        h = ad.gelu(ad.add_bias(ad.matmul(mn, self.mlp1[0]), self.mlp1[1]))
        return ad.add(mem, ad.add_bias(ad.matmul(h, self.mlp2[0]), self.mlp2[1]))


class DualAttention:
    """Runs the two streams in lockstep over ``depth`` levels and returns the
    final (self tokens, memorial tokens) pair."""

    def __init__(self, cfg: DualAttnConfig, length: int, rng):
        self.cfg = cfg
        self.length = length
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

    def __call__(self, seq: TokenSequence):
        if seq.length != self.length:
            raise ShapeError(f"expected {self.length} tokens, got {seq.length}")
        pos = Tensor(seq.pos)
        feat = ad.add(seq.tokens, pos)
        mem = ad.add(self.memory[0], pos)
        if self.cfg.depth == 0:
            return feat, mem
        for level in range(self.cfg.depth):
            if level > 0:
                mem = ad.add(mem, ad.add(self.memory[level], pos))
            if self.cfg.memorial_query_source == "stream":
                q_src = feat
            else:
                q_src = ad.add(seq.tokens, pos)
            new_feat = self.self_blocks[level](feat)
            mem = self.mem_blocks[level](q_src, mem)
            feat = new_feat
        return feat, mem


class OutputHeads:
    """Affine heads mapping each scale's token slice back to its feature map."""

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
