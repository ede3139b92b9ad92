"""Frozen multi-scale feature extractor and patch tokenization.

The extractor is a small random-weight conv stack held outside the autodiff
graph: its outputs play the role of a pretrained backbone's feature pyramid
and never receive gradients. Per-scale feature maps are cut into
non-overlapping patches sized so every scale yields the same token count L,
projected to a shared width, and concatenated along the channel axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, default_dtype
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class EncoderConfig:
    in_size: int = 64
    stage_channels: tuple = (16, 32, 64)
    stage_strides: tuple = (4, 8, 16)
    seed: int = 0

    def __post_init__(self):
        if len(self.stage_channels) != 3:
            raise ContractError("encoder uses exactly 3 stages")
        if min(self.stage_channels) < 1:
            raise ContractError("stage channel counts must be positive")
        if tuple(self.stage_strides) != (4, 8, 16):
            raise ContractError("stage strides are fixed at (4, 8, 16)")
        if self.in_size % 16 != 0 or self.in_size <= 0:
            raise ContractError(f"in_size must be a positive multiple of 16, got {self.in_size}")
        if self.seed < 0:
            raise ContractError("encoder seed must be non-negative")


def _conv3x3_s2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 conv, stride 2, zero padding 1, channels last. H and W must be even."""
    h, wd, _ = x.shape
    ho, wo = h // 2, wd // 2
    xp = ad.zero_pad_hw(x)
    out = np.broadcast_to(b, (ho, wo, w.shape[-1])).copy()
    for dy in range(3):
        for dx in range(3):
            patch = xp[dy:dy + 2 * ho - 1:2, dx:dx + 2 * wo - 1:2, :]
            out += np.tensordot(patch, w[dy, dx], axes=([-1], [0]))
    return out


def _leaky(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """One pass; the same bits as ``np.where(x >= 0, x, x * slope)``."""
    return np.maximum(x, x * slope)


class FrozenEncoder:
    """Four 3x3 stride-2 convs with seeded Kaiming-style weights. Feature
    taps sit at strides 4, 8 and 16; weights are plain arrays, so nothing
    here can ever appear in an optimizer."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        c1, c2, c3 = cfg.stage_channels
        dt = default_dtype()
        plans = [(3, c1), (c1, c1), (c1, c2), (c2, c3)]
        self.weights = []
        for cin, cout in plans:
            std = math.sqrt(2.0 / (9 * cin))
            w = rng.normal(0.0, std, size=(3, 3, cin, cout)).astype(dt)
            b = rng.normal(0.0, 0.1, size=cout).astype(dt)
            self.weights.append((w, b))

    def __call__(self, image: np.ndarray) -> list:
        s = self.cfg.in_size
        if image.shape != (s, s, 3):
            raise ShapeError(f"encoder expects image of shape ({s}, {s}, 3), got {image.shape}")
        x = np.asarray(image, dtype=default_dtype())
        (w0, b0), (w1, b1), (w2, b2), (w3, b3) = self.weights
        x = _leaky(_conv3x3_s2(x, w0, b0))
        f1 = _leaky(_conv3x3_s2(x, w1, b1))
        f2 = _leaky(_conv3x3_s2(f1, w2, b2))
        f3 = _leaky(_conv3x3_s2(f2, w3, b3))
        return [f1, f2, f3]


@dataclass(frozen=True)
class PatchEmbedConfig:
    patch_sizes: tuple = (4, 2, 1)
    token_dim: int = 96

    def __post_init__(self):
        if len(self.patch_sizes) == 0 or any(p <= 0 for p in self.patch_sizes):
            raise ContractError("patch_sizes must be positive")
        if self.token_dim < 1:
            raise ContractError("token_dim must be positive")
        n = len(self.patch_sizes)
        if self.token_dim % n != 0:
            raise ContractError(f"token_dim {self.token_dim} must divide evenly over {n} scales")
        if (self.token_dim // n) % 4 != 0:
            raise ContractError("per-scale token width must be a multiple of 4 "
                                "(sin/cos pairs per grid axis)")


def patchify(fmap: np.ndarray, p: int) -> np.ndarray:
    """(H, W, C) -> (L, p*p*C) rows of non-overlapping p x p patches in
    row-major grid order; each row flattens as (py, px, c)."""
    h, w, c = fmap.shape
    if h % p or w % p:
        raise ShapeError(f"map {fmap.shape} not divisible into {p}x{p} patches")
    gy, gx = h // p, w // p
    out = fmap.reshape(gy, p, gx, p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(out).reshape(gy * gx, p * p * c)


def unpatchify(rows: Tensor, p: int, h: int, w: int, c: int) -> Tensor:
    """Tape-op inverse of ``patchify`` for (L, p*p*C) tensors."""
    gy, gx = h // p, w // p
    x = ad.reshape(rows, (gy, gx, p, p, c))
    x = ad.permute(x, (0, 2, 1, 3, 4))
    return ad.reshape(x, (h, w, c))


def position_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed 2-d sinusoidal table for a square token grid, one half of the
    width per grid axis. Rows are distinct and every entry is in [-1, 1]."""
    g = math.isqrt(length)
    if g * g != length:
        raise ContractError(f"token count {length} is not a square grid")
    if dim % 4 != 0:
        raise ContractError(f"encoding width {dim} must be a multiple of 4")
    half = dim // 2
    n_freq = half // 2
    freqs = 1.0 / (10000.0 ** (np.arange(n_freq) / n_freq))

    def axis_table(pos):
        ang = np.outer(pos, freqs)
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)

    coords = np.arange(g, dtype=np.float64)
    table_y = axis_table(coords)
    table_x = axis_table(coords)
    gy, gx = np.divmod(np.arange(length), g)
    pe = np.concatenate([table_y[gy], table_x[gx]], axis=1)
    return pe.astype(default_dtype())


@dataclass
class TokenSequence:
    tokens: Tensor  # (L, token_dim)
    pos: np.ndarray  # (L, token_dim), fixed

    @property
    def length(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


class PatchEmbed:
    """Learnable per-scale projection heads. Biases start at zero, so the
    freshly built embedding is exactly linear in the feature maps."""

    def __init__(self, stage_channels, cfg: PatchEmbedConfig, rng: np.random.Generator):
        if len(stage_channels) != len(cfg.patch_sizes):
            raise ContractError("one patch size per pyramid scale is required")
        self.cfg = cfg
        self.n_scales = len(cfg.patch_sizes)
        self.width = cfg.token_dim // self.n_scales
        dt = default_dtype()
        self.heads = []
        for c, p in zip(stage_channels, cfg.patch_sizes):
            w = Tensor(rng.normal(0.0, 0.02, size=(c * p * p, self.width)).astype(dt),
                       requires_grad=True)
            b = Tensor(np.zeros(self.width, dtype=dt), requires_grad=True)
            self.heads.append((w, b))

    def __call__(self, pyramid) -> TokenSequence:
        if len(pyramid) != self.n_scales:
            raise ShapeError(f"expected {self.n_scales} feature maps, got {len(pyramid)}")
        lengths = []
        parts = []
        for fmap, p, (w, b) in zip(pyramid, self.cfg.patch_sizes, self.heads):
            rows = patchify(np.asarray(fmap), p)
            lengths.append(rows.shape[0])
            parts.append(ad.add_bias(ad.matmul(Tensor(rows), w), b))
        if len(set(lengths)) != 1:
            raise ShapeError(f"token counts differ across scales: {lengths}")
        tokens = ad.concat_last(parts)
        pos = position_encoding(lengths[0], self.cfg.token_dim)
        return TokenSequence(tokens=tokens, pos=pos)
