"""Frozen multi-scale feature extractor and patch tokenization.

The extractor is a small random-weight conv stack held outside the autodiff
graph: its outputs play the role of a pretrained backbone's feature pyramid
and never receive gradients. Per-scale feature maps are cut into
non-overlapping patches sized so every scale yields the same token count L,
projected to a shared width, and concatenated along the channel axis.

The feature taps sit at the fixed strides ``STAGE_STRIDES``, a constant
rather than a config field, because no other strides are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, default_dtype
from .errors import ContractError, ShapeError, check_field_types


STAGE_STRIDES = (4, 8, 16)
LEAKY_SLOPE = 0.01  # of every leaky ReLU: the frozen encoder's and the flow subnets'


@dataclass(frozen=True)
class EncoderConfig:
    in_size: int = 64
    stage_channels: tuple[int, ...] = (16, 32, 64)

    def __post_init__(self):
        check_field_types(self)
        if len(self.stage_channels) != 3:
            raise ContractError("encoder uses exactly 3 stages")
        if min(self.stage_channels) < 1:
            raise ContractError("stage channel counts must be positive")
        if self.in_size % 16 != 0 or self.in_size <= 0:
            raise ContractError(f"in_size must be a positive multiple of 16, got {self.in_size}")


def _conv3x3_s2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 conv, stride 2, zero padding 1, channels last; H and W even. One
    stacked (9, Ho*Wo, Cin) @ (9, Cin, Cout) ``np.matmul`` writes the taps,
    each the GEMM a per-tap ``np.tensordot`` runs, into slabs 1 to 9 of a
    buffer whose slab 0 is the bias; ``np.add.reduce`` adds the slabs in
    the order ``autodiff._dw3x3_forward`` states, the bias in place of its
    zero start. ``dualflow selftest`` checks the bits against a tap loop."""
    h, wd, cin = x.shape
    ho, wo, cout = h // 2, wd // 2, w.shape[-1]
    taps = np.ascontiguousarray(ad.tap_view(ad.zero_pad_hw(x), (ho, wo, cin), 2))
    buf = np.empty((10, ho * wo, cout), dtype=b.dtype)
    buf[0] = b
    np.matmul(taps.reshape(9, ho * wo, cin), w.reshape(9, cin, cout), out=buf[1:])
    return np.add.reduce(buf, axis=0).reshape(ho, wo, cout)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """``x`` where ``x >= 0``, else ``LEAKY_SLOPE * x``, computed in one pass
    as ``max(x, slope * x)``, which picks the same bits, -0.0 and NaN
    included. Its derivative, 1 at exactly 0, is ``max(x >= 0, slope)``:
    branch-free like the forward (a masked ``np.where`` is many times
    slower on maps of mixed signs)."""
    return np.maximum(x, x * x.dtype.type(LEAKY_SLOPE))


class FrozenEncoder:
    """Four 3x3 stride-2 convs with Kaiming-style weights drawn from one
    fixed seed, like one fixed pretrained backbone. Feature taps sit at
    strides 4, 8 and 16; weights are plain arrays, so nothing here can ever
    appear in an optimizer."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence(0))
        c1, c2, c3 = cfg.stage_channels
        dt = default_dtype()
        self.weights = []
        for cin, cout in [(3, c1), (c1, c1), (c1, c2), (c2, c3)]:
            w = rng.normal(0.0, math.sqrt(2.0 / (9 * cin)), size=(3, 3, cin, cout)).astype(dt)
            self.weights.append((w, rng.normal(0.0, 0.1, size=cout).astype(dt)))

    def __call__(self, image: np.ndarray) -> list:
        s = self.cfg.in_size
        if image.shape != (s, s, 3):
            raise ShapeError(f"encoder expects image of shape ({s}, {s}, 3), got {image.shape}")
        x = np.asarray(image, dtype=default_dtype())
        maps = []
        for w, b in self.weights:
            x = leaky_relu(_conv3x3_s2(x, w, b))
            maps.append(x)
        return maps[1:]  # the taps at strides 4, 8 and 16


@dataclass(frozen=True)
class PatchEmbedConfig:
    patch_sizes: tuple[int, ...] = (4, 2, 1)
    token_dim: int = 96

    def __post_init__(self):
        check_field_types(self)
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
    """(..., H, W, C) -> (..., L, p*p*C) rows of non-overlapping p x p
    patches in row-major grid order; each row flattens as (py, px, c)."""
    *lead, h, w, c = fmap.shape
    if h % p or w % p:
        raise ShapeError(f"map {fmap.shape} not divisible into {p}x{p} patches")
    gy, gx = h // p, w // p
    n = len(lead)
    out = fmap.reshape(*lead, gy, p, gx, p, c)
    out = out.transpose(*range(n), n, n + 2, n + 1, n + 3, n + 4)
    return np.ascontiguousarray(out).reshape(*lead, gy * gx, p * p * c)


def unpatchify(rows: Tensor, p: int, h: int, w: int, c: int) -> Tensor:
    """The inverse of ``patchify`` as one tape op: (..., L, p*p*C) rows to
    the (..., H, W, C) map. It only moves data, so its vjp is ``patchify``
    and keeps nothing; ``tests/test_encoder.py`` holds both to the
    reshape, permute and reshape chain they replaced."""
    lead = rows.shape[:-2]
    n = len(lead)
    gy, gx = h // p, w // p
    x = rows.data.reshape(lead + (gy, gx, p, p, c)).transpose(*range(n), n, n + 2, n + 1,
                                                                n + 3, n + 4)
    return ad._emit(x.reshape(lead + (h, w, c)), (rows,), lambda g: (patchify(g, p),))


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
    ang = np.outer(np.arange(g, dtype=np.float64), freqs)
    table = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)  # both axes' table
    gy, gx = np.divmod(np.arange(length), g)
    pe = np.concatenate([table[gy], table[gx]], axis=1)
    return pe.astype(default_dtype())


def affine_params(rng, d_in: int, d_out: int):
    """A fresh affine layer's leaves: (d_in, d_out) w ~ N(0, 0.02^2), zero b."""
    dt = default_dtype()
    w = Tensor(rng.normal(0.0, 0.02, size=(d_in, d_out)).astype(dt), requires_grad=True)
    return w, Tensor(np.zeros(d_out, dtype=dt), requires_grad=True)


def head_params(heads) -> dict:
    """``params()`` of a list of per-scale (w, b) heads: ``{i}.w``, ``{i}.b``."""
    return {f"{i}.{name}": t for i, wb in enumerate(heads) for name, t in zip("wb", wb)}


def merged_params(*named) -> dict:
    """The ``params()`` of (prefix, module) pairs, in order, as ``prefix.name``."""
    return {f"{prefix}.{k}": v for prefix, module in named for k, v in module.params().items()}


class PatchEmbed:
    """Learnable per-scale projection heads from a pyramid to (..., L, D)
    tokens, without positions (``DualAttention`` adds its own table). Biases
    start at zero, so the freshly built embedding is exactly linear in the
    feature maps."""

    def __init__(self, stage_channels, cfg: PatchEmbedConfig, rng: np.random.Generator):
        if len(stage_channels) != len(cfg.patch_sizes):
            raise ContractError("one patch size per pyramid scale is required")
        self.cfg = cfg
        self.n_scales = len(cfg.patch_sizes)
        self.width = cfg.token_dim // self.n_scales
        self.heads = [affine_params(rng, c * p * p, self.width)
                      for c, p in zip(stage_channels, cfg.patch_sizes)]

    def params(self):
        return head_params(self.heads)

    def __call__(self, pyramid) -> Tensor:
        """Tokens of a pyramid of (..., H, W, C) maps whose leading axes agree
        across scales."""
        if len(pyramid) != self.n_scales:
            raise ShapeError(f"expected {self.n_scales} feature maps, got {len(pyramid)}")
        lengths = []
        parts = []
        for fmap, p, (w, b) in zip(pyramid, self.cfg.patch_sizes, self.heads):
            rows = patchify(np.asarray(fmap), p)
            lengths.append(rows.shape[-2])
            parts.append(ad.linear(Tensor(rows), w, b))
        if len(set(lengths)) != 1:
            raise ShapeError(f"token counts differ across scales: {lengths}")
        return ad.concat_last(parts)
