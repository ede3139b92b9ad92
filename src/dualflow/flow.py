"""Per-scale discriminative normalizing flows.

Each scale owns a stack of affine coupling layers over channels-last feature
maps: one half of the channels is transformed by scale/shift fields predicted
from the other half through a small conv subnet (3x3 depthwise, 1x1, leaky
ReLU, then a zero-initialized 1x1, so every stack starts as the identity).
The log scale is soft-clamped, ``alpha * tanh(s / alpha)``, which keeps the
Jacobian bounded while leaving the log-determinant exact: a sum of the
clamped scales. Fixed seeded channel permutations sit between couplings, and
a fixed affine standardization layer (fitted once on training features) runs
first. The flow maps data to latent; log-likelihoods come from the change of
variables against a standard normal base.

The flow input is the channel concatenation of the frozen prior features
with reconstruction branches, selected by variant: P, P-S, P-M, or D
(prior + self + memorial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, default_dtype
from .errors import ContractError, NumericError, ShapeError

FLOW_VARIANTS = {
    "P": ("prior",),
    "P-S": ("prior", "self"),
    "P-M": ("prior", "memorial"),
    "D": ("prior", "self", "memorial"),
}


@dataclass(frozen=True)
class FlowConfig:
    n_blocks: int = 8
    clamp: float = 2.0
    hidden_ratio: float = 2.0

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ContractError("flow needs at least one coupling layer")
        if not (np.isfinite(self.clamp) and self.clamp > 0):
            raise ContractError("clamp must be finite and positive")
        if not (np.isfinite(self.hidden_ratio) and self.hidden_ratio > 0):
            raise ContractError("hidden_ratio must be finite and positive")


class Subnet:
    """dw3x3 -> 1x1 -> LeakyReLU -> 1x1 (zero init): identity-at-init
    predictor of a per-location field from the untouched channel half. A 1x1
    layer is a ``matmul`` over the channel axis."""

    def __init__(self, c_in: int, c_out: int, rng, hidden: int | None = None):
        dt = default_dtype()
        hidden = c_in if hidden is None else hidden
        self.dw_k = Tensor(rng.normal(0.0, 0.1, size=(3, 3, c_in)).astype(dt), requires_grad=True)
        self.dw_b = Tensor(np.zeros(c_in, dtype=dt), requires_grad=True)
        self.pw1_w = Tensor((rng.normal(0.0, 1.0, size=(c_in, hidden))
                             * np.sqrt(2.0 / c_in)).astype(dt), requires_grad=True)
        self.pw1_b = Tensor(np.zeros(hidden, dtype=dt), requires_grad=True)
        self.pw2_w = Tensor(np.zeros((hidden, c_out), dtype=dt), requires_grad=True)
        self.pw2_b = Tensor(np.zeros(c_out, dtype=dt), requires_grad=True)

    def params(self):
        return {"dw.k": self.dw_k, "dw.b": self.dw_b,
                "pw1.w": self.pw1_w, "pw1.b": self.pw1_b,
                "pw2.w": self.pw2_w, "pw2.b": self.pw2_b}

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.add_bias(ad.depthwise_conv3x3(x, self.dw_k), self.dw_b)
        h = ad.add_bias(ad.matmul(h, self.pw1_w), self.pw1_b)
        h = ad.leaky_relu(h)
        return ad.add_bias(ad.matmul(h, self.pw2_w), self.pw2_b)


class CouplingLayer:
    """Affine coupling over a channel split. ``flip`` alternates which half
    is transformed. forward returns the output and the clamped log-scale
    field; its per-location channel sum is the exact local Jacobian term."""

    def __init__(self, channels: int, clamp: float, flip: bool, rng, hidden_ratio: float = 1.0):
        if channels < 2:
            raise ContractError("coupling needs at least 2 channels")
        self.channels = channels
        self.n_a = channels // 2
        self.clamp = clamp
        self.flip = flip
        n_a, n_b = self.n_a, channels - self.n_a
        hidden = max(1, int(round(n_a * hidden_ratio)))
        self.s_net = Subnet(n_a, n_b, rng, hidden)
        self.t_net = Subnet(n_a, n_b, rng, hidden)

    def params(self):
        out = {}
        for k, v in self.s_net.params().items():
            out[f"s.{k}"] = v
        for k, v in self.t_net.params().items():
            out[f"t.{k}"] = v
        return out

    def _halves(self, x: Tensor):
        if self.flip:
            return ad.take_last(x, self.n_a, self.channels), ad.take_last(x, 0, self.n_a)
        return ad.take_last(x, 0, self.n_a), ad.take_last(x, self.n_a, self.channels)

    def _join(self, a: Tensor, b: Tensor) -> Tensor:
        return ad.concat_last([b, a] if self.flip else [a, b])

    def _clamped_scale(self, a: Tensor) -> Tensor:
        raw = self.s_net(a)
        return ad.mul(ad.tanh(ad.mul(raw, 1.0 / self.clamp)), self.clamp)

    def forward(self, x: Tensor):
        a, b = self._halves(x)
        s = self._clamped_scale(a)
        t = self.t_net(a)
        y_b = ad.add(ad.mul(b, ad.exp(s)), t)
        return self._join(a, y_b), s

    def inverse(self, y: Tensor) -> Tensor:
        a, y_b = self._halves(y)
        s = self._clamped_scale(a)
        t = self.t_net(a)
        b = ad.mul(ad.sub(y_b, t), ad.exp(ad.mul(s, -1.0)))
        return self._join(a, b)


class PermuteStage:
    """Fixed channel permutation; volume preserving."""

    def __init__(self, perm: np.ndarray):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.inv = np.argsort(self.perm)

    def forward(self, x: Tensor):
        return ad.index_last(x, self.perm), None

    def inverse(self, y: Tensor) -> Tensor:
        return ad.index_last(y, self.inv)


class StandardizeStage:
    """Fixed per-channel affine (x - mean) / std. Identity until stats are
    fitted. Contributes -sum(log std) to the log-determinant at every
    location. The (C,) buffers broadcast over the map as gradient-free
    operands of ``add`` and ``mul``: the same floats as full-size constant
    maps, without building them on every call, taped or not."""

    def __init__(self, channels: int):
        dt = default_dtype()
        self.mean = np.zeros(channels, dtype=dt)
        self.std = np.ones(channels, dtype=dt)

    def set_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericError("standardization mean and std must be finite")
        if np.any(std <= 0):
            raise ContractError("standardization std must be positive")
        self.mean = mean.astype(self.mean.dtype)
        self.std = std.astype(self.std.dtype)

    def local_logdet(self) -> float:
        return float(-np.log(self.std.astype(np.float64)).sum())

    def forward(self, x: Tensor):
        return ad.mul(ad.add(x, -self.mean), 1.0 / self.std), None

    def inverse(self, y: Tensor) -> Tensor:
        return ad.add(ad.mul(y, self.std), self.mean)


class FlowStack:
    """Standardization, then alternating couplings with seeded permutations
    in between. Operates on (B, H, W, C) tensors."""

    def __init__(self, channels: int, cfg: FlowConfig, rng):
        self.channels = channels
        self.cfg = cfg
        self.standardize = StandardizeStage(channels)
        self.stages = [self.standardize]
        for i in range(cfg.n_blocks):
            if i > 0:
                self.stages.append(PermuteStage(rng.permutation(channels)))
            self.stages.append(CouplingLayer(channels, cfg.clamp, flip=bool(i % 2),
                                             rng=rng, hidden_ratio=cfg.hidden_ratio))

    def params(self):
        out = {}
        layer = 0
        for stage in self.stages:
            if isinstance(stage, CouplingLayer):
                for k, v in stage.params().items():
                    out[f"layer{layer}.{k}"] = v
                layer += 1
        return out

    def _check_input(self, u: Tensor) -> None:
        if u.ndim != 4 or u.shape[-1] != self.channels:
            raise ShapeError(f"flow expects (B, H, W, {self.channels}), got {u.shape}")

    def forward(self, u: Tensor):
        """Data to latent. Returns (z, logdet, scale_fields) where logdet has
        shape (B,) and scale_fields are the per-coupling clamped log scales."""
        self._check_input(u)
        b, h, w, _ = u.shape
        dt = default_dtype()
        base = h * w * self.standardize.local_logdet()
        logdet = Tensor(np.full(b, base, dtype=dt))
        fields = []
        x = u
        for i, stage in enumerate(self.stages):
            x, s = stage.forward(x)
            if not np.isfinite(x.data).all():
                raise NumericError(f"non-finite values after flow stage {i} "
                                   f"({type(stage).__name__})")
            if s is not None:
                fields.append(s)
                logdet = ad.add(logdet, ad.sum_batch(s))
        return x, logdet, fields

    def inverse(self, z: Tensor) -> Tensor:
        self._check_input(z)
        x = z
        for i, stage in enumerate(reversed(self.stages)):
            x = stage.inverse(x)
            if not np.isfinite(x.data).all():
                raise NumericError(f"non-finite values after inverse flow stage {i} "
                                   f"({type(stage).__name__})")
        return x


def per_location_stats(stack: FlowStack, u: Tensor):
    """Per-location latent energy and Jacobian terms: ``z_norm_sq[b, h, w]``
    is the channel sum of z^2, ``local_logdet[b, h, w]`` collects every
    coupling's clamped scales plus the standardization constant at that
    location. Their (h, w) sums recover the global quantities."""
    z, _, fields = stack.forward(u)
    z_norm_sq = (np.asarray(z.data, dtype=np.float64) ** 2).sum(axis=-1)
    b, h, w, _ = u.shape
    local = np.full((b, h, w), stack.standardize.local_logdet(), dtype=np.float64)
    for s in fields:
        local += np.asarray(s.data, dtype=np.float64).sum(axis=-1)
    return z_norm_sq, local
