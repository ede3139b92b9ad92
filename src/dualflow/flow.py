"""Per-scale discriminative normalizing flows.

Each scale owns a stack of affine coupling layers over channels-last feature
maps: one half of the channels is transformed by scale and shift fields that
one small conv subnet predicts together from the other half (3x3 depthwise,
1x1, leaky ReLU, then a zero-initialized 1x1 whose output holds both fields,
so every stack starts as the identity).
The log scale is soft-clamped, ``alpha * tanh(s / alpha)``, which keeps the
Jacobian bounded while leaving the log-determinant exact: a sum of the
clamped scales. A flow step is "permute, then couple": every coupling after
the first starts with its own fixed seeded channel permutation, and a fixed
affine standardization layer (fitted once on training features) runs first.
The flow maps data to latent and returns the couplings' scale fields;
``FlowStack.log_det`` builds the log-determinant from them, so scoring, which
needs only per-location terms, never builds it. Log-likelihoods come from
the change of variables against a standard normal base.

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
    variant: str = "D"
    n_blocks: int = 8
    clamp: float = 2.0
    hidden_ratio: float = 2.0

    def __post_init__(self):
        if self.variant not in FLOW_VARIANTS:
            raise ContractError(f"variant must be one of {sorted(FLOW_VARIANTS)}, "
                                f"got {self.variant!r}")
        if self.n_blocks < 1:
            raise ContractError("flow needs at least one coupling layer")
        if not (np.isfinite(self.clamp) and self.clamp > 0):
            raise ContractError("clamp must be finite and positive")
        if not (np.isfinite(self.hidden_ratio) and self.hidden_ratio > 0):
            raise ContractError("hidden_ratio must be finite and positive")


class Subnet:
    """dw3x3 -> 1x1 -> LeakyReLU -> 1x1 (zero init): identity-at-init
    predictor of per-location fields from the untouched channel half; a
    coupling's one subnet outputs its raw log-scale and its shift side by
    side. A 1x1 layer is a ``linear`` over the channel axis."""

    def __init__(self, c_in: int, c_out: int, rng, hidden: int):
        dt = default_dtype()
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
        h = ad.depthwise_conv3x3(x, self.dw_k, self.dw_b)
        h = ad.leaky_relu(ad.linear(h, self.pw1_w, self.pw1_b))
        return ad.linear(h, self.pw2_w, self.pw2_b)


class CouplingLayer:
    """One flow step: a fixed channel permutation (volume preserving,
    checked once here; the identity when ``perm`` is None), then an affine
    coupling over a channel split of the permuted map. ``flip`` alternates
    which half is transformed; on an odd width the two halves differ by one
    channel. One subnet reads the conditioning half and predicts, for the
    transformed half, the raw log-scale (its first ``n_out`` output
    channels) and the shift (its last ``n_out``). forward gathers each half
    straight from its input through the permutation, never building the
    permuted map, and returns the output and the clamped log-scale field;
    its per-location channel sum is the exact local Jacobian term, and the
    permutation adds nothing to it."""

    def __init__(self, channels: int, clamp: float, flip: bool, rng, hidden_ratio: float = 1.0,
                 perm=None):
        if channels < 2:
            raise ContractError("coupling needs at least 2 channels")
        self.channels = channels
        self.n_a = channels // 2
        self.clamp = clamp
        self.flip = flip
        self.perm = ad.Permutation(np.arange(channels) if perm is None else perm, channels)
        self.inv = ad.Permutation(self.perm.inv, channels)
        # (start, stop) of the conditioning and the transformed half in
        # permuted channel order
        self.half_a, self.half_b = (((self.n_a, channels), (0, self.n_a)) if flip
                                    else ((0, self.n_a), (self.n_a, channels)))
        n_rest = channels - self.n_a
        n_in, self.n_out = (n_rest, self.n_a) if flip else (self.n_a, n_rest)
        hidden = max(1, int(round(n_in * hidden_ratio)))
        self.net = Subnet(n_in, 2 * self.n_out, rng, hidden)

    def params(self):
        return self.net.params()

    def _join(self, a: Tensor, b: Tensor) -> Tensor:
        return ad.concat_last([b, a] if self.flip else [a, b])

    def _scale_shift(self, a: Tensor):
        """The clamped log-scale and the shift predicted from ``a``."""
        out = self.net(a)
        raw = ad.take_last(out, 0, self.n_out)
        t = ad.take_last(out, self.n_out, 2 * self.n_out)
        return ad.mul(ad.tanh(ad.mul(raw, 1.0 / self.clamp)), self.clamp), t

    def forward(self, x: Tensor):
        a = ad.take_channels(x, self.perm, *self.half_a)
        b = ad.take_channels(x, self.perm, *self.half_b)
        s, t = self._scale_shift(a)
        y_b = ad.add(ad.mul(b, ad.exp(s)), t)
        return self._join(a, y_b), s

    def inverse(self, y: Tensor) -> Tensor:
        a, y_b = ad.take_last(y, *self.half_a), ad.take_last(y, *self.half_b)
        s, t = self._scale_shift(a)
        b = ad.mul(ad.sub(y_b, t), ad.exp(ad.mul(s, -1.0)))
        return ad.take_channels(self._join(a, b), self.inv, 0, self.channels)


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

    def forward(self, x: Tensor) -> Tensor:
        return ad.mul(ad.add(x, -self.mean), 1.0 / self.std)

    def inverse(self, y: Tensor) -> Tensor:
        return ad.add(ad.mul(y, self.std), self.mean)


def _check_finite(x: Tensor, stage, i: int, direction: str = "") -> None:
    if not np.isfinite(x.data).all():
        raise NumericError(f"non-finite values after {direction}flow stage {i} "
                           f"({type(stage).__name__})")


class FlowStack:
    """Standardization (stage 0), then ``n_blocks`` alternating couplings
    (stages 1 to n_blocks), each after the first with its own seeded
    permutation. Operates on (B, H, W, C) tensors."""

    def __init__(self, channels: int, cfg: FlowConfig, rng):
        self.channels = channels
        self.standardize = StandardizeStage(channels)
        # each permutation is drawn before its coupling's subnet
        self.couplings = [CouplingLayer(channels, cfg.clamp, flip=bool(i % 2), rng=rng,
                                        hidden_ratio=cfg.hidden_ratio,
                                        perm=rng.permutation(channels) if i else None)
                          for i in range(cfg.n_blocks)]

    def params(self):
        return {f"layer{k}.{name}": p for k, layer in enumerate(self.couplings)
                for name, p in layer.params().items()}

    def _check_input(self, u: Tensor) -> None:
        if u.ndim != 4 or u.shape[-1] != self.channels:
            raise ShapeError(f"flow expects (B, H, W, {self.channels}), got {u.shape}")

    def forward(self, u: Tensor):
        """Data to latent. Returns (z, fields): z is shaped like ``u`` and
        ``fields`` are the per-coupling clamped log-scale fields, the whole
        Jacobian term besides the standardization (see ``log_det``)."""
        self._check_input(u)
        x = self.standardize.forward(u)
        _check_finite(x, self.standardize, 0)
        fields = []
        for i, layer in enumerate(self.couplings, 1):
            x, s = layer.forward(x)
            _check_finite(x, layer, i)
            fields.append(s)
        return x, fields

    def log_det(self, fields) -> Tensor:
        """Per-sample log-determinant, shape (B,), of the forward that gave
        ``fields``: the standardization's constant at every location, then
        one ``sum_batch`` and one ``add`` per coupling field."""
        b, h, w, _ = fields[0].shape
        base = h * w * self.standardize.local_logdet()
        logdet = Tensor(np.full(b, base, dtype=default_dtype()))
        for s in fields:
            logdet = ad.add(logdet, ad.sum_batch(s))
        return logdet

    def inverse(self, z: Tensor) -> Tensor:
        self._check_input(z)
        x = z
        for i, layer in reversed(list(enumerate(self.couplings, 1))):
            x = layer.inverse(x)
            _check_finite(x, layer, i, "inverse ")
        x = self.standardize.inverse(x)
        _check_finite(x, self.standardize, 0, "inverse ")
        return x


def per_location_stats(stack: FlowStack, u: Tensor):
    """Per-location latent energy and Jacobian terms: ``z_norm_sq[b, h, w]``
    is the channel sum of z^2, ``local_logdet[b, h, w]`` collects every
    coupling's clamped scales plus the standardization constant at that
    location. Their (h, w) sums recover ``z`` squared and
    ``stack.log_det``, which is not built here."""
    z, fields = stack.forward(u)
    z_norm_sq = (np.asarray(z.data, dtype=np.float64) ** 2).sum(axis=-1)
    b, h, w, _ = u.shape
    local = np.full((b, h, w), stack.standardize.local_logdet(), dtype=np.float64)
    for s in fields:
        local += np.asarray(s.data, dtype=np.float64).sum(axis=-1)
    return z_norm_sq, local
