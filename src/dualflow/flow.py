"""Per-scale discriminative normalizing flows.

Each scale owns a stack of affine coupling layers over channels-last feature
maps: one half of the channels is transformed by scale and shift fields that
a small conv subnet predicts together from the other half (3x3 depthwise,
1x1, leaky ReLU, then a zero-initialized 1x1 whose output holds both fields,
so every stack starts as the identity). The coupling holds the subnet's six
tensors itself.
The log scale is soft-clamped, ``alpha * tanh(s / alpha)``, which keeps the
Jacobian bounded while leaving the log-determinant exact: a sum of the
clamped scales. A flow step is "permute, then couple": every coupling after
the first starts with its own fixed seeded channel permutation, and a fixed
affine standardization layer (fitted once on training features) runs first.
Each coupling is one tape op with two outputs, the transformed map and the
clamped log-scale field: its forward runs the subnet, the clamp and the
affine map in numpy, and its one hand-written vjp returns the gradients of
its input and of its six parameters, the same bits the op chain it
replaced gave (``tests/test_flow.py`` keeps that chain as the oracle). The
inverse runs without a tape.

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
from .encoder import LEAKY_SLOPE, leaky_relu
from .errors import ContractError, NumericError, ShapeError, check_field_types

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
        check_field_types(self)
        if self.variant not in FLOW_VARIANTS:
            raise ContractError(f"variant must be one of {sorted(FLOW_VARIANTS)}, "
                                f"got {self.variant!r}")
        if self.n_blocks < 1:
            raise ContractError("flow needs at least one coupling layer")
        if not (np.isfinite(self.clamp) and self.clamp > 0):
            raise ContractError("clamp must be finite and positive")
        if not (np.isfinite(self.hidden_ratio) and self.hidden_ratio > 0):
            raise ContractError("hidden_ratio must be finite and positive")


class CouplingLayer:
    """One flow step: a fixed channel permutation (volume preserving,
    checked once here; the identity when ``perm`` is None), then an affine
    coupling over a channel split of the permuted map. ``flip`` alternates
    which half is transformed; on an odd width the two halves differ by one
    channel. The coupling's subnet (dw3x3 -> 1x1 -> LeakyReLU -> 1x1, the
    last zero-initialized) reads the conditioning half and predicts, for the
    transformed half, the raw log-scale (its first ``n_out`` output
    channels) and the shift (its last ``n_out``). ``half_a`` and ``half_b``
    are the conditioning and the transformed half as channel slices of the
    permuted map, which is also the output's channel order; forward gathers
    each half straight from its input through the permutation and never
    builds the permuted map."""

    def __init__(self, channels: int, clamp: float, flip: bool, rng, hidden_ratio: float = 1.0,
                 perm=None):
        if channels < 2:
            raise ContractError("coupling needs at least 2 channels")
        perm = np.arange(channels) if perm is None else np.array(perm, dtype=np.int64)
        if perm.shape != (channels,) or not (np.sort(perm) == np.arange(channels)).all():
            raise ShapeError(f"index must be a permutation of range({channels})")
        self.channels = channels
        self.n_a = channels // 2
        self.clamp = clamp
        self.flip = flip
        self.perm, self.inv = perm, np.argsort(perm)
        self.half_a, self.half_b = ((slice(self.n_a, channels), slice(0, self.n_a)) if flip
                                    else (slice(0, self.n_a), slice(self.n_a, channels)))
        self.idx_a, self.idx_b = perm[self.half_a], perm[self.half_b]
        n_rest = channels - self.n_a
        n_in, self.n_out = (n_rest, self.n_a) if flip else (self.n_a, n_rest)
        hidden = max(1, int(round(n_in * hidden_ratio)))
        dt = default_dtype()
        self.dw_k = Tensor(rng.normal(0.0, 0.1, size=(3, 3, n_in)).astype(dt), requires_grad=True)
        self.dw_b = Tensor(np.zeros(n_in, dtype=dt), requires_grad=True)
        self.pw1_w = Tensor((rng.normal(0.0, 1.0, size=(n_in, hidden))
                             * np.sqrt(2.0 / n_in)).astype(dt), requires_grad=True)
        self.pw1_b = Tensor(np.zeros(hidden, dtype=dt), requires_grad=True)
        self.pw2_w = Tensor(np.zeros((hidden, 2 * self.n_out), dtype=dt), requires_grad=True)
        self.pw2_b = Tensor(np.zeros(2 * self.n_out, dtype=dt), requires_grad=True)

    def params(self):
        return {"dw.k": self.dw_k, "dw.b": self.dw_b,
                "pw1.w": self.pw1_w, "pw1.b": self.pw1_b,
                "pw2.w": self.pw2_w, "pw2.b": self.pw2_b}

    def _subnet(self, a: np.ndarray):
        """The subnet on the array ``a``, with no tape: the conv output (bias
        added), the hidden map before the leaky ReLU, and the output; a 1x1
        layer is an affine map over channels, computed as ``linear`` does."""
        h0 = ad._dw3x3_forward(a, self.dw_k.data)
        h0 += self.dw_b.data
        h1 = ad._linear_forward(h0, self.pw1_w.data, self.pw1_b.data)
        return h0, h1, ad._linear_forward(leaky_relu(h1), self.pw2_w.data, self.pw2_b.data)

    def forward(self, x: Tensor):
        """The output and the clamped log-scale field, as one tape op; the
        field's per-location channel sum is the exact local Jacobian term,
        and the permutation adds nothing to it. Forward and vjp do the op
        chain's arithmetic in its order (the two gathers, the subnet's ops,
        ``clamp * tanh(raw / clamp)``, ``b * exp(s) + shift``, the join), so
        they give its bits. The vjp keeps the two halves, the conv output,
        the hidden map before the leaky ReLU and ``tanh``'s output; it
        recomputes ``exp(s)`` and the leaky ReLU's output with the forward's
        own ops, which is exact and keeps a third less per coupling. When
        ``x`` requires no gradient (the first coupling of a stack), the vjp
        returns None for it and computes none."""
        xd, n, need_gx = x.data, self.n_out, x.requires_grad
        a, b = np.take(xd, self.idx_a, axis=-1), np.take(xd, self.idx_b, axis=-1)
        h0, h1, out = self._subnet(a)
        dt, x_shape, out_shape = out.dtype.type, xd.shape, out.shape
        th = np.tanh(out[..., :n] * dt(1.0 / self.clamp))
        s = th * dt(self.clamp)
        # the shift copied out contiguous, as ``take_last`` gave it: which of
        # two NaN terms a sum keeps depends on the operands' memory layout
        y_b = b * np.exp(s) + np.ascontiguousarray(out[..., n:])
        del out
        y = np.concatenate((y_b, a) if self.flip else (a, y_b), axis=-1)
        kd, w1, w2 = self.dw_k.data, self.pw1_w.data, self.pw2_w.data

        def vjp(gy, gs):
            # a local, so that the forward's ``exp(s)`` is not kept
            e = np.exp(th * dt(self.clamp))
            if gy is not None:
                gy_b = gy[..., self.half_b]
                g_e = gy_b * b
                g_e *= e
                gs = g_e if gs is None else gs + g_e
                del g_e
            g_out = np.zeros(out_shape, dtype=gs.dtype)
            g_raw = gs * dt(self.clamp)
            g_raw *= 1.0 - th * th
            g_raw *= dt(1.0 / self.clamp)
            g_out[..., :n] = g_raw
            del gs, g_raw
            if gy is not None:
                g_out[..., n:] = gy_b
            g_h, g_w2, g_b2 = ad._linear_vjp(g_out, leaky_relu(h1), w2)
            del g_out
            g_h *= np.maximum(h1 >= 0, h1.dtype.type(LEAKY_SLOPE))
            g_h, g_w1, g_b1 = ad._linear_vjp(g_h, h0, w1)
            g_a, g_k, g_dwb = ad._dw3x3_vjp(g_h, a, kd, need_gx=need_gx)
            del g_h
            if not need_gx:
                return None, g_k, g_dwb, g_w1, g_b1, g_w2, g_b2
            g_x = np.zeros(x_shape, dtype=g_a.dtype)
            g_x[..., self.idx_a] = g_a if gy is None else gy[..., self.half_a] + g_a
            if gy is not None:
                g_x[..., self.idx_b] = gy_b * e
                # The chain summed its two gathers' zero-filled scatters,
                # which turns -0.0 into +0.0. The subnet output's gradient
                # needs no such sum: its readers, two products and a bias
                # sum, all start from +0.0.
                g_x += 0
            return g_x, g_k, g_dwb, g_w1, g_b1, g_w2, g_b2

        return ad._emit((y, s), (x, *self.params().values()), vjp)

    def inverse(self, y: Tensor) -> Tensor:
        """``forward``'s inverse, in the arithmetic of the op chain's inverse,
        and with no tape: no caller differentiates it."""
        yd, n = y.data, self.n_out
        a, y_b = (np.ascontiguousarray(yd[..., h]) for h in (self.half_a, self.half_b))
        out = self._subnet(a)[-1]
        dt = out.dtype.type
        s = np.tanh(out[..., :n] * dt(1.0 / self.clamp)) * dt(self.clamp)
        b = (y_b - np.ascontiguousarray(out[..., n:])) * np.exp(s * dt(-1.0))
        x = np.concatenate((b, a) if self.flip else (a, b), axis=-1)
        return Tensor._wrap(np.take(x, self.inv, axis=-1), None)


def checked_stats(what: str, mean: np.ndarray, std: np.ndarray, dtype):
    """Fitted (mean, std) statistics cast to ``dtype``, and checked as cast:
    both finite (else ``NumericError``), every std positive (else
    ``ContractError``)."""
    mean, std = mean.astype(dtype), std.astype(dtype)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise NumericError(f"{what} mean and std must be finite")
    if np.any(std <= 0):
        raise ContractError(f"{what} std must be positive")
    return mean, std


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
        self.mean, self.std = checked_stats("standardization", mean, std, self.mean.dtype)

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
