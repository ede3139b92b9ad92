"""Dense tensors with reverse-mode autodiff on a define-by-run tape.

A ``Tensor`` wraps a numpy array. While a ``Tape`` is active, every operation
whose inputs require gradients appends one record (output, inputs, vjp) to the
tape; ``Tape.backward`` replays the records in reverse and accumulates
gradients into the ``.grad`` field of leaf tensors. Without an active tape the
same functions are plain numpy math, which is how inference runs.

The float width is a build-wide switch: ``set_default_dtype(np.float64)``
before constructing a model gives a float64 build for verification, the
default is float32.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

_DEFAULT_DTYPE = np.float32


class _TapeStack(threading.local):
    """Per-thread stack of active tapes; every thread starts with an empty
    one, so looking it up never misses."""

    def __init__(self):
        self.tapes = []


_tls = _TapeStack()


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the build-wide float width."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def active_tape():
    stack = _tls.tapes
    return stack[-1] if stack else None


class Tensor:
    """Immutable-by-convention array node. Do not mutate ``.data`` while a
    tape referencing the tensor is alive; the optimizer updates parameters
    in place only between tapes."""

    __slots__ = ("data", "requires_grad", "grad", "_from_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=default_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._from_op = False

    @classmethod
    def _wrap(cls, data: np.ndarray, requires_grad: bool, from_op: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        out._from_op = from_op
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data, requires_grad=False, from_op=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Records operations for one backward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)`` while still holding the tape. Backward visits the
    records in reverse creation order, so gradients are deterministic for a
    fixed forward program.
    """

    def __init__(self):
        self._records = []

    def __enter__(self) -> "Tape":
        _tls.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tls.tapes
        assert stack and stack[-1] is self
        stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple, vjp) -> None:
        self._records.append((out, inputs, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires_grad
        leaf reachable from ``loss``. Repeated calls keep accumulating; use
        ``reset_grads`` between steps."""
        if not isinstance(loss, Tensor):
            raise ContractError("backward expects a Tensor loss")
        if loss.data.shape != ():
            raise ContractError(f"backward expects a scalar loss, shape is {loss.data.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        if loss.requires_grad and not loss._from_op:
            loss.grad = grads[id(loss)] if loss.grad is None else loss.grad + grads[id(loss)]
        for out, inputs, vjp in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for inp, gi in zip(inputs, vjp(g)):
                if gi is None:
                    continue
                if inp._from_op:
                    prev = grads.get(id(inp))
                    grads[id(inp)] = gi if prev is None else prev + gi
                elif inp.requires_grad:
                    inp.grad = gi.copy() if inp.grad is None else inp.grad + gi


def reset_grads(params) -> None:
    for p in params:
        p.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data: np.ndarray, inputs: tuple, make_vjp) -> Tensor:
    """Wrap an op result, recording a vjp closure when grads are needed."""
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, requires_grad=needs, from_op=needs)
    if needs:
        tape.record(out, inputs, make_vjp())
    return out


def _constant(a: Tensor, b, opname: str):
    """``b`` as a gradient-free operand of ``a``'s dtype when it is a Python
    scalar or an array shaped like the trailing axes of ``a`` (a per-channel
    buffer, a position table); None when ``b`` is a tensor."""
    if isinstance(b, (int, float)):
        return a.data.dtype.type(b)
    if not isinstance(b, np.ndarray):
        return None
    shape = a.data.shape
    if b.ndim > len(shape) or b.shape != shape[len(shape) - b.ndim:]:
        raise ShapeError(f"{opname}: constant of shape {b.shape} does not match "
                         f"the trailing axes of {shape}")
    return b.astype(a.data.dtype, copy=False)


def _check_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ "
                         "(only same-shape or scalar operands are supported)")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    c = _constant(a, b, "add")
    if c is not None:
        def make_c():
            return lambda g: (g,)

        return _emit(a.data + c, (a,), make_c)
    b = _as_tensor(b)
    _check_same_shape(a, b, "add")

    def make():
        return lambda g: (g, g)

    return _emit(a.data + b.data, (a, b), make)


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return add(a, -b)
    b = _as_tensor(b)
    _check_same_shape(a, b, "sub")

    def make():
        return lambda g: (g, -g)

    return _emit(a.data - b.data, (a, b), make)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    c = _constant(a, b, "mul")
    if c is not None:
        def make_c():
            return lambda g: (g * c,)

        return _emit(a.data * c, (a,), make_c)
    b = _as_tensor(b)
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def make():
        return lambda g: (g * bd, g * ad)

    return _emit(ad * bd, (a, b), make)


def add_bias(x, b) -> Tensor:
    """Broadcast a 1-d bias over the last axis of ``x``."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: bias {b.data.shape} does not match last axis of {x.data.shape}")

    def make():
        lead = tuple(range(x.data.ndim - 1))
        return lambda g: (g, g.sum(axis=lead))

    return _emit(x.data + b.data, (x, b), make)


# ---------------------------------------------------------------------------
# nonlinearities


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)

    def make():
        return lambda g: (g * out,)

    return _emit(out, (x,), make)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def make():
        return lambda g: (g * (1.0 - out * out),)

    return _emit(out, (x,), make)


def leaky_relu(x, slope: float = 0.01) -> Tensor:
    """``x`` where ``x >= 0``, else ``slope * x``, computed in one pass as
    ``max(x, slope * x)``: for a slope in [0, 1] that picks the same bits,
    -0.0 and NaN included. The derivative at exactly 0 is 1. Only a
    recording tape keeps the boolean mask ``x >= 0``; backward expands it
    to 1 or ``slope`` with ``max(mask, slope)``, branch-free like the
    forward (a masked ``np.where`` or ``np.copyto`` is many times slower
    on maps of mixed signs)."""
    if not 0.0 <= slope <= 1.0:
        raise ContractError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    x = _as_tensor(x)
    xd = x.data
    s = xd.dtype.type(slope)
    out = np.maximum(xd, xd * s)

    def make():
        keep = xd >= 0
        return lambda g: (g * np.maximum(keep, s),)

    return _emit(out, (x,), make)


def gelu(x) -> Tensor:
    """Exact erf-based GELU."""
    x = _as_tensor(x)
    xd = x.data
    dt = xd.dtype.type
    cdf = dt(0.5) * (dt(1) + erf(xd * dt(1 / np.sqrt(2)))).astype(xd.dtype)
    out = xd * cdf

    def make():
        pdf = np.exp(dt(-0.5) * xd * xd) * dt(1 / np.sqrt(2 * np.pi))
        return lambda g: (g * (cdf + xd * pdf),)

    return _emit(out, (x,), make)


# ---------------------------------------------------------------------------
# shape and indexing


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")
    in_shape = x.data.shape

    def make():
        return lambda g: (g.reshape(in_shape),)

    return _emit(x.data.reshape(shape), (x,), make)


def permute(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of axes of rank {x.data.ndim}")
    inv = tuple(int(a) for a in np.argsort(axes))

    def make():
        # a strided view here would reach later reductions (a bias gradient)
        # in another memory order and change their float sums
        return lambda g: (np.ascontiguousarray(g.transpose(inv)),)

    return _emit(x.data.transpose(axes), (x,), make)


def take_last(x, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    x = _as_tensor(x)
    d = x.data.shape[-1]
    if not (0 <= start < stop <= d):
        raise ShapeError(f"take_last: slice [{start}:{stop}] out of range for axis size {d}")
    in_shape = x.data.shape

    def make():
        def vjp(g):
            gx = np.zeros(in_shape, dtype=g.dtype)
            gx[..., start:stop] = g
            return (gx,)

        return vjp

    return _emit(np.ascontiguousarray(x.data[..., start:stop]), (x,), make)


def concat_last(parts) -> Tensor:
    """Concatenate along the last axis; leading shapes must match."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_last needs at least one tensor")
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise ShapeError("concat_last: leading shapes differ")
    widths = [p.data.shape[-1] for p in parts]

    def make():
        def vjp(g):
            outs, off = [], 0
            for w in widths:
                outs.append(g[..., off:off + w])
                off += w
            return tuple(outs)

        return vjp

    return _emit(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), make)


def index_last(x, idx) -> Tensor:
    """Reorder the last axis by a permutation index array."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    d = x.data.shape[-1]
    if idx.shape != (d,) or not (np.sort(idx) == np.arange(d)).all():
        raise ShapeError(f"index_last: index must be a permutation of range({d})")

    def make():
        inv = np.argsort(idx)
        return lambda g: (np.take(g, inv, axis=-1),)

    return _emit(np.take(x.data, idx, axis=-1), (x,), make)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    in_shape = x.data.shape

    def make():
        return lambda g: (np.broadcast_to(g, in_shape).astype(g.dtype, copy=True),)

    return _emit(x.data.sum(), (x,), make)


def sum_batch(x) -> Tensor:
    """Sum over all axes except the leading batch axis, giving shape (B,)."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"sum_batch expects rank >= 2, got shape {x.data.shape}")
    in_shape = x.data.shape
    axes = tuple(range(1, x.data.ndim))

    def make():
        def vjp(g):
            expand = g.reshape((in_shape[0],) + (1,) * (len(in_shape) - 1))
            return (np.broadcast_to(expand, in_shape).astype(g.dtype, copy=True),)

        return vjp

    return _emit(x.data.sum(axis=axes), (x,), make)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """``(..., M, K) @ (K, N)`` is one (rows, K) @ (K, N) product over the
    flattened leading axes (token rows, pixels of a channels-last map);
    ``(..., M, K) @ (..., K, N)`` is one product per leading index (head)."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or (bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2])):
        raise ShapeError(f"matmul: operands {ad.shape} @ {bd.shape} do not agree")
    if bd.ndim > 2:
        def make_batched():
            return lambda g: (g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g)

        return _emit(ad @ bd, (a, b), make_batched)
    k, n = bd.shape
    flat = ad.reshape(-1, k)

    def make():
        def vjp(g):
            gf = g.reshape(-1, n)
            return ((gf @ bd.T).reshape(ad.shape), flat.T @ gf)

        return vjp

    return _emit((flat @ bd).reshape(ad.shape[:-1] + (n,)), (a, b), make)


def softmax_rows(x) -> Tensor:
    """Softmax over the last axis, computed with a max shift."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def make():
        def vjp(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return vjp

    return _emit(out, (x,), make)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xh = xc * inv
    out = xh * gain.data + bias.data
    gd = gain.data
    lead = tuple(range(xd.ndim - 1))

    def make():
        def vjp(g):
            dgain = (g * xh).sum(axis=lead)
            dbias = g.sum(axis=lead)
            dxh = g * gd
            m1 = dxh.mean(axis=-1, keepdims=True)
            m2 = (dxh * xh).mean(axis=-1, keepdims=True)
            dx = inv * (dxh - m1 - xh * m2)
            return (dx, dgain, dbias)

        return vjp

    return _emit(out, (x, gain, bias), make)


# ---------------------------------------------------------------------------
# depthwise convolution (stride 1, zero padding, channels-last)


def zero_pad_hw(xd: np.ndarray) -> np.ndarray:
    """A one-pixel zero border around the (H, W) axes of a channels-last map
    of shape (..., H, W, C): zeros with the interior assigned, the same
    array ``np.pad`` gives at a fraction of its per-call overhead."""
    h, w = xd.shape[-3], xd.shape[-2]
    xp = np.zeros(xd.shape[:-3] + (h + 2, w + 2, xd.shape[-1]), dtype=xd.dtype)
    xp[..., 1:h + 1, 1:w + 1, :] = xd
    return xp


def _dw3x3_forward(xd: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Sum of the nine shifted, kernel-weighted copies of the padded map.
    The padding is ``zero_pad_hw``, not ``np.pad``, whose Python-level setup
    cost more than the arithmetic on these small maps. The tap order, the
    ``zeros_like`` start and the in-place ``+=`` fix the float summation
    order, so outputs and checkpoints stay bit-for-bit reproducible: change
    none of them without saying so."""
    h, w = xd.shape[-3], xd.shape[-2]
    xp = zero_pad_hw(xd)
    out = np.zeros_like(xd)
    for dy in range(3):
        for dx in range(3):
            out += kd[dy, dx] * xp[..., dy:dy + h, dx:dx + w, :]
    return out


def depthwise_conv3x3(x, kernel) -> Tensor:
    """Stride-1 depthwise 3x3 convolution with zero 'same' padding on a
    channels-last map of shape (H, W, C) or (B, H, W, C); ``kernel`` is
    (3, 3, C)."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    xd, kd = x.data, kernel.data
    if xd.ndim not in (3, 4):
        raise ShapeError(f"depthwise_conv3x3 expects (H, W, C) or (B, H, W, C), got {xd.shape}")
    c = xd.shape[-1]
    if kd.shape != (3, 3, c):
        raise ShapeError(f"depthwise_conv3x3 kernel must be (3, 3, {c}), got {kd.shape}")
    out = _dw3x3_forward(xd, kd)
    h, w = xd.shape[-3], xd.shape[-2]
    lead = tuple(range(xd.ndim - 3))

    def make():
        def vjp(g):
            gx = _dw3x3_forward(g, kd[::-1, ::-1])
            xp = zero_pad_hw(xd)
            gk = np.empty_like(kd)
            for dy in range(3):
                for dx in range(3):
                    prod = g * xp[..., dy:dy + h, dx:dx + w, :]
                    gk[dy, dx] = prod.sum(axis=lead + (-3, -2))
            return (gx, gk)

        return vjp

    return _emit(out, (x, kernel), make)
