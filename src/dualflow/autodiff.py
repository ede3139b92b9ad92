"""Dense tensors with reverse-mode autodiff on a define-by-run tape.

A ``Tensor`` wraps a numpy array. Each op computes its forward and hands
``_emit`` one vjp closure (output gradients to input gradients). While a
``Tape`` is active, every op whose inputs require gradients gives each of its
outputs a fresh integer key and appends one record (keys, targets, vjp) to
the tape: ``targets`` names, per input, the key of the op that made it, the
leaf tensor that requires grad, or None for a constant. A record holds no op
output, so an array lives only as long as the forward's own locals or some
vjp closure refer to it, and whatever no backward reads is freed during the
forward. ``Tape.backward`` replays the records in reverse, is the only
caller of the closures, and accumulates gradients into the ``.grad`` field
of leaf tensors. It frees each record once it has run it, so the arrays
only that closure reads go while the backward goes on, and a tape is
backpropagated once. Work only the gradient needs runs inside the closure.
Without an active tape the same functions are plain numpy math and the
closures are dropped unrun, which is how inference runs.

The float width is a build-wide switch: a model constructed inside
``with using_dtype(np.float64):`` is a float64 build for verification, the
default is float32.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

_DEFAULT_DTYPE = np.float32


# The stack of active tapes. Tapes run on one thread: the stack is shared by
# every thread of the process.
_tapes = []
# Keys of taped outputs, unique for the life of the process: an ``id()``
# can be reused once an output is freed, and would then misroute a gradient.
_keys = itertools.count()


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the build-wide float width (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"default dtype must be float32 or float64, got {dtype}")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class Tensor:
    """Immutable-by-convention array node. Do not mutate ``.data`` while a
    tape referencing the tensor is alive; the optimizer updates parameters
    in place only between tapes. ``_node`` is the tape key of the op that
    made the tensor, None for a leaf or an untaped result."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=default_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @classmethod
    def _wrap(cls, data: np.ndarray, node) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = node is not None
        out.grad = None
        out._node = node
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Records operations for one backward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)`` once, while still holding the tape. A record is
    (keys, targets, vjp): the keys of the op's outputs, per input its
    producing op's key, the leaf tensor that requires grad or None, and the
    vjp closure, which takes one gradient per output (None for an output
    that got none) and is skipped when no output got one. The tape keeps no
    output array; which arrays outlive the forward is set by what the vjp
    closures read. Backward visits the records in reverse creation order, so
    gradients are deterministic for a fixed forward program, and drops each
    record once it has run it. ``len(tape)`` counts the records not yet run.
    """

    def __init__(self):
        self._records = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _tapes and _tapes[-1] is self
        _tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires_grad
        leaf reachable from ``loss``, dropping each record once it has run
        it: a closure, and every array only it reads, is freed before the
        next one runs. The tape is then spent, and a second call raises
        ``ContractError``. Gradients keep accumulating across tapes; use
        ``reset_grads`` between steps."""
        if not isinstance(loss, Tensor):
            raise ContractError("backward expects a Tensor loss")
        if loss.data.shape != ():
            raise ContractError(f"backward expects a scalar loss, shape is {loss.data.shape}")
        if self._spent:
            raise ContractError("this tape was backpropagated already; "
                                "record the forward again on a new tape")
        self._spent = True
        one = np.ones((), dtype=loss.data.dtype)
        grads: dict[int, np.ndarray] = {}
        if loss._node is not None:
            grads[loss._node] = one
        elif loss.requires_grad:
            loss.grad = one if loss.grad is None else loss.grad + one
        records = self._records
        while records:
            keys, targets, vjp = records.pop()
            gs = [grads.pop(key, None) for key in keys]
            if all(g is None for g in gs):
                continue
            for target, gi in zip(targets, vjp(*gs)):
                if gi is None or target is None:
                    continue
                if isinstance(target, int):
                    prev = grads.get(target)
                    grads[target] = gi if prev is None else prev + gi
                else:
                    target.grad = gi.copy() if target.grad is None else target.grad + gi


def reset_grads(params) -> None:
    for p in params:
        p.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data, inputs: tuple, vjp):
    """Wrap an op result, an array or a tuple of arrays (one tensor each);
    when grads are needed, key each output and record ``vjp`` (one gradient
    per output, None for an output that got none, to one gradient per
    input, None for none) on the active tape. The closure is all the tape
    keeps of the op, so the arrays it reads are the ones that live until
    backward. ``Tape.backward`` is its only caller, so whatever an op needs
    only for its gradient is computed inside ``vjp``, not in the forward."""
    multi = type(out_data) is tuple
    if not _tapes or not any(t.requires_grad for t in inputs):
        keys = (None,) * len(out_data) if multi else (None,)
    else:
        keys = tuple(next(_keys) for _ in out_data) if multi else (next(_keys),)
        targets = tuple(t._node if t._node is not None else (t if t.requires_grad else None)
                        for t in inputs)
        _tapes[-1]._records.append((keys, targets, vjp))
    if multi:
        return tuple(map(Tensor._wrap, out_data, keys))
    return Tensor._wrap(out_data, keys[0])


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
                         "(tensor operands must have the same shape)")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    c = _constant(a, b, "add")
    if c is not None:
        return _emit(a.data + c, (a,), lambda g: (g,))
    b = _as_tensor(b)
    _check_same_shape(a, b, "add")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "sub")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    c = _constant(a, b, "mul")
    if c is not None:
        return _emit(a.data * c, (a,), lambda g: (g * c,))
    b = _as_tensor(b)
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


# ---------------------------------------------------------------------------
# nonlinearities


def gelu(x) -> Tensor:
    """Exact erf-based GELU. The tape keeps the input and the normal ``cdf``;
    backward computes the normal ``pdf`` from the input."""
    x = _as_tensor(x)
    xd = x.data
    dt = xd.dtype.type
    cdf = dt(0.5) * (dt(1) + erf(xd * dt(1 / np.sqrt(2)))).astype(xd.dtype)
    out = xd * cdf

    def vjp(g):
        pdf = np.exp(dt(-0.5) * xd * xd) * dt(1 / np.sqrt(2 * np.pi))
        return (g * (cdf + xd * pdf),)

    return _emit(out, (x,), vjp)


# ---------------------------------------------------------------------------
# shape and indexing


def broadcast_lead(x, shape) -> Tensor:
    """``x`` repeated over new leading axes: ``shape`` must be ``x.shape``
    with zero or more axes put in front (a batch of copies of one memory
    table). The gradient sums over the new axes."""
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    n_new = len(shape) - x.data.ndim
    if n_new < 0 or shape[n_new:] != x.data.shape or min(shape[:n_new], default=1) < 0:
        raise ShapeError(f"broadcast_lead: {shape} is not {x.data.shape} "
                         "with leading axes put in front")
    return _emit(np.ascontiguousarray(np.broadcast_to(x.data, shape)), (x,),
                 lambda g: (g.sum(axis=tuple(range(n_new))),))


def take_last(x, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    x = _as_tensor(x)
    d = x.data.shape[-1]
    if not (0 <= start < stop <= d):
        raise ShapeError(f"take_last: slice [{start}:{stop}] out of range for axis size {d}")
    in_shape = x.data.shape

    def vjp(g):
        gx = np.zeros(in_shape, dtype=g.dtype)
        gx[..., start:stop] = g
        return (gx,)

    return _emit(np.ascontiguousarray(x.data[..., start:stop]), (x,), vjp)


def concat_last(parts) -> Tensor:
    """Concatenate along the last axis; leading shapes must match."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_last needs at least one tensor")
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise ShapeError("concat_last: leading shapes differ")
    cuts = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, cuts, axis=-1))

    return _emit(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), vjp)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    in_shape = x.data.shape
    return _emit(x.data.sum(), (x,),
                 lambda g: (np.broadcast_to(g, in_shape).astype(g.dtype, copy=True),))


def sum_batch(x) -> Tensor:
    """Sum over all axes except the leading batch axis, giving shape (B,)."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"sum_batch expects rank >= 2, got shape {x.data.shape}")
    in_shape = x.data.shape
    axes = tuple(range(1, x.data.ndim))

    def vjp(g):
        # a read-only view: whatever consumes it (a vjp or ``Tape.backward``'s
        # accumulation) writes its result to a new array
        expand = g.reshape((in_shape[0],) + (1,) * (len(in_shape) - 1))
        return (np.broadcast_to(expand, in_shape),)

    return _emit(x.data.sum(axis=axes), (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def linear(x, w, b) -> Tensor:
    """An affine layer over the last axis, ``x @ w + b`` with ``w`` (K, N)
    and ``b`` (N,), as one op: the (rows, K) @ (K, N) product over the
    flattened leading axes, then the bias added to it in place. The vjp
    reads ``x`` and ``w`` only, and skips the input's gradient when ``x``
    requires none."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd, need_gx = x.data, w.data, x.requires_grad
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear: operands {xd.shape} @ {wd.shape} do not agree")
    if b.data.shape != (wd.shape[1],):
        raise ShapeError(f"linear: bias {b.data.shape} does not match {wd.shape[1]} outputs")
    return _emit(_linear_forward(xd, wd, b.data), (x, w, b),
                 lambda g: _linear_vjp(g, xd, wd, need_gx=need_gx))


def _linear_forward(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``linear``'s forward on arrays: one (rows, K) @ (K, N) product, the
    bias added in place."""
    out = xd.reshape(-1, wd.shape[0]) @ wd
    out += bd
    return out.reshape(xd.shape[:-1] + (wd.shape[1],))


def _linear_vjp(g: np.ndarray, xd: np.ndarray, wd: np.ndarray, *, need_gx=True) -> tuple:
    """``linear``'s gradients (input, weight, bias) for output gradient
    ``g``; the input's is None without ``need_gx``."""
    gf = g.reshape(-1, wd.shape[1])
    gx = (gf @ wd.T).reshape(xd.shape) if need_gx else None
    return gx, xd.reshape(-1, wd.shape[0]).T @ gf, g.sum(axis=tuple(range(g.ndim - 1)))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis (1e-5 added to the variance), then scale
    and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xd.dtype.type(1e-5))
    xh = xc * inv
    out = xh * gain.data + bias.data
    gd = gain.data
    lead = tuple(range(xd.ndim - 1))

    def vjp(g):
        dgain = (g * xh).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxh = g * gd
        m1 = dxh.mean(axis=-1, keepdims=True)
        m2 = (dxh * xh).mean(axis=-1, keepdims=True)
        dx = inv * (dxh - m1 - xh * m2)
        return (dx, dgain, dbias)

    return _emit(out, (x, gain, bias), vjp)


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


def tap_view(xp: np.ndarray, out_shape: tuple, step: int) -> np.ndarray:
    """The nine taps of a 3x3 window over the padded channels-last map
    ``xp`` (a fresh contiguous array, as ``zero_pad_hw`` returns) as one
    (3, 3, *out_shape) view: ``[dy, dx]`` is ``xp[..., dy::step, dx::step, :]``
    cut to ``out_shape``, the map's leading axes then (H, W, C). No copy."""
    s = xp.strides
    strides = (s[-3], s[-2]) + s[:-3] + (step * s[-3], step * s[-2], s[-1])
    return np.ndarray((3, 3) + tuple(out_shape), xp.dtype, xp, 0, strides)


_TAP_BUDGET = 512 * 1024


def _dw3x3_forward(xd: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Stride-1 depthwise 3x3 convolution with zero 'same' padding of a
    channels-last (..., H, W, C) map with a (3, 3, C) kernel, no bias: the
    sum of the nine shifted, kernel-weighted copies of the padded map
    (``zero_pad_hw``, not ``np.pad``, whose Python-level setup cost more
    than the arithmetic on these small maps). The taps are added one after
    another to a +0.0 start, ((0 + tap (0, 0)) + tap (0, 1)) + ... + tap
    (2, 2), the order every trained checkpoint was made with (the +0.0
    start also turns an all -0.0 sum into +0.0). When the nine products fit
    in ``_TAP_BUDGET``, 512 KiB, as in every batch-1 scoring call, one
    ``np.multiply`` writes them into a (9, ...) buffer and one
    ``np.add.reduce`` from ``initial=0`` adds them. Above it, one multiply
    per kernel row writes three products into a (3, ...) buffer, each then
    added in place to a zero-started output: at batch 8, scale 0's nine
    products take 1.69 MiB, which with their operands overflow a 2 MiB L2
    cache, and by rows a call peaks at 1.04 MiB under ``tracemalloc``
    instead of 1.97 (loop tiling: Lam, Rothberg and Wolf, ASPLOS 1991).
    Both forms give the bits of the tap-by-tap loop
    ``selftest.dw3x3_loop``, which ``dualflow selftest`` checks."""
    k = kd.reshape((3, 3) + (1,) * (xd.ndim - 1) + (xd.shape[-1],))
    taps = tap_view(zero_pad_hw(xd), xd.shape, 1)
    if 9 * xd.nbytes <= _TAP_BUDGET:
        prods = np.empty((3, 3) + xd.shape, dtype=xd.dtype)
        np.multiply(k, taps, out=prods)
        return np.add.reduce(prods.reshape((9,) + xd.shape), axis=0, initial=xd.dtype.type(0))
    out = np.zeros(xd.shape, dtype=xd.dtype)
    prods = np.empty((3,) + xd.shape, dtype=xd.dtype)
    for dy in range(3):
        np.multiply(k[dy], taps[dy], out=prods)
        for prod in prods:
            out += prod
    return out


def _dw3x3_vjp(g: np.ndarray, xd: np.ndarray, kd: np.ndarray, *, need_gx=True) -> tuple:
    """The gradients (input, kernel, bias) of ``_dw3x3_forward`` plus a
    per-channel bias, for output gradient ``g``: the input's is the flipped
    kernel's convolution, and None without ``need_gx``. The kernel's takes
    one pass per kernel row: one ``np.multiply`` writes the row's three
    products into one (3, ...) buffer, and one sum over its (3, rows, C)
    view reduces each tap's rows in the order a per-tap ``(g * tap).sum``
    over every axis but the channels uses: one row after another when
    C > 1, pairwise when C = 1. So it gives that loop's bits, which
    ``dualflow selftest`` checks."""
    c = xd.shape[-1]
    gx = _dw3x3_forward(g, kd[::-1, ::-1]) if need_gx else None
    taps = tap_view(zero_pad_hw(xd), xd.shape, 1)
    row = np.empty((3,) + xd.shape, dtype=np.result_type(g, xd))
    gk = np.empty_like(kd)
    for dy in range(3):
        np.multiply(g, taps[dy], out=row)
        gk[dy] = row.reshape(3, -1, c).sum(axis=1)
    return (gx, gk, g.sum(axis=tuple(range(g.ndim - 1))))
