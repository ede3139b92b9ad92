"""Tape engine tests: hand-computed examples, finite-difference oracles for
every differentiable primitive, and determinism of backward."""

import ast
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import assert_same_bits, leaky_relu_op, tanh_op, with_specials

from dualflow import autodiff as ad
from dualflow.attention import _multi_head
from dualflow.autodiff import Tape, Tensor
from dualflow.encoder import leaky_relu, unpatchify
from dualflow.errors import ContractError, ShapeError
from dualflow.flow import CouplingLayer
from dualflow.optim import AdamW
from dualflow.selftest import (check_gradients, dw3x3_kernel_grad_loop, dw3x3_loop,
                               finite_difference_grads, max_rel_error)


def t64(data, requires_grad=False):
    with ad.using_dtype(np.float64):
        return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_sum_of_squares_gradient_is_2x(f64):
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


def test_backward_requires_scalar_loss(f64):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_accumulates_until_reset(f64):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 4.0 * x.data)
    ad.reset_grads([x])
    assert x.grad is None


def test_shared_input_gradients_sum(f64):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_detach_blocks_gradient(f64):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(Tensor(x.data), x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, x.data)


def test_no_tape_means_no_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    assert not y.requires_grad


def test_backward_determinism(f64):
    """Two runs of one forward program, through a ``linear`` and an attention
    op whose query is also its value, give bit-equal gradients."""
    grads = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) / 12)
        with Tape() as tape:
            q = ad.linear(x, w, np.zeros(4))
            h = tanh_op(_multi_head(q, x, q, 2))
            tape.backward(ad.sum_all(ad.mul(h, h)))
        grads.append(w.grad.copy())
    np.testing.assert_array_equal(grads[0], grads[1])


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.add(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeError):  # sub takes two tensors, no scalar
        ad.sub(Tensor([1.0, 2.0]), 1.0)
    for x, w, b in (((2, 3), (4, 5), (5,)),      # inner axes differ
                    ((3,), (3, 5), (5,)),        # a vector is not a row stack
                    ((2, 3), (2, 3, 5), (5,)),   # the weight is one matrix
                    ((2, 3), (3, 5), (3,)),      # bias of the input width
                    ((2, 3), (3, 5), (1, 5))):   # bias is 1-d
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.ones(x)), Tensor(np.ones(w)), Tensor(np.ones(b)))
    with pytest.raises(ShapeError):  # a constant operand may not widen the tensor
        ad.add(Tensor(np.ones(3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.mul(Tensor(np.ones((2, 3))), np.ones(4))
    for bad in ((2, 3, 2),      # trailing axes differ
                (3,),           # fewer axes than the tensor
                (4, 1, 3),      # a size-1 axis is not expanded
                (-1, 2, 3)):    # negative new axis
        with pytest.raises(ShapeError):
            ad.broadcast_lead(Tensor(np.ones((2, 3))), bad)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_rows_standardized(f64, rng):
    x = Tensor(rng.normal(size=(4, 16)) * 3 + 1)
    g = Tensor(np.ones(16))
    b = Tensor(np.zeros(16))
    out = ad.layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# depthwise convolution specifics


def test_conv2d_depthwise_delta_kernel_is_identity(f64, rng):
    x = rng.normal(size=(6, 7, 4))
    k = np.zeros((3, 3, 4))
    k[1, 1, :] = 1.0
    np.testing.assert_array_equal(ad._dw3x3_forward(x, k), x)


def test_conv2d_depthwise_matches_direct_sum(rng):
    # the loop adds the taps in the kernel's order, starting from zero, then
    # the bias, so the sums agree exactly
    for shape, dtype in (((5, 5, 2), np.float64), ((2, 4, 5, 3), np.float32),
                         ((3, 4, 1), np.float32)):
        x = rng.normal(size=shape).astype(dtype)
        k = rng.normal(size=(3, 3, shape[-1])).astype(dtype)
        bias = rng.normal(size=shape[-1]).astype(dtype)
        out = ad._dw3x3_forward(x, k) + bias
        xb, ob = x.reshape((-1,) + x.shape[-3:]), out.reshape((-1,) + x.shape[-3:])
        n, hh, ww, cc = xb.shape
        for b in range(n):
            xp = np.pad(xb[b], ((1, 1), (1, 1), (0, 0)))
            want = np.zeros_like(xb[b])
            for h in range(hh):
                for w in range(ww):
                    for c in range(cc):
                        for dy in range(3):
                            for dx in range(3):
                                want[h, w, c] += k[dy, dx, c] * xp[h + dy, w + dx, c]
            np.testing.assert_array_equal(ob[b], want + bias)


def test_conv2d_batched_matches_loop(f64, rng):
    x, g = rng.normal(size=(3, 5, 5, 4)), rng.normal(size=(3, 5, 5, 4))
    k, bias = rng.normal(size=(3, 3, 4)), rng.normal(size=4)
    batched = ad._dw3x3_forward(x, k) + bias
    batched_gx = ad._dw3x3_vjp(g, x, k)[0]
    for b in range(3):
        np.testing.assert_allclose(batched[b], ad._dw3x3_forward(x[b], k) + bias, atol=1e-12)
        np.testing.assert_allclose(batched_gx[b], ad._dw3x3_vjp(g[b], x[b], k)[0], atol=1e-12)


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ShapeError):  # a 1x1 layer is a linear over the channel axis
        ad.linear(Tensor(np.ones((4, 4, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))


# ---------------------------------------------------------------------------
# the flow kernels against the numpy forms they replaced, bit for bit


def leaky_relu_two_where(xd, slope=0.01):
    """The leaky ReLU forward and derivative as they were written with two
    ``np.where`` passes."""
    s = xd.dtype.type(slope)
    return np.where(xd >= 0, xd, xd * s), np.where(xd >= 0, xd.dtype.type(1), s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 9, 4), (3, 6, 5, 8), (2, 4, 5, 1), (8, 16, 16, 24),
                                   (8, 16, 16, 1)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_depthwise_conv3x3_matches_np_pad_form_bit_for_bit(shape, dtype):
    """The one-call forward (``_dw3x3_forward``, then the bias added in
    place, as the flow subnet adds it) and the input gradient equal the
    tap-by-tap ``np.pad`` loop, the bias added after the nine taps, bit for
    bit; the kernel gradient equals its own tap loop, the bias gradient the
    sum of the output gradient over every axis but the channels. The
    (8, 16, 16, ·) maps are a flow's: with one channel, each tap sums 2048
    rows, which numpy adds pairwise; with more, it adds them in order."""
    rng = np.random.default_rng(sum(shape))
    xd = with_specials(rng, shape, dtype)
    kd = with_specials(rng, (3, 3, shape[-1]), dtype, finite_only=True)
    bd = rng.normal(size=shape[-1]).astype(dtype)
    gd = with_specials(rng, shape, dtype)
    # a channel whose every product is -0.0: only the +0.0 start of the sum
    # turns it into +0.0, and its bias is -0.0 as well
    xd[..., 0] = -0.0
    kd[..., 0] = np.abs(kd[..., 0])
    bd[0] = -0.0
    out = ad._dw3x3_forward(xd, kd)
    out += bd
    gx, gk, gb = ad._dw3x3_vjp(gd, xd, kd)
    assert_same_bits(out, dw3x3_loop(xd, kd) + bd)
    assert_same_bits(gx, dw3x3_loop(gd, kd[::-1, ::-1]))
    assert_same_bits(gk, dw3x3_kernel_grad_loop(xd, gd))
    assert_same_bits(gb, gd.sum(axis=tuple(range(gd.ndim - 1))))
    # finite inputs, whose kernel gradient shows a sum's rounding order in
    # its bits (with a one-channel map above, every tap sums a NaN or -0.0s)
    xd, gd = (with_specials(rng, shape, dtype, finite_only=True) for _ in range(2))
    assert_same_bits(ad._dw3x3_vjp(gd, xd, kd)[1], dw3x3_kernel_grad_loop(xd, gd))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 5), (2, 4, 3, 5)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_linear_matches_matmul_plus_bias_form_bit_for_bit(shape, dtype):
    """``linear`` equals ``(x.reshape(-1, K) @ w).reshape(...) + b``, and
    its gradients the transpose products and the bias sum of that form,
    bit for bit."""
    rng = np.random.default_rng(sum(shape))
    k, n = shape[-1], 12
    xd, wd = with_specials(rng, shape, dtype), with_specials(rng, (k, n), dtype)
    bd = with_specials(rng, (n,), dtype)
    gd = with_specials(rng, shape[:-1] + (n,), dtype)
    with ad.using_dtype(dtype):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        with Tape() as tape:
            out = ad.linear(x, w, b)
            tape.backward(ad.sum_all(ad.mul(out, gd)))
    flat, gf = xd.reshape(-1, k), gd.reshape(-1, n)
    assert_same_bits(out.data, (flat @ wd).reshape(gd.shape) + bd)
    assert_same_bits(x.grad, (gf @ wd.T).reshape(shape))
    assert_same_bits(w.grad, flat.T @ gf)
    assert_same_bits(b.grad, gd.sum(axis=tuple(range(gd.ndim - 1))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_leaky_relu_matches_two_where_form_bit_for_bit(dtype):
    """``encoder.leaky_relu`` and the tests' tape op over it (whose vjp is
    the derivative the flow coupling's vjp uses) equal the two-``np.where``
    form, forward and gradient, bit for bit."""
    rng = np.random.default_rng(5)
    xd = with_specials(rng, (6, 7, 5), dtype)
    gd = with_specials(rng, (6, 7, 5), dtype)
    with ad.using_dtype(dtype):
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            taped = leaky_relu_op(x)
            tape.backward(ad.sum_all(ad.mul(taped, gd)))
        want, deriv = leaky_relu_two_where(xd)
        assert_same_bits(leaky_relu(xd), want)
        assert_same_bits(taped.data, want)
        assert_same_bits(x.grad, gd * deriv)
        # the derivative at exactly 0, of either sign, is 1
        z = Tensor(np.array([0.0, -0.0, -2.0], dtype=dtype), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(leaky_relu_op(z)))
        assert_same_bits(z.grad, np.array([1.0, 1.0, 0.01], dtype=dtype))


def test_taped_ops_hold_no_backward_only_arrays():
    """After its forward a taped op holds what its vjp reads and cannot
    rebuild, nothing more, and the tape holds no op output: once the caller
    drops the output, ``gelu`` holds its ``cdf`` (backward computes
    ``pdf``), ``tanh`` its output, and ``add``, a constant ``mul``,
    ``take_last``, ``linear`` and ``unpatchify`` nothing (``linear`` reads
    only its input and weight, not its product). The attention op holds its
    weights besides q, k and v, which are the caller's: not its logits,
    their ``exp`` or its output. A flow coupling holds five half-width maps
    (its two input halves, the conv output, the hidden map before the leaky
    ReLU and ``tanh``'s output), and not its output, its subnet's output,
    its log-scale field, ``exp(s)`` or the leaky ReLU's output, which its
    vjp recomputes."""
    n = 2 ** 10
    x = Tensor(np.linspace(-3.0, 3.0, n * n, dtype=np.float32).reshape(n, n),
               requires_grad=True)
    nbytes = x.data.nbytes
    w = Tensor(np.full((n, n // 2), 1e-3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(n // 2, dtype=np.float32), requires_grad=True)
    coupling = CouplingLayer(16, 2.0, False, np.random.default_rng(0),
                             perm=np.random.default_rng(1).permutation(16))
    x_maps = Tensor(x.data.reshape(4, n // 8, n // 8, 16), requires_grad=True)
    # 16 heads of width 64 over 64 tokens: the weights are as large as ``x``
    tokens = Tensor(x.data.reshape(16, 64, n), requires_grad=True)
    ops = (("gelu", ad.gelu, 1), ("tanh", tanh_op, 1),
           ("add", lambda t: ad.add(t, t), 0),
           ("mul", lambda t: ad.mul(t, 2.0), 0), ("take_last", lambda t: ad.take_last(t, 1, n), 0),
           ("linear", lambda t: ad.linear(t, w, b), 0),
           ("unpatchify", lambda t: unpatchify(t, 4, 128, 128, 64), 0),
           ("attention", lambda t: _multi_head(tokens, tokens, tokens, 16), 1),
           ("coupling", lambda t: coupling.forward(x_maps), 5 / 2))
    for name, op, n_arrays in ops:
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = op(x)
                made = tracemalloc.get_traced_memory()[0]
                del out
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and made >= nbytes // 2, name
        assert held <= n_arrays * nbytes + 64 * 1024, (name, held)


def test_outputs_no_vjp_reads_are_freed_during_the_forward():
    """An op output that only feeds ops whose vjps do not read it is gone as
    soon as the forward drops it, with the tape still alive: a shifted map
    (a constant ``add``) split by two ``take_last``s, an ``add`` scaled by a
    constant ``mul``.
    An output a vjp reads (``tanh``'s) stays until the tape goes, and the
    gradients are those of the whole graph."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    with Tape() as tape:
        shifted = ad.add(x, 1.0)
        a, b = ad.take_last(shifted, 0, 3), ad.take_last(shifted, 3, 6)
        summed = ad.add(a, b)
        scaled = ad.mul(summed, 2.0)
        t = tanh_op(scaled)
        refs = {name: weakref.ref(t.data) for name, t in
                (("shifted", shifted), ("add", summed), ("tanh", t))}
        del shifted, summed, t
        assert refs["shifted"]() is None and refs["add"]() is None
        assert refs["tanh"]() is not None
        tape.backward(ad.sum_all(scaled))
        tape.backward(ad.sum_all(tanh_op(scaled)))
    xs = x.data + 1.0
    th = np.tanh(2.0 * (xs[:, :3] + xs[:, 3:]))
    want = np.concatenate([2.0 + 2.0 * (1.0 - th * th)] * 2, axis=1)
    np.testing.assert_allclose(x.grad, want, rtol=1e-6)
    del tape
    assert refs["tanh"]() is None


def test_keys_route_gradients_only_within_their_tape():
    """Keys come from one process-wide counter, not from ``id()``: a tensor
    made on a finished tape and used under a new one routes no gradient to
    the leaves behind it, the outputs of many tapes in a row, each freed,
    never share a key, and each tape's gradients stay exact."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        stale = ad.mul(x, x)
    w = Tensor([3.0, -1.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.add(ad.mul(stale, w), ad.mul(x, w))))
    np.testing.assert_array_equal(w.grad, stale.data + x.data)
    np.testing.assert_array_equal(x.grad, w.data)
    keys = []
    for i in range(200):
        ad.reset_grads([x])
        with Tape() as tape:
            y = tanh_op(ad.mul(x, float(i)))
            keys.append(y._node)
            loss = ad.sum_all(y)
            del y
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, i * (1.0 - np.tanh(i * x.data) ** 2))
    assert len(set(keys)) == len(keys)


def test_two_output_op_is_one_record_whose_vjp_gets_a_gradient_per_output():
    """An op with two outputs records once, with a key per output; backward
    calls its vjp with one gradient per output, None for an output that got
    none, and skips the record, touching no leaf, when neither got one."""
    calls = []

    def double_and_square(x):
        xd = x.data

        def vjp(g_double, g_square):
            calls.append((g_double is not None, g_square is not None))
            g = np.zeros_like(xd)
            if g_double is not None:
                g += 2.0 * g_double
            if g_square is not None:
                g += 2.0 * xd * g_square
            return (g,)

        return ad._emit((2.0 * xd, xd * xd), (x,), vjp)

    x = t64([1.0, -2.0, 3.0], requires_grad=True)
    other = t64([1.0, 1.0], requires_grad=True)
    wants = {(True, False): np.full(3, 2.0), (False, True): 2.0 * x.data,
             (True, True): 2.0 + 2.0 * x.data}
    for used, want in list(wants.items()) + [((False, False), None)]:
        x.grad = other.grad = None
        calls.clear()
        with Tape() as tape:
            outs = double_and_square(x)
            assert len(tape) == 1 and [t._node is not None for t in outs] == [True, True]
            terms = [ad.sum_all(t) for t, use in zip(outs, used) if use] or [ad.sum_all(other)]
            tape.backward(terms[0] if len(terms) == 1 else ad.add(*terms))
        if want is None:
            assert calls == [] and x.grad is None
            np.testing.assert_array_equal(other.grad, np.ones(2))
        else:
            assert calls == [used] and other.grad is None
            np.testing.assert_array_equal(x.grad, want)
    outs = double_and_square(x)  # no tape: plain tensors
    assert [t._node for t in outs] == [None, None]
    np.testing.assert_array_equal(outs[1].data, x.data * x.data)


def test_leaf_loss_gets_grad_and_accumulates():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(x)
        tape.backward(x)
    np.testing.assert_array_equal(x.grad, np.array(2.0, dtype=x.data.dtype))
    constant = Tensor(np.array(1.0))
    with Tape() as tape:
        tape.backward(constant)
    assert constant.grad is None


def test_sum_batch_backward_builds_no_full_size_gradient():
    """``sum_batch``'s vjp hands on a broadcast view of the (B,) gradient;
    the only full-size array its backward allocates is the leaf's own
    ``.grad``."""
    x = Tensor(np.ones((8, 64, 64, 16), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.sum_batch(x))
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))
    assert peak <= x.data.nbytes + 64 * 1024, peak


# ---------------------------------------------------------------------------
# finite-difference oracle for every differentiable primitive


def _primitive_cases(seed):
    rng = np.random.default_rng(seed)

    def p(shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    a, b = p((3, 4)), p((3, 4))
    cases = [
        ("add", lambda: ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b]),
        ("sub", lambda: ad.sum_all(ad.mul(ad.sub(a, b), ad.sub(a, b))), [a, b]),
        ("mul", lambda: ad.sum_all(ad.mul(a, b)), [a, b]),
    ]
    for shape in ((2, 4, 6), (2, 2, 3, 4)):  # one leading axis, and two
        qkv = [p(shape) for _ in range(3)]
        cases.append((f"attention{shape}",
                      lambda qkv=qkv: ad.sum_all(ad.mul(tanh_op(_multi_head(*qkv, 2)),
                                                        qkv[0])),
                      qkv))
    ln_x, ln_g, ln_b = p((3, 8)), p((8,)), p((8,))
    cases.append(("layer_norm",
                  lambda: ad.sum_all(ad.mul(ad.layer_norm(ln_x, ln_g, ln_b),
                                            ad.layer_norm(ln_x, ln_g, ln_b))),
                  [ln_x, ln_g, ln_b]))
    th = p((3, 3))
    cases.append(("tanh", lambda: ad.sum_all(ad.mul(tanh_op(th), th)), [th]))
    ge = p((4, 4))
    cases.append(("gelu", lambda: ad.sum_all(ad.mul(ad.gelu(ge), ge)), [ge]))
    li_x, li_w, li_b = p((3, 4, 5)), p((5, 2), scale=0.5), p((2,))
    cases.append(("linear", lambda: ad.sum_all(tanh_op(ad.linear(li_x, li_w, li_b))),
                  [li_x, li_w, li_b]))
    tk = p((3, 9))
    cases.append(("take_concat",
                  lambda: ad.sum_all(ad.mul(ad.concat_last([ad.take_last(tk, 0, 4),
                                                            ad.take_last(tk, 4, 9)]), tk)),
                  [tk]))
    cp_x = p((2, 2, 3, 5))
    coupling = CouplingLayer(5, 1.5, bool(seed % 2), rng, 1.5, perm=rng.permutation(5))
    cp_params = list(coupling.params().values())
    for q in cp_params:
        q.data = q.data + rng.normal(0.0, 0.3, size=q.data.shape)

    def coupling_loss():
        y, s = coupling.forward(cp_x)
        return ad.add(ad.sum_all(ad.mul(y, y)), ad.sum_all(ad.mul(s, s)))

    cases.append(("coupling", coupling_loss, [cp_x] + cp_params))
    up = p((2, 4, 12))
    cases.append(("unpatchify",
                  lambda: ad.sum_all(ad.mul(tanh_op(unpatchify(up, 2, 4, 4, 3)),
                                            unpatchify(up, 2, 4, 4, 3))),
                  [up]))
    cx, c1, c2 = p((2, 3, 5)), rng.normal(size=5), rng.normal(size=(3, 5))
    cases.append(("constant_operands",
                  lambda: ad.sum_all(ad.mul(ad.mul(ad.add(ad.add(cx, c1), c2), c1), cx)), [cx]))
    sb = p((3, 2, 2))
    cases.append(("sum_batch", lambda: ad.sum_all(ad.mul(ad.sum_batch(sb), ad.sum_batch(sb))), [sb]))
    bl, bl_w = p((3, 4)), rng.normal(size=(2, 5, 3, 4))
    cases.append(("broadcast_lead",
                  lambda: ad.sum_all(tanh_op(ad.mul(ad.broadcast_lead(bl, (2, 5, 3, 4)), bl_w))),
                  [bl]))
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(seed, f64):
    for name, f, params in _primitive_cases(seed):
        err = check_gradients(f, params)
        assert err < 1e-5, f"{name}: rel err {err:.3e} at seed {seed}"


def test_composite_gradient_matches_finite_differences(f64):
    rng = np.random.default_rng(3)
    w1 = Tensor(rng.normal(size=(6, 8)) * 0.3, requires_grad=True)
    b1 = Tensor(np.zeros(8), requires_grad=True)
    w2 = Tensor(rng.normal(size=(8, 4)) * 0.3, requires_grad=True)
    g = Tensor(np.ones(6), requires_grad=True)
    bmat = Tensor(np.zeros(6), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 6)))

    def f():
        h = ad.gelu(ad.linear(ad.layer_norm(x, g, bmat), w1, b1))
        out = ad.linear(_multi_head(h, h, h, 2), w2, np.zeros(4))
        return ad.sum_all(ad.mul(out, out))

    err = check_gradients(f, [w1, b1, w2, g, bmat])
    assert err < 1e-4, f"composite rel err {err:.3e}"


def test_max_rel_error_scale():
    assert max_rel_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert max_rel_error(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)


def test_finite_difference_helper_on_quadratic(f64):
    x = Tensor([1.0, -2.0], requires_grad=True)
    (g,) = finite_difference_grads(lambda: ad.sum_all(ad.mul(x, x)), [x])
    np.testing.assert_allclose(g, 2.0 * x.data, atol=1e-6)


def test_check_gradients_leaves_each_parameter_as_it_found_it(f64):
    """The central differences rebind ``p.data`` to perturbed copies: after
    ``check_gradients``, and after a forward that raises midway, each
    parameter holds its own array object again, with its bits, and no
    gradient."""
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3)))
    arrays = [w.data, b.data]
    copies = [a.copy() for a in arrays]
    calls = []

    def f():
        calls.append(None)
        if len(calls) == 20:  # inside the first parameter's differences
            raise RuntimeError("forward failed")
        return ad.sum_all(tanh_op(ad.linear(x, w, b)))

    with pytest.raises(RuntimeError):
        check_gradients(f, [w, b])
    assert w.data is arrays[0] and b.data is arrays[1]
    assert check_gradients(f, [w, b]) < 1e-6
    for p, arr, copy in zip((w, b), arrays, copies):
        assert p.data is arr and p.grad is None
        assert_same_bits(arr, copy)


def test_check_gradients_reports_a_nan_gradient_as_nan():
    """A NaN tape gradient reads as a NaN error, which fails every
    ``err < tol`` gate, whichever parameter it belongs to."""
    x, y = t64([1.0, 2.0], requires_grad=True), t64([3.0], requires_grad=True)

    def nan_grad(t):
        return ad._emit(t.data * 1.0, (t,), lambda g: (g * np.nan,))

    def f():
        return ad.add(ad.sum_all(ad.mul(y, y)), ad.sum_all(nan_grad(x)))

    with ad.using_dtype(np.float64):
        for params in ([x, y], [y, x]):
            assert np.isnan(check_gradients(f, params))


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    """Each public function of ``autodiff.py`` is named by another module of
    the package, imported from ``autodiff`` or read as an attribute of the
    imported module: an op that only the tests call is dead code."""
    pkg = pathlib.Path(ad.__file__).parent
    tree = ast.parse((pkg / "autodiff.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in pkg.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        aliases = set()
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "autodiff")
        used.update(node.attr for node in nodes if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases)
    assert sorted(public - used) == []


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_single_step_example(f64):
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9], atol=1e-6)


def _adam_update(param, grad, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8):
    """One Adam update in place, in the order of the former standalone
    ``adamw_step`` with no weight decay: the oracle of ``AdamW.step``."""
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adamw_step_matches_written_out_update_bit_for_bit():
    """Seeded float32 parameters over six steps, gradients spread over six
    orders of magnitude; the second parameter never gets a gradient."""
    rng = np.random.default_rng(7)
    shapes = [(4, 3), (5,), (2, 3, 2)]
    params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    refs = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    opt = AdamW(params, lr=3e-3)
    for t in range(1, 7):
        for i, p in enumerate(params):
            scale = 10.0 ** rng.uniform(-3, 3, size=p.shape)
            p.grad = None if i == 1 else (rng.normal(size=p.shape) * scale).astype(np.float32)
        opt.step()
        for p, (ref, m, v) in zip(params, refs):
            grad = p.grad if p.grad is not None else np.zeros_like(ref)
            _adam_update(ref, grad, m, v, t, 3e-3)
            assert_same_bits(p.data, ref)


def test_adamw_descends_quadratic(f64):
    p = Tensor([5.0], requires_grad=True)
    opt = AdamW([p], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(p, p)))
        opt.step()
    assert abs(p.data[0]) < 0.5


def test_dtype_switch_controls_tensor_width():
    with ad.using_dtype(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
