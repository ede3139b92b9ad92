"""Tape engine tests: hand-computed examples, finite-difference oracles for
every differentiable primitive, and determinism of backward."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import assert_same_bits, with_specials

from dualflow import autodiff as ad
from dualflow.autodiff import Tape, Tensor
from dualflow.errors import ContractError, ShapeError
from dualflow.gradcheck import check_gradients, finite_difference_grads, max_rel_error
from dualflow.optim import AdamW, adamw_step
from dualflow.selftest import dw3x3_loop


def t64(data, requires_grad=False):
    with ad.using_dtype(np.float64):
        return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_matmul_forward_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_backward_matches_transpose_rule(f64):
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.sum_all(ad.matmul(a, b))
        tape.backward(out)
    g = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_and_softmax_over_leading_axes_match_per_index_loops(f64):
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(5, 6))
    rows = ad.matmul(Tensor(x), Tensor(w)).data
    assert rows.shape == (2, 3, 4, 6)
    np.testing.assert_array_equal(rows, (x.reshape(-1, 5) @ w).reshape(2, 3, 4, 6))
    a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2))
    stacked = ad.matmul(Tensor(a), Tensor(b)).data
    soft = ad.softmax_rows(Tensor(a)).data
    for i in range(3):
        np.testing.assert_array_equal(stacked[i], ad.matmul(Tensor(a[i]), Tensor(b[i])).data)
        np.testing.assert_array_equal(soft[i], ad.softmax_rows(Tensor(a[i])).data)


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
    rng = np.random.default_rng(7)
    grads = []
    for _ in range(2):
        w = Tensor(rng.normal(size=(4, 4)).copy(), requires_grad=True)
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        with Tape() as tape:
            h = ad.tanh(ad.matmul(x, w))
            tape.backward(ad.sum_all(ad.mul(h, h)))
        grads.append(w.grad.copy())
    np.testing.assert_array_equal(grads[0], grads[1])


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.add(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeError):  # sub takes two tensors, no scalar
        ad.sub(Tensor([1.0, 2.0]), 1.0)
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):  # batched operands with different leading axes
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    x6 = Tensor(np.ones((2, 6)))
    for bad in ([0, 1, 2, 3, 4, 4],        # duplicate index
                [0, 1, 2, 3, 4, 6],        # out of range
                [-1, 0, 1, 2, 3, 4],       # negative
                [0, 1, 2, 3, 4],           # wrong length
                [[0, 1, 2], [3, 4, 5]]):   # wrong rank
        with pytest.raises(ShapeError):
            ad.Permutation(bad, 6)
    with pytest.raises(ShapeError):  # a checked permutation of another width
        ad.take_channels(x6, ad.Permutation([1, 0, 2, 3, 4], 5), 0, 5)
    with pytest.raises(ContractError):  # a raw index array is not a Permutation
        ad.take_channels(x6, np.arange(6), 0, 6)
    for start, stop in ((0, 7), (-1, 3), (3, 3)):
        with pytest.raises(ShapeError):
            ad.take_channels(x6, ad.Permutation(np.arange(6), 6), start, stop)
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
# softmax and layer norm


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(5, 9)))
    out = ad.softmax_rows(x).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-6)
    assert (out >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-50.0, 50.0))
def test_softmax_rows_shift_invariant(seed, c):
    rng = np.random.default_rng(seed)
    with ad.using_dtype(np.float64):
        x = rng.normal(size=(3, 6))
        a = ad.softmax_rows(Tensor(x)).data
        b = ad.softmax_rows(Tensor(x + c)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_softmax_extreme_logits_stay_finite():
    x = Tensor(np.array([[1e4, -1e4, 0.0]], dtype=np.float32))
    out = ad.softmax_rows(x).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-6)


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
    out = ad.depthwise_conv3x3(Tensor(x), Tensor(k), Tensor(np.zeros(4))).data
    np.testing.assert_array_equal(out, x)


def test_conv2d_depthwise_matches_direct_sum(rng):
    # the loop adds the taps in the kernel's order, starting from zero, then
    # the bias, so the sums agree exactly
    for shape, dtype in (((5, 5, 2), np.float64), ((2, 4, 5, 3), np.float32),
                         ((3, 4, 1), np.float32)):
        x = rng.normal(size=shape).astype(dtype)
        k = rng.normal(size=(3, 3, shape[-1])).astype(dtype)
        bias = rng.normal(size=shape[-1]).astype(dtype)
        with ad.using_dtype(dtype):
            out = ad.depthwise_conv3x3(Tensor(x), Tensor(k), Tensor(bias)).data
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
    x = rng.normal(size=(3, 5, 5, 4))
    k, bias = Tensor(rng.normal(size=(3, 3, 4))), Tensor(rng.normal(size=4))
    batched = ad.depthwise_conv3x3(Tensor(x), k, bias).data
    for b in range(3):
        single = ad.depthwise_conv3x3(Tensor(x[b]), k, bias).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.depthwise_conv3x3(Tensor(np.ones((4, 4, 3))), Tensor(np.ones((3, 3, 2))),
                             Tensor(np.ones(3)))
    with pytest.raises(ShapeError):  # one bias per channel
        ad.depthwise_conv3x3(Tensor(np.ones((4, 4, 3))), Tensor(np.ones((3, 3, 3))),
                             Tensor(np.ones(2)))
    with pytest.raises(ShapeError):  # a 1x1 layer is a linear over the channel axis
        ad.linear(Tensor(np.ones((4, 4, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))


# ---------------------------------------------------------------------------
# the flow kernels against the numpy forms they replaced, bit for bit


def dw3x3_kernel_grad_np_pad(xd, kd, g):
    """The kernel gradient as it was written with ``np.pad``."""
    h, w = xd.shape[-3], xd.shape[-2]
    xp = np.pad(xd, [(0, 0)] * (xd.ndim - 3) + [(1, 1), (1, 1), (0, 0)])
    lead = tuple(range(xd.ndim - 3))
    gk = np.empty_like(kd)
    for dy in range(3):
        for dx in range(3):
            gk[dy, dx] = (g * xp[..., dy:dy + h, dx:dx + w, :]).sum(axis=lead + (-3, -2))
    return gk


def leaky_relu_two_where(xd, slope=0.01):
    """The leaky ReLU forward and derivative as they were written with two
    ``np.where`` passes."""
    s = xd.dtype.type(slope)
    return np.where(xd >= 0, xd, xd * s), np.where(xd >= 0, xd.dtype.type(1), s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 9, 4), (3, 6, 5, 8), (2, 4, 5, 1)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_depthwise_conv3x3_matches_np_pad_form_bit_for_bit(shape, dtype):
    """The one-call forward and input gradient equal the tap-by-tap
    ``np.pad`` loop, the bias added after the nine taps, bit for bit; the
    kernel gradient equals its own tap loop, the bias gradient the sum of
    the output gradient over every axis but the channels."""
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
    with ad.using_dtype(dtype):
        x, k = Tensor(xd, requires_grad=True), Tensor(kd, requires_grad=True)
        b = Tensor(bd, requires_grad=True)
        with Tape() as tape:
            out = ad.depthwise_conv3x3(x, k, b)
            tape.backward(ad.sum_all(ad.mul(out, gd)))
    assert_same_bits(out.data, dw3x3_loop(xd, kd) + bd)
    assert_same_bits(x.grad, dw3x3_loop(gd, kd[::-1, ::-1]))
    assert_same_bits(k.grad, dw3x3_kernel_grad_np_pad(xd, kd, gd))
    assert_same_bits(b.grad, gd.sum(axis=tuple(range(gd.ndim - 1))))


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
    rng = np.random.default_rng(5)
    xd = with_specials(rng, (6, 7, 5), dtype)
    gd = with_specials(rng, (6, 7, 5), dtype)
    with ad.using_dtype(dtype):
        out = ad.leaky_relu(Tensor(xd))  # no tape
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            taped = ad.leaky_relu(x)
            tape.backward(ad.sum_all(ad.mul(taped, gd)))
        want, deriv = leaky_relu_two_where(xd)
        assert_same_bits(out.data, want)
        assert_same_bits(taped.data, want)
        assert_same_bits(x.grad, gd * deriv)
        # the derivative at exactly 0, of either sign, is 1
        z = Tensor(np.array([0.0, -0.0, -2.0], dtype=dtype), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.leaky_relu(z)))
        assert_same_bits(z.grad, np.array([1.0, 1.0, 0.01], dtype=dtype))


def test_taped_ops_hold_no_backward_only_arrays():
    """After its forward a taped op holds what its vjp reads and cannot
    rebuild, nothing more, and the tape holds no op output: once the caller
    drops the output, ``leaky_relu`` holds no new array (backward rebuilds
    the sign mask from the input), ``gelu`` its ``cdf`` (backward computes
    ``pdf``), ``exp`` and ``tanh`` their output, and ``add``, a constant
    ``mul``, ``take_last``, ``take_channels`` and ``linear`` nothing
    (``linear`` reads only its input and weight, not its product)."""
    n = 2 ** 10
    x = Tensor(np.linspace(-3.0, 3.0, n * n, dtype=np.float32).reshape(n, n),
               requires_grad=True)
    nbytes = x.data.nbytes
    reverse = ad.Permutation(np.arange(n)[::-1], n)
    w = Tensor(np.full((n, n // 2), 1e-3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(n // 2, dtype=np.float32), requires_grad=True)
    ops = (("leaky_relu", ad.leaky_relu, 0), ("gelu", ad.gelu, 1), ("exp", ad.exp, 1),
           ("tanh", ad.tanh, 1), ("add", lambda t: ad.add(t, t), 0),
           ("mul", lambda t: ad.mul(t, 2.0), 0), ("take_last", lambda t: ad.take_last(t, 1, n), 0),
           ("take_channels", lambda t: ad.take_channels(t, reverse, 1, n), 0),
           ("linear", lambda t: ad.linear(t, w, b), 0))
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
    soon as the forward drops it, with the tape still alive: the permuted
    map (one ``take_channels`` over every channel) split by two
    ``take_last``s, an ``add`` scaled by a constant ``mul``.
    An output a vjp reads (``exp``'s) stays until the tape goes, and the
    gradients are those of the whole graph."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    perm = ad.Permutation([3, 0, 5, 1, 4, 2], 6)
    with Tape() as tape:
        permuted = ad.take_channels(x, perm, 0, 6)
        a, b = ad.take_last(permuted, 0, 3), ad.take_last(permuted, 3, 6)
        summed = ad.add(a, b)
        scaled = ad.mul(summed, 2.0)
        e = ad.exp(scaled)
        refs = {name: weakref.ref(t.data) for name, t in
                (("take_channels", permuted), ("add", summed), ("exp", e))}
        del permuted, summed, e
        assert refs["take_channels"]() is None and refs["add"]() is None
        assert refs["exp"]() is not None
        tape.backward(ad.sum_all(scaled))
        tape.backward(ad.sum_all(ad.exp(scaled)))
    xp = x.data[:, perm.idx]
    want_p = np.concatenate([2.0 + 2.0 * np.exp(2.0 * (xp[:, :3] + xp[:, 3:]))] * 2, axis=1)
    np.testing.assert_allclose(x.grad, want_p[:, perm.inv], rtol=1e-6)
    del tape
    assert refs["exp"]() is None


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
            y = ad.tanh(ad.mul(x, float(i)))
            keys.append(y._node)
            loss = ad.sum_all(y)
            del y
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, i * (1.0 - np.tanh(i * x.data) ** 2))
    assert len(set(keys)) == len(keys)


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


def test_leaky_relu_slope_outside_unit_interval_rejected():
    for slope in (-0.1, 1.5, float("nan")):
        with pytest.raises(ContractError):
            ad.leaky_relu(Tensor(np.ones(3)), slope=slope)


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
    m1, m2 = p((3, 5)), p((5, 2))
    cases.append(("matmul", lambda: ad.sum_all(ad.tanh(ad.matmul(m1, m2))), [m1, m2]))
    mr_x, mr_w = p((2, 4, 3)), p((3, 5), scale=0.5)
    cases.append(("matmul_rows", lambda: ad.sum_all(ad.tanh(ad.matmul(mr_x, mr_w))),
                  [mr_x, mr_w]))
    mb_a, mb_b = p((2, 3, 4)), p((2, 4, 5))
    cases.append(("matmul_batched", lambda: ad.sum_all(ad.tanh(ad.matmul(mb_a, mb_b))),
                  [mb_a, mb_b]))
    x = p((4, 6))
    cases.append(("softmax_rows", lambda: ad.sum_all(ad.mul(ad.softmax_rows(x), x)), [x]))
    x3 = p((2, 3, 5))
    cases.append(("softmax_rows_rank3", lambda: ad.sum_all(ad.mul(ad.softmax_rows(x3), x3)),
                  [x3]))
    ln_x, ln_g, ln_b = p((3, 8)), p((8,)), p((8,))
    cases.append(("layer_norm",
                  lambda: ad.sum_all(ad.mul(ad.layer_norm(ln_x, ln_g, ln_b),
                                            ad.layer_norm(ln_x, ln_g, ln_b))),
                  [ln_x, ln_g, ln_b]))
    e = p((3, 3), scale=0.5)
    cases.append(("exp", lambda: ad.sum_all(ad.exp(e)), [e]))
    th = p((3, 3))
    cases.append(("tanh", lambda: ad.sum_all(ad.mul(ad.tanh(th), th)), [th]))
    lr = p((4, 4))
    cases.append(("leaky_relu", lambda: ad.sum_all(ad.mul(ad.leaky_relu(lr), lr)), [lr]))
    ge = p((4, 4))
    cases.append(("gelu", lambda: ad.sum_all(ad.mul(ad.gelu(ge), ge)), [ge]))
    dw_x, dw_k, dw_b = p((4, 5, 3)), p((3, 3, 3), scale=0.5), p((3,))
    cases.append(("depthwise_conv3x3",
                  lambda: ad.sum_all(ad.mul(ad.depthwise_conv3x3(dw_x, dw_k, dw_b),
                                            ad.depthwise_conv3x3(dw_x, dw_k, dw_b))),
                  [dw_x, dw_k, dw_b]))
    li_x, li_w, li_b = p((3, 4, 5)), p((5, 2), scale=0.5), p((2,))
    cases.append(("linear", lambda: ad.sum_all(ad.tanh(ad.linear(li_x, li_w, li_b))),
                  [li_x, li_w, li_b]))
    tk = p((3, 9))
    cases.append(("take_concat",
                  lambda: ad.sum_all(ad.mul(ad.concat_last([ad.take_last(tk, 0, 4),
                                                            ad.take_last(tk, 4, 9)]), tk)),
                  [tk]))
    ix = p((2, 3, 6))
    perm = ad.Permutation(rng.permutation(6), 6)
    inv = ad.Permutation(perm.inv, 6)
    cases.append(("take_channels",
                  lambda: ad.sum_all(ad.mul(ad.concat_last([ad.take_channels(ix, perm, 4, 6),
                                                            ad.take_channels(ix, perm, 0, 4)]),
                                            ad.take_channels(ix, inv, 0, 6))), [ix]))
    rs = p((2, 3, 4))
    cases.append(("reshape_permute",
                  lambda: ad.sum_all(ad.mul(ad.permute(ad.reshape(rs, (2, 12)), (1, 0)),
                                            ad.permute(ad.reshape(rs, (2, 12)), (1, 0)))),
                  [rs]))
    cx, c1, c2 = p((2, 3, 5)), rng.normal(size=5), rng.normal(size=(3, 5))
    cases.append(("constant_operands",
                  lambda: ad.sum_all(ad.mul(ad.mul(ad.add(ad.add(cx, c1), c2), c1), cx)), [cx]))
    sb = p((3, 2, 2))
    cases.append(("sum_batch", lambda: ad.sum_all(ad.mul(ad.sum_batch(sb), ad.sum_batch(sb))), [sb]))
    bl, bl_w = p((3, 4)), rng.normal(size=(2, 5, 3, 4))
    cases.append(("broadcast_lead",
                  lambda: ad.sum_all(ad.tanh(ad.mul(ad.broadcast_lead(bl, (2, 5, 3, 4)), bl_w))),
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
        h = ad.layer_norm(x, g, bmat)
        h = ad.gelu(ad.linear(h, w1, b1))
        out = ad.softmax_rows(ad.matmul(h, w2))
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


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_single_step_example(f64):
    p = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    adamw_step(p, np.array([1.0]), m, v, t=1, lr=0.1)
    np.testing.assert_allclose(p, [0.9], atol=1e-6)


def test_adamw_decay_only_scales_param(f64):
    p = Tensor([2.0], requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    p.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.01)], rtol=1e-12)


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
