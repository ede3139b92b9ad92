"""Coupling flow tests: identity at init, exact invertibility, the
log-determinant against a numerically assembled Jacobian, density
normalization by quadrature, and per-location bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import assert_same_bits, leaky_relu_op, tanh_op, with_specials

from dualflow import autodiff as ad
from dualflow.autodiff import Tensor, reset_grads, using_dtype
from dualflow.errors import ContractError, NumericError, ShapeError
from dualflow.flow import (FLOW_VARIANTS, CouplingLayer, FlowConfig, FlowStack, StandardizeStage,
                           per_location_stats)
from dualflow.selftest import numeric_jacobian


def log_likelihood(z: np.ndarray, logdet: np.ndarray) -> np.ndarray:
    """Exact log p(u) per sample under a standard normal base. ``z`` is
    (B, ...) latent, ``logdet`` is (B,)."""
    z = np.asarray(z, dtype=np.float64)
    logdet = np.asarray(logdet, dtype=np.float64)
    b = z.shape[0]
    d = z.reshape(b, -1).shape[1]
    sq = (z.reshape(b, -1) ** 2).sum(axis=1)
    return -0.5 * d * np.log(2.0 * np.pi) - 0.5 * sq + logdet


def test_config_validation():
    for bad in (dict(n_blocks=0), dict(clamp=0.0), dict(clamp=float("nan")),
                dict(clamp=float("inf")), dict(hidden_ratio=-1.0), dict(hidden_ratio=0.0),
                dict(hidden_ratio=float("nan")), dict(variant="Q"), dict(variant="d")):
        with pytest.raises(ContractError):
            FlowConfig(**bad)


def perturb(stack: FlowStack, rng, scale=0.1):
    """Give every subnet random weights so the stack is away from identity.
    The default scale keeps log-scales off the clamp, matching the
    conditioning of trained stacks."""
    for name, p in stack.params().items():
        p.data = p.data + rng.normal(0.0, scale, size=p.data.shape).astype(p.data.dtype)
    return stack


def test_identity_at_init(rng):
    with using_dtype(np.float64):
        stack = FlowStack(8, FlowConfig(n_blocks=4), np.random.default_rng(0))
        u = rng.normal(size=(2, 3, 3, 8))
        z, fields = stack.forward(Tensor(u))
        # at init the stack is the composition of its couplings' seeded
        # permutations; the first coupling's is the identity
        np.testing.assert_array_equal(stack.couplings[0].perm, np.arange(8))
        perm = np.arange(8)
        for layer in stack.couplings:
            perm = perm[layer.perm]
        np.testing.assert_allclose(stack.log_det(fields).data, 0.0, atol=1e-12)
        np.testing.assert_array_equal(z.data, u[..., perm])


def test_identity_init_preserves_locations(rng):
    with using_dtype(np.float64):
        stack = FlowStack(6, FlowConfig(n_blocks=3), np.random.default_rng(1))
        u = rng.normal(size=(1, 4, 4, 6))
        z_norm_sq, local_logdet = per_location_stats(stack, Tensor(u))
        np.testing.assert_allclose(z_norm_sq[0], (u[0] ** 2).sum(axis=-1), rtol=1e-12)
        np.testing.assert_allclose(local_logdet, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_f64(seed):
    with using_dtype(np.float64):
        rng = np.random.default_rng(seed)
        stack = perturb(FlowStack(12, FlowConfig(n_blocks=8), np.random.default_rng(seed)), rng)
        u = rng.normal(size=(20, 4, 4, 12))
        z, _ = stack.forward(Tensor(u))
        back = stack.inverse(z)
        assert np.abs(back.data - u).max() < 1e-10


def test_roundtrip_f32(rng):
    stack = perturb(FlowStack(12, FlowConfig(n_blocks=8), np.random.default_rng(2)),
                    np.random.default_rng(3))
    u = rng.normal(size=(20, 4, 4, 12)).astype(np.float32)
    z, _ = stack.forward(Tensor(u))
    back = stack.inverse(z)
    assert np.abs(back.data - u).max() < 1e-5


@pytest.mark.parametrize("seed", range(20))
def test_logdet_matches_numeric_jacobian(seed):
    """Exact check of the claimed log-determinant against slogdet of the
    finite-difference Jacobian, on instances of at most 64 dimensions."""
    with using_dtype(np.float64):
        rng = np.random.default_rng(seed)
        shape = (1, 2, 2, 8)  # 32 dims
        stack = perturb(FlowStack(8, FlowConfig(n_blocks=3), np.random.default_rng(seed)),
                        rng, scale=0.4)
        stack.standardize.set_stats(rng.normal(size=8) * 0.2, 0.5 + rng.random(8))
        u0 = rng.normal(size=shape)

        def flat_forward(flat):
            z, _ = stack.forward(Tensor(flat.reshape(shape)))
            return z.data.reshape(-1)

        _, fields = stack.forward(Tensor(u0))
        logdet = stack.log_det(fields)
        jac = numeric_jacobian(flat_forward, u0.reshape(-1), eps=1e-5)
        _, ref = np.linalg.slogdet(jac)
        rel = abs(logdet.data[0] - ref) / max(abs(ref), 1.0)
        assert rel < 1e-3, f"seed {seed}: analytic {logdet.data[0]:.6f} vs jacobian {ref:.6f}"


def test_odd_width_forward_inverse_and_log_det():
    """On 15 channels the halves are 7 and 8 wide; each coupling's subnet
    reads the conditioning half and predicts a log-scale and a shift for the
    other, so a flipped coupling reads 8 channels and outputs 2 x 7."""
    with using_dtype(np.float64):
        rng = np.random.default_rng(7)
        shape = (1, 2, 2, 15)  # 60 dims
        stack = perturb(FlowStack(15, FlowConfig(n_blocks=3), np.random.default_rng(6)),
                        rng, scale=0.4)
        assert [c.dw_k.shape[-1] for c in stack.couplings] == [7, 8, 7]
        assert [c.pw2_w.shape[-1] for c in stack.couplings] == [16, 14, 16]
        u0 = rng.normal(size=shape)
        z, fields = stack.forward(Tensor(u0))
        assert np.abs(stack.inverse(z).data - u0).max() < 1e-10

        def flat_forward(flat):
            return stack.forward(Tensor(flat.reshape(shape)))[0].data.reshape(-1)

        _, ref = np.linalg.slogdet(numeric_jacobian(flat_forward, u0.reshape(-1), eps=1e-5))
        got = stack.log_det(fields).data[0]
        assert abs(got - ref) / max(abs(ref), 1.0) < 1e-3


def test_density_normalizes_by_quadrature(rng):
    """exp(log p) over a wide 2-d grid must integrate to 1 for any parameter
    setting, trained or not, because the map stays bijective."""
    with using_dtype(np.float64):
        stack = perturb(FlowStack(2, FlowConfig(n_blocks=6), np.random.default_rng(4)),
                        np.random.default_rng(5), scale=0.4)
        lim, n = 9.0, 361
        axis = np.linspace(-lim, lim, n)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1).reshape(-1, 1, 1, 2)
        z, fields = stack.forward(Tensor(pts))
        logp = log_likelihood(z.data, stack.log_det(fields).data)
        mass = np.trapezoid(np.trapezoid(np.exp(logp).reshape(n, n), axis, axis=1), axis)
        assert abs(mass - 1.0) < 0.01, f"mass {mass:.5f}"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_clamped_log_scale_is_bounded(seed):
    rng = np.random.default_rng(seed)
    with using_dtype(np.float64):
        layer = CouplingLayer(8, clamp=2.0, flip=bool(seed % 2), rng=np.random.default_rng(seed))
        for p in layer.params().values():
            p.data = p.data + rng.normal(0.0, 2.0, size=p.data.shape)
        _, s = layer.forward(Tensor(rng.normal(size=(2, 3, 3, 8)) * 5))
        assert np.abs(s.data).max() <= 2.0


def test_extra_permutation_leaves_likelihood_unchanged(rng):
    """An appended step that is a pure permutation (its coupling still at
    the identity) permutes z and adds exactly nothing to the log-det."""
    with using_dtype(np.float64):
        stack = perturb(FlowStack(8, FlowConfig(n_blocks=4), np.random.default_rng(6)),
                        np.random.default_rng(7))
        u = Tensor(rng.normal(size=(4, 3, 3, 8)))
        z, fields = stack.forward(u)
        logdet = stack.log_det(fields)
        before = log_likelihood(z.data, logdet.data)
        perm = np.random.default_rng(8).permutation(8)
        stack.couplings.append(CouplingLayer(8, 2.0, flip=False, rng=np.random.default_rng(9),
                                             perm=perm))
        z2, fields2 = stack.forward(u)
        logdet2 = stack.log_det(fields2)
        np.testing.assert_array_equal(z2.data, z.data[..., perm])
        np.testing.assert_array_equal(logdet2.data, logdet.data)
        after = log_likelihood(z2.data, logdet2.data)
        np.testing.assert_allclose(after, before, rtol=1e-12)


def test_coupling_checks_its_permutation_when_built():
    for bad in ([0, 1, 2, 3, 4, 5, 6, 6],            # duplicate index
                np.arange(1, 9),                     # out of range
                [-1, 0, 1, 2, 3, 4, 5, 6],           # negative
                np.arange(7),                        # wrong length
                [[0, 1, 2, 3], [4, 5, 6, 7]]):       # wrong rank
        with pytest.raises(ShapeError):
            CouplingLayer(8, 2.0, flip=False, rng=np.random.default_rng(0), perm=bad)


def test_per_location_sums_match_global(rng):
    with using_dtype(np.float64):
        stack = perturb(FlowStack(10, FlowConfig(n_blocks=5), np.random.default_rng(9)),
                        np.random.default_rng(10))
        stack.standardize.set_stats(rng.normal(size=10) * 0.3, 0.5 + rng.random(10))
        u = Tensor(rng.normal(size=(3, 4, 4, 10)))
        z, fields = stack.forward(u)
        z_norm_sq, local_logdet = per_location_stats(stack, u)
        np.testing.assert_allclose(local_logdet.sum(axis=(1, 2)), stack.log_det(fields).data,
                                   atol=1e-4)
        np.testing.assert_allclose(z_norm_sq.sum(axis=(1, 2)),
                                   (z.data ** 2).sum(axis=(1, 2, 3)), rtol=1e-10)


def test_log_likelihood_standard_normal_reference():
    z = np.zeros((1, 2, 2, 4))
    ll = log_likelihood(z, np.zeros(1))
    np.testing.assert_allclose(ll, -0.5 * 16 * np.log(2 * np.pi))


def test_standardization_logdet_enters_likelihood(rng):
    with using_dtype(np.float64):
        stack = FlowStack(4, FlowConfig(n_blocks=1), np.random.default_rng(11))
        std = np.full(4, 2.0)
        stack.standardize.set_stats(np.zeros(4), std)
        u = Tensor(rng.normal(size=(1, 2, 2, 4)))
        _, fields = stack.forward(u)
        np.testing.assert_allclose(stack.log_det(fields).data, -4 * 4 * np.log(2.0), rtol=1e-12)


def test_flow_variants_channel_counts():
    assert FLOW_VARIANTS["P"] == ("prior",)
    assert FLOW_VARIANTS["D"] == ("prior", "self", "memorial")
    with using_dtype(np.float64):
        p = Tensor(np.zeros((1, 2, 2, 3)))
        s = Tensor(np.ones((1, 2, 2, 3)))
        m = Tensor(np.full((1, 2, 2, 3), 2.0))
        joint = ad.concat_last([p, s, m])
        assert joint.shape == (1, 2, 2, 9)
        np.testing.assert_array_equal(joint.data[0, 0, 0], [0, 0, 0, 1, 1, 1, 2, 2, 2])


def test_non_finite_input_names_the_stage(rng):
    with using_dtype(np.float64):
        stack = FlowStack(4, FlowConfig(n_blocks=2), np.random.default_rng(12))
        bad = rng.normal(size=(1, 2, 2, 4))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(NumericError, match="stage 0"):
            stack.forward(Tensor(bad))


def test_flow_rejects_wrong_rank():
    stack = FlowStack(4, FlowConfig(n_blocks=1), np.random.default_rng(13))
    with pytest.raises(ShapeError):
        stack.forward(Tensor(np.zeros((2, 2, 4))))


def test_flow_gradients_flow_to_all_subnet_params(rng):
    stack = FlowStack(6, FlowConfig(n_blocks=2), np.random.default_rng(14))
    u = Tensor(rng.normal(size=(2, 3, 3, 6)).astype(np.float32))
    with ad.Tape() as tape:
        z, fields = stack.forward(u)
        nll = ad.sub(ad.mul(ad.sum_all(ad.mul(z, z)), 0.5), ad.sum_all(stack.log_det(fields)))
        tape.backward(nll)
    grads = [p.grad for p in stack.params().values()]
    assert all(g is not None for g in grads)
    # zero-init output convs still receive gradient through the chain
    assert any(np.abs(g).max() > 0 for g in grads)


def standardize_broadcast_copy(stage, x):
    """The standardization forward as it was written, with full-size
    constant maps."""
    shifted = ad.add(x, Tensor(np.broadcast_to(-stage.mean, x.shape).copy()))
    return ad.mul(shifted, Tensor(np.broadcast_to(1.0 / stage.std, x.shape).copy()))


def unstandardize_broadcast_copy(stage, y):
    scaled = ad.mul(y, Tensor(np.broadcast_to(stage.std, y.shape).copy()))
    return ad.add(scaled, Tensor(np.broadcast_to(stage.mean, y.shape).copy()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_standardize_matches_broadcast_copy_form_bit_for_bit(dtype):
    rng = np.random.default_rng(15)
    c = 6
    xd = with_specials(rng, (2, 3, 4, c), dtype)
    gd = with_specials(rng, (2, 3, 4, c), dtype)
    with using_dtype(dtype):
        stage = StandardizeStage(c)
        stage.set_stats(rng.normal(size=c) * 0.3, 0.2 + rng.random(c))
        stage.mean[0] = -0.0

        def run(fn, taped):
            x = Tensor(xd, requires_grad=taped)
            with ad.Tape() as tape:
                out = fn(x)
                if taped:
                    tape.backward(ad.sum_all(ad.mul(out, gd)))
            return out.data, x.grad, len(tape)

        pairs = ((stage.forward, lambda x: standardize_broadcast_copy(stage, x)),
                 (stage.inverse, lambda y: unstandardize_broadcast_copy(stage, y)))
        for new, old in pairs:
            for taped in (False, True):
                got, want = run(new, taped), run(old, taped)
                assert_same_bits(got[0], want[0])
                assert got[2] == want[2]  # same tape ops
                if taped:
                    assert_same_bits(got[1], want[1])


def gather_last(x, idx):
    """Channels ``idx`` of the last axis as one tape op, whose vjp scatters
    the gradient into zeros: the gather the op-chain coupling used."""
    in_shape = x.data.shape

    def vjp(g):
        gx = np.zeros(in_shape, dtype=g.dtype)
        gx[..., idx] = g
        return (gx,)

    return ad._emit(np.take(x.data, idx, axis=-1), (x,), vjp)


def chain_exp(x):
    """``exp`` as one tape op whose vjp reads its output."""
    out = np.exp(x.data)
    return ad._emit(out, (x,), lambda g: (g * out,))


def chain_conv(x, kernel, bias):
    """The subnet's depthwise 3x3 conv plus its bias as one tape op."""
    xd, kd = x.data, kernel.data
    out = ad._dw3x3_forward(xd, kd)
    out += bias.data
    return ad._emit(out, (x, kernel, bias), lambda g: ad._dw3x3_vjp(g, xd, kd))


def scale_shift_chain(layer, a):
    """The clamped log-scale and the shift predicted from ``a``, as tape ops:
    the subnet (conv, 1x1, leaky ReLU, 1x1), the two output halves, then
    ``clamp * tanh(raw / clamp)``."""
    n = layer.n_out
    h = chain_conv(a, layer.dw_k, layer.dw_b)
    out = ad.linear(leaky_relu_op(ad.linear(h, layer.pw1_w, layer.pw1_b)),
                    layer.pw2_w, layer.pw2_b)
    raw, t = ad.take_last(out, 0, n), ad.take_last(out, n, 2 * n)
    return ad.mul(tanh_op(ad.mul(raw, 1.0 / layer.clamp)), layer.clamp), t


def join_chain(layer, a, b):
    return ad.concat_last([b, a] if layer.flip else [a, b])


def coupling_forward_permute_then_slice(layer, x):
    """The coupling forward as an op chain, as it was first written: the
    whole map reordered by the permutation (one gather over every channel),
    then split by two ``take_last`` slices, then the subnet, the clamp and
    the affine map, each a tape op."""
    x = gather_last(x, layer.perm)
    a, b = (ad.take_last(x, h.start, h.stop) for h in (layer.half_a, layer.half_b))
    s, t = scale_shift_chain(layer, a)
    return join_chain(layer, a, ad.add(ad.mul(b, chain_exp(s)), t)), s


def coupling_inverse_slice_then_permute(layer, y, permuted):
    """The coupling inverse as an op chain: split by two slices, then the
    joined map reordered by the inverse permutation, if the coupling has a
    drawn one."""
    a, y_b = (ad.take_last(y, h.start, h.stop) for h in (layer.half_a, layer.half_b))
    s, t = scale_shift_chain(layer, a)
    x = join_chain(layer, a, ad.mul(ad.sub(y_b, t), chain_exp(ad.mul(s, -1.0))))
    return gather_last(x, layer.inv) if permuted else x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [2, 7, 8])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_coupling_gathers_match_permute_then_slice_form_bit_for_bit(channels, dtype):
    """A coupling's forward is one tape op: its output, its log-scale field,
    and the gradients of its input and of all six subnet parameters equal
    those of the op chain that reorders the whole map first and slices it,
    bit for bit, whether the loss reads the output, the field or both. Its
    tape-free inverse equals the chain's slice-then-reorder form. Covered:
    both flips, with and without a drawn permutation, odd and even widths,
    one-channel subnets (2 channels), batches of 1 and 2, a clamp whose
    inverse is inexact, inputs with zeros, -0.0, denormals, infinities and
    NaN, and an output channel whose whole gradient is -0.0."""
    rng = np.random.default_rng(channels)
    for flip in (False, True):
        for permuted in (False, True):
            with using_dtype(dtype):
                layer = CouplingLayer(channels, 1.5, flip, np.random.default_rng(1), 1.5,
                                      perm=rng.permutation(channels) if permuted else None)
                perturb(layer, rng, scale=0.3)
            params = list(layer.params().values())
            for batch in (1, 2):
                xd = with_specials(rng, (batch, 3, 4, channels), dtype)
                gd = with_specials(rng, (batch, 3, 4, channels), dtype)
                gs = with_specials(rng, (batch, 3, 4, layer.n_out), dtype)
                if batch == 1:  # a shift channel whose whole gradient is -0.0
                    gd[..., layer.half_b.start] = -0.0

                def run(fn, read_y, read_s):
                    reset_grads(params)
                    with using_dtype(dtype):
                        x = Tensor(xd, requires_grad=True)
                        with ad.Tape() as tape:
                            out, s = fn(layer, x)
                            terms = ([ad.sum_all(ad.mul(out, gd))] if read_y else []) + (
                                [ad.sum_all(ad.mul(s, gs))] if read_s else [])
                            tape.backward(terms[0] if len(terms) == 1 else ad.add(*terms))
                    return [out.data, s.data, x.grad] + [p.grad for p in params]

                for read_y, read_s in ((True, True), (True, False), (False, True)):
                    got = run(CouplingLayer.forward, read_y, read_s)
                    want = run(coupling_forward_permute_then_slice, read_y, read_s)
                    assert len(got) == 9
                    for g, w in zip(got, want):
                        assert_same_bits(g, w)

                with using_dtype(dtype):
                    assert_same_bits(layer.inverse(Tensor(xd)).data,
                                     coupling_inverse_slice_then_permute(
                                         layer, Tensor(xd), permuted).data)


def test_coupling_on_a_constant_input_skips_its_input_gradient():
    """A coupling whose input requires no gradient (the first of a stack)
    gives its six parameters the gradients it gives them on a
    ``requires_grad`` input with the same data, bit for bit, and leaves the
    input's ``grad`` None."""
    layer = perturb(CouplingLayer(6, 2.0, True, np.random.default_rng(0), perm=[5, 0, 3, 1, 4, 2]),
                    np.random.default_rng(1))
    params = list(layer.params().values())
    rng = np.random.default_rng(2)
    xd = rng.normal(size=(2, 3, 3, 6)).astype(np.float32)
    gd = rng.normal(size=xd.shape).astype(np.float32)
    grads = []
    for needs in (True, False):
        reset_grads(params)
        x = Tensor(xd, requires_grad=needs)
        with ad.Tape() as tape:
            out, s = layer.forward(x)
            tape.backward(ad.add(ad.sum_all(ad.mul(out, gd)), ad.sum_all(s)))
        assert (x.grad is not None) == needs
        grads.append([p.grad for p in params])
    for got, want in zip(*grads):
        assert_same_bits(got, want)


def test_coupling_record_is_skipped_when_no_output_gets_a_gradient():
    """A coupling whose output and log-scale field the loss never reads is
    one record that backward skips: no gradient reaches its input or its
    subnet parameters."""
    layer = perturb(CouplingLayer(6, 2.0, False, np.random.default_rng(0)),
                    np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 3, 6)), requires_grad=True)
    other = Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        layer.forward(x)
        loss = ad.sum_all(other)
        assert len(tape) == 2
        tape.backward(loss)
    assert len(tape) == 0
    assert x.grad is None and all(p.grad is None for p in layer.params().values())
    np.testing.assert_array_equal(other.grad, np.ones(3, dtype=other.data.dtype))
