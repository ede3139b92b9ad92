"""Coupling flow tests: identity at init, exact invertibility, the
log-determinant against a numerically assembled Jacobian, density
normalization by quadrature, and per-location bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import assert_same_bits, with_specials

from dualflow import autodiff as ad
from dualflow.autodiff import Tensor, using_dtype
from dualflow.errors import ContractError, NumericError, ShapeError
from dualflow.flow import (FLOW_VARIANTS, CouplingLayer, FlowConfig, FlowStack, PermuteStage,
                           StandardizeStage, per_location_stats)


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
                dict(hidden_ratio=float("nan"))):
        with pytest.raises(ContractError):
            FlowConfig(**bad)


def perturb(stack: FlowStack, rng, scale=0.1):
    """Give every subnet random weights so the stack is away from identity.
    The default scale keeps log-scales off the clamp, matching the
    conditioning of trained stacks."""
    for name, p in stack.params().items():
        p.data = p.data + rng.normal(0.0, scale, size=p.data.shape).astype(p.data.dtype)
    return stack


def numeric_jacobian(f, x0: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a flat vector map, column by column."""
    d = x0.size
    jac = np.zeros((d, d))
    for k in range(d):
        hi = x0.copy()
        hi[k] += eps
        lo = x0.copy()
        lo[k] -= eps
        jac[:, k] = (f(hi) - f(lo)) / (2.0 * eps)
    return jac


def test_identity_at_init(rng):
    with using_dtype(np.float64):
        stack = FlowStack(8, FlowConfig(n_blocks=4), np.random.default_rng(0))
        u = rng.normal(size=(2, 3, 3, 8))
        z, logdet, _ = stack.forward(Tensor(u))
        # at init the stack is the composition of its seeded permutations
        perm = np.arange(8)
        for stage in stack.stages:
            if isinstance(stage, PermuteStage):
                perm = perm[stage.perm]
        np.testing.assert_allclose(logdet.data, 0.0, atol=1e-12)
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
        z, _, _ = stack.forward(Tensor(u))
        back = stack.inverse(z)
        assert np.abs(back.data - u).max() < 1e-10


def test_roundtrip_f32(rng):
    stack = perturb(FlowStack(12, FlowConfig(n_blocks=8), np.random.default_rng(2)),
                    np.random.default_rng(3))
    u = rng.normal(size=(20, 4, 4, 12)).astype(np.float32)
    z, _, _ = stack.forward(Tensor(u))
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
            z, _, _ = stack.forward(Tensor(flat.reshape(shape)))
            return z.data.reshape(-1)

        _, logdet, _ = stack.forward(Tensor(u0))
        jac = numeric_jacobian(flat_forward, u0.reshape(-1))
        _, ref = np.linalg.slogdet(jac)
        rel = abs(logdet.data[0] - ref) / max(abs(ref), 1.0)
        assert rel < 1e-3, f"seed {seed}: analytic {logdet.data[0]:.6f} vs jacobian {ref:.6f}"


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
        z, logdet, _ = stack.forward(Tensor(pts))
        logp = log_likelihood(z.data, logdet.data)
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
    with using_dtype(np.float64):
        stack = perturb(FlowStack(8, FlowConfig(n_blocks=4), np.random.default_rng(6)),
                        np.random.default_rng(7))
        u = Tensor(rng.normal(size=(4, 3, 3, 8)))
        z, logdet, _ = stack.forward(u)
        before = log_likelihood(z.data, logdet.data)
        stack.stages.append(PermuteStage(np.random.default_rng(8).permutation(8)))
        z2, logdet2, _ = stack.forward(u)
        after = log_likelihood(z2.data, logdet2.data)
        np.testing.assert_allclose(after, before, rtol=1e-12)


def test_per_location_sums_match_global(rng):
    with using_dtype(np.float64):
        stack = perturb(FlowStack(10, FlowConfig(n_blocks=5), np.random.default_rng(9)),
                        np.random.default_rng(10))
        stack.standardize.set_stats(rng.normal(size=10) * 0.3, 0.5 + rng.random(10))
        u = Tensor(rng.normal(size=(3, 4, 4, 10)))
        z, logdet, _ = stack.forward(u)
        z_norm_sq, local_logdet = per_location_stats(stack, u)
        np.testing.assert_allclose(local_logdet.sum(axis=(1, 2)), logdet.data, atol=1e-4)
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
        _, logdet, _ = stack.forward(u)
        np.testing.assert_allclose(logdet.data, -4 * 4 * np.log(2.0), rtol=1e-12)


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
        z, logdet, _ = stack.forward(u)
        nll = ad.sub(ad.mul(ad.sum_all(ad.mul(z, z)), 0.5), ad.sum_all(logdet))
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

        pairs = ((lambda x: stage.forward(x)[0], lambda x: standardize_broadcast_copy(stage, x)),
                 (stage.inverse, lambda y: unstandardize_broadcast_copy(stage, y)))
        for new, old in pairs:
            for taped in (False, True):
                got, want = run(new, taped), run(old, taped)
                assert_same_bits(got[0], want[0])
                assert got[2] == want[2]  # same tape ops
                if taped:
                    assert_same_bits(got[1], want[1])
