"""Small shared fixtures: a fast model configuration, toy image sets,
inputs and checks for bit-for-bit comparisons, dataset symlinks, and the
generic tape ops that the one-op attention, ``unpatchify`` and the flow
coupling replaced, kept as their oracles (``tanh_op`` also serves the
engine's own tests as a plain nonlinearity)."""

import shutil

import numpy as np

from dualflow import autodiff as ad
from dualflow.attention import DualAttnConfig
from dualflow.config import RunConfig
from dualflow.encoder import LEAKY_SLOPE, EncoderConfig, PatchEmbedConfig, leaky_relu
from dualflow.flow import FlowConfig
from dualflow.pipeline import TrainConfig
from dualflow.scoring import ScoringConfig


def tiny_run_config(**train_kw) -> RunConfig:
    """A configuration small enough to train in well under a second."""
    train_args = dict(batch_size=2, stage1_epochs=2, stage2_epochs=2)
    train_args.update(train_kw)
    return RunConfig(
        encoder=EncoderConfig(in_size=32, stage_channels=(4, 6, 8)),
        patch_embed=PatchEmbedConfig(token_dim=24),
        attention=DualAttnConfig(depth=1, heads=2),
        flow=FlowConfig(n_blocks=2, hidden_ratio=1.0),
        train=TrainConfig(**train_args),
        scoring=ScoringConfig(),
    )


def tiny_images(n, size=32, seed=0):
    """Banded textures with mild noise, values in [0, 1]."""
    rng = np.random.default_rng(seed)
    base = 0.5 + 0.2 * np.sin(np.linspace(0, 4 * np.pi, size))[None, :, None]
    return [np.clip(base + rng.normal(0, 0.05, size=(size, size, 3)), 0, 1)
            for _ in range(n)]


def assert_same_bits(got, want):
    """Equal dtype, shape and bit patterns: tells -0.0 from 0.0 and compares
    NaN payloads."""
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


def with_specials(rng, shape, dtype, finite_only=False):
    """Normal samples with exact zeros, -0.0 and denormals scattered in, and
    +-inf and NaN unless ``finite_only``."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = [0.0, -0.0, tiny, -tiny, 3 * tiny, -0.0]
    if not finite_only:
        specials += [np.inf, -np.inf, np.nan]
    x = rng.normal(size=shape).astype(dtype)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, size=len(specials), replace=False)] = specials
    return x


def replace_with_symlink(path, target):
    """Put a symlink to ``target`` where the file or directory ``path`` was."""
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    path.symlink_to(target)


# ---------------------------------------------------------------------------
# the op chains' generic ops, each one tape op as ``autodiff`` once had it


def tanh_op(x):
    """``np.tanh`` as a tape op; the vjp reads the output,
    ``g * (1 - out * out)``."""
    out = np.tanh(x.data)
    return ad._emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def leaky_relu_op(x):
    """``encoder.leaky_relu`` as a tape op; the vjp rebuilds the derivative
    ``max(x >= 0, slope)`` from the input."""
    xd = x.data
    slope = xd.dtype.type(LEAKY_SLOPE)
    return ad._emit(leaky_relu(xd), (x,), lambda g: (g * np.maximum(xd >= 0, slope),))


def reshape(x, shape):
    in_shape = x.data.shape
    return ad._emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))


def permute(x, axes):
    """A transposed view; the gradient is made contiguous, as the op made it."""
    return ad._emit(x.data.transpose(axes), (x,),
                    lambda g: (np.ascontiguousarray(g.transpose(np.argsort(axes))),))


def matmul(a, b):
    """``(..., M, K) @ (..., K, N)``, one product per leading index."""
    x, y = a.data, b.data
    return ad._emit(x @ y, (a, b),
                    lambda g: (g @ np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2) @ g))


def softmax_rows(x):
    """Softmax over the last axis, computed with a max shift."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return ad._emit(out, (x,), vjp)
