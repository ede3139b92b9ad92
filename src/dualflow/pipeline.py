"""Model assembly and the two-stage training loop.

Stage 1 fits the dual-attention reconstructor: both branches regress the
frozen prior features under summed squared error. Stage 2 freezes the
transformer, standardizes the joint (prior, reconstruction) features over
the training set, and fits the per-scale flows by exact maximum likelihood.
The parameter sets of the two stages are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import DualAttention, DualAttnConfig, OutputHeads
from .autodiff import Tape, Tensor, default_dtype
from .encoder import EncoderConfig, FrozenEncoder, PatchEmbed, PatchEmbedConfig
from .errors import ContractError, NumericError, ShapeError
from .flow import FLOW_VARIANTS, FlowConfig, FlowStack
from .optim import AdamW


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    stage1_epochs: int = 50
    stage2_epochs: int = 30
    seed: int = 0
    flow_variant: str = "D"
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.flow_variant not in FLOW_VARIANTS:
            raise ContractError(f"flow_variant must be one of {sorted(FLOW_VARIANTS)}, "
                                f"got {self.flow_variant!r}")
        if self.batch_size < 1 or not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError("batch_size must be >= 1 and lr finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ContractError("weight_decay must be finite and non-negative")
        if min(self.stage1_epochs, self.stage2_epochs, self.seed) < 0:
            raise ContractError("epoch counts and seed must be non-negative")


class Model:
    """Frozen extractor + tokenizer + dual-attention reconstructor + one
    flow stack per scale. Learnable state is reachable through
    ``parameters()``; fitted statistics through ``buffers()``."""

    def __init__(self, enc_cfg: EncoderConfig = EncoderConfig(),
                 emb_cfg: PatchEmbedConfig = PatchEmbedConfig(),
                 attn_cfg: DualAttnConfig = DualAttnConfig(),
                 flow_cfg: FlowConfig = FlowConfig(),
                 variant: str = "D", seed: int = 0):
        if variant not in FLOW_VARIANTS:
            raise ContractError(f"unknown flow variant {variant!r}")
        if attn_cfg.token_dim != emb_cfg.token_dim:
            raise ContractError("attention and embedding token widths differ")
        self.enc_cfg = enc_cfg
        self.emb_cfg = emb_cfg
        self.attn_cfg = attn_cfg
        self.flow_cfg = flow_cfg
        self.variant = variant
        self.seed = seed

        self.encoder = FrozenEncoder(enc_cfg)
        channels = enc_cfg.stage_channels
        map_sizes = [enc_cfg.in_size // s for s in enc_cfg.stage_strides]
        grids = []
        for m, p in zip(map_sizes, emb_cfg.patch_sizes):
            if m % p:
                raise ContractError(f"map size {m} not divisible by patch size {p}")
            grids.append(m // p)
        if len(set(grids)) != 1:
            raise ContractError(f"patch sizes {emb_cfg.patch_sizes} give unequal "
                                f"token grids {grids}")
        self.length = grids[0] * grids[0]

        def rng(*key):
            return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

        self.embed = PatchEmbed(channels, emb_cfg, rng(0))
        self.attn = DualAttention(attn_cfg, self.length, rng(1))
        self.heads_self = OutputHeads(channels, emb_cfg.patch_sizes, map_sizes,
                                      emb_cfg.token_dim, rng(2))
        self.heads_mem = OutputHeads(channels, emb_cfg.patch_sizes, map_sizes,
                                     emb_cfg.token_dim, rng(3))
        n_branch = len(FLOW_VARIANTS[variant])
        self.flows = [FlowStack(c * n_branch, flow_cfg, rng(4, i))
                      for i, c in enumerate(channels)]

        dt = default_dtype()
        self.norm_mean = np.zeros(3, dtype=dt)
        self.norm_std = np.ones(3, dtype=dt)
        self.transformer_trained = False
        self.flow_trained = False

    # -- parameter bookkeeping ------------------------------------------------

    def transformer_parameters(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(self.embed.heads):
            out[f"embed.{i}.w"] = w
            out[f"embed.{i}.b"] = b
        for k, v in self.attn.params().items():
            out[f"attn.{k}"] = v
        for k, v in self.heads_self.params().items():
            out[f"head.self.{k}"] = v
        for k, v in self.heads_mem.params().items():
            out[f"head.mem.{k}"] = v
        return out

    def flow_parameters(self) -> dict:
        out = {}
        for i, stack in enumerate(self.flows):
            for k, v in stack.params().items():
                out[f"flow.{i}.{k}"] = v
        return out

    def parameters(self) -> dict:
        out = self.transformer_parameters()
        out.update(self.flow_parameters())
        return out

    def buffers(self) -> dict:
        out = {"norm.mean": self.norm_mean, "norm.std": self.norm_std}
        for i, stack in enumerate(self.flows):
            out[f"flow.{i}.in_mean"] = stack.standardize.mean
            out[f"flow.{i}.in_std"] = stack.standardize.std
        return out

    # -- forward pieces --------------------------------------------------------

    def set_image_norm(self, mean: np.ndarray, std: np.ndarray) -> None:
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericError("image normalization mean and std must be finite")
        if np.any(std <= 0):
            raise ContractError("image normalization std must be positive")
        dt = default_dtype()
        self.norm_mean = mean.astype(dt)
        self.norm_std = std.astype(dt)

    def prior_features(self, image: np.ndarray) -> list:
        """Frozen feature pyramid of a [0, 1] image, normalized per channel
        with the training-set statistics."""
        if image.ndim != 3 or image.shape[-1] != 3:
            raise ShapeError(f"expected (H, W, 3) image, got {image.shape}")
        x = (np.asarray(image, dtype=default_dtype()) - self.norm_mean) / self.norm_std
        return self.encoder(x)

    def reconstruct(self, pyramid):
        """Both branch reconstructions of a prior pyramid, as tape tensors."""
        seq = self.embed(pyramid)
        t_s, t_m = self.attn(seq)
        return self.heads_self(t_s), self.heads_mem(t_m)

    def joint_arrays(self, pyramid, recon_self, recon_mem, variant: str | None = None):
        """Per-scale flow inputs as plain arrays (everything upstream of the
        flows is detached by construction in stage 2 and scoring)."""
        variant = self.variant if variant is None else variant
        branch_maps = {"prior": pyramid,
                       "self": [m.data for m in recon_self],
                       "memorial": [m.data for m in recon_mem]}
        joints = []
        for i in range(len(pyramid)):
            parts = [np.asarray(branch_maps[b][i]) for b in FLOW_VARIANTS[variant]]
            joints.append(np.concatenate(parts, axis=-1))
        return joints


# ---------------------------------------------------------------------------
# losses


def recon_loss(prior_pyramid, recon) -> Tensor:
    """Summed squared reconstruction error over all scales; both branches
    are fitted with it."""
    if len(prior_pyramid) != len(recon):
        raise ShapeError("pyramid and reconstruction scale counts differ")
    total = None
    for target, rec in zip(prior_pyramid, recon):
        diff = ad.sub(rec, Tensor(np.asarray(target)))
        term = ad.sum_all(ad.mul(diff, diff))
        total = term if total is None else ad.add(total, term)
    return total


def loss_flow(stacks, joints) -> Tensor:
    """Mean per-sample negative log-likelihood, summed over scales. ``joints``
    are (B, H, W, C) tensors, one per scale."""
    if len(stacks) != len(joints):
        raise ShapeError("one joint feature batch per flow stack is required")
    total = None
    for stack, u in zip(stacks, joints):
        z, logdet, _ = stack.forward(u)
        b = u.shape[0]
        d = u.data[0].size
        sq = ad.mul(ad.sum_batch(ad.mul(z, z)), 0.5)
        nll = ad.add(ad.sub(sq, logdet), 0.5 * d * math.log(2.0 * math.pi))
        term = ad.mul(ad.sum_all(nll), 1.0 / b)
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# training


def image_norm_stats(images) -> tuple:
    pixels = np.stack([np.asarray(im, dtype=np.float64) for im in images])
    mean = pixels.reshape(-1, 3).mean(axis=0)
    std = pixels.reshape(-1, 3).std(axis=0)
    return mean, np.maximum(std, 1e-6)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def train_transformer(model: Model, images, cfg: TrainConfig, log=None) -> None:
    """Stage 1. Caches the frozen pyramids once, then fits both branches."""
    if len(images) == 0:
        raise ContractError("training needs at least one image")
    mean, std = image_norm_stats(images)
    model.set_image_norm(mean, std)
    pyramids = [model.prior_features(im) for im in images]
    opt = AdamW(list(model.transformer_parameters().values()), lr=cfg.lr,
                weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(100,)))
    for epoch in range(cfg.stage1_epochs):
        sums = np.zeros(2)
        count = 0
        for batch in _batches(len(images), cfg.batch_size, rng):
            opt.zero_grad()
            with Tape() as tape:
                ls_total, lm_total = None, None
                for idx in batch:
                    recon_s, recon_m = model.reconstruct(pyramids[idx])
                    ls = recon_loss(pyramids[idx], recon_s)
                    lm = recon_loss(pyramids[idx], recon_m)
                    ls_total = ls if ls_total is None else ad.add(ls_total, ls)
                    lm_total = lm if lm_total is None else ad.add(lm_total, lm)
                loss = ad.mul(ad.add(ls_total, lm_total), 1.0 / len(batch))
                if not np.isfinite(loss.data):
                    raise NumericError("non-finite loss in transformer training")
                tape.backward(loss)
            opt.step()
            sums += [ls_total.item() / len(batch), lm_total.item() / len(batch)]
            count += 1
        if log is not None:
            log("stage1", epoch, float(sums[0] / count), float(sums[1] / count))
    model.transformer_trained = True


def flow_input_stats(joints_per_scale) -> list:
    """Per-channel mean/std of stacked joint features, one pair per scale."""
    stats = []
    for stacked in joints_per_scale:
        flat = stacked.reshape(-1, stacked.shape[-1]).astype(np.float64)
        mean = flat.mean(axis=0)
        std = np.maximum(flat.std(axis=0), 1e-6)
        stats.append((mean, std))
    return stats


def collect_joints(model: Model, images, variant: str | None = None) -> list:
    """Stacked per-scale joint features for a list of images, no gradients."""
    per_scale = None
    for im in images:
        pyr = model.prior_features(im)
        recon_s, recon_m = model.reconstruct(pyr)
        joints = model.joint_arrays(pyr, recon_s, recon_m, variant)
        if per_scale is None:
            per_scale = [[] for _ in joints]
        for i, j in enumerate(joints):
            per_scale[i].append(j)
    return [np.stack(maps) for maps in per_scale]


def train_flow(model: Model, images, cfg: TrainConfig, log=None) -> None:
    """Stage 2. The transformer must already be fitted; its outputs are
    cached as constants, standardization is fitted once, then the flows
    train by maximum likelihood."""
    if not model.transformer_trained:
        raise ContractError("stage 2 requires a trained transformer (run stage 1 first)")
    cached = collect_joints(model, images)
    for stack, (mean, std) in zip(model.flows, flow_input_stats(cached)):
        stack.standardize.set_stats(mean, std)
    opt = AdamW(list(model.flow_parameters().values()), lr=cfg.lr,
                weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(200,)))
    n = cached[0].shape[0]
    for epoch in range(cfg.stage2_epochs):
        total = 0.0
        count = 0
        for batch in _batches(n, cfg.batch_size, rng):
            opt.zero_grad()
            with Tape() as tape:
                joints = [Tensor(stacked[batch]) for stacked in cached]
                loss = loss_flow(model.flows, joints)
                if not np.isfinite(loss.data):
                    raise NumericError("non-finite loss in flow training")
                tape.backward(loss)
            opt.step()
            total += loss.item()
            count += 1
        if log is not None:
            log("stage2", epoch, total / count)
    model.flow_trained = True


def build_model(rc, variant: str | None = None) -> Model:
    """Model from a run config bundle (attributes: encoder, patch_embed,
    attention, flow, train)."""
    return Model(enc_cfg=rc.encoder, emb_cfg=rc.patch_embed, attn_cfg=rc.attention,
                 flow_cfg=rc.flow, variant=variant or rc.train.flow_variant,
                 seed=rc.train.seed)


def train(images, rc, log=None) -> Model:
    """Full two-stage run from scratch."""
    model = build_model(rc)
    train_transformer(model, images, rc.train, log=log)
    train_flow(model, images, rc.train, log=log)
    return model


def copy_transformer_state(src: Model, dst: Model) -> None:
    """Copy stage-1 parameters and image statistics between models (used to
    retrain flows under a different variant)."""
    s, d = src.transformer_parameters(), dst.transformer_parameters()
    if s.keys() != d.keys():
        raise ContractError("transformer parameter sets differ between models")
    for k in s:
        d[k].data = s[k].data.copy()
    dst.norm_mean = src.norm_mean.copy()
    dst.norm_std = src.norm_std.copy()
    dst.transformer_trained = src.transformer_trained


def switch_variant(model: Model, rc, variant: str) -> Model:
    """New model sharing the trained transformer but with fresh flows sized
    for ``variant``."""
    out = build_model(rc, variant=variant)
    copy_transformer_state(model, out)
    return out
