"""Model assembly and the two-stage training loop.

Stage 1 fits the dual-attention reconstructor: both branches regress the
frozen prior features under summed squared error. Stage 2 freezes the
transformer, standardizes the joint (prior, reconstruction) features over
the training set, and fits the per-scale flows by exact maximum likelihood.
The parameter sets of the two stages are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .attention import DualAttention, DualAttnConfig, OutputHeads
from .autodiff import Tape, Tensor, default_dtype
from .data import image_values
from .encoder import (STAGE_STRIDES, EncoderConfig, FrozenEncoder, PatchEmbed, PatchEmbedConfig,
                      merged_params)
from .errors import ContractError, NumericError, ShapeError, check_field_types
from .flow import FLOW_VARIANTS, FlowConfig, FlowStack, checked_stats
from .optim import AdamW


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    stage1_epochs: int = 50
    stage2_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1 or not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError("batch_size must be >= 1 and lr finite and positive")
        if min(self.stage1_epochs, self.stage2_epochs, self.seed) < 0:
            raise ContractError("epoch counts and seed must be non-negative")


class Model:
    """Frozen extractor + tokenizer + dual-attention reconstructor + one
    flow stack per scale, sized for the flow input variant
    ``flow_cfg.variant``. Learnable state is reachable through
    ``parameters()``; fitted statistics through ``buffers()``."""

    def __init__(self, enc_cfg: EncoderConfig = EncoderConfig(),
                 emb_cfg: PatchEmbedConfig = PatchEmbedConfig(),
                 attn_cfg: DualAttnConfig = DualAttnConfig(),
                 flow_cfg: FlowConfig = FlowConfig(), seed: int = 0):
        self.enc_cfg = enc_cfg
        self.variant = flow_cfg.variant

        self.encoder = FrozenEncoder(enc_cfg)
        channels = enc_cfg.stage_channels
        map_sizes = [enc_cfg.in_size // s for s in STAGE_STRIDES]
        grids = []
        for m, p in zip(map_sizes, emb_cfg.patch_sizes):
            if m % p:
                raise ContractError(f"map size {m} not divisible by patch size {p}")
            grids.append(m // p)
        if len(set(grids)) != 1:
            raise ContractError(f"patch sizes {emb_cfg.patch_sizes} give unequal "
                                f"token grids {grids}")
        length = grids[0] * grids[0]

        def rng(*key):
            return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

        self.embed = PatchEmbed(channels, emb_cfg, rng(0))
        self.attn = DualAttention(attn_cfg, length, emb_cfg.token_dim, rng(1))
        self.heads_self, self.heads_mem = (
            OutputHeads(channels, emb_cfg.patch_sizes, map_sizes, self.embed.width, rng(k))
            for k in (2, 3))
        n_branch = len(FLOW_VARIANTS[self.variant])
        self.flows = [FlowStack(c * n_branch, flow_cfg, rng(4, i))
                      for i, c in enumerate(channels)]

        dt = default_dtype()
        self.norm_mean = np.zeros(3, dtype=dt)
        self.norm_std = np.ones(3, dtype=dt)
        self.transformer_trained = False
        self.flow_trained = False

    # -- parameter bookkeeping ------------------------------------------------

    def transformer_parameters(self) -> dict:
        return merged_params(("embed", self.embed), ("attn", self.attn),
                             ("head.self", self.heads_self), ("head.mem", self.heads_mem))

    def flow_parameters(self) -> dict:
        return merged_params(*((f"flow.{i}", stack) for i, stack in enumerate(self.flows)))

    def parameters(self) -> dict:
        return self.transformer_parameters() | self.flow_parameters()

    def buffers(self) -> dict:
        out = {"norm.mean": self.norm_mean, "norm.std": self.norm_std}
        for i, stack in enumerate(self.flows):
            out[f"flow.{i}.in_mean"] = stack.standardize.mean
            out[f"flow.{i}.in_std"] = stack.standardize.std
        return out

    # -- forward pieces --------------------------------------------------------

    def set_image_norm(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.norm_mean, self.norm_std = checked_stats("image normalization", mean, std,
                                                      default_dtype())

    def prior_features(self, image: np.ndarray) -> list:
        """Frozen feature pyramid of an (H, W, 3) image, normalized per channel
        with the training-set statistics. The image must be a numpy array
        (else ``ContractError``) and is read through ``data.image_values``
        (a uint8 raster as float64 ``raster / 255``, a [0, 1] float image as
        it is, any other dtype a ``ContractError``),
        then cast to the default dtype, so a raster and its float64 ``/ 255``
        give the same bits. Every image enters the model here, so a
        non-finite value in it (or one that the cast and the normalization
        make non-finite) fails here, as ``NumericError``."""
        if not isinstance(image, np.ndarray):
            raise ContractError(f"an image must be a numpy array, not {type(image).__name__}")
        if image.ndim != 3 or image.shape[-1] != 3:
            raise ShapeError(f"expected (H, W, 3) image, got {image.shape}")
        x = (np.asarray(image_values(image), dtype=default_dtype())
             - self.norm_mean) / self.norm_std
        if not np.isfinite(x).all():
            raise NumericError("the image holds non-finite values after normalization")
        return self.encoder(x)

    def reconstruct(self, pyramid):
        """Both branch reconstructions of a prior pyramid of (..., H, W, C)
        maps, as tape tensors of the same shapes: one image's pyramid, or a
        batch stacked along a leading axis."""
        t_s, t_m = self.attn(self.embed(pyramid))
        return self.heads_self(t_s), self.heads_mem(t_m)

    def joint_arrays(self, pyramid, recon_self, recon_mem):
        """Per-scale flow inputs of the model's variant as plain (..., H, W, C)
        arrays (everything upstream of the flows is detached by construction
        in stage 2 and scoring)."""
        branch_maps = {"prior": pyramid,
                       "self": [m.data for m in recon_self],
                       "memorial": [m.data for m in recon_mem]}
        joints = []
        for i in range(len(pyramid)):
            parts = [np.asarray(branch_maps[b][i]) for b in FLOW_VARIANTS[self.variant]]
            joints.append(np.concatenate(parts, axis=-1))
        return joints


# ---------------------------------------------------------------------------
# losses


def recon_loss(prior_pyramid, recon) -> Tensor:
    """Summed squared reconstruction error over all scales (and over the
    samples of a stacked batch); both branches are fitted with it."""
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
        z, fields = stack.forward(u)
        logdet = stack.log_det(fields)
        b = u.shape[0]
        d = u.data[0].size
        sq = ad.mul(ad.sum_batch(ad.mul(z, z)), 0.5)
        nll = ad.add(ad.sub(sq, logdet), 0.5 * d * math.log(2.0 * math.pi))
        term = ad.mul(ad.sum_all(nll), 1.0 / b)
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# training


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def _fit(params: dict, n: int, parts, cfg: TrainConfig, log, *, stage: str,
         what: str, spawn: int, epochs: int) -> None:
    """The loop both stages share: AdamW over ``params``, an order of the
    ``n`` samples seeded by ``(cfg.seed, spawn)``, then per batch one step
    on the sum of ``parts``: functions of the batch indices, returning
    ``(loss, values)``, that share no parameter. Each part is built on its
    own tape, checked finite and backpropagated before the next is built,
    so one part's backward state is alive at a time, and each gradient
    still comes from one backward, with the bits of one tape for the sum.
    The float32 total of the losses is checked finite before the step.
    Each epoch ends with ``log(stage, epoch, *means)``: the parts' values,
    added position by position in part order, as Python floats averaged
    over the batches, summed in batch order."""
    opt = AdamW(list(params.values()), lr=cfg.lr)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(spawn,)))
    for epoch in range(epochs):
        sums = None
        count = 0
        for batch in _batches(n, cfg.batch_size, rng):
            opt.zero_grad()
            total = values = None
            for part in parts:
                with Tape() as tape:
                    loss, part_values = part(batch)
                    if not np.isfinite(loss.data):
                        raise NumericError(f"non-finite loss in {what} training")
                    tape.backward(loss)
                total = loss.data if total is None else total + loss.data
                values = part_values if values is None else [
                    v + pv for v, pv in zip(values, part_values)]
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss in {what} training")
            opt.step()
            sums = [s + float(v) for s, v in zip(sums or [0.0] * len(values), values)]
            count += 1
        if log is not None:
            log(stage, epoch, *(s / count for s in sums))


def _check_images(model: Model, images) -> None:
    """Both training stages' input check: one or more images of the model's shape."""
    if len(images) == 0:
        raise ContractError("training needs at least one image")
    want = (model.enc_cfg.in_size, model.enc_cfg.in_size, 3)
    for i, image in enumerate(images):
        if np.shape(image) != want:  # before flow_input_stats reshapes it into rows
            raise ShapeError(f"training image {i} has shape {np.shape(image)}, "
                             f"the model expects {want}")


def _stacked_pyramids(model: Model, images) -> list:
    """The frozen pyramids of ``images``, one image at a time, stacked per
    scale into (N, H, W, C) arrays."""
    return [np.stack(maps) for maps in zip(*(model.prior_features(im) for im in images))]


def train_transformer(model: Model, images, cfg: TrainConfig, log=None) -> None:
    """Stage 1. Caches the frozen pyramids once, stacked per scale as
    (N, H, W, C) arrays, then fits both branches with one taped forward of
    each (B, H, W, C) batch."""
    _check_images(model, images)
    model.set_image_norm(*flow_input_stats([images])[0])
    stacked = _stacked_pyramids(model, images)

    def batch_loss(batch):
        targets = [s[batch] for s in stacked]
        recon_s, recon_m = model.reconstruct(targets)
        ls = recon_loss(targets, recon_s)
        lm = recon_loss(targets, recon_m)
        loss = ad.mul(ad.add(ls, lm), 1.0 / len(batch))
        return loss, (ls.item() / len(batch), lm.item() / len(batch))

    _fit(model.transformer_parameters(), len(images), [batch_loss], cfg, log,
         stage="stage1", what="transformer", spawn=100, epochs=cfg.stage1_epochs)
    model.transformer_trained = True


def flow_input_stats(stacks) -> list:
    """Per-channel float64 (mean, std) of each entry of ``stacks``, the std
    floored at 1e-6. An entry is one (..., C) array, such as a scale's joint
    stack in stage 2, or a list of them whose rows are pooled, such as the
    training images in stage 1. Rows are read a block at a time through
    ``data.image_values``, so a uint8 raster counts as its ``/ 255`` values
    and no float64 copy of an entry is made. Both the sum and the squared
    deviations are added row after row onto a running float64 total, as
    numpy's axis-0 sum does over two or more channels, so the bits are those
    of ``np.mean`` and ``np.std`` of the entry's float64 stack."""
    stats = []
    for entry in stacks:
        arrays = [entry] if isinstance(entry, np.ndarray) else entry
        channels = np.shape(arrays[0])[-1]
        count = sum(np.size(a) for a in arrays) // channels
        rows = max(1, (1 << 15) // channels)

        def blocks():
            for a in arrays:
                flat = np.reshape(a, (-1, channels))
                for lo in range(0, len(flat), rows):
                    yield image_values(flat[lo:lo + rows])

        def row_sum(parts):
            total = np.full(channels, -0.0)  # -0.0 + x is x, bit for bit
            for part in parts:
                total = np.vstack((total, part)).sum(axis=0)
            return total

        mean = row_sum(blocks()) / count
        var = row_sum(d * d for d in (b - mean for b in blocks())) / count
        stats.append((mean, np.maximum(np.sqrt(var), 1e-6)))
    return stats


def collect_joints(model: Model, images) -> list:
    """Per-scale joint features of a list of images as (N, H, W, C) arrays,
    no gradients: the frozen pyramids one image at a time, then one
    reconstruction of the stacked batch."""
    _check_images(model, images)
    pyramids = _stacked_pyramids(model, images)
    recon_s, recon_m = model.reconstruct(pyramids)
    return model.joint_arrays(pyramids, recon_s, recon_m)


def train_flow(model: Model, images, cfg: TrainConfig, log=None) -> None:
    """Stage 2. The transformer must already be fitted; its outputs are
    cached as constants, standardization is fitted once, then the flows
    train by maximum likelihood, one ``_fit`` part per scale: the scales'
    flows share no parameter. The logged loss is the float32 sum of the
    scales' losses, in scale order."""
    if not model.transformer_trained:
        raise ContractError("stage 2 requires a trained transformer (run stage 1 first)")
    cached = collect_joints(model, images)
    for stack, (mean, std) in zip(model.flows, flow_input_stats(cached)):
        stack.standardize.set_stats(mean, std)

    def scale_loss(stack, stacked):
        def part(batch):
            loss = loss_flow([stack], [Tensor(stacked[batch])])
            return loss, (loss.data,)
        return part

    parts = [scale_loss(stack, stacked) for stack, stacked in zip(model.flows, cached)]
    _fit(model.flow_parameters(), cached[0].shape[0], parts, cfg, log,
         stage="stage2", what="flow", spawn=200, epochs=cfg.stage2_epochs)
    model.flow_trained = True


def build_model(rc) -> Model:
    """Model from a run config bundle (attributes: encoder, patch_embed,
    attention, flow, train)."""
    return Model(enc_cfg=rc.encoder, emb_cfg=rc.patch_embed, attn_cfg=rc.attention,
                 flow_cfg=rc.flow, seed=rc.train.seed)


def train(images, rc, log=None) -> Model:
    """Full two-stage run from scratch."""
    model = build_model(rc)
    train_transformer(model, images, rc.train, log=log)
    train_flow(model, images, rc.train, log=log)
    return model


def switch_variant(model: Model, rc, variant: str) -> Model:
    """New model with a copy of ``model``'s stage-1 parameters and image
    statistics but fresh flows sized for ``variant`` (to retrain the flows
    under a different variant)."""
    out = build_model(replace(rc, flow=replace(rc.flow, variant=variant)))
    src, dst = model.transformer_parameters(), out.transformer_parameters()
    if src.keys() != dst.keys():
        raise ContractError("transformer parameter sets differ between models")
    for k in src:
        dst[k].data = src[k].data.copy()
    out.set_image_norm(model.norm_mean, model.norm_std)
    out.transformer_trained = model.transformer_trained
    return out
