"""Anomaly maps and image scores.

Every mode produces one raw map per scale at feature resolution, bilinearly
upsampled to input resolution and Gaussian smoothed; the fused map is their
sum and the image score its maximum. Higher always means more anomalous.

Modes:
  likelihood   per-location negative log-likelihood terms from the flows,
               ``z_norm_sq / 2 - local_logdet`` (requires trained flows)
  latent_norm  per-location squared latent norm
  recon_self   channel-summed squared error of the self reconstruction
  recon_mem    same for the memorial reconstruction
  recon_fused  convex combination of the two reconstruction errors
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .autodiff import Tensor
from .errors import ContractError, ShapeError, check_field_types
from .flow import per_location_stats

MODES = ("likelihood", "latent_norm", "recon_self", "recon_mem", "recon_fused")

# Largest accepted smoothing sigma. ``gaussian_filter``'s kernel has 8σ+1
# taps, so its time and memory grow with σ without bound; 256 is already four
# times the width of a default 64x64 map.
MAX_SMOOTH_SIGMA = 256.0


@dataclass(frozen=True)
class ScoringConfig:
    mode: str = "likelihood"
    smooth_sigma: float = 4.0
    fuse_weight: float = 0.5
    fpr_limit: float = 0.3

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 <= self.smooth_sigma <= MAX_SMOOTH_SIGMA):
            raise ContractError(f"smooth_sigma must lie in [0, {MAX_SMOOTH_SIGMA}] "
                                "(0: no smoothing)")
        if not (0.0 <= self.fuse_weight <= 1.0):
            raise ContractError("fuse_weight must lie in [0, 1]")
        if not (0.0 < self.fpr_limit <= 1.0):
            raise ContractError("fpr_limit must lie in (0, 1]")


@dataclass
class AnomalyMap:
    scores: np.ndarray        # (in_size, in_size) fused map
    image_score: float
    mode: str
    per_scale: list           # upsampled, smoothed per-scale maps


def bilinear_upsample(fmap: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-aligned bilinear resize of a 2-d map."""
    if fmap.ndim != 2:
        raise ShapeError(f"expected a 2-d map, got shape {fmap.shape}")
    h, w = fmap.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = fmap[np.ix_(y0, x0)] * (1 - wx) + fmap[np.ix_(y0, x1)] * wx
    bot = fmap[np.ix_(y1, x0)] * (1 - wx) + fmap[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def _sq_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2).sum(axis=-1)


def raw_scale_maps(model, image: np.ndarray, mode: str,
                   fuse_weight: float = ScoringConfig.fuse_weight) -> list:
    """Feature-resolution score map per scale for one image."""
    if mode not in MODES:
        raise ContractError(f"unknown scoring mode {mode!r}")
    pyramid = model.prior_features(image)
    recon_s, recon_m = model.reconstruct(pyramid)
    if mode.startswith("recon_"):
        w = {"recon_self": 0.0, "recon_mem": 1.0}.get(mode, fuse_weight)
        return [(1 - w) * _sq_error(rs.data, p) + w * _sq_error(rm.data, p)
                for rs, rm, p in zip(recon_s, recon_m, pyramid)]
    if mode == "likelihood" and not model.flow_trained:
        raise ContractError("likelihood scoring requires trained flows")
    joints = model.joint_arrays(pyramid, recon_s, recon_m)
    maps = []
    for stack, joint in zip(model.flows, joints):
        z_norm_sq, local_logdet = per_location_stats(stack, Tensor(joint[None]))
        if mode == "likelihood":
            maps.append(0.5 * z_norm_sq[0] - local_logdet[0])
        else:
            maps.append(z_norm_sq[0])
    return maps


def anomaly_map(model, image: np.ndarray, mode: str = ScoringConfig.mode,
                smooth_sigma: float = ScoringConfig.smooth_sigma,
                fuse_weight: float = ScoringConfig.fuse_weight) -> AnomalyMap:
    """Fused input-resolution anomaly map and image score for one image. The
    arguments are checked as ``ScoringConfig`` fields (``ContractError``)."""
    ScoringConfig(mode=mode, smooth_sigma=smooth_sigma, fuse_weight=fuse_weight)
    size = model.enc_cfg.in_size
    per_scale = []
    for raw in raw_scale_maps(model, image, mode, fuse_weight):
        up = bilinear_upsample(raw, size, size)
        if smooth_sigma > 0:
            up = gaussian_filter(up, sigma=smooth_sigma, mode="reflect")
        per_scale.append(up)
    fused = np.sum(per_scale, axis=0)
    return AnomalyMap(scores=fused, image_score=float(fused.max()), mode=mode,
                      per_scale=per_scale)
