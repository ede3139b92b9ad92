"""Detection and localization metrics.

AUROC uses the rank statistic with half credit for ties: every tie group
gets its mean rank. Region-level localization builds one exact curve:
pixels sorted once by score, per-region overlap (optionally divided by a
saturation area and clipped at 1) averaged region by region at every
distinct-score boundary against the global false positive rate, then
trapezoid-integrated up to an FPR limit and normalized. Regions are the
8-connected components that ``scipy.ndimage.label`` finds, enumerated in
row-major order of their first pixel: ``label`` numbers regions in the order
its raster scan first meets them, which is exactly that order.

Scores must be finite; a NaN or infinity has no rank and raises
``NumericError``. Float sums that feed reported numbers run left-to-right
(region order, then segment order), so results are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ContractError, NumericError, ShapeError
from .scoring import ScoringConfig, anomaly_map


def auroc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counted half.
    Scores and labels must be numbers, the labels 0 or 1."""
    try:
        scores, labels = (np.asarray(a, dtype=np.float64).reshape(-1) for a in (scores, labels))
    except (TypeError, ValueError):
        raise ContractError("AUROC scores and labels must be numbers") from None
    if scores.shape != labels.shape:
        raise ShapeError("scores and labels must have the same length")
    pos = labels == 1
    if not (pos | (labels == 0)).all():
        raise ContractError("AUROC labels must be 0 or 1")
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUROC needs both classes present")
    if not np.isfinite(scores).all():
        raise NumericError("AUROC scores must be finite")
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    boundaries = np.flatnonzero(np.diff(s_sorted) != 0)
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [scores.size]))
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    r_pos = ranks[pos].sum()
    return (r_pos - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def connected_components(mask: np.ndarray) -> list:
    """8-connected regions of a boolean mask as (n, 2) row/col index arrays,
    ordered by the row-major position of each region's first pixel."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got shape {mask.shape}")
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        return []
    coords = np.argwhere(labels)
    # a stable sort keeps each region's pixels in row-major order
    coords = coords[np.argsort(labels[coords[:, 0], coords[:, 1]], kind="stable")]
    return np.split(coords, np.cumsum(np.bincount(labels.reshape(-1))[1:-1]))


def region_overlap_curve(maps, masks, saturations=None):
    """Shared curve kernel. Returns (fprs, vals) at every distinct-score
    boundary, starting from the implicit (0, 0) point. ``vals`` is the mean
    over regions of min(overlap / saturation, 1); saturations default to 1,
    giving the plain per-region overlap."""
    if len(maps) != len(masks):
        raise ShapeError("one mask per map is required")
    if len(maps) == 0:
        raise ContractError("localization metrics need at least one map/mask pair")
    if saturations is None:
        saturations = [1.0] * len(maps)
    else:
        try:
            saturations = np.asarray(saturations, dtype=np.float64)
        except (TypeError, ValueError):
            raise ContractError("saturations must be numbers, one per map") from None
        if saturations.shape != (len(maps),):
            raise ShapeError("one saturation per map is required")
    flat_scores = []
    flat_region = []
    region_sizes = []
    region_sats = []
    for amap, mask, sat in zip(maps, masks, saturations):
        try:
            amap = np.asarray(amap, dtype=np.float64)
        except (TypeError, ValueError):
            raise ContractError("localization maps must be numbers") from None
        mask = np.asarray(mask, dtype=bool)
        if amap.shape != mask.shape:
            raise ShapeError(f"map {amap.shape} and mask {mask.shape} differ")
        if not (0.0 < sat <= 1.0):
            raise ContractError("saturation must be a region fraction in (0, 1]")
        if not np.isfinite(amap).all():
            raise NumericError("localization scores must be finite")
        region_id = np.full(mask.shape, -1, dtype=np.int64)
        for coords in connected_components(mask):
            region_id[coords[:, 0], coords[:, 1]] = len(region_sizes)
            region_sizes.append(len(coords))
            region_sats.append(float(sat))
        flat_scores.append(amap.reshape(-1))
        flat_region.append(region_id.reshape(-1))
    scores = np.concatenate(flat_scores)
    region = np.concatenate(flat_region)
    n_regions = len(region_sizes)
    if n_regions == 0:
        raise ContractError("localization metrics need at least one annotated region")
    n_neg = int((region == -1).sum())
    if n_neg == 0:
        raise ContractError("localization metrics need negative (normal) pixels")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_region = region[order]
    change = np.flatnonzero(np.diff(sorted_scores) != 0)
    bounds = np.concatenate((change, [scores.size - 1]))
    cum_fp = np.cumsum(sorted_region == -1)
    fprs = cum_fp[bounds] / n_neg
    vals = np.zeros(bounds.size, dtype=np.float64)
    positions = [np.flatnonzero(sorted_region == r) for r in range(n_regions)]
    for r in range(n_regions):
        tp = np.searchsorted(positions[r], bounds, side="right")
        sat_area = region_sizes[r] * region_sats[r]
        vals += np.minimum(tp / sat_area, 1.0)
    vals /= n_regions
    return np.concatenate(([0.0], fprs)), np.concatenate(([0.0], vals))


def _area_to_limit(fprs: np.ndarray, vals: np.ndarray, limit: float) -> float:
    """Trapezoid area under the piecewise-linear curve on [0, limit],
    normalized by the limit. Interpolates the crossing segment."""
    if not (0.0 < limit <= 1.0):
        raise ContractError("FPR limit must lie in (0, 1]")
    # fprs is non-decreasing from 0: the first k points lie at or below the
    # limit, and the segment from point k - 1 to point k crosses it
    k = int(np.searchsorted(fprs, limit, side="right"))
    f0, f1, v0, v1 = fprs[:k - 1], fprs[1:k], vals[:k - 1], vals[1:k]
    # cumsum adds left to right, like a running Python sum; np.sum would not
    area = float(np.cumsum((f1 - f0) * (v0 + v1) * 0.5)[-1]) if k > 1 else 0.0
    if k < fprs.size and fprs[k - 1] < limit:
        f0, f1, v0, v1 = fprs[k - 1], fprs[k], vals[k - 1], vals[k]
        v_lim = v0 + (v1 - v0) * (limit - f0) / (f1 - f0)
        area += (limit - f0) * (v0 + v_lim) * 0.5
    return area / limit


def au_pro(maps, masks, fpr_limit: float = ScoringConfig.fpr_limit) -> float:
    """Area under the per-region-overlap curve up to ``fpr_limit``."""
    fprs, vals = region_overlap_curve(maps, masks)
    return _area_to_limit(fprs, vals, fpr_limit)


def spro(maps, masks, saturations, fpr_limit: float = ScoringConfig.fpr_limit) -> float:
    """Saturated variant: each region only needs ``saturation`` of its area
    detected for full credit."""
    fprs, vals = region_overlap_curve(maps, masks, saturations)
    return _area_to_limit(fprs, vals, fpr_limit)


@dataclass
class EvalReport:
    image_auroc: float
    pixel_auroc: float
    au_pro: float
    spro: float
    per_scale: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def evaluate(model, samples, mode: str = ScoringConfig.mode,
             smooth_sigma: float = ScoringConfig.smooth_sigma,
             fuse_weight: float = ScoringConfig.fuse_weight,
             fpr_limit: float = ScoringConfig.fpr_limit) -> EvalReport:
    """Full test-set evaluation. ``samples`` need ``image``, ``mask``,
    ``label`` and ``saturation`` attributes; both classes must be present.
    The arguments are checked as ``ScoringConfig`` fields (``ContractError``)
    before any image is scored."""
    cfg = ScoringConfig(mode=mode, smooth_sigma=smooth_sigma, fuse_weight=fuse_weight,
                        fpr_limit=fpr_limit)
    if not samples:
        raise ContractError("evaluation needs at least one sample")
    labels = np.array([s.label for s in samples])
    if labels.min() == labels.max():
        raise ContractError("evaluation needs both normal and anomalous samples")
    results = [anomaly_map(model, s.image, mode=cfg.mode, smooth_sigma=cfg.smooth_sigma,
                           fuse_weight=cfg.fuse_weight) for s in samples]
    image_scores = [r.image_score for r in results]
    maps = [r.scores for r in results]
    masks = [np.asarray(s.mask, dtype=bool) for s in samples]
    sats = [s.saturation for s in samples]
    pixel_scores = np.concatenate([m.reshape(-1) for m in maps])
    pixel_labels = np.concatenate([m.reshape(-1) for m in masks]).astype(np.int64)
    report = EvalReport(
        image_auroc=float(auroc(image_scores, labels)),
        pixel_auroc=float(auroc(pixel_scores, pixel_labels)),
        au_pro=float(au_pro(maps, masks, cfg.fpr_limit)),
        spro=float(spro(maps, masks, sats, cfg.fpr_limit)),
    )
    n_scales = len(results[0].per_scale)
    for k in range(n_scales):
        scale_maps = [r.per_scale[k] for r in results]
        scale_scores = [float(m.max()) for m in scale_maps]
        scale_pixels = np.concatenate([m.reshape(-1) for m in scale_maps])
        report.per_scale[f"scale_{k}"] = {
            "image_auroc": float(auroc(scale_scores, labels)),
            "pixel_auroc": float(auroc(scale_pixels, pixel_labels)),
        }
    return report
