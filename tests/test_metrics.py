"""Detection/localization metrics against brute-force oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import assert_same_bits
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import dualflow
from dualflow.errors import ContractError, NumericError, ShapeError
from dualflow.metrics import (_area_to_limit, au_pro, auroc, connected_components,
                              region_overlap_curve, spro)
from dualflow.selftest import (area_bruteforce, au_pro_bruteforce,
                               auroc_bruteforce, connected_components_bfs,
                               region_curve_bruteforce, spro_bruteforce)

# ---------------------------------------------------------------------------
# AUROC


def test_auroc_hand_examples():
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.1, 0.9], [1, 0]) == 0.0
    assert auroc([0.5, 0.5], [1, 0]) == 0.5
    assert auroc([0.8, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5
    assert auroc([0.1, 0.9], [False, True]) == 1.0


def test_auroc_errors():
    with pytest.raises(ContractError):
        auroc([1.0, 2.0], [1, 1])
    with pytest.raises(ContractError):
        auroc([1.0, 2.0], [0, 0])
    with pytest.raises(ShapeError):
        auroc([1.0, 2.0], [0, 1, 1])
    with pytest.raises(NumericError):
        auroc([np.nan, 0.2, 0.5, np.inf], [1, 0, 1, 0])


@pytest.mark.parametrize("scores, labels", [
    ([0.1, "a"], [0, 1]),
    ([0.1, 0.2], [0, "b"]),
    ([0.1, [0.2]], [0, 1]),
    ([0.1, {}], [0, 1]),
])
def test_auroc_rejects_non_numeric_input(scores, labels):
    """AUROC, and AU-PRO and sPRO on a map of the two rows, which holds a
    non-number in every case: the maps once failed as a raw ValueError."""
    with pytest.raises(ContractError, match="must be numbers"):
        auroc(scores, labels)
    amap, mask = [scores, labels], [[False, True], [False, False]]
    with pytest.raises(ContractError, match="must be numbers"):
        au_pro([amap], [mask])
    with pytest.raises(ContractError, match="must be numbers"):
        spro([amap], [mask], [0.5])


@pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1], [0, 0.5, 1], [0, np.nan, 1]])
def test_auroc_rejects_labels_other_than_0_and_1(labels):
    """A label 2 was counted as a negative, and 0.5 or NaN as well."""
    with pytest.raises(ContractError, match="0 or 1"):
        auroc([0.1, 0.2, 0.3], labels)


def test_auroc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        # dyadic rationals: rank arithmetic stays exact, ties happen often
        scores = rng.integers(0, 8, size=n) / 8.0
        assert auroc(scores, labels) == auroc_bruteforce(scores, labels)
    # pixel-sized inputs: float32-rounded scores on a coarse grid, many ties
    for n_levels in (7, 60, 400):
        scores = (rng.integers(0, n_levels, size=500) * 0.1).astype(np.float32)
        labels = (rng.random(500) < 0.3).astype(int)
        assert auroc(scores, labels) == auroc_bruteforce(scores, labels)


@given(st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                min_size=2, max_size=30).filter(
                    lambda xs: len({b for _, b in xs}) == 2))
@settings(max_examples=200, deadline=None)
def test_auroc_invariances(pairs):
    scores = np.array([s for s, _ in pairs], dtype=float) / 4.0
    labels = np.array([int(b) for _, b in pairs])
    base = auroc(scores, labels)
    # strictly increasing transforms leave the ranking unchanged
    assert auroc(3.0 * scores + 2.0, labels) == base
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    # negating scores or flipping labels complements the statistic
    assert auroc(-scores, labels) == pytest.approx(1.0 - base, abs=1e-12)
    assert auroc(scores, 1 - labels) == pytest.approx(1.0 - base, abs=1e-12)
    assert 0.0 <= base <= 1.0


# ---------------------------------------------------------------------------
# connected components


def test_components_basic_shapes():
    mask = np.array([[1, 1, 0, 0],
                     [0, 1, 0, 1],
                     [0, 0, 0, 1],
                     [1, 0, 0, 0]], dtype=bool)
    comps = connected_components(mask)
    # 8-connectivity joins diagonals: bottom-left pixel touches nothing
    assert len(comps) == 3
    sizes = [len(c) for c in comps]
    assert sorted(sizes) == [1, 2, 3]
    # row-major order of first pixels
    firsts = [min(map(tuple, c)) for c in comps]
    assert firsts == sorted(firsts)


def test_components_diagonal_is_connected():
    mask = np.eye(5, dtype=bool)
    assert len(connected_components(mask)) == 1


def test_components_empty():
    assert connected_components(np.zeros((3, 3), dtype=bool)) == []


def test_components_match_bfs_and_scipy():
    rng = np.random.default_rng(1)
    eight = np.ones((3, 3), dtype=int)
    for _ in range(25):
        mask = rng.random((10, 12)) < 0.35
        got = connected_components(mask)
        want = connected_components_bfs(mask)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(sorted(map(tuple, g))),
                                  np.asarray(sorted(map(tuple, w))))
        n_scipy = ndimage.label(mask, structure=eight)[1]
        assert len(got) == n_scipy
    for density in (0.1, 0.4, 0.6):
        mask = rng.random((64, 64)) < density
        got = connected_components(mask)
        want = connected_components_bfs(mask)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# region overlap curve and areas


def _random_instance(rng, n=8, with_ties=True):
    n_img = int(rng.integers(1, 4))
    maps, masks = [], []
    for _ in range(n_img):
        raw = rng.integers(0, 6, size=(n, n)) if with_ties else rng.random((n, n))
        maps.append(np.asarray(raw, dtype=np.float64))
        masks.append(rng.random((n, n)) < 0.3)
    if not any(m.any() for m in masks):
        masks[0][n // 2, n // 2] = True
    if all(m.all() for m in masks):
        masks[0][0, 0] = False
    return maps, masks


def test_region_curve_matches_exhaustive_sweep():
    rng = np.random.default_rng(2)
    for trial in range(8):
        maps, masks = _random_instance(rng)
        sats = None if trial % 2 else [
            float(rng.uniform(0.3, 1.0)) for _ in masks]
        fprs, vals = region_overlap_curve(maps, masks, saturations=sats)
        fprs_o, vals_o = region_curve_bruteforce(maps, masks, saturations=sats)
        np.testing.assert_array_equal(fprs, fprs_o)
        np.testing.assert_array_equal(vals, vals_o)


def test_region_curve_endpoints_and_monotone_fpr():
    rng = np.random.default_rng(3)
    maps, masks = _random_instance(rng)
    fprs, vals = region_overlap_curve(maps, masks)
    assert fprs[0] == 0.0 and vals[0] == 0.0
    assert fprs[-1] == 1.0 and vals[-1] == 1.0
    assert (np.diff(fprs) >= 0).all()
    assert ((0.0 <= vals) & (vals <= 1.0)).all()


def test_au_pro_perfect_map_is_one():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:5, 2:5] = True
    heat = mask.astype(float)
    assert au_pro([heat], [mask], fpr_limit=0.3) == 1.0
    assert au_pro([heat], [mask], fpr_limit=1.0) == 1.0


def test_au_pro_constant_map_is_chance():
    # A constant map yields the single segment (0, 0) -> (1, 1), i.e. the
    # diagonal val = fpr; its normalized area up to a limit L is L / 2.
    mask = np.zeros((6, 6), dtype=bool)
    mask[1:3, 1:3] = True
    heat = np.ones((6, 6))
    assert au_pro([heat], [mask], fpr_limit=0.3) == pytest.approx(0.15)
    assert au_pro([heat], [mask], fpr_limit=1.0) == pytest.approx(0.5)


def test_au_pro_and_spro_match_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(6):
        maps, masks = _random_instance(rng)
        for limit in (0.3, 1.0):
            assert au_pro(maps, masks, fpr_limit=limit) == \
                au_pro_bruteforce(maps, masks, fpr_limit=limit)
        sats = [float(rng.uniform(0.25, 1.0)) for _ in masks]
        assert spro(maps, masks, sats, fpr_limit=0.3) == \
            spro_bruteforce(maps, masks, sats, fpr_limit=0.3)


def test_spro_with_unit_saturation_reduces_to_au_pro():
    rng = np.random.default_rng(5)
    maps, masks = _random_instance(rng)
    sats = [1.0] * len(masks)
    assert spro(maps, masks, sats, fpr_limit=0.3) == \
        au_pro(maps, masks, fpr_limit=0.3)


def test_spro_saturation_clips_at_one():
    # Saturation fraction 0.5: covering half the region already counts full.
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0:4] = True
    heat = np.zeros((4, 4))
    heat[0, 0:2] = 1.0  # covers half the region, no false positives
    sat = [0.5]
    fprs, vals = region_overlap_curve([heat], [mask], saturations=sat)
    assert vals.max() == 1.0
    assert spro([heat], [mask], sat, fpr_limit=0.3) == 1.0
    # without saturation the same split earns at most half credit at FPR 0
    fprs_p, vals_p = region_overlap_curve([heat], [mask])
    assert vals_p[fprs_p == 0.0].max() == 0.5


def test_saturation_outside_unit_interval_rejected():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    heat = np.ones((4, 4))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ContractError):
            spro([heat], [mask], [bad])


def test_spro_rejects_saturation_count_mismatch():
    # the second pair misses its region at every threshold below FPR 1, so
    # a short saturation list that dropped it would read 1.0
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    hit = mask.astype(float)
    miss = 1.0 - hit
    maps, masks = [hit, miss], [mask, mask]
    assert spro(maps[:1], masks[:1], [1.0]) == 1.0
    assert spro(maps, masks, [1.0, 1.0]) < 1.0
    for sats in ([1.0], [1.0, 1.0, 1.0], 1.0, np.ones((2, 1))):
        with pytest.raises(ShapeError, match="one saturation per map"):
            spro(maps, masks, sats)


def test_spro_rejects_non_numeric_saturations():
    """A saturation that is not a number fails as a contract error, not as
    numpy's or Python's own: a string, None (read as NaN, which is no
    region fraction) and a ragged list."""
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    for sats in (["a"], [None]):
        with pytest.raises(ContractError):
            spro([mask.astype(float)], [mask], sats)
    with pytest.raises(ContractError, match="numbers, one per map"):
        spro([mask.astype(float)] * 2, [mask] * 2, [1.0, [1.0]])


def test_area_to_limit_matches_loop_oracle_bit_for_bit():
    """The integral equals the segment-by-segment loop of the oracle to the
    bit: limits on a curve point, between points and at 1.0, curves with
    repeated FPRs, and the region curves of random instances."""
    rng = np.random.default_rng(11)
    curves = []
    for _ in range(200):
        n = int(rng.integers(1, 40))
        steps = rng.choice([0.0, 1.0], size=n, p=[0.3, 0.7]) * rng.random(n)
        fprs = np.concatenate(([0.0], np.cumsum(steps)))
        fprs /= max(fprs[-1], 1.0)
        fprs[-1] = 1.0
        curves.append((fprs, np.concatenate(([0.0], rng.random(n)))))
    for _ in range(20):
        curves.append(region_overlap_curve(*_random_instance(rng)))
    assert sum((np.diff(fprs) == 0).any() for fprs, _ in curves) > 50
    for fprs, vals in curves:
        j = int(rng.integers(1, fprs.size))
        limits = [1.0, float(rng.uniform(1e-3, 1.0)), float(fprs[j]),
                  float((fprs[j - 1] + fprs[j]) / 2)]
        for limit in limits:
            if limit > 0.0:
                assert_same_bits(np.asarray(_area_to_limit(fprs, vals, limit)),
                                 np.asarray(area_bruteforce(fprs, vals, limit)))


def test_area_integration_interpolates_at_limit():
    fprs = np.array([0.0, 0.2, 0.4])
    vals = np.array([0.0, 0.4, 0.8])
    # straight line val = 2 * fpr: normalized area below limit L is 0.5 * 2L/L... = L
    assert _area_to_limit(fprs, vals, 0.3) == pytest.approx(0.3)
    assert _area_to_limit(fprs, vals, 0.4) == pytest.approx(0.4)
    assert area_bruteforce(fprs, vals, 0.3) == pytest.approx(0.3)


def test_metric_input_validation():
    with pytest.raises(ContractError):
        region_overlap_curve([], [])
    with pytest.raises(ShapeError):
        region_overlap_curve([np.zeros((4, 4))], [np.zeros((3, 3), dtype=bool)])
    with pytest.raises(ContractError):
        au_pro([np.zeros((4, 4))], [np.zeros((4, 4), dtype=bool)])
    with pytest.raises(ContractError):
        # all-anomalous: no negatives anywhere, FPR undefined
        au_pro([np.zeros((2, 2))], [np.ones((2, 2), dtype=bool)])
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    with pytest.raises(NumericError):
        au_pro([np.full((4, 4), np.nan)], [mask])


def test_import_leaves_scipy_stats_unloaded():
    """Importing scipy.stats adds about 30 MB of resident memory, so the
    package, its CLI included, keeps its rank code on numpy."""
    src = os.path.dirname(os.path.dirname(dualflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dualflow, dualflow.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
