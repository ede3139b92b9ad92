"""Synthetic defect benchmark: determinism, defect structure, file formats."""

import dataclasses
import hashlib
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import replace_with_symlink

from dualflow import data
from dualflow.data import (ANOMALY_KINDS, SWAP_SATURATION, TEXTURES,
                           DatasetSpec, apply_anomaly, generate, load,
                           make_normal, read_pgm, read_ppm, write_pgm,
                           write_pgm16, write_ppm)
from dualflow.errors import ContractError, DataError, NumericError

SMALL = DatasetSpec(image_size=64, n_train=3, n_test_normal=2,
                    n_test_anomalous=3, seed=5)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# image synthesis


def test_normal_images_in_range_and_shaped():
    for texture in TEXTURES:
        spec = dataclasses.replace(SMALL, texture=texture)
        img = make_normal(spec, _rng())
        assert img.shape == (64, 64, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_normal_images_vary_with_rng_but_share_layout():
    a = make_normal(SMALL, _rng(1))
    b = make_normal(SMALL, _rng(2))
    assert not np.array_equal(a, b)
    # same dataset-level texture phase: images correlate strongly
    ca = a.mean(axis=-1).ravel() - a.mean()
    cb = b.mean(axis=-1).ravel() - b.mean()
    corr = (ca * cb).sum() / np.sqrt((ca ** 2).sum() * (cb ** 2).sum())
    assert corr > 0.5


def test_spec_validation():
    with pytest.raises(ContractError):
        DatasetSpec(texture="plaid")
    with pytest.raises(ContractError):
        DatasetSpec(anomaly_kinds=("patch", "dent"))
    with pytest.raises(ContractError):
        DatasetSpec(anomaly_kinds=())
    with pytest.raises(ContractError):
        DatasetSpec(image_size=16)
    with pytest.raises(ContractError):
        DatasetSpec(n_train=0)


# ---------------------------------------------------------------------------
# defect injection


def test_unknown_kind_rejected():
    img = make_normal(SMALL, _rng())
    with pytest.raises(ContractError):
        apply_anomaly(img, "dent", _rng())


def test_every_kind_produces_nonempty_mask_inside_frame():
    img = make_normal(SMALL, _rng())
    for kind in ANOMALY_KINDS:
        out, mask, sat = apply_anomaly(img, kind, _rng(3))
        assert mask.any()
        assert not mask.all()
        assert out.shape == img.shape and mask.shape == img.shape[:2]
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert 0.0 < sat <= 1.0


def test_defects_change_pixels_on_mask_only_approximately():
    # soft-edged defects may spill a halo ring past the binary mask, but the
    # image must be altered on the mask and untouched far away from it
    img = make_normal(SMALL, _rng())
    for kind in ("patch", "scratch"):
        out, mask, _ = apply_anomaly(img, kind, _rng(4))
        diff = np.abs(out - img).sum(axis=-1)
        assert diff[mask].mean() > 1e-3
        from scipy.ndimage import binary_dilation
        far = ~binary_dilation(mask, iterations=6)
        assert diff[far].max() < 1e-9


def test_patch_changes_mean_inside_mask_more_than_outside():
    img = make_normal(SMALL, _rng())
    out, mask, _ = apply_anomaly(img, "patch", _rng(5))
    diff = np.abs(out - img).sum(axis=-1)
    assert diff[mask].mean() > 10 * diff[~mask].mean()


def test_swap_preserves_histogram_exactly():
    img = make_normal(SMALL, _rng())
    out, mask, sat = apply_anomaly(img, "swap", _rng(6))
    assert sat == SWAP_SATURATION
    np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(img.ravel()))
    assert not np.array_equal(out, img)
    # mask covers exactly the two exchanged quadrants
    assert mask.sum() == 2 * (img.shape[0] // 2) ** 2


def _polyline_band_at_once(n, rng, thickness):
    """``data._polyline_band`` as it was: all four segments' disks in one
    (disks, n, n) test."""
    n_way = 5
    ys = np.linspace(rng.uniform(6, n - 6), rng.uniform(6, n - 6), n_way)
    xs = np.linspace(4, n - 4, n_way)
    ys += rng.normal(0.0, 2.0, size=n_way)
    if rng.random() < 0.5:
        ys, xs = xs, ys
    steps = 3 * n
    cy, cx = (np.concatenate([np.linspace(pts[k], pts[k + 1], steps)[:: steps // 24]
                              for k in range(n_way - 1)]) for pts in (ys, xs))
    dy2 = (np.arange(n)[:, None] - cy[:, None, None]) ** 2
    dx2 = (np.arange(n) - cx[:, None, None]) ** 2
    return (dy2 + dx2 <= (thickness / 2.0) ** 2).any(axis=0)


def test_polyline_band_by_segment_equals_all_disks_at_once():
    for n in (32, 48, 64, 100, 128):
        for seed in range(10):
            got = data._polyline_band(n, _rng(seed), 0.16 * n)
            want = _polyline_band_at_once(n, _rng(seed), 0.16 * n)
            assert got.dtype == bool and np.array_equal(got, want), (n, seed)


def test_polyline_band_temporary_is_one_segment():
    """At n = 128 the four segments' disks at once took a 12 MiB float64
    temporary; one segment's take 3 MiB."""
    tracemalloc.start()
    try:
        data._polyline_band(128, _rng(3), 0.16 * 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_swap_saturation_below_one():
    assert 0.0 < SWAP_SATURATION < 1.0


# ---------------------------------------------------------------------------
# netpbm io


def test_ppm_roundtrip_is_exact_in_bytes(tmp_path):
    img = make_normal(SMALL, _rng())
    p = tmp_path / "x.ppm"
    write_ppm(p, img)
    back = read_ppm(p)
    # quantized to 8 bits on write and read back as the raster; writing the
    # raster is lossless
    assert back.dtype == np.uint8 and back.shape == img.shape
    assert np.abs(back / 255.0 - img).max() <= 0.5 / 255 + 1e-12
    write_ppm(tmp_path / "y.ppm", back)
    assert (tmp_path / "y.ppm").read_bytes() == p.read_bytes()


def test_write_ppm_keeps_a_raster_and_image_values_scale_it(tmp_path):
    raster = np.array([[[0, 1, 2], [127, 128, 254]], [[255, 9, 0], [3, 200, 255]]],
                      dtype=np.uint8)
    write_ppm(tmp_path / "r.ppm", raster)
    assert (tmp_path / "r.ppm").read_bytes() == b"P6\n2 2\n255\n" + raster.tobytes()
    assert np.array_equal(read_ppm(tmp_path / "r.ppm"), raster)
    values = data.image_values(raster)
    assert values.dtype == np.float64 and np.array_equal(values, raster.astype(float) / 255.0)
    floats = raster / 255.0
    assert data.image_values(floats) is floats


@pytest.mark.filterwarnings("error")
def test_write_ppm_rejects_non_finite_and_non_uint8_integer_images(tmp_path):
    """A NaN was once written as byte 0 with only numpy's cast warning, and
    +-inf clipped: now both fail before the file is opened. An integer image
    other than uint8 fails by ``image_values``' dtype rule."""
    path = tmp_path / "bad.ppm"
    for special in (np.nan, np.inf, -np.inf):
        for dtype in (np.float32, np.float64):
            image = np.full((4, 4, 3), 0.5, dtype=dtype)
            image[1, 2, 0] = special
            with pytest.raises(NumericError, match="finite"):
                write_ppm(path, image)
            assert not path.exists()
    for dtype in (np.int64, np.uint16, np.int8, np.bool_):
        with pytest.raises(ContractError, match="must be uint8 or floating point"):
            write_ppm(path, np.ones((4, 4, 3), dtype=dtype))
        with pytest.raises(ContractError, match="must be uint8 or floating point"):
            data.image_values(np.ones((4, 4, 3), dtype=dtype))
        assert not path.exists()


def test_pgm_roundtrip(tmp_path):
    mask = _rng(7).random((9, 11)) < 0.4
    p = tmp_path / "m.pgm"
    write_pgm(p, mask)
    np.testing.assert_array_equal(read_pgm(p), mask)


def test_pgm16_header_and_payload(tmp_path):
    vals = np.arange(12, dtype=np.uint16).reshape(3, 4) * 999
    p = tmp_path / "h.pgm"
    write_pgm16(p, vals, comment="raw range [0.0, 1.0]")
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n# raw range [0.0, 1.0]\n4 3\n65535\n")
    payload = blob.split(b"65535\n", 1)[1]
    np.testing.assert_array_equal(
        np.frombuffer(payload, dtype=">u2").reshape(3, 4), vals)


def test_read_ppm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n2 2\n255\nnot binary")
    with pytest.raises(DataError) as err:
        read_ppm(p)
    assert "bad.ppm" in str(err.value)
    q = tmp_path / "short.ppm"
    q.write_bytes(b"P6\n4 4\n255\n\x00\x01")
    with pytest.raises(DataError) as err:
        read_ppm(q)
    assert "short.ppm" in str(err.value)


@given(magic=st.sampled_from([b"P5", b"P6", b"P3", b""]),
       header=st.binary(max_size=32)
       | st.text(alphabet=" \n\t#-+_0123456789ab", max_size=32).map(str.encode),
       payload=st.binary(max_size=64))
@example(magic=b"P6", header=b"\nab 4\n255\n", payload=b"")
@example(magic=b"P6", header=b"\n-1 -1\n255\n", payload=b"")
@example(magic=b"P5", header=b"\n99999999 99999999\n255\n", payload=b"")
@settings(max_examples=300, deadline=None)
def test_netpbm_readers_fail_only_as_data_error(tmp_path_factory, magic, header, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(magic + header + payload)
    for read in (read_ppm, read_pgm):
        try:
            out = read(path)
        except DataError:
            continue
        assert out.size > 0 and out.shape[0] >= 1 and out.shape[1] >= 1


# ---------------------------------------------------------------------------
# dataset generation and loading


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = generate(SMALL, root)
    return root, manifest


def test_generate_is_byte_deterministic(dataset, tmp_path):
    root, manifest = dataset
    again = tmp_path / "ds2"
    generate(SMALL, again)
    for rel in sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()):
        assert (again / rel).read_bytes() == (root / rel).read_bytes(), rel


def _tree_digest(root):
    """sha256 over each file's relative path and sha256, in path order."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        digest.update(rel.encode() + b"\0" + hashlib.sha256((root / rel).read_bytes()).digest())
    return digest.hexdigest()


# The bytes of the default tree and of one small tree per texture (every
# anomaly kind once). Reruns of one tree cannot tell a refactor that moves
# the bytes; these digests can.
TREE_DIGESTS = {
    "default": "ce4acbaa672bdbfb37ca49b9b3a21b996d0683b57ae5b632113f2138dc9a15b5",
    "stripes": "8a7f8fe89c6ae0748236fb7f41954609a9493475b7a08068c51b828e134ea66d",
    "checker": "23137c33aa5de8fbf2d3fbad7eaf192e2552f841c429ea3776f3239f5b1b3f9b",
    "blobs": "272a5ea1871c9bb744aeccee4be951fbb63472318b561451812334641021c28d",
}


@pytest.mark.parametrize("name", TREE_DIGESTS)
def test_generated_bytes_are_pinned(tmp_path, name):
    spec = DatasetSpec() if name == "default" else DatasetSpec(
        texture=name, n_train=2, n_test_normal=1, n_test_anomalous=3, seed=7)
    generate(spec, tmp_path)
    assert _tree_digest(tmp_path) == TREE_DIGESTS[name]


def test_default_dataset_loads_as_8_bit_rasters(tmp_path):
    generate(DatasetSpec(), tmp_path)
    samples = load(tmp_path)
    assert len(samples) == 232
    assert all(s.image.dtype == np.uint8 and s.image.shape == (64, 64, 3) for s in samples)
    assert sum(s.image.nbytes for s in samples) == 232 * 12_288


def test_manifest_structure(dataset):
    root, manifest = dataset
    rows = [r.split("\t") for r in
            open(manifest, encoding="ascii").read().strip().split("\n")]
    assert len(rows) == SMALL.n_train + SMALL.n_test_normal + SMALL.n_test_anomalous
    assert all(len(r) == 4 for r in rows)
    labels = [int(r[1]) for r in rows]
    assert labels == [0] * (SMALL.n_train + SMALL.n_test_normal) + [1] * SMALL.n_test_anomalous
    for r in rows:
        assert (r[2] == "-") == (r[1] == "0")


def test_load_matches_generated_arrays(dataset):
    root, _ = dataset
    samples = load(root)
    assert len(samples) == 8
    train = data.train_split(samples)
    test = data.test_split(samples)
    assert len(train) == 3 and len(test) == 5
    assert all(s.label == 0 for s in train)
    assert all(not s.mask.any() for s in samples if s.label == 0)
    assert all(s.mask.any() for s in samples if s.label == 1)
    assert all(0.0 < s.saturation <= 1.0 for s in samples)
    # anomaly kinds rotate: patch, scratch, swap - the swap sample carries
    # the reduced saturation
    sats = [s.saturation for s in test if s.label == 1]
    assert sats == [1.0, 1.0, SWAP_SATURATION]


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load(tmp_path)
    (tmp_path / "manifest.tsv").mkdir()
    with pytest.raises(DataError, match="cannot read manifest"):
        load(tmp_path)


def _write_manifest(root, text):
    (root / "manifest.tsv").write_text(text, encoding="ascii")


def test_load_rejects_malformed_rows(dataset, tmp_path):
    root, _ = dataset
    copied = ("train/0000.ppm", "test/0002.ppm")
    # from a dataset directory below tmp_path, through a test/ prefix, to a
    # file of another dataset
    outside = "test/../" + os.path.relpath(root / "test" / "0002.ppm", tmp_path / "bad0")
    cases = [
        "train/0000.ppm\t0\t-",                       # missing field
        "train/0000.ppm\tx\t-\t1.0",                  # bad label
        "train/0000.ppm\t2\t-\t1.0",                  # label not binary
        "train/0000.ppm\t1\t-\t1.0",                  # anomalous in train
        "train/0000.ppm\t0\tmasks/zz.pgm\t1.0",       # normal with mask
        "elsewhere/0000.ppm\t0\t-\t1.0",              # bad split prefix
        "train/0000.ppm\t0\t-\tnan",                 # saturation not finite
        "train/0000.ppm\t0\t-\t7",                   # saturation above 1
        "train/0000.ppm\t0\t-\t0",                   # saturation not positive
        "train/0000.ppm\t0\t-\t1.0\0",               # NUL byte
        "train/../train/0000.ppm\t0\t-\t1.0",         # '..' segment
        "train//0000.ppm\t0\t-\t1.0",                 # empty segment
        "train/0000.ppm/\t0\t-\t1.0",                 # trailing '/'
        "train\\0000.ppm\t0\t-\t1.0",                # backslash
        f"{root}/train/0000.ppm\t0\t-\t1.0",          # absolute image path
        f"{outside}\t0\t-\t1.0",                      # image outside the dataset
        f"test/0002.ppm\t1\t{root}/masks/0002.pgm\t1.0",  # absolute mask path
        "test/0002.ppm\t1\tmasks/../../x.pgm\t1.0",    # mask outside the dataset
    ]
    for i, row in enumerate(cases):
        ds = tmp_path / f"bad{i}"
        for rel in copied:
            (ds / rel).parent.mkdir(parents=True, exist_ok=True)
            (ds / rel).write_bytes((root / rel).read_bytes())
        _write_manifest(ds, row + "\n")
        with pytest.raises(DataError) as err:
            load(ds)
        assert "manifest.tsv:1" in str(err.value)


def test_load_rejects_symlinks_leaving_the_dataset(dataset, tmp_path):
    root, _ = dataset
    outside = tmp_path / "outside"
    shutil.copytree(root, outside)
    cases = {"file": [("train/0000.ppm", outside / "train" / "0000.ppm")],
             "dir": [("test", outside / "test")],
             "mask": [("masks/0004.pgm", outside / "masks" / "0004.pgm")],
             # train/0000.ppm -> 0001.ppm -> outside
             "chain": [("train/0000.ppm", "0001.ppm"),
                       ("train/0001.ppm", outside / "train" / "0001.ppm")]}
    for name, links in cases.items():
        ds = tmp_path / name
        shutil.copytree(root, ds)
        for rel, target in links:
            replace_with_symlink(ds / rel, target)
        with pytest.raises(DataError, match="outside the dataset"):
            load(ds)
    # a link that stays inside the dataset still loads
    inside = tmp_path / "inside"
    shutil.copytree(root, inside)
    replace_with_symlink(inside / "train" / "0001.ppm", "0000.ppm")
    samples = load(inside)
    assert np.array_equal(samples[1].image, samples[0].image)


@pytest.fixture(scope="module")
def fuzz_root(dataset, tmp_path_factory):
    """A copy of the small dataset whose manifest each example overwrites."""
    root = tmp_path_factory.mktemp("fuzz") / "ds"
    shutil.copytree(dataset[0], root)
    return root


# fields that reach every check of the loader, mixed with arbitrary short text
_FIELD = (st.sampled_from(["train/0000.ppm", "test/0001.ppm", "test/0004.ppm",
                           "masks/0004.pgm", "masks/0002.pgm", "train/", "-", "0", "1",
                           "test/../test/0001.ppm", "/masks/0004.pgm", "masks//0004.pgm",
                           "test\\0001.ppm",
                           "1.0", "0.25", "nan", "inf", "7", "-1", ""])
          | st.text(max_size=6))
_ROWS = st.lists(st.lists(_FIELD, min_size=1, max_size=5).map("\t".join),
                 max_size=4).map(lambda rows: "\n".join(rows).encode("utf-8"))


@given(manifest=st.binary(max_size=96) | _ROWS)
@example(manifest=b"train/0000.ppm\t0\t-\t1.0\xe9\n")
@example(manifest=b"test/0004.ppm\t1\tmasks/0004.pgm\tnan\n")
@example(manifest=b"test/0004.ppm\t1\tmasks/0004.pgm\t7\n")
@example(manifest=b"train/0000.ppm\t0\t-\t0\n")
@settings(max_examples=300, deadline=None)
def test_manifest_loader_fails_only_as_data_error(fuzz_root, manifest):
    (fuzz_root / "manifest.tsv").write_bytes(manifest)
    try:
        samples = load(fuzz_root)
    except DataError:
        return
    for s in samples:
        assert s.label in (0, 1) and 0.0 < s.saturation <= 1.0
        assert s.mask.shape == s.image.shape[:2] and s.mask.any() == bool(s.label)
        assert ".." not in s.path.split("/") and "\\" not in s.path


def test_load_rejects_corrupt_image(dataset, tmp_path):
    root, _ = dataset
    ds = tmp_path / "corrupt"
    ds.mkdir()
    (ds / "train").mkdir()
    (ds / "train" / "0000.ppm").write_bytes(b"P6\n4 4\n255\nxx")
    _write_manifest(ds, "train/0000.ppm\t0\t-\t1.0\n")
    with pytest.raises(DataError) as err:
        load(ds)
    assert "0000.ppm" in str(err.value)
