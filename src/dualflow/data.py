"""Synthetic defect benchmark.

Normal images are a narrow textured family: a per-dataset base pattern
(stripes, checker, or smooth blobs) with small per-sample jitter, laid over a
fixed position-dependent color gradient. The gradient anchors appearance to
position, which is what makes the quadrant-swap anomaly (locally normal
texture in the wrong place) detectable at all. Defects:

  patch    soft-edged square re-shaded with mild contrast, mask = square
  scratch  soft-edged polyline stroke blended at partial opacity in a dark
           or light tone
  swap     two image quadrants exchanged; the pixel histogram is untouched
           and the mask covers both quadrants (saturation 0.25: detecting a
           quarter of the swapped area counts as full localization)

Defect edges are antialiased (alpha compositing through a blurred stencil)
and contrasts kept moderate: sharp saturated defects blow every nearby
feature cell to an undifferentiated maximum score, which destroys pixel-level
ranking, while soft moderate defects stay in the range where scores still
order pixels by defect coverage. Strokes and squares are wide relative to
the score-map smoothing radius so masks stay resolvable after smoothing.

Images are binary PPM (P6), masks binary PGM (P5). The manifest is TSV:
``path<TAB>label<TAB>mask_path<TAB>saturation`` with ``-`` for missing
masks. Generation is pure: spec in, byte-identical tree out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ContractError, DataError, ShapeError, check_field_types

TEXTURES = ("stripes", "checker", "blobs")
ANOMALY_KINDS = ("patch", "scratch", "swap")
SWAP_SATURATION = 0.25


@dataclass(frozen=True)
class DatasetSpec:
    texture: str = "stripes"
    image_size: int = 64
    n_train: int = 192
    n_test_normal: int = 16
    n_test_anomalous: int = 24
    anomaly_kinds: tuple[str, ...] = ANOMALY_KINDS
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.texture not in TEXTURES:
            raise ContractError(f"texture must be one of {TEXTURES}, got {self.texture!r}")
        bad = [k for k in self.anomaly_kinds if k not in ANOMALY_KINDS]
        if bad or not self.anomaly_kinds:
            raise ContractError(f"anomaly kinds must be drawn from {ANOMALY_KINDS}")
        if self.image_size < 32:
            raise ContractError("image_size must be at least 32")
        if min(self.n_train, self.n_test_normal, self.n_test_anomalous) < 1:
            raise ContractError("all split sizes must be positive")
        if self.seed < 0:
            raise ContractError("seed must be non-negative")


@dataclass
class Sample:
    image: np.ndarray        # (H, W, 3) uint8 raster as read; see image_values
    mask: np.ndarray         # (H, W) bool
    label: int               # 1 = anomalous
    saturation: float
    path: str
    split: str               # "train" or "test"


# ---------------------------------------------------------------------------
# image synthesis


def _dataset_params(spec: DatasetSpec) -> dict:
    """Per-dataset constants drawn once from the dataset seed."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0,)))
    theta = rng.uniform(0.3, 1.2)
    return {
        "theta": theta,
        "freq": 3.0 + rng.uniform(0.0, 1.0),
        "grad_dir": rng.uniform(0.0, 2 * np.pi),
        "channel_amp": np.array([0.20, 0.16, 0.12]),
        "grad_amp": np.array([0.22, -0.18, 0.15]),
        "offsets": np.array([0.0, 0.04, -0.04]),
    }


def _sample_rng(spec: DatasetSpec, split_code: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                        spawn_key=(1, split_code, index)))


def make_normal(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """One normal image: jittered texture plus the fixed location gradient."""
    n = spec.image_size
    params = _dataset_params(spec)
    yy, xx = np.mgrid[0:n, 0:n] / n
    phase = rng.uniform(0.0, 0.15)
    amp_jitter = rng.uniform(0.85, 1.0)
    if spec.texture == "stripes":
        coord = np.cos(params["theta"]) * xx + np.sin(params["theta"]) * yy
        pattern = np.sin(2 * np.pi * (params["freq"] * coord + phase))
    elif spec.texture == "checker":
        phase2 = rng.uniform(0.0, 0.15)
        pattern = (np.sin(2 * np.pi * (params["freq"] * xx + phase))
                   * np.sin(2 * np.pi * (params["freq"] * yy + phase2)))
    else:
        noise = rng.normal(size=(n, n))
        field = gaussian_filter(noise, sigma=n / 12.0, mode="wrap")
        pattern = field / max(np.abs(field).max(), 1e-9)
    grad = (np.cos(params["grad_dir"]) * (xx - 0.5)
            + np.sin(params["grad_dir"]) * (yy - 0.5))
    # channels first, then one copy to (n, n, 3): numpy runs a broadcast over
    # a trailing axis of 3 several times slower
    off, amp, gamp = (params[k][:, None, None] for k in ("offsets", "channel_amp", "grad_amp"))
    img = (0.5 + off + amp * amp_jitter * pattern + gamp * grad).transpose(1, 2, 0).copy()
    # The noise floor is substantial on purpose: reconstruction error cannot
    # drop below it on normal images (noise is unpredictable), while a density
    # model simply absorbs it as in-distribution variance.
    img += rng.normal(0.0, 0.05, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _polyline_band(n: int, rng: np.random.Generator, thickness: float) -> np.ndarray:
    """Boolean band of the given thickness around a jittered 5-point polyline:
    the union of disks centred along it, one segment's disks tested at once,
    so the temporary is (disks per segment, n, n)."""
    n_way = 5
    ys = np.linspace(rng.uniform(6, n - 6), rng.uniform(6, n - 6), n_way)
    xs = np.linspace(4, n - 4, n_way)
    ys += rng.normal(0.0, 2.0, size=n_way)
    if rng.random() < 0.5:
        ys, xs = xs, ys
    steps = 3 * n
    band = np.zeros((n, n), dtype=bool)
    for k in range(n_way - 1):
        cy, cx = (np.linspace(pts[k], pts[k + 1], steps)[:: steps // 24] for pts in (ys, xs))
        dy2 = (np.arange(n)[:, None] - cy[:, None, None]) ** 2  # (disks, n, 1)
        dx2 = (np.arange(n) - cx[:, None, None]) ** 2           # (disks, 1, n)
        band |= (dy2 + dx2 <= (thickness / 2.0) ** 2).any(axis=0)
    return band


def _blend(img: np.ndarray, target, alpha: np.ndarray) -> np.ndarray:
    """Per-pixel alpha composite of ``target`` over ``img``."""
    return (1.0 - alpha[..., None]) * img + alpha[..., None] * target


def apply_anomaly(image: np.ndarray, kind: str, rng: np.random.Generator):
    """Defect injection. Returns (image, mask, saturation)."""
    n = image.shape[0]
    soft = 0.8  # stencil blur: antialiased defect edges
    img = image.copy()
    mask = np.zeros((n, n), dtype=bool)
    if kind == "patch":
        side = int(rng.integers(round(0.22 * n), round(0.30 * n) + 1))
        y = int(rng.integers(2, n - side - 2))
        x = int(rng.integers(2, n - side - 2))
        shift = float(rng.choice([-0.12, 0.12]))
        gain = float(rng.uniform(0.80, 0.92))
        target = np.clip(img * gain + shift + 0.5 * (1 - gain), 0.0, 1.0)
        stencil = np.zeros((n, n))
        stencil[y:y + side, x:x + side] = 1.0
        alpha = gaussian_filter(stencil, soft)
        img = _blend(img, target, alpha)
        return img, alpha > 0.5, 1.0
    if kind == "scratch":
        tone = float(rng.choice([0.30, 0.70]))
        opacity = 0.7
        band = _polyline_band(n, rng, thickness=0.16 * n)
        alpha = gaussian_filter(band.astype(float), soft) * opacity
        img = _blend(img, tone, alpha)
        return img, alpha > 0.5 * opacity, 1.0
    if kind == "swap":
        half = n // 2
        quads = [(0, 0), (0, half), (half, 0), (half, half)]
        a, b = rng.choice(4, size=2, replace=False)
        (ya, xa), (yb, xb) = quads[a], quads[b]
        block_a = img[ya:ya + half, xa:xa + half].copy()
        img[ya:ya + half, xa:xa + half] = img[yb:yb + half, xb:xb + half]
        img[yb:yb + half, xb:xb + half] = block_a
        mask[ya:ya + half, xa:xa + half] = True
        mask[yb:yb + half, xb:xb + half] = True
        return img, mask, SWAP_SATURATION
    raise ContractError(f"unknown anomaly kind {kind!r}")


# ---------------------------------------------------------------------------
# netpbm io


def _write_netpbm(path, magic: str, raster: np.ndarray, maxval: int, comment: str = "") -> None:
    """Binary netpbm: the header, then ``raster``'s bytes as they lie. A P6
    raster is (H, W, 3), a P5 one (H, W)."""
    if raster.ndim < 2 or raster.shape[2:] != ((3,) if magic == "P6" else ()):
        raise ShapeError(f"{magic} raster cannot have shape {raster.shape}")
    h, w = raster.shape[:2]
    header = f"{magic}\n{'# ' + comment + chr(10) if comment else ''}{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(raster.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6 with maxval 255. A uint8 (H, W, 3) raster, the form
    ``read_ppm`` returns, is written unchanged; a [0, 1] float image is
    scaled by 255, rounded and clipped."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        arr = np.clip(arr * 255.0 + 0.5, 0, 255).astype(np.uint8)
    _write_netpbm(path, "P6", arr, 255)


def write_pgm(path, mask: np.ndarray) -> None:
    """Binary P5 with maxval 255; True maps to 255."""
    _write_netpbm(path, "P5", np.asarray(mask, dtype=bool) * np.uint8(255), 255)


def write_pgm16(path, values: np.ndarray, comment: str = "") -> None:
    """16-bit P5 (big-endian samples per the format) for score heatmaps."""
    _write_netpbm(path, "P5", np.asarray(values, dtype=np.uint16).astype(">u2"), 65535, comment)


def _read_netpbm_header(fh, path):
    """(magic, width, height, maxval). Tokens are capped at 10 bytes: no
    valid field is longer, and the cap keeps ``int`` far inside its digit
    limit."""
    def token():
        out = b""
        while True:
            ch = fh.read(1)
            if not ch:
                raise DataError(f"{path}: truncated header")
            if ch == b"#":
                while ch not in (b"\n", b""):
                    ch = fh.read(1)
                continue
            if ch.isspace():
                if out:
                    return out
                continue
            if len(out) == 10:
                raise DataError(f"{path}: header token too long")
            out += ch

    magic = token()
    fields = [token() for _ in range(3)]
    if not all(f.isdigit() for f in fields):
        raise DataError(f"{path}: header fields must be decimal integers")
    w, h, maxval = (int(f) for f in fields)
    if w < 1 or h < 1:
        raise DataError(f"{path}: image dimensions must be positive")
    return magic, w, h, maxval


def _read_netpbm(path, what: str, magic: bytes, channels: int) -> np.ndarray:
    """(H, W, channels) uint8 raster of a binary maxval-255 file. The raster
    size is checked against the file size first, so that a corrupt header
    cannot request a huge read."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open {what} ({exc.strerror})") from exc
    with fh:
        got, w, h, maxval = _read_netpbm_header(fh, path)
        if got != magic or maxval != 255:
            raise DataError(f"{path}: expected binary {magic.decode()} maxval 255")
        n = w * h * channels
        if n > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: truncated pixel data")
        raw = fh.read(n)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    """The (H, W, 3) uint8 raster of a binary maxval-255 P6 file, as stored:
    8 bits a value. ``image_values`` gives the [0, 1] values the model reads."""
    return _read_netpbm(path, "image", b"P6", 3)


def image_values(image) -> np.ndarray:
    """An image's values as the model reads them: a uint8 raster (or a block
    of its rows) as float64 ``raster / 255``, a float image unchanged. The
    one place an image is converted; rasters stay 8-bit until then."""
    image = np.asarray(image)
    return image.astype(np.float64) / 255.0 if image.dtype == np.uint8 else image


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, "mask", b"P5", 1)[..., 0] > 127


# ---------------------------------------------------------------------------
# dataset assembly


def generate(spec: DatasetSpec, out_dir) -> str:
    """Write the dataset tree and return the manifest path."""
    out_dir = os.fspath(out_dir)
    for sub in ("train", "test", "masks"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    lines = []
    for code, split, count in ((0, "train", spec.n_train), (1, "test", spec.n_test_normal)):
        for i in range(count):
            rel = f"{split}/{i:04d}.ppm"
            write_ppm(os.path.join(out_dir, rel), make_normal(spec, _sample_rng(spec, code, i)))
            lines.append(f"{rel}\t0\t-\t1.0")
    for i in range(spec.n_test_anomalous):
        rng = _sample_rng(spec, 2, i)
        kind = spec.anomaly_kinds[i % len(spec.anomaly_kinds)]
        img, mask, sat = apply_anomaly(make_normal(spec, rng), kind, rng)
        idx = spec.n_test_normal + i
        rel = f"test/{idx:04d}.ppm"
        mask_rel = f"masks/{idx:04d}.pgm"
        write_ppm(os.path.join(out_dir, rel), img)
        write_pgm(os.path.join(out_dir, mask_rel), mask)
        lines.append(f"{rel}\t1\t{mask_rel}\t{sat}")
    manifest = os.path.join(out_dir, "manifest.tsv")
    with open(manifest, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def _inside_dataset(rel: str) -> bool:
    """Whether a manifest path names a file below the dataset directory: relative,
    '/'-separated, without an empty or '..' segment."""
    return not (os.path.isabs(rel) or "\\" in rel
                or any(seg in ("", "..") for seg in rel.split("/")))


def load(data_dir) -> list:
    """Samples in manifest order, with consistency checks: every path stays
    inside ``data_dir``, also with its symlinks resolved, anomalous entries
    need a non-empty mask, normal entries none, and the train split may only
    contain normals."""
    data_dir = os.fspath(data_dir)
    real_root = os.path.realpath(data_dir)
    manifest = os.path.join(data_dir, "manifest.tsv")
    if not os.path.exists(manifest):
        raise DataError(f"missing manifest: {manifest}")
    samples = []

    def resolve(lineno, rel):
        path = os.path.join(data_dir, rel)
        if os.path.commonpath([real_root, os.path.realpath(path)]) != real_root:
            raise DataError(f"{manifest}:{lineno}: {rel} leads outside the dataset "
                            "through a symlink")
        return path

    try:
        with open(manifest, "r", encoding="ascii") as fh:
            rows = [line.rstrip("\n") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataError(f"{manifest}: manifest is not ASCII text") from exc
    except OSError as exc:
        raise DataError(f"{manifest}: cannot read manifest ({exc.strerror})") from exc
    for lineno, row in enumerate(rows, start=1):
        parts = row.split("\t")
        if len(parts) != 4:
            raise DataError(f"{manifest}:{lineno}: expected 4 tab-separated fields")
        if "\0" in row:
            raise DataError(f"{manifest}:{lineno}: NUL byte in the row")
        rel, label_s, mask_rel, sat_s = parts
        try:
            label = int(label_s)
            sat = float(sat_s)
        except ValueError as exc:
            raise DataError(f"{manifest}:{lineno}: bad label or saturation") from exc
        if label not in (0, 1):
            raise DataError(f"{manifest}:{lineno}: label must be 0 or 1")
        if not 0.0 < sat <= 1.0:
            raise DataError(f"{manifest}:{lineno}: saturation must lie in (0, 1]")
        if not _inside_dataset(rel) or not (mask_rel == "-" or _inside_dataset(mask_rel)):
            raise DataError(f"{manifest}:{lineno}: paths must be relative to the dataset, "
                            "'/'-separated, without empty or '..' segments")
        split = rel.split("/", 1)[0]
        if split not in ("train", "test"):
            raise DataError(f"{manifest}:{lineno}: path must start with train/ or test/")
        image = read_ppm(resolve(lineno, rel))
        if label == 1:
            if split == "train":
                raise DataError(f"{manifest}:{lineno}: anomalous sample in train split")
            if mask_rel == "-":
                raise DataError(f"{manifest}:{lineno}: anomalous sample without mask")
            mask = read_pgm(resolve(lineno, mask_rel))
            if not mask.any():
                raise DataError(f"{manifest}:{lineno}: anomalous mask is empty")
            if mask.shape != image.shape[:2]:
                raise DataError(f"{manifest}:{lineno}: mask and image sizes differ")
        else:
            if mask_rel != "-":
                raise DataError(f"{manifest}:{lineno}: normal sample with a mask")
            mask = np.zeros(image.shape[:2], dtype=bool)
        samples.append(Sample(image=image, mask=mask, label=label, saturation=sat,
                              path=rel, split=split))
    return samples


def train_split(samples) -> list:
    return [s for s in samples if s.split == "train"]


def test_split(samples) -> list:
    return [s for s in samples if s.split == "test"]
