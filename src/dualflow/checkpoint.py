"""Binary checkpoint format.

Layout, all integers little-endian:

    magic   4 bytes  b"DADF"
    version u32      currently 1
    count   u32      number of named arrays
    entry   repeated count times:
        name_len u16, name UTF-8,
        dtype u8 (0 = float32, 1 = float64), rank u8,
        dims u64 * rank, raw element bytes (little-endian)
    config  u32 length + UTF-8 INI echo of the run config plus a [state]
            section recording training progress

Arrays are written in ``parameters()`` then ``buffers()`` order, so a
checkpoint written twice from the same state is byte-identical.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .autodiff import default_dtype
from .config import RunConfig, parse_run_config, render_run_config
from .errors import CheckpointError, ContractError, NumericError
from .pipeline import Model, build_model

MAGIC = b"DADF"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_STATE_KEYS = ("transformer_trained", "flow_trained")
_MODEL_SECTIONS = ("encoder", "patch_embed", "attention", "flow")  # what builds a model


def _state_text(model: Model) -> str:
    return "[state]\n" + "".join(f"{k} = {str(getattr(model, k)).lower()}\n" for k in _STATE_KEYS)


def _split_state(text: str, path):
    """(config text, state) of an echo whose ``[state]`` section gives each
    of ``transformer_trained`` and ``flow_trained`` once, as true or false."""
    head, sep, tail = text.partition("[state]")
    if not sep:
        raise CheckpointError(f"{path}: checkpoint config echo lacks a [state] section")
    state = {}
    for line in tail.strip().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _STATE_KEYS or value not in ("true", "false") or key in state:
            raise CheckpointError(f"{path}: malformed or repeated [state] line {line!r}")
        state[key] = value == "true"
    missing = [k for k in _STATE_KEYS if k not in state]
    if missing:
        raise CheckpointError(f"{path}: [state] section lacks {missing}")
    return head, state


def _write_entry(fh, name: str, arr: np.ndarray) -> None:
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise CheckpointError(f"cannot serialize dtype {arr.dtype} for {name!r}")
    raw_name = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw_name)))
    fh.write(raw_name)
    fh.write(struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())


def save_checkpoint(model: Model, rc: RunConfig, path) -> None:
    """Write ``model`` and ``rc`` to ``path``. ``rc`` may differ from
    ``model.config`` only in its ``train`` and ``scoring`` sections; any
    other differing section, which would load as another model, raises
    ``ContractError`` naming it, and a non-finite array ``NumericError``
    naming it. Both are checked before any byte is written, so a file at
    ``path`` is left as it was."""
    bad = next((k for k in _MODEL_SECTIONS
                if getattr(rc, k) != getattr(model.config, k)), None)
    if bad is not None:
        raise ContractError(f"cannot save a checkpoint: the config's [{bad}] section "
                            f"differs from the one the model was built from")
    entries = dict(model.parameters())
    arrays = [(name, p.data) for name, p in entries.items()]
    arrays += list(model.buffers().items())
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericError(f"cannot save a checkpoint: non-finite values in {name!r}")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(arrays)))
    for name, arr in arrays:
        _write_entry(buf, name, np.asarray(arr))
    config_text = render_run_config(rc) + _state_text(model)
    raw = config_text.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Rebuild (model, model.config) from a checkpoint file. Arrays are cast
    to the active default dtype on assignment. Every defect of the file,
    including a config echo the model cannot be built from, raises
    ``CheckpointError``; no read or allocation goes past the file's end."""
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc.strerror})") from exc
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(blob) - pos:
            raise CheckpointError(f"{path}: truncated checkpoint: wanted {n} bytes, "
                                  f"{len(blob) - pos} left")
        pos += n
        return blob[pos - n:pos]

    def text(n: int, what: str) -> str:
        try:
            return str(take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: {what} is not UTF-8") from exc

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "an array name")
        code, rank = struct.unpack("<BB", take(2))
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        # no dim may exceed the bytes left, so the shape stays far below
        # numpy's limits even when another dim is 0
        if any(d > len(blob) - pos for d in dims):
            raise CheckpointError(f"{path}: dims {dims} of {name!r} exceed the file")
        arr = np.frombuffer(take(math.prod(dims) * _CODE_DTYPES[code].itemsize),
                            dtype=_CODE_DTYPES[code]).reshape(dims)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: non-finite values in {name!r}")
        arrays[name] = arr
    (cfg_len,) = struct.unpack("<I", take(4))
    config_text = text(cfg_len, "the config echo")
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after config echo")
    cfg_part, state = _split_state(config_text, path)
    try:
        model = build_model(parse_run_config(cfg_part))
    except ContractError as exc:
        raise CheckpointError(f"{path}: bad config echo: {exc}") from exc
    params = model.parameters()
    buffers = model.buffers()
    expected = {name: p.data.shape for name, p in params.items()}
    expected.update((name, b.shape) for name, b in buffers.items())
    if arrays.keys() != expected.keys():
        missing = sorted(expected.keys() - arrays.keys())[:3]
        extra = sorted(arrays.keys() - expected.keys())[:3]
        raise CheckpointError(f"{path}: array names do not match the config "
                              f"(missing {missing}, unexpected {extra})")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}: "
                                  f"stored {arrays[name].shape}, model {shape}")
    dt = default_dtype()
    for name, p in params.items():
        p.data = arrays[name].astype(dt)
    try:
        model.set_image_norm(arrays["norm.mean"], arrays["norm.std"])
        for i, stack in enumerate(model.flows):
            stack.standardize.set_stats(arrays[f"flow.{i}.in_mean"], arrays[f"flow.{i}.in_std"])
    except ContractError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    model.transformer_trained = state["transformer_trained"]
    model.flow_trained = state["flow_trained"]
    return model, model.config
