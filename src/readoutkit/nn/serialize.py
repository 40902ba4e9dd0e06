"""Binary parameter files for trained networks.

Layout (little-endian):

    bytes 0..11   magic ``RKIT-MODEL\\0\\0``
    u32           format version (currently 1)
    u32           length of the architecture JSON in bytes
    ...           canonical (key-sorted, compact) architecture JSON, utf-8
    u64           total parameter count
    f64 * count   parameters, flattened in declaration order

A JSON sidecar mirrors the architecture plus the parameter count for
quick inspection without parsing the binary.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..dataio import canonical_json, sidecar_path
from ..errors import FileFormatError
from .dense import DenseNetwork
from .lstm import LstmNetwork

MODEL_MAGIC = b"RKIT-MODEL\x00\x00"
MODEL_VERSION = 1
_HEAD = struct.Struct("<12sII")


def save_model(model, path: str | Path, extra_meta: dict | None = None) -> None:
    path = Path(path)
    arch = model.arch()
    arch_bytes = canonical_json(arch).encode()
    params = model.param_arrays()
    count = sum(p.size for p in params)
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MODEL_MAGIC, MODEL_VERSION, len(arch_bytes)))
        f.write(arch_bytes)
        f.write(struct.pack("<Q", count))
        for p in params:
            f.write(np.asarray(p, dtype="<f8").tobytes())
    meta = {"architecture": arch, "param_count": count}
    if extra_meta:
        meta.update(extra_meta)
    sidecar_path(path).write_text(canonical_json(meta) + "\n")


def load_model(path: str | Path):
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise FileFormatError(f"cannot read model: {e}") from e
    if len(raw) < _HEAD.size:
        raise FileFormatError(f"{path} is too short to be a model file")
    magic, version, json_len = _HEAD.unpack_from(raw, 0)
    if magic != MODEL_MAGIC:
        raise FileFormatError(f"{path} is not a model file (bad magic)")
    if version != MODEL_VERSION:
        raise FileFormatError(f"unsupported model version {version}")
    offset = _HEAD.size
    try:
        arch = json.loads(raw[offset : offset + json_len])
    except json.JSONDecodeError as e:
        raise FileFormatError(f"corrupt architecture block in {path}") from e
    offset += json_len
    (count,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if len(flat) != count:
        raise FileFormatError(f"{path} is truncated")

    kind = arch.get("kind")
    if kind == "gmm":
        from ..gmm import GmmClassifier

        expected = arch["n_classes"] * (arch["dim"] + arch["dim"] ** 2 + 1)
        if count != expected:
            raise FileFormatError(
                f"parameter count mismatch: file has {count}, architecture needs {expected}"
            )
        return GmmClassifier.from_flat(arch, flat)
    if kind == "lstm":
        model = LstmNetwork.from_arch(arch)
    elif kind == "dense":
        model = DenseNetwork.from_arch(arch)
    else:
        raise FileFormatError(f"unknown model kind {kind!r}")

    params = model.param_arrays()
    expected = sum(p.size for p in params)
    if expected != count:
        raise FileFormatError(
            f"parameter count mismatch: file has {count}, architecture needs {expected}"
        )
    pos = 0
    for p in params:
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    return model
