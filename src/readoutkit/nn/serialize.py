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
from ..errors import REQUIRED, SIZE, ConfigurationError, DataError, Field, FileFormatError
from ..errors import check, is_size
from ..gmm import GmmClassifier
from .dense import DenseNetwork, dense_param_count
from .loss import OUTPUTS
from .lstm import LstmNetwork, lstm_param_count

MODEL_MAGIC = b"RKIT-MODEL\x00\x00"
MODEL_VERSION = 1
_HEAD = struct.Struct("<12sII")

# the fields of an architecture block, by model kind; a pipeline
# descriptor's model table takes its hidden, output and output_bias entries
# from here, with defaults for hidden; a network has at most MAX_DEPTH
# hidden layers of at most MAX_WIDTH units, so neither a descriptor nor a
# model file can ask for gigabytes of weights
MAX_WIDTH, MAX_DEPTH = 1024, 8
_DIM = SIZE._replace(default=REQUIRED)
HIDDEN = Field(
    lambda v: isinstance(v, list)
    and len(v) <= MAX_DEPTH
    and all(is_size(h) and h <= MAX_WIDTH for h in v),
    f"a list of at most {MAX_DEPTH} integer widths in [1, {MAX_WIDTH}]",
    REQUIRED,
)
LSTM_HIDDEN = Field(
    lambda v: HIDDEN.test(v) and len(v) > 0,
    f"a non-empty list of at most {MAX_DEPTH} integer widths in [1, {MAX_WIDTH}]",
    REQUIRED,
)
OUTPUT = Field(lambda v: v in OUTPUTS, f"one of {OUTPUTS}", "softmax")
OUTPUT_BIAS = Field(lambda v: isinstance(v, bool), "true or false", False)
ARCH_FIELDS = {
    "gmm": {"n_classes": _DIM, "dim": _DIM},
    "dense": {"input_dim": _DIM, "hidden": HIDDEN, "output_dim": _DIM, "output": OUTPUT},
}
ARCH_FIELDS["lstm"] = {**ARCH_FIELDS["dense"], "hidden": LSTM_HIDDEN, "output_bias": OUTPUT_BIAS}


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


def _declared_count(arch, path: Path) -> int:
    """Parameter count an architecture block declares, checked against its
    kind's table before any model is built (``FileFormatError``)."""
    try:
        arch = check(arch, ARCH_FIELDS, "architecture block", tag="kind")
    except ConfigurationError as e:
        raise FileFormatError(f"invalid architecture in {path}: {e}") from e
    if arch["kind"] == "gmm":
        nc, dim = arch["n_classes"], arch["dim"]
        return nc * (dim + dim * dim + 1)
    sizes = arch["input_dim"], arch["hidden"], arch["output_dim"]
    if arch["kind"] == "dense":
        return dense_param_count(*sizes)
    return lstm_param_count(*sizes, arch["output_bias"])


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
    offset = _HEAD.size + json_len
    if len(raw) < offset + 8:
        raise FileFormatError(f"{path} is truncated")
    try:
        arch = json.loads(raw[_HEAD.size : offset])
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"corrupt architecture block in {path}") from e
    (count,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if len(raw) < offset + 8 * count:
        raise FileFormatError(f"{path} is truncated")
    expected = _declared_count(arch, path)
    if count != expected:
        raise FileFormatError(
            f"parameter count mismatch: file has {count}, architecture needs {expected}"
        )
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(flat).all():
        raise FileFormatError(f"{path} holds a non-finite parameter")

    if arch["kind"] == "gmm":
        try:
            return GmmClassifier.from_flat(arch, flat)
        except DataError as e:
            raise FileFormatError(f"corrupt gmm parameters in {path}: {e}") from e
    model = (LstmNetwork if arch["kind"] == "lstm" else DenseNetwork).from_arch(arch)
    pos = 0
    for p in model.param_arrays():
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    return model
