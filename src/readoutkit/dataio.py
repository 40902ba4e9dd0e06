"""On-disk formats: binary shot datasets, JSON sidecars, CSV export.

Dataset layout (little-endian):

    bytes 0..11   magic ``RKIT-DATASET``
    bytes 12..15  u32 format version (currently 1)
    u64           shot count
    u32           samples per shot
    f64           sample rate (samples per ns); positive and finite, and the
                  sidecar config's ``sample_rate`` when the sidecar has one
    per shot      u8 label (0-2), u8 herald flag (0-1), f32 samples: one
                  ``record_dtype(n)`` record; a load reads them all into one
                  block, and each shot's ``samples`` is a writable row of it

A ``<name>.json`` sidecar written next to the file records the generating
config and seed so ground-truth paths can be regenerated on load.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FileFormatError, is_finite_number
from .sim import STATES, Dataset, RawShot, SimConfig, regenerate_paths, shot_format

DATASET_MAGIC = b"RKIT-DATASET"
DATASET_VERSION = 1
_HEADER = struct.Struct("<12sIQId")
_SAVE_BLOCK_ROWS = 512


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and sidecar format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """sha256 over the canonical JSON form of a config-like dict."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def sidecar_path(path: str | Path) -> Path:
    """The JSON sidecar written next to a dataset or model file."""
    return Path(path).with_suffix(Path(path).suffix + ".json")


def record_dtype(n_samples: int, where: str | Path) -> np.dtype:
    """One shot's record; ``FileFormatError``, naming ``where``, for a
    length no record can hold (numpy caps one at 2 GiB, so it refuses
    536870912 samples and more without allocating)."""
    try:
        return np.dtype([("label", "u1"), ("herald", "u1"), ("samples", "<f4", (n_samples,))])
    except ValueError as e:
        raise FileFormatError(f"{where}: records of {n_samples} samples are too large") from e


def read_sidecar(sidecar: Path, what: str) -> dict:
    """The JSON object in a ``what`` (dataset or model) sidecar;
    ``FileFormatError`` if the file is missing, is not UTF-8 JSON or holds
    anything but an object."""
    try:
        meta = json.loads(sidecar.read_text())
    except OSError as e:
        raise FileFormatError(f"cannot read {what} sidecar {sidecar}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"{what} sidecar {sidecar} is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        kind = type(meta).__name__
        raise FileFormatError(f"{what} sidecar {sidecar} holds a JSON {kind}, not an object")
    return meta


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the binary shot file and its JSON sidecar."""
    path = Path(path)
    shots = dataset.shots
    if not shots:
        raise DataError("refusing to write an empty dataset")
    n_samples, rate = shot_format(shots)
    if dataset.config is not None and dataset.config.sample_rate != rate:
        raise DataError(
            f"shots are sampled at {rate!r}, the config at {dataset.config.sample_rate!r}"
        )
    dtype = record_dtype(n_samples, path)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(shots), n_samples, rate))
        for start in range(0, len(shots), _SAVE_BLOCK_ROWS):
            part = shots[start : start + _SAVE_BLOCK_ROWS]
            np.array([(s.label, s.herald_pass, s.samples) for s in part], dtype).tofile(f)

    meta = {"format_version": DATASET_VERSION, "shot_count": len(shots)}
    if dataset.config is not None:
        cfg = dataset.config.to_dict()
        meta["config"] = cfg
        meta["config_sha256"] = config_hash(cfg)
    sidecar_path(path).write_text(canonical_json(meta) + "\n")


def load_dataset(path: str | Path, regenerate: bool = False) -> Dataset:
    """Read a binary shot file; optionally rebuild ground-truth paths.

    The v1 format stores no shot ids, so shots are numbered by row.  A file
    of zero shots, which :func:`save_dataset` never writes, is refused with
    ``DataError``.  ``regenerate=True`` requires the sidecar and replays
    the generator's scan from the stored config: the first shot of each
    state must match its re-rendered trace byte for byte (``DataError``
    otherwise), and every shot gets its true path and its generated
    ``shot_id`` back.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
        size = path.stat().st_size
    except OSError as e:
        raise FileFormatError(f"cannot read dataset: {e}") from e
    if len(head) < _HEADER.size:
        raise FileFormatError(f"{path} is too short to be a dataset file")
    magic, version, count, n_samples, rate = _HEADER.unpack(head)
    if magic != DATASET_MAGIC:
        raise FileFormatError(f"{path} is not a dataset file (bad magic)")
    if version != DATASET_VERSION:
        raise FileFormatError(f"unsupported dataset version {version}")
    if size != _HEADER.size + count * (2 + 4 * n_samples):
        raise FileFormatError(f"{path} is truncated or padded")
    if not (is_finite_number(rate) and rate > 0):
        raise FileFormatError(
            f"{path}: header sample rate {rate!r} is not a finite positive number"
        )
    dtype = record_dtype(n_samples, path)
    if count == 0:  # well formed, but nothing any command can use; never saved
        raise DataError(f"{path} holds no shots")
    records = np.fromfile(path, dtype=dtype, count=count, offset=_HEADER.size)
    for column, allowed in (("label", len(STATES)), ("herald", 2)):
        bad = np.flatnonzero(records[column] >= allowed)
        if len(bad):
            raise FileFormatError(
                f"{path}: row {bad[0]} has {column} byte {records[column][bad[0]]}, "
                f"not one of {tuple(range(allowed))}"
            )

    config = None
    sc = sidecar_path(path)
    if sc.exists():
        meta = read_sidecar(sc, "dataset")
        if "config" in meta:
            try:
                config = SimConfig.from_dict(meta["config"])
            except ConfigurationError as e:
                raise FileFormatError(f"dataset sidecar {sc} has a bad config: {e}") from e
            if config.sample_rate != rate:
                raise FileFormatError(
                    f"{path}: header sample rate {rate!r} differs from the sidecar "
                    f"config's {config.sample_rate!r}"
                )

    labels, heralds = records["label"].tolist(), (records["herald"] != 0).tolist()
    shots = [
        RawShot(row, labels[i], heralds[i], true_path=None, shot_id=i, sample_rate=rate)
        for i, row in enumerate(records["samples"])
    ]
    dataset = Dataset(shots=shots, config=config)
    if regenerate:
        if config is None:
            raise DataError("path regeneration needs the JSON sidecar with a config")
        regenerate_truth(dataset, path)
    return dataset


def regenerate_truth(dataset: Dataset, path: str | Path) -> None:
    """Replay the config of ``dataset``, loaded from ``path``, to give its
    shots their true paths and generated ids back (:func:`load_dataset`'s
    ``regenerate``); a ``DataError`` names the sidecar."""
    try:
        regenerate_paths(dataset.config, len(dataset) // 3, shots=dataset.shots)
    except DataError as e:
        raise DataError(f"sidecar {sidecar_path(path)}: {e}") from e


def export_csv(dataset: Dataset, path: str | Path) -> int:
    """Flatten shots to CSV (shot_id, label, herald, s0..sN).  Returns rows."""
    shots = dataset.shots
    if not shots:
        raise DataError("no shots to export")
    n, _ = shot_format(shots)
    if n == 0:
        raise DataError("the shots have no samples")
    header = "shot_id,label,herald," + ",".join(f"s{i}" for i in range(n))
    with open(path, "w") as f:
        f.write(header + "\n")
        for s in shots:
            vals = ",".join(repr(float(v)) for v in s.samples)
            f.write(f"{s.shot_id},{s.label},{int(s.herald_pass)},{vals}\n")
    return len(shots)
