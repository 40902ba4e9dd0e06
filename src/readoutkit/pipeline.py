"""Classification pipelines: a JSON descriptor names the trace-processing
stages, the model family, and the sample-weighting rule; this module
validates descriptors, runs the stages over shot batches, trains the chosen
model, and round-trips the result through the model file format.

Descriptor shape::

    {
      "name": "bandpass_lstm",
      "stages": [
        {"op": "bandpass", "center": 0.1, "half_width": 0.005},
        {"op": "demodulate", "frequency": 0.1},
        {"op": "bin", "size": 40}
      ],
      "model": {"kind": "lstm", "hidden": [16]},
      "weighting": {"kind": "uniform"},
      "train": {"epochs": 100, "batch_size": 256, ...}
    }

Stage rules: exactly one ``demodulate``; ``bandpass`` only before it;
``bin`` and ``path_transform`` only after it; ``integrate`` only as the
final stage, required by and exclusive to the ``gmm`` model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .errors import ConfigurationError, DataError, FileFormatError, IncompatibilityError
from .gmm import GmmClassifier
from .nn.dense import DenseNetwork
from .nn.lstm import LstmNetwork
from .nn.optim import TrainConfig
from .nn.serialize import load_model, save_model
from .nn.train import train
from .pathsig import batch_signature, path_transform, signature_length
from .sim import Dataset, RawShot

STAGE_OPS = ("bandpass", "demodulate", "bin", "path_transform", "integrate")
MODEL_KINDS = ("gmm", "lstm", "dense")
WEIGHTING_KINDS = ("uniform", "gmm_confidence")
CHUNK = 512


def normalize_descriptor(desc: dict) -> dict:
    """Fill defaults and validate; returns a deep copy safe to serialize."""
    if not isinstance(desc, dict):
        raise ConfigurationError("pipeline descriptor must be a mapping")
    d = copy.deepcopy(desc)
    d.setdefault("name", "pipeline")
    stages = d.get("stages")
    if not isinstance(stages, list) or not stages:
        raise ConfigurationError("descriptor needs a non-empty 'stages' list")
    model = d.get("model")
    if not isinstance(model, dict) or model.get("kind") not in MODEL_KINDS:
        raise ConfigurationError(f"model kind must be one of {MODEL_KINDS}")
    weighting = d.setdefault("weighting", {"kind": "uniform"})
    if weighting.get("kind") not in WEIGHTING_KINDS:
        raise ConfigurationError(f"weighting kind must be one of {WEIGHTING_KINDS}")
    if weighting["kind"] == "gmm_confidence":
        weighting.setdefault("floor", 0.0)
        if not 0 <= weighting["floor"] <= 1:
            raise ConfigurationError("weighting floor must lie in [0, 1]")

    demod_seen = 0
    for k, st in enumerate(stages):
        op = st.get("op")
        if op not in STAGE_OPS:
            raise ConfigurationError(f"unknown stage op {op!r}")
        if op == "bandpass":
            if demod_seen:
                raise ConfigurationError("bandpass must come before demodulate")
            if "center" not in st or "half_width" not in st:
                raise ConfigurationError("bandpass needs 'center' and 'half_width'")
        elif op == "demodulate":
            demod_seen += 1
            if "frequency" not in st:
                raise ConfigurationError("demodulate needs 'frequency'")
        elif op == "bin":
            if not demod_seen:
                raise ConfigurationError("bin must come after demodulate")
            if not isinstance(st.get("size"), int) or st["size"] < 1:
                raise ConfigurationError("bin needs an integer 'size' >= 1")
        elif op == "path_transform":
            if not demod_seen:
                raise ConfigurationError("path_transform must come after demodulate")
            st.setdefault("weights", None)
        elif op == "integrate":
            if not demod_seen:
                raise ConfigurationError("integrate must come after demodulate")
            if k != len(stages) - 1:
                raise ConfigurationError("integrate must be the final stage")
    if demod_seen != 1:
        raise ConfigurationError("stages must contain exactly one demodulate")

    has_integrate = stages[-1]["op"] == "integrate"
    kind = model["kind"]
    if kind == "gmm":
        if not has_integrate:
            raise ConfigurationError("the gmm model consumes integrated points")
        if weighting["kind"] != "uniform":
            raise ConfigurationError("sample weighting applies to trainable models only")
    else:
        if has_integrate:
            raise ConfigurationError("integrate feeds only the gmm model")
        model.setdefault("output", "softmax")
        if model["output"] not in ("softmax", "sigmoid"):
            raise ConfigurationError("model output must be 'softmax' or 'sigmoid'")
        if kind == "lstm":
            model.setdefault("hidden", [16])
            model.setdefault("output_bias", False)
        else:
            model.setdefault("hidden", [32, 16, 8])
            features = model.setdefault("features", {"type": "signature", "order": 5})
            if features.get("type") not in ("signature", "flat"):
                raise ConfigurationError("dense features must be 'signature' or 'flat'")
            if features["type"] == "signature":
                features.setdefault("order", 5)
                if not isinstance(features["order"], int) or features["order"] < 1:
                    raise ConfigurationError("signature order must be an integer >= 1")
        d.setdefault("train", {})
        TrainConfig.from_dict({**TrainConfig().to_dict(), **d["train"]}).validate()
    return d


def apply_stages(samples: np.ndarray, sample_rate: float, stages: list[dict]):
    """Run the stage list over a (batch, n) block of raw traces.

    Returns ``("traj", (batch, steps, 2) array, out_rate)`` when the chain
    ends in a trajectory, or ``("point", (batch, 2) array, out_rate)`` after
    an integrate stage.
    """
    x = np.asarray(samples, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    rate = sample_rate
    i = q = None
    kind = "raw"
    for st in stages:
        op = st["op"]
        if op == "bandpass":
            x = dsp.bandpass(x, rate, st["center"], st["half_width"])
        elif op == "demodulate":
            traj = dsp.demodulate(x, rate, st["frequency"])
            i, q = traj.i, traj.q
            kind = "traj"
        elif op == "bin":
            i = dsp.bin_average(i, st["size"])
            q = dsp.bin_average(q, st["size"])
            rate = rate / st["size"]
        elif op == "path_transform":
            w = st.get("weights")
            w = None if w is None else np.asarray(w, dtype=float)
            i = path_transform(i, w)
            q = path_transform(q, w)
        elif op == "integrate":
            i = i.mean(axis=-1)
            q = q.mean(axis=-1)
            kind = "point"
    if kind == "raw":
        raise ConfigurationError("stage list never demodulated the trace")
    arr = np.stack([i, q], axis=-1)
    if squeeze:
        arr = arr[0]
    return kind, arr, rate


def preprocess_shot(shot: RawShot, stages: list[dict]):
    """Single-shot convenience wrapper returning rich types."""
    kind, arr, rate = apply_stages(shot.samples, shot.sample_rate, stages)
    if kind == "point":
        return dsp.IqPoint(i=float(arr[0]), q=float(arr[1]))
    return dsp.IqTrajectory(i=arr[:, 0], q=arr[:, 1], sample_rate=rate)


def preprocess_batch(shots: list[RawShot], stages: list[dict], chunk: int = CHUNK):
    """Chunked stage application over many shots.

    Returns the same ``(kind, array, rate)`` triple as :func:`apply_stages`
    with the batch axis first.  Chunking bounds peak memory; results are
    identical to one big call because every stage is per-trace.
    """
    if not shots:
        raise ConfigurationError("no shots to preprocess")
    blocks = []
    kind = rate = None
    for start in range(0, len(shots), chunk):
        part = shots[start : start + chunk]
        block = np.stack([s.samples for s in part]).astype(float)
        kind, arr, rate = apply_stages(block, part[0].sample_rate, stages)
        blocks.append(arr)
    return kind, np.concatenate(blocks, axis=0), rate


def integrated_points(shots: list[RawShot], frequency: float) -> np.ndarray:
    """Plain demodulate-and-average I-Q points, the baseline representation
    used both by the gmm model and by confidence weighting."""
    stages = [{"op": "demodulate", "frequency": frequency}, {"op": "integrate"}]
    _, pts, _ = preprocess_batch(shots, stages)
    return pts


def _demod_frequency(stages: list[dict]) -> float:
    for st in stages:
        if st["op"] == "demodulate":
            return st["frequency"]
    raise ConfigurationError("stage list has no demodulate")


def _model_inputs(desc: dict, kind: str, arr: np.ndarray):
    """Map preprocessed output onto the model family's input layout."""
    mkind = desc["model"]["kind"]
    if mkind == "gmm":
        return arr
    if mkind == "lstm":
        return np.ascontiguousarray(arr.transpose(1, 0, 2))
    features = desc["model"]["features"]
    if features["type"] == "signature":
        return batch_signature(arr, features["order"])
    return arr.reshape(arr.shape[0], -1)


@dataclass
class TrainedPipeline:
    """A fitted pipeline: descriptor plus the trained model object."""

    descriptor: dict
    model: object
    input_length: int

    @property
    def name(self) -> str:
        return self.descriptor.get("name", "pipeline")

    @property
    def model_kind(self) -> str:
        return self.descriptor["model"]["kind"]

    def _check_shots(self, shots: list[RawShot]) -> None:
        if not shots:
            raise ConfigurationError("no shots to classify")
        n = len(shots[0].samples)
        if n != self.input_length:
            raise IncompatibilityError(
                f"pipeline was trained on {self.input_length}-sample shots, got {n}"
            )
        for k, shot in enumerate(shots):
            if not np.isfinite(shot.samples).all():
                raise DataError(f"shot {k} has non-finite samples and cannot be classified")

    def predict(self, shots: list[RawShot]) -> np.ndarray:
        self._check_shots(shots)
        kind, arr, _ = preprocess_batch(shots, self.descriptor["stages"])
        X = _model_inputs(self.descriptor, kind, arr)
        return self.model.predict(X)

    def predict_proba(self, shots: list[RawShot]) -> np.ndarray:
        self._check_shots(shots)
        kind, arr, _ = preprocess_batch(shots, self.descriptor["stages"])
        X = _model_inputs(self.descriptor, kind, arr)
        return self.model.predict_proba(X)

    def predict_one(self, shot: RawShot) -> int:
        return int(self.predict([shot])[0])

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        meta = {"pipeline": self.descriptor, "input_length": self.input_length}
        if extra_meta:
            meta.update(extra_meta)
        save_model(self.model, path, extra_meta=meta)

    @classmethod
    def load(cls, path: str | Path) -> "TrainedPipeline":
        import json

        model = load_model(path)
        sidecar = Path(str(path) + ".json")
        if not sidecar.exists():
            raise ConfigurationError(f"pipeline sidecar {sidecar} is missing")
        try:
            meta = json.loads(sidecar.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FileFormatError(f"pipeline sidecar {sidecar} is not valid JSON: {e}") from e
        if "pipeline" not in meta:
            raise ConfigurationError(f"{sidecar} has no pipeline descriptor")
        desc = normalize_descriptor(meta["pipeline"])
        return cls(descriptor=desc, model=model, input_length=int(meta["input_length"]))


def train_pipeline(
    dataset: Dataset | list[RawShot],
    descriptor: dict,
    log_fn=None,
) -> TrainedPipeline:
    """Fit the descriptor's model on the given shots.

    The gmm model is a closed-form fit; lstm and dense run the mini-batch
    trainer with the descriptor's optimization block.  The
    ``gmm_confidence`` weighting fits a reference Gaussian model on plain
    integrated points and weighs each sample by the posterior it assigns to
    the sample's own label.
    """
    shots = dataset.shots if isinstance(dataset, Dataset) else list(dataset)
    if not shots:
        raise ConfigurationError("cannot train a pipeline on zero shots")
    desc = normalize_descriptor(descriptor)
    labels = np.array([s.label for s in shots], dtype=int)
    input_length = len(shots[0].samples)

    kind, arr, _ = preprocess_batch(shots, desc["stages"])
    X = _model_inputs(desc, kind, arr)

    if desc["model"]["kind"] == "gmm":
        model = GmmClassifier.fit(X, labels)
        return TrainedPipeline(descriptor=desc, model=model, input_length=input_length)

    weighting = desc["weighting"]
    if weighting["kind"] == "gmm_confidence":
        pts = integrated_points(shots, _demod_frequency(desc["stages"]))
        ref = GmmClassifier.fit(pts, labels)
        weights = ref.confidence_weights(pts, labels, floor=weighting["floor"])
    else:
        weights = None

    tc = TrainConfig.from_dict({**TrainConfig().to_dict(), **desc.get("train", {})})
    mdesc = desc["model"]
    if mdesc["kind"] == "lstm":
        model = LstmNetwork(
            input_dim=X.shape[2],
            hidden=tuple(mdesc["hidden"]),
            output_dim=int(labels.max()) + 1,
            output_bias=mdesc["output_bias"],
            output=mdesc["output"],
            seed=tc.seed,
        )
    else:
        model = DenseNetwork(
            input_dim=X.shape[1],
            hidden=tuple(mdesc["hidden"]),
            output_dim=int(labels.max()) + 1,
            output=mdesc["output"],
            seed=tc.seed,
        )
    train(model, X, labels, weights=weights, config=tc, log_fn=log_fn)
    return TrainedPipeline(descriptor=desc, model=model, input_length=input_length)


def standard_pipelines(
    frequency: float = 0.1,
    half_width: float = 0.005,
    bin_size: int = 40,
    train: dict | None = None,
) -> dict[str, dict]:
    """The stock descriptor set: the integration baseline, raw and filtered
    sequence models, and the signature-feature dense model."""
    train = dict(train or {})
    demod = {"op": "demodulate", "frequency": frequency}
    bp = {"op": "bandpass", "center": frequency, "half_width": half_width}
    binst = {"op": "bin", "size": bin_size}
    return {
        "gmm": {
            "name": "gmm",
            "stages": [demod, {"op": "integrate"}],
            "model": {"kind": "gmm"},
        },
        "lstm": {
            "name": "lstm",
            "stages": [demod, binst],
            "model": {"kind": "lstm", "hidden": [16]},
            "train": dict(train),
        },
        "bandpass_lstm": {
            "name": "bandpass_lstm",
            "stages": [bp, demod, binst],
            "model": {"kind": "lstm", "hidden": [16]},
            "train": dict(train),
        },
        "signature_dense": {
            "name": "signature_dense",
            "stages": [bp, demod, binst],
            "model": {
                "kind": "dense",
                "hidden": [32, 16, 8],
                "features": {"type": "signature", "order": 5},
            },
            "train": dict(train),
        },
    }
