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

The front end returns one array: ``(batch, steps, 2)`` I-Q trajectories,
or ``(batch, 2)`` points after ``integrate``.  A stage list that starts
with ``bandpass`` runs on its in-band DFT bins: one ``rfft`` per trace, a
gather of the bins :func:`dsp.band_bins` keeps, and a sum of their real
and imaginary parts against the response of the rest of the list to each
bin's basis tone.  The responses come from the per-sample code itself, run
once on the basis tones and cached per stage list, trace length and rate.
Every stage after the bandpass is linear, so this is the same map and
agrees with the per-sample chain to rounding, without the complex FFT pair
and the per-sample mixing.  The sum is a running sum in coefficient index
order with elementwise operations, so a shot's output does not depend on
the batch it is in or on the BLAS thread count.  Where the sum would cost
more than the per-sample chain (a wide band without binning), the
per-sample chain runs instead.
"""

from __future__ import annotations

import copy
import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dataio import canonical_json, read_sidecar, sidecar_path
from .errors import NON_NEGATIVE, POSITIVE, REQUIRED, SIZE, ConfigurationError, DataError
from .errors import Field, FileFormatError, IncompatibilityError, check, is_finite_number, is_size
from .gmm import GmmClassifier
from .nn.dense import DenseNetwork
from .nn.lstm import LstmNetwork
from .nn.optim import TrainConfig
from .nn.serialize import HIDDEN, LSTM_HIDDEN, OUTPUT, OUTPUT_BIAS, load_model, save_model
from .nn.train import train
from .pathsig import batch_signature, path_transform
from .sim import Dataset, RawShot, shot_format

_MAPPING = Field(lambda v: isinstance(v, Mapping), "a mapping")  # checked by its own table
_FINITE = Field(is_finite_number, "a finite number", REQUIRED)
# the fields of each descriptor mapping: the top level, each stage by op,
# the model by kind, a dense model's features by type, the weighting by kind
DESCRIPTOR_FIELDS = {
    "name": Field(lambda v: isinstance(v, str), "a string", "pipeline"),
    "stages": Field(lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list", REQUIRED),
    "model": _MAPPING._replace(default=REQUIRED),
    "weighting": _MAPPING._replace(default={"kind": "uniform"}),
    "train": _MAPPING,
}
STAGE_FIELDS = {
    "bandpass": {"center": _FINITE, "half_width": NON_NEGATIVE._replace(default=REQUIRED)},
    "demodulate": {"frequency": _FINITE},
    "bin": {"size": SIZE._replace(default=REQUIRED)},
    "path_transform": {
        "weights": Field(
            lambda v: v is None or isinstance(v, list) and all(map(is_finite_number, v)),
            "null or a list of finite numbers",
            None,
        )
    },
    "integrate": {},
}
MODEL_FIELDS = {
    "gmm": {},
    "lstm": {
        "hidden": LSTM_HIDDEN._replace(default=[16]),
        "output": OUTPUT,
        "output_bias": OUTPUT_BIAS,
    },
    "dense": {
        "hidden": HIDDEN._replace(default=[32, 16, 8]),
        "output": OUTPUT,
        "features": _MAPPING._replace(default={"type": "signature", "order": 5}),
    },
}
# the order sets the signature's size, 2**(k + 1) - 1 entries per 2-D path
# at order k, so it is capped like the layer widths
FEATURE_FIELDS = {
    "signature": {"order": Field(lambda v: is_size(v) and v <= 8, "an integer in [1, 8]", 5)},
    "flat": {},
}
WEIGHTING_FIELDS = {
    "uniform": {},
    "gmm_confidence": {
        "floor": Field(lambda v: is_finite_number(v) and 0 <= v <= 1, "a number in [0, 1]", 0.0)
    },
}
CHUNK = 512
# the bin-domain front end: at most this many multiply-adds per raw sample
# (it costs as much as the per-sample chain at about 10 on 2000-sample
# traces and 6 on 400-sample ones; the stock pipelines need 1)
FOLD_MAX_TERMS = 8


def normalize_descriptor(desc: dict) -> dict:
    """Fill defaults and validate; returns a deep copy safe to serialize.

    Each mapping is held to its table above, and the stage list to the
    stage rules, so a bad descriptor raises ``ConfigurationError``.  Checks
    that need the trace length (a ``bin`` longer than the trajectory,
    ``path_transform`` weights of the wrong length) run when the stages
    meet the data.
    """
    d = check(copy.deepcopy(desc), DESCRIPTOR_FIELDS, "descriptor")
    stages = [check(st, STAGE_FIELDS, f"stage {k}", tag="op") for k, st in enumerate(d["stages"])]
    d["stages"] = stages
    model = d["model"] = check(d["model"], MODEL_FIELDS, "model", tag="kind")
    if model["kind"] == "dense":
        model["features"] = check(model["features"], FEATURE_FIELDS, "dense features", tag="type")
    d["weighting"] = check(d["weighting"], WEIGHTING_FIELDS, "weighting", tag="kind")

    ops = [st["op"] for st in stages]
    if ops.count("demodulate") != 1:
        raise ConfigurationError("stages must contain exactly one demodulate")
    demod = ops.index("demodulate")
    if "bandpass" in ops[demod:]:
        raise ConfigurationError("bandpass must come before demodulate")
    early = [op for op in ops[:demod] if op != "bandpass"]
    if early:
        raise ConfigurationError(f"{early[0]} must come after demodulate")
    if "integrate" in ops[:-1]:
        raise ConfigurationError("integrate must be the final stage")
    if (ops[-1] == "integrate") != (model["kind"] == "gmm"):
        raise ConfigurationError("the gmm model takes a final integrate stage, and no other does")
    if model["kind"] == "gmm" and d["weighting"]["kind"] != "uniform":
        raise ConfigurationError("sample weighting applies to trainable models only")
    if model["kind"] != "gmm":
        d.setdefault("train", {})
    if "train" in d:
        TrainConfig.from_dict(d["train"])
    return d


def apply_stages(samples: np.ndarray, sample_rate: float, stages: list[dict]) -> np.ndarray:
    """Run the stage list over a (batch, n) block of raw traces.

    Returns a (batch, steps, 2) trajectory array, or a (batch, 2) point
    array after an integrate stage.  A list that starts with ``bandpass``
    is evaluated on its in-band DFT bins (:func:`_fold`) unless that costs
    more than the per-sample chain, which runs every other list.
    """
    x = np.asarray(samples, dtype=float)
    fold = None
    if stages and stages[0]["op"] == "bandpass":
        fold = _band_response(canonical_json(stages), x.shape[-1], sample_rate)
    if fold is None:
        return _apply_per_sample(x, sample_rate, stages)
    return _fold(x, *fold)


def _apply_per_sample(x: np.ndarray, rate: float, stages: list[dict]) -> np.ndarray:
    # I and Q travel as rows 0 and 1 of one array, so each stage runs once
    iq = None
    for st in stages:
        op = st["op"]
        if op == "bandpass":
            x = dsp.bandpass(x, rate, st["center"], st["half_width"])
        elif op == "demodulate":
            iq = dsp.demodulate(x, rate, st["frequency"])
        elif op == "bin":
            if st["size"] > iq.shape[-1]:
                raise ConfigurationError(
                    f"bin size {st['size']} exceeds the {iq.shape[-1]}-step trajectory"
                )
            iq = dsp.bin_average(iq, st["size"])
        elif op == "path_transform":
            w = st.get("weights")
            iq = path_transform(iq, None if w is None else np.asarray(w, dtype=float))
        elif op == "integrate":
            iq = iq.mean(axis=-1)
    if iq is None:
        raise ConfigurationError("stage list never demodulated the trace")
    return np.ascontiguousarray(np.moveaxis(iq, 0, -1))


@functools.lru_cache(maxsize=16)
def _band_response(stages_json: str, n: int, sample_rate: float):
    """In-band bins of the leading bandpass and the response of the rest of
    the stage list to each bin's basis tones ``irfft(e_k)`` and
    ``irfft(1j * e_k)``, in rows 2j and 2j + 1 for ``k = bins[j]``.

    Returns ``(bins, response)``, both read-only, ``response`` shaped
    ``(2 * len(bins),) + one trace's output shape``; or ``None`` when the
    per-bin sum would take more than ``FOLD_MAX_TERMS`` multiply-adds per
    raw sample (a wide band without binning), where the per-sample chain is
    faster.
    """
    stages = json.loads(stages_json)
    bp = stages[0]
    bins = dsp.band_bins(n, sample_rate, bp["center"], bp["half_width"])
    probe = apply_stages(np.zeros((1, n)), sample_rate, stages[1:])
    if 2 * len(bins) * probe.size > FOLD_MAX_TERMS * n:
        return None
    rows = np.arange(len(bins))
    unit = np.zeros((2 * len(bins), n // 2 + 1), dtype=complex)
    unit[2 * rows, bins] = 1.0
    unit[2 * rows + 1, bins] = 1j
    tones = np.fft.irfft(unit, n=n, axis=-1)
    response = apply_stages(tones, sample_rate, stages[1:])
    bins.flags.writeable = response.flags.writeable = False
    return bins, response


def _fold(x: np.ndarray, bins: np.ndarray, response: np.ndarray) -> np.ndarray:
    """The stage list evaluated on the in-band ``rfft`` coefficients.

    The bandpass output is ``sum_k Re X_k * irfft(e_k) + Im X_k *
    irfft(1j * e_k)`` over the in-band bins k, and every later stage is
    linear, so the chain's output is the same sum over the responses of the
    rest of the list to those basis tones.  The sum is a running sum in
    coefficient index order, starting from the first term (zeros for an
    empty band), by elementwise operations, never by a BLAS product, so a
    shot's row has the same bytes in any batch and at any thread count.
    """
    if not len(response):
        return np.zeros((len(x),) + response.shape[1:])
    # (batch, 2 * bins) reals: Re X_k, Im X_k per in-band bin, as the rows
    coeffs = np.ascontiguousarray(np.fft.rfft(x, axis=-1)[:, bins]).view(float)
    coeffs = coeffs.reshape(coeffs.shape + (1,) * (response.ndim - 1))
    out = coeffs[:, 0] * response[0]
    for j in range(1, len(response)):
        out += coeffs[:, j] * response[j]
    return out


def preprocess_batch(shots: list[RawShot], stages: list[dict]) -> np.ndarray:
    """Stage application over many shots, ``CHUNK`` shots at a time.

    Returns the same array as :func:`apply_stages`, the batch axis first.
    Chunking bounds peak memory; results are identical to one big call
    because every stage is per-trace.  This is where training and
    prediction check their shots, before the stages run on them:

    - the list is not empty (``ConfigurationError``);
    - the shots share length and rate (``DataError``, from :func:`shot_format`);
    - they have samples (``DataError``);
    - every sample is finite (``DataError`` naming the first bad shot).
    """
    if not shots:
        raise ConfigurationError("no shots to preprocess")
    n, rate = shot_format(shots)
    if n == 0:
        raise DataError("the shots have no samples")
    blocks = []
    for start in range(0, len(shots), CHUNK):
        block = np.stack([s.samples for s in shots[start : start + CHUNK]])
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            k = start + int(np.argmin(finite))
            raise DataError(f"shot {k} (shot_id {shots[k].shot_id}) has non-finite samples")
        # rebinding frees the float32 stack before the stages run
        block = block.astype(float)
        blocks.append(apply_stages(block, rate, stages))
    return np.concatenate(blocks, axis=0)


def integrated_points(shots: list[RawShot], frequency: float) -> np.ndarray:
    """Plain demodulate-and-average I-Q points, the baseline representation
    used both by the gmm model and by confidence weighting."""
    stages = [{"op": "demodulate", "frequency": frequency}, {"op": "integrate"}]
    return preprocess_batch(shots, stages)


def _model_inputs(desc: dict, arr: np.ndarray, lstm_dtype=np.float64):
    """Map preprocessed output onto the model family's input layout; an
    lstm's input is cast to ``lstm_dtype`` in the copy that transposes it."""
    mkind = desc["model"]["kind"]
    if mkind == "gmm":
        return arr
    if mkind == "lstm":
        return np.ascontiguousarray(arr.transpose(1, 0, 2), dtype=lstm_dtype)
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
    sample_rate: float

    @property
    def name(self) -> str:
        return self.descriptor.get("name", "pipeline")

    def _inputs(self, shots: list[RawShot]) -> np.ndarray:
        # preprocess_batch checks the batch; this checks its format against
        # the one the model was trained on
        if shots:
            n, rate = len(shots[0].samples), shots[0].sample_rate
            if n != self.input_length:
                raise IncompatibilityError(
                    f"pipeline was trained on {self.input_length}-sample shots, got {n}"
                )
            if rate != self.sample_rate:
                raise IncompatibilityError(
                    f"pipeline was trained on shots at {self.sample_rate} samples/ns, got {rate}"
                )
        return _model_inputs(self.descriptor, preprocess_batch(shots, self.descriptor["stages"]))

    def predict(self, shots: list[RawShot]) -> np.ndarray:
        return self.model.predict(self._inputs(shots))

    def predict_proba(self, shots: list[RawShot]) -> np.ndarray:
        return self.model.predict_proba(self._inputs(shots))

    def predict_one(self, shot: RawShot) -> int:
        return int(self.predict([shot])[0])

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        meta = {
            "pipeline": self.descriptor,
            "input_length": self.input_length,
            "sample_rate": self.sample_rate,
        }
        if extra_meta:
            meta.update(extra_meta)
        save_model(self.model, path, extra_meta=meta)

    @classmethod
    def load(cls, path: str | Path) -> "TrainedPipeline":
        model = load_model(path)
        sidecar = sidecar_path(path)
        meta = read_sidecar(sidecar, "model")
        if "pipeline" not in meta:
            raise FileFormatError(f"{sidecar} has no pipeline descriptor")
        try:
            desc = normalize_descriptor(meta["pipeline"])
        except ConfigurationError as e:
            raise FileFormatError(f"{sidecar} holds an invalid pipeline descriptor: {e}") from e
        arch = model.arch()
        if any(arch[k] != v for k, v in desc["model"].items() if k in arch):
            raise FileFormatError(
                f"{sidecar} describes a model other than the one in {path}: "
                f"{desc['model']} against {arch}"
            )
        for key, field in (("input_length", SIZE), ("sample_rate", POSITIVE)):
            if not field.test(meta.get(key)):
                raise FileFormatError(
                    f"{sidecar} has no valid {key} ({field.rule}): {meta.get(key)!r}"
                )
        return cls(desc, model, meta["input_length"], meta["sample_rate"])


def train_pipeline(
    dataset: Dataset | list[RawShot],
    descriptor: dict,
    log_fn=None,
) -> TrainedPipeline:
    """Fit the descriptor's model on the given shots.

    The gmm model is a closed-form fit; lstm and dense run the mini-batch
    trainer with the descriptor's optimization block, an lstm on float32
    input against float64 weights (see ``nn.lstm``).  The
    ``gmm_confidence`` weighting fits a reference Gaussian model on plain
    integrated points and weighs each sample by the posterior it assigns to
    the sample's own label.  :func:`preprocess_batch` checks the shots.
    """
    shots = list(dataset)
    desc = normalize_descriptor(descriptor)
    X = _model_inputs(desc, preprocess_batch(shots, desc["stages"]), lstm_dtype=np.float32)
    input_length, sample_rate = shot_format(shots)
    labels = np.array([s.label for s in shots], dtype=int)

    if desc["model"]["kind"] == "gmm":
        return TrainedPipeline(desc, GmmClassifier.fit(X, labels), input_length, sample_rate)

    weighting = desc["weighting"]
    if weighting["kind"] == "gmm_confidence":
        frequency = next(st["frequency"] for st in desc["stages"] if st["op"] == "demodulate")
        pts = integrated_points(shots, frequency)
        ref = GmmClassifier.fit(pts, labels)
        weights = ref.confidence_weights(pts, labels, floor=weighting["floor"])
    else:
        weights = None

    tc = TrainConfig.from_dict(desc.get("train", {}))
    arch = {**desc["model"], "input_dim": X.shape[-1], "output_dim": int(labels.max()) + 1}
    arch.pop("features", None)  # the dense model's feature map, not a network argument
    model = (LstmNetwork if arch["kind"] == "lstm" else DenseNetwork).from_arch(arch, seed=tc.seed)
    train(model, X, labels, weights=weights, config=tc, log_fn=log_fn)
    return TrainedPipeline(desc, model, input_length, sample_rate)


def standard_pipelines(
    frequency: float = 0.1, bin_size: int = 40, train: dict | None = None
) -> dict[str, dict]:
    """The stock descriptor set: the integration baseline, raw and filtered
    sequence models (the filter 0.005 /ns either side of ``frequency``), and
    the signature-feature dense model."""
    train = dict(train or {})
    demod = {"op": "demodulate", "frequency": frequency}
    bp = {"op": "bandpass", "center": frequency, "half_width": 0.005}
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
