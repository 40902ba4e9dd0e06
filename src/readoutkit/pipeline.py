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

A stage list that starts with ``bandpass`` runs on its in-band DFT bins:
one ``rfft`` per trace, a gather of the bins :func:`dsp.band_bins` keeps,
and a sum of their real and imaginary parts against the response of the
rest of the list to each bin's basis tone.  The responses come from the
per-sample code itself, run once on the basis tones and cached per stage
list, trace length and rate.  Every stage after the bandpass is linear, so
this is the same map and agrees with the per-sample chain to rounding,
without the complex FFT pair and the per-sample mixing.  The sum runs in a
fixed order with elementwise operations, so a shot's output does not
depend on the batch it is in or on the BLAS thread count.  Where the sum
would cost more than the per-sample chain (a wide band without binning),
the per-sample chain runs instead.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dataio import read_sidecar, sidecar_path
from .errors import NON_NEGATIVE, REQUIRED, SIZE, ConfigurationError, DataError, Field
from .errors import FileFormatError, IncompatibilityError, check, is_finite_number, is_size
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
FEATURE_FIELDS = {"signature": {"order": SIZE._replace(default=5)}, "flat": {}}
WEIGHTING_FIELDS = {
    "uniform": {},
    "gmm_confidence": {
        "floor": Field(lambda v: is_finite_number(v) and 0 <= v <= 1, "a number in [0, 1]", 0.0)
    },
}
CHUNK = 512
# the bin-domain front end: at most this many multiply-adds per raw sample
# (it costs as much as the per-sample chain at about 10 on 2000-sample
# traces and 6 on 400-sample ones; the stock pipelines need 1), and product
# temporaries of about this many elements
FOLD_MAX_TERMS = 8
SUM_BLOCK = 1 << 16


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


def apply_stages(samples: np.ndarray, sample_rate: float, stages: list[dict]):
    """Run the stage list over a (batch, n) block of raw traces.

    Returns ``("traj", (batch, steps, 2) array, out_rate)`` when the chain
    ends in a trajectory, or ``("point", (batch, 2) array, out_rate)`` after
    an integrate stage.  A list that starts with ``bandpass`` is evaluated
    on its in-band DFT bins (:func:`_fold`) unless that costs more than the
    per-sample chain, which runs every other list.
    """
    x = np.asarray(samples, dtype=float)
    fold = None
    if stages and stages[0]["op"] == "bandpass":
        key = json.dumps(
            stages, sort_keys=True, separators=(",", ":"), default=lambda v: np.asarray(v).tolist()
        )
        fold = _band_response(key, x.shape[-1], sample_rate)
    if fold is None:
        return _apply_per_sample(x, sample_rate, stages)
    return _fold(x, *fold)


def _apply_per_sample(x: np.ndarray, sample_rate: float, stages: list[dict]):
    # I and Q travel as rows 0 and 1 of one array, so each stage runs once
    rate = sample_rate
    iq = None
    kind = "raw"
    for st in stages:
        op = st["op"]
        if op == "bandpass":
            x = dsp.bandpass(x, rate, st["center"], st["half_width"])
        elif op == "demodulate":
            iq = dsp.demodulate(x, rate, st["frequency"])
            kind = "traj"
        elif op == "bin":
            if st["size"] > iq.shape[-1]:
                raise ConfigurationError(
                    f"bin size {st['size']} exceeds the {iq.shape[-1]}-step trajectory"
                )
            iq = dsp.bin_average(iq, st["size"])
            rate = rate / st["size"]
        elif op == "path_transform":
            w = st.get("weights")
            iq = path_transform(iq, None if w is None else np.asarray(w, dtype=float))
        elif op == "integrate":
            iq = iq.mean(axis=-1)
            kind = "point"
    if kind == "raw":
        raise ConfigurationError("stage list never demodulated the trace")
    return kind, np.ascontiguousarray(np.moveaxis(iq, 0, -1)), rate


@functools.lru_cache(maxsize=16)
def _band_response(stages_json: str, n: int, sample_rate: float):
    """In-band bins of the leading bandpass and the response of the rest of
    the stage list to each bin's basis tones ``irfft(e_k)`` and
    ``irfft(1j * e_k)``, in rows 2j and 2j + 1 for ``k = bins[j]``.

    Returns ``(bins, kind, response, out_rate)``, both arrays read-only,
    ``response`` shaped ``(2 * len(bins),) + one trace's output shape``; or
    ``None`` when the per-bin sum would take more than ``FOLD_MAX_TERMS``
    multiply-adds per raw sample (a wide band without binning), where the
    per-sample chain is faster.
    """
    stages = json.loads(stages_json)
    bp = stages[0]
    bins = dsp.band_bins(n, sample_rate, bp["center"], bp["half_width"])
    _, probe, _ = apply_stages(np.zeros((1, n)), sample_rate, stages[1:])
    if 2 * len(bins) * probe.size > FOLD_MAX_TERMS * n:
        return None
    rows = np.arange(len(bins))
    unit = np.zeros((2 * len(bins), n // 2 + 1), dtype=complex)
    unit[2 * rows, bins] = 1.0
    unit[2 * rows + 1, bins] = 1j
    tones = np.fft.irfft(unit, n=n, axis=-1)
    kind, response, rate = apply_stages(tones, sample_rate, stages[1:])
    bins.flags.writeable = response.flags.writeable = False
    return bins, kind, response, rate


def _fold(x: np.ndarray, bins: np.ndarray, kind: str, response: np.ndarray, rate: float):
    """The stage list evaluated on the in-band ``rfft`` coefficients.

    The bandpass output is ``sum_k Re X_k * irfft(e_k) + Im X_k *
    irfft(1j * e_k)`` over the in-band bins k, and every later stage is
    linear, so the chain's output is the same sum over the responses of the
    rest of the list to those basis tones.  Each output element is summed
    over the coefficients in index order by elementwise adds (a reduction
    over a non-contiguous axis), never by a BLAS product, so a shot's row
    has the same bytes in any batch and at any thread count.  Blocks of
    rows keep the product temporary near ``SUM_BLOCK`` elements.
    """
    # (batch, 2 * bins) reals: Re X_k, Im X_k per in-band bin, as the rows
    coeffs = np.ascontiguousarray(np.fft.rfft(x, axis=-1)[:, bins]).view(float)
    flat = response.reshape(len(response), math.prod(response.shape[1:]))
    out = np.empty((len(x), flat.shape[1]))
    step = max(1, SUM_BLOCK // max(flat.size, 1))
    for r in range(0, len(x), step):
        out[r : r + step] = (coeffs[r : r + step, :, None] * flat).sum(axis=1)
    return kind, out.reshape((len(x),) + response.shape[1:]), rate


def preprocess_batch(shots: list[RawShot], stages: list[dict]):
    """Stage application over many shots, ``CHUNK`` shots at a time.

    Returns the same ``(kind, array, rate)`` triple as :func:`apply_stages`
    with the batch axis first.  Chunking bounds peak memory; results are
    identical to one big call because every stage is per-trace.  The shots
    must share length and rate and have only finite samples (``DataError``
    naming the first bad shot otherwise).
    """
    if not shots:
        raise ConfigurationError("no shots to preprocess")
    _, rate = shot_format(shots)
    blocks = []
    for start in range(0, len(shots), CHUNK):
        block = np.stack([s.samples for s in shots[start : start + CHUNK]])
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            k = start + int(np.argmin(finite))
            raise DataError(f"shot {k} (shot_id {shots[k].shot_id}) has non-finite samples")
        block = block.astype(float)
        kind, arr, out_rate = apply_stages(block, rate, stages)
        blocks.append(arr)
    return kind, np.concatenate(blocks, axis=0), out_rate


def integrated_points(shots: list[RawShot], frequency: float) -> np.ndarray:
    """Plain demodulate-and-average I-Q points, the baseline representation
    used both by the gmm model and by confidence weighting."""
    stages = [{"op": "demodulate", "frequency": frequency}, {"op": "integrate"}]
    _, pts, _ = preprocess_batch(shots, stages)
    return pts


def _model_inputs(desc: dict, kind: str, arr: np.ndarray, lstm_dtype=np.float64):
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

    @property
    def name(self) -> str:
        return self.descriptor.get("name", "pipeline")

    def _check_shots(self, shots: list[RawShot]) -> None:
        if not shots:
            raise ConfigurationError("no shots to classify")
        n = len(shots[0].samples)
        if n != self.input_length:
            raise IncompatibilityError(
                f"pipeline was trained on {self.input_length}-sample shots, got {n}"
            )

    def _inputs(self, shots: list[RawShot]) -> np.ndarray:
        self._check_shots(shots)
        kind, arr, _ = preprocess_batch(shots, self.descriptor["stages"])
        return _model_inputs(self.descriptor, kind, arr)

    def predict(self, shots: list[RawShot]) -> np.ndarray:
        return self.model.predict(self._inputs(shots))

    def predict_proba(self, shots: list[RawShot]) -> np.ndarray:
        return self.model.predict_proba(self._inputs(shots))

    def predict_one(self, shot: RawShot) -> int:
        return int(self.predict([shot])[0])

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        meta = {"pipeline": self.descriptor, "input_length": self.input_length}
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
        input_length = meta.get("input_length")
        if not is_size(input_length):
            raise FileFormatError(
                f"{sidecar} has no valid input_length (an integer >= 1): {input_length!r}"
            )
        return cls(descriptor=desc, model=model, input_length=input_length)


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
    the sample's own label.
    """
    shots = list(dataset)
    if not shots:
        raise ConfigurationError("cannot train a pipeline on zero shots")
    desc = normalize_descriptor(descriptor)
    labels = np.array([s.label for s in shots], dtype=int)
    input_length = len(shots[0].samples)
    if input_length == 0:
        raise DataError("cannot train a pipeline on shots with no samples")

    kind, arr, _ = preprocess_batch(shots, desc["stages"])
    X = _model_inputs(desc, kind, arr, lstm_dtype=np.float32)

    if desc["model"]["kind"] == "gmm":
        model = GmmClassifier.fit(X, labels)
        return TrainedPipeline(descriptor=desc, model=model, input_length=input_length)

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
    model = (LstmNetwork if arch["kind"] == "lstm" else DenseNetwork).from_arch(arch, seed=tc.seed)
    train(model, X, labels, weights=weights, config=tc, log_fn=log_fn)
    return TrainedPipeline(descriptor=desc, model=model, input_length=input_length)


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
