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
``bin`` only after it; ``integrate`` only as the final stage, required by
and exclusive to the ``gmm`` model.  ``uniform`` is the only weighting and
``signature`` the only dense feature type; a descriptor naming any other,
a saved model's included, is refused.

The front end returns one array: ``(batch, steps, 2)`` I-Q trajectories,
or ``(batch, 2)`` points after ``integrate``.  A stage list that starts
with ``bandpass`` runs on its in-band DFT bins: one ``rfft`` per trace, a
gather of the bins :func:`dsp.band_bins` keeps, and a sum of their real
and imaginary parts against the response of the rest of the list to each
bin's basis tone.  The responses come from the per-sample code itself, run
once on the basis tones and cached per stage list (keyed by its canonical
JSON on every call, so an edited list gets its own), trace length and rate.
Every stage after the bandpass is linear, so this is the same map and
agrees with the per-sample chain to rounding, without the complex FFT pair
and the per-sample mixing.  The sum adds the terms in coefficient index
order with elementwise operations (one reduce for a lone shot, a running
sum for a block), so a shot's output does not depend on the batch it is in
or on the BLAS thread count.  Where the sum would cost
more than the per-sample chain (a wide band without binning), the
per-sample chain runs instead, over pieces of at most ``PIECE`` traces.

:func:`preprocess_batch` runs each ``BATCH_BLOCK`` of shots as one row
slice per usable CPU, the calling thread taking the first and a pool of
long-lived threads, one per process, the others.  numpy's ``rfft`` and
its elementwise loops release the interpreter lock, so the slices run at
once; the stages are per trace and call no BLAS, so every shot's row has
the bytes it has without threads.  The networks, the signatures and the
gmm model stay on the calling thread.
"""

from __future__ import annotations

import copy
import functools
import json
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dataio import canonical_json, read_sidecar, record_dtype, sidecar_path
from .errors import NON_NEGATIVE, POSITIVE, REQUIRED, SIZE, ConfigurationError, DataError
from .errors import Field, FileFormatError, IncompatibilityError, check, is_finite_number, is_size
from .gmm import GmmClassifier
from .nn.dense import DenseNetwork
from .nn.loss import batch_blocks
from .nn.lstm import LstmNetwork
from .nn.optim import TrainConfig
from .nn.serialize import HIDDEN, LSTM_HIDDEN, OUTPUT, OUTPUT_BIAS, load_model, save_model
from .nn.train import train
from .pathsig import batch_signature, signature_length
from .sim import STATES, RawShot, _usable_cpus, shot_format

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
}
WEIGHTING_FIELDS = {"uniform": {}}
# the bin-domain front end: at most this many multiply-adds per raw sample
# (it costs as much as the per-sample chain at about 10 on 2000-sample
# traces and 6 on 400-sample ones; the stock pipelines need 1)
FOLD_MAX_TERMS = 8
# the per-sample chain runs over pieces of at most this many traces: its
# (2, rows, n) demodulated copy is 1 MiB for 2000-sample traces, where a
# 256-shot block's would be 8 MiB, and each front-end thread's malloc arena
# keeps the largest such buffer after it is freed
PIECE = 32


def normalize_descriptor(desc: dict) -> dict:
    """Fill defaults and validate; returns a deep copy safe to serialize.

    Each mapping is held to its table above, and the stage list to the
    stage rules, so a bad descriptor raises ``ConfigurationError``.  The
    one check that needs the trace length, a ``bin`` longer than the
    trajectory, runs when the stages meet the data.
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
        # an empty batch still runs once, for its output's shape
        parts = [
            _apply_per_sample(x[k : k + PIECE], sample_rate, stages)
            for k in range(0, len(x) or 1, PIECE)
        ]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]
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
    rest of the list to those basis tones.  The sum adds the terms in
    coefficient index order, starting from the first term (zeros for an
    empty band), by elementwise operations, never by a BLAS product, so a
    shot's row has the same bytes in any batch and at any thread count.

    A lone shot (every ``predict_one``) sums all its terms with one
    ``np.add.reduce`` over the term axis, which is not the innermost axis,
    so numpy adds term after term in index order, exactly as the running
    sum does; its (1, terms, outputs) temporary is 16 KB for the stock
    stages.  A block keeps the running sum, two ufunc calls per term, whose
    temporaries stay one term's size where a block-wide reduce was measured
    slower.
    """
    if not len(response):
        return np.zeros((len(x),) + response.shape[1:])
    # (batch, 2 * bins) reals: Re X_k, Im X_k per in-band bin, as the rows
    coeffs = np.ascontiguousarray(np.fft.rfft(x, axis=-1)[:, bins]).view(float)
    coeffs = coeffs.reshape(coeffs.shape + (1,) * (response.ndim - 1))
    if len(x) == 1:
        return np.add.reduce(coeffs * response, axis=1)
    out = coeffs[:, 0] * response[0]
    for j in range(1, len(response)):
        out += coeffs[:, j] * response[j]
    return out


def preprocess_batch(shots: list[RawShot], stages: list[dict]) -> np.ndarray:
    """Stage application over many shots, ``BATCH_BLOCK`` shots at a time,
    each block split into one row slice per usable CPU.

    Returns the same array as :func:`apply_stages`, the batch axis first.
    The calling thread runs a block's first slice and this process's
    front-end threads (:func:`_front_end_pool`, cached per process id) run
    the others; each slice stacks its shots straight into float64 (exact
    for float32 samples), checks them and runs the stages, and its rows go
    into one preallocated output.  The next block starts when every slice
    of this one has finished, so memory is bounded by one block, not by the
    shots.  Every stage works per trace and calls no BLAS, so a shot's row
    has the same bytes in any block, in any slice and at any thread count.
    A one-shot call (every ``predict_one``) is one slice and runs inline
    without looking up the threads.  This is where training and prediction
    check their shots, before the stages run on them:

    - the list is not empty (``ConfigurationError``);
    - the shots share length and rate (``DataError``, from :func:`shot_format`);
    - they have samples (``DataError``);
    - every sample is finite (``DataError`` naming the first bad shot).

    A slice's error is raised only after every slice of its block has
    finished, and the error of the first slice in shot order wins, so a
    non-finite sample is named as it would be without threads.
    """
    if not shots:
        raise ConfigurationError("no shots to preprocess")
    n, rate = shot_format(shots)
    if n == 0:
        raise DataError("the shots have no samples")
    count, pool = (1, None) if len(shots) == 1 else _front_end_pool(os.getpid())
    out = None
    for s in batch_blocks(len(shots)):
        size = min(s.stop, len(shots)) - s.start
        parts = min(count, size)
        pieces = [
            slice(s.start + size * i // parts, s.start + size * (i + 1) // parts)
            for i in range(parts)
        ]
        futures = []
        try:
            for piece in pieces[1:]:
                futures.append(pool.submit(_stage_rows, shots, piece, rate, stages))
            block = _stage_rows(shots, pieces[0], rate, stages)
        finally:
            if futures:
                wait(futures)
        if out is None:
            out = np.empty((len(shots),) + block.shape[1:], dtype=block.dtype)
        out[pieces[0]] = block
        for piece, future in zip(pieces[1:], futures):
            out[piece] = future.result()
    return out


def _stage_rows(shots: list[RawShot], rows: slice, rate: float, stages: list[dict]) -> np.ndarray:
    """One slice of :func:`preprocess_batch`: stack, check, run the stages."""
    block = np.stack([shot.samples for shot in shots[rows]], dtype=float)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        k = rows.start + int(np.argmin(finite))
        raise DataError(f"shot {k} (shot_id {shots[k].shot_id}) has non-finite samples")
    return apply_stages(block, rate, stages)


@functools.cache
def _front_end_pool(pid: int) -> tuple[int, ThreadPoolExecutor | None]:
    """This process's front-end threads, cached by ``pid`` (``os.getpid()``):
    one slice per usable CPU (``os.sched_getaffinity``, or 1 where that call
    is missing), the calling thread running the first.  A forked child's pid
    misses the cache it inherits, so it makes its own pool; two threads that
    race here may each make one, and the one not kept lets its threads exit."""
    count = _usable_cpus()
    return count, ThreadPoolExecutor(count - 1, "readoutkit-front-end") if count > 1 else None


def demodulation_frequency(desc: dict) -> float:
    """The frequency of the descriptor's ``demodulate`` stage."""
    return next(st["frequency"] for st in desc["stages"] if st["op"] == "demodulate")


def integrated_points(shots: list[RawShot], frequency: float) -> np.ndarray:
    """Plain demodulate-and-average I-Q points, the gmm baseline's
    representation: the disagreement report's points and the SVG export's."""
    stages = [{"op": "demodulate", "frequency": frequency}, {"op": "integrate"}]
    return preprocess_batch(shots, stages)


def _model_inputs(desc: dict, arr: np.ndarray):
    """Map preprocessed output onto the model's input: the gmm model takes
    it as it is, a dense model its signatures, and an lstm model its
    float32 copy, the dtype it trains and predicts in (see ``nn.lstm``)."""
    if desc["model"]["kind"] == "lstm":
        return arr.astype(np.float32)
    if desc["model"]["kind"] != "dense":
        return arr
    return batch_signature(arr, desc["model"]["features"]["order"])


@dataclass
class TrainedPipeline:
    """A fitted pipeline: descriptor, trained model, and the trace length
    and sample rate it was trained at.  It holds nothing derived from them,
    so a prediction runs the descriptor as it stands."""

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
        gmm = arch["kind"] == "gmm"
        classes, takes = (
            (arch["n_classes"], arch["dim"]) if gmm else (arch["output_dim"], arch["input_dim"])
        )
        if classes > len(STATES):
            raise FileFormatError(
                f"{path} holds a {classes}-class model; shots have {len(STATES)} states"
            )
        # the feature width, from the stages run on one zero trace of a
        # length some dataset record holds; a signature's comes from its
        # path width, so none is computed here
        n, rate = meta["input_length"], meta["sample_rate"]
        record_dtype(n, f"{sidecar} input_length")
        try:
            probe = apply_stages(np.zeros((1, n)), rate, desc["stages"])
        except ConfigurationError as e:
            raise FileFormatError(f"{sidecar}'s stages fail on a {n}-sample trace: {e}") from e
        width = probe.shape[-1]
        if desc["model"]["kind"] == "dense":
            width = signature_length(width, desc["model"]["features"]["order"])
        if width != takes:
            raise FileFormatError(
                f"{sidecar}'s stages give {width} features per shot; the model in {path} "
                f"takes {takes}"
            )
        return cls(desc, model, n, rate)


def train_pipeline(shots: list[RawShot], descriptor: dict, log_fn=None) -> TrainedPipeline:
    """Fit the descriptor's model on the given shots.

    The gmm model is a closed-form fit; lstm and dense run the mini-batch
    trainer with the descriptor's optimization block, an lstm on float32
    input against float64 weights (see ``nn.lstm``), as it predicts, every
    shot weighing the same.  :func:`preprocess_batch` checks the shots.
    """
    desc = normalize_descriptor(descriptor)
    X = _model_inputs(desc, preprocess_batch(shots, desc["stages"]))
    # preprocess_batch has checked that every shot shares the first's format
    input_length, sample_rate = len(shots[0].samples), shots[0].sample_rate
    labels = np.array([s.label for s in shots], dtype=int)

    if desc["model"]["kind"] == "gmm":
        return TrainedPipeline(desc, GmmClassifier.fit(X, labels), input_length, sample_rate)

    tc = TrainConfig.from_dict(desc.get("train", {}))
    arch = {**desc["model"], "input_dim": X.shape[-1], "output_dim": int(labels.max()) + 1}
    arch.pop("features", None)  # the dense model's feature map, not a network argument
    model = (LstmNetwork if arch["kind"] == "lstm" else DenseNetwork).from_arch(arch, seed=tc.seed)
    train(model, X, labels, config=tc, log_fn=log_fn)
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
