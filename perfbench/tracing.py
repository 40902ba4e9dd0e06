"""Span tracer for the benchmark's traced run, and the wrappers it installs.

Tracing lives entirely in the benchmark process: :func:`instrumented`
replaces library functions at the attribute each caller looks up (module
globals such as ``readoutkit.dsp.bandpass``, class attributes such as
``LstmNetwork.forward``), records one span per call, and puts the originals
back when the block exits.  Spans stay in memory as plain dicts until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

from readoutkit import Adam, DenseNetwork, GmmClassifier, LstmNetwork

# by module path: the package re-exports ``train``, which hides the
# ``readoutkit.nn.train`` submodule behind the function of the same name
_sim = importlib.import_module("readoutkit.sim")
_dataio = importlib.import_module("readoutkit.dataio")
_dsp = importlib.import_module("readoutkit.dsp")
_pipeline = importlib.import_module("readoutkit.pipeline")
_nn_train = importlib.import_module("readoutkit.nn.train")


class NullTracer:
    """Tracer used by untraced runs: every hook is a no-op."""

    @contextmanager
    def span(self, name, **counts):
        yield None


class Tracer:
    """Nested spans on ``perf_counter``.

    Each span is ``{"id", "name", "parent", "start", "end", "counts"}``;
    ``parent`` is the id of the span open when it started.  ``counters``
    holds event counts recorded without a span (calls too small and too
    frequent to time one by one).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def inside(self, name) -> bool:
        return any(s["name"] == name for s in self._stack)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds (total minus
        the time covered by direct child spans) and summed counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = out.setdefault(
                s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[s["id"]]
            for k, v in s["counts"].items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return out


def lstm_forward_flops(model, x_shape) -> int:
    """Matmul FLOPs (2 per multiply-add) of one forward pass, from shapes."""
    T, N, d = x_shape
    flops = 0
    for h in model.hidden:
        flops += 2 * T * N * d * 4 * h + 2 * T * N * h * 4 * h
        d = h
    return flops + 2 * N * d * model.output_dim


def lstm_backward_flops(model, x_shape) -> int:
    """Matmul FLOPs of one backward pass: recurrent deltas, the three weight
    gradients and the input gradient per layer, plus the readout."""
    T, N, d = x_shape
    flops = 0
    for h in model.hidden:
        flops += 2 * T * N * 4 * h * h  # dz @ Wh.T per step
        flops += 2 * T * N * d * 4 * h  # dWx
        flops += 2 * (T - 1) * N * h * 4 * h  # dWh
        flops += 2 * T * N * 4 * h * d  # dx
        d = h
    return flops + 4 * N * d * model.output_dim


def signature_madds_per_path(n_points: int, dim: int, order: int) -> int:
    """Multiply-adds of ``batch_signature`` per path: for each of the
    ``n_points - 1`` segments, the tensor exponential (dim**k products per
    level) and the Chen product (k + 1 outer products of dim**k entries per
    level k)."""
    per_step = sum(dim**k for k in range(1, order + 1))
    per_step += sum((k + 1) * dim**k for k in range(order + 1))
    return (n_points - 1) * per_step


@contextmanager
def instrumented(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, make):
        orig = vars(owner)[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def timed(name, counts=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name, **(counts(*args, **kwargs) if counts else {})):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def count_draws(fn):
        # one call per shot attempt: counted, not timed
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.inside("sim.path_scan"):
                tracer.count("sim.path_draws")
            return fn(*args, **kwargs)

        return wrapper

    def rows(x, *args, **kwargs):
        return {"traces": x.shape[0] if x.ndim > 1 else 1}

    def bandpass_counts(x, sample_rate, center, half_width):
        # the keep rule of dsp.bandpass, applied to the call's shape
        n = x.shape[-1]
        freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
        kept = int(np.sum(np.abs(np.abs(freqs) - center) <= half_width))
        traces = rows(x)["traces"]
        return {"traces": traces, "bins_kept": traces * kept, "bins": traces * n}

    def signature_counts(paths, order):
        nb, n, dim = paths.shape
        return {"paths": nb, "madds": nb * signature_madds_per_path(n, dim, order)}

    def train_counts(model, X, labels, weights=None, config=None, log_fn=None):
        lstm = isinstance(model, LstmNetwork)
        return {"epochs": config.epochs, "lstm_epochs": config.epochs if lstm else 0}

    def lstm_forward(fn):
        @functools.wraps(fn)
        def wrapper(self, x):
            if tracer.inside("nn.train"):
                name = "nn.lstm.forward_train"
            elif x.shape[1] == 1:
                name = "nn.lstm.forward_infer_b1"
            else:
                name = "nn.lstm.forward_infer_batch"
            with tracer.span(name, batch=x.shape[1], flops=lstm_forward_flops(self, x.shape)):
                return fn(self, x)

        return wrapper

    def lstm_backward(fn):
        @functools.wraps(fn)
        def wrapper(self, cache, dlogits):
            flops = lstm_backward_flops(self, cache[2])
            with tracer.span("nn.lstm.backward", flops=flops):
                return fn(self, cache, dlogits)

        return wrapper

    def dense_forward(fn):
        @functools.wraps(fn)
        def wrapper(self, x):
            phase = "train" if tracer.inside("nn.train") else "infer"
            with tracer.span(f"nn.dense.forward_{phase}", batch=x.shape[0]):
                return fn(self, x)

        return wrapper

    def gmm_fit(cm):
        fit = cm.__func__

        def wrapper(cls, points, labels):
            with tracer.span("gmm.fit", points=len(points)):
                return fit(cls, points, labels)

        return classmethod(functools.wraps(fit)(wrapper))

    try:
        patch(_sim, "sample_state_path", count_draws)
        patch(_dataio, "regenerate_paths", timed("sim.regenerate_paths"))
        patch(_dsp, "bandpass", timed("dsp.bandpass", bandpass_counts))
        patch(_dsp, "demodulate", timed("dsp.demodulate", rows))
        patch(_dsp, "bin_average", timed("dsp.bin", rows))
        patch(_pipeline, "preprocess_batch", timed("pipeline.preprocess"))
        patch(_pipeline, "batch_signature", timed("pathsig.batch_signature", signature_counts))
        patch(_pipeline, "train", timed("nn.train", train_counts))
        patch(_pipeline, "save_model", timed("nn.serialize.save"))
        patch(_pipeline, "load_model", timed("nn.serialize.load"))
        patch(_nn_train, "weighted_cross_entropy", timed("nn.loss"))
        patch(LstmNetwork, "forward", lstm_forward)
        patch(LstmNetwork, "backward", lstm_backward)
        patch(DenseNetwork, "forward", dense_forward)
        patch(Adam, "step", timed("nn.optim.adam"))
        patch(GmmClassifier, "fit", gmm_fit)
        patch(GmmClassifier, "predict", timed("gmm.predict"))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run.

    ``facts`` carries what the workload knows from outside the trace:
    ``shots_generated``, ``attempts`` (herald attempts behind them),
    ``dataset_bytes`` and ``overhead_s``.  A layer the workload never calls
    reads 0.
    """
    agg = tracer.summary()

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def counted(name, key):
        return agg.get(name, {}).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    shots = facts["shots_generated"]
    gen_s = total("sim.generate_dataset")
    sig_s = total("pathsig.batch_signature")
    fwd_s = total("nn.lstm.forward_train")
    bwd_s = total("nn.lstm.backward")
    lstm_flops = counted("nn.lstm.forward_train", "flops") + counted("nn.lstm.backward", "flops")
    save_s = total("dataio.save_dataset")
    regen_s = total("sim.regenerate_paths")
    load_s = total("dataio.load_dataset") - regen_s
    mb = facts["dataset_bytes"] / 1e6
    return {
        "sim.generate_s": (gen_s, "s"),
        "sim.path_scan_s": (total("sim.path_scan"), "s"),
        "sim.shots_per_s": (ratio(shots, gen_s), "1/s"),
        "sim.path_draws_per_shot": (ratio(tracer.counters.get("sim.path_draws", 0), shots), "count"),
        "sim.herald_accept_ratio": (ratio(shots, facts["attempts"]), "ratio"),
        "dsp.bandpass_s": (total("dsp.bandpass"), "s"),
        "dsp.demodulate_s": (total("dsp.demodulate"), "s"),
        "dsp.bin_s": (total("dsp.bin"), "s"),
        "dsp.bandpass_bins_kept_ratio": (
            ratio(counted("dsp.bandpass", "bins_kept"), counted("dsp.bandpass", "bins")),
            "ratio",
        ),
        "pipeline.preprocess_s": (total("pipeline.preprocess"), "s"),
        "pipeline.preprocess_self_s": (self_time("pipeline.preprocess"), "s"),
        "pathsig.batch_signature_s": (sig_s, "s"),
        "pathsig.paths_per_s": (ratio(counted("pathsig.batch_signature", "paths"), sig_s), "1/s"),
        "pathsig.madds_per_path_computed": (
            ratio(
                counted("pathsig.batch_signature", "madds"),
                counted("pathsig.batch_signature", "paths"),
            ),
            "count",
        ),
        "nn.lstm.forward_train_s": (fwd_s, "s"),
        "nn.lstm.backward_s": (bwd_s, "s"),
        "nn.loss_s": (total("nn.loss"), "s"),
        "nn.optim.adam_s": (total("nn.optim.adam"), "s"),
        "nn.train.epoch_s": (ratio(total("nn.train"), counted("nn.train", "epochs")), "s"),
        "nn.train.batches": (agg.get("nn.optim.adam", {}).get("calls", 0), "count"),
        "nn.lstm.gflops": (ratio(lstm_flops, fwd_s + bwd_s) / 1e9, "GFLOP/s"),
        "nn.lstm.flops_per_epoch_computed": (
            ratio(lstm_flops, counted("nn.train", "lstm_epochs")),
            "flop",
        ),
        "nn.lstm.forward_infer_b1_s": (total("nn.lstm.forward_infer_b1"), "s"),
        "nn.lstm.forward_infer_batch_s": (total("nn.lstm.forward_infer_batch"), "s"),
        "nn.dense.forward_s": (total("nn.dense.forward_infer"), "s"),
        "nn.serialize.save_s": (total("nn.serialize.save"), "s"),
        "nn.serialize.load_s": (total("nn.serialize.load"), "s"),
        "gmm.fit_s": (total("gmm.fit"), "s"),
        "gmm.predict_s": (total("gmm.predict"), "s"),
        "evaluation.split_s": (total("evaluation.stratified_split"), "s"),
        "evaluation.evaluate_s": (self_time("evaluation.evaluate"), "s"),
        "evaluation.disagreements_s": (total("evaluation.disagreements"), "s"),
        "dataio.save_s": (save_s, "s"),
        "dataio.load_s": (load_s, "s"),
        "dataio.load_regen_s": (regen_s, "s"),
        "dataio.bytes": (facts["dataset_bytes"], "B"),
        "dataio.save_MBps": (ratio(mb, save_s), "MB/s"),
        "dataio.load_MBps": (ratio(mb, load_s), "MB/s"),
        "trace.overhead_s": (facts["overhead_s"], "s"),
    }
