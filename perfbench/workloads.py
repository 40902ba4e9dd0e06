"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process.  It builds
its inputs from the seed alone and calls only the public ``readoutkit`` API.
``setup`` prepares what the timed job needs; ``run_pass`` runs the timed job
once and checks its outputs, counting failed checks instead of raising.
Steps are timed with a ``Clock`` (see ``clock.py``): ``clock.mark()``
between them samples the machine's speed, and that sampling is left out of
the steps' time.

Spans opened here mark the benchmark's own calls into each layer; the
wrappers in ``tracing.py`` add the layers underneath.  With the
``NullTracer`` of an untraced run the spans cost nothing measurable.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import readoutkit as rk


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  ``FULL`` is the benchmark; ``TINY`` only exercises
    every code path for the self-check."""

    headline_shots_per_state: int = 5000
    headline_nn_frac: float = 0.75  # share of the 80% train split the LSTM sees
    headline_epochs: int = 20
    classify_shots_per_state: int = 1000
    classify_train_frac: float = 0.2
    classify_epochs: int = 2
    classify_loop_shots: int = 1000
    ingest_shots_per_state: int = 6000
    warmup_shots_per_state: int = 200


FULL = Sizes()
TINY = Sizes(
    headline_shots_per_state=60,
    headline_epochs=1,
    classify_shots_per_state=60,
    classify_epochs=1,
    classify_loop_shots=40,
    ingest_shots_per_state=60,
    warmup_shots_per_state=10,
)

# Non-default physics for ingest: phase noise takes the per-shot phase
# random walk instead of a fixed carrier, and heralding makes the path scan
# reject attempts.
INGEST_PHASE_NOISE = 0.002
INGEST_HERALD_ERROR = 0.05


class Workload:
    """Shared bookkeeping: generation facts for the per-layer metrics."""

    name = ""
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.reset_facts()

    def reset_facts(self):
        self.facts = {"generated": [], "shots_generated": 0, "attempts": 0, "dataset_bytes": 0}

    def generate(self, tr, cfg, shots_per_state):
        with tr.span("sim.generate_dataset"):
            ds = rk.generate_dataset(cfg, shots_per_state)
        self.facts["generated"].append((cfg, shots_per_state))
        self.facts["shots_generated"] += len(ds)
        # shot ids are attempt ids, and the scan stops on an accepted attempt
        self.facts["attempts"] += max(s.shot_id for s in ds.shots) + 1
        return ds


class Headline(Workload):
    """One reduced a06 seed: simulate, split, fit and score the Gaussian
    baseline, train and score ``bandpass_lstm``, attribute disagreements."""

    name = "headline"
    # report names of the generic result_s and throughput_per_s
    aliases = {"result_s": "headline_s", "throughput_per_s": "train_shot_epochs_per_s"}

    def setup(self, tr, clock):
        # first calls into every stage, at toy size, so the timed pass
        # starts warm
        self._pipeline(tr, clock, self.sizes.warmup_shots_per_state, 1)

    def run_pass(self, tr, clock):
        return self._pipeline(
            tr, clock, self.sizes.headline_shots_per_state, self.sizes.headline_epochs
        )

    def _pipeline(self, tr, clock, shots_per_state, epochs):
        t0, w0 = clock.mark(), clock.wall
        cfg = rk.SimConfig(seed=self.seed)
        ds = self.generate(tr, cfg, shots_per_state)
        clock.mark()
        with tr.span("evaluation.stratified_split"):
            train_shots, test_shots = rk.stratified_split(ds.shots)
            nn_train, _ = rk.stratified_split(train_shots, train_frac=self.sizes.headline_nn_frac)
        pipes = rk.standard_pipelines(frequency=cfg.f_if)
        with tr.span("pipeline.train_pipeline"):
            gmm = rk.train_pipeline(train_shots, pipes["gmm"])
        with tr.span("evaluation.evaluate"):
            rep_g = rk.evaluate(gmm, test_shots)
        desc = pipes["bandpass_lstm"]
        desc["train"] = {"epochs": epochs, "learning_rate": 1e-3, "seed": self.seed}
        t_train = clock.mark()
        with tr.span("pipeline.train_pipeline"):
            # the per-epoch progress callback samples the machine's speed
            lstm = rk.train_pipeline(nn_train, desc, log_fn=lambda record: clock.mark())
        train_s = clock.mark() - t_train
        with tr.span("evaluation.evaluate"):
            rep_l = rk.evaluate(lstm, test_shots)
        with tr.span("evaluation.disagreements"):
            dis = rk.disagreements(test_shots, rep_l.predictions, rep_g.predictions, cfg.f_if)
        result_s = clock.mark() - t0
        result_wall_s = clock.wall - w0

        # the model file as save_model writes it; rk.save_model is not the
        # name the traced wrappers replace, so checks add no serialize spans
        model_path = self.workdir / "headline.rkm"
        rk.save_model(lstm.model, model_path)

        share = dis.transition_fraction()
        in_band = 0.93 <= rep_g.average <= 0.97
        return {
            "result_s": result_s,
            "result_wall_s": result_wall_s,
            "throughput_per_s": len(nn_train) * epochs / train_s,
            "attempted": 1,
            "failed": 0 if in_band else 1,
            "failures": [] if in_band else [f"gmm_fidelity {rep_g.average:.4f} outside [0.93, 0.97]"],
            "report": {
                "gmm_fidelity": (rep_g.average, "ratio"),
                "lstm_fidelity": (rep_l.average, "ratio"),
                "fidelity_gap": (rep_l.average - rep_g.average, "ratio"),
                "transition_share": (math.nan if share is None else share, "ratio"),
                "lstm_only_wins": (len(dis.primary_only_correct), "count"),
                "n_test": (len(test_shots), "count"),
            },
            "hashes": {
                "lstm_model_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
                "lstm_predictions_sha256": hashlib.sha256(
                    rep_l.predictions.astype("<i8").tobytes()
                ).hexdigest(),
                "gmm_predictions_sha256": hashlib.sha256(
                    rep_g.predictions.astype("<i8").tobytes()
                ).hexdigest(),
            },
        }

    @staticmethod
    def summarize(passes):
        return passes[0]["report"]


class Classify(Workload):
    """Inference only: model save/load, batch predict with three pipelines,
    and a warm closed loop of single-shot ``predict_one``."""

    name = "classify"
    aliases = {"throughput_per_s": "classify_shots_per_s"}
    PIPELINES = ("gmm", "bandpass_lstm", "signature_dense")

    def setup(self, tr, clock):
        cfg = rk.SimConfig(seed=self.seed)
        ds = self.generate(tr, cfg, self.sizes.classify_shots_per_state)
        clock.mark()
        with tr.span("evaluation.stratified_split"):
            train_shots, test_shots = rk.stratified_split(
                ds.shots, train_frac=self.sizes.classify_train_frac
            )
        # brief training: the weights do not change the inference cost
        train = {"epochs": self.sizes.classify_epochs, "learning_rate": 1e-3, "seed": self.seed}
        pipes = rk.standard_pipelines(frequency=cfg.f_if, train=train)
        self.pipelines = {}
        for name in self.PIPELINES:
            with tr.span("pipeline.train_pipeline"):
                self.pipelines[name] = rk.train_pipeline(train_shots, pipes[name])
            clock.mark()
        self.test_shots = test_shots
        n_loop = min(self.sizes.classify_loop_shots, len(test_shots))
        self.loop_idx = np.linspace(0, len(test_shots) - 1, n_loop).astype(int)

    def run_pass(self, tr, clock):
        t0, w0 = clock.mark(), clock.wall
        loaded = {}
        for name, pipe in self.pipelines.items():
            path = self.workdir / f"{name}.rkm"
            pipe.save(path)
            loaded[name] = rk.TrainedPipeline.load(path)
        t_batch = t_end = clock.mark()
        preds = {}
        for name, pipe in loaded.items():
            with tr.span("pipeline.predict"):
                preds[name] = pipe.predict(self.test_shots)
            t_end = clock.mark()
        batch_s = t_end - t_batch
        one_model = loaded["bandpass_lstm"]
        one = np.empty(len(self.loop_idx), dtype=int)
        latencies = np.empty(len(self.loop_idx))
        for k, i in enumerate(self.loop_idx):
            t = time.perf_counter()
            with tr.span("pipeline.predict_one"):
                one[k] = one_model.predict_one(self.test_shots[i])
            latencies[k] = time.perf_counter() - t
            if k % 100 == 99:
                clock.mark()
        result_s = clock.mark() - t0
        result_wall_s = clock.wall - w0

        mismatched = int(np.sum(one != preds["bandpass_lstm"][self.loop_idx]))
        non_finite = [
            name
            for name, pipe in loaded.items()
            if not np.all(np.isfinite(pipe.predict_proba(self.test_shots)))
        ]
        failures = [f"{name}: non-finite probabilities" for name in non_finite]
        if mismatched:
            failures.append(f"predict_one differs from batch predict on {mismatched} shots")
        return {
            "result_s": result_s,
            "result_wall_s": result_wall_s,
            "throughput_per_s": len(self.test_shots) / batch_s,
            "attempted": len(self.loop_idx) + len(loaded),
            "failed": mismatched + len(non_finite),
            "failures": failures,
            "latencies": latencies,
        }

    @staticmethod
    def summarize(passes):
        lat_ms = np.concatenate([p["latencies"] for p in passes]) * 1e3
        p50, p99 = np.percentile(lat_ms, [50, 99])
        return {
            "predict_one_p50_ms": (float(p50), "ms"),
            "predict_one_p99_ms": (float(p99), "ms"),
            "predict_one_samples": (len(lat_ms), "count"),
        }


class Ingest(Workload):
    """Non-default physics at a larger shot count: generate, save, reload
    with path regeneration, and verify every shot's round trip."""

    name = "ingest"
    aliases = {"throughput_per_s": "ingest_shots_per_s"}
    FIELDS = ("samples", "label", "herald_pass", "shot_id", "true_path")

    def config(self):
        return rk.SimConfig(
            seed=self.seed,
            phase_noise_sigma=INGEST_PHASE_NOISE,
            herald_error=INGEST_HERALD_ERROR,
        )

    def setup(self, tr, clock):
        # one toy-size round trip so the timed pass starts warm
        self._round_trip(tr, clock, self.sizes.warmup_shots_per_state)

    def run_pass(self, tr, clock):
        return self._round_trip(tr, clock, self.sizes.ingest_shots_per_state)

    def _round_trip(self, tr, clock, shots_per_state):
        path = self.workdir / "ingest.rkd"
        t0, w0 = clock.mark(), clock.wall
        ds = self.generate(tr, self.config(), shots_per_state)
        clock.mark()
        with tr.span("dataio.save_dataset"):
            rk.save_dataset(ds, path)
        clock.mark()
        with tr.span("dataio.load_dataset"):
            back = rk.load_dataset(path, regenerate=True)
        result_s = clock.mark() - t0
        result_wall_s = clock.wall - w0
        self.facts["dataset_bytes"] += path.stat().st_size + Path(f"{path}.json").stat().st_size

        mismatch = dict.fromkeys(self.FIELDS, 0)
        failed = odd_ids = 0
        for k, (a, b) in enumerate(zip(ds.shots, back.shots)):
            bad = [
                f
                for f, same in (
                    ("samples", np.array_equal(a.samples, b.samples)),
                    ("label", a.label == b.label),
                    ("herald_pass", a.herald_pass == b.herald_pass),
                    ("shot_id", a.shot_id == b.shot_id),
                    ("true_path", a.true_path == b.true_path),
                )
                if not same
            ]
            for f in bad:
                mismatch[f] += 1
            # Known defect (ROADMAP item 2): the v1 format stores no shot_id
            # and load_dataset numbers shots by row, so with heralding every
            # shot after the first rejected attempt loads with its row index
            # as id.  That loss is counted in roundtrip_lost_shot_id and
            # printed on every run, but is not a failed operation here; an
            # id that is neither the generated one nor the row index is.
            known = bad == ["shot_id"] and b.shot_id == k
            failed += bool(bad) and not known
            odd_ids += "shot_id" in bad and b.shot_id != k
        missing = abs(len(ds) - len(back))
        failures = [
            f"{f} lost on {n} shots" for f, n in mismatch.items() if n and f != "shot_id"
        ]
        if odd_ids:
            failures.append(f"shot_id neither kept nor the row index on {odd_ids} shots")
        known = mismatch["shot_id"] - odd_ids
        known_defects = [f"shot_id replaced by the row index on {known} shots"] if known else []
        if missing:
            failures.append(f"{missing} shots lost")
        return {
            "result_s": result_s,
            "result_wall_s": result_wall_s,
            "throughput_per_s": len(ds) / result_s,
            "attempted": len(ds),
            "failed": failed + missing,
            "failures": failures,
            "known_defects": known_defects,
            "mismatch": mismatch,
        }

    @staticmethod
    def summarize(passes):
        return {
            f"roundtrip_lost_{field}": (sum(p["mismatch"][field] for p in passes), "count")
            for field in Ingest.FIELDS
        }


WORKLOADS = {w.name: w for w in (Headline, Classify, Ingest)}

