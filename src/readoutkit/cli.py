"""Command-line interface.

Subcommands cover the full workflow: ``simulate`` writes shot datasets,
``train`` fits a pipeline, ``evaluate`` scores a saved model, ``compare``
runs a trained pipeline head-to-head against the integration baseline,
``export`` converts data for external tools, and ``inspect`` prints file
metadata.

Exit status: 0 on success, 2 for configuration or validation problems,
3 for numerical failures during training, 4 for unreadable or corrupt
files.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import evaluation, pipeline as pl
from .dataio import (
    canonical_json,
    config_hash,
    export_csv,
    load_dataset,
    read_sidecar,
    regenerate_truth,
    save_dataset,
    sidecar_path,
)
from .errors import (
    ConfigurationError,
    DataError,
    FileFormatError,
    IncompatibilityError,
    NumericalError,
)
from .nn import load_model
from .sim import Dataset, SimConfig, decay_statistics, generate_dataset


def _load_sim_config(args) -> SimConfig:
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise FileFormatError(f"cannot read config: {e}") from e
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigurationError(f"config is not valid JSON: {e}") from e
        cfg = SimConfig.from_dict(raw)
    else:
        cfg = SimConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _resolve_descriptor(spec: str, dataset: Dataset) -> dict:
    """The stock pipeline or JSON file ``spec`` names, validated."""
    cfg = dataset.config or SimConfig()
    stock = pl.standard_pipelines(frequency=cfg.f_if)
    if spec in stock:
        return pl.normalize_descriptor(stock[spec])
    p = Path(spec)
    if p.exists():
        try:
            return pl.normalize_descriptor(json.loads(p.read_text()))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigurationError(f"pipeline file is not valid JSON: {e}") from e
    raise ConfigurationError(
        f"unknown pipeline {spec!r}; use one of {sorted(stock)} or a JSON file path"
    )


def _log_epoch(rec: dict) -> None:
    print(f"epoch {rec['epoch'] + 1:>3}  loss {rec['loss']:.6f}  lr {rec['lr']:.3e}")


def cmd_simulate(args) -> int:
    cfg = _load_sim_config(args)
    dataset = generate_dataset(cfg, args.shots_per_state)
    save_dataset(dataset, args.out)
    decays = decay_statistics(dataset)
    print(f"wrote {len(dataset)} shots ({args.shots_per_state} per state) to {args.out}")
    print(f"samples per shot: {cfg.n_samples}, sample rate: {cfg.sample_rate} /ns")
    print(f"config sha256: {config_hash(cfg.to_dict())}")
    for s in sorted(decays):
        print(f"state {s}: decayed fraction {decays[s]:.4f}")
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    desc = _resolve_descriptor(args.pipeline, dataset)
    if args.seed is not None:
        desc.setdefault("train", {})["seed"] = args.seed
    train_shots, test_shots = evaluation.stratified_split(dataset.shots)
    fitted = pl.train_pipeline(train_shots, desc, log_fn=_log_epoch)
    extra = {"train_shots": len(train_shots), "test_shots_held_out": len(test_shots)}
    if dataset.config is not None:
        extra["data_config_sha256"] = config_hash(dataset.config.to_dict())
    fitted.save(args.out, extra_meta=extra)
    print(f"trained {fitted.name} on {len(train_shots)} shots; model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    fitted = pl.TrainedPipeline.load(args.model)
    dataset = load_dataset(args.data)
    _, test_shots = evaluation.stratified_split(dataset.shots)
    report = evaluation.evaluate(fitted, test_shots)
    print(evaluation.fidelity_table([report]))
    print()
    print(evaluation.confusion_table(report))
    if args.out:
        payload = report.to_dict()
        if dataset.config is not None:
            payload["data_config_sha256"] = config_hash(dataset.config.to_dict())
        Path(args.out).write_text(canonical_json(payload) + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    dataset = load_dataset(args.data)
    if dataset.config is not None:
        # ground truth for the disagreement forensics; a sidecar that does
        # not reproduce the data is an error, not a reason to go without
        regenerate_truth(dataset, args.data)
    desc_primary = _resolve_descriptor(args.pipeline, dataset)
    desc_baseline = _resolve_descriptor(args.baseline, dataset)
    if args.seed is not None:
        desc_primary.setdefault("train", {})["seed"] = args.seed
    train_shots, test_shots = evaluation.stratified_split(dataset.shots)

    baseline = pl.train_pipeline(train_shots, desc_baseline)
    primary = pl.train_pipeline(train_shots, desc_primary, log_fn=_log_epoch)

    comparison = evaluation.compare_pipelines(primary, baseline, test_shots)
    rep_p, rep_b = comparison.primary, comparison.baseline
    print()
    print(evaluation.fidelity_table([rep_b, rep_p]))
    gap_text = f"{comparison.gap:+.4f} +/- {comparison.gap_stderr:.4f} (paired stderr)"
    print(f"\naverage fidelity gap ({rep_p.name} - {rep_b.name}): {gap_text}")
    summary = comparison.disagreements.summary()
    print(f"shots only {rep_p.name} got right: {summary['primary_only_correct']}")
    print(f"shots only {rep_b.name} got right: {summary['baseline_only_correct']}")
    print(f"shots both missed: {summary['both_wrong']}")
    frac = summary["primary_only_transition_fraction"]
    if frac is not None:
        print(f"fraction of {rep_p.name}-only wins with a mid-readout transition: {frac:.3f}")

    # warm latency: the first call pays one-off set-up, so it is not timed
    primary.predict_one(test_shots[0])
    seconds = []
    for shot in test_shots[:100]:
        t0 = time.perf_counter()
        primary.predict_one(shot)
        seconds.append(time.perf_counter() - t0)
    latency_ms = statistics.median(seconds) * 1e3
    # nearest rank: of 100 calls, the 90th fastest, with ten calls beyond it
    latency_p90_ms = sorted(seconds)[math.ceil(0.9 * len(seconds)) - 1] * 1e3
    print(
        f"single-shot classification latency: {latency_ms:.2f} ms median,"
        f" {latency_p90_ms:.2f} ms p90 ({len(seconds)} warm calls)"
    )

    if args.out:
        payload = {
            **comparison.to_dict(),
            "latency_ms": latency_ms,
            "latency_p90_ms": latency_p90_ms,
        }
        if dataset.config is not None:
            payload["data_config_sha256"] = config_hash(dataset.config.to_dict())
        Path(args.out).write_text(canonical_json(payload) + "\n")
        print(f"comparison written to {args.out}")
    return 0


def cmd_export(args) -> int:
    if args.max_shots is not None and args.max_shots < 1:
        raise ConfigurationError(f"--max-shots must be >= 1, not {args.max_shots}")
    dataset = load_dataset(args.data)
    dataset = Dataset(shots=dataset.shots[: args.max_shots], config=dataset.config)
    if args.format == "csv":
        n = export_csv(dataset, args.out)
        print(f"wrote {n} shots to {args.out}")
    else:
        cfg = dataset.config or SimConfig()
        pts = pl.integrated_points(dataset.shots, cfg.f_if)
        evaluation.scatter_svg(pts, dataset.labels, args.out)
        print(f"wrote scatter of {len(dataset)} integrated shots to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    if args.data:
        dataset = load_dataset(args.data)
        print(f"dataset: {args.data}")
        print(f"shots: {len(dataset)}")
        counts = dataset.counts()
        print("per state: " + ", ".join(f"{s}: {counts[s]}" for s in sorted(counts)))
        print(f"samples per shot: {len(dataset.shots[0].samples)}")
        print(f"sample rate: {dataset.shots[0].sample_rate} /ns")
        if dataset.config is not None:
            print(f"config sha256: {config_hash(dataset.config.to_dict())}")
            print(f"config: {canonical_json(dataset.config.to_dict())}")
    else:
        load_model(args.model)  # a dataset or any other file is refused, as evaluate does
        meta = read_sidecar(sidecar_path(args.model), "model")
        print(f"model: {args.model}")
        for key in sorted(meta):
            print(f"{key}: {canonical_json(meta[key])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readoutkit",
        description="Simulate qutrit readout traces and train shot classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled shot dataset")
    p.add_argument("--config", help="JSON file of simulator settings")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--shots-per-state", type=int, default=1000)
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a pipeline on a dataset's train split")
    p.add_argument("--data", required=True)
    p.add_argument("--pipeline", default="bandpass_lstm", help="stock name or JSON file")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on the held-out split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train and compare a pipeline against a baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--pipeline", default="bandpass_lstm")
    p.add_argument("--baseline", default="gmm")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--out", help="optional JSON summary path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="convert a dataset to CSV or an I-Q scatter SVG")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--max-shots", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("inspect", help="print dataset or model metadata")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data")
    group.add_argument("--model")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, IncompatibilityError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        where = f" (batch {e.batch_index})" if e.batch_index is not None else ""
        print(f"numerical failure: {e}{where}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as e:
        print(f"file error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
