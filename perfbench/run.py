"""readoutkit benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process.  Without tracing the last line of output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced pass.  The lines before it name every metric of the workload with
its unit, the output checks, the result hashes and the environment; the same
record, and the spans of a traced run, go to ``perfbench/out/``.

Seed 0 is the default.  Seed 1013 is held out: confirm a claimed gain on it
after the change is written, never tune on it.
"""

from __future__ import annotations

import os

# The BLAS thread count changes trained bytes, so the runner fixes every
# thread variable instead of inheriting it.  This must precede numpy.
for _var in [v for v in os.environ if v.endswith("_NUM_THREADS")] + [
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
]:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
HELDOUT_SEED = 1013
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("headline", "classify", "ingest")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs every code path at toy scale, for the self-check",
    )
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "thread_env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def run_one(args) -> int:
    import readoutkit as rk
    from clock import Clock
    from tracing import NullTracer, Tracer, instrumented, layer_metrics
    from workloads import FULL, TINY, WORKLOADS

    if Path(rk.__file__).resolve().parent != SRC / "readoutkit":
        print(f"perfbench: imported readoutkit from {rk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    spans = None
    try:
        wl = WORKLOADS[args.workload](args.seed, TINY if args.size == "tiny" else FULL, workdir)
        null = NullTracer()
        clock = Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock.mark()
            wl.setup(null, clock)
            setup_times.append(clock.mark() - t0)

        # start another pass only while one more of average length still
        # fits in --seconds; the first pass always runs
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(wl.run_pass(null, clock))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        result_s = statistics.median(p["result_s"] for p in passes)
        result_wall_s = statistics.median(p["result_wall_s"] for p in passes)
        checked = list(passes)

        layers = {}
        if args.trace:
            tracer = Tracer()
            plain_clock = Clock(calibrate=False)
            wl.reset_facts()
            with instrumented(tracer):
                with tracer.span("setup"):
                    wl.setup(tracer, plain_clock)
                with tracer.span("job"):
                    traced = wl.run_pass(tracer, plain_clock)
                # the path scan alone, for each config the run generated
                with tracer.span("probe"):
                    for cfg, shots_per_state in wl.facts["generated"]:
                        with tracer.span("sim.path_scan"):
                            rk.regenerate_paths(cfg, shots_per_state)
            # tracing must not change what the program computes
            traced["attempted"] += 1
            if traced.get("hashes") != passes[0].get("hashes"):
                traced["failed"] += 1
                traced["failures"].append("traced pass changed the result hashes")
            checked.append(traced)
            facts = {**wl.facts, "overhead_s": traced["result_s"] - result_wall_s}
            layers = layer_metrics(tracer, facts)
            spans = {"spans": tracer.spans, "counters": tracer.counters, "summary": tracer.summary()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    failures = [f for p in checked for f in p["failures"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    throughput = statistics.median(p["throughput_per_s"] for p in passes)
    # times are calibrated to the reference speed (clock.py);
    # result_wall_s is the wall-clock figure of result_s
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "result_s": (result_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    report = {
        **end_to_end,
        **{alias: end_to_end[name] for name, alias in wl.aliases.items()},
        "result_wall_s": (result_wall_s, "s"),
        "reference_ms": (clock.reference_ms(), "ms"),
        **wl.summarize(passes),
        "error_rate": (failed / attempted, "ratio"),
        "passes": (len(passes), "count"),
    }
    hashes = passes[0].get("hashes", {})

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**report, **layers}.items():
        print(f"{args.workload} {name} {value} {unit}")
    for name, digest in hashes.items():
        print(f"{args.workload} {name} {digest}")
    for msg in dict.fromkeys(failures):
        print(f"{args.workload} CHECK FAILED: {msg}")
    known_defects = list(dict.fromkeys(f for p in checked for f in p.get("known_defects", [])))
    for msg in known_defects:
        print(f"{args.workload} KNOWN DEFECT: {msg}")

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELDOUT_SEED},
        "trace": args.trace, "size": args.size, "env": env,
        "metrics": as_json(report),
        "per_layer": as_json(layers), "hashes": hashes,
        "checks": {"attempted": attempted, "failed": failed, "failures": list(dict.fromkeys(failures)),
                   "known_defects": known_defects},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(layers if args.trace else end_to_end),
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "readoutkit" / "__init__.py").is_file():
        print(f"perfbench: no readoutkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
