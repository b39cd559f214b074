"""Benchmark of entailshift: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retail_grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, output digests and the figures that are not gated.
Progress goes to standard error. Workloads and metrics are described in
``perfbench/README.md``.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
DIGESTS = OUT / "digests.json"
SETUP_PROBES = 5
# Grids always run this many units, so macro_f1_mean covers the same cells on every run.
MIN_GRID_UNITS = 2
PROBE_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import entailshift from this checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    if not (src / "entailshift" / "__init__.py").is_file():
        fail(f"no entailshift sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import entailshift

    if not Path(entailshift.__file__).resolve().is_relative_to(src):
        fail(f"imported entailshift from {entailshift.__file__}, not from {src}")
    return entailshift


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a few seconds, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def log(message: str) -> None:
    print(f"[perfbench {time.perf_counter() - STARTED:7.2f}s] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workloads, args):
    """Everything before the first cell, as a fresh process does it."""
    if args.workload == "news_repair":
        return workloads.repair_setup(args.size, args.seed)
    return workloads.grid_setup(args.workload, args.size, args.seed, OUT / args.workload)


def probe_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter until it has finished set-up."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code} before finishing set-up")
    return samples


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------


def grid_unit(workloads, args, unit: int, tracer):
    with tracer.installed():
        outcome = workloads.run_grid(
            args.workload, args.size, args.seed, unit, OUT / args.workload, tracer)
    outcome.cell_seconds = tracer.cell_seconds[-outcome.attempted:]
    return outcome


def timed_repair_setup(workloads, args, tracer=None):
    start = time.perf_counter()
    if tracer is None:
        inputs = workloads.repair_setup(args.size, args.seed)
    else:
        with tracer.installed():
            inputs = workloads.repair_setup(args.size, args.seed, tracer)
    return inputs, time.perf_counter() - start


def warm_up(workloads, tracing, args) -> None:
    """One tiny unit first, so imports, allocator and page cache are warm."""
    tiny = argparse.Namespace(**{**vars(args), "size": "tiny", "seed": args.seed + 1_000_003})
    if args.workload == "news_repair":
        inputs, _ = timed_repair_setup(workloads, tiny)
        workloads.run_repairs([(inputs, None)])
    else:
        grid_unit(workloads, tiny, 0, tracing.Tracer(layers=False))


def timed_run(workloads, tracing, args):
    """Grid units back to back until --seconds is used up, or the repairs once."""
    if args.workload == "news_repair":
        inputs, _ = timed_repair_setup(workloads, args)
        return workloads.run_repairs([(inputs, None)])
    tracer = tracing.Tracer(layers=False)
    outcomes, elapsed = [], 0.0
    while True:
        outcome = grid_unit(workloads, args, len(outcomes), tracer)
        outcomes.append(outcome)
        elapsed += outcome.seconds
        log(f"unit {len(outcomes) - 1}: {outcome.attempted} cells in {outcome.seconds:.2f}s")
        # Stop where the next unit would end further past --seconds than now.
        if len(outcomes) >= MIN_GRID_UNITS and elapsed + outcome.seconds / 2 >= args.seconds:
            return outcomes


def traced_run(workloads, tracing, args):
    """Unit 0 traced, each piece paired with an untraced twin so host speed drift cancels.

    Repairs alternate untraced and traced repair by repair; grid cells run
    next to an untraced twin inside the cell wrapper. Returns every outcome
    (the traced one last), the tracer and the tracing overhead in seconds.
    """
    tracer = tracing.Tracer()
    if args.workload == "news_repair":
        plain_inputs, plain_setup = timed_repair_setup(workloads, args)
        traced_inputs, traced_setup = timed_repair_setup(workloads, args, tracer)
        untraced, traced = workloads.run_repairs([(plain_inputs, None), (traced_inputs, tracer)])
        overhead = traced.seconds + traced_setup - untraced.seconds - plain_setup
        return [untraced, traced], tracer, overhead
    traced = grid_unit(workloads, args, 0, tracer)
    if tracer.twin_mismatches:
        traced.problems.append(
            f"{tracer.twin_mismatches} grid cells scored differently traced and untraced")
    return [traced], tracer, sum(tracer.cell_seconds) - sum(tracer.twin_seconds)


EXPECTED_SPANS = {
    "retail_grid": ("synth.generate", "corpus.prepare_data", "corpus.budget_subset",
                    "methods.run_method", "reformulate.augment", "reformulate.predict",
                    "model.featurize", "model.train", "model.score", "stats",
                    "experiment.run_experiment", "experiment.cell", "experiment.save_emit"),
    "news_pool": ("synth.generate", "corpus.prepare_data", "methods.run_method",
                  "reformulate.augment", "reformulate.predict", "model.featurize",
                  "model.train", "model.score", "stats", "experiment.run_experiment",
                  "experiment.cell"),
    "news_repair": ("synth.generate", "corpus.prepare_data", "corpus.budget_subset",
                    "methods.run_method", "reformulate.augment", "reformulate.predict",
                    "model.featurize", "model.train", "model.score", "stats"),
}


def layer_metrics(tracer, overhead: float, failed: int, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced unit, and the spans that were missing."""
    self_time, total = tracer.layer_times()
    counts = tracer.usage.counts
    seen = {span[0] for span in tracer.spans}
    missing = tracer.missing + [
        f"{name} (no span recorded)" for name in EXPECTED_SPANS[workload] if name not in seen]

    def share(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    seconds = {
        "synth.generate_s": self_time["synth.generate"],
        "corpus.prepare_data_s": self_time["corpus.prepare_data"],
        "corpus.budget_subset_s": self_time["corpus.budget_subset"],
        "reformulate.augment_s": self_time["reformulate.augment"],
        "reformulate.predict_s": self_time["reformulate.predict"],
        "model.featurize_s": self_time["model.featurize"],
        "model.train_s": self_time["model.train"],
        "model.score_s": self_time["model.score"],
        "methods.run_method_s": total["methods.run_method"],
        "methods.self_s": self_time["methods.run_method"],
        "stats.s": self_time["stats"],
        "experiment.self_s": self_time["experiment.run_experiment"] + self_time["experiment.cell"],
        "experiment.save_emit_s": self_time["experiment.save_emit"],
        "trace.overhead_s": overhead,
    }
    numbers = {
        "reformulate.augment_samples": counts["reformulate.augment_samples"],
        "reformulate.candidates_scored": counts["reformulate.candidates_scored"],
        "model.featurize_calls": counts["model.featurize_calls"],
        "model.featurize_nnz": counts["model.featurize_nnz"],
        "model.train_calls": counts["model.train_calls"],
        "model.train_samples": counts["model.train_samples"],
        "model.train_batches": counts["model.train_batches"],
        "model.score_calls": counts["model.score_calls"],
        "experiment.cell_failures": failed,
        "trace.missing_spans": len(missing),
    }
    shares = {
        "model.featurize_repeat_share": share("featurize_repeats", "model.featurize_calls"),
        "model.feature_key_reuse": share("key_repeats", "model.featurize_nnz"),
    }
    metrics = {name: {"value": value, "unit": "s"} for name, value in seconds.items()}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in numbers.items()})
    metrics.update({name: {"value": value, "unit": "share"} for name, value in shares.items()})
    return metrics, missing


def check_digests(args, outcomes) -> list[str]:
    """Compare each unit's digest with earlier runs of the same seed in this checkout."""
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        recorded = {}
    problems = []
    for unit, outcome in enumerate(outcomes):
        key = f"{args.workload}|{args.size}|{args.seed}|{unit}"
        earlier = recorded.setdefault(key, outcome.digest)
        if earlier != outcome.digest:
            problems.append(f"unit {unit} output digest {outcome.digest[:12]} differs from "
                            f"{earlier[:12]} recorded by an earlier run of seed {args.seed}")
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(recorded, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(scratch, DIGESTS)
    return problems


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup(workloads, args)
        print("ready", flush=True)
        return 0

    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "machine": machine()}
    if not args.trace:
        setup_samples = probe_setup(args)
        log(f"set-up probes: {', '.join(f'{s:.3f}' for s in setup_samples)} s")
    warm_up(workloads, tracing, args)
    log("warm-up done")
    if args.trace:
        outcomes, tracer, overhead = traced_run(workloads, tracing, args)
        metrics, missing = layer_metrics(tracer, overhead, outcomes[-1].failed, args.workload)
        problems = [p for o in outcomes for p in o.problems] + check_digests(args, outcomes[:1])
        if any(o.digest != outcomes[0].digest for o in outcomes):
            problems.append("traced and untraced runs of the same unit produced different outputs")
        info["missing_spans"] = missing
        for name in missing:
            log(f"missing span: {name}")
    else:
        outcomes = timed_run(workloads, tracing, args)
        problems = [p for o in outcomes for p in o.problems] + check_digests(args, outcomes)
        cells = [s for o in outcomes for s in o.cell_seconds]
        f1s = [f for o in outcomes[:MIN_GRID_UNITS] for f in o.f1s]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "cells_per_s": {"value": statistics.median(o.attempted / o.seconds for o in outcomes),
                            "unit": "cells/s"},
            "macro_f1_mean": {"value": statistics.fmean(f1s) if f1s else 0.0, "unit": "F1"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        info["cell_s_p50"] = statistics.median(cells)
        try:
            info["cell_s_p90"] = workloads.tail_percentile(cells, 0.9)
        except ValueError as exc:
            info["cell_s_p90"] = None
            info["cell_s_p90_refused"] = str(exc)
        info["cell_samples"] = len(cells)
        info["setup_samples_s"] = setup_samples

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info["unit_seconds"] = [o.seconds for o in outcomes]
    info["digests"] = [o.digest for o in outcomes]
    info["cell_fail_ratio"] = failed / attempted if attempted else math.nan
    info["problems"] = problems
    for problem in problems:
        log(f"check failed: {problem}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
