"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks the result
line against BENCHMARK.json. Also checks that a tail percentile without ten
samples beyond it is refused, that worker usage merges to the same counts as
an in-process run, that a wrapped function the package no longer has is
reported as a missing span, and that the command fails without printing a
result where there are no sources to measure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_tiny_runs(spec) -> None:
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, expected in ((0, gated), (1, layered)):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            assert proc.returncode == 0, proc.stderr
            info_line, result_line = proc.stdout.strip().splitlines()[-2:]
            result, info = json.loads(result_line), json.loads(info_line)
            assert set(result) == RESULT_KEYS, result
            assert result["correct"] is True and result["failed"] == 0, info["problems"]
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected, (workload, trace, units)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            digests[trace] = info["digests"]
            if trace:
                assert info["missing_spans"] == [], info["missing_spans"]
                assert len(set(info["digests"])) == 1, "traced and untraced outputs differ"
        assert digests[0][0] == digests[1][0], f"{workload}: trace 0 and 1 unit 0 outputs differ"
        print(f"ok  tiny {workload}")


def check_tail_percentile() -> None:
    import workloads

    assert workloads.tail_percentile(range(100), 0.9) == 89
    try:
        workloads.tail_percentile(range(99), 0.9)
    except ValueError:
        pass
    else:
        raise AssertionError("p90 of 99 samples has 9 beyond it and must be refused")
    print("ok  tail percentile refused without 10 samples beyond it")


def check_usage_merge() -> None:
    import numpy as np
    import tracing
    from entailshift import FeaturizerConfig, featurize

    config = FeaturizerConfig(dim=2**10)
    cells = [["a b c", "b c d", "a b c"], ["a b c", "x y z"], ["x y z", "q r"]]
    sequential = tracing.Usage()
    merged = tracing.Usage()
    for texts in cells:
        cell = tracing.Usage()
        for text in texts:
            fv = featurize(text, config)
            sequential.featurized(text, config, fv)
            cell.featurized(text, config, fv)
        merged.merge(cell.portable())
    assert merged.counts == sequential.counts, (merged.counts, sequential.counts)
    assert sequential.counts["featurize_repeats"] == 3
    assert np.array_equal(merged._keys[(config.dim, 0)], sequential._keys[(config.dim, 0)])
    print("ok  worker usage merges to the in-process counts")


def check_missing_span() -> None:
    import tracing

    saved = tracing.LAYER_FUNCTIONS
    tracing.LAYER_FUNCTIONS = saved + (("entailshift.model", "no_such_function", "model.x"),)
    try:
        tracer = tracing.Tracer().install()
        tracer.uninstall()
    finally:
        tracing.LAYER_FUNCTIONS = saved
    assert tracer.missing == ["entailshift.model.no_such_function"], tracer.missing
    print("ok  a function the package lacks is reported as a missing span")


def check_bare_directory() -> None:
    bare = HERE / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(["--workload", "news_repair", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    print("ok  no sources: exits", proc.returncode, "without a result")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_tail_percentile()
    check_usage_merge()
    check_missing_span()
    check_bare_directory()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
