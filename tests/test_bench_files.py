"""The committed before/after benchmark records agree with ``BENCHMARK.json``.

Every ``BENCH_*.json`` at the repository root quotes a change's end-to-end
figures against its parent's. Each must parse, name only workloads and
end-to-end metrics that ``BENCHMARK.json`` declares, and give both sides'
median for every metric it quotes. Nothing here runs the benchmark.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = record["workloads"]
    assert workloads and set(workloads) <= WORKLOADS, sorted(set(workloads) - WORKLOADS)
    for workload, entries in workloads.items():
        # Metric records are objects; the other entries are plain run facts.
        metrics = {name: entry for name, entry in entries.items() if isinstance(entry, dict)}
        assert metrics, f"{workload} quotes no metric"
        assert set(metrics) <= set(METRICS), (workload, sorted(set(metrics) - set(METRICS)))
        for name, entry in metrics.items():
            if "better" in entry:
                assert entry["better"] == METRICS[name]["better"], (workload, name)
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, (int, float)) and not isinstance(median, bool), (
                    workload, name, side)
                assert math.isfinite(median), (workload, name, side)
