"""The three benchmark workloads, driven only through entailshift's public functions.

Each workload builds its inputs from the benchmark seed, runs units of work,
and returns what it measured together with a digest of its outputs. Package
functions are looked up through module attributes at call time (for example
``experiment.run_experiment``), so the tracer's wrappers see every call.

- ``retail_grid``: a serial ``run_experiment`` grid on ``retail_shift`` plus
  ``save_result``/``emit_report``. Every cell re-featurizes the same test
  set of two-segment K=4 texts and half the cells retrain an identical-data
  pre-shift model, so input reuse is high.
- ``news_pool``: a ``run_experiment`` grid on ``news_shift`` at the full
  1,200-example budget through a two-process pool. Training dominates, and
  it is the only workload that pays pool start-up and task shipping.
- ``news_repair``: 100 independent few-shot repairs, serial. Each draws 10
  examples with ``budget_subset`` from its own slice of the pool, adapts
  ``entail`` and scores a 200-example test batch. No text repeats across
  repairs, so input-level caches cannot help here.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import entailshift
from entailshift import corpus, experiment, methods, stats, synth

WORKLOADS = ("retail_grid", "news_pool", "news_repair")

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND_TAIL = 10


def tail_percentile(samples, q: float) -> float:
    """The q-quantile by nearest rank; refused when fewer than 10 samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND_TAIL}"
        )
    return ordered[rank - 1]


@dataclass
class UnitOutcome:
    """What one unit of work produced and how long it took."""

    seconds: float
    attempted: int
    failed: int
    f1s: list[float]
    digest: str
    problems: list[str] = field(default_factory=list)
    cell_seconds: list[float] = field(default_factory=list)


def _f1_problems(f1s) -> list[str]:
    return [f"macro-F1 {v!r} is not a finite value in [0, 1]"
            for v in f1s if not (math.isfinite(v) and 0.0 <= v <= 1.0)]


# ---------------------------------------------------------------------------
# Experiment grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    preset: str
    methods: tuple
    budgets: tuple
    seeds: int
    workers: int
    save: bool
    overrides: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.methods) * len(self.budgets) * self.seeds


_RETAIL_METHODS = (
    {"kind": "entail", "catalog_id": "en-retail"},
    {"kind": "entail", "catalog_id": "en-retail", "prompt_variant": "random"},
    {"kind": "finetuned"},
    {"kind": "pre_shift_only"},
)
_NEWS_METHODS = (
    {"kind": "entail", "catalog_id": "en-news"},
    {"kind": "finetuned"},
    {"kind": "finetuned_post_only"},
    {"kind": "l1l2"},
)

GRIDS = {
    "retail_grid": {
        # 100 examples per topic: 300 pre-shift training examples and a
        # 100-example test set, so one 16-cell grid takes about 10 s on a
        # 2-core Xeon and several fit in one run.
        "full": Grid("retail_shift", _RETAIL_METHODS, (10, 100), 2, 1, True, {"n_per_topic": 100}),
        "tiny": Grid("retail_shift", _RETAIL_METHODS, (10,), 1, 1, True, {"n_per_topic": 20}),
    },
    "news_pool": {
        "full": Grid("news_shift", _NEWS_METHODS, ("full",), 2, 2, False),
        "tiny": Grid("news_shift", _NEWS_METHODS, ("full",), 1, 2, False, {"n_per_topic": 30}),
    },
}


def grid_config(name: str, size: str, seed: int, unit: int, out_dir: Path):
    grid = GRIDS[name][size]
    return entailshift.ExperimentConfig.from_dict({
        "name": f"perfbench-{name}",
        "master_seed": entailshift.derive_seed("perfbench", name, seed, unit),
        "data": {"synth": {"preset": grid.preset, "overrides": dict(grid.overrides)}},
        "methods": [dict(m) for m in grid.methods],
        "budgets": list(grid.budgets),
        "seeds": grid.seeds,
        "output_dir": str(out_dir),
    })


def grid_setup(name: str, size: str, seed: int, out_dir: Path):
    """What precedes the first cell: the parsed config and the prepared data."""
    return experiment.prepare_data(grid_config(name, size, seed, 0, out_dir))


def run_grid(name: str, size: str, seed: int, unit: int, out_dir: Path, tracer) -> UnitOutcome:
    grid = GRIDS[name][size]
    config = grid_config(name, size, seed, unit, out_dir)
    start = time.perf_counter()
    result = experiment.run_experiment(config, workers=grid.workers)
    if grid.save:
        experiment.save_result(result, out_dir)
        experiment.emit_report(result, out_dir)
    seconds = time.perf_counter() - start

    tracer.harvest(result.scores + result.failures)
    f1s = [s.macro_f1 for s in result.scores]
    problems = _f1_problems(f1s)
    problems += [f"cell {f.method}/{f.budget}/{f.seed} failed: {f.error}" for f in result.failures]
    attempted = len(result.scores) + len(result.failures)
    if attempted != grid.cells:
        problems.append(f"{attempted} cells came back from a {grid.cells}-cell grid")
    if grid.save:
        raw_grid = (out_dir / experiment.RAW_GRID_FILENAME).read_bytes()
        reloaded = experiment.render_raw_grid(experiment.load_result(out_dir))
        if reloaded.encode("utf-8") != raw_grid:
            problems.append("raw_grid.csv differs from the grid re-rendered from result.json")
    else:
        raw_grid = experiment.render_raw_grid(result).encode("utf-8")
    if raw_grid.count(b"\n") != len(result.scores) + 1:
        problems.append("raw_grid.csv does not hold one row per completed cell")
    return UnitOutcome(
        seconds=seconds,
        attempted=attempted,
        failed=len(result.failures),
        f1s=f1s,
        digest=hashlib.sha256(raw_grid).hexdigest(),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Few-shot repairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Repairs:
    repairs: int
    test_per_topic: int   # per repair; news_shift has 3 relevant topics to 1 irrelevant
    pool_per_topic: int   # per repair, the slice its few-shot draw comes from
    budget: int = 10


REPAIRS = {
    "full": Repairs(repairs=100, test_per_topic=50, pool_per_topic=5),
    "tiny": Repairs(repairs=10, test_per_topic=5, pool_per_topic=5),
}
_REPAIR_SPEC = methods.MethodSpec(kind="entail", catalog_id="en-news")


@dataclass(frozen=True)
class RepairInputs:
    master_seed: int
    budget: int
    batches: tuple   # (pool slice, test batch) per repair


def _deal(dataset, parts: int):
    """Split a dataset into ``parts`` disjoint slices, each stratified by post label."""
    slices = [[] for _ in range(parts)]
    for members in dataset.by_post_label().values():
        for i, example in enumerate(members):
            slices[i % parts].append(example)
    return [
        entailshift.Dataset(tuple(s), dataset.pre_labels, dataset.post_labels, dataset.name)
        for s in slices
    ]


def repair_setup(size: str, seed: int, tracer=None) -> RepairInputs:
    """Generate the corpus and draw every repair's pool slice and test batch."""
    plan = REPAIRS[size]
    master_seed = entailshift.derive_seed("perfbench", "news_repair", seed)
    per_topic = plan.repairs * (plan.test_per_topic + plan.pool_per_topic)
    with tracer.region("corpus.prepare_data") if tracer else contextlib.nullcontext():
        data = synth.synth_generate(
            synth.preset_config("news_shift", n_per_topic=per_topic),
            seed=entailshift.derive_seed(master_seed, "synth"),
        )
        pool, test = corpus.split(
            data,
            test_fraction=plan.test_per_topic / (plan.test_per_topic + plan.pool_per_topic),
            seed=entailshift.derive_seed(master_seed, "split"),
        )
        batches = tuple(zip(_deal(pool, plan.repairs), _deal(test, plan.repairs)))
    return RepairInputs(master_seed=master_seed, budget=plan.budget, batches=batches)


def _independent_macro_f1(gold, predicted, labels) -> float:
    f1s = []
    for label in labels:
        tp = sum(g == label and p == label for g, p in zip(gold, predicted))
        fp = sum(g != label and p == label for g, p in zip(gold, predicted))
        fn = sum(g == label and p != label for g, p in zip(gold, predicted))
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(f1s) / len(f1s)


class _RepairLog:
    """Latencies, F1s, checks and the output digest of one pass over the repairs."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.f1s, self.latencies, self.problems = [], [], []
        self.failed = 0

    def repair(self, inputs: RepairInputs, r: int) -> None:
        pool, batch = inputs.batches[r]
        began = time.perf_counter()
        try:
            post_train = experiment.budget_subset(pool, inputs.budget, inputs.master_seed, r)
            spec = _REPAIR_SPEC.with_seed(entailshift.derive_seed(inputs.master_seed, "repair", r))
            predictions = methods.run_method(spec, pool, post_train, batch)
            gold = [ex.post_label for ex in batch]
            predicted = [predictions[ex.id] for ex in batch]
            confusion = stats.confusion_from_predictions(gold, predicted, batch.post_labels)
            macro = float(stats.per_class_f1(confusion).mean())
        except Exception as exc:  # a failed repair is counted, the run goes on
            self.failed += 1
            self.problems.append(f"repair {r} failed: {type(exc).__name__}: {exc}")
            return
        finally:
            self.latencies.append(time.perf_counter() - began)
        if set(predictions) != {ex.id for ex in batch}:
            self.problems.append(f"repair {r} predicted a different id set than its batch")
        if abs(macro - _independent_macro_f1(gold, predicted, batch.post_labels)) > 1e-12:
            self.problems.append(f"repair {r}: stats macro-F1 {macro!r} disagrees with a recount")
        self.f1s.append(macro)
        for ex, label in zip(batch, predicted):
            self.digest.update(f"{ex.id}\t{label}\n".encode("utf-8"))

    def outcome(self) -> UnitOutcome:
        return UnitOutcome(
            seconds=sum(self.latencies),
            attempted=len(self.latencies),
            failed=self.failed,
            f1s=self.f1s,
            digest=self.digest.hexdigest(),
            problems=self.problems + _f1_problems(self.f1s),
            cell_seconds=self.latencies,
        )


def run_repairs(passes) -> list[UnitOutcome]:
    """Every repair once per (inputs, tracer) pass, the passes interleaved repair by repair.

    With two passes (untraced and traced) each repair runs under both before
    the next begins, alternating which goes first, so host speed drift falls
    on both alike. A tracer is installed only around its own pass's repairs.
    """
    logs = [_RepairLog() for _ in passes]
    for r in range(len(passes[0][0].batches)):
        order = list(range(len(passes)))
        for i in order if r % 2 == 0 else order[::-1]:
            inputs, tracer = passes[i]
            if tracer is not None:
                tracer.install()
            try:
                logs[i].repair(inputs, r)
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return [log.outcome() for log in logs]
