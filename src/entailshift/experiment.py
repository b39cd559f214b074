"""Config-driven experiment matrix runner and report emission.

An experiment is a grid over (method, budget, seed). Every cell samples a
few-shot post-shift training set, runs one method, and scores macro-F1 on a
fixed test set. Cells are individually deterministic, so the grid can run in
parallel and adding a method never perturbs existing cells.

One plan (``_GridPlan``) builds, holds and drops every value that cells
share. A cell reads at most two, each under one key: the test inputs of its
``methods.input_key`` (the test rows per featurizer for the multiclass
heads, the test candidates per (featurizer, catalog) for entail), over row
slices of which it scores its own model; and, for a ``pre_shift_only`` or
``finetuned`` cell, the pre-shift model of its (seed, train, featurizer)
settings. That model never sees the few-shot set, so every budget shares
it; it trains under the ``(master_seed, "pre_shift", seed_index)``
substream. The cells that read one pre-shift model form one group, and every
other cell is a group of one. Each group builds each value it reads that is
not held, runs its cells, then drops every value no later group reads, so a
serial grid holds about one test input set and at most one pre-shift model
at a time. A pool grid builds its test inputs before the pool starts, so its
workers share one build; each worker is handed the plan once, through the
pool initializer, and runs its groups through the same step. A value that
fails to build is held as its error: each cell that reads it fails with it,
and the grid goes on. Training rows stay each cell's own and are featurized
as its fit reads them.

A result holds only what the grid produced; its per-cell aggregates, per-budget
ranking and significance marks are derived from its scores in one place.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .corpus import Dataset, ShiftSpec, apply_shift, fewshot_sample, load_dataset, rebalance, split
from .jsonfiles import read_json, typed_field
from .methods import (
    PRE_SHIFT_KINDS,
    MethodSpec,
    build_inputs,
    check_inputs,
    fit_pre_shift,
    input_key,
    run_method,
)
from .model import FeaturizerConfig, TrainConfig
from .seeding import derive_seed
from .stats import Aggregate, RunScore, aggregate, confusion_from_predictions, mann_whitney_u, per_class_f1
from .synth import PRESETS, SynthConfig, preset_config, synth_generate

SIGNIFICANCE_LEVEL = 0.05
RESULT_FILENAME = "result.json"
RAW_GRID_FILENAME = "raw_grid.csv"
SERIES_FILENAME = "series.csv"
REPORT_FILENAME = "report.md"

# A cell's training seed comes from master_seed, so ``seed`` is not a train key.
_TRAIN_KEYS = ("epochs", "learning_rate", "batch_size", "l2_penalty")
_FEATURIZER_KEYS = tuple(f.name for f in fields(FeaturizerConfig))
_METHOD_KEYS = ("kind", "prompt_variant", "catalog_id", "train", "featurizer", "oversample")
_SYNTH_KEYS = tuple(f.name for f in fields(SynthConfig) if f.name != "shift")  # rules: data.shift


class ConfigError(ValueError):
    """Raised when an experiment config file cannot be interpreted."""


def _check_keys(section: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _parsed(where: str, parse: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
    """``parse(*args, **kwargs)``; a TypeError, ValueError or OSError is a ConfigError at ``where``."""
    try:
        return parse(*args, **kwargs)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _section_config(cls: Callable[..., Any], keys: Sequence[str], template: Mapping[str, Any],
                    overrides: Mapping[str, Any], where: str) -> Any:
    """``cls`` from the template merged with overrides; a bad value is a ConfigError at ``where``."""
    if not isinstance(overrides, Mapping):
        raise ConfigError(f"{where} must be an object, got {overrides!r}")
    merged = {**template, **overrides}
    _check_keys(merged, keys, where)
    return _parsed(where, cls, **merged)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment file: values that share no object with its dict, and that dict's hash."""

    name: str
    data: Mapping[str, Any]
    method_specs: tuple[MethodSpec, ...]
    budgets: tuple[int | str, ...]
    seed_indices: tuple[int, ...]
    master_seed: int
    output_dir: str
    config_sha256: str

    @property
    def method_ids(self) -> tuple[str, ...]:
        return tuple(spec.method_id for spec in self.method_specs)

    @property
    def budget_labels(self) -> tuple[str, ...]:
        return tuple(str(b) for b in self.budgets)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentConfig":
        known = (
            "name", "data", "methods", "budgets", "seeds", "master_seed",
            "train", "featurizer", "output_dir",
        )
        _check_keys(raw, known, "config")
        name = raw.get("name", "experiment")
        if not isinstance(name, str) or not name:
            raise ConfigError("name must be a non-empty string")

        data = _check_data(raw.get("data"))

        master_seed = raw.get("master_seed", 0)
        if not isinstance(master_seed, int) or isinstance(master_seed, bool):
            raise ConfigError("master_seed must be an integer")

        budgets_raw = raw.get("budgets")
        if not isinstance(budgets_raw, Sequence) or isinstance(budgets_raw, str) or not budgets_raw:
            raise ConfigError("budgets must be a non-empty list of positive ints and/or 'full'")
        budgets: list[int | str] = []
        for b in budgets_raw:
            if b == "full":
                budgets.append("full")
            elif isinstance(b, int) and not isinstance(b, bool) and b > 0:
                budgets.append(b)
            else:
                raise ConfigError(f"invalid budget {b!r}: use a positive int or 'full'")
        labels = [str(b) for b in budgets]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate budgets in {labels}")

        seeds_raw = raw.get("seeds", 5)
        if isinstance(seeds_raw, int) and not isinstance(seeds_raw, bool):
            if seeds_raw < 1:
                raise ConfigError("seeds count must be positive")
            seed_indices = tuple(range(seeds_raw))
        elif isinstance(seeds_raw, Sequence) and seeds_raw and all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds_raw
        ):
            if len(set(seeds_raw)) != len(seeds_raw):
                raise ConfigError("seed indices must be distinct")
            seed_indices = tuple(seeds_raw)
        else:
            raise ConfigError("seeds must be a positive count or a non-empty list of ints")

        train_template = raw.get("train", {})
        feat_template = raw.get("featurizer", {})
        if not isinstance(train_template, Mapping) or not isinstance(feat_template, Mapping):
            raise ConfigError("train and featurizer templates must be objects")

        methods_raw = raw.get("methods")
        if not isinstance(methods_raw, Sequence) or not methods_raw:
            raise ConfigError("methods must be a non-empty list")
        specs: list[MethodSpec] = []
        for i, entry in enumerate(methods_raw):
            where = f"methods[{i}]"
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise ConfigError(f"{where}: each method needs at least a 'kind'")
            _check_keys(entry, _METHOD_KEYS, where)
            kwargs = {k: v for k, v in entry.items() if k not in ("train", "featurizer")}
            kwargs["train_config"] = _section_config(
                TrainConfig, _TRAIN_KEYS, train_template, entry.get("train", {}), f"{where}.train")
            kwargs["featurizer"] = _section_config(
                FeaturizerConfig, _FEATURIZER_KEYS, feat_template, entry.get("featurizer", {}),
                f"{where}.featurizer")
            specs.append(_parsed(where, MethodSpec, **kwargs))  # an entail spec reads its catalog here
        ids = [s.method_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate method ids in {ids}")

        output_dir = raw.get("output_dir", os.path.join("results", name))
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir must be a non-empty string")

        return cls(
            name=name,
            data=data,
            method_specs=tuple(specs),
            budgets=tuple(budgets),
            seed_indices=seed_indices,
            master_seed=master_seed,
            output_dir=output_dir,
            config_sha256=config_hash(raw),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """A config file; any problem is a ConfigError naming the file."""
        raw = read_json(path, ConfigError)
        try:
            return cls.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def config_hash(raw: Mapping[str, Any]) -> str:
    """SHA-256 of the raw config without ``output_dir``.

    Where results are written does not change them, so one grid saved to two
    directories gets byte-equal ``result.json`` files.
    """
    kept = {key: value for key, value in raw.items() if key != "output_dir"}
    payload = json.dumps(kept, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Data preparation
# ---------------------------------------------------------------------------


def _synth_config(synth: Any) -> SynthConfig:
    """The generator recipe a ``data.synth`` section names; a bad one is a ConfigError."""
    if not isinstance(synth, Mapping):
        raise ConfigError("data.synth must be an object")
    _check_keys(synth, ("preset", "overrides"), "data.synth")
    preset = synth.get("preset")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"unknown synth preset {preset!r}; choose from {sorted(PRESETS)}")
    return _section_config(functools.partial(preset_config, preset), _SYNTH_KEYS, {},
                           synth.get("overrides", {}), "data.synth.overrides")


def _check_data(data: Any) -> dict[str, Any]:
    """The ``data`` section parsed (``synth`` a SynthConfig, ``shift`` a ShiftSpec), defaults filled in."""
    if not isinstance(data, Mapping):
        raise ConfigError("data section is required and must be an object")
    _check_keys(data, ("synth", "files", "shift", "test_fraction", "rebalance_test"), "data")
    data = {"test_fraction": 0.25, "rebalance_test": True, **data}
    if ("synth" in data) == ("files" in data):
        raise ConfigError("data must name exactly one source: synth or files")
    if "synth" in data:
        data["synth"] = _synth_config(data["synth"])
    else:
        files = data["files"]
        if not isinstance(files, Mapping) or "train" not in files or "test" not in files:
            raise ConfigError("data.files must name 'train' and 'test' paths")
        _check_keys(files, ("train", "test"), "data.files")
        for key in ("train", "test"):
            if not isinstance(files[key], str) or not files[key]:
                raise ConfigError(f"data.files: 'train' and 'test' must be non-empty path strings; "
                                  f"{key} is {files[key]!r}")
        data["files"] = dict(files)
    if "shift" in data:
        if not isinstance(data["shift"], str) or not data["shift"]:
            raise ConfigError(f"data.shift must be a path string naming a file, got {data['shift']!r}")
        data["shift"] = _parsed("data.shift", ShiftSpec.from_file, data["shift"])
    fraction = data["test_fraction"]
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0 < fraction < 1:
        raise ConfigError(f"data.test_fraction must be a number in (0, 1), got {fraction!r}")
    if not isinstance(data["rebalance_test"], bool):
        raise ConfigError(f"data.rebalance_test must be true or false, got {data['rebalance_test']!r}")
    return data


@dataclass(frozen=True)
class PreparedData:
    """The two datasets every cell sees.

    train carries old-concept labels for warm starts and is the reservoir the
    few-shot budgets are drawn from; test is fixed across cells.
    """

    train: Dataset
    test: Dataset


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """The datasets of a parsed config: its dataset files are read here, its shift rules at parse."""
    data = config.data
    if "synth" in data:
        dataset = synth_generate(data["synth"], seed=derive_seed(config.master_seed, "synth"))
        train_ds, test_ds = split(dataset, test_fraction=data["test_fraction"],
                                  seed=derive_seed(config.master_seed, "split"))
    else:
        files = data["files"]
        train_ds, test_ds = load_dataset(files["train"]), load_dataset(files["test"])

    if "shift" in data:
        train_ds, test_ds = apply_shift(train_ds, data["shift"]), apply_shift(test_ds, data["shift"])

    if data["rebalance_test"]:
        test_ds = rebalance(test_ds, seed=derive_seed(config.master_seed, "rebalance"))
    return PreparedData(train=train_ds, test=test_ds)


def budget_subset(pool: Dataset, budget: int | str, master_seed: int, seed_index: int) -> Dataset:
    """The post-shift training set for one cell.

    The sampling stream depends on the seed index but not on the budget or
    the method, so for one seed the N=10 set nests inside the N=100 set and
    every method adapts from identical data.
    """
    if budget == "full":
        return pool
    return fewshot_sample(pool, budget, seed=derive_seed(master_seed, "fewshot", seed_index))


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellFailure:
    method: str
    budget: str
    seed: int
    error: str


@dataclass(frozen=True)
class BudgetSignificance:
    """Best-by-mean method at one budget, tested against every other method."""

    budget: str
    best_method: str
    p_values: tuple[tuple[str, float], ...]
    all_significant: bool


@dataclass(frozen=True)
class ExperimentResult:
    """What one grid produced; every summary of it is derived from ``scores``."""

    name: str
    method_ids: tuple[str, ...]
    budget_labels: tuple[str, ...]
    seed_indices: tuple[int, ...]
    class_labels: tuple[str, ...]
    scores: tuple[RunScore, ...]
    failures: tuple[CellFailure, ...]
    provenance: Mapping[str, str]

    def cell_scores(self, method: str, budget: str) -> list[float]:
        return [s.macro_f1 for s in self.scores if s.method == method and s.budget == budget]

    @functools.cached_property
    def aggregates(self) -> dict[tuple[str, str], Aggregate]:
        """Mean, std and count of every (method, budget) cell with scores, in grid order."""
        cells = ((m, b) for m in self.method_ids for b in self.budget_labels)
        return {cell: aggregate(values) for cell in cells if (values := self.cell_scores(*cell))}

    def ranking(self, budget: str) -> list[str]:
        """Methods with scores at ``budget``, best mean first; ties keep config order."""
        present = [m for m in self.method_ids if (m, budget) in self.aggregates]
        return sorted(present, key=lambda m: -self.aggregates[(m, budget)].mean)

    @functools.cached_property
    def significance(self) -> tuple[BudgetSignificance, ...]:
        """Per budget, the best method's rank test against every other, in config order."""
        tests = []
        for label in self.budget_labels:
            ranked = self.ranking(label)
            best = ranked[0] if ranked else ""
            best_scores = self.cell_scores(best, label)
            p_values = tuple(
                (other, float(mann_whitney_u(best_scores, self.cell_scores(other, label)).p_two_sided))
                for other in self.method_ids if other in ranked[1:]
            )
            all_significant = bool(p_values) and all(p < SIGNIFICANCE_LEVEL for _, p in p_values)
            tests.append(BudgetSignificance(label, best, p_values, all_significant))
        return tuple(tests)


@dataclass(frozen=True)
class _GridPlan:
    """A grid's cells, (spec, budget, seed index) in grid order, and the values they share.

    ``held`` holds each shared value that is built and not yet dropped, under
    its key in ``reads``, or the error building it raised.
    """

    master_seed: int
    data: PreparedData
    cells: tuple[tuple[MethodSpec, int | str, int], ...]
    held: dict[tuple, Any] = field(default_factory=dict)

    def reads(self, i: int) -> tuple[tuple | None, tuple | None]:
        """The keys of cell ``i``'s test inputs and pre-shift model; None for a value it does not read."""
        spec, _, seed_index = self.cells[i]
        model = ("pre_shift", seed_index, spec.train_config, spec.featurizer)
        return input_key(spec), model if spec.kind in PRE_SHIFT_KINDS else None

    @functools.cached_property
    def groups(self) -> list[list[int]]:
        """Cell indices by pre-shift key, in the grid order of each group's first cell;
        a cell that reads no pre-shift model is a group of one."""
        groups: dict[Any, list[int]] = {}
        for i in range(len(self.cells)):
            groups.setdefault(self.reads(i)[1] or i, []).append(i)
        return list(groups.values())

    @functools.cached_property
    def last(self) -> dict[tuple, int]:
        """The index of the last group that reads each key."""
        return {key: g for g, group in enumerate(self.groups) for i in group for key in self.reads(i) if key}

    def build(self, i: int, keys: Iterable[tuple | None]) -> None:
        """Hold each value of cell ``i`` under ``keys`` that is not held, or the error building it raised."""
        spec, _, seed_index = self.cells[i]
        for key in keys:
            if key is None or key in self.held:
                continue
            try:
                if key[0] == "pre_shift":
                    pre = spec.with_seed(derive_seed(self.master_seed, "pre_shift", seed_index))
                    self.held[key] = fit_pre_shift(pre, self.data.train)
                else:
                    self.held[key] = build_inputs(spec, self.data.test)
            except Exception as exc:  # every cell that reads it fails with it, the grid goes on
                self.held[key] = exc


def _run_cell(plan: _GridPlan, i: int) -> RunScore | CellFailure:
    """Cell ``i``'s score over the shared values it reads, or its failure.

    The cell only reads the plan, so it may run again on the same plan.
    """
    spec, budget, seed_index = plan.cells[i]
    label = str(budget)
    try:
        inputs, pre_shift = (None if key is None else plan.held[key] for key in plan.reads(i))
        for error in (pre_shift, inputs):
            if isinstance(error, Exception):
                raise error
        data = plan.data
        cell_seed = derive_seed(plan.master_seed, spec.method_id, label, seed_index)
        post_train = budget_subset(data.train, budget, plan.master_seed, seed_index)
        predictions = run_method(
            spec.with_seed(cell_seed), data.train, post_train, data.test, pre_shift, inputs)
        gold = [ex.post_label for ex in data.test]
        predicted = [predictions[ex.id] for ex in data.test]
        confusion = confusion_from_predictions(gold, predicted, data.test.post_labels)
        f1s = per_class_f1(confusion)
        return RunScore(
            method=spec.method_id,
            budget=label,
            seed=seed_index,
            macro_f1=float(np.mean(f1s)),
            per_class_f1=tuple(float(v) for v in f1s),
        )
    except Exception as exc:  # cell isolation: one bad cell must not kill the grid
        return CellFailure(method=spec.method_id, budget=label, seed=seed_index,
                           error=f"{type(exc).__name__}: {exc}")


def _run_group(plan: _GridPlan, g: int) -> list[RunScore | CellFailure]:
    """Group ``g``'s outcomes: build each value its cells read that is not held, run
    each cell, then drop every held value that no later group reads."""
    group = plan.groups[g]
    for i in group:
        plan.build(i, plan.reads(i))
    outcomes = [_run_cell(plan, i) for i in group]
    for key in [key for key in plan.held if plan.last[key] <= g]:
        del plan.held[key]
    return outcomes


# The plan of the grid whose groups a pool worker runs. Only a worker sets it,
# once, through the pool initializer, so the plan reaches each worker once
# instead of with every group; the process that runs the grid never does.
_worker_plan: _GridPlan | None = None


def _start_worker(plan: _GridPlan) -> None:
    global _worker_plan
    _worker_plan = plan


def _run_worker_group(g: int) -> list[RunScore | CellFailure]:
    return _run_group(_worker_plan, g)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute the full (method, budget, seed) grid on ``workers`` processes; a method unfit
    for the data fails first.

    Each shared value is built once per process that reads it, and every cell
    that reads it runs over it.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    data = prepare_data(config)
    for i, spec in enumerate(config.method_specs):
        try:
            check_inputs(spec, data.train, data.train, data.test)
        except ValueError as exc:
            raise ConfigError(f"methods[{i}]: {exc}") from exc
    cells = tuple((spec, budget, seed_index) for spec in config.method_specs
                  for budget in config.budgets for seed_index in config.seed_indices)
    plan = _GridPlan(config.master_seed, data, cells)
    # The pool starts all its workers at once under fork: start no more than there are groups.
    workers = min(workers, len(plan.groups))
    if workers > 1:
        for i in range(len(cells)):   # the workers share one build of the test inputs
            plan.build(i, plan.reads(i)[:1])
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(plan,)) as pool:
            ran = list(pool.map(_run_worker_group, range(len(plan.groups)), chunksize=1))
    else:
        ran = [_run_group(plan, g) for g in range(len(plan.groups))]
    by_cell = {i: outcome for group, outcomes in zip(plan.groups, ran) for i, outcome in zip(group, outcomes)}
    outcomes = [by_cell[i] for i in range(len(cells))]

    return ExperimentResult(
        name=config.name,
        method_ids=config.method_ids,
        budget_labels=config.budget_labels,
        seed_indices=config.seed_indices,
        class_labels=tuple(data.test.post_labels),
        scores=tuple(o for o in outcomes if isinstance(o, RunScore)),
        failures=tuple(o for o in outcomes if isinstance(o, CellFailure)),
        provenance={
            "config_sha256": config.config_sha256,
            "version": __version__,
        },
    )


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def save_result(result: ExperimentResult, output_dir: str | Path) -> Path:
    """Write result.json; the payload has no timestamps so reruns match byte for byte."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        **asdict(result),
        "aggregates": [
            {"method": method, "budget": budget, **asdict(agg)}
            for (method, budget), agg in result.aggregates.items()
        ],
        "significance": [asdict(s) for s in result.significance],
    }
    path = out / RESULT_FILENAME
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _typed_items(payload: dict, key: str, container: type, kind: type) -> list | dict:
    """``payload[key]``, a JSON ``container`` whose items (an object's values) are each exactly ``kind``."""
    items = typed_field(payload, key, container)
    if any(type(v) is not kind for v in (items.values() if container is dict else items)):
        raise TypeError(f"every item of {key} must be a JSON {kind.__name__}, got {items!r}")
    return items


def _check_rows(result: ExperimentResult) -> None:
    """Each score and failure row is its own cell of the grid, and a score has one F1 per class label."""
    cells = {(m, b, s) for m in result.method_ids for b in result.budget_labels for s in result.seed_indices}
    seen = set()
    for row in (*result.scores, *result.failures):
        cell = (row.method, row.budget, row.seed)
        if tuple(map(type, cell)) != (str, str, int) or cell not in cells:
            raise ValueError(f"{row!r} is not a cell of the grid")
        if cell in seen:
            raise ValueError(f"{row!r} repeats a cell of an earlier row")
        seen.add(cell)
        if isinstance(row, RunScore) and len(row.per_class_f1) != len(result.class_labels):
            raise ValueError(f"{row!r} does not hold one F1 per class label {result.class_labels}")


def load_result(output_dir: str | Path) -> ExperimentResult:
    """The result saved in ``output_dir``; a malformed file is a ValueError naming it.

    Only the grid is read back: aggregates and significance are recomputed
    from the scores, never taken from the file. The labels, ids and
    provenance values are strings and the seed indices integers; a score or
    failure row holds exactly its dataclass's fields, and is the one row of a
    (method, budget, seed) cell of the grid.
    """
    path = Path(output_dir) / RESULT_FILENAME
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run the experiment first")
    payload = read_json(path, ValueError)
    try:
        result = ExperimentResult(
            name=typed_field(payload, "name", str),
            **{k: tuple(_typed_items(payload, k, list, int if k == "seed_indices" else str))
               for k in ("method_ids", "budget_labels", "seed_indices", "class_labels")},
            scores=tuple(RunScore(**row) for row in payload["scores"]),
            failures=tuple(CellFailure(**row) for row in payload["failures"]),
            provenance=_typed_items(payload, "provenance", dict, str),
        )
        _check_rows(result)
        return result
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed result ({exc!r})") from exc


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _format_cell(agg: Aggregate | None, n_seeds: int) -> str:
    if agg is None:
        return "failed"
    mean = f"{agg.mean * 100:.2f}"
    text = mean if agg.std is None else f"{mean}({agg.std * 100:.2f})"
    if agg.count < n_seeds:
        text += f" [n={agg.count}]"
    return text


def render_raw_grid(result: ExperimentResult) -> str:
    """CSV of every RunScore, quoted where a field needs it; floats use repr so re-parsing is lossless."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method", "budget", "seed", "macro_f1", *(f"f1_{label}" for label in result.class_labels)])
    for s in result.scores:
        writer.writerow([s.method, s.budget, s.seed, *(repr(float(v)) for v in (s.macro_f1, *s.per_class_f1))])
    return out.getvalue()


def render_series(result: ExperimentResult) -> str:
    """Per-budget aggregate series for plotting budget curves."""
    out = io.StringIO()
    out.write("budget,method,mean,std,count\n")
    for label in result.budget_labels:
        for method in result.method_ids:
            agg = result.aggregates.get((method, label))
            if agg is None:
                continue
            std = "" if agg.std is None else repr(float(agg.std))
            out.write(f"{label},{method},{repr(float(agg.mean))},{std},{agg.count}\n")
    return out.getvalue()


def render_markdown(result: ExperimentResult) -> str:
    n_seeds = len(result.seed_indices)
    ranked = {label: result.ranking(label) for label in result.budget_labels}
    marked = {s.budget: s for s in result.significance}

    lines = [f"# {result.name}", ""]
    lines.append(
        f"Macro-F1 as mean(std) x 100 over {n_seeds} seeds per cell. "
        "Best method per budget in bold, second best underlined; a dagger marks "
        "budgets where the best method beats every other method with two-sided "
        f"Mann-Whitney U p < {SIGNIFICANCE_LEVEL}."
    )
    lines.append("")
    headers = ["method"] + [
        label if label == "full" else f"N={label}" for label in result.budget_labels
    ]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join(["---"] * len(headers)) + "|")
    for method in result.method_ids:
        row = [method]
        for label in result.budget_labels:
            cell = _format_cell(result.aggregates.get((method, label)), n_seeds)
            order = ranked[label]
            if order and method == order[0]:
                cell = f"**{cell}**" + (" †" if marked[label].all_significant else "")
            elif len(order) > 1 and method == order[1]:
                cell = f"<u>{cell}</u>"
            row.append(cell)
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")

    sig_lines = []
    for sig in result.significance:
        if not sig.p_values:
            continue
        pairs = ", ".join(f"vs {m}: p={p:.4g}" for m, p in sig.p_values)
        sig_lines.append(f"- {sig.budget}: best {sig.best_method} ({pairs})")
    if sig_lines:
        lines.append("## Significance")
        lines.append("")
        lines.extend(sig_lines)
        lines.append("")

    if result.failures:
        lines.append("## Failures")
        lines.append("")
        for f in result.failures:
            lines.append(f"- {f.method} / {f.budget} / seed {f.seed}: {f.error}")
        lines.append("")

    lines.append("## Provenance")
    lines.append("")
    for key in sorted(result.provenance):
        lines.append(f"- {key}: {result.provenance[key]}")
    lines.append("")
    return "\n".join(lines)


def emit_report(
    result: ExperimentResult,
    output_dir: str | Path,
    formats: Iterable[str] = ("md", "csv"),
) -> list[Path]:
    """Write the requested report files and return their paths."""
    wanted = set(formats)
    unknown = wanted - {"md", "csv"}
    if unknown:
        raise ValueError(f"unknown report formats {sorted(unknown)}; choose from ['csv', 'md']")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in wanted:
        grid = out / RAW_GRID_FILENAME
        grid.write_text(render_raw_grid(result), encoding="utf-8")
        written.append(grid)
        series = out / SERIES_FILENAME
        series.write_text(render_series(result), encoding="utf-8")
        written.append(series)
    if "md" in wanted:
        report = out / REPORT_FILENAME
        report.write_text(render_markdown(result), encoding="utf-8")
        written.append(report)
    return written
