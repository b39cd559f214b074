"""Config-driven experiment matrix runner and report emission.

An experiment is a grid over (method, budget, seed). Every cell samples a
few-shot post-shift training set, runs one method, and scores macro-F1 on a
fixed test set. Cells are independent and individually deterministic, so the
grid can run in parallel and adding a method never perturbs existing cells.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .corpus import Dataset, ShiftSpec, apply_shift, fewshot_sample, load_dataset, rebalance, split
from .methods import MethodSpec, run_method
from .model import FeaturizerConfig, TrainConfig
from .seeding import derive_seed
from .stats import Aggregate, RunScore, aggregate, confusion_from_predictions, mann_whitney_u, per_class_f1
from .synth import PRESETS, preset_config, synth_generate

SIGNIFICANCE_LEVEL = 0.05
WORKERS_ENV_VAR = "ENTAILSHIFT_WORKERS"
RESULT_FILENAME = "result.json"
RAW_GRID_FILENAME = "raw_grid.csv"
SERIES_FILENAME = "series.csv"
REPORT_FILENAME = "report.md"

_TRAIN_KEYS = ("epochs", "learning_rate", "batch_size", "seed", "l2_penalty")
_FEATURIZER_KEYS = ("dim", "word_ngrams", "char_ngrams", "cross_features", "hash_salt")
_METHOD_KEYS = (
    "kind", "prompt_variant", "catalog_id", "train", "featurizer", "oversample", "concat_mode",
)


class ConfigError(ValueError):
    """Raised when an experiment config file cannot be interpreted."""


def _check_keys(section: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _tupled(value: Any) -> Any:
    """Recursively turn JSON lists into tuples so configs hash and compare cleanly."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    if isinstance(value, dict):
        return {k: _tupled(v) for k, v in value.items()}
    return value


def _section_config(cls: type, keys: Sequence[str], template: Mapping[str, Any],
                    overrides: Mapping[str, Any], where: str) -> Any:
    """``cls`` from the template merged with overrides; a bad value is a ConfigError at ``where``."""
    merged = {**template, **overrides}
    _check_keys(merged, keys, where)
    try:
        return cls(**{k: _tupled(v) for k, v in merged.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description plus the raw dict it came from."""

    name: str
    data: Mapping[str, Any]
    method_specs: tuple[MethodSpec, ...]
    budgets: tuple[int | str, ...]
    seed_indices: tuple[int, ...]
    master_seed: int
    output_dir: str
    raw: Mapping[str, Any] = field(repr=False)

    @property
    def method_ids(self) -> tuple[str, ...]:
        return tuple(spec.method_id for spec in self.method_specs)

    @property
    def budget_labels(self) -> tuple[str, ...]:
        return tuple(budget_label(b) for b in self.budgets)

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

        data = raw.get("data")
        if not isinstance(data, Mapping):
            raise ConfigError("data section is required and must be an object")
        _check_keys(data, ("synth", "files", "shift", "test_fraction", "rebalance_test"), "data")
        if ("synth" in data) == ("files" in data):
            raise ConfigError("data must name exactly one source: synth or files")

        master_seed = raw.get("master_seed", 0)
        if not isinstance(master_seed, int):
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
        labels = [budget_label(b) for b in budgets]
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
            kwargs: dict[str, Any] = {"kind": entry["kind"]}
            if "prompt_variant" in entry:
                kwargs["prompt_variant"] = entry["prompt_variant"]
            if "catalog_id" in entry:
                kwargs["catalog_id"] = entry["catalog_id"]
            if "oversample" in entry:
                if not isinstance(entry["oversample"], bool):
                    raise ConfigError(f"{where}: oversample must be true or false, "
                                      f"got {entry['oversample']!r}")
                kwargs["oversample"] = entry["oversample"]
            if "concat_mode" in entry:
                kwargs["concat_mode"] = entry["concat_mode"]
            kwargs["train_config"] = _section_config(
                TrainConfig, _TRAIN_KEYS, train_template, entry.get("train", {}), f"{where}.train")
            kwargs["featurizer"] = _section_config(
                FeaturizerConfig, _FEATURIZER_KEYS, feat_template, entry.get("featurizer", {}),
                f"{where}.featurizer")
            try:
                specs.append(MethodSpec(**kwargs))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
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
            raw=dict(raw),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{path} must contain a JSON object")
        return cls.from_dict(raw)


def budget_label(budget: int | str) -> str:
    return budget if budget == "full" else str(budget)


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


@dataclass(frozen=True)
class PreparedData:
    """The three datasets every cell sees.

    pre_train carries old-concept labels for warm starts; post_pool is the
    reservoir the few-shot budgets are drawn from; test is fixed across cells.
    """

    pre_train: Dataset
    post_pool: Dataset
    test: Dataset


def prepare_data(config: ExperimentConfig) -> PreparedData:
    data = config.data
    test_fraction = data.get("test_fraction", 0.25)
    rebalance_test = data.get("rebalance_test", True)

    if "synth" in data:
        synth = data["synth"]
        if not isinstance(synth, Mapping):
            raise ConfigError("data.synth must be an object")
        _check_keys(synth, ("preset", "overrides", "seed"), "data.synth")
        preset = synth.get("preset")
        if preset not in PRESETS:
            raise ConfigError(f"unknown synth preset {preset!r}; choose from {sorted(PRESETS)}")
        overrides = {k: _tupled(v) for k, v in synth.get("overrides", {}).items()}
        gen_seed = synth.get("seed", derive_seed(config.master_seed, "synth"))
        dataset = synth_generate(preset_config(preset, **overrides), seed=gen_seed)
        train_ds, test_ds = split(
            dataset, test_fraction=test_fraction, seed=derive_seed(config.master_seed, "split"))
    else:
        files = data["files"]
        if not isinstance(files, Mapping) or "train" not in files or "test" not in files:
            raise ConfigError("data.files must name 'train' and 'test' paths")
        _check_keys(files, ("train", "test", "format"), "data.files")
        fmt = files.get("format")
        train_ds = load_dataset(files["train"], format=fmt)
        test_ds = load_dataset(files["test"], format=fmt)

    if "shift" in data:
        shift = ShiftSpec.from_file(data["shift"])
        train_ds = apply_shift(train_ds, shift)
        test_ds = apply_shift(test_ds, shift)

    if rebalance_test:
        test_ds = rebalance(test_ds, seed=derive_seed(config.master_seed, "rebalance"))
    return PreparedData(pre_train=train_ds, post_pool=train_ds, test=test_ds)


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
    name: str
    method_ids: tuple[str, ...]
    budget_labels: tuple[str, ...]
    seed_indices: tuple[int, ...]
    class_labels: tuple[str, ...]
    scores: tuple[RunScore, ...]
    failures: tuple[CellFailure, ...]
    aggregates: Mapping[tuple[str, str], Aggregate]
    significance: tuple[BudgetSignificance, ...]
    provenance: Mapping[str, str]

    def cell_scores(self, method: str, budget: str) -> list[float]:
        return [s.macro_f1 for s in self.scores if s.method == method and s.budget == budget]


def _run_cell(task: tuple[MethodSpec, int, int | str, int, PreparedData]) -> RunScore | CellFailure:
    spec, master_seed, budget, seed_index, data = task
    label = budget_label(budget)
    try:
        cell_seed = derive_seed(master_seed, spec.method_id, label, seed_index)
        post_train = budget_subset(data.post_pool, budget, master_seed, seed_index)
        predictions = run_method(spec.with_seed(cell_seed), data.pre_train, post_train, data.test)
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


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        workers = int(value)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV_VAR}={value!r} is not an integer") from exc
    return max(1, workers)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Execute the full (method, budget, seed) grid and aggregate it."""
    workers = default_workers() if workers is None else max(1, workers)
    data = prepare_data(config)
    tasks = [
        (spec, config.master_seed, budget, seed_index, data)
        for spec in config.method_specs
        for budget in config.budgets
        for seed_index in config.seed_indices
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks, chunksize=1))
    else:
        outcomes = [_run_cell(task) for task in tasks]

    scores = tuple(o for o in outcomes if isinstance(o, RunScore))
    failures = tuple(o for o in outcomes if isinstance(o, CellFailure))

    aggregates: dict[tuple[str, str], Aggregate] = {}
    for method in config.method_ids:
        for label in config.budget_labels:
            values = [s.macro_f1 for s in scores if s.method == method and s.budget == label]
            if values:
                aggregates[(method, label)] = aggregate(values)

    significance = tuple(
        _budget_significance(label, config.method_ids, scores, aggregates)
        for label in config.budget_labels
    )

    return ExperimentResult(
        name=config.name,
        method_ids=config.method_ids,
        budget_labels=config.budget_labels,
        seed_indices=config.seed_indices,
        class_labels=tuple(data.test.post_labels),
        scores=scores,
        failures=failures,
        aggregates=aggregates,
        significance=significance,
        provenance={
            "config_sha256": config_hash(config.raw),
            "version": __version__,
        },
    )


def _budget_significance(
    label: str,
    method_ids: Sequence[str],
    scores: Sequence[RunScore],
    aggregates: Mapping[tuple[str, str], Aggregate],
) -> BudgetSignificance:
    present = [m for m in method_ids if (m, label) in aggregates]
    if not present:
        return BudgetSignificance(budget=label, best_method="", p_values=(), all_significant=False)
    best = max(present, key=lambda m: (aggregates[(m, label)].mean, -present.index(m)))
    best_values = [s.macro_f1 for s in scores if s.method == best and s.budget == label]
    p_values = []
    for other in present:
        if other == best:
            continue
        other_values = [s.macro_f1 for s in scores if s.method == other and s.budget == label]
        p = mann_whitney_u(best_values, other_values).p_two_sided
        p_values.append((other, float(p)))
    all_significant = bool(p_values) and all(p < SIGNIFICANCE_LEVEL for _, p in p_values)
    return BudgetSignificance(
        budget=label, best_method=best, p_values=tuple(p_values), all_significant=all_significant)


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def save_result(result: ExperimentResult, output_dir: str | Path) -> Path:
    """Write result.json; the payload has no timestamps so reruns match byte for byte."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": result.name,
        "method_ids": list(result.method_ids),
        "budget_labels": list(result.budget_labels),
        "seed_indices": list(result.seed_indices),
        "class_labels": list(result.class_labels),
        "scores": [
            {
                "method": s.method, "budget": s.budget, "seed": s.seed,
                "macro_f1": s.macro_f1, "per_class_f1": list(s.per_class_f1),
            }
            for s in result.scores
        ],
        "failures": [
            {"method": f.method, "budget": f.budget, "seed": f.seed, "error": f.error}
            for f in result.failures
        ],
        "aggregates": [
            {
                "method": method, "budget": budget,
                "mean": agg.mean, "std": agg.std, "count": agg.count,
            }
            for (method, budget), agg in result.aggregates.items()
        ],
        "significance": [
            {
                "budget": s.budget, "best_method": s.best_method,
                "p_values": [[m, p] for m, p in s.p_values],
                "all_significant": s.all_significant,
            }
            for s in result.significance
        ],
        "provenance": dict(result.provenance),
    }
    path = out / RESULT_FILENAME
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def load_result(output_dir: str | Path) -> ExperimentResult:
    path = Path(output_dir) / RESULT_FILENAME
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run the experiment first")
    payload = json.loads(path.read_text(encoding="utf-8"))
    return ExperimentResult(
        name=payload["name"],
        method_ids=tuple(payload["method_ids"]),
        budget_labels=tuple(payload["budget_labels"]),
        seed_indices=tuple(payload["seed_indices"]),
        class_labels=tuple(payload["class_labels"]),
        scores=tuple(
            RunScore(
                method=s["method"], budget=s["budget"], seed=s["seed"],
                macro_f1=s["macro_f1"], per_class_f1=tuple(s["per_class_f1"]),
            )
            for s in payload["scores"]
        ),
        failures=tuple(
            CellFailure(method=f["method"], budget=f["budget"], seed=f["seed"], error=f["error"])
            for f in payload["failures"]
        ),
        aggregates={
            (a["method"], a["budget"]): Aggregate(mean=a["mean"], std=a["std"], count=a["count"])
            for a in payload["aggregates"]
        },
        significance=tuple(
            BudgetSignificance(
                budget=s["budget"], best_method=s["best_method"],
                p_values=tuple((m, p) for m, p in s["p_values"]),
                all_significant=s["all_significant"],
            )
            for s in payload["significance"]
        ),
        provenance=payload["provenance"],
    )


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
    """CSV of every RunScore; floats use repr so re-parsing is lossless."""
    out = io.StringIO()
    f1_columns = ",".join(f"f1_{label}" for label in result.class_labels)
    out.write(f"method,budget,seed,macro_f1,{f1_columns}\n")
    for s in result.scores:
        per_class = ",".join(repr(float(v)) for v in s.per_class_f1)
        out.write(f"{s.method},{s.budget},{s.seed},{repr(float(s.macro_f1))},{per_class}\n")
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
    ranked: dict[str, list[str]] = {}
    for label in result.budget_labels:
        present = [m for m in result.method_ids if (m, label) in result.aggregates]
        ranked[label] = sorted(
            present,
            key=lambda m: (-result.aggregates[(m, label)].mean, result.method_ids.index(m)),
        )
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
                cell = f"**{cell}**"
                sig = marked.get(label)
                if sig is not None and sig.best_method == method and sig.all_significant:
                    cell += " †"
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
