"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` times each layer by replacing the module attribute
the pipeline calls it through, so a renamed function or a call that bypasses
that attribute silently drops a layer from the benchmark. This runs two
methods, and a small grid with its save and report, under the tracer, loaded
unchanged from its file, and checks that every wrapped layer exists and is
reached and that its counters count.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from entailshift import experiment, methods
from entailshift.corpus import fewshot_sample, split
from entailshift.model import TrainConfig
from entailshift.synth import preset_config, synth_generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_reach_every_layer():
    tracing = load_tracing()
    ds = synth_generate(preset_config("retail_shift", n_per_topic=10), seed=0)
    train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
    post_train = fewshot_sample(train_ds, 10, seed=0)
    config = TrainConfig(epochs=2)
    with tracing.Tracer().installed() as tracer:
        for spec in (methods.MethodSpec(kind="entail", catalog_id="en-retail", train_config=config),
                     methods.MethodSpec(kind="finetuned", train_config=config),
                     methods.MethodSpec(kind="l1l2", train_config=config)):
            predictions = methods.run_method(spec, train_ds, post_train, test_ds)
            assert set(predictions) == {ex.id for ex in test_ds}
    names = {span[0] for span in tracer.spans}
    assert {"methods.run_method", "model.featurize", "model.train", "model.score",
            "reformulate.augment", "reformulate.predict"} <= names
    assert tracer.missing == []
    # One score call per batch of at most 64 test candidates, plus one for
    # the whole test set of each multiclass method.
    k = len(test_ds.post_labels)
    candidates = len(test_ds) * k
    assert tracer.usage.counts["model.score_calls"] == math.ceil(candidates / 64) + 2
    # The train counter finds its config among the positional arguments of
    # train (entail, finetuned's pre-shift and post-shift fits) and of
    # train_joint (l1l2).
    fits = [(k + 1) * len(post_train), len(train_ds), len(post_train), len(post_train)]
    assert tracer.usage.counts["model.train_calls"] == len(fits)
    assert tracer.usage.counts["model.train_samples"] == sum(fits)
    assert tracer.usage.counts["model.train_batches"] == sum(
        config.epochs * math.ceil(n / config.batch_size) for n in fits)
    # The counters read augment_dataset's return value and predict_dataset's
    # dataset argument: K samples plus one oversampled positive per training
    # example, and K candidates per test example.
    assert tracer.usage.counts["reformulate.augment_samples"] == (k + 1) * len(post_train)
    assert tracer.usage.counts["reformulate.candidates_scored"] == candidates
    # Prediction featurizes through the block featurizer, which the tracer
    # does not wrap, so the featurize layer counts the training rows alone:
    # one per sample of every fit.
    assert tracer.usage.counts["model.featurize_calls"] == sum(fits)


def test_traced_grid_reaches_every_experiment_layer(tmp_path):
    tracing = load_tracing()
    config = experiment.ExperimentConfig.from_dict({
        "name": "contract",
        "data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 10}}},
        "methods": [{"kind": "majority"}, {"kind": "finetuned_post_only"}],
        "budgets": [5, "full"],
        "seeds": 2,
        "train": {"epochs": 2},
        "output_dir": str(tmp_path),
    })
    with tracing.Tracer().installed() as tracer:
        result = experiment.run_experiment(config)
        experiment.save_result(result, tmp_path)
        experiment.emit_report(result, tmp_path)
    tracer.harvest(result.scores + result.failures)
    assert tracer.missing == []
    assert len(result.scores) == 2 * 2 * 2 and not result.failures
    names = {span[0] for span in tracer.spans}
    assert {"corpus.prepare_data", "corpus.budget_subset", "synth.generate", "stats",
            "experiment.run_experiment", "experiment.cell", "experiment.save_emit"} <= names
    # Aggregates and significance are derived while saving, through the
    # wrapped ``experiment.aggregate`` and ``experiment.mann_whitney_u``.
    assert any(name == "stats" and tracer.spans[up][0] == "experiment.save_emit"
               for name, _, _, up in tracer.spans if up >= 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_shared_groups_time_every_cell(tmp_path, workers):
    """Cells that share a pre-shift model still run one by one through the
    wrapped ``experiment._run_cell``, in a pool too, so each carries its timing."""
    tracing = load_tracing()
    config = experiment.ExperimentConfig.from_dict({
        "name": "contract-shared",
        "data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 10}}},
        "methods": [{"kind": "majority"}, {"kind": "finetuned"}, {"kind": "pre_shift_only"}],
        "budgets": [5, "full"],
        "seeds": 2,
        "train": {"epochs": 2},
        "output_dir": str(tmp_path),
    })
    with tracing.Tracer().installed() as tracer:
        result = experiment.run_experiment(config, workers=workers)
    assert len(result.scores) == 3 * 2 * 2 and not result.failures
    tracer.harvest(result.scores + result.failures)
    assert sum(span[0] == "experiment.cell" for span in tracer.spans) == 3 * 2 * 2
    assert tracer.twin_mismatches == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_grid_scores_each_cell_over_the_shared_test_inputs(tmp_path, workers):
    """A grid builds its test inputs before its first cell, and each cell
    still reaches every layer and makes the score calls it made alone: one
    per batch of at most 64 entail candidates, one per multiclass test set.
    Each traced cell equals its untraced twin."""
    tracing = load_tracing()
    config = experiment.ExperimentConfig.from_dict({
        "name": "contract-inputs",
        "data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 10}}},
        "methods": [{"kind": "entail", "catalog_id": "en-retail"}, {"kind": "finetuned"}],
        "budgets": [5, 10],
        "seeds": 2,
        "train": {"epochs": 2},
        "output_dir": str(tmp_path),
    })
    test = experiment.prepare_data(config).test
    with tracing.Tracer().installed() as tracer:
        result = experiment.run_experiment(config, workers=workers)
    tracer.harvest(result.scores + result.failures)
    assert len(result.scores) == 2 * 2 * 2 and not result.failures
    assert tracer.missing == [] and tracer.twin_mismatches == 0
    names = {span[0] for span in tracer.spans}
    assert {"corpus.prepare_data", "corpus.budget_subset", "synth.generate", "stats",
            "methods.run_method", "reformulate.augment", "reformulate.predict",
            "model.featurize", "model.train", "model.score",
            "experiment.run_experiment", "experiment.cell"} <= names
    cells = 2 * 2
    per_entail_cell = math.ceil(len(test) * len(test.post_labels) / 64)
    assert tracer.usage.counts["model.score_calls"] == cells * per_entail_cell + cells
