"""Experiment grid runner, aggregation, and report emission."""
from __future__ import annotations

import ast
import copy
import csv
import io
import json
import os
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from entailshift import experiment, methods, model
from entailshift.corpus import ShiftSpec
from entailshift.experiment import (
    Aggregate,
    BudgetSignificance,
    CellFailure,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    budget_subset,
    config_hash,
    emit_report,
    load_result,
    prepare_data,
    render_markdown,
    render_raw_grid,
    render_series,
    run_experiment,
    save_result,
)
from entailshift.model import FeaturizerConfig, TrainConfig
from entailshift.prompts import builtin_catalog, save_catalog
from entailshift.seeding import derive_seed
from entailshift.stats import RunScore, aggregate, confusion_from_predictions, mann_whitney_u, per_class_f1


def base_raw(**overrides) -> dict:
    raw = {
        "name": "tiny",
        "master_seed": 7,
        "data": {
            "synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 12}},
            "test_fraction": 0.25,
        },
        "methods": [{"kind": "majority"}, {"kind": "finetuned_post_only"}],
        "budgets": [8, "full"],
        "seeds": 2,
        "train": {"epochs": 2, "learning_rate": 0.2},
        "featurizer": {"dim": 4096},
        "output_dir": "unused",
    }
    raw.update(overrides)
    return raw


def base_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict(base_raw(**overrides))


class TestConfigParsing:
    def test_round_numbers(self):
        config = base_config()
        assert config.method_ids == ("majority", "finetuned_post_only")
        assert config.budget_labels == ("8", "full")
        assert config.seed_indices == (0, 1)
        assert config.method_specs[1].train_config.epochs == 2
        assert config.method_specs[1].featurizer.dim == 4096

    def test_method_overrides_beat_template(self):
        config = base_config(methods=[
            {"kind": "finetuned", "train": {"epochs": 9}},
            {"kind": "majority"},
        ])
        assert config.method_specs[0].train_config.epochs == 9
        assert config.method_specs[1].train_config.epochs == 2

    def test_seed_list_accepted(self):
        assert base_config(seeds=[3, 5, 8]).seed_indices == (3, 5, 8)

    @pytest.mark.parametrize("broken, message", [
        ({"methods": []}, "non-empty"),
        ({"budgets": []}, "non-empty"),
        ({"budgets": [0]}, "invalid budget"),
        ({"budgets": ["everything"]}, "invalid budget"),
        ({"budgets": [8, 8]}, "duplicate"),
        ({"seeds": 0}, "seeds"),
        ({"methods": [{"kind": "majority"}, {"kind": "majority"}]}, "duplicate method ids"),
        ({"methods": [{"kind": "majority", "bogus": 1}]}, "unknown keys"),
        ({"data": {}}, "exactly one source"),
        ({"train": {"epochs": 2, "momentum": 0.9}}, "unknown keys"),
        ({"train": {"epochs": "3"}}, r"methods\[0\]\.train: "),
        ({"train": {"epochs": 0}}, r"methods\[0\]\.train: epochs"),
        ({"featurizer": {"word_ngrams": [1]}},
         r"methods\[0\]\.featurizer: unknown keys \['word_ngrams'\]"),
        ({"featurizer": {"dim": 1000}}, r"methods\[0\]\.featurizer: dim"),
        ({"methods": [{"kind": "finetuned", "pre_train": {}}]}, "unknown keys"),
        ({"train": {"epochs": 2.5}}, r"methods\[0\]\.train: epochs must be an integer"),
        ({"train": {"epochs": True}}, r"methods\[0\]\.train: epochs must be an integer"),
        ({"train": {"batch_size": 4.5}}, r"methods\[0\]\.train: batch_size must be an integer"),
        ({"methods": [{"kind": "entail", "catalog_id": "en-retail", "oversample": "false"}]},
         r"methods\[0\]: oversample must be true or false"),
        ({"featurizer": {"dim": 4.0}}, r"methods\[0\]\.featurizer: dim must be an integer, got 4\.0"),
        ({"featurizer": {"dim": "8"}}, r"methods\[0\]\.featurizer: dim must be an integer, got '8'"),
        ({"methods": [{"kind": "majority", "train": "x"}]},
         r"methods\[0\]\.train must be an object, got 'x'"),
        ({"methods": [{"kind": "majority", "featurizer": [1]}]},
         r"methods\[0\]\.featurizer must be an object, got \[1\]"),
        ({"methods": [{"kind": "entail", "catalog_id": "en-news", "concat_mode": "bogus"}]},
         r"methods\[0\]: unknown keys \['concat_mode'\]"),
        ({"methods": [{"kind": "entail", "catalog_id": 5}]},
         r"methods\[0\]: catalog_id must be a string, got 5"),
        ({"methods": [{"kind": "majority"}, {"kind": "entail", "catalog_id": "nope"}]},
         r"methods\[1\]: catalog 'nope' is neither a built-in"),
        ({"data": {"synth": {"preset": "retail_shift", "seed": 3}}}, r"data\.synth: unknown keys"),
        ({"data": {"synth": {"preset": "nope"}}}, "unknown synth preset 'nope'"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"bogus": 1}}}},
         r"data\.synth\.overrides: unknown keys \['bogus'\]"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": [1]}}},
         r"data\.synth\.overrides must be an object, got \[1\]"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": "x"}}}},
         r"data\.synth\.overrides: "),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"noise_rate": 0.7}}}},
         r"data\.synth\.overrides: noise_rate"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 2.5}}}},
         r"data\.synth\.overrides: n_per_topic must be an integer, got 2\.5"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"two_segment": "no"}}}},
         r"data\.synth\.overrides: two_segment must be true or false"),
        ({"data": {"synth": {"preset": "retail_shift"}, "test_fraction": "x"}},
         r"data\.test_fraction must be a number in \(0, 1\), got 'x'"),
        ({"data": {"synth": {"preset": "retail_shift"}, "test_fraction": 1}}, r"data\.test_fraction"),
        ({"data": {"synth": {"preset": "retail_shift"}, "test_fraction": True}}, r"data\.test_fraction"),
        ({"data": {"synth": {"preset": "retail_shift"}, "rebalance_test": "no"}},
         r"data\.rebalance_test must be true or false, got 'no'"),
        ({"data": {"files": {"train": 1, "test": "t.jsonl"}}}, r"data\.files: .*path strings"),
        ({"data": {"files": {"train": "a.jsonl", "test": "b.jsonl", "format": "csv"}}},
         r"data\.files: unknown keys \['format'\]"),
        ({"data": {"synth": {"preset": "retail_shift"}, "shift": ["a"]}},
         r"data\.shift must be a path string"),
        ({"train": {"learning_rate": 1e6}},
         r"methods\[0\]\.train: learning_rate \* l2_penalty must be below 1"),
        ({"train": {"learning_rate": float("nan")}},
         r"methods\[0\]\.train: learning_rate must be a finite number, got nan"),
        ({"train": {"learning_rate": True}}, r"methods\[0\]\.train: learning_rate must be a finite"),
        ({"train": {"l2_penalty": True}}, r"methods\[0\]\.train: l2_penalty must be a finite"),
        ({"featurizer": {"hash_salt": 0}}, r"methods\[0\]\.featurizer: unknown keys \['hash_salt'\]"),
        ({"featurizer": {"dim": None}}, r"methods\[0\]\.featurizer: dim must be an integer, got None"),
        ({"master_seed": True}, "master_seed must be an integer"),
        ({"train": {"epochs": 2, "seed": 1}}, r"methods\[0\]\.train: unknown keys \['seed'\]"),
        ({"methods": [{"kind": "majority"}, {"kind": "finetuned", "train": {"seed": 1}}]},
         r"methods\[1\]\.train: unknown keys \['seed'\]"),
        ({"featurizer": {"dim": True}}, r"methods\[0\]\.featurizer: dim must be an integer, got True"),
        ({"data": {"synth": {"preset": "retail_shift"}, "shift": ""}},
         r"data\.shift must be a path string naming a file, got ''"),
        ({"data": {"files": {"train": "", "test": "t.jsonl"}}}, r"data\.files: .*path strings; train is ''"),
        ({"data": {"files": {"train": "a.jsonl", "test": ""}}}, r"data\.files: .*path strings; test is ''"),
        ({"methods": [{"kind": "majority", "catalog_id": "en-retail"}]},
         r"methods\[0\]: catalog_id applies only to entail, not 'majority'"),
        ({"data": {"synth": {"preset": "retail_shift"}, "shift": "no-such-shift.json"}},
         r"data\.shift: .*No such file.*no-such-shift\.json"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"shift": {"rules": []}}}}},
         r"data\.synth\.overrides: unknown keys \['shift'\]"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"pre_labels": "ab"}}}},
         r"data\.synth\.overrides: pre_labels must be a list of label strings, got 'ab'"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"pre_labels": ["a", "b"]}}}},
         r"data\.synth\.overrides: topic 'exact': pre label 'irrelevant' not in pre_labels"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"post_labels": ["a", "b"]}}}},
         r"data\.synth\.overrides: topic 'exact': shifted label 'exact' not in post_labels"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"lang": ""}}}},
         r"data\.synth\.overrides: lang must be a non-empty string, got ''"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"name": ""}}}},
         r"data\.synth\.overrides: name must be a non-empty string, got ''"),
        ({"name": ""}, "name must be a non-empty string"),
        ({"seeds": [0, 0]}, "seed indices must be distinct"),
        ({"seeds": "3"}, "seeds must be a positive count or a non-empty list of ints"),
        ({"train": [1]}, "train and featurizer templates must be objects"),
        ({"methods": [{"prompt_variant": "random"}]}, r"methods\[0\]: each method needs at least a 'kind'"),
        ({"output_dir": ""}, "output_dir must be a non-empty string"),
        ({"data": {"synth": "retail_shift"}}, r"data\.synth must be an object"),
        ({"data": None}, "data section is required and must be an object"),
        ({"data": {"files": {"train": "a.jsonl"}}}, r"data\.files must name 'train' and 'test' paths"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"topics": ["a", "b"]}}}},
         r"data\.synth\.overrides: topics must map each topic to a list of words"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"topics": {"exact": "launch"}}}}},
         r"data\.synth\.overrides: topic 'exact': vocabulary must be a list of words, got 'launch'"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"topics": {"exact": [1, 2]}}}}},
         r"data\.synth\.overrides: topic 'exact': vocabulary must be a list of words, got \[1, 2\]"),
        ({"data": {"synth": {"preset": "retail_shift", "overrides": {"noise_rate": False}}}},
         r"data\.synth\.overrides: noise_rate must be a number in \[0, 0\.5\), got False"),
        ({"data": {"synth": {"preset": "total_flip", "overrides": {"anchor_by_topic": ""}}}},
         r"data\.synth\.overrides: anchor_by_topic must map topic names to strings, got ''"),
        ({"data": {"synth": {"preset": "total_flip", "overrides": {"anchor_by_topic": []}}}},
         r"data\.synth\.overrides: anchor_by_topic must map topic names to strings, got \[\]"),
        ({"data": {"synth": {"preset": "retail_shift",
                             "overrides": {"pre_label_by_topic": [["exact", "irrelevant"]]}}}},
         r"data\.synth\.overrides: pre_label_by_topic must map topic names to strings, got \[\["),
    ])
    def test_invalid_configs_rejected(self, broken, message):
        with pytest.raises(ConfigError, match=message):
            base_config(**broken)

    # Fields no config sets: each cell's seed derives from master_seed, and a
    # warm start is the pre-shift model the grid fits.
    NOT_CONFIG_KEYS = {"seed", "warm_start"}

    @pytest.mark.parametrize("section, cls, attr", [
        ("train", TrainConfig, "train_config"),
        ("featurizer", FeaturizerConfig, "featurizer"),
    ])
    def test_every_config_field_is_a_key_or_a_named_exception(self, section, cls, attr):
        """A new field must be settable from a config or listed here, never silently ignored."""
        for f in fields(cls):
            value = getattr(cls(), f.name)
            if f.name in self.NOT_CONFIG_KEYS:
                with pytest.raises(ConfigError, match=rf"unknown keys \['{f.name}'\]"):
                    base_config(**{section: {f.name: value}})
            else:
                config = base_config(**{section: {f.name: value}})
                assert getattr(getattr(config.method_specs[0], attr), f.name) == value

    @pytest.mark.parametrize("content, message", [
        ("{", "not valid JSON"),
        ('{"language": "en"}', "malformed payload"),
        (None, "Is a directory"),
    ], ids=["truncated", "incomplete", "directory"])
    def test_entail_catalog_file_checked_at_config_time(self, tmp_path, content, message):
        """A catalog file that cannot be read fails the config, not every cell."""
        path = tmp_path / "catalog.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        with pytest.raises(ConfigError, match=rf"methods\[0\]: .*{message}"):
            base_config(methods=[{"kind": "entail", "catalog_id": str(path)}])

    def test_random_variant_of_a_catalog_with_too_many_labels_fails_at_parse(self, tmp_path):
        path = tmp_path / "nine.json"
        save_catalog(replace(builtin_catalog("en-retail"),
                             label_surface={f"l{i}": f"label {i}" for i in range(9)}), path)
        with pytest.raises(ConfigError, match=r"methods\[0\]: need at least 9 decoys, got 8"):
            base_config(methods=[{"kind": "entail", "catalog_id": str(path), "prompt_variant": "random"}])

    @pytest.mark.parametrize("content, message", [
        ("{", "not valid JSON"),
        ('{"rules": [{"topic": "exact", "pre_label": "irrelevant"}]}', "malformed shift rules"),
        ('{"rules": [{"pre_label": 1, "post_label": "exact"}]}', "needs string labels"),
    ], ids=["truncated", "rule_without_post_label", "number_pre_label"])
    def test_shift_file_checked_at_config_time(self, tmp_path, content, message):
        path = tmp_path / "shift.json"
        path.write_text(content)
        with pytest.raises(ConfigError, match=rf"data\.shift: {re.escape(str(path))}: .*{message}"):
            base_config(data={"synth": {"preset": "retail_shift"}, "shift": str(path)})

    @pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                             ids=lambda path: path.name)
    def test_committed_config_parses(self, path):
        ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("source", ["synth", "files"])
    def test_parsed_config_is_a_snapshot_of_its_dict(self, source):
        """Editing the dict after parsing changes neither the config, nor its hash, nor its data."""
        raw = base_raw(methods=[{"kind": "majority"}, {"kind": "finetuned", "train": {"epochs": 3}}],
                       seeds=[0, 1])
        if source == "files":
            raw["data"] = {"files": {"train": "train.jsonl", "test": "test.jsonl"}}
        original = copy.deepcopy(raw)
        config = ExperimentConfig.from_dict(raw)
        if source == "synth":
            raw["data"]["synth"]["overrides"]["n_per_topic"] = 40
        else:
            raw["data"]["files"]["train"] = "other.jsonl"
        raw["train"]["epochs"] = 5
        raw["methods"][1]["train"]["epochs"] = 9
        raw["budgets"].append(16)
        raw["seeds"].append(2)
        untouched = ExperimentConfig.from_dict(original)
        assert config == untouched
        assert config.config_sha256 == config_hash(original)
        if source == "synth":
            assert prepare_data(config) == prepare_data(untouched)

    def test_list_overrides_are_copied(self):
        """A synth override list is held as a tuple, so editing the dict later changes nothing."""
        labels = ["exact", "substitute", "complement", "irrelevant"]
        raw = base_raw(data={"synth": {"preset": "retail_shift", "overrides": {"post_labels": labels}}})
        config = ExperimentConfig.from_dict(raw)
        labels.reverse()
        assert config.data["synth"].post_labels == ("exact", "substitute", "complement", "irrelevant")

    def test_synth_name_override_names_the_examples(self):
        overrides = {"name": "x", "n_per_topic": 12}
        config = base_config(data={"synth": {"preset": "retail_shift", "overrides": overrides}})
        data = prepare_data(config)
        assert "x-exact-0000" in {ex.id for ex in (*data.train, *data.test)}

    def test_hash_ignores_key_order(self):
        a = {"alpha": 1, "beta": {"x": [1, 2]}}
        b = {"beta": {"x": [1, 2]}, "alpha": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"alpha": 2, "beta": {"x": [1, 2]}})

    def test_same_grid_saved_to_two_directories_gives_equal_results(self, tmp_path):
        """output_dir says where results go, not what they are."""
        methods = [{"kind": "majority"}]
        for name in ("a", "b"):
            config = base_config(methods=methods, budgets=[8], seeds=1,
                                 output_dir=str(tmp_path / name))
            save_result(run_experiment(config), config.output_dir)
        first, second = ((tmp_path / name / "result.json").read_bytes() for name in ("a", "b"))
        assert first == second


class TestDataPreparation:
    def test_synth_split_and_balanced_test(self):
        data = prepare_data(base_config())
        ids = {ex.id for ex in data.train} & {ex.id for ex in data.test}
        assert ids == set()
        counts = data.test.post_counts()
        assert len(set(counts.values())) == 1          # rebalanced

    def test_file_source_with_shift(self, tmp_path):
        from entailshift.corpus import ShiftSpec
        from entailshift.synth import preset_config, synth_generate
        from entailshift.corpus import save_dataset, split

        ds = synth_generate(preset_config("total_flip", n_per_topic=8), seed=0)
        train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
        save_dataset(train_ds, tmp_path / "train.jsonl")
        save_dataset(test_ds, tmp_path / "test.jsonl")
        shift = ShiftSpec(rules={}, default=None) if False else ShiftSpec(
            rules={("alpha", "relevant"): "irrelevant", ("beta", "irrelevant"): "relevant"},
            default=None,
        )
        shift.to_file(tmp_path / "shift.json")
        config = base_config(data={
            "files": {"train": str(tmp_path / "train.jsonl"), "test": str(tmp_path / "test.jsonl")},
            "shift": str(tmp_path / "shift.json"),
            "rebalance_test": False,
        })
        data = prepare_data(config)
        for ex in data.train:
            assert ex.post_label != ex.pre_label

    def test_omitted_data_defaults_match_spelled_out(self):
        synth = {"preset": "retail_shift", "overrides": {"n_per_topic": 12}}
        implicit = base_config(data={"synth": synth})
        explicit = base_config(data={"synth": synth, "test_fraction": 0.25, "rebalance_test": True})
        assert implicit.data == explicit.data
        assert prepare_data(implicit) == prepare_data(explicit)

    def test_budget_subsets_nest_within_a_seed(self):
        pool = prepare_data(base_config()).train
        small = {ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=1)}
        large = {ex.id for ex in budget_subset(pool, 24, master_seed=7, seed_index=1)}
        assert small < large

    def test_budget_subset_shared_across_methods(self):
        pool = prepare_data(base_config()).train
        once = [ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=0)]
        again = [ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=0)]
        assert once == again


class TestRuleFilesReadOnce:
    """A catalog or shift-rule file a config names is read when the config is parsed, never again."""

    @staticmethod
    def rule_file_config(tmp_path) -> ExperimentConfig:
        """Entail on a catalog file, over retail data whose shift file swaps two labels."""
        save_catalog(builtin_catalog("en-retail"), tmp_path / "shop.json")
        swap = {"exact": "substitute", "substitute": "exact", "complement": "complement",
                "irrelevant": "irrelevant"}
        ShiftSpec(rules={(topic, "irrelevant"): post for topic, post in swap.items()}).to_file(
            tmp_path / "swap.json")
        return base_config(
            data={"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 12}},
                  "shift": str(tmp_path / "swap.json")},
            methods=[{"kind": "entail", "catalog_id": str(tmp_path / "shop.json")},
                     {"kind": "finetuned_post_only"}],
            budgets=[8], seeds=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deleting_the_files_after_parse_changes_nothing(self, tmp_path, workers):
        config = self.rule_file_config(tmp_path)
        emit_report(run_experiment(config), tmp_path / "untouched", formats=("csv",))
        (tmp_path / "shop.json").unlink()
        (tmp_path / "swap.json").unlink()
        result = run_experiment(config, workers=workers)
        assert not result.failures
        assert {ex.post_label for ex in prepare_data(config).train if ex.topic == "exact"} == {"substitute"}
        emit_report(result, tmp_path / "deleted", formats=("csv",))
        grids = [(tmp_path / out / "raw_grid.csv").read_bytes() for out in ("untouched", "deleted")]
        assert grids[0] == grids[1]

    def test_a_grid_reads_each_catalog_once(self, monkeypatch):
        reads = []
        original = methods.builtin_catalog
        monkeypatch.setattr(methods, "builtin_catalog", lambda cid: reads.append(cid) or original(cid))
        config = base_config(methods=[{"kind": "entail", "catalog_id": "en-retail"},
                                      {"kind": "entail", "catalog_id": "en-retail",
                                       "prompt_variant": "random"}],
                             budgets=[10, 20], seeds=3)
        result = run_experiment(config)
        assert len(result.scores) == 12 and not result.failures
        assert reads == ["en-retail", "en-retail"]


def use_recording_pool(monkeypatch) -> list[int]:
    """Swap the grid's process pool for a stand-in that records its size, runs
    its initializer once and runs the groups in process; returns the sizes."""
    sizes: list[int] = []
    monkeypatch.setattr(experiment, "_worker_plan", None)   # the stand-in sets it here

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestGridExecution:
    def test_cardinality(self):
        result = run_experiment(base_config())
        assert len(result.scores) == 2 * 2 * 2
        assert not result.failures
        assert set(result.aggregates) == {
            (m, b) for m in result.method_ids for b in result.budget_labels
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        config = base_config()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            result = run_experiment(config)
            save_result(result, out)
            emit_report(result, out)
        for name in ("result.json", "raw_grid.csv", "series.csv", "report.md"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_worker_pool_matches_serial(self):
        config = base_config()
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        assert serial.scores == parallel.scores

    SHARED = [{"kind": "finetuned"}, {"kind": "pre_shift_only"}]

    @staticmethod
    def count_pre_shift_fits(monkeypatch, fail: bool = False) -> list[int]:
        """Wrap every route to the pre-shift fit; each call appends its seed."""
        original = methods.fit_pre_shift
        seeds: list[int] = []

        def counted(spec, pre_train):
            seeds.append(spec.train_config.seed)
            if fail:
                raise RuntimeError("pre-shift fit exploded")
            return original(spec, pre_train)

        monkeypatch.setattr(methods, "fit_pre_shift", counted)
        monkeypatch.setattr(experiment, "fit_pre_shift", counted)
        return seeds

    def test_one_pre_shift_fit_per_seed(self, monkeypatch):
        fits = self.count_pre_shift_fits(monkeypatch)
        result = run_experiment(base_config(methods=self.SHARED))
        assert not result.failures and len(result.scores) == 2 * 2 * 2
        assert len(fits) == len(set(fits)) == 2
        for seed in (0, 1):
            small, full = (s for s in result.scores if s.method == "pre_shift_only" and s.seed == seed)
            assert (small.budget, full.budget) == ("8", "full")
            assert small.macro_f1 == full.macro_f1
            assert small.per_class_f1 == full.per_class_f1

    @pytest.mark.parametrize("own", [{"train": {"epochs": 3}}, {"featurizer": {"dim": 2048}}])
    def test_unequal_settings_do_not_share(self, monkeypatch, own):
        fits = self.count_pre_shift_fits(monkeypatch)
        methods_ = [{"kind": "finetuned"}, {"kind": "pre_shift_only", **own}]
        result = run_experiment(base_config(methods=methods_))
        assert not result.failures
        assert len(fits) == 2 * 2 and len(set(fits)) == 2   # each seed's substream, twice

    @pytest.mark.parametrize("budgets", [[8, "full"], ["full"]], ids=["grouped", "lone"])
    def test_adding_pre_shift_only_leaves_finetuned_unchanged(self, monkeypatch, budgets):
        """The pre-shift substream names the seed, not the method, budget or group,
        so a lone finetuned cell fits the model a shared group would."""
        fits = self.count_pre_shift_fits(monkeypatch)
        alone = run_experiment(base_config(methods=[{"kind": "finetuned"}], budgets=budgets))
        alone_fits = fits[:]
        shared = run_experiment(base_config(methods=self.SHARED[::-1], budgets=budgets))
        assert alone.scores == tuple(s for s in shared.scores if s.method == "finetuned")
        substreams = [derive_seed(7, "pre_shift", seed) for seed in (0, 1)]
        assert sorted(set(alone_fits)) == sorted(set(fits[len(alone_fits):])) == sorted(substreams)

    def test_worker_pool_matches_serial_on_shared_groups(self):
        config = base_config(methods=[{"kind": "majority"}, *self.SHARED])
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        assert serial.scores == parallel.scores
        assert [(s.method, s.budget, s.seed) for s in serial.scores] == [
            (m, b, seed) for m in config.method_ids for b in config.budget_labels for seed in (0, 1)]

    def test_pool_starts_no_more_workers_than_groups(self, monkeypatch):
        config = base_config(methods=self.SHARED)   # one group per seed: 2 groups
        serial = run_experiment(config, workers=1)
        sizes = use_recording_pool(monkeypatch)
        pooled = run_experiment(config, workers=8)
        assert sizes == [2]
        assert pooled.scores == serial.scores

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
    def test_workers_must_be_a_positive_int(self, workers):
        with pytest.raises(ValueError, match=r"^workers must be a positive int, got "):
            run_experiment(base_config(), workers=workers)

    @pytest.mark.parametrize("methods_, budgets", [
        ([{"kind": "majority"}, {"kind": "finetuned"}, {"kind": "pre_shift_only"}], [8, "full"]),
        ([{"kind": "majority"}, {"kind": "finetuned"}], ["full"]),
    ], ids=["shared", "alone"])
    def test_failed_pre_shift_fit_fails_its_cells_only(self, monkeypatch, methods_, budgets):
        fits = self.count_pre_shift_fits(monkeypatch, fail=True)
        result = run_experiment(base_config(methods=methods_, budgets=budgets))
        assert len(fits) == 2
        failed = len(methods_) - 1
        assert len(result.failures) == failed * len(budgets) * 2
        assert {f.method for f in result.failures} == {m["kind"] for m in methods_[1:]}
        assert {f.error for f in result.failures} == {"RuntimeError: pre-shift fit exploded"}
        assert [s.method for s in result.scores] == ["majority"] * len(budgets) * 2

    def test_failed_cells_recorded_and_grid_continues(self):
        # A budget above the training pool fails inside each of its cells.
        result = run_experiment(base_config(budgets=[8, 10**6]))
        assert len(result.failures) == 2 * 2
        assert {f.budget for f in result.failures} == {"1000000"}
        assert all(f.error.startswith("ValueError: n must be in [1, ") for f in result.failures)
        assert len(result.scores) == 2 * 2
        assert {s.budget for s in result.scores} == {"8"}
        assert ("finetuned_post_only", "1000000") not in result.aggregates

    def test_uncovered_catalog_is_one_config_error(self):
        config = base_config(methods=[
            {"kind": "majority"},
            {"kind": "entail", "catalog_id": "en-news"},   # lacks retail prompts
        ])
        with pytest.raises(ConfigError, match=r"methods\[1\]: catalog 'en-news' lacks prompts "
                                               r"for labels \['exact'"):
            run_experiment(config)

    def test_aggregates_match_recomputation_from_csv(self):
        result = run_experiment(base_config())
        rows = render_raw_grid(result).strip().splitlines()
        assert len(rows) == len(result.scores) + 1
        by_cell: dict[tuple[str, str], list[float]] = {}
        for line in rows[1:]:
            method, budget, _seed, macro, *_ = line.split(",")
            by_cell.setdefault((method, budget), []).append(float(macro))
        for key, values in by_cell.items():
            recomputed = aggregate(values)
            assert result.aggregates[key].mean == recomputed.mean
            assert result.aggregates[key].std == recomputed.std

    def test_significance_uses_rank_test(self):
        result = run_experiment(base_config())
        for sig in result.significance:
            best = result.cell_scores(sig.best_method, sig.budget)
            for other, p in sig.p_values:
                expected = mann_whitney_u(best, result.cell_scores(other, sig.budget))
                assert p == expected.p_two_sided


class TestSharedTestInputs:
    """A grid featurizes each test input set once, before its first cell, and
    every cell scores its own model over it, as that cell run alone would."""

    METHODS = [{"kind": "entail", "catalog_id": "en-retail"},
               {"kind": "entail", "catalog_id": "en-retail", "prompt_variant": "random"},
               {"kind": "finetuned"}, {"kind": "pre_shift_only"}]

    def config(self) -> ExperimentConfig:
        return base_config(methods=self.METHODS, budgets=[8, "full"], seeds=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_featurizer_runs_once_per_test_set(self, monkeypatch, workers):
        """One call per (featurizer, catalog) set, all in the process that
        runs the grid: a call in a pool worker would fail its cell."""
        calls = []
        original = methods._featurize_packed
        parent = os.getpid()

        def counted(inputs, config):
            if os.getpid() != parent:
                raise AssertionError("a pool worker featurized a test set again")
            calls.append((len(inputs), config))
            return original(inputs, config)

        monkeypatch.setattr(methods, "_featurize_packed", counted)
        config = self.config()
        result = run_experiment(config, workers=workers)
        assert not result.failures and len(result.scores) == 4 * 2 * 2
        n = len(prepare_data(config).test)
        assert calls == [(4 * n, FeaturizerConfig(dim=4096))] * 2 + [(n, FeaturizerConfig(dim=4096))]

    def test_each_cell_scores_as_run_method_alone(self):
        config = self.config()
        data = prepare_data(config)
        result = run_experiment(config)
        assert len(result.scores) == 4 * 2 * 2
        for cell in result.scores:
            spec = next(s for s in config.method_specs if s.method_id == cell.method)
            budget = next(b for b in config.budgets if str(b) == cell.budget)
            pre_shift = None
            if spec.kind in methods.PRE_SHIFT_KINDS:
                pre_shift = methods.fit_pre_shift(
                    spec.with_seed(derive_seed(7, "pre_shift", cell.seed)), data.train)
            alone = methods.run_method(
                spec.with_seed(derive_seed(7, cell.method, cell.budget, cell.seed)), data.train,
                budget_subset(data.train, budget, 7, cell.seed), data.test, pre_shift)
            gold = [ex.post_label for ex in data.test]
            f1s = per_class_f1(confusion_from_predictions(
                gold, [alone[ex.id] for ex in data.test], data.test.post_labels))
            assert cell.per_class_f1 == tuple(float(v) for v in f1s), cell

    def test_entail_alone_featurizes_one_candidate_batch_at_a_time(self, monkeypatch):
        """Without a set handed in, entail builds none: each batch of at most
        64 candidates goes through the block featurizer as its score call
        needs it, and the predictions equal those over a prebuilt set."""
        config = self.config()
        data = prepare_data(config)
        spec = config.method_specs[0]
        post_train = budget_subset(data.train, 8, 7, 0)
        held = methods.run_method(spec, data.train, post_train, data.test,
                                  inputs=methods.build_inputs(spec, data.test))
        sizes = []
        original = model._featurize_packed

        def counted(inputs, featurizer):
            sizes.append(len(inputs))
            return original(inputs, featurizer)

        def refuse(spec, test):
            raise AssertionError("a lone entail call built a whole test input set")

        monkeypatch.setattr(model, "_featurize_packed", counted)
        monkeypatch.setattr(methods, "build_inputs", refuse)
        alone = methods.run_method(spec, data.train, post_train, data.test)
        assert alone == held
        n = len(data.test) * len(data.test.post_labels)
        assert sizes == [64] * (n // 64) + [n % 64] * (n % 64 > 0)

    def test_failed_test_set_fails_its_readers_only(self, monkeypatch):
        def refuse(spec, test):
            if spec.kind == "entail":
                raise RuntimeError("candidates exploded")
            return original(spec, test)

        original = methods.build_inputs
        monkeypatch.setattr(experiment, "build_inputs", refuse)
        result = run_experiment(base_config(methods=[{"kind": "majority"}, *self.METHODS[::2]]))
        assert {f.method for f in result.failures} == {"entail_informative"}
        assert {f.error for f in result.failures} == {"RuntimeError: candidates exploded"}
        assert len(result.failures) == 2 * 2 and len(result.scores) == 2 * 2 * 2

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_each_shared_value_lives_from_its_first_reader_to_its_last(self, monkeypatch, pool):
        """Each test input set and pre-shift model is built once, held from the
        first group that reads it through the last, then dropped. A pool builds
        its test inputs before it starts, so they are held from its first group."""
        builds = Counter()
        build_inputs, fit_pre_shift = experiment.build_inputs, experiment.fit_pre_shift
        monkeypatch.setattr(experiment, "build_inputs", lambda spec, test: (
            builds.update([methods.input_key(spec)]) or build_inputs(spec, test)))
        monkeypatch.setattr(experiment, "fit_pre_shift", lambda spec, train: (
            builds.update([("pre_shift", spec.train_config.seed)]) or fit_pre_shift(spec, train)))
        runs = []   # (plan, cell index, the keys held as it runs)
        run_cell = experiment._run_cell
        monkeypatch.setattr(experiment, "_run_cell", lambda plan, i: (
            runs.append((plan, i, set(plan.held))) or run_cell(plan, i)))
        if pool:
            use_recording_pool(monkeypatch)
        result = run_experiment(self.config(), workers=2 if pool else 1)
        assert not result.failures and len(result.scores) == 4 * 2 * 2
        assert len(builds) == 3 + 2 and set(builds.values()) == {1}   # 3 test sets, 2 seeds

        plan = runs[0][0]
        assert all(p is plan for p, _, _ in runs) and plan.held == {}
        group_of = {i: g for g, group in enumerate(plan.groups) for i in group}
        held_in: dict[int, set] = {}
        for _, i, held in runs:
            assert held_in.setdefault(group_of[i], held) == held   # a group runs on one held set
            assert sum(key[0] == "pre_shift" for key in held) <= 1
        readers: dict[tuple, list[int]] = {}
        for i, g in sorted(group_of.items()):
            for key in filter(None, plan.reads(i)):
                readers.setdefault(key, []).append(g)
        assert len(readers) == 3 + 2
        for key, groups in readers.items():
            first = 0 if pool and key[0] != "pre_shift" else min(groups)
            assert {g for g, held in held_in.items() if key in held} == set(range(first, max(groups) + 1))

    def test_inputs_of_another_method_or_test_set_refused(self):
        config = self.config()
        data = prepare_data(config)
        entail, _, finetuned, _ = config.method_specs
        rows = methods.build_inputs(finetuned, data.test)
        with pytest.raises(ValueError, match="cannot serve entail_informative"):
            methods.run_method(entail, data.train, data.train, data.test, inputs=rows)
        other = replace(data.test, examples=data.test.examples[:-1])
        with pytest.raises(ValueError, match="built from another test set"):
            methods.run_method(finetuned, data.train, data.train, other, inputs=rows)


def test_no_module_reads_the_environment():
    """A grid takes no option through the environment: no package module
    reads ``os.environ``, ``os.getenv`` or ``os.putenv``."""
    names = {"environ", "getenv", "putenv"}
    readers = {}
    for path in sorted((Path(__file__).parents[1] / "src" / "entailshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                used = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                used = {alias.name for alias in node.names}
            else:
                continue
            if used & names:
                readers.setdefault(path.name, []).append(node.lineno)
    assert readers == {}


# A two-seed grid with seed 0 scored; the malformed cases each add one row.
GRID_SCORE = {"method": "majority", "budget": "4", "seed": 0, "macro_f1": 0.5, "per_class_f1": [0.5, 0.5]}
GRID_PAYLOAD = {
    "name": "x", "method_ids": ["majority"], "budget_labels": ["4"], "seed_indices": [0, 1],
    "class_labels": ["a", "b"], "scores": [], "failures": [], "provenance": {},
}


class TestResultPersistence:
    def test_round_trip(self, tmp_path):
        result = run_experiment(base_config())
        save_result(result, tmp_path)
        loaded = load_result(tmp_path)
        assert loaded.scores == result.scores
        assert loaded.aggregates == result.aggregates
        assert loaded.significance == result.significance
        assert loaded.provenance == dict(result.provenance)

    def test_reloaded_result_saves_byte_for_byte(self, tmp_path):
        """Failed cells, a budget without scores and a dagger all survive a reload."""
        result = run_experiment(base_config(budgets=[8, 10**6], seeds=4))
        assert result.failures and [s.all_significant for s in result.significance] == [True, False]
        first = save_result(result, tmp_path / "a")
        second = save_result(load_result(tmp_path / "a"), tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_missing_result_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_result(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("name", 3), ("method_ids", "majority"), ("budget_labels", [8]), ("class_labels", "ab"),
        ("seed_indices", [True]), ("seed_indices", ["0"]), ("provenance", ["a"]),
        ("provenance", {"version": 1}),
    ], ids=["name-number", "method_ids-string", "budget_labels-number", "class_labels-string",
            "seed_indices-bool", "seed_indices-string", "provenance-list", "provenance-number"])
    def test_mistyped_header_field_is_malformed(self, tmp_path, key, value):
        """A string is not a list of its characters, and provenance is an object of strings."""
        path = save_result(crafted_result(), tmp_path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"result\.json: malformed result \(TypeError\(.*{key}"):
            load_result(tmp_path)

    @pytest.mark.parametrize("key, row, message", [
        ("scores", {**GRID_SCORE, "method": "ghost"}, "is not a cell of the grid"),
        ("scores", {**GRID_SCORE, "seed": 7}, "is not a cell of the grid"),
        ("scores", {**GRID_SCORE, "seed": "zero"}, "is not a cell of the grid"),
        ("scores", {**GRID_SCORE, "seed": 1, "per_class_f1": [0.5]}, r"does not hold one F1 per class label \('a', 'b'\)"),
        ("scores", GRID_SCORE, "repeats a cell of an earlier row"),
        ("failures", {"method": "majority", "budget": "4", "seed": 0, "error": "RuntimeError: x"},
         "repeats a cell of an earlier row"),
    ], ids=["unknown-method", "unknown-seed", "string-seed", "short-per-class", "repeated-score",
            "failure-of-a-scored-cell"])
    def test_row_that_is_not_its_own_grid_cell_is_malformed(self, tmp_path, key, row, message):
        """Every score or failure row is the one row of a (method, budget, seed) cell of the file's grid."""
        payload = {**GRID_PAYLOAD, "scores": [GRID_SCORE]}
        (tmp_path / "result.json").write_text(json.dumps(payload))
        assert len(load_result(tmp_path).scores) == 1
        payload[key] = [*payload[key], row]
        (tmp_path / "result.json").write_text(json.dumps(payload))
        named = re.escape(f"(method={row['method']!r}, budget='4', seed={row['seed']!r}")
        with pytest.raises(ValueError, match=rf"result\.json: malformed result \(ValueError\(.*{named}.*{message}"):
            load_result(tmp_path)

    def test_no_timestamps_in_artifact(self, tmp_path):
        result = run_experiment(base_config())
        path = save_result(result, tmp_path)
        payload = json.loads(path.read_text())
        text = path.read_text()
        assert "time" not in text and "date" not in text
        assert set(payload["provenance"]) == {"config_sha256", "version"}


def crafted_result() -> ExperimentResult:
    """Hand-ranked two-budget fixture: best and second best known per column.

    Each cell holds four seeds at its mean -0.017, -0.003, +0.003 and +0.017,
    so every cell's std is 1.41 x 100 and each budget's best method beats
    every other outright (exact two-sided Mann-Whitney p = 2/70).
    """
    means = {
        ("alpha", "10"): 0.91, ("beta", "10"): 0.51, ("gamma", "10"): 0.71,
        ("alpha", "full"): 0.41, ("beta", "full"): 0.96, ("gamma", "full"): 0.81,
    }
    scores = tuple(
        RunScore(method=method, budget=budget, seed=seed,
                 macro_f1=mean + offset, per_class_f1=(mean + offset, mean + offset))
        for (method, budget), mean in means.items()
        for seed, offset in enumerate((-0.017, -0.003, 0.003, 0.017))
    )
    return ExperimentResult(
        name="crafted", method_ids=("alpha", "beta", "gamma"),
        budget_labels=("10", "full"), seed_indices=(0, 1, 2, 3), class_labels=("a", "b"),
        scores=scores, failures=(), provenance={"config_sha256": "x", "version": "t"},
    )


def tied_result(method_ids: tuple[str, ...]) -> ExperimentResult:
    """One budget where "b" and "c" share the best mean and "a" trails."""
    values = {"a": (0.2, 0.3), "b": (0.6, 0.8), "c": (0.8, 0.6)}
    scores = tuple(
        RunScore(method=method, budget="10", seed=seed, macro_f1=value, per_class_f1=(value,))
        for method in method_ids for seed, value in enumerate(values[method])
    )
    return ExperimentResult(
        name="tied", method_ids=method_ids, budget_labels=("10",), seed_indices=(0, 1),
        class_labels=("x",), scores=scores, failures=(), provenance={},
    )


class TestDerivedSummary:
    def test_equal_means_rank_in_config_order(self):
        assert tied_result(("a", "b", "c")).ranking("10") == ["b", "c", "a"]
        assert tied_result(("c", "a", "b")).ranking("10") == ["c", "b", "a"]

    def test_significance_tests_the_best_against_the_rest_in_config_order(self):
        (sig,) = tied_result(("a", "b", "c")).significance
        assert sig.best_method == "b"
        assert [other for other, _ in sig.p_values] == ["a", "c"]

    def test_report_marks_the_ranking(self):
        lines = render_markdown(tied_result(("a", "b", "c"))).splitlines()
        assert "| b | **70.00(14.14)** |" in lines
        assert "| c | <u>70.00(14.14)</u> |" in lines

    def test_budget_without_scores_has_no_best(self):
        result = replace(tied_result(("a",)), budget_labels=("10", "20"))
        assert result.ranking("20") == []
        assert result.significance[1] == BudgetSignificance("20", "", (), False)


class TestReportRendering:
    def test_bold_best_underline_second(self):
        text = render_markdown(crafted_result())
        lines = {line.split("|")[1].strip(): line for line in text.splitlines() if line.startswith("| ")}
        assert "**91.00(1.41)**" in lines["alpha"]        # best at N=10
        assert "<u>71.00(1.41)</u>" in lines["gamma"]     # second at N=10
        assert "**96.00(1.41)** †" in lines["beta"]       # best at full, significant
        assert "<u>81.00(1.41)</u>" in lines["gamma"]     # second at full

    def test_single_method_row_renders(self):
        result = run_experiment(base_config(methods=[{"kind": "majority"}]))
        text = render_markdown(result)
        rows = [line for line in text.splitlines() if line.startswith("| majority")]
        assert len(rows) == 1

    def test_cell_with_fewer_scored_seeds_shows_its_count(self):
        result = tied_result(("a", "b", "c"))
        result = replace(result, scores=tuple(s for s in result.scores if (s.method, s.seed) != ("a", 1)))
        assert "| a | 20.00 [n=1] |" in render_markdown(result).splitlines()

    def test_failed_cells_render_as_failed(self):
        result = run_experiment(base_config(budgets=[10**6, 8]))
        text = render_markdown(result)
        assert "| majority | failed |" in text
        assert "| finetuned_post_only | failed |" in text
        assert "## Failures" in text

    def test_raw_grid_quotes_labels_that_need_it(self):
        """A label with a comma, a quote or a line break stays one column."""
        assert render_raw_grid(crafted_result()).splitlines()[0] == "method,budget,seed,macro_f1,f1_a,f1_b"
        result = replace(crafted_result(), class_labels=("a,b", 'say "hi"\nthere'))
        rows = list(csv.reader(io.StringIO(render_raw_grid(result))))
        assert rows[0] == ["method", "budget", "seed", "macro_f1", "f1_a,b", 'f1_say "hi"\nthere']
        assert len(rows) == 1 + len(result.scores)
        assert {len(row) for row in rows} == {6}
        assert [float(row[3]) for row in rows[1:]] == [s.macro_f1 for s in result.scores]

    def test_series_lists_every_aggregate(self):
        result = crafted_result()
        lines = render_series(result).strip().splitlines()
        assert lines[0] == "budget,method,mean,std,count"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("10,alpha,")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report formats"):
            emit_report(crafted_result(), tmp_path, formats=("pdf",))
