"""Experiment grid runner, aggregation, and report emission."""
from __future__ import annotations

import json

import pytest

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
from entailshift.stats import RunScore, aggregate, mann_whitney_u


def base_config(**overrides) -> ExperimentConfig:
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
    return ExperimentConfig.from_dict(raw)


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
        ({"featurizer": {"word_ngrams": 2}}, r"methods\[0\]\.featurizer: "),
        ({"featurizer": {"dim": 1000}}, r"methods\[0\]\.featurizer: dim"),
        ({"methods": [{"kind": "finetuned", "pre_train": {}}]}, "unknown keys"),
        ({"train": {"epochs": 2.5}}, r"methods\[0\]\.train: epochs must be an integer"),
        ({"train": {"epochs": True}}, r"methods\[0\]\.train: epochs must be an integer"),
        ({"train": {"batch_size": 4.5}}, r"methods\[0\]\.train: batch_size must be an integer"),
        ({"methods": [{"kind": "entail", "catalog_id": "en-retail", "oversample": "false"}]},
         r"methods\[0\]: oversample must be true or false"),
        ({"featurizer": {"cross_features": "no"}}, r"methods\[0\]\.featurizer: cross_features"),
        ({"featurizer": {"word_ngrams": [1, 2, 1]}}, r"methods\[0\]\.featurizer: word_ngrams"),
    ])
    def test_invalid_configs_rejected(self, broken, message):
        with pytest.raises(ConfigError, match=message):
            base_config(**broken)

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
        assert data.pre_train is data.post_pool
        ids = {ex.id for ex in data.pre_train} & {ex.id for ex in data.test}
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
        for ex in data.post_pool:
            assert ex.post_label != ex.pre_label

    def test_budget_subsets_nest_within_a_seed(self):
        pool = prepare_data(base_config()).post_pool
        small = {ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=1)}
        large = {ex.id for ex in budget_subset(pool, 24, master_seed=7, seed_index=1)}
        assert small < large

    def test_budget_subset_shared_across_methods(self):
        pool = prepare_data(base_config()).post_pool
        once = [ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=0)]
        again = [ex.id for ex in budget_subset(pool, 8, master_seed=7, seed_index=0)]
        assert once == again


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

    def test_failed_cells_recorded_and_grid_continues(self):
        config = base_config(methods=[
            {"kind": "majority"},
            {"kind": "entail", "catalog_id": "en-news"},   # lacks retail prompts
        ])
        result = run_experiment(config)
        assert len(result.failures) == 2 * 2
        assert {f.method for f in result.failures} == {"entail_informative"}
        assert len(result.scores) == 2 * 2
        assert ("entail_informative", "8") not in result.aggregates

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


class TestResultPersistence:
    def test_round_trip(self, tmp_path):
        result = run_experiment(base_config())
        save_result(result, tmp_path)
        loaded = load_result(tmp_path)
        assert loaded.scores == result.scores
        assert loaded.aggregates == result.aggregates
        assert loaded.significance == result.significance
        assert loaded.provenance == dict(result.provenance)

    def test_missing_result_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_result(tmp_path)

    def test_no_timestamps_in_artifact(self, tmp_path):
        result = run_experiment(base_config())
        path = save_result(result, tmp_path)
        payload = json.loads(path.read_text())
        text = path.read_text()
        assert "time" not in text and "date" not in text
        assert set(payload["provenance"]) == {"config_sha256", "version"}


def crafted_result() -> ExperimentResult:
    """Hand-ranked two-budget fixture: best and second best known per column."""
    def score(method, budget, seed, value):
        return RunScore(method=method, budget=budget, seed=seed,
                        macro_f1=value, per_class_f1=(value, value))

    scores = (
        score("alpha", "10", 0, 0.90), score("alpha", "10", 1, 0.92),
        score("beta", "10", 0, 0.50), score("beta", "10", 1, 0.52),
        score("gamma", "10", 0, 0.70), score("gamma", "10", 1, 0.72),
        score("alpha", "full", 0, 0.40), score("alpha", "full", 1, 0.42),
        score("beta", "full", 0, 0.95), score("beta", "full", 1, 0.97),
        score("gamma", "full", 0, 0.80), score("gamma", "full", 1, 0.82),
    )
    aggregates = {}
    for method in ("alpha", "beta", "gamma"):
        for budget in ("10", "full"):
            values = [s.macro_f1 for s in scores if s.method == method and s.budget == budget]
            aggregates[(method, budget)] = aggregate(values)
    significance = (
        BudgetSignificance("10", "alpha", (("beta", 0.33), ("gamma", 0.33)), False),
        BudgetSignificance("full", "beta", (("alpha", 0.02), ("gamma", 0.03)), True),
    )
    return ExperimentResult(
        name="crafted", method_ids=("alpha", "beta", "gamma"),
        budget_labels=("10", "full"), seed_indices=(0, 1), class_labels=("a", "b"),
        scores=scores, failures=(), aggregates=aggregates,
        significance=significance, provenance={"config_sha256": "x", "version": "t"},
    )


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

    def test_failed_cells_render_as_failed(self):
        config = base_config(methods=[
            {"kind": "majority"},
            {"kind": "entail", "catalog_id": "en-news"},
        ])
        result = run_experiment(config)
        text = render_markdown(result)
        assert "| entail_informative | failed | failed |" in text
        assert "## Failures" in text

    def test_series_lists_every_aggregate(self):
        result = crafted_result()
        lines = render_series(result).strip().splitlines()
        assert lines[0] == "budget,method,mean,std,count"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("10,alpha,")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report formats"):
            emit_report(crafted_result(), tmp_path, formats=("pdf",))
