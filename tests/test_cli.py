"""End-to-end command-line interface checks."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from entailshift.cli import main
from entailshift.corpus import ShiftSpec, load_dataset, save_dataset, split
from entailshift.methods import METHOD_KINDS
from entailshift.model import FeaturizerConfig, TrainConfig
from entailshift.synth import preset_config, synth_generate


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def retail_files(tmp_path):
    ds = synth_generate(preset_config("retail_shift", n_per_topic=8), seed=0)
    train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    save_dataset(train_ds, train_path)
    save_dataset(test_ds, test_path)
    return train_path, test_path


class TestSimulateShift:
    def test_relabels_and_saves(self, runner, tmp_path):
        ds = synth_generate(preset_config("total_flip", n_per_topic=6), seed=0)
        in_path = tmp_path / "data.jsonl"
        save_dataset(ds, in_path)
        shift_path = tmp_path / "shift.json"
        ShiftSpec(
            rules={("alpha", "relevant"): "irrelevant", ("beta", "irrelevant"): "relevant"},
            default=None,
        ).to_file(shift_path)
        out_path = tmp_path / "shifted.jsonl"
        result = runner.invoke(main, [
            "simulate-shift", "--in", str(in_path), "--spec", str(shift_path),
            "--out", str(out_path),
        ])
        assert result.exit_code == 0, result.output
        shifted = load_dataset(out_path)
        assert all(ex.post_label != ex.pre_label for ex in shifted)

    def test_uncovered_pair_is_clean_error(self, runner, tmp_path):
        ds = synth_generate(preset_config("total_flip", n_per_topic=4), seed=0)
        in_path = tmp_path / "data.jsonl"
        save_dataset(ds, in_path)
        shift_path = tmp_path / "shift.json"
        ShiftSpec(rules={("alpha", "relevant"): "irrelevant"}, default=None).to_file(shift_path)
        result = runner.invoke(main, [
            "simulate-shift", "--in", str(in_path), "--spec", str(shift_path),
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert result.exit_code != 0
        assert "does not cover" in result.output
        assert "Traceback" not in result.output


class TestAugment:
    def test_sample_counts(self, runner, retail_files, tmp_path):
        train_path, _ = retail_files
        n = len(load_dataset(train_path).examples)
        out_path = tmp_path / "augmented.jsonl"
        result = runner.invoke(main, [
            "augment", "--in", str(train_path), "--catalog", "en-retail",
            "--out", str(out_path),
        ])
        assert result.exit_code == 0, result.output
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 5 * n            # K=4 plus one oversampled positive
        labels = [json.loads(line)["binary_label"] for line in lines]
        assert sum(labels) == 2 * n

    def test_no_oversample(self, runner, retail_files, tmp_path):
        train_path, _ = retail_files
        n = len(load_dataset(train_path).examples)
        out_path = tmp_path / "augmented.jsonl"
        result = runner.invoke(main, [
            "augment", "--in", str(train_path), "--catalog", "en-retail",
            "--no-oversample", "--out", str(out_path),
        ])
        assert result.exit_code == 0, result.output
        assert len(out_path.read_text().strip().splitlines()) == 4 * n


class TestTrainEval:
    def test_majority_predictions_and_score(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "majority", "--train", str(train_path),
            "--test", str(test_path), "--out", str(pred_path),
        ])
        assert result.exit_code == 0, result.output
        test_ds = load_dataset(test_path)
        assert len(pred_path.read_text().strip().splitlines()) == len(test_ds.examples)

        result = runner.invoke(main, [
            "eval", "--pred", str(pred_path), "--gold", str(test_path),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("macro_f1 ")
        for label in ("exact", "substitute", "complement", "irrelevant"):
            assert f"f1[{label}]" in result.output

    def test_entail_train_roundtrip(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "entail", "--catalog", "en-retail",
            "--train", str(train_path), "--test", str(test_path),
            "--epochs", "3", "--dim", "4096", "--out", str(pred_path),
        ])
        assert result.exit_code == 0, result.output
        test_ds = load_dataset(test_path)
        preds = {json.loads(line)["predicted_label"] for line in pred_path.read_text().splitlines()}
        assert preds <= set(test_ds.post_labels)

    def test_eval_missing_prediction(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        pred_path.write_text('{"id": "nonexistent", "predicted_label": "exact"}\n')
        result = runner.invoke(main, ["eval", "--pred", str(pred_path), "--gold", str(test_path)])
        assert result.exit_code != 0
        assert "no prediction for ids" in result.output

    def test_method_choices_are_the_method_kinds(self):
        method = next(p for p in main.commands["train"].params if p.name == "kind")
        assert tuple(method.type.choices) == METHOD_KINDS

    @pytest.mark.parametrize("option, default", [
        ("epochs", TrainConfig.epochs),
        ("learning_rate", TrainConfig.learning_rate),
        ("batch_size", TrainConfig.batch_size),
        ("l2_penalty", TrainConfig.l2_penalty),
        ("seed", TrainConfig.seed),
        ("dim", FeaturizerConfig.dim),
    ])
    def test_option_defaults_are_the_config_defaults(self, option, default):
        param = next(p for p in main.commands["train"].params if p.name == option)
        assert param.default == default
        assert type(param.default) is type(default)


def write_config(tmp_path, **overrides):
    raw = {
        "name": "cli-tiny",
        "master_seed": 3,
        "data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 10}}},
        "methods": [{"kind": "majority"}, {"kind": "finetuned_post_only"}],
        "budgets": [8, "full"],
        "seeds": 2,
        "train": {"epochs": 2},
        "featurizer": {"dim": 4096},
        "output_dir": str(tmp_path / "results"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestExperimentCommand:
    def test_full_run_writes_artifacts(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "results"
        for name in ("result.json", "raw_grid.csv", "series.csv", "report.md"):
            assert (out / name).exists()
        grid = (out / "raw_grid.csv").read_text().strip().splitlines()
        assert len(grid) == 1 + 2 * 2 * 2

    def test_rerun_identical_grid(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        first = (tmp_path / "results" / "raw_grid.csv").read_bytes()
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        assert (tmp_path / "results" / "raw_grid.csv").read_bytes() == first

    def test_failures_set_exit_status(self, runner, tmp_path):
        config_path = write_config(tmp_path, methods=[
            {"kind": "majority"},
            {"kind": "entail", "catalog_id": "en-news"},
        ])
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "FAILED" in result.output

    def test_workers_flag(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        result = runner.invoke(main, [
            "experiment", "--config", str(config_path), "--workers", "2",
        ])
        assert result.exit_code == 0, result.output


class TestReportCommand:
    def test_reemit_from_stored_result(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        out = tmp_path / "results"
        original = (out / "report.md").read_bytes()
        (out / "report.md").unlink()
        result = runner.invoke(main, ["report", "--result", str(out), "--format", "md"])
        assert result.exit_code == 0, result.output
        assert (out / "report.md").read_bytes() == original

    def test_bad_format_rejected(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        result = runner.invoke(main, [
            "report", "--result", str(tmp_path / "results"), "--format", "pdf",
        ])
        assert result.exit_code != 0
