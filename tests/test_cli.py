"""End-to-end command-line interface checks."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from entailshift.cli import main
from entailshift.corpus import ShiftSpec, load_dataset, save_dataset, split
from entailshift import methods
from entailshift.methods import METHOD_KINDS, MethodSpec, load_predictions, run_method
from entailshift.model import FeaturizerConfig, TrainConfig
from entailshift.stats import aggregate
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

    def test_deletion_frac_outside_unit_interval_is_clean_error(self, runner, retail_files, tmp_path):
        train_path, _ = retail_files
        result = runner.invoke(main, [
            "augment", "--in", str(train_path), "--catalog", "en-retail",
            "--deletion-frac", "2", "--out", str(tmp_path / "augmented.jsonl"),
        ])
        assert result.exit_code != 0
        assert "deletion_frac must be a number in [0, 1], got 2.0" in result.output


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

    def test_finetuned_warm_starts_from_the_pre_train_file(self, runner, retail_files, tmp_path,
                                                           monkeypatch):
        """``--pre-train`` is the pre-shift set ``run_method`` fits the warm start on."""
        train_path, test_path = retail_files
        pre, post = split(load_dataset(train_path), test_fraction=0.5, seed=3)
        pre_path, post_path, pred_path = (tmp_path / f"{n}.jsonl" for n in ("pre", "post", "pred"))
        save_dataset(pre, pre_path)
        save_dataset(post, post_path)
        fitted = []
        fit = methods.fit_pre_shift
        monkeypatch.setattr(methods, "fit_pre_shift", lambda spec, ds: fitted.append(len(ds)) or fit(spec, ds))
        result = runner.invoke(main, [
            "train", "--method", "finetuned", "--pre-train", str(pre_path), "--train", str(post_path),
            "--test", str(test_path), "--epochs", "3", "--dim", "4096", "--out", str(pred_path),
        ])
        assert result.exit_code == 0, result.output
        assert fitted == [len(pre)]
        spec = MethodSpec(kind="finetuned", train_config=TrainConfig(epochs=3),
                          featurizer=FeaturizerConfig(dim=4096))
        expected = run_method(spec, load_dataset(pre_path), load_dataset(post_path), load_dataset(test_path))
        assert load_predictions(pred_path) == expected

    def test_non_positive_weight_decay_is_clean_error(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "finetuned_post_only", "--train", str(train_path),
            "--test", str(test_path), "--learning-rate", "1e6", "--out", str(pred_path),
        ])
        assert result.exit_code == 1
        assert "learning_rate * l2_penalty must be below 1" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not pred_path.exists()

    def test_non_finite_learning_rate_is_clean_error(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "finetuned_post_only", "--train", str(train_path),
            "--test", str(test_path), "--learning-rate", "nan", "--out", str(pred_path),
        ])
        assert result.exit_code == 1
        assert "learning_rate must be a finite number, got nan" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not pred_path.exists()

    def test_negative_seed_is_clean_error(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "entail", "--catalog", "en-retail", "--train", str(train_path),
            "--test", str(test_path), "--seed", "-1", "--out", str(pred_path),
        ])
        assert result.exit_code == 1
        assert "Error: seed must be non-negative, got -1" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not pred_path.exists()

    @pytest.mark.parametrize("options, message", [
        (["--method", "finetuned", "--variant", "random"],
         "prompt_variant applies only to entail, not 'finetuned'"),
        (["--method", "majority", "--catalog", "en-retail"],
         "catalog_id applies only to entail, not 'majority'"),
    ], ids=["variant", "catalog"])
    def test_entail_option_on_another_method_is_clean_error(self, runner, retail_files, tmp_path,
                                                           options, message):
        """The command refuses what a config with the same method entry refuses."""
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", *options, "--train", str(train_path), "--test", str(test_path),
            "--out", str(pred_path),
        ])
        assert result.exit_code == 1
        assert f"Error: {message}" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not pred_path.exists()

    def test_test_file_with_reordered_post_labels_is_clean_error(self, runner, tmp_path):
        """The test sidecar lists the training labels reversed: without the check,
        every prediction maps through the wrong order and macro-F1 drops to 0."""
        ds = synth_generate(preset_config("total_flip", n_per_topic=40), seed=0)
        train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
        train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        save_dataset(train_ds, train_path)
        save_dataset(test_ds, test_path)
        sidecar = tmp_path / "test.jsonl.labels.json"
        labels = json.loads(sidecar.read_text())
        labels["post_labels"].reverse()
        sidecar.write_text(json.dumps(labels))
        pred_path = tmp_path / "predictions.jsonl"
        result = runner.invoke(main, [
            "train", "--method", "finetuned_post_only", "--train", str(train_path),
            "--test", str(test_path), "--out", str(pred_path),
        ])
        assert result.exit_code == 1
        assert repr(tuple(labels["post_labels"])) in result.output
        assert repr(train_ds.post_labels.labels) in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not pred_path.exists()

    def test_eval_missing_prediction(self, runner, retail_files, tmp_path):
        train_path, test_path = retail_files
        pred_path = tmp_path / "predictions.jsonl"
        pred_path.write_text('{"id": "nonexistent", "predicted_label": "exact"}\n')
        result = runner.invoke(main, ["eval", "--pred", str(pred_path), "--gold", str(test_path)])
        assert result.exit_code != 0
        assert "no prediction for ids" in result.output

    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_layout_option_is_gone(self, runner, retail_files, tmp_path, command):
        """Each example's own text decides its layout; there is no --mode to set."""
        train_path, test_path = retail_files
        args = {
            "augment": ["--in", str(train_path), "--catalog", "en-retail"],
            "train": ["--method", "entail", "--catalog", "en-retail", "--train", str(train_path),
                      "--test", str(test_path)],
        }[command]
        result = runner.invoke(main, [command, *args, "--out", str(tmp_path / "out.jsonl"),
                                      "--mode", "two"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--mode" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out.jsonl").exists()

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


# A result.json that loads: the malformed cases below each break one row of it.
SCORE_ROW = {"method": "majority", "budget": "8", "seed": 0, "macro_f1": 0.5, "per_class_f1": [0.5, 0.5]}
RESULT_PAYLOAD = {
    "name": "x", "method_ids": ["majority"], "budget_labels": ["8"], "seed_indices": [0],
    "class_labels": ["a", "b"], "scores": [SCORE_ROW], "failures": [], "provenance": {},
}


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
        # A budget above the training pool fails inside each of its cells.
        config_path = write_config(tmp_path, budgets=[8, 10**6])
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "FAILED" in result.output

    def test_uncovered_catalog_fails_before_any_cell(self, runner, tmp_path):
        config_path = write_config(tmp_path, methods=[
            {"kind": "majority"},
            {"kind": "entail", "catalog_id": "en-news"},
        ])
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "methods[1]: catalog 'en-news' lacks prompts for labels" in result.output
        assert "FAILED" not in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "results" / "result.json").exists()

    def test_non_object_method_section_is_clean_error(self, runner, tmp_path):
        config_path = write_config(tmp_path, methods=[{"kind": "majority", "train": "x"}])
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "methods[0].train must be an object" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_workers_flag(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        result = runner.invoke(main, [
            "experiment", "--config", str(config_path), "--workers", "2",
        ])
        assert result.exit_code == 0, result.output

    def test_workers_below_one_is_a_usage_error(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        result = runner.invoke(main, [
            "experiment", "--config", str(config_path), "--workers", "0",
        ])
        assert result.exit_code == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("data, message", [
        ({"synth": {"preset": "nope"}}, "unknown synth preset 'nope'"),
        ({"synth": {"preset": "retail_shift", "overrides": {"bogus": 1}}},
         "data.synth.overrides: unknown keys ['bogus']"),
        ({"synth": {"preset": "retail_shift", "overrides": {"shift": {"rules": []}}}},
         "data.synth.overrides: unknown keys ['shift']"),
    ], ids=["preset", "overrides", "shift_override"])
    def test_bad_data_section_is_clean_error(self, runner, tmp_path, data, message):
        config_path = write_config(tmp_path, data=data)
        result = runner.invoke(main, ["experiment", "--config", str(config_path)])
        assert result.exit_code == 1
        assert f"Error: {config_path}: " in result.output
        assert message in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


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

    def test_stored_summary_is_recomputed_from_the_scores(self, runner, tmp_path):
        """A result.json whose aggregates and significance contradict its
        scores re-emits the reports of its scores."""
        config_path = write_config(tmp_path)
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        out = tmp_path / "results"
        originals = {name: (out / name).read_bytes() for name in ("series.csv", "report.md")}
        payload = json.loads((out / "result.json").read_text())
        for entry in payload["aggregates"]:
            entry.update(mean=0.5, std=0.0, count=99)
        for entry in payload["significance"]:
            entry.update(best_method="nobody", p_values=[["nobody", 0.0]], all_significant=True)
        (out / "result.json").write_text(json.dumps(payload))
        result = runner.invoke(main, ["report", "--result", str(out)])
        assert result.exit_code == 0, result.output
        for name, original in originals.items():
            assert (out / name).read_bytes() == original
        by_cell = {}
        for line in (out / "raw_grid.csv").read_text().splitlines()[1:]:
            method, budget, _seed, macro, *_ = line.split(",")
            by_cell.setdefault((budget, method), []).append(float(macro))
        series = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
        assert {(budget, method) for budget, method, *_ in series} == set(by_cell)
        for budget, method, mean, _std, count in series:
            values = by_cell[(budget, method)]
            assert float(mean) == aggregate(values).mean
            assert int(count) == len(values)

    @pytest.mark.parametrize("content", [
        '{"name": "x"}', "[1, 2]", b"\xff{}",
        json.dumps({**RESULT_PAYLOAD, "scores": [{**SCORE_ROW, "weight": 1.0}]}),
        json.dumps({**RESULT_PAYLOAD, "failures": [{"method": "majority", "budget": "8", "seed": 0}]}),
    ], ids=["missing_key", "not_an_object", "not_utf8", "score_row_extra_key", "failure_row_without_error"])
    def test_malformed_result_is_clean_error(self, runner, tmp_path, content):
        path = tmp_path / "result.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        result = runner.invoke(main, ["report", "--result", str(tmp_path)])
        assert result.exit_code == 1
        assert f"Error: {path}" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_unbroken_payload_reports(self, runner, tmp_path):
        """The payload the malformed cases break is itself a valid result."""
        (tmp_path / "result.json").write_text(json.dumps(RESULT_PAYLOAD))
        result = runner.invoke(main, ["report", "--result", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "raw_grid.csv").read_text().splitlines()[1] == "majority,8,0,0.5,0.5,0.5"

    def test_empty_format_list_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "--result", str(tmp_path), "--format", ","])
        assert result.exit_code == 1
        assert "Error: no report formats requested" in result.output

    def test_bad_format_rejected(self, runner, tmp_path):
        config_path = write_config(tmp_path)
        assert runner.invoke(main, ["experiment", "--config", str(config_path)]).exit_code == 0
        result = runner.invoke(main, [
            "report", "--result", str(tmp_path / "results"), "--format", "pdf",
        ])
        assert result.exit_code != 0
