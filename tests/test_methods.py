"""Comparison methods behind the uniform run_method interface."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from entailshift.corpus import Dataset, Example, LabelSet, fewshot_sample, split
from entailshift.methods import (
    METHOD_KINDS,
    MethodSpec,
    _multiclass_segments,
    load_predictions,
    resolve_catalog,
    run_method,
    save_predictions,
)
from entailshift.model import FeaturizerConfig, TrainConfig, featurize, score, train, train_joint
from entailshift.stats import confusion_from_predictions, macro_f1
from entailshift.synth import preset_config, synth_generate

FAST_FEAT = FeaturizerConfig(dim=2**14)
FAST_TRAIN = TrainConfig(epochs=10, seed=0)


def spec_for(kind: str, **kwargs) -> MethodSpec:
    defaults = dict(train_config=FAST_TRAIN, featurizer=FAST_FEAT)
    if kind == "entail":
        defaults["catalog_id"] = "en-retail"
    defaults.update(kwargs)
    return MethodSpec(kind=kind, **defaults)


def retail_splits(noise: float = 0.0, per_topic: int = 30, n_shot: int | None = None):
    ds = synth_generate(preset_config("retail_shift", n_per_topic=per_topic, noise_rate=noise), seed=1)
    train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
    post_train = train_ds if n_shot is None else fewshot_sample(train_ds, n_shot, seed=5)
    return train_ds, post_train, test_ds


def score_predictions(predictions: dict[str, str], test: Dataset) -> float:
    gold = [ex.post_label for ex in test]
    pred = [predictions[ex.id] for ex in test]
    return macro_f1(confusion_from_predictions(gold, pred, test.post_labels))


class TestMajority:
    def balanced_test(self, labels: LabelSet, per_class: int) -> Dataset:
        examples = tuple(
            Example(id=f"t{label}{i}", text_a=f"text {label} {i}",
                    pre_label=labels.labels[0], post_label=label)
            for label in labels
            for i in range(per_class)
        )
        return Dataset(examples=examples, pre_labels=labels, post_labels=labels)

    def skewed_train(self, labels: LabelSet, majority_label: str) -> Dataset:
        examples = tuple(
            Example(id=f"s{i}", text_a=f"text {i}", pre_label=labels.labels[0],
                    post_label=majority_label if i < 7 else labels.labels[0])
            for i in range(10)
        )
        return Dataset(examples=examples, pre_labels=labels, post_labels=labels)

    def test_balanced_binary_macro_is_one_third(self):
        labels = LabelSet(("relevant", "irrelevant"))
        test = self.balanced_test(labels, 30)
        train = self.skewed_train(labels, "irrelevant")
        predictions = run_method(spec_for("majority"), train, train, test)
        assert set(predictions.values()) == {"irrelevant"}
        assert abs(score_predictions(predictions, test) - 1 / 3) < 1e-12

    def test_balanced_fourway_macro_is_ten_percent(self):
        labels = LabelSet(("exact", "substitute", "complement", "irrelevant"))
        test = self.balanced_test(labels, 10)
        train = self.skewed_train(labels, "substitute")
        predictions = run_method(spec_for("majority"), train, train, test)
        assert abs(score_predictions(predictions, test) - 0.10) < 1e-12

    def test_majority_comes_from_post_train_not_test(self):
        labels = LabelSet(("a", "b"))
        test = self.balanced_test(labels, 5)          # balanced; no majority here
        examples = tuple(
            Example(id=f"x{i}", text_a="t", pre_label="a", post_label="b") for i in range(3)
        )
        train = Dataset(examples=examples, pre_labels=labels, post_labels=labels)
        predictions = run_method(spec_for("majority"), train, train, test)
        assert set(predictions.values()) == {"b"}

    def test_tie_breaks_to_lowest_label_index(self):
        labels = LabelSet(("z_first", "a_second"))
        examples = tuple(
            Example(id=f"x{i}", text_a="t", pre_label="z_first",
                    post_label="z_first" if i % 2 else "a_second")
            for i in range(4)
        )
        train = Dataset(examples=examples, pre_labels=labels, post_labels=labels)
        predictions = run_method(spec_for("majority"), train, train, train)
        assert set(predictions.values()) == {"z_first"}

    def test_empty_post_train_rejected(self):
        labels = LabelSet(("a", "b"))
        empty = Dataset(examples=(), pre_labels=labels, post_labels=labels)
        test = self.balanced_test(labels, 2)
        with pytest.raises(ValueError, match="non-empty"):
            run_method(spec_for("majority"), empty, empty, test)


class TestMulticlassMethods:
    def test_pre_shift_only_collapses_under_total_flip(self):
        """Trained on the old concept and scored on the new one after every
        label inverted, the carried-over model is almost exactly wrong."""
        ds = synth_generate(preset_config("total_flip", n_per_topic=40), seed=2)
        train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
        predictions = run_method(spec_for("pre_shift_only"), train_ds, train_ds, test_ds)
        assert score_predictions(predictions, test_ds) < 0.2

    def test_finetuned_post_only_learns_noiseless_shift(self):
        train_ds, post_train, test_ds = retail_splits()
        predictions = run_method(spec_for("finetuned_post_only"), train_ds, post_train, test_ds)
        assert score_predictions(predictions, test_ds) > 0.9

    def test_finetuned_without_pre_data_reduces_to_post_only(self):
        train_ds, post_train, test_ds = retail_splits(per_topic=15)
        empty = Dataset(
            examples=(), pre_labels=train_ds.pre_labels, post_labels=train_ds.post_labels,
        )
        finetuned = run_method(spec_for("finetuned"), empty, post_train, test_ds)
        post_only = run_method(spec_for("finetuned_post_only"), train_ds, post_train, test_ds)
        assert finetuned == post_only

    def test_finetuned_recovers_from_carried_over_bias(self):
        train_ds, post_train, test_ds = retail_splits()
        predictions = run_method(spec_for("finetuned"), train_ds, post_train, test_ds)
        assert score_predictions(predictions, test_ds) > 0.9

    def test_l1l2_trains_on_both_labels(self):
        train_ds, post_train, test_ds = retail_splits(per_topic=15)
        predictions = run_method(spec_for("l1l2"), train_ds, post_train, test_ds)
        assert set(predictions) == {ex.id for ex in test_ds}

    def test_unmappable_pre_label_is_an_error(self):
        labels_pre = LabelSet(("old_a", "old_b"))
        labels_post = LabelSet(("new_a", "new_b"))
        examples = tuple(
            Example(id=f"x{i}", text_a=f"text {i}", pre_label="old_a", post_label="new_a")
            for i in range(4)
        )
        ds = Dataset(examples=examples, pre_labels=labels_pre, post_labels=labels_post)
        with pytest.raises(ValueError, match="old_a"):
            run_method(spec_for("pre_shift_only"), ds, ds, ds)


class TestEntail:
    def test_beats_finetuned_at_ten_shots_on_noiseless_shift(self):
        """The binary reformulation sees K samples per example and no stale
        pre-shift bias, so at a 10-example budget it should clearly beat
        warm-started fine-tuning on cleanly separable data."""
        gaps = []
        for seed in range(3):
            train_ds, test_ds = split(
                synth_generate(preset_config("retail_shift", n_per_topic=30), seed=3),
                test_fraction=0.25, seed=0,
            )
            post_train = fewshot_sample(train_ds, 10, seed=seed)
            entail_spec = spec_for("entail", train_config=TrainConfig(epochs=10, seed=seed))
            tuned_spec = spec_for("finetuned", train_config=TrainConfig(epochs=10, seed=seed))
            entail_score = score_predictions(
                run_method(entail_spec, train_ds, post_train, test_ds), test_ds
            )
            tuned_score = score_predictions(
                run_method(tuned_spec, train_ds, post_train, test_ds), test_ds
            )
            gaps.append(entail_score - tuned_score)
        assert np.mean(gaps) > 0

    def test_random_variant_predicts_within_label_set(self):
        train_ds, post_train, test_ds = retail_splits(per_topic=10)
        spec = spec_for("entail", prompt_variant="random")
        predictions = run_method(spec, train_ds, post_train, test_ds)
        assert set(predictions.values()) <= set(test_ds.post_labels)

    def test_catalog_must_cover_labels(self):
        train_ds, post_train, test_ds = retail_splits(per_topic=5)
        spec = spec_for("entail", catalog_id="en-news")
        with pytest.raises(ValueError, match="lacks prompts"):
            run_method(spec, train_ds, post_train, test_ds)

    def test_resolve_catalog_rejects_unknown(self):
        with pytest.raises(ValueError, match="neither"):
            resolve_catalog("does-not-exist")


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="unknown method kind"):
            MethodSpec(kind="mystery")

    def test_entail_needs_catalog(self):
        with pytest.raises(ValueError, match="catalog_id"):
            MethodSpec(kind="entail")

    def test_prompt_variant_only_for_entail(self):
        with pytest.raises(ValueError, match="entail"):
            MethodSpec(kind="majority", prompt_variant="random")

    def test_method_ids(self):
        assert spec_for("majority").method_id == "majority"
        assert spec_for("entail").method_id == "entail_informative"
        assert spec_for("entail", prompt_variant="random").method_id == "entail_random"

    def test_with_seed_replaces_training_seeds(self):
        spec = spec_for("finetuned")
        out = spec.with_seed(99)
        assert out.train_config.seed == 99


class TestUniformContract:
    @pytest.mark.parametrize("kind", METHOD_KINDS)
    def test_one_inlabel_prediction_per_test_id(self, kind):
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=8)
        predictions = run_method(spec_for(kind), train_ds, post_train, test_ds)
        assert set(predictions) == {ex.id for ex in test_ds}
        assert set(predictions.values()) <= set(test_ds.post_labels)

    @pytest.mark.parametrize("kind", ["finetuned", "l1l2", "entail"])
    def test_deterministic_given_seed(self, kind):
        train_ds, post_train, test_ds = retail_splits(per_topic=8)
        a = run_method(spec_for(kind), train_ds, post_train, test_ds)
        b = run_method(spec_for(kind), train_ds, post_train, test_ds)
        assert a == b

    @pytest.mark.parametrize("kind", ["finetuned_post_only", "entail"])
    def test_empty_test_set_predicts_nothing(self, kind):
        """Zero test rows score as zero rows; they are not a training error."""
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=8)
        empty = Dataset(examples=(), pre_labels=test_ds.pre_labels, post_labels=test_ds.post_labels)
        spec = spec_for(kind, concat_mode="two_segment" if kind == "entail" else None)
        assert run_method(spec, train_ds, post_train, empty) == {}


def reference_multiclass(kind: str, pre_train: Dataset, post_train: Dataset, test: Dataset,
                         cfg: TrainConfig, feat: FeaturizerConfig) -> dict[str, str]:
    """Each multiclass kind spelled out as its own featurize/train calls."""
    def features(ds):
        return [featurize(_multiclass_segments(ex), feat) for ex in ds]

    def targets(ds, column):
        return [ds.post_labels.index(getattr(ex, f"{column}_label")) for ex in ds]

    k = len(post_train.post_labels)
    if kind == "pre_shift_only":
        model = train(features(pre_train), targets(pre_train, "pre"), cfg,
                      head="multiclass", n_classes=k, featurizer=feat)
    elif kind == "finetuned":
        warm = train(features(pre_train), targets(pre_train, "pre"), cfg,
                     head="multiclass", n_classes=k, featurizer=feat)
        model = train(features(post_train), targets(post_train, "post"),
                      replace(cfg, warm_start=warm), head="multiclass", n_classes=k,
                      featurizer=feat)
    elif kind == "finetuned_post_only":
        model = train(features(post_train), targets(post_train, "post"), cfg,
                      head="multiclass", n_classes=k, featurizer=feat)
    else:
        model = train_joint(features(post_train), targets(post_train, "pre"),
                            targets(post_train, "post"), cfg, n_classes=k, featurizer=feat)
    return {
        ex.id: test.post_labels.labels[int(score(model, [featurize(_multiclass_segments(ex), feat)])[0].argmax())]
        for ex in test
    }


@pytest.mark.parametrize("kind", ["pre_shift_only", "finetuned", "finetuned_post_only", "l1l2"])
def test_multiclass_kind_matches_its_reference(kind):
    cfg = TrainConfig(epochs=5, seed=4)
    for preset in ("retail_shift", "news_shift"):
        train_ds, test_ds = split(
            synth_generate(preset_config(preset, n_per_topic=12), seed=1), test_fraction=0.25, seed=0)
        post_train = fewshot_sample(train_ds, 10, seed=5)
        got = run_method(spec_for(kind, train_config=cfg), train_ds, post_train, test_ds)
        assert got == reference_multiclass(kind, train_ds, post_train, test_ds, cfg, FAST_FEAT)


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        predictions = {"a": "exact", "b": "substitute"}
        path = tmp_path / "predictions.jsonl"
        save_predictions(predictions, path)
        assert load_predictions(path) == predictions

    def test_malformed_line_located(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "a", "predicted_label": "x"}\n{"id": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_predictions(path)

    @pytest.mark.parametrize("row", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_row_that_is_not_an_object_located(self, tmp_path, row):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "a", "predicted_label": "x"}\n' + row + "\n")
        with pytest.raises(ValueError, match="line 2") as info:
            load_predictions(path)
        assert str(path) in str(info.value)
