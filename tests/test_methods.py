"""Comparison methods behind the uniform run_method interface."""
from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from entailshift import methods
from entailshift.corpus import Dataset, Example, LabelSet, fewshot_sample, split
from entailshift.methods import (
    METHOD_KINDS,
    PRE_SHIFT_KINDS,
    MethodSpec,
    fit_pre_shift,
    load_predictions,
    resolve_catalog,
    run_method,
    save_predictions,
)
from entailshift.model import (
    FeaturizerConfig,
    Model,
    TrainConfig,
    featurize,
    featurize_batch,
    score,
    train,
    train_joint,
)
from entailshift.prompts import DEFAULT_DECOYS, builtin_catalog
from entailshift.reformulate import augment_dataset
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


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_only_pre_shift_only_runs_without_post_shift_examples(kind):
    train_ds, _, test_ds = retail_splits(per_topic=8)
    empty = Dataset(examples=(), pre_labels=train_ds.pre_labels, post_labels=train_ds.post_labels)
    if kind == "pre_shift_only":
        assert len(run_method(spec_for(kind), train_ds, empty, test_ds)) == len(test_ds)
    else:
        with pytest.raises(ValueError, match=f"{kind} requires a non-empty post-shift training dataset"):
            run_method(spec_for(kind), train_ds, empty, test_ds)


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

    @pytest.mark.parametrize("kind", PRE_SHIFT_KINDS)
    def test_given_pre_shift_model_replaces_the_own_fit(self, kind, monkeypatch):
        """Handed the model it would fit, a method predicts the same without fitting it."""
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=8)
        spec = spec_for(kind)
        own = run_method(spec, train_ds, post_train, test_ds)
        model = fit_pre_shift(spec, train_ds)

        def refuse(*args):
            raise AssertionError("fit the pre-shift model although one was given")

        monkeypatch.setattr(methods, "fit_pre_shift", refuse)
        assert run_method(spec, train_ds, post_train, test_ds, pre_shift=model) == own

    def test_pre_shift_only_predicts_with_the_given_model(self):
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=8)
        k = len(test_ds.post_labels)
        third = Model(columns=np.empty(0, dtype=np.int64), weights=np.zeros((k, 0)),
                      bias=np.zeros(k), featurizer=FAST_FEAT)
        third.bias[2] = 5.0
        predictions = run_method(spec_for("pre_shift_only"), train_ds, post_train, test_ds,
                                 pre_shift=third)
        assert set(predictions.values()) == {test_ds.post_labels.labels[2]}

    @pytest.mark.parametrize("kind", sorted(set(METHOD_KINDS) - set(PRE_SHIFT_KINDS)))
    def test_pre_shift_model_refused_without_a_pre_shift_stage(self, kind):
        train_ds, post_train, test_ds = retail_splits(per_topic=5)
        model = fit_pre_shift(spec_for("pre_shift_only"), train_ds)
        with pytest.raises(ValueError, match=f"{kind} has no pre-shift stage"):
            run_method(spec_for(kind), train_ds, post_train, test_ds, pre_shift=model)

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


class TestLazyTrainingRows:
    """``run_method`` hands training a sized view that featurizes each row as
    the fit reads it, so a fit holds its rows once: packed."""

    def test_view_is_sized_and_featurizes_on_every_pass(self):
        train_ds, _, _ = retail_splits(per_topic=3)
        view = methods._Featurized(train_ds, FAST_FEAT)
        assert len(view) == len(train_ds)
        for a, b, ex in zip(view, view, train_ds, strict=True):
            expected = featurize(ex.segments, FAST_FEAT)
            for fv in (a, b):
                np.testing.assert_array_equal(fv.indices, expected.indices)
                np.testing.assert_array_equal(fv.values, expected.values)

    def test_fit_peaks_near_its_packed_bytes(self):
        """Featurizing and fitting news_shift's 3,600-row entail set through the
        view peaks at most 1.5x its packed bytes (16 per non-zero) under
        tracemalloc. A held list of rows, its concatenated copy and a full-size
        index remap once peaked at 2.7x."""
        ds = synth_generate(preset_config("news_shift"), seed=0)
        train_ds, _ = split(ds, test_fraction=0.25, seed=1)
        aug = augment_dataset(train_ds, builtin_catalog("en-news"), oversample=True, seed=2)
        assert len(aug) == 3600
        featurizer = FeaturizerConfig()
        # The same rows as the view's, bit for bit; this also fills the
        # featurize memos, which outlive the fit.
        nnz = sum(fv.nnz for fv in featurize_batch([s.segments for s in aug], featurizer))
        rows = methods._Featurized(aug, featurizer)
        labels = [s.binary_label for s in aug]
        tracemalloc.start()
        try:
            train(rows, labels, TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * nnz, f"peak {peak} bytes, {peak / (16 * nnz):.2f}x the packed bytes"

    def test_multiclass_prediction_peaks_near_its_packed_bytes(self):
        """A multiclass head scores a test set featurized one block at a time,
        in one ``score`` call, so it holds the set only packed: predicting
        retail_shift's 1,600 examples peaks at most 1.5x their packed bytes
        under tracemalloc. A list of every featurized row, held beside the
        packed copy, once peaked at 2.5x. The forward's fixed-size blocks and
        the bounded memos are most of what is left; on a 400-row set they
        read 2.3x, against 3.3x for the held list."""
        ds = synth_generate(preset_config("retail_shift"), seed=0)
        train_ds, _ = split(ds, test_fraction=0.25, seed=1)
        spec = MethodSpec(kind="finetuned_post_only", train_config=TrainConfig(epochs=1))
        model = fit_pre_shift(spec, train_ds)
        nnz = sum(fv.nnz for fv in featurize_batch([ex.segments for ex in ds], model.featurizer))
        # Untraced first: this builds the model's index lookup, which outlives the call.
        expected = methods._predict_multiclass(model, ds, methods.build_inputs(spec, ds).rows)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("entailshift.model.score",
                          lambda *args: calls.append(args) or score(*args))
            tracemalloc.start()
            try:
                predictions = methods._predict_multiclass(model, ds, methods.build_inputs(spec, ds).rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert predictions == expected and len(calls) == 1
        assert peak <= 1.5 * 16 * nnz, f"peak {peak} bytes, {peak / (16 * nnz):.2f}x the packed bytes"


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="unknown method kind"):
            MethodSpec(kind="mystery")

    def test_entail_needs_catalog(self):
        with pytest.raises(ValueError, match="catalog_id"):
            MethodSpec(kind="entail")

    @pytest.mark.parametrize("field, value, message", [
        ("catalog_id", 5, "catalog_id must be a string, got 5"),
        ("oversample", "false", "oversample must be true or false, got 'false'"),
        ("oversample", 0, "oversample must be true or false, got 0"),
        ("prompt_variant", "shuffled", "unknown prompt variant 'shuffled'"),
    ])
    def test_mistyped_entail_fields_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MethodSpec(kind="entail", **{"catalog_id": "en-retail", field: value})

    def test_prompt_variant_only_for_entail(self):
        with pytest.raises(ValueError, match="entail"):
            MethodSpec(kind="majority", prompt_variant="random")

    def test_catalog_id_only_for_entail(self):
        with pytest.raises(ValueError, match="catalog_id applies only to entail, not 'majority'"):
            MethodSpec(kind="majority", catalog_id="en-retail")

    @pytest.mark.parametrize("field, value, message", [
        ("train_config", {"epochs": 3}, r"train_config must be a TrainConfig, got \{'epochs': 3\}"),
        ("featurizer", {"dim": 16}, r"featurizer must be a FeaturizerConfig, got \{'dim': 16\}"),
    ])
    def test_settings_must_be_their_config_classes(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MethodSpec(kind="finetuned", **{field: value})

    def test_method_ids(self):
        assert spec_for("majority").method_id == "majority"
        assert spec_for("entail").method_id == "entail_informative"
        assert spec_for("entail", prompt_variant="random").method_id == "entail_random"

    def test_with_seed_replaces_training_seeds(self):
        spec = spec_for("finetuned")
        out = spec.with_seed(99)
        assert out.train_config.seed == 99


class TestResolvedCatalog:
    """An entail spec resolves its catalog once, when it is made, and carries it."""

    @staticmethod
    def count_catalog_reads(monkeypatch) -> list[str]:
        reads = []
        original = methods.builtin_catalog
        monkeypatch.setattr(methods, "builtin_catalog", lambda cid: reads.append(cid) or original(cid))
        return reads

    def test_spec_holds_its_catalog(self):
        assert spec_for("entail").catalog == builtin_catalog("en-retail")
        randomized = spec_for("entail", prompt_variant="random").catalog
        assert randomized.labels == builtin_catalog("en-retail").labels
        assert tuple(randomized.label_surface.values()) == DEFAULT_DECOYS[:4]
        assert spec_for("finetuned").catalog is None

    def test_catalog_is_derived_not_a_setting(self):
        spec = spec_for("entail")
        assert [f.name for f in fields(MethodSpec) if f.init] == [
            "kind", "prompt_variant", "catalog_id", "train_config", "featurizer", "oversample"]
        with pytest.raises(TypeError):
            MethodSpec(kind="entail", catalog_id="en-retail", catalog=spec.catalog)
        other = replace(spec)
        object.__setattr__(other, "catalog", builtin_catalog("en-news"))
        assert other == spec and hash(other) == hash(spec)
        assert "catalog=" not in repr(spec)

    def test_with_seed_and_pickling_keep_the_catalog(self, monkeypatch):
        spec = spec_for("entail", prompt_variant="random")
        reads = self.count_catalog_reads(monkeypatch)
        seeded = spec.with_seed(3)
        assert seeded.catalog is spec.catalog and seeded.train_config.seed == 3
        assert spec.train_config.seed == FAST_TRAIN.seed
        assert pickle.loads(pickle.dumps(spec)).catalog == spec.catalog
        assert reads == []

    def test_run_method_reads_no_catalog(self, monkeypatch):
        train_ds, post_train, test_ds = retail_splits(per_topic=5)
        spec = spec_for("entail", prompt_variant="random")
        reads = self.count_catalog_reads(monkeypatch)
        predictions = run_method(spec.with_seed(3), train_ds, post_train, test_ds)
        assert set(predictions) == {ex.id for ex in test_ds}
        assert reads == []


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
        assert run_method(spec_for(kind), train_ds, post_train, empty) == {}

    @pytest.mark.parametrize("kind", ["entail", "finetuned_post_only"])
    def test_mixed_pair_and_single_text_examples(self, kind):
        """Examples with and without text_b share one dataset; each keeps its own layout."""
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=16)

        def mixed(ds):
            return replace(ds, examples=tuple(
                replace(ex, text_b=None) if i % 2 else ex for i, ex in enumerate(ds)))

        post_train, test_ds = mixed(post_train), mixed(test_ds)
        assert {ex.text_b is None for ex in post_train} == {ex.text_b is None for ex in test_ds} == {True, False}
        predictions = run_method(spec_for(kind), train_ds, post_train, test_ds)
        assert set(predictions) == {ex.id for ex in test_ds}
        assert set(predictions.values()) <= set(test_ds.post_labels)

    @pytest.mark.parametrize("kind", METHOD_KINDS)
    def test_duplicate_test_ids_rejected(self, kind):
        """One prediction per id cannot label two examples, so the input is refused."""
        train_ds, post_train, test_ds = retail_splits(per_topic=8, n_shot=8)
        first, second = test_ds.examples[:2]
        test = replace(test_ds, examples=(first, replace(second, id=first.id)))
        with pytest.raises(ValueError, match=f"duplicate example id {first.id!r}"):
            run_method(spec_for(kind), train_ds, post_train, test)

    @pytest.mark.parametrize("kind", METHOD_KINDS)
    @pytest.mark.parametrize("which", ["pre_train", "test"])
    def test_post_label_order_must_match(self, kind, which):
        """A head indexes the training set's label order; a set that lists the
        same labels in another order would silently permute predictions."""
        inputs = dict(zip(("pre_train", "post_train", "test"), retail_splits(per_topic=5)))
        order = inputs["post_train"].post_labels.labels
        inputs[which] = replace(inputs[which], post_labels=LabelSet(order[::-1]))
        with pytest.raises(ValueError) as err:
            run_method(spec_for(kind), **inputs)
        assert repr(order) in str(err.value) and repr(order[::-1]) in str(err.value)


def reference_multiclass(kind: str, pre_train: Dataset, post_train: Dataset, test: Dataset,
                         cfg: TrainConfig, feat: FeaturizerConfig) -> dict[str, str]:
    """Each multiclass kind spelled out as its own featurize/train calls."""
    def segments(ex):
        return (ex.text_a,) if ex.text_b is None else (ex.text_a, ex.text_b)

    def features(ds):
        return [featurize(segments(ex), feat) for ex in ds]

    def targets(ds, column):
        return [ds.post_labels.index(getattr(ex, f"{column}_label")) for ex in ds]

    k = len(post_train.post_labels)
    if kind == "pre_shift_only":
        model = train(features(pre_train), targets(pre_train, "pre"), cfg, n_classes=k)
    elif kind == "finetuned":
        warm = train(features(pre_train), targets(pre_train, "pre"), cfg, n_classes=k)
        model = train(features(post_train), targets(post_train, "post"),
                      replace(cfg, warm_start=warm), n_classes=k)
    elif kind == "finetuned_post_only":
        model = train(features(post_train), targets(post_train, "post"), cfg, n_classes=k)
    else:
        model = train_joint(features(post_train), targets(post_train, "pre"),
                            targets(post_train, "post"), cfg, n_classes=k)
    return {
        ex.id: test.post_labels.labels[int(score(model, [featurize(segments(ex), feat)])[0].argmax())]
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

    @pytest.mark.parametrize("second", ['{"id": "b"}', '{"id": "a", "predicted_label": "y"}'],
                             ids=["missing_key", "duplicate_id"])
    def test_malformed_line_located(self, tmp_path, second):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "a", "predicted_label": "x"}\n' + second + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_predictions(path)

    @pytest.mark.parametrize("row", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_row_that_is_not_an_object_located(self, tmp_path, row):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"id": "a", "predicted_label": "x"}\n' + row + "\n")
        with pytest.raises(ValueError, match="line 2") as info:
            load_predictions(path)
        assert str(path) in str(info.value)
