"""Stand-in classifier: featurization, training dynamics, gradient checks."""
from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailshift import model as model_module
from entailshift.model import (
    FeatureVector,
    FeaturizerConfig,
    Model,
    TrainConfig,
    _loss_and_grad,
    featurize,
    feature_keys,
    grad_check,
    hash_feature,
    load_model,
    make_binary_scorer,
    save_model,
    score,
    tokenize,
    train,
    train_joint,
    zero_model,
)
from entailshift.reformulate import Candidate
from entailshift.synth import preset_config, synth_generate

SMALL = FeaturizerConfig(dim=2**12)


def reference_hash(key: str, salt: int, dim: int) -> int:
    """Independent restatement of the documented hashing scheme."""
    h = hashlib.blake2b(key.encode("utf-8"), digest_size=8, key=salt.to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little") % dim


def unit_vector(index: int, dim: int = SMALL.dim, value: float = 1.0) -> FeatureVector:
    return FeatureVector(
        indices=np.array([index], dtype=np.int64),
        values=np.array([value], dtype=np.float64),
        dim=dim,
    )


class TestFeaturize:
    def test_empty_string_is_zero_vector(self):
        fv = featurize("", SMALL)
        assert fv.nnz == 0

    def test_unit_norm(self):
        fv = featurize(("changed to exact match", "red mixer bowl"), SMALL)
        np.testing.assert_allclose(np.linalg.norm(fv.values), 1.0, atol=1e-12)

    def test_deterministic(self):
        text = ("remained irrelevant match", "walnut cutting board")
        a, b = featurize(text, SMALL), featurize(text, SMALL)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_cross_feature_lands_at_documented_hash(self):
        """The prompt-token x content-token pair must hash exactly where the
        documented scheme says: blake2b-64 of "ptok<U+2297>ctok", salt-keyed,
        mod dim."""
        config = FeaturizerConfig(dim=2**14, hash_salt=99)
        fv = featurize(("changed to relevant news", "stocks rally"), config)
        expected = reference_hash("relevant⊗stocks", 99, config.dim)
        assert expected in fv.indices

    def test_cross_features_need_a_prompt_segment(self):
        config = FeaturizerConfig(dim=2**12, word_ngrams=(1,), char_ngrams=())
        keys_plain = feature_keys("stocks rally", config)
        assert not any("⊗" in k for k in keys_plain)
        keys_prompted = feature_keys(("changed to relevant news", "stocks rally"), config)
        assert any("⊗" in k for k in keys_prompted)

    def test_cross_features_flag_off(self):
        config = FeaturizerConfig(dim=2**12, cross_features=False)
        keys = feature_keys(("changed to relevant news", "stocks rally"), config)
        assert not any("⊗" in k for k in keys)

    def test_word_bigrams_do_not_span_segments(self):
        config = FeaturizerConfig(dim=2**12, word_ngrams=(2,), char_ngrams=(), cross_features=False)
        keys = feature_keys(("alpha beta", "gamma delta"), config)
        assert "w:alpha beta" in keys and "w:gamma delta" in keys
        assert "w:beta gamma" not in keys

    def test_key_multiset_spelled_out(self):
        """Every key format, written out by hand; a repeated n-gram order,
        which would count its keys twice, is rejected."""
        config = FeaturizerConfig(dim=2**12, word_ngrams=(1, 2), char_ngrams=(2,))
        keys = feature_keys(("to abc", "de"), config)
        expected = (
            ["w:to", "c:to", "w:abc", "c:ab", "c:bc", "w:to abc"]
            + ["w:de", "c:de"]
            + ["to⊗de", "abc⊗de"]
        )
        assert sorted(keys) == sorted(expected)
        with pytest.raises(ValueError, match="distinct"):
            FeaturizerConfig(dim=2**12, word_ngrams=(1, 2, 1), char_ngrams=(2,))

    def test_bare_string_is_one_segment_never_split(self):
        config = FeaturizerConfig(dim=2**12, word_ngrams=(1,), char_ngrams=())
        keys = feature_keys("cables [SEP] adapters", config)
        assert sorted(keys) == ["w:adapters", "w:cables", "w:sep"]
        assert feature_keys(("cables [SEP] adapters",), config) == keys

    @pytest.mark.parametrize("mode", ["single_segment", "two_segment"])
    def test_separator_in_user_text_keeps_the_prompt(self, mode):
        """User text containing " [SEP] " must not move the prompt: the keys
        are the per-segment unigrams plus prompt x content crosses."""
        from entailshift.corpus import Example, LabelSet
        from entailshift.prompts import builtin_catalog
        from entailshift.reformulate import candidates

        config = FeaturizerConfig(dim=2**12, word_ngrams=(1,), char_ngrams=())
        if mode == "single_segment":
            catalog, labels = builtin_catalog("en-news"), LabelSet(("relevant", "irrelevant"))
            example = Example(id="n", text_a="cables [SEP] adapters on sale",
                              pre_label="relevant", post_label="relevant")
            prompt, content = "remained relevant news", ["cables", "sep", "adapters", "on", "sale"]
        else:
            catalog = builtin_catalog("en-retail")
            labels = LabelSet(("exact", "substitute", "complement", "irrelevant"))
            example = Example(id="r", text_a="usb [SEP] hub", text_b="dock [SEP] stand",
                              pre_label="irrelevant", post_label="exact")
            prompt, content = "changed to exact match", ["usb", "sep", "hub", "dock", "sep", "stand"]
        first = candidates(example, labels, catalog, mode)[0]
        prompt_tokens = prompt.split()
        expected = (
            [f"w:{t}" for t in prompt_tokens + content]
            + [f"{p}⊗{c}" for p in prompt_tokens for c in content]
        )
        assert first.segments[0] == prompt
        assert sorted(feature_keys(first.segments, config)) == sorted(expected)

    def test_tokenizer_lowercases_and_strips_punctuation(self):
        assert tokenize("Noise-Cancelling (USB-C) Headphones!") == [
            "noise", "cancelling", "usb", "c", "headphones",
        ]

    def test_salt_moves_indices(self):
        a = featurize("same text here", FeaturizerConfig(dim=2**12, hash_salt=0))
        b = featurize("same text here", FeaturizerConfig(dim=2**12, hash_salt=1))
        assert not np.array_equal(a.indices, b.indices)

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            FeaturizerConfig(dim=1000)

    def test_some_family_must_be_enabled(self):
        with pytest.raises(ValueError, match="family"):
            FeaturizerConfig(word_ngrams=(), char_ngrams=(), cross_features=False)

    @pytest.mark.parametrize("kwargs, message", [
        ({"char_ngrams": (3, 3)}, "char_ngrams orders must be distinct"),
        ({"cross_features": "no"}, "cross_features must be a bool"),
        ({"cross_features": 0}, "cross_features must be a bool"),
    ])
    def test_misreadable_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FeaturizerConfig(**kwargs)

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=80))
    def test_hashes_in_range_and_norm_is_unit_or_zero(self, text):
        fv = featurize(text, SMALL)
        assert np.all(fv.indices >= 0) and np.all(fv.indices < SMALL.dim)
        norm = np.linalg.norm(fv.values)
        assert fv.nnz == 0 or abs(norm - 1.0) < 1e-9


def reference_featurize(segments, config: FeaturizerConfig) -> FeatureVector:
    """featurize restated without memos: count the hashed key multiset."""
    counts = Counter(
        hash_feature(key, config.hash_salt, config.dim) for key in feature_keys(segments, config)
    )
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([float(counts[i]) for i in indices], dtype=np.float64)
    if counts:
        values /= np.linalg.norm(values)
    return FeatureVector(indices=indices, values=values, dim=config.dim)


def assert_bitwise_equal(a: FeatureVector, b: FeatureVector) -> None:
    assert a.dim == b.dim
    assert a.indices.dtype == b.indices.dtype and a.values.dtype == b.values.dtype
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


def clear_memos() -> None:
    model_module._key_memos.clear()
    model_module._token_memos.clear()


_WORDS = ["stocks", "rally", "usb", "hub", "café", "naïve", "Ünïcödé", "[SEP]", " [SEP] ",
          "a", "a", "mixer-bowl", "x9", "", "  ", "!", "changed to exact match"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join) | st.text(max_size=30)
_segments = _texts | st.lists(_texts, min_size=1, max_size=3).map(tuple)
_configs = st.tuples(
    st.sampled_from([2, 2**4, 2**12, 2**18]),                # dim
    st.lists(st.integers(1, 3), max_size=3, unique=True).map(tuple),  # word_ngrams
    st.lists(st.integers(1, 4), max_size=3, unique=True).map(tuple),  # char_ngrams
    st.booleans(),                                          # cross_features
    st.integers(0, 2**70),                                  # hash_salt
).filter(lambda t: t[1] or t[2] or t[3]).map(lambda t: FeaturizerConfig(*t))


class TestFeaturizeMemo:
    """featurize hashes through bounded memos; it must equal hashing every
    key of feature_keys with hash_feature, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(segments=_segments, config=_configs, cold=st.booleans())
    def test_equals_counted_feature_keys(self, segments, config, cold):
        if cold:
            clear_memos()
        expected = reference_featurize(segments, config)
        assert_bitwise_equal(featurize(segments, config), expected)
        assert_bitwise_equal(featurize(segments, config), expected)

    def test_memos_stay_bounded_past_their_limit(self):
        clear_memos()
        config = FeaturizerConfig(dim=2**18, word_ngrams=(1, 2), char_ngrams=(), hash_salt=5)
        text = " ".join(f"t{i}" for i in range(model_module._MEMO_ENTRIES + 100))
        assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
        assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
        small = ("changed to exact match", "t1 t2 t3")
        assert_bitwise_equal(featurize(small, config), reference_featurize(small, config))
        for memos in (model_module._key_memos, model_module._token_memos):
            assert memos and all(len(m) <= model_module._MEMO_ENTRIES for m in memos.values())

    def test_memo_count_stays_bounded(self):
        clear_memos()
        for salt in range(3 * model_module._MEMO_TABLES):
            config = FeaturizerConfig(dim=2**12, hash_salt=salt)
            text = ("remained relevant news", "stocks rally")
            assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
        assert len(model_module._key_memos) <= model_module._MEMO_TABLES
        assert len(model_module._token_memos) <= model_module._MEMO_TABLES

    def test_mutating_a_result_does_not_change_later_results(self):
        text = ("changed to exact match", "red mixer bowl mixer")
        first = featurize(text, SMALL)
        first.indices[:] = 0
        first.values[:] = 9.0
        assert_bitwise_equal(featurize(text, SMALL), reference_featurize(text, SMALL))


class TestScore:
    def test_zero_binary_model_scores_half(self):
        model = zero_model(SMALL, "binary")
        assert score(model, [featurize("anything at all", SMALL)])[0] == 0.5

    def test_zero_multiclass_model_is_uniform(self):
        model = zero_model(SMALL, "multiclass", n_classes=4)
        probs = score(model, [featurize("anything", SMALL)])[0]
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)

    def test_multiclass_sums_to_one(self):
        rng = np.random.default_rng(0)
        model = Model(
            head="multiclass",
            weights=rng.normal(size=(5, SMALL.dim)),
            bias=rng.normal(size=5),
            featurizer=SMALL,
        )
        probs = score(model, [featurize("a b c d", SMALL)])[0]
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(3, SMALL.dim))
        fv = featurize("x y z", SMALL)
        base = Model(head="multiclass", weights=weights, bias=np.zeros(3), featurizer=SMALL)
        lifted = Model(head="multiclass", weights=weights, bias=np.full(3, 7.5), featurizer=SMALL)
        np.testing.assert_allclose(score(base, [fv])[0], score(lifted, [fv])[0], atol=1e-12)

    def test_sigmoid_stays_inside_open_interval(self):
        model = Model(
            head="binary",
            weights=np.full(SMALL.dim, 10.0),
            bias=np.array([0.0]),
            featurizer=SMALL,
        )
        p = score(model, [featurize("word", SMALL)])[0]
        assert 0.0 < p < 1.0
        assert p > 0.999


class TestScoreBatch:
    """score runs packed rows through the training forward: a row's
    probability is the same alone or in a batch, and matches a dot product."""

    def models(self):
        rng = np.random.default_rng(3)
        yield Model(head="binary", weights=rng.normal(size=SMALL.dim),
                    bias=np.array([0.3]), featurizer=SMALL)
        yield Model(head="multiclass", weights=rng.normal(size=(4, SMALL.dim)),
                    bias=rng.normal(size=4), featurizer=SMALL)

    def rows(self):
        texts = ["stocks rally", "", "usb hub dock", "changed to exact match", "a b c d e"]
        return [featurize(("remained relevant news", t), SMALL) for t in texts] + [
            featurize("", SMALL)]

    def test_batch_rows_equal_single_rows_and_a_dot_product(self):
        fvs = self.rows()
        for model in self.models():
            batch = score(model, fvs)
            weights = np.atleast_2d(model.weights)
            for i, fv in enumerate(fvs):
                single = score(model, [fv])[0]
                assert np.asarray(batch[i]).tobytes() == np.asarray(single).tobytes()
                z = weights[:, fv.indices] @ fv.values + model.bias
                if model.head == "binary":
                    reference = 1.0 / (1.0 + np.exp(-z[0]))
                else:
                    reference = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
                np.testing.assert_allclose(batch[i], reference, rtol=0, atol=1e-15)

    def test_zero_rows(self):
        binary, multiclass = self.models()
        assert score(binary, []).shape == (0,)
        assert score(multiclass, []).shape == (0, 4)

    def test_dimension_mismatch_rejected(self):
        binary, _ = self.models()
        with pytest.raises(ValueError, match="dimension"):
            score(binary, [featurize("x", FeaturizerConfig(dim=2**13))])


def separable_toy() -> tuple[list[FeatureVector], list[int]]:
    """One feature: x=+1 labeled 1, x=-1 labeled 0."""
    return [unit_vector(5, value=1.0), unit_vector(5, value=-1.0)], [1, 0]


def biased_coin_toy() -> tuple[list[FeatureVector], list[int]]:
    """x=+1 with labels 3:1 in favor of class 1; optimum w = ln 3."""
    return [unit_vector(5, value=1.0) for _ in range(4)], [1, 1, 1, 0]


class TestTrainBinary:
    def test_separable_toy_reaches_confident_probability(self):
        features, labels = separable_toy()
        config = TrainConfig(epochs=200, learning_rate=0.5, batch_size=2, l2_penalty=0.0)
        model = train(features, labels, config, head="binary", featurizer=SMALL)
        assert score(model, [features[0]])[0] > 0.9
        assert score(model, [features[1]])[0] < 0.1

    def test_loss_log_non_increasing_on_separable_toy(self):
        features, labels = separable_toy()
        config = TrainConfig(epochs=50, learning_rate=0.5, batch_size=2, l2_penalty=0.0)
        model = train(features, labels, config, head="binary", featurizer=SMALL)
        log = np.array(model.train_log)
        assert log.size == 50
        assert np.all(np.diff(log) <= 1e-12)

    def test_bit_deterministic_given_seed(self):
        features, labels = separable_toy()
        config = TrainConfig(epochs=10, learning_rate=0.3, batch_size=1, seed=7)
        a = train(features, labels, config, head="binary", featurizer=SMALL)
        b = train(features, labels, config, head="binary", featurizer=SMALL)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.train_log == b.train_log

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", "3"), ("batch_size", 4.5),
        ("batch_size", False), ("seed", 1.0), ("seed", True),
    ])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            TrainConfig(**{name: value})

    def test_binary_labels_validated(self):
        features, _ = separable_toy()
        with pytest.raises(ValueError, match="arity"):
            train(features, [1, 2], TrainConfig(epochs=1), head="binary", featurizer=SMALL)

    def test_warm_start_keeps_converged_loss(self):
        """Resuming from a converged model with the same data must not move
        the loss by more than 1%."""
        features, labels = biased_coin_toy()
        base_config = TrainConfig(epochs=300, learning_rate=0.5, batch_size=4, l2_penalty=0.0)
        converged = train(features, labels, base_config, head="binary", featurizer=SMALL)
        resumed = train(
            features,
            labels,
            TrainConfig(epochs=50, learning_rate=0.5, batch_size=4,
                        l2_penalty=0.0, warm_start=converged),
            head="binary",
        )
        before = converged.train_log[-1]
        after = resumed.train_log[-1]
        assert abs(after - before) <= 0.01 * before

    def test_warm_start_mismatches_rejected(self):
        features, labels = separable_toy()
        binary = train(features, labels, TrainConfig(epochs=1), head="binary", featurizer=SMALL)
        with pytest.raises(ValueError, match="head"):
            train(features, labels, TrainConfig(epochs=1, warm_start=binary),
                  head="multiclass", n_classes=3, featurizer=SMALL)
        wide = FeaturizerConfig(dim=2**13)
        wide_features = [
            unit_vector(5, dim=wide.dim, value=1.0),
            unit_vector(5, dim=wide.dim, value=-1.0),
        ]
        other_feat = train(
            wide_features, labels, TrainConfig(epochs=1), head="binary", featurizer=wide,
        )
        with pytest.raises(ValueError, match="featurizer"):
            train(features, labels, TrainConfig(epochs=1, warm_start=other_feat),
                  head="binary", featurizer=SMALL)


class TestTrainMulticlass:
    def test_requires_explicit_arity(self):
        features, labels = separable_toy()
        with pytest.raises(ValueError, match="n_classes"):
            train(features, labels, TrainConfig(epochs=1), head="multiclass", featurizer=SMALL)

    def test_capacity_on_noiseless_synthetic_data(self):
        """Sanity check that the head can memorize cleanly separable data:
        at least 99% training accuracy within the default budget."""
        config = preset_config("retail_shift", n_per_topic=25, noise_rate=0.0)
        ds = synth_generate(config, seed=0)
        labels = [ds.post_labels.index(ex.post_label) for ex in ds]
        features = [featurize((ex.text_a, ex.text_b), SMALL) for ex in ds]
        model = train(features, labels, TrainConfig(), head="multiclass",
                      n_classes=4, featurizer=SMALL)
        hits = sum(
            int(np.argmax(score(model, [fv])[0])) == y for fv, y in zip(features, labels)
        )
        assert hits / len(labels) >= 0.99


class TestTrainJoint:
    def test_agreeing_labels_double_the_loss(self):
        """With pre == post everywhere, the two-term loss at any parameter
        point is exactly twice the one-term loss; compare the first logged
        epoch under a vanishing learning rate, where both sit at zero."""
        features, labels = separable_toy()
        tiny = dict(epochs=1, learning_rate=1e-9, batch_size=2, l2_penalty=0.0)
        single = train(features, labels, TrainConfig(**tiny), head="multiclass",
                       n_classes=2, featurizer=SMALL)
        joint = train_joint(features, labels, labels, TrainConfig(**tiny),
                            n_classes=2, featurizer=SMALL)
        assert abs(single.train_log[0] - math.log(2)) < 1e-6
        assert abs(joint.train_log[0] - 2 * single.train_log[0]) < 1e-6

    def test_disagreeing_labels_floor_the_loss_at_two_ln_two(self):
        """If the two targets always disagree, the best any shared prediction
        can do per sample is -ln p - ln(1-p) minimized at p = 1/2, giving
        2 ln 2."""
        features = [unit_vector(i % 3) for i in range(12)]
        pre = [0] * 12
        post = [1] * 12
        config = TrainConfig(epochs=120, learning_rate=0.5, batch_size=4, l2_penalty=0.0)
        model = train_joint(features, pre, post, config, n_classes=2, featurizer=SMALL)
        assert model.train_log[-1] >= 2 * math.log(2) - 1e-9
        assert model.train_log[-1] < 2 * math.log(2) + 0.01

    def test_joint_gradient_is_sum_of_parts(self):
        rng = np.random.default_rng(3)
        features = [
            FeatureVector(
                indices=np.sort(rng.choice(SMALL.dim, size=6, replace=False)).astype(np.int64),
                values=rng.normal(size=6),
                dim=SMALL.dim,
            )
            for _ in range(8)
        ]
        pre = list(rng.integers(0, 3, size=8))
        post = list(rng.integers(0, 3, size=8))
        model = Model(
            head="multiclass",
            weights=rng.normal(size=(3, SMALL.dim)) * 0.1,
            bias=rng.normal(size=3) * 0.1,
            featurizer=SMALL,
        )
        _, gw_pre, gb_pre = _loss_and_grad(model, features, [pre], l2=0.0)
        _, gw_post, gb_post = _loss_and_grad(model, features, [post], l2=0.0)
        _, gw_joint, gb_joint = _loss_and_grad(model, features, [pre, post], l2=0.0)
        np.testing.assert_allclose(gw_joint, gw_pre + gw_post, atol=1e-12)
        np.testing.assert_allclose(gb_joint, gb_pre + gb_post, atol=1e-12)


class TestGradCheck:
    def random_case(self, rng: np.random.Generator, head: str):
        n = int(rng.integers(3, 10))
        features = []
        for _ in range(n):
            nnz = int(rng.integers(2, 12))
            indices = np.sort(rng.choice(SMALL.dim, size=nnz, replace=False)).astype(np.int64)
            features.append(
                FeatureVector(indices=indices, values=rng.normal(size=nnz), dim=SMALL.dim)
            )
        k = int(rng.integers(2, 5))
        if head == "binary":
            model = Model(head="binary", weights=rng.normal(size=SMALL.dim) * 0.5,
                          bias=rng.normal(size=1), featurizer=SMALL)
            labels = [list(rng.integers(0, 2, size=n))]
        else:
            model = Model(head="multiclass", weights=rng.normal(size=(k, SMALL.dim)) * 0.5,
                          bias=rng.normal(size=k), featurizer=SMALL)
            labels = [list(rng.integers(0, k, size=n))]
            if head == "joint":
                labels.append(list(rng.integers(0, k, size=n)))
        return model, features, labels

    def test_logistic_gradient_at_zero_matches_closed_form(self):
        """At w = 0 the logistic gradient collapses to (1/2 - y) x."""
        model = zero_model(SMALL, "binary")
        fv = unit_vector(17, value=0.8)
        _, grad_w, grad_b = _loss_and_grad(model, [fv], [[1]], l2=0.0)
        assert abs(grad_w[17] - (0.5 - 1.0) * 0.8) < 1e-12
        assert abs(grad_b[0] - (0.5 - 1.0)) < 1e-12

    @pytest.mark.parametrize("head", ["binary", "multiclass", "joint"])
    def test_random_configurations_under_tolerance(self, head):
        rng = np.random.default_rng(42)
        for trial in range(10):
            model, features, labels = self.random_case(rng, head)
            err = grad_check(model, features, labels, epsilon=1e-5,
                             l2=float(rng.choice([0.0, 1e-4])), seed=trial)
            assert err < 1e-4

    @pytest.mark.parametrize("head", ["binary", "multiclass", "joint"])
    def test_checked_gradient_is_the_applied_gradient(self, head):
        """One full-batch epoch from a warm start with L2 moves the parameters
        by -lr times the gradient that grad_check verifies, up to the order
        in which the shuffled batch is summed."""
        rng = np.random.default_rng(7)
        for trial in range(5):
            model, features, labels = self.random_case(rng, head)
            lr, l2 = 0.3, 1e-3
            config = TrainConfig(epochs=1, learning_rate=lr, batch_size=len(features),
                                 l2_penalty=l2, seed=trial, warm_start=model)
            if head == "joint":
                stepped = train_joint(features, *labels, config,
                                      n_classes=model.weights.shape[0])
            else:
                stepped = train(features, labels[0], config, head=model.head,
                                n_classes=model.n_classes)
            _, grad_w, grad_b = _loss_and_grad(model, features, labels, l2)
            np.testing.assert_allclose(stepped.weights, model.weights - lr * grad_w,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(stepped.bias, model.bias - lr * grad_b,
                                       rtol=0, atol=1e-12)
            assert grad_check(model, features, labels, l2=l2, seed=trial) < 1e-4

    def test_epsilon_bounds(self):
        model = zero_model(SMALL, "binary")
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(model, [unit_vector(0)], [[1]], epsilon=1e-2)


class TestCrossFeatureDegeneracy:
    """Why cross features default to on: without them a linear model scores
    prompts additively, so with content held to equal-norm texts the ranking
    of two candidate prompts cannot depend on the content at all."""

    UNIGRAM_ONLY = FeaturizerConfig(
        dim=2**18, word_ngrams=(1,), char_ngrams=(), cross_features=False
    )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_no_cross_ranking_ignores_content(self, seed):
        rng = np.random.default_rng(seed)
        model = Model(
            head="binary",
            weights=rng.normal(size=2**18),
            bias=np.array([0.0]),
            featurizer=self.UNIGRAM_ONLY,
        )
        prompt_a = "changed to exact match"
        prompt_b = "changed to substitute match"
        contents = [
            " ".join(f"zz{seed}x{i}w{j}" for j in range(6)) for i in range(5)
        ]
        orders = {
            score(model, [featurize((p_a, c), model.featurizer)])[0]
            > score(model, [featurize((p_b, c), model.featurizer)])[0]
            for p_a, p_b, c in ((prompt_a, prompt_b, c) for c in contents)
        }
        assert len(orders) == 1

    def test_crosses_recover_content_dependence(self):
        model = zero_model(FeaturizerConfig(dim=2**12), "binary")
        key_a = hash_feature("exact⊗widget", 0, 2**12)
        key_b = hash_feature("substitute⊗gadget", 0, 2**12)
        model.weights[key_a] = 10.0
        model.weights[key_b] = 10.0
        a = score(model, [featurize(("changed to exact match", "widget thing"), model.featurizer)])[0]
        b = score(model, [featurize(("changed to substitute match", "widget thing"), model.featurizer)])[0]
        assert a > b
        a2 = score(model, [featurize(("changed to exact match", "gadget thing"), model.featurizer)])[0]
        b2 = score(model, [featurize(("changed to substitute match", "gadget thing"), model.featurizer)])[0]
        assert b2 > a2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        features, labels = separable_toy()
        model = train(features, labels, TrainConfig(epochs=5), head="binary", featurizer=SMALL)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.head == model.head
        assert loaded.featurizer == model.featurizer
        assert loaded.train_log == model.train_log
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.bias, model.bias)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, format_version=np.array("other-format-v9"))
        with pytest.raises(ValueError, match="format"):
            load_model(path)

    def test_scorer_adapter(self):
        features, labels = separable_toy()
        model = train(features, labels, TrainConfig(epochs=5), head="binary", featurizer=SMALL)
        scorer = make_binary_scorer(model)
        candidate = Candidate("x", 1, ("changed to exact match", "some text"))
        assert scorer([candidate])[0] == score(model, [featurize(candidate.segments, SMALL)])[0]
        assert 0.0 <= scorer([candidate])[0] <= 1.0
        multi = zero_model(SMALL, "multiclass", n_classes=3)
        with pytest.raises(ValueError, match="binary"):
            make_binary_scorer(multi)
