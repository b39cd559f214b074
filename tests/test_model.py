"""Stand-in classifier: featurization, training dynamics, gradient checks."""
from __future__ import annotations

import hashlib
import math
import pickle
import re
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailshift import model as model_module
from entailshift.corpus import fewshot_sample, split
from entailshift.model import (
    FeatureVector,
    FeaturizerConfig,
    Model,
    TrainConfig,
    _data_loss,
    _dlogits,
    _init_params,
    _label_columns,
    _loss_and_grad,
    _pack,
    _problem,
    featurize,
    featurize_batch,
    grad_check,
    hash_feature,
    make_binary_scorer,
    score,
    tokenize,
    train,
    train_joint,
)
from entailshift.prompts import builtin_catalog
from entailshift.reformulate import Candidate, augment_dataset, candidates
from entailshift.synth import preset_config, synth_generate

SMALL = FeaturizerConfig(dim=2**12)


def reference_hash(key: str, dim: int) -> int:
    """Independent restatement of the documented hashing scheme."""
    h = hashlib.blake2b(key.encode("utf-8"), digest_size=8, key=bytes(8))
    return int.from_bytes(h.digest(), "little") % dim


def feature_keys(segments) -> list[str]:
    """The raw (pre-hash) feature key multiset of a segments tuple, the
    string-level statement of what ``featurize`` hashes.

    Word unigrams "w:tok" and bigrams "w:tok1 tok2" never span segment
    boundaries, char trigrams "c:xyz" come from each token, and
    first-segment x later-segment crosses read "ptok⊗ctok". A bare string is
    a single segment. The order of the keys carries no meaning.
    """
    if isinstance(segments, str):
        segments = (segments,)
    token_lists = [tokenize(part) for part in segments]
    keys: list[str] = []
    for tokens in token_lists:
        for n in (1, 2):
            keys += ["w:" + " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
        keys += ["c:" + tok[i : i + 3] for tok in tokens for i in range(len(tok) - 2)]
    if len(token_lists) > 1:
        content = [tok for tokens in token_lists[1:] for tok in tokens]
        keys += [f"{p}⊗{c}" for p in token_lists[0] for c in content]
    return keys


# Key families, told apart by their spelling (tokens hold no space or "⊗").
def unigrams(keys: list[str]) -> list[str]:
    return [k for k in keys if k.startswith("w:") and " " not in k]


def bigrams(keys: list[str]) -> list[str]:
    return [k for k in keys if k.startswith("w:") and " " in k]


def crosses(keys: list[str]) -> list[str]:
    return [k for k in keys if "⊗" in k]


def unit_vector(index: int, featurizer: FeaturizerConfig = SMALL, value: float = 1.0) -> FeatureVector:
    return FeatureVector(
        indices=np.array([index], dtype=np.int64),
        values=np.array([value], dtype=np.float64),
        featurizer=featurizer,
    )


def fresh_model(rows: int, featurizer: FeaturizerConfig = SMALL) -> Model:
    """All-zero parameters with no active column: one row is the logistic head."""
    return Model(columns=np.empty(0, dtype=np.int64), weights=np.zeros((rows, 0)),
                 bias=np.zeros(rows), featurizer=featurizer)


def loss_and_grad(model: Model, features, labels, l2: float):
    """The objective at ``model`` over the ``_problem`` set-up that ``grad_check``
    builds: (loss, active columns, weight gradient over them, bias gradient)."""
    columns = {f"column {i}": y for i, y in enumerate(labels)}
    packed, targets, active, weights, bias = _problem(features, model.featurizer, columns,
                                                      model.weights.shape[0], model)
    loss, grad_w, grad_b = _loss_and_grad(weights, bias, packed, targets, l2)
    return loss, active, grad_w, grad_b


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
        documented scheme says: blake2b-64 of "ptok<U+2297>ctok", keyed with
        eight zero bytes, mod dim."""
        config = FeaturizerConfig(dim=2**14)
        fv = featurize(("changed to relevant news", "stocks rally"), config)
        expected = reference_hash("relevant⊗stocks", config.dim)
        assert expected in fv.indices

    def test_cross_features_need_a_prompt_segment(self):
        keys_plain = feature_keys("stocks rally")
        assert not any("⊗" in k for k in keys_plain)
        keys_prompted = feature_keys(("changed to relevant news", "stocks rally"))
        assert any("⊗" in k for k in keys_prompted)

    def test_word_bigrams_do_not_span_segments(self):
        keys = bigrams(feature_keys(("alpha beta", "gamma delta")))
        assert "w:alpha beta" in keys and "w:gamma delta" in keys
        assert "w:beta gamma" not in keys

    def test_key_multiset_spelled_out(self):
        """Every key format, written out by hand."""
        keys = feature_keys(("to abcd", "def"))
        expected = (
            ["w:to", "w:abcd", "c:abc", "c:bcd", "w:to abcd"]
            + ["w:def", "c:def"]
            + ["to⊗def", "abcd⊗def"]
        )
        assert sorted(keys) == sorted(expected)

    def test_bare_string_is_one_segment_never_split(self):
        keys = unigrams(feature_keys("cables [SEP] adapters"))
        assert sorted(keys) == ["w:adapters", "w:cables", "w:sep"]
        assert unigrams(feature_keys(("cables [SEP] adapters",))) == keys

    @pytest.mark.parametrize("mode", ["single_segment", "two_segment"])
    def test_separator_in_user_text_keeps_the_prompt(self, mode):
        """User text containing " [SEP] " must not move the prompt: the keys
        are the per-segment unigrams plus prompt x content crosses."""
        from entailshift.corpus import Example, LabelSet
        from entailshift.prompts import builtin_catalog
        from entailshift.reformulate import candidates

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
        first = candidates(example, labels, catalog)[0]
        prompt_tokens = prompt.split()
        expected = (
            [f"w:{t}" for t in prompt_tokens + content]
            + [f"{p}⊗{c}" for p in prompt_tokens for c in content]
        )
        assert first.segments[0] == prompt
        keys = feature_keys(first.segments)
        assert sorted(unigrams(keys) + crosses(keys)) == sorted(expected)

    def test_tokenizer_lowercases_and_strips_punctuation(self):
        assert tokenize("Noise-Cancelling (USB-C) Headphones!") == [
            "noise", "cancelling", "usb", "c", "headphones",
        ]

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            FeaturizerConfig(dim=1000)

    def test_largest_dim_accepted(self):
        """A 30-bit digest is the full digest mod dim up to 2**30 (2**31 is refused below)."""
        assert FeaturizerConfig(dim=2**30).dim == 2**30

    def test_dim_is_the_only_field(self):
        """The salt is a class constant 0, not a setting."""
        assert FeaturizerConfig.hash_salt == 0
        assert [f.name for f in fields(FeaturizerConfig)] == ["dim"]
        with pytest.raises(TypeError, match="hash_salt"):
            FeaturizerConfig(hash_salt=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"dim": 4.0}, "dim must be an integer, got 4.0"),
        ({"dim": "8"}, "dim must be an integer, got '8'"),
        ({"dim": None}, "dim must be an integer, got None"),
        ({"dim": 2**31}, r"dim must be a power of two from 2 to 2\*\*30, got 2147483648"),
        ({"dim": 1}, r"dim must be a power of two from 2 to 2\*\*30, got 1"),
        ({"dim": True}, "dim must be an integer, got True"),
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


class TestFeatureVectorArrays:
    """A row's indices are a 1-D integer array and its values a 1-D real one.
    Other arrays once passed and failed later inside packing with unrelated
    numpy messages, or could have been flattened or truncated."""

    BAD = {
        "2-D indices": (np.array([[1, 2], [3, 4]]), np.ones((2, 2)), "indices", "int64 of shape (2, 2)"),
        "float indices": (np.array([1.5, 2.0]), np.ones(2), "indices", "float64 of shape (2,)"),
        "bool indices": (np.array([True, False]), np.ones(2), "indices", "bool of shape (2,)"),
        "0-D indices": (np.array(3), np.array(1.0), "indices", "int64 of shape ()"),
        "list indices": ([1, 2], np.ones(2), "indices", "list"),
        "2-D values": (np.array([1, 2]), np.ones((2, 1)), "values", "float64 of shape (2, 1)"),
        "complex values": (np.array([1, 2]), np.array([1 + 0j, 1j]), "values", "complex128 of shape (2,)"),
        "string values": (np.array([1, 2]), np.array(["a", "b"]), "values", "<U1 of shape (2,)"),
        "object values": (np.array([1, 2]), np.array([1.0, 2.0], dtype=object), "values",
                          "object of shape (2,)"),
        "tuple values": (np.array([1, 2]), (1.0, 2.0), "values", "tuple"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_misshapen_or_mistyped_arrays_refused(self, case):
        indices, values, name, got = self.BAD[case]
        what = "integer" if name == "indices" else "real"
        with pytest.raises(ValueError) as caught:
            FeatureVector(indices=indices, values=values, featurizer=SMALL)
        assert str(caught.value) == f"{name} must be a 1-D {what} array, got {got}"

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64, np.uint16])
    @pytest.mark.parametrize("value_dtype", [np.float32, np.float64, np.int64])
    def test_integer_and_real_arrays_accepted(self, index_dtype, value_dtype):
        fv = FeatureVector(indices=np.array([1, 2], dtype=index_dtype),
                           values=np.array([3, 4], dtype=value_dtype), featurizer=SMALL)
        assert fv.nnz == 2


def reference_featurize(segments, config: FeaturizerConfig) -> FeatureVector:
    """featurize restated without memos: count the hashed key multiset."""
    return keys_vector(feature_keys(segments), config)


def keys_vector(keys: list[str], config: FeaturizerConfig) -> FeatureVector:
    """The L2-normalized counts of the keys, each hashed with hash_feature."""
    counts = Counter(hash_feature(key, config.dim) for key in keys)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([float(counts[i]) for i in indices], dtype=np.float64)
    if counts:
        values /= np.linalg.norm(values)
    return FeatureVector(indices=indices, values=values, featurizer=config)


def assert_bitwise_equal(a: FeatureVector, b: FeatureVector) -> None:
    assert a.featurizer == b.featurizer
    assert a.indices.dtype == b.indices.dtype and a.values.dtype == b.values.dtype
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.values.tobytes() == b.values.tobytes()


def clear_memos() -> None:
    for memo in model_module._memos:
        memo.clear()


_WORDS = ["stocks", "rally", "usb", "hub", "café", "naïve", "Ünïcödé", "[SEP]", " [SEP] ",
          "a", "a", "mixer-bowl", "x9", "", "  ", "!", "changed to exact match"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join) | st.text(max_size=30)
_segments = _texts | st.lists(_texts, min_size=1, max_size=3).map(tuple)
_configs = st.builds(FeaturizerConfig, dim=st.integers(1, 30).map(lambda bits: 2**bits))


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

    def test_memos_stay_bounded_past_their_limit(self, monkeypatch):
        """A small bound drives the clearing path the real one does, with fewer tokens."""
        monkeypatch.setattr(model_module, "_MEMO_ENTRIES", 64)
        clear_memos()
        config = FeaturizerConfig(dim=2**18)
        text = " ".join(f"t{i}" for i in range(model_module._MEMO_ENTRIES + 100))
        assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
        assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
        small = ("changed to exact match", "t1 t2 t3")
        assert_bitwise_equal(featurize(small, config), reference_featurize(small, config))
        assert all(0 < len(m) <= model_module._MEMO_ENTRIES for m in model_module._memos)

    def test_memo_count_stays_bounded(self):
        """One memo pair serves every dim: featurizing in three spaces in turn
        keeps the same two memos, each within its bound."""
        clear_memos()
        key_memo, token_memo = model_module._memos
        text = ("remained relevant news", "stocks rally mixer bowl")
        for dim in (2**4, 2**12, 2**18):
            config = FeaturizerConfig(dim=dim)
            assert_bitwise_equal(featurize(text, config), reference_featurize(text, config))
            assert_bitwise_equal(featurize_batch([text, "stocks"], config)[0],
                                 reference_featurize(text, config))
            assert model_module._memos[0] is key_memo and model_module._memos[1] is token_memo
            assert all(0 < len(m) <= model_module._MEMO_ENTRIES for m in model_module._memos)

    def test_mutating_a_result_does_not_change_later_results(self):
        text = ("changed to exact match", "red mixer bowl mixer")
        first = featurize(text, SMALL)
        first.indices[:] = 0
        first.values[:] = 9.0
        assert_bitwise_equal(featurize(text, SMALL), reference_featurize(text, SMALL))


class TestFeaturizeBatch:
    """featurize_batch featurizes blocks of 64 rows, sharing each distinct
    segment's keys; every row must equal featurize of that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), config=_configs, size=st.sampled_from([0, 1, 63, 64, 65, 130]))
    def test_rows_equal_featurize(self, data, config, size):
        # Rows draw their segments from a few texts, so the same segment
        # recurs across rows and inside one row, as candidate content does.
        texts = data.draw(st.lists(_texts, min_size=1, max_size=5)) + [""]
        segment = st.sampled_from(texts)
        row = segment | st.lists(segment, min_size=0, max_size=3).map(tuple)
        distinct = data.draw(st.lists(row, min_size=1, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=size, max_size=size))
        inputs = [distinct[i] for i in picks]
        batch = featurize_batch(inputs, config)
        assert len(batch) == size
        for x, fv in zip(inputs, batch):
            assert_bitwise_equal(fv, featurize(x, config))

    @pytest.mark.parametrize("config", [SMALL, FeaturizerConfig(dim=16)], ids=["default", "dim16"])
    def test_edge_rows(self, config):
        inputs = [
            "", (), ("",), ("", ""), "a bare string [SEP] never split",
            ("changed to exact match", "red mixer bowl"),
            ("changed to exact match", "red mixer bowl", "red mixer bowl"),
            ("remained irrelevant match", "red mixer bowl", "usb hub"),
            ("same same", "same same"), ("changed to exact match", ""),
            ("", "content without a prompt"),
        ]
        for x, fv in zip(inputs, featurize_batch(inputs, config), strict=True):
            assert_bitwise_equal(fv, featurize(x, config))

    def test_row_does_not_depend_on_its_batch(self):
        rows = [("changed to exact match", f"item {i} red mixer bowl") for i in range(70)]
        rows[5] = rows[66] = ("remained irrelevant match", "red mixer bowl")
        together = featurize_batch(rows, SMALL)
        for i in (0, 5, 63, 64, 66, 69):
            alone = featurize_batch([rows[i]], SMALL)[0]
            shifted = featurize_batch(rows[i:] + rows[:i], SMALL)[0]
            assert_bitwise_equal(together[i], alone)
            assert_bitwise_equal(shifted, alone)

    def test_binary_scorer_scores_the_batch_featurized_row_by_row(self):
        ds = synth_generate(preset_config("retail_shift", n_per_topic=8), seed=2)
        catalog = builtin_catalog("en-retail")
        batch = [c for ex in ds for c in candidates(ex, ds.post_labels, catalog)][:100]
        rng = np.random.default_rng(5)
        model = Model(columns=np.arange(SMALL.dim),
                      weights=rng.normal(size=(1, SMALL.dim)), bias=np.array([0.1]),
                      featurizer=SMALL)
        expected = score(model, [featurize(c.segments, SMALL) for c in batch])
        assert make_binary_scorer(model)(batch).tobytes() == expected.tobytes()


class TestScore:
    def test_zero_binary_model_scores_half(self):
        model = fresh_model(1)
        assert score(model, [featurize("anything at all", SMALL)])[0] == 0.5

    def test_zero_multiclass_model_is_uniform(self):
        model = fresh_model(4)
        probs = score(model, [featurize("anything", SMALL)])[0]
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)

    def test_multiclass_sums_to_one(self):
        rng = np.random.default_rng(0)
        model = Model(
            columns=np.arange(SMALL.dim),
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
        every = np.arange(SMALL.dim)
        base = Model(columns=every, weights=weights, bias=np.zeros(3),
                     featurizer=SMALL)
        lifted = Model(columns=every, weights=weights, bias=np.full(3, 7.5),
                       featurizer=SMALL)
        np.testing.assert_allclose(score(base, [fv])[0], score(lifted, [fv])[0], atol=1e-12)

    def test_sigmoid_stays_inside_open_interval(self):
        model = Model(
            columns=np.arange(SMALL.dim),
            weights=np.full((1, SMALL.dim), 10.0),
            bias=np.array([0.0]),
            featurizer=SMALL,
        )
        p = score(model, [featurize("word", SMALL)])[0]
        assert 0.0 < p < 1.0
        assert p > 0.999

    def test_scorer_adapter(self):
        features, labels = separable_toy()
        model = train(features, labels, TrainConfig(epochs=5))
        scorer = make_binary_scorer(model)
        candidate = Candidate("x", 1, ("changed to exact match", "some text"))
        assert scorer([candidate])[0] == score(model, [featurize(candidate.segments, SMALL)])[0]
        assert 0.0 <= scorer([candidate])[0] <= 1.0
        multi = fresh_model(3)
        with pytest.raises(ValueError, match="binary"):
            make_binary_scorer(multi)


class TestScoreBatch:
    """score runs packed rows through the training forward: a row's
    probability is the same alone or in a batch, and matches a dot product."""

    def models(self):
        rng = np.random.default_rng(3)
        every = np.arange(SMALL.dim)
        yield Model(columns=every, weights=rng.normal(size=(1, SMALL.dim)),
                    bias=np.array([0.3]), featurizer=SMALL)
        yield Model(columns=every, weights=rng.normal(size=(4, SMALL.dim)),
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

    def test_many_rows_in_one_call_equal_single_rows(self):
        """About 300 rows, empty ones included, span several full-pass blocks."""
        rng = np.random.default_rng(5)
        words = ["stocks", "rally", "usb", "hub", "dock", "match", "exact", "news", "team"]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 7)))) for _ in range(300)]
        fvs = [featurize(("remained relevant news", t), SMALL) if i % 3 else featurize(t, SMALL)
               for i, t in enumerate(texts)]
        assert sum(fv.nnz == 0 for fv in fvs) >= 10
        for model in self.models():
            batch = score(model, fvs)
            single = np.array([score(model, [fv])[0] for fv in fvs])
            assert batch.tobytes() == single.tobytes()

    def test_zero_rows(self):
        binary, multiclass = self.models()
        assert score(binary, []).shape == (0,)
        assert score(multiclass, []).shape == (0, 4)

    def test_dimension_mismatch_rejected(self):
        binary, _ = self.models()
        with pytest.raises(ValueError, match=r"made by FeaturizerConfig\(dim=8192\), "
                                              r"not FeaturizerConfig\(dim=4096"):
            score(binary, [featurize("x", FeaturizerConfig(dim=2**13))])


class TestCompactScore:
    """A model holds only its columns; ``score`` reads every other index as
    zero. The oracle sums each row's entries against the dense weights, one
    ``bincount`` per row, and must equal ``score`` bit for bit."""

    FEAT = FeaturizerConfig(dim=2**10)

    def models(self):
        rng = np.random.default_rng(8)
        columns = np.sort(rng.choice(self.FEAT.dim, size=300, replace=False))
        yield Model(columns=columns, weights=rng.normal(size=(1, 300)),
                    bias=np.array([-0.2]), featurizer=self.FEAT)
        yield Model(columns=columns, weights=rng.normal(size=(4, 300)),
                    bias=rng.normal(size=4), featurizer=self.FEAT)

    def rows(self, columns):
        rng = np.random.default_rng(9)
        outside = np.setdiff1d(np.arange(self.FEAT.dim), columns)

        def row(pool_in, pool_out):
            indices = np.sort(np.concatenate([rng.choice(columns, pool_in, replace=False),
                                              rng.choice(outside, pool_out, replace=False)]))
            return FeatureVector(indices=indices, values=rng.normal(size=indices.size),
                                 featurizer=self.FEAT)

        inside = [row(n, 0) for n in (1, 7, 40)]
        partly = [row(n, m) for n, m in ((1, 1), (5, 30), (30, 5))]
        wholly = [row(0, n) for n in (1, 12)]
        empty = [featurize("", self.FEAT)]
        edges = [FeatureVector(indices=np.array([0, self.FEAT.dim - 1]),
                               values=np.array([0.6, -0.8]), featurizer=self.FEAT)]
        return empty + inside + wholly + empty + partly + edges + empty

    def reference(self, model, fvs):
        dense = densify(model)
        z = np.empty((len(fvs), dense.shape[0]))
        for i, fv in enumerate(fvs):
            for k in range(dense.shape[0]):
                entries = np.zeros(fv.nnz, dtype=np.int64)
                z[i, k] = np.bincount(entries, weights=fv.values * dense[k][fv.indices],
                                      minlength=1)[0] + model.bias[k]
        if model.head == "binary":
            return model_module._sigmoid(z[:, 0])
        return model_module._softmax(z)

    def test_equals_dense_bincount_reference_bit_for_bit(self):
        for model in self.models():
            fvs = self.rows(model.columns)
            assert score(model, fvs).tobytes() == self.reference(model, fvs).tobytes()

    def test_rows_outside_the_columns_score_the_bias_alone(self):
        for model in self.models():
            outside = [fv for fv in self.rows(model.columns)
                       if not np.isin(fv.indices, model.columns).any()]
            assert len(outside) == 5
            expected = score(model, [featurize("", self.FEAT)])
            for fv in outside:
                assert score(model, [fv]).tobytes() == expected.tobytes()

    def test_lookup_is_built_once_per_model(self):
        model = next(self.models())
        assert "_slots" not in vars(model)
        fvs = self.rows(model.columns)
        score(model, fvs)
        slots = vars(model)["_slots"]
        assert slots.dtype == np.int32 and slots.shape == (self.FEAT.dim,)
        score(model, fvs[:3])
        assert model._slots is slots


class TestModelColumns:
    """``Model`` refuses columns and parameters it could not score through."""

    def model(self, columns, width=None):
        width = len(columns) if width is None else width
        return Model(columns=columns, weights=np.zeros((3, width)),
                     bias=np.zeros(3), featurizer=SMALL)

    def test_valid_columns_accepted(self):
        assert self.model(np.array([0, 5, SMALL.dim - 1])).weights.shape == (3, 3)
        assert self.model(np.empty(0, dtype=np.int64)).weights.shape == (3, 0)

    @pytest.mark.parametrize("columns", [
        np.array([1.0, 2.0]), np.array([[1, 2]]), np.array([True, False]), [1, 2], np.int64(3),
    ], ids=["float", "2-D", "bool", "list", "scalar"])
    def test_columns_not_1d_integers_rejected(self, columns):
        with pytest.raises(ValueError, match="columns must be a 1-D integer array"):
            self.model(columns, width=2)

    @pytest.mark.parametrize("columns", [[3, 1], [2, 2], [0, 4, 4, 9]],
                             ids=["descending", "repeated", "repeated-inside"])
    def test_columns_not_strictly_increasing_rejected(self, columns):
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            self.model(np.array(columns))

    @pytest.mark.parametrize("columns", [[-1, 3], [0, SMALL.dim], [SMALL.dim + 5]],
                             ids=["negative", "dim", "past-dim"])
    def test_columns_outside_the_hash_space_rejected(self, columns):
        with pytest.raises(ValueError, match=rf"columns must lie in \[0, {SMALL.dim}\)"):
            self.model(np.array(columns))

    @pytest.mark.parametrize("width", [0, 2, 4])
    def test_weight_width_must_equal_the_column_count(self, width):
        with pytest.raises(ValueError, match=f"weight width {width} differs from the 3 columns"):
            self.model(np.array([1, 2, 3]), width=width)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (1, 1, 3)], ids=["1-D", "no-rows", "3-D"])
    def test_weights_must_be_2d_with_rows(self, shape):
        with pytest.raises(ValueError, match="weights must be 2-D with at least one row, got shape"):
            Model(columns=np.array([1, 2, 3]), weights=np.zeros(shape),
                  bias=np.zeros(shape[0]), featurizer=SMALL)

    @pytest.mark.parametrize("head, rows", [("binary", 1), ("multiclass", 2)],
                             ids=["binary-shape1", "multiclass-shape3"])
    def test_weight_rows_must_fit_the_head(self, head, rows):
        """Flat weights are refused whichever head their rows would give;
        the same values as a 2-D row block make a model of that head."""
        flat = np.zeros(rows * 3)
        with pytest.raises(ValueError, match="weights must be 2-D with at least one row, got shape"):
            Model(columns=np.array([1, 2, 3]), weights=flat, bias=np.zeros(rows), featurizer=SMALL)
        model = Model(columns=np.array([1, 2, 3]), weights=flat.reshape(rows, 3),
                      bias=np.zeros(rows), featurizer=SMALL)
        assert model.head == head

    @pytest.mark.parametrize("rows, head", [(1, "binary"), (2, "multiclass"), (4, "multiclass")])
    def test_weight_rows_decide_the_head(self, rows, head):
        model = Model(columns=np.array([1, 2, 3]), weights=np.zeros((rows, 3)),
                      bias=np.zeros(rows), featurizer=SMALL)
        assert model.head == head
        assert score(model, [unit_vector(2)]).shape == ((1,) if rows == 1 else (1, rows))

    @pytest.mark.parametrize("rows, bias_shape", [(4, (1,)), (3, (4,)), (1, ()), (2, (2, 1))],
                             ids=["short", "long", "scalar", "2-D"])
    def test_bias_must_match_the_weight_rows(self, rows, bias_shape):
        """A length-1 bias once broadcast to every class of a 4-row model, and
        a long one failed only inside ``score``."""
        with pytest.raises(ValueError, match=(rf"bias of shape {re.escape(str(bias_shape))} "
                                              rf"does not match the {rows} weight rows")):
            Model(columns=np.array([1, 2, 3]), weights=np.zeros((rows, 3)),
                  bias=np.zeros(bias_shape), featurizer=SMALL)


def two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function as two masked branches, each side's stable form."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
               745.0, -745.0, 750.0, -750.0]

    @pytest.mark.parametrize("shape", [(-1,), (-1, 1)])
    def test_equals_two_branch_form_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        draws = rng.normal(size=10_000) * 10.0 ** rng.uniform(-3, 3, size=10_000)
        special = np.array(self.SPECIAL)
        mixed = draws.copy()
        mixed[rng.choice(draws.size, special.size, replace=False)] = special
        with np.errstate(invalid="ignore"):
            for z in (special, draws, mixed):
                z = z.reshape(shape)
                assert model_module._sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()


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
        model = train(features, labels, config)
        assert score(model, [features[0]])[0] > 0.9
        assert score(model, [features[1]])[0] < 0.1

    def test_loss_log_non_increasing_on_separable_toy(self):
        features, labels = separable_toy()
        config = TrainConfig(epochs=50, learning_rate=0.5, batch_size=2, l2_penalty=0.0)
        model = train(features, labels, config)
        log = np.array(model.train_log)
        assert log.size == 50
        assert np.all(np.diff(log) <= 1e-12)

    def test_bit_deterministic_given_seed(self):
        features, labels = separable_toy()
        config = TrainConfig(epochs=10, learning_rate=0.3, batch_size=1, seed=7)
        a = train(features, labels, config)
        b = train(features, labels, config)
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

    @pytest.mark.parametrize("name, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ])
    def test_out_of_range_counts_rejected(self, name, value, message):
        """numpy refuses a negative seed only when training starts, and without naming it."""
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", True),
        ("l2_penalty", math.nan), ("l2_penalty", math.inf), ("l2_penalty", True),
    ])
    def test_non_finite_rates_rejected(self, name, value):
        """NaN passes every comparison check and True reads as 1; both must be refused."""
        with pytest.raises(ValueError, match=f"{name} must be a finite number, got {value!r}"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("lr, l2", [(1e6, 1e-6), (3e6, 1e-6), (0.5, 2.0)])
    def test_weight_decay_must_stay_positive(self, lr, l2):
        """Each batch scales the weights by 1 - lr*l2; at 0 it erases them,
        below 0 it flips and grows them."""
        with pytest.raises(ValueError, match=rf"learning_rate={lr!r} and l2_penalty={l2!r}"):
            TrainConfig(learning_rate=lr, l2_penalty=l2)
        TrainConfig(learning_rate=lr, l2_penalty=0.0)

    def test_huge_step_logs_a_finite_loss(self):
        """One 1e308 step leaves logits whose mean loss fits in a float but
        whose sum does not; the logged mean must neither overflow nor warn."""
        ds = synth_generate(preset_config("retail_shift", n_per_topic=10), seed=0)
        train_ds, _ = split(ds, test_fraction=0.25, seed=0)
        aug = augment_dataset(fewshot_sample(train_ds, 10, seed=0), builtin_catalog("en-retail"), seed=0)
        feat = FeaturizerConfig(dim=2**14)
        features = [featurize(s.segments, feat) for s in aug]
        config = TrainConfig(epochs=1, learning_rate=1e308, l2_penalty=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(features, [s.binary_label for s in aug], config)
        assert math.isfinite(model.train_log[0]) and model.train_log[0] > 1e300

    @pytest.mark.parametrize("head", ["binary", "multiclass", "joint"])
    def test_data_loss_is_numpy_mean_bit_for_bit(self, head):
        """Where nothing overflows, the logged loss is ``np.mean`` of the
        per-sample losses exactly, so no ``train_log`` moves."""
        rng = np.random.default_rng(3)
        if head == "binary":
            z = rng.normal(scale=5.0, size=(37, 1))
            y = rng.integers(0, 2, 37).astype(np.float64)
            expected = float(np.mean(np.logaddexp(0.0, z[:, 0]) - y * z[:, 0]))
            assert _data_loss(z, [y]) == expected
            return
        z = rng.normal(scale=5.0, size=(37, 4))
        columns = [rng.integers(0, 4, 37) for _ in range(1 if head == "multiclass" else 2)]
        zmax = z.max(axis=1)
        lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
        expected = sum(float(np.mean(lse - z[np.arange(37), y])) for y in columns)
        assert _data_loss(z, columns) == expected

    def test_binary_labels_validated(self):
        features, _ = separable_toy()
        with pytest.raises(ValueError, match="arity"):
            train(features, [1, 2], TrainConfig(epochs=1))

    def test_warm_start_keeps_converged_loss(self):
        """Resuming from a converged model with the same data must not move
        the loss by more than 1%."""
        features, labels = biased_coin_toy()
        base_config = TrainConfig(epochs=300, learning_rate=0.5, batch_size=4, l2_penalty=0.0)
        converged = train(features, labels, base_config)
        resumed = train(
            features,
            labels,
            TrainConfig(epochs=50, learning_rate=0.5, batch_size=4,
                        l2_penalty=0.0, warm_start=converged),
        )
        before = converged.train_log[-1]
        after = resumed.train_log[-1]
        assert abs(after - before) <= 0.01 * before

    @pytest.mark.parametrize("head", ["binary", "multiclass"])
    def test_unpickled_warm_start_trains_like_the_in_process_model(self, head):
        """An unpickled array keeps a non-canonical float64 dtype through copies
        and fancy indexing, on which ``np.add.at`` runs about 20x slower; the
        warm start converts it, and trains exactly as the in-process model."""
        ds = synth_generate(preset_config("retail_shift", n_per_topic=6), seed=2)
        features = [featurize((ex.text_a, ex.text_b), SMALL) for ex in ds]
        labels = [ds.post_labels.index(ex.post_label) for ex in ds]
        if head == "binary":
            labels, k = [int(y == 0) for y in labels], None
        else:
            k = len(ds.post_labels)
        base = train(features, labels, TrainConfig(epochs=2), n_classes=k)
        thawed = pickle.loads(pickle.dumps(base))
        assert thawed.weights.dtype is not np.dtype(np.float64)
        _, weights, bias = _init_params(SMALL, k or 1, thawed, np.empty(0, dtype=np.int64))
        assert weights.dtype is np.dtype(np.float64) and bias.dtype is np.dtype(np.float64)
        resumed = [train(features, labels, TrainConfig(epochs=2, seed=1, warm_start=start),
                         n_classes=k) for start in (base, thawed)]
        assert resumed[0].weights.tobytes() == resumed[1].weights.tobytes()
        assert resumed[0].bias.tobytes() == resumed[1].bias.tobytes()
        assert resumed[0].train_log == resumed[1].train_log

    def test_warm_start_mismatches_rejected(self):
        features, labels = separable_toy()
        binary = train(features, labels, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="warm start head has 1 weight rows, this head needs 3"):
            train(features, labels, TrainConfig(epochs=1, warm_start=binary), n_classes=3)
        wide = FeaturizerConfig(dim=2**13)
        wide_features = [
            unit_vector(5, featurizer=wide, value=1.0),
            unit_vector(5, featurizer=wide, value=-1.0),
        ]
        other_feat = train(wide_features, labels, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="featurizer"):
            train(features, labels, TrainConfig(epochs=1, warm_start=other_feat))


class TestTrainMulticlass:
    def test_requires_explicit_arity(self):
        """``n_classes`` None is the logistic head; a softmax needs two classes or more."""
        features, labels = separable_toy()
        with pytest.raises(ValueError, match="n_classes >= 2, got 1"):
            train(features, labels, TrainConfig(epochs=1), n_classes=1)

    def test_capacity_on_noiseless_synthetic_data(self):
        """Sanity check that the head can memorize cleanly separable data:
        at least 99% training accuracy within the default budget."""
        config = preset_config("retail_shift", n_per_topic=25, noise_rate=0.0)
        ds = synth_generate(config, seed=0)
        labels = [ds.post_labels.index(ex.post_label) for ex in ds]
        features = [featurize((ex.text_a, ex.text_b), SMALL) for ex in ds]
        model = train(features, labels, TrainConfig(), n_classes=4)
        hits = sum(
            int(np.argmax(score(model, [fv])[0])) == y for fv, y in zip(features, labels)
        )
        assert hits / len(labels) >= 0.99


class TestTrainJoint:
    @pytest.mark.parametrize("n_classes", [None, 1])
    def test_requires_a_softmax_arity(self, n_classes):
        """One weight row would be the logistic head, which reads one label column."""
        features, labels = separable_toy()
        with pytest.raises(ValueError, match="n_classes >= 2"):
            train_joint(features, labels, labels, TrainConfig(epochs=1), n_classes)

    def test_agreeing_labels_double_the_loss(self):
        """With pre == post everywhere, the two-term loss at any parameter
        point is exactly twice the one-term loss; compare the first logged
        epoch under a vanishing learning rate, where both sit at zero."""
        features, labels = separable_toy()
        tiny = dict(epochs=1, learning_rate=1e-9, batch_size=2, l2_penalty=0.0)
        single = train(features, labels, TrainConfig(**tiny), n_classes=2)
        joint = train_joint(features, labels, labels, TrainConfig(**tiny), n_classes=2)
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
        model = train_joint(features, pre, post, config, n_classes=2)
        assert model.train_log[-1] >= 2 * math.log(2) - 1e-9
        assert model.train_log[-1] < 2 * math.log(2) + 0.01

    def test_joint_gradient_is_sum_of_parts(self):
        rng = np.random.default_rng(3)
        features = [
            FeatureVector(
                indices=np.sort(rng.choice(SMALL.dim, size=6, replace=False)).astype(np.int64),
                values=rng.normal(size=6),
                featurizer=SMALL,
            )
            for _ in range(8)
        ]
        pre = list(rng.integers(0, 3, size=8))
        post = list(rng.integers(0, 3, size=8))
        model = Model(
            columns=np.arange(SMALL.dim),
            weights=rng.normal(size=(3, SMALL.dim)) * 0.1,
            bias=rng.normal(size=3) * 0.1,
            featurizer=SMALL,
        )
        _, _, gw_pre, gb_pre = loss_and_grad(model, features, [pre], l2=0.0)
        _, _, gw_post, gb_post = loss_and_grad(model, features, [post], l2=0.0)
        _, _, gw_joint, gb_joint = loss_and_grad(model, features, [pre, post], l2=0.0)
        np.testing.assert_allclose(gw_joint, gw_pre + gw_post, atol=1e-12)
        np.testing.assert_allclose(gb_joint, gb_pre + gb_post, atol=1e-12)


class TestFeatureSpaceGate:
    """Every entry point packs its rows through ``_pack``, which refuses a row
    made in another space, one of another dim, and an index outside [0, dim).
    Training takes its space from its first row, scoring and checking from
    the model."""

    OTHERS = {"dim": FeaturizerConfig(dim=2**13)}

    @staticmethod
    def call(entry: str, features, n: int | None = None):
        """Run ``entry`` on the rows; ``n`` is their count when they have no ``len``."""
        labels = [i % 2 for i in range(len(features) if n is None else n)]
        if entry == "train":
            return train(features, labels, TrainConfig(epochs=1))
        if entry == "train_joint":
            return train_joint(features, labels, labels[::-1], TrainConfig(epochs=1), 2)
        if entry == "score":
            return score(fresh_model(1), features)
        return grad_check(fresh_model(1), features, [labels])

    @pytest.mark.parametrize("entry", ["train", "train_joint", "score", "grad_check"])
    @pytest.mark.parametrize("other", ["dim"])
    def test_row_from_another_space_refused(self, entry, other):
        other = self.OTHERS[other]
        rows = [featurize("stocks rally", SMALL), featurize("stocks rally", other)]
        self.call(entry, rows[:1])
        with pytest.raises(ValueError) as caught:
            self.call(entry, rows)
        assert str(caught.value) == f"feature row 1 was made by {other}, not {SMALL}"

    @pytest.mark.parametrize("other", ["dim"])
    def test_training_records_its_rows_featurizer(self, other):
        other = self.OTHERS[other]
        model = train([featurize("stocks rally", other), featurize("", other)], [1, 0],
                      TrainConfig(epochs=1))
        assert model.featurizer == other
        assert score(model, [featurize("stocks rally", other)]).shape == (1,)

    @pytest.mark.parametrize("other", ["dim"])
    def test_training_rows_from_two_spaces_refused(self, other):
        """The first row decides the space, so either order is refused."""
        other = self.OTHERS[other]
        rows = [featurize("stocks rally", other), featurize("usb hub", SMALL)]
        with pytest.raises(ValueError, match=re.escape(f"made by {SMALL}, not {other}")):
            train(rows, [1, 0], TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=re.escape(f"made by {other}, not {SMALL}")):
            train(rows[::-1], [1, 0], TrainConfig(epochs=1))

    @pytest.mark.parametrize("entry", ["train", "train_joint", "score", "grad_check"])
    @pytest.mark.parametrize("index", [-1, SMALL.dim, 2**40])
    def test_index_outside_the_space_refused(self, entry, index):
        """Index -1 once trained the column of another index, and an index
        >= dim raised a bare IndexError from the lookup."""
        bad = FeatureVector(indices=np.array([5, index]) if index > 5 else np.array([index, 5]),
                            values=np.array([0.6, 0.8]), featurizer=SMALL)
        with pytest.raises(ValueError, match=re.escape(f"feature index {index} outside [0, {SMALL.dim})")):
            self.call(entry, [unit_vector(1), bad])


class TestStreamingRows:
    """``train``, ``train_joint``, ``score`` and ``grad_check`` read their rows
    once, from any iterable: a one-shot generator gives what a list of the
    same rows gives, bit for bit, and the same located errors. 600 rows span
    three pack blocks."""

    N = 600

    @classmethod
    def rows(cls) -> list[FeatureVector]:
        rng = np.random.default_rng(7)
        out = []
        for i in range(cls.N):
            nnz = 0 if i % 97 == 0 else int(rng.integers(1, 12))
            indices = np.sort(rng.choice(SMALL.dim, size=nnz, replace=False)).astype(np.int64)
            out.append(FeatureVector(indices=indices, values=rng.normal(size=nnz), featurizer=SMALL))
        return out

    @staticmethod
    def labels(n_classes: int, salt: int = 0) -> list[int]:
        return [(i * 7 + salt) % n_classes for i in range(TestStreamingRows.N)]

    @classmethod
    def fit(cls, head: str, features):
        config = TrainConfig(epochs=2, batch_size=16, seed=3, l2_penalty=1e-3)
        if head == "binary":
            return train(features, cls.labels(2), config)
        if head == "softmax":
            return train(features, cls.labels(3), config, n_classes=3)
        return train_joint(features, cls.labels(3), cls.labels(3, salt=1), config, 3)

    @pytest.mark.parametrize("head", ["binary", "softmax", "joint"])
    def test_generator_trains_like_a_list(self, head):
        rows = self.rows()
        listed, streamed = self.fit(head, rows), self.fit(head, (fv for fv in rows))
        for name in ("columns", "weights", "bias"):
            a, b = getattr(listed, name), getattr(streamed, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert listed.train_log == streamed.train_log
        assert streamed.featurizer == SMALL

    @pytest.mark.parametrize("head", ["binary", "softmax"])
    def test_generator_scores_and_checks_like_a_list(self, head):
        rows = self.rows()
        model = self.fit(head, rows)
        labels = [self.labels(2 if head == "binary" else 3)]
        assert score(model, rows).tobytes() == score(model, (fv for fv in rows)).tobytes()
        assert grad_check(model, rows, labels) == grad_check(model, (fv for fv in rows), labels)

    @pytest.mark.parametrize("entry", ["train", "train_joint", "grad_check"])
    def test_empty_generator_has_no_samples(self, entry):
        with pytest.raises(ValueError, match="^no samples$"):
            TestFeatureSpaceGate.call(entry, iter(()), 0)

    def test_empty_generator_scores_no_rows(self):
        assert score(fresh_model(1), iter(())).shape == (0,)

    @pytest.mark.parametrize("entry", ["train", "train_joint", "score", "grad_check"])
    @pytest.mark.parametrize("position", [1, 255, 256, 599])
    def test_located_errors_from_a_generator(self, entry, position):
        rows = self.rows()
        other = FeaturizerConfig(dim=2**13)
        foreign = FeatureVector(indices=rows[position].indices, values=rows[position].values,
                                featurizer=other)
        outside = FeatureVector(indices=np.array([5, SMALL.dim]), values=np.array([0.6, 0.8]),
                                featurizer=SMALL)
        for bad, message in ((foreign, f"feature row {position} was made by {other}, not {SMALL}"),
                             (outside, f"feature index {SMALL.dim} outside [0, {SMALL.dim})")):
            changed = rows[:position] + [bad] + rows[position + 1:]
            with pytest.raises(ValueError) as caught:
                TestFeatureSpaceGate.call(entry, (fv for fv in changed), self.N)
            assert str(caught.value) == message

    def test_narrow_dtypes_pack_as_wide_ones(self):
        """int32 indices and float32 values pack as int64 and float64, as a
        plain concatenation of the rows cast to those types does."""
        wide = self.rows()
        narrow = [FeatureVector(indices=fv.indices.astype(np.int32),
                                values=fv.values.astype(np.float32), featurizer=SMALL) for fv in wide]
        widened = [FeatureVector(indices=fv.indices, values=fv.values.astype(np.float32).astype(np.float64),
                                 featurizer=SMALL) for fv in wide]
        packed = _pack(iter(narrow), SMALL)
        assert packed.indices.dtype == np.int64 and packed.values.dtype == np.float64
        assert packed.indices.tobytes() == np.concatenate([fv.indices for fv in wide]).tobytes()
        expected = np.concatenate([fv.values.astype(np.float64) for fv in narrow])
        assert packed.values.tobytes() == expected.tobytes()
        assert packed.indptr.tolist() == [0, *np.cumsum([fv.nnz for fv in wide]).tolist()]
        a, b = self.fit("softmax", narrow), self.fit("softmax", widened)
        assert a.weights.tobytes() == b.weights.tobytes() and a.train_log == b.train_log


class TestLabelGate:
    """``train``, ``train_joint`` and ``grad_check`` read their label columns
    through one gate: a column holds exactly one integer per row inside the
    head's arity, or a ValueError names the column."""

    # case -> (bad column, n_classes); None is the logistic head
    BAD = {
        "fraction": ([0, 1, 2.7], 3),        # once trained as [0, 1, 2]
        "strings": (["0", "1", "1"], None),  # once trained
        "negative": ([0, 1, -1], 3),         # grad_check once read -1 as class 2
        "past-binary": ([0, 1, 2], None),    # grad_check once reported a loss
        "short": ([0, 1], 3),                # once a bare numpy IndexError
        "nested": ([[0], [1], [1]], 3),
    }
    NAMES = {"train": "training", "train_joint": "post-shift", "grad_check": "column 0"}

    @staticmethod
    def call(entry: str, labels, n_classes: int | None):
        features = [unit_vector(i) for i in range(3)]
        if entry == "train":
            return train(features, labels, TrainConfig(epochs=1), n_classes)
        if entry == "train_joint":
            return train_joint(features, [0, 1, 0], labels, TrainConfig(epochs=1), n_classes or 2)
        return grad_check(fresh_model(n_classes or 1), features, [labels])

    @pytest.mark.parametrize("entry", ["train", "train_joint", "grad_check"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_label_column_refused(self, entry, case):
        labels, n_classes = self.BAD[case]
        self.call(entry, [0, 1, 0], n_classes)
        with pytest.raises(ValueError, match=f"^{self.NAMES[entry]} label"):
            self.call(entry, labels, n_classes)

    @pytest.mark.parametrize("rows, columns", [(1, 0), (1, 2), (3, 0)])
    def test_head_reads_its_number_of_columns(self, rows, columns):
        """A logistic head reads exactly one label column, a softmax at least one."""
        features = [unit_vector(i) for i in range(3)]
        with pytest.raises(ValueError, match=f"cannot read {columns} label columns"):
            grad_check(fresh_model(rows), features, [[0, 1, 0]] * columns)


def densify(model: Model, columns=None, weights=None) -> np.ndarray:
    """``weights`` over ``columns`` (by default the model's own) scattered into
    zeros of shape (rows, dim), the layout of a model over every column."""
    if columns is None:
        columns, weights = model.columns, model.weights
    dense = np.zeros((weights.shape[0], model.featurizer.dim))
    dense[:, columns] = weights
    return dense


def dense_reference_fit(features, columns, config: TrainConfig, rows, featurizer):
    """Training over the full weight width, batch by batch in plain numpy:
    decay every weight each batch, sum each row's logit entry by entry, and
    add each entry's step into all dim columns in order. ``_fit`` gathers
    chunks of batches, trains only the active columns and runs its full
    passes in row blocks, and must equal this bit for bit."""
    targets = _label_columns(dict(enumerate(columns)), len(features), rows)
    _, weights, bias = _init_params(featurizer, rows, config.warm_start, np.arange(featurizer.dim))
    weight_rows = np.atleast_2d(weights)
    n_heads = weight_rows.shape[0]

    def logits(rows):
        z = np.zeros((len(rows), n_heads))
        for i, r in enumerate(rows):
            fv = features[r]
            for k in range(n_heads):
                total = 0.0
                for j, v in zip(fv.indices.tolist(), fv.values.tolist()):
                    total += v * float(weight_rows[k, j])
                z[i, k] = total
        return z + bias

    rng = np.random.default_rng(config.seed)
    n = len(features)
    decay = 1.0 - config.learning_rate * config.l2_penalty
    log = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            g = _dlogits(logits(rows), [y[rows] for y in targets]) / rows.size
            if config.l2_penalty:
                weights *= decay
            for i, r in enumerate(rows):
                fv = features[r]
                for k in range(n_heads):
                    step = -config.learning_rate * float(g[i, k])
                    for j, v in zip(fv.indices.tolist(), fv.values.tolist()):
                        weight_rows[k, j] += step * v
            bias -= config.learning_rate * g.sum(axis=0)
        log.append(_data_loss(logits(range(n)), targets))
    return weights, bias, tuple(log)


class TestActiveColumnTraining:
    """``_fit`` trains a compact copy of the touched columns; the dense
    reference loop is the oracle."""

    FEAT = FeaturizerConfig(dim=2**14)

    def check_against_reference(self, n_per_topic, batch_size, head, l2, warm, empty_every=0):
        ds = synth_generate(preset_config("retail_shift", n_per_topic=n_per_topic), seed=4)
        features = [featurize((ex.text_a, ex.text_b), self.FEAT) for ex in ds]
        if empty_every:
            features = [featurize("", self.FEAT) if i % empty_every == 0 else fv
                        for i, fv in enumerate(features)]
        before = [fv.indices.copy() for fv in features]
        pre = [ds.pre_labels.index(ex.pre_label) for ex in ds]
        post = [ds.post_labels.index(ex.post_label) for ex in ds]
        k = None if head == "binary" else 4
        columns = {"binary": [[int(p == 0) for p in post]], "multiclass": [post],
                   "joint": [pre, post]}[head]
        warm_model, off_support = None, np.empty(0, dtype=np.int64)
        if warm:
            # Non-zero warm columns both inside and outside the data's
            # support: the outside ones only decay.
            support = np.unique(np.concatenate([fv.indices for fv in features]))
            rng = np.random.default_rng(0)
            outside = np.setdiff1d(np.arange(self.FEAT.dim), support)
            off_support = rng.choice(outside, 40, replace=False)
            warm_model = Model(columns=np.arange(self.FEAT.dim),
                               weights=np.zeros((k or 1, self.FEAT.dim)), bias=np.zeros(k or 1),
                               featurizer=self.FEAT)
            hot = np.concatenate([off_support, support[::3]])
            warm_model.weights[..., hot] = rng.normal(size=warm_model.weights[..., hot].shape)
            warm_model.bias[:] = rng.normal(size=warm_model.bias.shape)
        config = TrainConfig(epochs=3, batch_size=batch_size, seed=9, l2_penalty=l2,
                             warm_start=warm_model)
        if head == "joint":
            trained = train_joint(features, pre, post, config, n_classes=k)
        else:
            trained = train(features, columns[0], config, n_classes=k)
        weights, bias, log = dense_reference_fit(features, columns, config, k or 1, self.FEAT)
        assert np.array_equal(densify(trained), weights)
        assert np.array_equal(trained.bias, bias)
        assert trained.train_log == log
        held = warm_model.columns[np.any(warm_model.weights != 0, axis=0)] if warm else []
        active = np.unique(np.concatenate([held, *(fv.indices for fv in features)]))
        assert trained.weights.shape[1] == active.size
        assert np.array_equal(trained.columns, active)
        if warm and l2:
            off, start = densify(trained)[..., off_support], warm_model.weights[..., off_support]
            assert np.all(off != 0) and not np.array_equal(off, start)
        for fv, indices in zip(features, before):
            assert np.array_equal(fv.indices, indices)

    @pytest.mark.parametrize("head", ["binary", "multiclass", "joint"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("warm", [False, True])
    def test_equals_dense_reference(self, head, l2, warm):
        self.check_against_reference(6, 5, head, l2, warm)

    @pytest.mark.parametrize("head", ["binary", "multiclass", "joint"])
    @pytest.mark.parametrize("n_per_topic, batch_size, empty_every", [
        (70, 6, 0),     # 280 rows: a 252-row chunk, then 4 batches and a partial one
        (70, 1, 0),     # one-row batches over two chunks
        (6, 1000, 0),   # one batch larger than the 24-row set
        (70, 16, 9),    # every ninth row has no features
    ], ids=["partial-chunk", "batch-1", "batch-over-set", "zero-rows"])
    def test_chunk_and_block_boundaries(self, head, n_per_topic, batch_size, empty_every):
        """Cases the 24-row set never reaches: it never leaves the first chunk
        of batches or the first block of a full pass."""
        self.check_against_reference(n_per_topic, batch_size, head, 1e-3, True, empty_every)


class TestGradCheck:
    def random_case(self, rng: np.random.Generator, head: str):
        n = int(rng.integers(3, 10))
        features = []
        for _ in range(n):
            nnz = int(rng.integers(2, 12))
            indices = np.sort(rng.choice(SMALL.dim, size=nnz, replace=False)).astype(np.int64)
            features.append(
                FeatureVector(indices=indices, values=rng.normal(size=nnz), featurizer=SMALL)
            )
        k = int(rng.integers(2, 5))
        if head == "binary":
            model = Model(columns=np.arange(SMALL.dim),
                          weights=rng.normal(size=(1, SMALL.dim)) * 0.5,
                          bias=rng.normal(size=1), featurizer=SMALL)
            labels = [list(rng.integers(0, 2, size=n))]
        else:
            model = Model(columns=np.arange(SMALL.dim),
                          weights=rng.normal(size=(k, SMALL.dim)) * 0.5,
                          bias=rng.normal(size=k), featurizer=SMALL)
            labels = [list(rng.integers(0, k, size=n))]
            if head == "joint":
                labels.append(list(rng.integers(0, k, size=n)))
        return model, features, labels

    def test_logistic_gradient_at_zero_matches_closed_form(self):
        """At w = 0 the logistic gradient collapses to (1/2 - y) x."""
        model = fresh_model(1)
        fv = unit_vector(17, value=0.8)
        _, columns, grad_w, grad_b = loss_and_grad(model, [fv], [[1]], l2=0.0)
        grad_w = densify(model, columns, grad_w)[0]
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
                stepped = train_joint(features, *labels, config, n_classes=model.weights.shape[0])
            else:
                stepped = train(features, labels[0], config,
                                n_classes=None if model.head == "binary" else model.weights.shape[0])
            _, _, grad_w, grad_b = loss_and_grad(model, features, labels, l2)
            np.testing.assert_allclose(stepped.weights, model.weights - lr * grad_w,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(stepped.bias, model.bias - lr * grad_b,
                                       rtol=0, atol=1e-12)
            assert grad_check(model, features, labels, l2=l2, seed=trial) < 1e-4

    @pytest.mark.parametrize("head", ["binary", "multiclass"])
    def test_unpickled_model_checks_like_the_in_process_model(self, head):
        """An unpickled model's non-canonical float64 dtype must not reach the
        gradient, where ``np.add.at`` would take its slow path."""
        ds = synth_generate(preset_config("retail_shift", n_per_topic=6), seed=3)
        features = [featurize((ex.text_a, ex.text_b), SMALL) for ex in ds]
        labels = [ds.post_labels.index(ex.post_label) for ex in ds]
        if head == "binary":
            labels, k = [int(y == 0) for y in labels], None
        else:
            k = len(ds.post_labels)
        base = train(features, labels, TrainConfig(epochs=2), n_classes=k)
        thawed = pickle.loads(pickle.dumps(base))
        assert thawed.weights.dtype is not np.dtype(np.float64)
        _, _, grad_w, grad_b = loss_and_grad(thawed, features, [labels], 1e-4)
        assert grad_w.dtype is np.dtype(np.float64) and grad_b.dtype is np.dtype(np.float64)
        checked = [grad_check(model, features, [labels], l2=1e-4, seed=2)
                   for model in (base, thawed)]
        assert checked[0] == checked[1] < 1e-4

    def test_compact_model_checks_and_stays_untouched(self):
        """The checked copy spans the samples' support, which the compact model
        mostly lacks; neither model is perturbed in place."""
        model, features, labels = self.random_case(np.random.default_rng(4), "multiclass")
        weights, bias = model.weights.copy(), model.bias.copy()
        compact = Model(columns=np.array([3, 9]), weights=np.array([[0.5, -1.0]]),
                        bias=np.array([0.1]), featurizer=SMALL)
        assert grad_check(model, features, labels, l2=1e-4) < 1e-4
        assert grad_check(compact, features, [[y % 2 for y in labels[0]]]) < 1e-4
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert compact.columns.tolist() == [3, 9] and compact.weights.tolist() == [[0.5, -1.0]]

    def test_epsilon_bounds(self):
        model = fresh_model(1)
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(model, [unit_vector(0)], [[1]], epsilon=1e-2)


class TestCrossFeatureDegeneracy:
    """Why cross features default to on: without them a linear model scores
    prompts additively, so with content held to equal-norm texts the ranking
    of two candidate prompts cannot depend on the content at all."""

    def unigram_vector(self, segments, config: FeaturizerConfig) -> FeatureVector:
        """The segments' vector over their word unigrams alone, with no crosses."""
        return keys_vector(unigrams(feature_keys(segments)), config)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_no_cross_ranking_ignores_content(self, seed):
        rng = np.random.default_rng(seed)
        model = Model(
            columns=np.arange(2**18),
            weights=rng.normal(size=(1, 2**18)),
            bias=np.array([0.0]),
            featurizer=FeaturizerConfig(dim=2**18),
        )
        prompt_a = "changed to exact match"
        prompt_b = "changed to substitute match"
        contents = [
            " ".join(f"zz{seed}x{i}w{j}" for j in range(6)) for i in range(5)
        ]
        orders = {
            score(model, [self.unigram_vector((p_a, c), model.featurizer)])[0]
            > score(model, [self.unigram_vector((p_b, c), model.featurizer)])[0]
            for p_a, p_b, c in ((prompt_a, prompt_b, c) for c in contents)
        }
        assert len(orders) == 1

    def test_crosses_recover_content_dependence(self):
        model = Model(columns=np.arange(2**12), weights=np.zeros((1, 2**12)),
                      bias=np.zeros(1), featurizer=FeaturizerConfig(dim=2**12))
        key_a = hash_feature("exact⊗widget", 2**12)
        key_b = hash_feature("substitute⊗gadget", 2**12)
        model.weights[:, key_a] = 10.0
        model.weights[:, key_b] = 10.0
        a = score(model, [featurize(("changed to exact match", "widget thing"), model.featurizer)])[0]
        b = score(model, [featurize(("changed to substitute match", "widget thing"), model.featurizer)])[0]
        assert a > b
        a2 = score(model, [featurize(("changed to exact match", "gadget thing"), model.featurizer)])[0]
        b2 = score(model, [featurize(("changed to substitute match", "gadget thing"), model.featurizer)])[0]
        assert b2 > a2
