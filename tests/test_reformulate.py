"""Binary reformulation: concatenation, augmentation counts, argmax inference."""
from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailshift.corpus import Dataset, Example, LabelSet
from entailshift.prompts import PromptCatalog, builtin_catalog
from entailshift.reformulate import (
    AugmentedDataset,
    Candidate,
    EntailSample,
    ScoreCoverageError,
    augment_dataset,
    augment_example,
    candidates,
    export_augmented,
    export_scores,
    import_augmented,
    import_scores,
    infer_concat_mode,
    oversample_positive,
    predict_dataset,
    predict_from_scores,
)

RETAIL_LABELS = LabelSet(("exact", "substitute", "complement", "irrelevant"))
NEWS_LABELS = LabelSet(("relevant", "irrelevant"))


def retail_example(i: int = 0, post: str = "substitute") -> Example:
    return Example(
        id=f"q{i}",
        text_a="iphone",
        text_b="samsung galaxy",
        pre_label="irrelevant",
        post_label=post,
    )


def pseudo_scorer(text: str) -> float:
    """Deterministic, text-sensitive stand-in probability."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def pseudo_candidate_scorer(candidate) -> float:
    """pseudo_scorer adapted to candidates through their rendered text."""
    return pseudo_scorer(candidate.input_text)


def batched(per_candidate):
    """A batch scorer that applies a per-candidate scorer to each candidate."""
    return lambda batch: [per_candidate(c) for c in batch]


def rendered(prompt: str, ex: Example, k: int = 1) -> str:
    """The input text of one two-segment candidate, built by hand."""
    return Candidate(ex.id, k, (prompt, ex.text_a, ex.text_b)).input_text


class TestConcat:
    def test_two_segment_layout(self):
        cat = builtin_catalog("en-retail")
        got = candidates(retail_example(), RETAIL_LABELS, cat, "two_segment")[1].input_text
        assert got == "iphone [SEP] changed to substitute match [SEP] samsung galaxy"

    def test_single_segment_layout(self):
        ex = Example(
            id="n1", text_a="Stocks to Watch Tuesday",
            pre_label="relevant", post_label="relevant",
        )
        got = candidates(ex, NEWS_LABELS, builtin_catalog("en-news"), "single_segment")[0].input_text
        assert got == "remained relevant news [SEP] Stocks to Watch Tuesday"

    def test_two_segment_without_text_b(self):
        ex = Example(id="x", text_a="only one", pre_label="a", post_label="a")
        with pytest.raises(ValueError, match="text_b"):
            candidates(ex, NEWS_LABELS, builtin_catalog("en-news"), "two_segment")

    def test_mode_inference(self):
        two = [retail_example(0), retail_example(1)]
        one = [Example(id="a", text_a="t", pre_label="x", post_label="x")]
        assert infer_concat_mode(two) == "two_segment"
        assert infer_concat_mode(one) == "single_segment"
        with pytest.raises(ValueError, match="mixed"):
            infer_concat_mode(two + one)


class TestAugmentExample:
    def test_retail_four_way(self):
        """A pair whose label moved from irrelevant to substitute: three
        negatives and one positive, prompts in label-set order."""
        cat = builtin_catalog("en-retail")
        samples = augment_example(retail_example(), RETAIL_LABELS, cat, "two_segment")
        texts = [s.input_text for s in samples]
        assert texts == [
            "iphone [SEP] changed to exact match [SEP] samsung galaxy",
            "iphone [SEP] changed to substitute match [SEP] samsung galaxy",
            "iphone [SEP] changed to complement match [SEP] samsung galaxy",
            "iphone [SEP] remained irrelevant match [SEP] samsung galaxy",
        ]
        assert [s.binary_label for s in samples] == [0, 1, 0, 0]
        assert [s.candidate_index for s in samples] == [1, 2, 3, 4]
        assert all(s.source_id == "q0" and not s.is_oversampled for s in samples)

    def test_news_two_way_label_kept(self):
        cat = builtin_catalog("en-news")
        ex = Example(
            id="n1", text_a="Stocks to Watch Tuesday",
            pre_label="relevant", post_label="relevant",
        )
        samples = augment_example(ex, NEWS_LABELS, cat, "single_segment")
        by_label = {s.binary_label: s.input_text for s in samples}
        assert by_label[1] == "remained relevant news [SEP] Stocks to Watch Tuesday"
        assert by_label[0] == "changed to irrelevant news [SEP] Stocks to Watch Tuesday"

    def test_segments_keep_user_separator(self):
        """Text containing " [SEP] " stays inside its own segment."""
        cat = builtin_catalog("en-retail")
        ex = Example(id="s", text_a="usb [SEP] hub", text_b="dock [SEP] stand",
                     pre_label="irrelevant", post_label="exact")
        first = augment_example(ex, RETAIL_LABELS, cat, "two_segment")[0]
        assert first.segments == ("changed to exact match", "usb [SEP] hub", "dock [SEP] stand")
        assert first.input_text == rendered("changed to exact match", ex)

    def test_one_hot_over_candidates(self):
        cat = builtin_catalog("en-retail")
        for post in RETAIL_LABELS:
            samples = augment_example(retail_example(post=post), RETAIL_LABELS, cat, "two_segment")
            assert sum(s.binary_label for s in samples) == 1
            positive = samples[RETAIL_LABELS.index(post)]
            assert positive.binary_label == 1


def retail_dataset(n: int) -> Dataset:
    posts = list(RETAIL_LABELS)
    return Dataset(
        examples=tuple(
            Example(
                id=f"q{i}", text_a=f"query {i}", text_b=f"brand item number {i}",
                pre_label="irrelevant", post_label=posts[i % 4],
            )
            for i in range(n)
        ),
        pre_labels=LabelSet(("relevant", "irrelevant")),
        post_labels=RETAIL_LABELS,
    )


class TestAugmentDataset:
    def test_count_law_without_oversampling(self):
        aug = augment_dataset(retail_dataset(100), builtin_catalog("en-retail"), oversample=False)
        assert len(aug) == 400
        assert aug.n_positive == 100

    def test_count_law_with_oversampling(self):
        aug = augment_dataset(retail_dataset(100), builtin_catalog("en-retail"), oversample=True)
        assert len(aug) == 500
        assert aug.n_positive == 200

    def test_exactly_one_clean_positive_per_source(self):
        aug = augment_dataset(retail_dataset(40), builtin_catalog("en-retail"), oversample=True)
        clean: dict[str, int] = {}
        for s in aug:
            if s.binary_label == 1 and not s.is_oversampled:
                clean[s.source_id] = clean.get(s.source_id, 0) + 1
        assert set(clean.values()) == {1}
        assert len(clean) == 40

    def test_deterministic_given_seed(self):
        cat = builtin_catalog("en-retail")
        ds = retail_dataset(30)
        a = augment_dataset(ds, cat, oversample=True, seed=9)
        b = augment_dataset(ds, cat, oversample=True, seed=9)
        c = augment_dataset(ds, cat, oversample=True, seed=10)
        assert a == b
        assert a != c

    def test_empty_dataset_rejected(self):
        empty = Dataset(
            examples=(), pre_labels=LabelSet(("a", "b")), post_labels=RETAIL_LABELS,
        )
        with pytest.raises(ValueError, match="empty"):
            augment_dataset(empty, builtin_catalog("en-retail"))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=60), oversample=st.booleans())
    def test_count_law_property(self, n, oversample):
        aug = augment_dataset(
            retail_dataset(n), builtin_catalog("en-retail"), oversample=oversample
        )
        k = len(RETAIL_LABELS)
        assert len(aug) == (k + 1) * n if oversample else k * n
        assert aug.n_positive == (2 * n if oversample else n)


class TestOversamplePositive:
    def positive_sample(self, title: str) -> tuple[EntailSample, Example]:
        source = Example(
            id="p0", text_a="noise cancelling headphones", text_b=title,
            pre_label="irrelevant", post_label="exact",
        )
        cat = builtin_catalog("en-retail")
        samples = augment_example(source, RETAIL_LABELS, cat, "two_segment")
        return samples[RETAIL_LABELS.index("exact")], source

    def test_twenty_token_title_loses_exactly_one(self):
        title = " ".join(f"tok{i}" for i in range(20))
        sample, source = self.positive_sample(title)
        out = oversample_positive(sample, deletion_frac=0.05, seed=3)
        assert out.is_oversampled
        new_title = out.input_text.split(" [SEP] ")[-1]
        assert len(new_title.split()) == 19

    def test_deleted_span_is_contiguous(self):
        title = " ".join(f"tok{i}" for i in range(30))
        sample, source = self.positive_sample(title)
        out = oversample_positive(sample, deletion_frac=0.2, seed=8)
        kept = out.input_text.split(" [SEP] ")[-1].split()
        original = title.split()
        assert len(kept) == 24
        start = next(i for i, (a, b) in enumerate(zip(original, kept)) if a != b)
        assert kept == original[:start] + original[start + 6:]

    def test_single_token_title_only_flags(self):
        sample, source = self.positive_sample("headphones")
        out = oversample_positive(sample, seed=0)
        assert out.is_oversampled
        assert out.input_text == sample.input_text

    def test_prompt_segment_untouched(self):
        title = " ".join(f"tok{i}" for i in range(12))
        sample, source = self.positive_sample(title)
        out = oversample_positive(sample, seed=1)
        parts = out.input_text.split(" [SEP] ")
        assert parts[0] == source.text_a
        assert parts[1] == "changed to exact match"

    def test_seed_determinism(self):
        title = " ".join(f"tok{i}" for i in range(25))
        sample, source = self.positive_sample(title)
        outs = {oversample_positive(sample, seed=7).input_text for _ in range(3)}
        assert len(outs) == 1

    def test_rejects_negatives(self):
        sample, source = self.positive_sample("a b c")
        negative = EntailSample(
            source_id=sample.source_id, candidate_index=1,
            segments=sample.segments, binary_label=0,
        )
        with pytest.raises(ValueError, match="not a positive"):
            oversample_positive(negative)

    def test_single_segment_deletes_from_text_a(self):
        source = Example(
            id="n0", text_a=" ".join(f"w{i}" for i in range(10)),
            pre_label="relevant", post_label="relevant",
        )
        cat = builtin_catalog("en-news")
        positive = augment_example(source, NEWS_LABELS, cat, "single_segment")[0]
        out = oversample_positive(positive, deletion_frac=0.1, seed=2)
        prompt, body = out.input_text.split(" [SEP] ")
        assert prompt == "remained relevant news"
        assert len(body.split()) == 9


def one_example(ex: Example) -> Dataset:
    return Dataset(examples=(ex,), pre_labels=LabelSet(("relevant", "irrelevant")),
                   post_labels=RETAIL_LABELS)


def predict_one(scorer, ex: Example) -> str:
    """The prediction for one example, through predict_dataset."""
    cat = builtin_catalog("en-retail")
    return predict_dataset(scorer, one_example(ex), cat, "two_segment")[ex.id]


class TestPredictLabel:
    def test_keyword_indicator_scorer(self):
        scorer = batched(lambda c: 1.0 if "substitute" in c.input_text else 0.0)
        got = predict_one(scorer, retail_example())
        assert got == "substitute"

    def test_constant_scorer_breaks_ties_to_first_label(self):
        got = predict_one(batched(lambda _: 0.5), retail_example())
        assert got == "exact"

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            predict_one(batched(lambda _: 1.5), retail_example())

    def test_matches_brute_force_candidate_loop(self):
        """The prediction must equal an independent pass that materializes
        all K candidate inputs, scores them, and picks the first maximum."""
        cat = builtin_catalog("en-retail")
        for ex in retail_dataset(25):
            scored = []
            for label in RETAIL_LABELS:
                prompt = cat.render(label, pre_label=ex.pre_label)
                scored.append(pseudo_scorer(rendered(prompt, ex)))
            expected = RETAIL_LABELS.labels[scored.index(max(scored))]
            got = predict_one(batched(pseudo_candidate_scorer), ex)
            assert got == expected

    def test_unadapted_text_scorer_fails_loudly(self):
        with pytest.raises(AttributeError):
            predict_one(pseudo_scorer, retail_example())

    def test_unadapted_candidate_scorer_fails_loudly(self):
        """A per-candidate scorer handed a batch must not yield predictions."""
        with pytest.raises(AttributeError):
            predict_one(pseudo_candidate_scorer, retail_example())
        with pytest.raises(ValueError, match="1 scores for 4 candidates"):
            predict_one(lambda _: 0.5, retail_example())

    def test_wrong_length_result_rejected(self):
        with pytest.raises(ValueError, match="3 scores for 4 candidates"):
            predict_one(lambda batch: [0.5] * (len(batch) - 1), retail_example())

    def test_batches_cover_every_candidate_once_in_order(self):
        ds = retail_dataset(50)
        cat = builtin_catalog("en-retail")
        calls = []

        def recording(batch):
            calls.append(list(batch))
            return [pseudo_candidate_scorer(c) for c in batch]

        got = predict_dataset(recording, ds, cat, "two_segment")
        seen = [c for batch in calls for c in batch]
        assert seen == [c for ex in ds for c in candidates(ex, RETAIL_LABELS, cat, "two_segment")]
        assert len(calls) > 1 and all(1 <= len(batch) <= 64 for batch in calls)
        assert got == {ex.id: predict_one(batched(pseudo_candidate_scorer), ex) for ex in ds}

    def test_monotone_transform_invariance(self):
        squeezed = batched(lambda c: pseudo_candidate_scorer(c) ** 0.5)
        for ex in retail_dataset(20):
            a = predict_one(batched(pseudo_candidate_scorer), ex)
            b = predict_one(squeezed, ex)
            assert a == b


class TestFileBridge:
    def test_export_line_count_and_round_trip(self, tmp_path):
        aug = augment_dataset(retail_dataset(100), builtin_catalog("en-retail"), oversample=False)
        path = tmp_path / "aug.jsonl"
        export_augmented(aug, path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 400
        assert import_augmented(path) == aug.samples

    def test_scores_round_trip_reproduces_predictions(self, tmp_path):
        ds = retail_dataset(30)
        cat = builtin_catalog("en-retail")
        direct = {ex.id: predict_one(batched(pseudo_candidate_scorer), ex) for ex in ds}
        scores = {}
        for ex in ds:
            for idx, label in enumerate(RETAIL_LABELS):
                prompt = cat.render(label, pre_label=ex.pre_label)
                scores[(ex.id, idx + 1)] = pseudo_scorer(rendered(prompt, ex, idx + 1))
        path = tmp_path / "scores.jsonl"
        export_scores(scores, path)
        assert predict_from_scores(import_scores(path), ds.examples, RETAIL_LABELS) == direct

    def test_gap_error_names_every_missing_pair(self, tmp_path):
        ds = retail_dataset(2)
        scores = {(ex.id, k): 0.5 for ex in ds for k in range(1, 5)}
        del scores[("q1", 3)]
        del scores[("q0", 1)]
        with pytest.raises(ScoreCoverageError) as err:
            predict_from_scores(scores, ds.examples, RETAIL_LABELS)
        assert "'q1', k=3" in str(err.value)
        assert "'q0', k=1" in str(err.value)

    def test_unexpected_rows_are_named(self):
        """Rows for an unknown id or an out-of-range candidate index mean the
        scores belong to another dataset or label set."""
        labels = LabelSet(("a", "b"))
        examples = [Example(id="x", text_a="t", pre_label="a", post_label="a")]
        scores = {("x", 1): 0.2, ("x", 2): 0.9, ("ghost", 1): 0.5, ("x", 7): 0.99}
        with pytest.raises(ScoreCoverageError) as err:
            predict_from_scores(scores, examples, labels)
        assert "'ghost', k=1" in str(err.value)
        assert "'x', k=7" in str(err.value)
        assert "'x', k=2" not in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), 7.0, -0.1])
    def test_mapping_values_must_be_probabilities(self, bad):
        """A NaN can never win an argmax and an out-of-range value always
        does, so mapping values are checked like scores read from a file."""
        labels = LabelSet(("a", "b"))
        examples = [Example(id="x", text_a="t", pre_label="a", post_label="a")]
        with pytest.raises(ValueError, match=r"\('x', k=1\)"):
            predict_from_scores({("x", 1): bad, ("x", 2): 0.1}, examples, labels)

    @pytest.mark.parametrize("two_segment", [False, True])
    def test_separator_in_user_text_round_trips(self, tmp_path, two_segment):
        text_b = "dock [SEP] stand [SEP] black" if two_segment else None
        ds = Dataset(
            examples=(Example(id="s0", text_a="cables [SEP] adapters on sale", text_b=text_b,
                              pre_label="relevant", post_label="irrelevant"),),
            pre_labels=NEWS_LABELS, post_labels=NEWS_LABELS,
        )
        aug = augment_dataset(ds, builtin_catalog("en-news"), oversample=True)
        path = tmp_path / "aug.jsonl"
        export_augmented(aug, path)
        imported = import_augmented(path)
        assert imported == aug.samples
        assert len(imported) == 3 and imported[2].is_oversampled
        assert all(s.segments[1] == "cables [SEP] adapters on sale" for s in imported[:2])

    def test_import_rejects_text_that_is_not_its_segments(self, tmp_path):
        path = tmp_path / "aug.jsonl"
        path.write_text(
            '{"source_id": "a", "candidate_index": 1, "input_text": "p [SEP] x", '
            '"segments": ["p", "y"], "binary_label": 1, "is_oversampled": false}\n'
        )
        with pytest.raises(ValueError, match="line 1") as err:
            import_augmented(path)
        assert str(path) in str(err.value)

    def test_import_rejects_out_of_range_probability(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"source_id": "a", "candidate_index": 1, "probability": 2.0}\n')
        with pytest.raises(ValueError, match="line 1"):
            import_scores(path)

    def test_import_rejects_non_integer_candidate_index(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"source_id": "a", "candidate_index": 1, "probability": 0.5}\n'
            '{"source_id": "a", "candidate_index": "x", "probability": 0.5}\n'
        )
        with pytest.raises(ValueError, match="line 2") as err:
            import_scores(path)
        assert str(path) in str(err.value)

    def test_import_rejects_duplicate_rows(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"source_id": "a", "candidate_index": 1, "probability": 0.2}\n'
            '{"source_id": "a", "candidate_index": 2, "probability": 0.3}\n'
            '{"source_id": "a", "candidate_index": 1, "probability": 0.9}\n'
        )
        with pytest.raises(ValueError, match="duplicate") as err:
            import_scores(path)
        message = str(err.value)
        assert str(path) in message
        assert "line 3" in message and "line 1" in message
