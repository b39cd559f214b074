"""Dataset loading, shift simulation, and sampling behavior."""
from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailshift.corpus import (
    Dataset,
    DatasetError,
    Example,
    LabelSet,
    ShiftCoverageError,
    ShiftSpec,
    apply_shift,
    fewshot_sample,
    load_dataset,
    rebalance,
    save_dataset,
    split,
)


def make_example(i: int, post: str, pre: str = "relevant", topic: str | None = None) -> Example:
    return Example(
        id=f"ex-{i}",
        text_a=f"sample text number {i}",
        pre_label=pre,
        post_label=post,
        topic=topic,
    )


def balanced_dataset(per_class: dict[str, int]) -> Dataset:
    labels = LabelSet(tuple(per_class))
    examples = []
    i = 0
    for label, count in per_class.items():
        for _ in range(count):
            examples.append(make_example(i, post=label))
            i += 1
    return Dataset(
        examples=tuple(examples),
        pre_labels=LabelSet(("relevant", "irrelevant")),
        post_labels=labels,
    )


class TestTypes:
    def test_label_set_rejects_duplicates_and_singletons(self):
        with pytest.raises(ValueError):
            LabelSet(("a", "a"))
        with pytest.raises(ValueError):
            LabelSet(("only",))

    def test_label_index_is_declaration_order(self):
        ls = LabelSet(("exact", "substitute", "complement", "irrelevant"))
        assert ls.index("substitute") == 1
        with pytest.raises(ValueError, match="unknown"):
            ls.index("unknown")

    def test_example_requires_text(self):
        with pytest.raises(ValueError):
            Example(id="x", text_a="", pre_label="a", post_label="b")

    @pytest.mark.parametrize("field", ["text_b", "lang", "topic"])
    def test_example_rejects_empty_optional_field(self, field):
        """Files store an empty optional field as absent, so it could not round-trip."""
        with pytest.raises(ValueError, match=f"example 'x': {field} must be non-empty when given"):
            Example(id="x", text_a="t", pre_label="a", post_label="b", **{field: ""})

    def test_dataset_rejects_undeclared_labels(self):
        ex = make_example(0, post="mystery")
        with pytest.raises(DatasetError, match="mystery"):
            Dataset(
                examples=(ex,),
                pre_labels=LabelSet(("relevant", "irrelevant")),
                post_labels=LabelSet(("relevant", "irrelevant")),
            )

    def test_dataset_rejects_undeclared_pre_label(self):
        ex = make_example(0, post="relevant", pre="mystery")
        with pytest.raises(DatasetError, match="pre_label 'mystery' not in declared pre label set"):
            Dataset(
                examples=(ex,),
                pre_labels=LabelSet(("relevant", "irrelevant")),
                post_labels=LabelSet(("relevant", "irrelevant")),
            )


class TestLoadSave:
    def news_fixture(self) -> Dataset:
        """Three items spanning the news relabeling: one flips to irrelevant,
        one flips to relevant, one keeps its label."""
        examples = (
            Example(
                id="n1",
                text_a="peace talks resume after border ceasefire announcement",
                pre_label="relevant",
                post_label="irrelevant",
                topic="world",
            ),
            Example(
                id="n2",
                text_a="midfielder transfer rumor dominates the sports pages",
                pre_label="irrelevant",
                post_label="relevant",
                topic="sports",
            ),
            Example(
                id="n3",
                text_a="retailer beats quarterly earnings expectations",
                pre_label="relevant",
                post_label="relevant",
                topic="business",
            ),
        )
        labels = LabelSet(("relevant", "irrelevant"))
        return Dataset(examples=examples, pre_labels=labels, post_labels=labels, name="news-mini")

    def test_jsonl_round_trip(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "news.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded == ds
        assert loaded.post_counts() == {"relevant": 2, "irrelevant": 1}

    def test_csv_round_trip(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "news.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded == ds

    def test_format_comes_from_the_suffix(self, tmp_path):
        """An unknown suffix is an error naming the file and the suffixes read."""
        path = tmp_path / "news.txt"
        path.write_text("")
        for call in (lambda: save_dataset(self.news_fixture(), path), lambda: load_dataset(path)):
            with pytest.raises(ValueError, match=r"'news\.txt'; use a \.jsonl, \.ndjson, \.json or \.csv"):
                call()

    def test_missing_sidecar_is_an_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text_a": "t", "pre_label": "x", "post_label": "y"}\n')
        with pytest.raises(DatasetError, match="labels"):
            load_dataset(path)

    def test_labels_file_missing_key_names_file_and_key(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        labels_file = tmp_path / "data.jsonl.labels.json"
        labels_file.write_text('{"post_labels": ["relevant", "irrelevant"]}')
        with pytest.raises(DatasetError, match="pre_labels") as err:
            load_dataset(path)
        assert str(labels_file) in str(err.value)

    @pytest.mark.parametrize("content", [
        b'{"pre_labels": ["relevant", "irrelevant"], "post_labels": ["rel',
        b"5",
        b'[["relevant", "irrelevant"], ["relevant", "irrelevant"]]',
        b'\xff\xfe{}',
        b'{"pre_labels": 5, "post_labels": ["relevant", "irrelevant"]}',
        b'{"pre_labels": ["relevant"], "post_labels": ["relevant", "irrelevant"]}',
    ], ids=["truncated", "bare_number", "list", "not_utf8", "labels_not_a_list", "one_label"])
    def test_malformed_labels_file_names_the_file(self, tmp_path, content):
        ds = self.news_fixture()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        labels_file = tmp_path / "data.jsonl.labels.json"
        labels_file.write_bytes(content)
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(labels_file) in str(err.value)

    def test_malformed_record_names_the_line(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({"id": "bad", "text_a": "t", "pre_label": "relevant"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_undeclared_label_names_the_label(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps({
                "id": "n4", "text_a": "t", "pre_label": "relevant", "post_label": "weird",
            }) + "\n")
        with pytest.raises(DatasetError, match="weird"):
            load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = self.news_fixture()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        content = path.read_text().replace("\n", "\n\n")
        path.write_text(content)
        assert len(load_dataset(path)) == 3


class TestApplyShift:
    def test_news_style_relabeling(self):
        fixture = TestLoadSave().news_fixture()
        # Start from the pre-shift labeling and recover the post one.
        pre_view = Dataset(
            examples=tuple(
                Example(
                    id=ex.id, text_a=ex.text_a, pre_label=ex.pre_label,
                    post_label=ex.pre_label, topic=ex.topic,
                )
                for ex in fixture
            ),
            pre_labels=fixture.pre_labels,
            post_labels=fixture.post_labels,
        )
        spec = ShiftSpec(rules={
            ("world", "relevant"): "irrelevant",
            ("sports", "irrelevant"): "relevant",
            ("business", "relevant"): "relevant",
            ("scitech", "irrelevant"): "relevant",
        })
        shifted = apply_shift(pre_view, spec)
        assert [ex.post_label for ex in shifted] == ["irrelevant", "relevant", "relevant"]
        assert [ex.pre_label for ex in shifted] == [ex.pre_label for ex in pre_view]
        assert [ex.id for ex in shifted] == [ex.id for ex in pre_view]

    def test_uncovered_pair_lists_topic_and_label(self):
        fixture = TestLoadSave().news_fixture()
        spec = ShiftSpec(rules={("world", "relevant"): "irrelevant"})
        with pytest.raises(ShiftCoverageError, match="sports"):
            apply_shift(fixture, spec)

    @pytest.mark.parametrize("default", [None, "relevant"])
    def test_coverage_is_what_lookup_finds(self, default):
        """A rule whose label is None finds no label, default or not, so its
        pair is listed as uncovered before any example is relabeled."""
        fixture = TestLoadSave().news_fixture()
        pairs = {(ex.topic, ex.pre_label) for ex in fixture}
        spec = ShiftSpec(rules={pair: None for pair in pairs}, default=default)
        with pytest.raises(ShiftCoverageError) as err:
            apply_shift(fixture, spec)
        for topic, pre_label in pairs:
            assert f"(topic={topic!r}, pre_label={pre_label!r})" in str(err.value)
        assert str(err.value).startswith("shift spec does not cover: ")

    def test_default_rule_covers_everything(self):
        fixture = TestLoadSave().news_fixture()
        spec = ShiftSpec(rules={}, default="irrelevant")
        shifted = apply_shift(fixture, spec)
        assert all(ex.post_label == "irrelevant" for ex in shifted)

    def test_spec_file_round_trip(self, tmp_path):
        spec = ShiftSpec(
            rules={("world", "relevant"): "irrelevant", (None, "irrelevant"): "relevant"},
            default="relevant",
        )
        path = tmp_path / "shift.json"
        spec.to_file(path)
        assert ShiftSpec.from_file(path) == spec

    @pytest.mark.parametrize("text", [
        '{"rules": [{"topic": "world", "pre_label": "relevant"}]}',
        '[{"pre_label": "relevant", "post_label": "irrelevant"}]',
        '{"rules": [',
        '{"rules": [{"topic": "world", "pre_label": "relevant", "post_label": null}]}',
        '{"rules": [{"pre_label": "relevant", "post_label": null}], "default": "relevant"}',
        '{"rules": [{"pre_label": 1, "post_label": "relevant"}]}',
        '{"rules": [{"topic": 3, "pre_label": "relevant", "post_label": "relevant"}]}',
        '{"rules": [], "default": true}',
    ], ids=["rule_without_post_label", "top_level_list", "invalid_json", "null_post_label",
            "null_post_label_with_default", "number_pre_label", "number_topic", "bool_default"])
    def test_malformed_spec_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "broken-shift.json"
        path.write_text(text)
        with pytest.raises(DatasetError, match="broken-shift.json"):
            ShiftSpec.from_file(path)


class TestFewshotSample:
    def test_balanced_ten_over_four_classes(self):
        """10 slots over 4 equal classes: quotas are 2.5 each, so the two
        earliest classes take the remainder slots, giving 3/3/2/2."""
        ds = balanced_dataset({"e": 50, "s": 50, "c": 50, "i": 50})
        sample = fewshot_sample(ds, 10, seed=7)
        assert sample.post_counts() == {"e": 3, "s": 3, "c": 2, "i": 2}

    def test_every_nonempty_class_represented(self):
        ds = balanced_dataset({"a": 97, "b": 2, "c": 1})
        sample = fewshot_sample(ds, 10, seed=0)
        counts = sample.post_counts()
        assert all(counts[label] >= 1 for label in ("a", "b", "c"))
        assert sum(counts.values()) == 10

    def test_allocation_respects_class_capacity(self):
        ds = balanced_dataset({"a": 3, "b": 200})
        sample = fewshot_sample(ds, 100, seed=1)
        assert sample.post_counts()["a"] <= 3

    def test_nested_across_budget_ladder(self):
        ds = balanced_dataset({"e": 300, "s": 300, "c": 300, "i": 300})
        ids = {}
        for n in (10, 100, 1000):
            ids[n] = {ex.id for ex in fewshot_sample(ds, n, seed=3)}
        assert ids[10] <= ids[100] <= ids[1000]

    def test_deterministic_and_seed_sensitive(self):
        ds = balanced_dataset({"a": 80, "b": 80})
        first = [ex.id for ex in fewshot_sample(ds, 20, seed=5)]
        again = [ex.id for ex in fewshot_sample(ds, 20, seed=5)]
        other = [ex.id for ex in fewshot_sample(ds, 20, seed=6)]
        assert first == again
        assert set(first) != set(other)

    def test_below_class_count_falls_back_with_warning(self):
        ds = balanced_dataset({"a": 5, "b": 5, "c": 5})
        with pytest.warns(UserWarning, match="plain random"):
            sample = fewshot_sample(ds, 2, seed=0)
        assert len(sample) == 2

    def test_rejects_oversized_or_empty_budget(self):
        ds = balanced_dataset({"a": 4, "b": 4})
        with pytest.raises(ValueError):
            fewshot_sample(ds, 9, seed=0)
        with pytest.raises(ValueError):
            fewshot_sample(ds, 0, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_sample_is_subset_without_replacement(self, counts, seed, data):
        per_class = {f"L{i}": c for i, c in enumerate(counts)}
        ds = balanced_dataset(per_class)
        n = data.draw(st.integers(min_value=1, max_value=len(ds)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sample = fewshot_sample(ds, n, seed=seed)
        ids = [ex.id for ex in sample]
        assert len(ids) == n
        assert len(set(ids)) == n
        assert set(ids) <= {ex.id for ex in ds}


class TestSplit:
    def test_partition_is_disjoint_and_complete(self):
        ds = balanced_dataset({"a": 40, "b": 60})
        train, test = split(ds, test_fraction=0.25, seed=11)
        train_ids = {ex.id for ex in train}
        test_ids = {ex.id for ex in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {ex.id for ex in ds}

    def test_stratified_counts_round_half_up(self):
        ds = balanced_dataset({"a": 40, "b": 60})
        _, test = split(ds, test_fraction=0.25, seed=11)
        assert test.post_counts() == {"a": 10, "b": 15}

    def test_singleton_class_goes_to_train(self):
        ds = balanced_dataset({"a": 20, "b": 1})
        with pytest.warns(UserWarning, match="single"):
            train, test = split(ds, test_fraction=0.5, seed=0)
        assert train.post_counts()["b"] == 1
        assert test.post_counts()["b"] == 0

    def test_every_class_keeps_a_training_example(self):
        ds = balanced_dataset({"a": 2, "b": 2})
        train, _ = split(ds, test_fraction=0.9, seed=0)
        counts = train.post_counts()
        assert counts["a"] >= 1 and counts["b"] >= 1

    @pytest.mark.parametrize("fraction", [0, 1, -0.1, 1.5])
    def test_fraction_outside_the_open_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=rf"test_fraction must be in \(0, 1\), got {fraction}"):
            split(balanced_dataset({"a": 4, "b": 4}), test_fraction=fraction, seed=0)

    def test_deterministic(self):
        ds = balanced_dataset({"a": 30, "b": 30})
        first = split(ds, 0.2, seed=4)
        again = split(ds, 0.2, seed=4)
        assert [ex.id for ex in first[1]] == [ex.id for ex in again[1]]


class TestRebalance:
    def test_downsamples_to_minimum_class(self):
        ds = balanced_dataset({"a": 50, "b": 9, "c": 30})
        out = rebalance(ds, seed=2)
        assert out.post_counts() == {"a": 9, "b": 9, "c": 9}

    def test_empty_class_is_an_error(self):
        ds = balanced_dataset({"a": 5, "b": 5})
        widened = Dataset(
            examples=ds.examples,
            pre_labels=ds.pre_labels,
            post_labels=LabelSet(("a", "b", "ghost")),
        )
        with pytest.raises(ValueError, match="ghost"):
            rebalance(widened, seed=0)
