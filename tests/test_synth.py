"""Synthetic corpus generation: determinism, label wiring, noise behavior."""
from __future__ import annotations

from dataclasses import replace

import pytest

from entailshift.corpus import ShiftSpec, save_dataset
from entailshift.synth import (
    PRESETS,
    SynthConfig,
    news_shift,
    preset_config,
    retail_shift,
    synth_generate,
    total_flip,
)


def tiny_config(**overrides) -> SynthConfig:
    base = dict(
        name="tiny",
        topics={"hot": ("ember", "flame", "scald"), "cold": ("frost", "sleet", "glacial")},
        pre_label_by_topic={"hot": "relevant", "cold": "irrelevant"},
        shift=ShiftSpec(rules={("hot", "relevant"): "irrelevant", ("cold", "irrelevant"): "relevant"}),
        pre_labels=("relevant", "irrelevant"),
        post_labels=("relevant", "irrelevant"),
        n_per_topic=20,
        noise_rate=0.0,
        tokens_per_text=6,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestValidation:
    def test_overlapping_vocabularies_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            tiny_config(topics={"hot": ("ember", "shared"), "cold": ("shared", "frost")})

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError, match="noise_rate"):
            tiny_config(noise_rate=0.5)

    def test_anchor_must_be_in_vocabulary(self):
        with pytest.raises(ValueError, match="anchor"):
            tiny_config(anchor_by_topic={"hot": "frost"})

    def test_topic_without_pre_label_rejected(self):
        with pytest.raises(ValueError, match="pre-shift"):
            tiny_config(pre_label_by_topic={"hot": "relevant"})


class TestGeneration:
    def test_size_and_label_wiring(self):
        ds = synth_generate(tiny_config(), seed=0)
        assert len(ds) == 40
        for ex in ds:
            if ex.topic == "hot":
                assert (ex.pre_label, ex.post_label) == ("relevant", "irrelevant")
            else:
                assert (ex.pre_label, ex.post_label) == ("irrelevant", "relevant")

    def test_byte_identical_regeneration(self, tmp_path):
        config = tiny_config(noise_rate=0.2)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(synth_generate(config, seed=42), a)
        save_dataset(synth_generate(config, seed=42), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seeds_change_the_text(self):
        config = tiny_config()
        texts_a = [ex.text_a for ex in synth_generate(config, seed=1)]
        texts_b = [ex.text_a for ex in synth_generate(config, seed=2)]
        assert texts_a != texts_b

    def test_noiseless_text_stays_in_topic_vocabulary(self):
        config = tiny_config()
        for ex in synth_generate(config, seed=3):
            vocab = set(config.topics[ex.topic])
            assert set(ex.text_a.split()) <= vocab

    def test_noise_imports_foreign_tokens_at_roughly_the_set_rate(self):
        config = tiny_config(noise_rate=0.3, n_per_topic=300)
        foreign = total = 0
        for ex in synth_generate(config, seed=4):
            vocab = set(config.topics[ex.topic])
            for tok in ex.text_a.split():
                total += 1
                foreign += tok not in vocab
        assert 0.25 < foreign / total < 0.35

    def test_anchor_word_survives_at_one_minus_noise(self):
        config = tiny_config(
            noise_rate=0.1, n_per_topic=400, anchor_by_topic={"hot": "ember", "cold": "frost"}
        )
        hits = count = 0
        for ex in synth_generate(config, seed=5):
            anchor = {"hot": "ember", "cold": "frost"}[ex.topic]
            count += 1
            hits += anchor in ex.text_a.split()
        assert hits / count > 0.85


class TestPresets:
    def test_registry_names(self):
        assert set(PRESETS) == {"retail_shift", "total_flip", "news_shift"}
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("nope")

    def test_retail_is_two_segment_with_anchored_titles(self):
        config = retail_shift()
        ds = synth_generate(replace(config, n_per_topic=50), seed=0)
        assert all(ex.text_b for ex in ds)
        # Noiseless preset: every title carries its topic's planted anchor
        # word at least anchor_repeats times.
        for ex in ds:
            anchor = config.anchor_by_topic[ex.topic]
            assert ex.text_b.split().count(anchor) >= config.anchor_repeats

    def test_retail_content_never_mentions_class_names(self):
        # Informative prompt wordings must stay purely prompt-side tokens:
        # neither the class names nor the prompt template words may occur
        # in any generated text.
        config = retail_shift()
        ds = synth_generate(replace(config, n_per_topic=50), seed=0)
        prompt_words = set(config.post_labels) | {"remained", "changed", "to", "match"}
        for ex in ds:
            tokens = set(ex.text_a.split()) | set(ex.text_b.split())
            assert not (tokens & prompt_words)

    def test_retail_pre_labels_are_uniformly_irrelevant(self):
        ds = synth_generate(replace(retail_shift(), n_per_topic=10), seed=0)
        assert {ex.pre_label for ex in ds} == {"irrelevant"}
        assert ds.post_counts() == {"exact": 10, "substitute": 10, "complement": 10, "irrelevant": 10}

    def test_total_flip_is_noiseless_and_inverted(self):
        config = total_flip()
        assert config.noise_rate == 0.0
        ds = synth_generate(replace(config, n_per_topic=10), seed=0)
        assert all(ex.pre_label != ex.post_label for ex in ds)

    def test_news_shift_flips_one_topic_out_and_two_in(self):
        ds = synth_generate(replace(news_shift(), n_per_topic=5), seed=0)
        flips = {(ex.topic, ex.pre_label, ex.post_label) for ex in ds}
        assert flips == {
            ("world", "relevant", "irrelevant"),
            ("sports", "irrelevant", "relevant"),
            ("business", "relevant", "relevant"),
            ("scitech", "irrelevant", "relevant"),
        }

    def test_preset_overrides(self):
        config = preset_config("total_flip", n_per_topic=7, noise_rate=0.1)
        assert config.n_per_topic == 7
        assert len(synth_generate(config, seed=0)) == 14

    def test_preset_name_is_positional_only(self):
        """``name`` as a keyword overrides the corpus name, not the preset."""
        config = preset_config("retail_shift", name="x", n_per_topic=1)
        assert config.name == "x"
        assert synth_generate(config, seed=0).examples[0].id == "x-exact-0000"


class TestOverrideValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"pre_labels": "ab"}, "pre_labels must be a list of label strings, got 'ab'"),
        ({"post_labels": ("relevant", 1)}, r"post_labels must be a list of label strings"),
        ({"lang": None}, "lang must be a non-empty string, got None"),
        ({"pre_labels": ("a", "b")}, r"topic 'hot': pre label 'relevant' not in pre_labels \('a', 'b'\)"),
        ({"post_labels": ("a", "b")}, r"topic 'hot': shifted label 'irrelevant' not in post_labels"),
        ({"shift": ShiftSpec(rules={})}, "no shift rule for"),
        ({"topics": ["hot", "cold"]}, r"topics must map each topic to a list of words, got \['hot'"),
        ({"topics": {"hot": "ember", "cold": ("frost",)}},
         "topic 'hot': vocabulary must be a list of words, got 'ember'"),
        ({"topics": {"hot": (1, 2), "cold": ("frost",)}}, r"topic 'hot': vocabulary .*got \(1, 2\)"),
        ({"noise_rate": False}, r"noise_rate must be a number in \[0, 0\.5\), got False"),
        ({"noise_rate": "0.1"}, "noise_rate must be a number"),
        ({"topics": {}}, "at least one topic is required"),
        ({"topics": {"hot": (), "cold": ("frost",)}}, "topic 'hot' has an empty vocabulary"),
        ({"anchor_by_topic": {"warm": "ember"}}, "anchor declared for unknown topic 'warm'"),
        ({"anchor_repeats": 0}, "anchor_repeats must be at least 1"),
        ({"n_per_topic": 0}, "n_per_topic must be positive"),
        ({"tokens_per_text": 1}, "tokens_per_text must be at least 2"),
        # Once read through dict(): "" and [] as no anchors, pairs as a mapping.
        ({"anchor_by_topic": ""}, "anchor_by_topic must map topic names to strings, got ''"),
        ({"anchor_by_topic": []}, r"anchor_by_topic must map topic names to strings, got \[\]"),
        ({"anchor_by_topic": [("hot", "ember")]},
         r"anchor_by_topic must map topic names to strings, got \[\('hot', 'ember'\)\]"),
        ({"anchor_by_topic": {"hot": ["ember"]}}, r"anchor_by_topic must map .*\['ember'\]"),
        ({"pre_label_by_topic": ""}, "pre_label_by_topic must map topic names to strings, got ''"),
        ({"pre_label_by_topic": []}, r"pre_label_by_topic must map topic names to strings, got \[\]"),
        ({"pre_label_by_topic": [("hot", "relevant"), ("cold", "irrelevant")]},
         r"pre_label_by_topic must map topic names to strings, got \[\('hot'"),
        ({"pre_label_by_topic": {"hot": "relevant", "cold": 1}}, r"pre_label_by_topic must map .*'cold': 1"),
        ({"pre_label_by_topic": {1: "relevant"}}, r"pre_label_by_topic must map .*\{1: 'relevant'\}"),
    ])
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_label_lists_become_tuples(self):
        labels = ["relevant", "irrelevant"]
        config = tiny_config(pre_labels=labels, topics={"hot": ["ember"], "cold": ["frost"]})
        labels.append("other")
        assert config.pre_labels == ("relevant", "irrelevant")
        assert config.topics == {"hot": ("ember",), "cold": ("frost",)}
