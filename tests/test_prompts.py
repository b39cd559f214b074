"""Prompt catalogs: canonical renderings, validation, randomization."""
from __future__ import annotations

import pytest

from entailshift.prompts import (
    BUILTIN_CATALOG_IDS,
    DEFAULT_DECOYS,
    CatalogError,
    PromptCatalog,
    builtin_catalog,
    load_catalog,
    randomize_labels,
    save_catalog,
)


class TestBuiltinRenders:
    """The packaged catalogs must render these strings verbatim; downstream
    feature extraction keys on the exact wording."""

    def test_en_retail_from_irrelevant(self):
        cat = builtin_catalog("en-retail")
        got = tuple(
            cat.render(label, "irrelevant")
            for label in ("exact", "substitute", "complement", "irrelevant")
        )
        assert got == (
            "changed to exact match",
            "changed to substitute match",
            "changed to complement match",
            "remained irrelevant match",
        )

    def test_es_retail_from_irrelevant(self):
        cat = builtin_catalog("es-retail")
        got = tuple(
            cat.render(label, "irrelevant")
            for label in ("exact", "substitute", "complement", "irrelevant")
        )
        assert got == (
            "cambiado a coincidencia exacta",
            "cambiado para sustituir el partido",
            "cambiado para complementar la coincidencia",
            "permaneció un partido irrelevante",
        )

    def test_en_news_both_directions(self):
        cat = builtin_catalog("en-news")
        assert cat.render("relevant", pre_label="irrelevant") == "changed to relevant news"
        assert cat.render("irrelevant", pre_label="irrelevant") == "remained irrelevant news"
        assert cat.render("irrelevant", pre_label="relevant") == "changed to irrelevant news"
        assert cat.render("relevant", pre_label="relevant") == "remained relevant news"

    def test_unknown_builtin(self):
        with pytest.raises(CatalogError, match="unknown catalog"):
            builtin_catalog("fr-retail")


class TestRenderSemantics:
    def test_remained_only_when_candidate_equals_pre(self):
        cat = builtin_catalog("en-retail")
        for label in cat.labels:
            assert cat.render(label, pre_label=label).startswith("remained")
            assert cat.render(label, pre_label="something-else").startswith("changed to")

    def test_unknown_pre_label_reads_as_change(self):
        cat = builtin_catalog("en-news")
        assert cat.render("relevant", pre_label=None).startswith("changed to")

    def test_unknown_candidate_is_an_error(self):
        cat = builtin_catalog("en-news")
        with pytest.raises(CatalogError, match="mystery"):
            cat.render("mystery", pre_label="relevant")

    def test_prompts_distinct_within_an_example(self):
        """For any pre-shift label, the K candidate prompts never collide."""
        for catalog_id in BUILTIN_CATALOG_IDS:
            cat = builtin_catalog(catalog_id)
            for pre in (*cat.labels, None):
                prompts = [cat.render(label, pre) for label in cat.labels]
                assert len(set(prompts)) == len(prompts)


class TestValidation:
    def test_template_needs_label_slot(self):
        with pytest.raises(CatalogError, match="slot"):
            PromptCatalog(
                catalog_id="bad",
                language="en",
                remained_template="remained same",
                changed_to_template="changed to {label}",
                label_surface={"a": "a", "b": "b"},
            )

    def test_empty_surface_rejected(self):
        with pytest.raises(CatalogError, match="empty surface"):
            PromptCatalog(
                catalog_id="bad",
                language="en",
                remained_template="remained {label}",
                changed_to_template="changed to {label}",
                label_surface={"a": "a", "b": "  "},
            )

    def test_colliding_renders_rejected(self):
        with pytest.raises(CatalogError, match="colliding"):
            PromptCatalog(
                catalog_id="bad",
                language="en",
                remained_template="always {label}",
                changed_to_template="always {label}",
                label_surface={"a": "x", "b": "y"},
            )


class TestRandomization:
    def test_fixed_assignment_by_index(self):
        cat = builtin_catalog("en-retail")
        rand = randomize_labels(cat)
        assert rand.label_surface == {
            "exact": "cat", "substitute": "lion", "complement": "zebra", "irrelevant": "dog",
        }
        assert rand.render("exact", "irrelevant") == "changed to cat match"
        assert rand.catalog_id == "en-retail+random"

    def test_templates_and_labels_preserved(self):
        cat = builtin_catalog("en-news")
        rand = randomize_labels(cat)
        assert rand.labels == cat.labels
        assert rand.remained_template == cat.remained_template
        assert rand.suffix == cat.suffix

    def test_shuffle_is_seed_deterministic(self):
        cat = builtin_catalog("en-retail")
        a = randomize_labels(cat, seed=1, shuffle=True)
        b = randomize_labels(cat, seed=1, shuffle=True)
        assert a.label_surface == b.label_surface

    def test_too_few_or_duplicate_decoys(self):
        cat = builtin_catalog("en-retail")
        with pytest.raises(ValueError, match="at least 4"):
            randomize_labels(cat, decoys=("cat", "dog"))
        with pytest.raises(ValueError, match="distinct"):
            randomize_labels(cat, decoys=("cat", "cat", "dog", "owl"))

    def test_default_decoys_are_distinct(self):
        assert len(set(DEFAULT_DECOYS)) == len(DEFAULT_DECOYS)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cat = builtin_catalog("es-retail")
        path = tmp_path / "es-retail.json"
        save_catalog(cat, path)
        assert load_catalog(path) == cat

    def test_id_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "custom-id.json"
        save_catalog(builtin_catalog("en-news"), path)
        assert load_catalog(path).catalog_id == "custom-id"

    def test_malformed_payload_names_the_catalog(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"language": "en"}')
        with pytest.raises(CatalogError, match="broken"):
            load_catalog(path)

    @pytest.mark.parametrize("text", ['{"language": "en",', "", "\u00e9"],
                             ids=["truncated", "empty", "not_utf8"])
    def test_invalid_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(CatalogError, match="broken.json"):
            load_catalog(path)
