"""Prompt catalogs: canonical renderings, validation, randomization."""
from __future__ import annotations

import json

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

    def test_no_labels_rejected(self):
        with pytest.raises(CatalogError, match="label_surface must not be empty"):
            PromptCatalog(
                catalog_id="bad",
                language="en",
                remained_template="remained {label}",
                changed_to_template="changed to {label}",
                label_surface={},
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

    def test_too_few_or_duplicate_decoys(self):
        """The decoys are fixed and distinct, so only a catalog with more
        labels than there are decoys fails."""
        cat = PromptCatalog(
            catalog_id="nine",
            language="en",
            remained_template="remained {label}",
            changed_to_template="changed to {label}",
            label_surface={f"l{i}": f"w{i}" for i in range(9)},
        )
        with pytest.raises(ValueError, match="need at least 9 decoys, got 8"):
            randomize_labels(cat)

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

    @pytest.mark.parametrize("field, value, message", [
        ("suffix", None, "suffix must be a JSON str, got None"),
        ("language", ["en"], r"language must be a JSON str, got \['en'\]"),
        ("label_surface", {"relevant": 7, "irrelevant": "irrelevant"},
         "relevant must be a JSON str, got 7"),
        ("templates", {"remained": "remained {label}", "changed_to": 3},
         "changed_to must be a JSON str, got 3"),
        ("templates", "changed to {label}", "templates must be a JSON dict"),
    ])
    def test_mistyped_field_is_refused_by_name(self, tmp_path, field, value, message):
        """Catalog fields are strings as written: nothing is coerced by ``str()``."""
        path = tmp_path / "typed.json"
        save_catalog(builtin_catalog("en-news"), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, field: value}))
        with pytest.raises(CatalogError, match=f"typed.json: .*{message}"):
            load_catalog(path)

    def test_missing_suffix_means_none(self, tmp_path):
        path = tmp_path / "bare.json"
        save_catalog(builtin_catalog("en-news"), path)
        payload = json.loads(path.read_text())
        del payload["suffix"]
        path.write_text(json.dumps(payload))
        assert load_catalog(path).render("relevant", "relevant") == "remained relevant"

    @pytest.mark.parametrize("text", ['{"language": "en",', "", "\u00e9"],
                             ids=["truncated", "empty", "not_utf8"])
    def test_invalid_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(CatalogError, match="broken.json"):
            load_catalog(path)

    @pytest.mark.parametrize("template, message", [
        ("changed to {label} {0}", "no other field"),
        ("changed to {label} {x}", "no other field"),
        ("changed to {label:{x}}", "no other field"),
        ("changed to {label} {", "malformed: Single '{'"),
    ])
    def test_stray_template_field_names_the_file(self, tmp_path, template, message):
        path = tmp_path / "stray.json"
        save_catalog(builtin_catalog("en-news"), path)
        path.write_text(path.read_text().replace("changed to {label}", template))
        with pytest.raises(CatalogError, match=f"stray.json: changed_to template .*{message}"):
            load_catalog(path)
