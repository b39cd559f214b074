"""Label-transition prompt catalogs.

A catalog turns a candidate post-shift label into a short natural-language
prompt describing the label transition relative to the example's pre-shift
label: one template for "the label stayed the same" and one for "the label
changed to X". Each label maps to a surface phrase (possibly multi-word,
possibly in another language), and an optional suffix closes every prompt.

Catalog JSON format::

    {"language": "en",
     "templates": {"remained": "remained {label}", "changed_to": "changed to {label}"},
     "label_surface": {"exact": "exact", ...},
     "suffix": "match"}

Every field is a JSON string, and ``suffix`` may be left out (no suffix).
Built-in catalogs cover English and Spanish product-match labels and
English news relevance; they are packaged catalog files and load as any
other catalog file does.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Mapping

from .jsonfiles import read_json, typed_field, write_json

BUILTIN_CATALOG_IDS = ("en-retail", "es-retail", "en-news")

# Semantics-free stand-in words for prompt ablations. The first K are used
# when a catalog with K labels is randomized.
DEFAULT_DECOYS = ("cat", "lion", "zebra", "dog", "fox", "owl", "elk", "bee")


class CatalogError(ValueError):
    """Malformed or internally inconsistent prompt catalog."""


@dataclass(frozen=True)
class PromptCatalog:
    """Templates plus per-label surface phrases; label order is meaningful."""

    catalog_id: str
    language: str
    remained_template: str
    changed_to_template: str
    label_surface: Mapping[str, str]
    suffix: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_surface", dict(self.label_surface))
        for name, template in (
            ("remained", self.remained_template),
            ("changed_to", self.changed_to_template),
        ):
            try:
                fields = {f[1:] for f in string.Formatter().parse(template) if f[1] is not None}
            except ValueError as exc:
                raise CatalogError(f"{name} template {template!r} is malformed: {exc}") from None
            if fields != {("label", "", None)}:
                raise CatalogError(
                    f"{name} template must contain a {{label}} slot and no other field: {template!r}")
        if not self.label_surface:
            raise CatalogError("label_surface must not be empty")
        for label, surface in self.label_surface.items():
            if not surface or not surface.strip():
                raise CatalogError(f"label {label!r} has an empty surface phrase")
        rendered = [self.render(k, pre_label=k) for k in self.label_surface]
        rendered += [self.render(k, pre_label=None) for k in self.label_surface]
        if len(set(rendered)) != len(rendered):
            raise CatalogError(
                f"catalog {self.catalog_id!r} renders colliding prompts; all "
                "remained/changed-to prompts must be pairwise distinct"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.label_surface)

    def render(self, candidate_label: str, pre_label: str | None) -> str:
        """Prompt for one candidate label, given the example's pre-shift label.

        The "remained" wording applies exactly when the candidate equals the
        pre-shift label; any other candidate (or an unknown pre-shift label)
        reads as a change.
        """
        try:
            surface = self.label_surface[candidate_label]
        except KeyError:
            raise CatalogError(
                f"label {candidate_label!r} not in catalog {self.catalog_id!r} "
                f"(has {list(self.label_surface)!r})"
            ) from None
        template = (
            self.remained_template if candidate_label == pre_label else self.changed_to_template
        )
        prompt = template.format(label=surface)
        if self.suffix:
            prompt = f"{prompt} {self.suffix}"
        return prompt


def randomize_labels(catalog: PromptCatalog) -> PromptCatalog:
    """Replace every surface phrase with a semantics-free decoy word.

    The k-th label takes the k-th of :data:`DEFAULT_DECOYS`, so the mapping
    is fixed and reproducible. Used to measure how much of a catalog's value
    comes from the label words themselves.
    """
    labels = catalog.labels
    if len(DEFAULT_DECOYS) < len(labels):
        raise ValueError(f"need at least {len(labels)} decoys, got {len(DEFAULT_DECOYS)}")
    return replace(
        catalog,
        catalog_id=f"{catalog.catalog_id}+random",
        label_surface=dict(zip(labels, DEFAULT_DECOYS)),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def load_catalog(path: str | Path) -> PromptCatalog:
    """Load a catalog JSON file; its id is the file stem. Errors name the file,
    and a missing or mistyped field names the field."""
    path = Path(path)
    raw = read_json(path, CatalogError)
    try:
        templates = typed_field(raw, "templates", dict)
        surfaces = typed_field(raw, "label_surface", dict)
        return PromptCatalog(
            catalog_id=path.stem,
            language=typed_field(raw, "language", str),
            remained_template=typed_field(templates, "remained", str),
            changed_to_template=typed_field(templates, "changed_to", str),
            label_surface={label: typed_field(surfaces, label, str) for label in surfaces},
            suffix=typed_field(raw, "suffix", str) if "suffix" in raw else "",
        )
    except (KeyError, TypeError) as exc:
        raise CatalogError(f"{path}: catalog {path.stem!r}: malformed payload ({exc!r})") from exc
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc


def save_catalog(catalog: PromptCatalog, path: str | Path) -> None:
    write_json(path, {
        "language": catalog.language,
        "templates": {
            "remained": catalog.remained_template,
            "changed_to": catalog.changed_to_template,
        },
        "label_surface": dict(catalog.label_surface),
        "suffix": catalog.suffix,
    })


def builtin_catalog(catalog_id: str) -> PromptCatalog:
    """One of the packaged catalogs: en-retail, es-retail, or en-news."""
    if catalog_id not in BUILTIN_CATALOG_IDS:
        raise CatalogError(
            f"unknown catalog {catalog_id!r}; built-ins: {', '.join(BUILTIN_CATALOG_IDS)}"
        )
    with resources.as_file(resources.files("entailshift.catalogs") / f"{catalog_id}.json") as path:
        return load_catalog(path)
