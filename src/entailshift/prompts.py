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

Built-in catalogs cover English and Spanish product-match labels and
English news relevance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .seeding import derive_seed

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
            if "{label}" not in template:
                raise CatalogError(f"{name} template must contain a {{label}} slot: {template!r}")
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


def randomize_labels(
    catalog: PromptCatalog,
    decoys: Sequence[str] = DEFAULT_DECOYS,
    seed: int = 0,
    shuffle: bool = False,
) -> PromptCatalog:
    """Replace every surface phrase with a semantics-free decoy word.

    By default the k-th label takes the k-th decoy, so the mapping is fixed
    and reproducible; with ``shuffle=True`` the assignment is permuted by
    ``seed``. Used to measure how much of a catalog's value comes from the
    label words themselves.
    """
    labels = catalog.labels
    if len(decoys) < len(labels):
        raise ValueError(f"need at least {len(labels)} decoys, got {len(decoys)}")
    if len(set(decoys)) != len(decoys):
        raise ValueError(f"decoys must be distinct, got {decoys!r}")
    chosen = list(decoys[: len(labels)])
    if shuffle:
        rng = np.random.default_rng(derive_seed(seed, "decoys", catalog.catalog_id))
        chosen = [chosen[i] for i in rng.permutation(len(chosen))]
    return replace(
        catalog,
        catalog_id=f"{catalog.catalog_id}+random",
        label_surface={label: decoy for label, decoy in zip(labels, chosen)},
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _catalog_from_payload(raw: Mapping[str, object], catalog_id: str) -> PromptCatalog:
    try:
        templates = raw["templates"]
        return PromptCatalog(
            catalog_id=catalog_id,
            language=str(raw["language"]),
            remained_template=str(templates["remained"]),  # type: ignore[index]
            changed_to_template=str(templates["changed_to"]),  # type: ignore[index]
            label_surface={str(k): str(v) for k, v in raw["label_surface"].items()},  # type: ignore[union-attr]
            suffix=str(raw.get("suffix", "")),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise CatalogError(f"catalog {catalog_id!r}: malformed payload ({exc!r})") from exc


def load_catalog(path: str | Path, catalog_id: str | None = None) -> PromptCatalog:
    """Load a catalog JSON file; the id defaults to the file stem."""
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CatalogError(f"{path}: not valid JSON: {exc}") from exc
    return _catalog_from_payload(raw, catalog_id or path.stem)


def save_catalog(catalog: PromptCatalog, path: str | Path) -> None:
    payload = {
        "language": catalog.language,
        "templates": {
            "remained": catalog.remained_template,
            "changed_to": catalog.changed_to_template,
        },
        "label_surface": dict(catalog.label_surface),
        "suffix": catalog.suffix,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2)
        f.write("\n")


def builtin_catalog(catalog_id: str) -> PromptCatalog:
    """One of the packaged catalogs: en-retail, es-retail, or en-news."""
    if catalog_id not in BUILTIN_CATALOG_IDS:
        raise CatalogError(
            f"unknown catalog {catalog_id!r}; built-ins: {', '.join(BUILTIN_CATALOG_IDS)}"
        )
    payload = resources.files("entailshift.catalogs").joinpath(f"{catalog_id}.json")
    raw = json.loads(payload.read_text(encoding="utf-8"))
    return _catalog_from_payload(raw, catalog_id)
