"""Reformulation of K-class classification as binary entailment.

Every K-class example becomes K binary samples: for each candidate label,
the label-transition prompt is concatenated with the example's text, and
the binary target says whether that candidate is the example's post-shift
label. So each source example yields one positive and K-1 negatives, and
a K-class dataset of n examples becomes K*n binary samples. Inference runs
the binary scorer over the same K candidate inputs and takes the argmax.

Optionally, one extra positive per source example is synthesized by
deleting a short random token span from the text, countering the 1:(K-1)
class imbalance of the construction.

The module also bridges to external scorers through flat files: augmented
samples export to JSONL, and per-candidate probabilities import back for
argmax evaluation without any in-process model.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Dataset, Example, LabelSet
from .model import SEPARATOR
from .prompts import PromptCatalog
from .seeding import derive_seed

# Maps an input text to the probability that its prompt holds for its text.
BinaryScorer = Callable[[str], float]


class ScoreCoverageError(ValueError):
    """A scores file is missing probabilities for some (id, candidate) pairs."""


@dataclass(frozen=True)
class EntailSample:
    """One binary entailment sample derived from a source example.

    ``candidate_index`` is 1-based: k in 1..K identifies the candidate label
    by its position in the label set. ``binary_label`` is 1 exactly when the
    candidate is the source's post-shift label.
    """

    source_id: str
    candidate_index: int
    input_text: str
    binary_label: int
    is_oversampled: bool = False

    def __post_init__(self) -> None:
        if self.candidate_index < 1:
            raise ValueError(f"candidate_index is 1-based, got {self.candidate_index}")
        if self.binary_label not in (0, 1):
            raise ValueError(f"binary_label must be 0 or 1, got {self.binary_label!r}")


@dataclass(frozen=True)
class AugmentedDataset:
    """The binary view of a dataset, plus the bookkeeping to invert it."""

    samples: tuple[EntailSample, ...]
    label_set: LabelSet
    catalog_id: str
    concat_mode: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.concat_mode not in ("single_segment", "two_segment"):
            raise ValueError(f"unknown concat_mode {self.concat_mode!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def n_positive(self) -> int:
        return sum(s.binary_label for s in self.samples)


def infer_concat_mode(examples: Iterable[Example]) -> str:
    """two_segment when every example has a second segment, single when none does."""
    has_b = [ex.text_b is not None for ex in examples]
    if not has_b:
        raise ValueError("cannot infer concat mode from an empty dataset")
    if all(has_b):
        return "two_segment"
    if not any(has_b):
        return "single_segment"
    raise ValueError(
        "mixed presence of text_b across examples; pass an explicit concat mode"
    )


def concat(prompt: str, example: Example, mode: str) -> str:
    """Join prompt and text segments with the literal " [SEP] " separator."""
    if mode == "two_segment":
        if example.text_b is None:
            raise ValueError(
                f"example {example.id!r} has no text_b; two_segment concat needs one"
            )
        return f"{example.text_a}{SEPARATOR}{prompt}{SEPARATOR}{example.text_b}"
    if mode == "single_segment":
        return f"{prompt}{SEPARATOR}{example.text_a}"
    raise ValueError(f"unknown concat mode {mode!r}")


def augment_example(
    example: Example,
    labels: LabelSet,
    catalog: PromptCatalog,
    mode: str,
) -> tuple[EntailSample, ...]:
    """The K binary samples for one example, in label-set order.

    Binary labels are one-hot at the post-shift label's position: K-1
    negatives and exactly 1 positive.
    """
    post_index = labels.index(example.post_label)
    samples = []
    for idx, label in enumerate(labels):
        prompt = catalog.render(label, pre_label=example.pre_label)
        samples.append(
            EntailSample(
                source_id=example.id,
                candidate_index=idx + 1,
                input_text=concat(prompt, example, mode),
                binary_label=int(idx == post_index),
            )
        )
    return tuple(samples)


def oversample_positive(
    sample: EntailSample,
    source: Example,
    deletion_frac: float = 0.05,
    seed: int = 0,
    mode: str | None = None,
) -> EntailSample:
    """A new positive built by deleting a short random token span.

    The deletion applies to the trailing text segment (the second segment
    when present, otherwise the only one): one contiguous span of
    max(1, round(deletion_frac * token_count)) whitespace tokens, at a
    seeded-uniform start, never removing the whole text. A single-token
    text comes back unmodified apart from the oversample flag.
    """
    if sample.binary_label != 1:
        raise ValueError(f"sample ({sample.source_id!r}, k={sample.candidate_index}) is not a positive")
    if mode is None:
        mode = "two_segment" if source.text_b is not None else "single_segment"

    target = source.text_b if mode == "two_segment" else source.text_a
    assert target is not None
    tokens = target.split()
    if len(tokens) <= 1:
        return replace(sample, is_oversampled=True)

    span = max(1, round(deletion_frac * len(tokens)))
    span = min(span, len(tokens) - 1)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(tokens) - span + 1))
    kept = " ".join(tokens[:start] + tokens[start + span:])

    # Recover the prompt by peeling the known segments off the input text;
    # splitting on the separator would misparse texts containing "[SEP]".
    if mode == "two_segment":
        prefix = f"{source.text_a}{SEPARATOR}"
        suffix = f"{SEPARATOR}{source.text_b}"
        prompt = sample.input_text[len(prefix):len(sample.input_text) - len(suffix)]
        deleted = concat(prompt, replace(source, text_b=kept), mode)
    else:
        suffix = f"{SEPARATOR}{source.text_a}"
        prompt = sample.input_text[: len(sample.input_text) - len(suffix)]
        deleted = concat(prompt, replace(source, text_a=kept), mode)
    return replace(sample, input_text=deleted, is_oversampled=True)


def augment_dataset(
    dataset: Dataset,
    catalog: PromptCatalog,
    mode: str | None = None,
    oversample: bool = True,
    deletion_frac: float = 0.05,
    seed: int = 0,
) -> AugmentedDataset:
    """Reformulate a whole dataset; K*n samples, (K+1)*n with oversampling.

    The per-example oversample stream is keyed on (seed, example id), so the
    output does not depend on dataset order beyond the order of the samples
    themselves.
    """
    if len(dataset) == 0:
        raise ValueError("cannot augment an empty dataset")
    labels = dataset.post_labels
    if mode is None:
        mode = infer_concat_mode(dataset)
    out: list[EntailSample] = []
    for example in dataset:
        per_example = augment_example(example, labels, catalog, mode)
        out.extend(per_example)
        if oversample:
            positive = per_example[labels.index(example.post_label)]
            out.append(
                oversample_positive(
                    positive,
                    example,
                    deletion_frac=deletion_frac,
                    seed=derive_seed(seed, "oversample", example.id),
                    mode=mode,
                )
            )
    return AugmentedDataset(
        samples=tuple(out),
        label_set=labels,
        catalog_id=catalog.catalog_id,
        concat_mode=mode,
    )


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _checked_probability(value: float, context: str) -> float:
    prob = float(value)
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"scorer returned {prob!r} for {context}; probabilities must be in [0, 1]")
    return prob


def predict_label(
    scorer: BinaryScorer,
    example: Example,
    labels: LabelSet,
    catalog: PromptCatalog,
    mode: str,
) -> str:
    """Argmax over the K per-candidate probabilities; ties take the lowest index."""
    best_index = 0
    best_score = -1.0
    for idx, label in enumerate(labels):
        prompt = catalog.render(label, pre_label=example.pre_label)
        score = _checked_probability(
            scorer(concat(prompt, example, mode)),
            context=f"example {example.id!r}, candidate {label!r}",
        )
        if score > best_score:
            best_index, best_score = idx, score
    return labels.labels[best_index]


def predict_dataset(
    scorer: BinaryScorer,
    dataset: Dataset,
    catalog: PromptCatalog,
    mode: str | None = None,
) -> dict[str, str]:
    """Predictions for every example, as a mapping id -> label."""
    if mode is None:
        mode = infer_concat_mode(dataset)
    return {
        ex.id: predict_label(scorer, ex, dataset.post_labels, catalog, mode)
        for ex in dataset
    }


# ---------------------------------------------------------------------------
# File bridge for external scorers
# ---------------------------------------------------------------------------


def export_augmented(aug: AugmentedDataset, path: str | Path) -> None:
    """One JSONL row per sample, in dataset order."""
    with open(path, "w", encoding="utf-8") as f:
        for s in aug.samples:
            row = {
                "source_id": s.source_id,
                "candidate_index": s.candidate_index,
                "input_text": s.input_text,
                "binary_label": s.binary_label,
                "is_oversampled": s.is_oversampled,
            }
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def import_augmented(path: str | Path) -> tuple[EntailSample, ...]:
    """Inverse of export_augmented, minus the dataset-level bookkeeping."""
    samples = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                samples.append(
                    EntailSample(
                        source_id=str(row["source_id"]),
                        candidate_index=int(row["candidate_index"]),
                        input_text=str(row["input_text"]),
                        binary_label=int(row["binary_label"]),
                        is_oversampled=bool(row["is_oversampled"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return tuple(samples)


def export_scores(
    scores: Mapping[tuple[str, int], float], path: str | Path
) -> None:
    """One JSONL row per (source_id, candidate_index) probability."""
    with open(path, "w", encoding="utf-8") as f:
        for (source_id, k), prob in scores.items():
            row = {"source_id": source_id, "candidate_index": k, "probability": prob}
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def import_scores(path: str | Path) -> dict[tuple[str, int], float]:
    """Per-candidate probabilities keyed by (source_id, candidate_index).

    A malformed row or a second row for the same key is a ValueError that
    names the file and the line(s).
    """
    scores: dict[tuple[str, int], float] = {}
    first_line: dict[tuple[str, int], int] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                key = (str(row["source_id"]), int(row["candidate_index"]))
                prob = _checked_probability(row["probability"], context=repr(key))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            if key in first_line:
                raise ValueError(
                    f"{path}: line {line_no}: duplicate row for {key!r}, "
                    f"first given on line {first_line[key]}"
                )
            scores[key] = prob
            first_line[key] = line_no
    return scores


def predict_from_scores(
    scores: Mapping[tuple[str, int], float],
    examples: Sequence[Example],
    labels: LabelSet,
) -> dict[str, str]:
    """Argmax evaluation from externally produced probabilities.

    Every (example, candidate) pair must be covered; gaps raise
    :class:`ScoreCoverageError` listing all of them.
    """
    gaps = [
        (ex.id, k)
        for ex in examples
        for k in range(1, len(labels) + 1)
        if (ex.id, k) not in scores
    ]
    if gaps:
        listing = ", ".join(f"({i!r}, k={k})" for i, k in gaps)
        raise ScoreCoverageError(f"scores missing for: {listing}")

    predictions: dict[str, str] = {}
    for ex in examples:
        best_index = 0
        best_score = -1.0
        for idx in range(len(labels)):
            score = scores[(ex.id, idx + 1)]
            if score > best_score:
                best_index, best_score = idx, score
        predictions[ex.id] = labels.labels[best_index]
    return predictions
