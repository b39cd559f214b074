"""Reformulation of K-class classification as binary entailment.

Every K-class example becomes K binary samples: for each candidate label,
the label-transition prompt is paired with the example's text, and the
binary target says whether that candidate is the example's post-shift
label. So each source example yields one positive and K-1 negatives, and
a K-class dataset of n examples becomes K*n binary samples. Inference runs
the binary scorer over the same K candidates and takes the argmax; a scorer
takes a batch of candidates, and in-process and file-bridged prediction
share one argmax, ``predict_from_scores``.

A candidate keeps its input as segments ``(prompt, *contents)``, which go
to the featurizer unchanged; the " [SEP] " string (``text_a [SEP] prompt
[SEP] text_b`` or ``prompt [SEP] text_a``) is rendered only for the export
file and for scorers that read ``Candidate.input_text``.

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
from .prompts import PromptCatalog
from .seeding import derive_seed

SEPARATOR = " [SEP] "


class ScoreCoverageError(ValueError):
    """A scores file does not hold exactly one probability per (id, candidate) pair."""


def _render_segments(segments: Sequence[str]) -> str:
    """The " [SEP] "-joined text of ``(prompt, *contents)``.

    One content segment renders prompt-first, ``prompt [SEP] text_a``; more
    put the prompt between the first two, ``text_a [SEP] prompt [SEP] text_b``.
    """
    prompt, *contents = segments
    ordered = [contents[0], prompt, *contents[1:]] if len(contents) > 1 else [prompt, *contents]
    return SEPARATOR.join(ordered)


@dataclass(frozen=True)
class Candidate:
    """One (example, candidate label) input to a binary scorer.

    ``candidate_index`` is 1-based: k in 1..K identifies the candidate label
    by its position in the label set. ``segments`` is ``(prompt, *contents)``.
    """

    source_id: str
    candidate_index: int
    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.candidate_index < 1:
            raise ValueError(f"candidate_index is 1-based, got {self.candidate_index}")
        if len(self.segments) < 2 or not all(isinstance(seg, str) for seg in self.segments):
            raise ValueError(
                f"segments must be a prompt and at least one content string, got {self.segments!r}"
            )

    @property
    def input_text(self) -> str:
        return _render_segments(self.segments)


# Maps a batch of candidates to the probability, per candidate and in order,
# that its prompt holds for its text. A text scorer plugs in as
# ``lambda cs: [f(c.input_text) for c in cs]``.
BinaryScorer = Callable[[Sequence[Candidate]], Sequence[float]]


@dataclass(frozen=True)
class EntailSample(Candidate):
    """A candidate with its binary target, derived from a source example.

    ``binary_label`` is 1 exactly when the candidate is the source's
    post-shift label.
    """

    binary_label: int
    is_oversampled: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
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


def _candidate_segments(prompt: str, example: Example, mode: str) -> tuple[str, ...]:
    """``(prompt, text_a, text_b)`` in two_segment mode, ``(prompt, text_a)`` in single."""
    if mode == "two_segment":
        if example.text_b is None:
            raise ValueError(
                f"example {example.id!r} has no text_b; two_segment concat needs one"
            )
        return (prompt, example.text_a, example.text_b)
    if mode == "single_segment":
        return (prompt, example.text_a)
    raise ValueError(f"unknown concat mode {mode!r}")


def candidates(
    example: Example, labels: LabelSet, catalog: PromptCatalog, mode: str
) -> tuple[Candidate, ...]:
    """The K candidate inputs of one example, in label-set order."""
    return tuple(
        Candidate(
            example.id,
            k,
            _candidate_segments(catalog.render(label, pre_label=example.pre_label), example, mode),
        )
        for k, label in enumerate(labels, start=1)
    )


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
    positive = labels.index(example.post_label) + 1
    return tuple(
        EntailSample(c.source_id, c.candidate_index, c.segments,
                     binary_label=int(c.candidate_index == positive))
        for c in candidates(example, labels, catalog, mode)
    )


def oversample_positive(
    sample: EntailSample,
    deletion_frac: float = 0.05,
    seed: int = 0,
) -> EntailSample:
    """A new positive built by deleting a short random token span.

    The deletion applies to the trailing text segment (``text_b`` when
    present, otherwise ``text_a``): one contiguous span of
    max(1, round(deletion_frac * token_count)) whitespace tokens, at a
    seeded-uniform start, never removing the whole text. A single-token
    text comes back unmodified apart from the oversample flag.
    """
    if sample.binary_label != 1:
        raise ValueError(f"sample ({sample.source_id!r}, k={sample.candidate_index}) is not a positive")
    tokens = sample.segments[-1].split()
    if len(tokens) <= 1:
        return replace(sample, is_oversampled=True)

    span = max(1, round(deletion_frac * len(tokens)))
    span = min(span, len(tokens) - 1)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(tokens) - span + 1))
    kept = " ".join(tokens[:start] + tokens[start + span:])
    return replace(sample, segments=(*sample.segments[:-1], kept), is_oversampled=True)


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
                    deletion_frac=deletion_frac,
                    seed=derive_seed(seed, "oversample", example.id),
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


# Candidates per scorer call: scoring a whole test set in one call grows the
# heap by megabytes without a measurable speed gain over batches this size.
_SCORE_BATCH = 64


def predict_dataset(
    scorer: BinaryScorer,
    dataset: Dataset,
    catalog: PromptCatalog,
    mode: str | None = None,
) -> dict[str, str]:
    """Predictions for every example, as a mapping id -> label.

    The scorer sees every candidate once, in order, in batches of at most
    ``_SCORE_BATCH``; its probabilities go through ``predict_from_scores``,
    so ties take the lowest candidate index.
    """
    if mode is None:
        mode = infer_concat_mode(dataset)
    labels = dataset.post_labels
    pending = [c for ex in dataset for c in candidates(ex, labels, catalog, mode)]
    scores: dict[tuple[str, int], float] = {}
    for start in range(0, len(pending), _SCORE_BATCH):
        batch = pending[start : start + _SCORE_BATCH]
        probs = np.asarray(scorer(batch), dtype=np.float64)
        if probs.shape != (len(batch),):
            raise ValueError(
                f"scorer returned {probs.size} scores for {len(batch)} candidates; "
                "a scorer maps a batch of candidates to one probability each"
            )
        scores.update(((c.source_id, c.candidate_index), p) for c, p in zip(batch, probs.tolist()))
    return predict_from_scores(scores, dataset.examples, labels)


# ---------------------------------------------------------------------------
# File bridge for external scorers
# ---------------------------------------------------------------------------


def export_augmented(aug: AugmentedDataset, path: str | Path) -> None:
    """One JSONL row per sample, in dataset order, with segments and rendered text."""
    with open(path, "w", encoding="utf-8") as f:
        for s in aug.samples:
            row = {
                "source_id": s.source_id,
                "candidate_index": s.candidate_index,
                "input_text": s.input_text,
                "segments": list(s.segments),
                "binary_label": s.binary_label,
                "is_oversampled": s.is_oversampled,
            }
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def import_augmented(path: str | Path) -> tuple[EntailSample, ...]:
    """Inverse of export_augmented, minus the dataset-level bookkeeping.

    Samples are rebuilt from ``segments``; a row whose ``input_text`` is not
    the rendering of its segments is a ValueError naming the file and line.
    """
    samples = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row["segments"], list):
                    raise ValueError(f"segments must be a list, got {row['segments']!r}")
                sample = EntailSample(
                    source_id=str(row["source_id"]),
                    candidate_index=int(row["candidate_index"]),
                    segments=row["segments"],
                    binary_label=int(row["binary_label"]),
                    is_oversampled=bool(row["is_oversampled"]),
                )
                if row["input_text"] != sample.input_text:
                    raise ValueError(
                        f"input_text {row['input_text']!r} is not the rendering "
                        f"{sample.input_text!r} of its segments"
                    )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            samples.append(sample)
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
    """Argmax over each example's K candidate probabilities; ties take the first.

    The keys must be exactly the (example id, candidate index) pairs: gaps,
    and rows for unknown ids or out-of-range candidate indices, raise
    :class:`ScoreCoverageError` listing every one of them. A value that is
    not a probability in [0, 1] (NaN included) raises ValueError naming its
    pair.
    """
    indices = range(1, len(labels) + 1)
    expected = [(ex.id, k) for ex in examples for k in indices]
    known = set(expected)
    gaps = [key for key in expected if key not in scores]
    unexpected = [key for key in scores if key not in known]
    if gaps or unexpected:
        problems = [
            f"{what}: " + ", ".join(f"({i!r}, k={k})" for i, k in keys)
            for what, keys in (("scores missing for", gaps), ("unexpected scores for", unexpected))
            if keys
        ]
        raise ScoreCoverageError("; ".join(problems))
    probs = np.array(
        [_checked_probability(scores[key], context=f"({key[0]!r}, k={key[1]})") for key in expected]
    ).reshape(len(examples), len(labels))
    return {ex.id: labels.labels[k] for ex, k in zip(examples, probs.argmax(axis=1))}
