"""Dataset types and operations: loading, shift simulation, sampling, splitting.

A dataset carries one record per classified text item, with the gold label
under both the old and the new labeling concept. Label sets are ordered; the
position of a label in its set defines the label index used everywhere else
in the toolkit (candidate ordering, tie-breaking, report columns).

File formats
------------
JSONL, one record per line::

    {"id": str, "text_a": str, "text_b": str|null, "pre_label": str,
     "post_label": str, "lang": str, "topic": str|null}

CSV with the same column names (empty cell = null). Either format is
accompanied by a sidecar labels file (``<data file>.labels.json``)::

    {"pre_labels": [...], "post_labels": [...], "name": "..."}
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .seeding import derive_seed

RECORD_FIELDS = ("id", "text_a", "text_b", "pre_label", "post_label", "lang", "topic")
_REQUIRED_FIELDS = ("id", "text_a", "pre_label", "post_label")


class DatasetError(ValueError):
    """Malformed dataset file, record, label declaration or shift rule file."""


class ShiftCoverageError(ValueError):
    """A (topic, pre_label) pair observed in the data has no shift rule."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of distinct class labels; position defines the label index."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValueError(f"a label set needs at least 2 labels, got {self.labels!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels

    def index(self, label: str) -> int:
        """0-based index of ``label``; raises ValueError for unknown labels."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in label set {self.labels!r}") from None


@dataclass(frozen=True)
class Example:
    """One classified text item with its gold label under both concepts.

    ``text_b`` is the second segment for two-segment tasks (e.g. a product
    title paired with a query) and is absent for single-segment tasks.
    ``topic`` records the source topic used by synthetic shift rules.
    """

    id: str
    text_a: str
    pre_label: str
    post_label: str
    text_b: str | None = None
    lang: str = "en"
    topic: str | None = None

    def __post_init__(self) -> None:
        if not self.text_a:
            raise ValueError(f"example {self.id!r}: text_a must be non-empty")


@dataclass(frozen=True)
class Dataset:
    """Immutable sequence of examples plus the declared pre/post label sets."""

    examples: tuple[Example, ...]
    pre_labels: LabelSet
    post_labels: LabelSet
    name: str = "dataset"

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        for ex in self.examples:
            if ex.pre_label not in self.pre_labels:
                raise DatasetError(
                    f"example {ex.id!r}: pre_label {ex.pre_label!r} not in declared "
                    f"pre label set {self.pre_labels.labels!r}"
                )
            if ex.post_label not in self.post_labels:
                raise DatasetError(
                    f"example {ex.id!r}: post_label {ex.post_label!r} not in declared "
                    f"post label set {self.post_labels.labels!r}"
                )

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def post_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in self.post_labels}
        for ex in self.examples:
            counts[ex.post_label] += 1
        return counts

    def by_post_label(self) -> dict[str, list[Example]]:
        groups: dict[str, list[Example]] = {label: [] for label in self.post_labels}
        for ex in self.examples:
            groups[ex.post_label].append(ex)
        return groups


@dataclass(frozen=True)
class ShiftSpec:
    """Relabeling rules mapping (topic, pre_label) to the post-shift label.

    ``default`` applies to pairs without an explicit rule; with no default,
    an uncovered pair is an error at application time.
    """

    rules: Mapping[tuple[str | None, str], str]
    default: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", dict(self.rules))

    def lookup(self, topic: str | None, pre_label: str) -> str:
        post = self.rules.get((topic, pre_label))
        if post is None:
            post = self.default
        if post is None:
            raise ShiftCoverageError(
                f"no shift rule for (topic={topic!r}, pre_label={pre_label!r}) and no default"
            )
        return post

    @classmethod
    def from_file(cls, path: str | Path) -> "ShiftSpec":
        """A rule file; invalid JSON or a malformed rule is a DatasetError naming the file."""
        with open(path, encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DatasetError(f"{path}: not valid JSON: {exc}") from exc
        try:
            rules = {}
            for rule in raw.get("rules", []):
                rules[(rule.get("topic"), rule["pre_label"])] = rule["post_label"]
            return cls(rules=rules, default=raw.get("default"))
        except (AttributeError, KeyError, TypeError) as exc:
            raise DatasetError(f"{path}: malformed shift rules ({exc!r})") from exc

    def to_file(self, path: str | Path) -> None:
        rows = [
            {"topic": topic, "pre_label": pre, "post_label": post}
            for (topic, pre), post in self.rules.items()
        ]
        payload = {"rules": rows, "default": self.default}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, ensure_ascii=False, indent=2)
            f.write("\n")


# ---------------------------------------------------------------------------
# Loading and saving
# ---------------------------------------------------------------------------


def _labels_sidecar_path(path: Path) -> Path:
    return Path(str(path) + ".labels.json")


def _read_labels(labels_file: Path, data_path: Path) -> tuple[LabelSet, LabelSet, str]:
    """(pre, post, name) from a labels file.

    A missing file, invalid JSON, a value that is not an object, a missing
    key or a key that is not a valid label list is a DatasetError naming
    the file.
    """
    if not labels_file.exists():
        raise DatasetError(
            f"label sets undeclared: expected labels file {labels_file} with "
            '{"pre_labels": [...], "post_labels": [...]}'
        )
    with open(labels_file, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetError(f"{labels_file}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"{labels_file}: expected a JSON object, got {type(raw).__name__}")
    label_sets = []
    for key in ("pre_labels", "post_labels"):
        if key not in raw:
            raise DatasetError(f"{labels_file}: missing key {key!r}")
        value = raw[key]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise DatasetError(f"{labels_file}: {key!r} must be a list of label strings")
        try:
            label_sets.append(LabelSet(tuple(value)))
        except ValueError as exc:
            raise DatasetError(f"{labels_file}: {key!r}: {exc}") from exc
    name = raw.get("name") or data_path.stem
    return label_sets[0], label_sets[1], name


def _record_to_example(record: Mapping[str, object], line: int) -> Example:
    for fname in _REQUIRED_FIELDS:
        value = record.get(fname)
        if value is None or value == "":
            raise DatasetError(f"line {line}: missing or empty field {fname!r}")
    text_b = record.get("text_b") or None
    topic = record.get("topic") or None
    lang = record.get("lang") or "en"
    try:
        return Example(
            id=str(record["id"]),
            text_a=str(record["text_a"]),
            text_b=None if text_b is None else str(text_b),
            pre_label=str(record["pre_label"]),
            post_label=str(record["post_label"]),
            lang=str(lang),
            topic=None if topic is None else str(topic),
        )
    except ValueError as exc:
        raise DatasetError(f"line {line}: {exc}") from exc


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"unsupported format {fmt!r}, expected 'jsonl' or 'csv'")
        return fmt
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise ValueError(f"cannot infer format from {path.name!r}; pass format='jsonl' or 'csv'")


def load_dataset(
    path: str | Path,
    format: str | None = None,
    labels_path: str | Path | None = None,
) -> Dataset:
    """Load a dataset file; record order is preserved.

    Label sets come from the sidecar labels file (``labels_path`` or
    ``<path>.labels.json``). Unknown record fields are ignored. Malformed
    records raise :class:`DatasetError` naming the line number and field;
    a label outside the declared sets raises naming the label.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    fmt = _infer_format(path, format)
    labels_file = _labels_sidecar_path(path) if labels_path is None else Path(labels_path)
    pre, post, name = _read_labels(labels_file, path)

    examples: list[Example] = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"line {line_no}: invalid JSON: {exc.msg}") from exc
                if not isinstance(record, dict):
                    raise DatasetError(f"line {line_no}: record is not a JSON object")
                examples.append(_record_to_example(record, line_no))
    else:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            header = reader.fieldnames or []
            for fname in _REQUIRED_FIELDS:
                if fname not in header:
                    raise DatasetError(f"line 1: missing column {fname!r}")
            for line_no, row in enumerate(reader, start=2):
                examples.append(_record_to_example(row, line_no))

    return Dataset(examples=tuple(examples), pre_labels=pre, post_labels=post, name=name)


def save_dataset(dataset: Dataset, path: str | Path, format: str | None = None) -> None:
    """Write a dataset plus its sidecar labels file."""
    path = Path(path)
    fmt = _infer_format(path, format)
    rows = [
        {
            "id": ex.id,
            "text_a": ex.text_a,
            "text_b": ex.text_b,
            "pre_label": ex.pre_label,
            "post_label": ex.post_label,
            "lang": ex.lang,
            "topic": ex.topic,
        }
        for ex in dataset
    ]
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(RECORD_FIELDS))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    sidecar = {
        "pre_labels": list(dataset.pre_labels),
        "post_labels": list(dataset.post_labels),
        "name": dataset.name,
    }
    with open(_labels_sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, ensure_ascii=False, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Shift simulation
# ---------------------------------------------------------------------------


def apply_shift(dataset: Dataset, spec: ShiftSpec) -> Dataset:
    """Relabel every example's post_label through the shift spec.

    Pre labels, ids, texts, and example order are untouched. Raises
    :class:`ShiftCoverageError` listing every uncovered (topic, pre_label)
    pair before touching anything.
    """
    uncovered: list[tuple[str | None, str]] = []
    seen: set[tuple[str | None, str]] = set()
    for ex in dataset:
        pair = (ex.topic, ex.pre_label)
        if pair in seen:
            continue
        seen.add(pair)
        if pair not in spec.rules and spec.default is None:
            uncovered.append(pair)
    if uncovered:
        pairs = ", ".join(f"(topic={t!r}, pre_label={l!r})" for t, l in sorted(
            uncovered, key=lambda p: (p[0] or "", p[1])))
        raise ShiftCoverageError(f"shift spec does not cover: {pairs}")

    shifted = tuple(
        replace(ex, post_label=spec.lookup(ex.topic, ex.pre_label)) for ex in dataset
    )
    return Dataset(
        examples=shifted,
        pre_labels=dataset.pre_labels,
        post_labels=dataset.post_labels,
        name=dataset.name,
    )


# ---------------------------------------------------------------------------
# Sampling, splitting, rebalancing
# ---------------------------------------------------------------------------


def _apportion(counts: Sequence[int], n: int) -> list[int]:
    """Largest-remainder allocation of ``n`` slots proportional to ``counts``.

    Ties break by class index. Non-empty classes are bumped to at least one
    slot when n allows, and no class is allocated beyond its count.
    """
    total = sum(counts)
    if n > total:
        raise ValueError(f"cannot allocate {n} slots over {total} items")
    quotas = [n * c / total for c in counts]
    alloc = [min(int(q), c) for q, c in zip(quotas, counts)]
    # Hand out remaining slots by largest fractional remainder.
    remaining = n - sum(alloc)
    while remaining > 0:
        order = sorted(
            (i for i in range(len(counts)) if alloc[i] < counts[i]),
            key=lambda i: (-(quotas[i] - int(quotas[i])), i),
        )
        for i in order:
            if remaining == 0:
                break
            alloc[i] += 1
            remaining -= 1
    # Guarantee one slot per non-empty class when the budget allows it.
    nonempty = [i for i, c in enumerate(counts) if c > 0]
    if n >= len(nonempty):
        for i in nonempty:
            if alloc[i] > 0:
                continue
            donor = max(
                (j for j in range(len(counts)) if alloc[j] > 1),
                key=lambda j: (alloc[j], -j),
            )
            alloc[donor] -= 1
            alloc[i] += 1
    return alloc


def _class_permutation(examples: Sequence[Example], seed: int, label: str) -> list[Example]:
    # Keyed on (seed, label) only, so a larger budget extends the same
    # per-class prefix instead of reshuffling it.
    rng = np.random.default_rng(derive_seed(seed, "class", label))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


def fewshot_sample(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Sample ``n`` examples without replacement, stratified by post label.

    Class budgets follow largest-remainder apportionment with at least one
    example per non-empty class whenever n covers them all. For the same
    seed, a larger budget is a superset of a smaller one. When n is below
    the number of non-empty classes, stratification is impossible; a plain
    random sample is drawn and a warning issued.
    """
    if not 1 <= n <= len(dataset):
        raise ValueError(f"n must be in [1, {len(dataset)}], got {n}")
    groups = dataset.by_post_label()
    nonempty = [label for label in dataset.post_labels if groups[label]]
    if n < len(nonempty):
        warnings.warn(
            f"n={n} is below the number of non-empty classes ({len(nonempty)}); "
            "falling back to a plain random sample",
            stacklevel=2,
        )
        rng = np.random.default_rng(derive_seed(seed, "plain"))
        order = rng.permutation(len(dataset))
        chosen = [dataset.examples[i] for i in order[:n]]
        return replace(dataset, examples=tuple(chosen))

    counts = [len(groups[label]) for label in dataset.post_labels]
    alloc = _apportion(counts, n)
    chosen: list[Example] = []
    for label, take in zip(dataset.post_labels, alloc):
        if take == 0:
            continue
        chosen.extend(_class_permutation(groups[label], seed, label)[:take])
    return replace(dataset, examples=tuple(chosen))


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint stratified train/test partition, deterministic given seed.

    A class with a single example goes entirely to train (with a warning);
    every class keeps at least one training example.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    groups = dataset.by_post_label()
    train: list[Example] = []
    test: list[Example] = []
    for label in dataset.post_labels:
        members = groups[label]
        if not members:
            continue
        if len(members) == 1:
            warnings.warn(
                f"class {label!r} has a single example; assigning it to train",
                stacklevel=2,
            )
            train.extend(members)
            continue
        n_test = int(len(members) * test_fraction + 0.5)
        n_test = min(n_test, len(members) - 1)
        shuffled = _class_permutation(members, derive_seed(seed, "split"), label)
        test.extend(shuffled[:n_test])
        train.extend(shuffled[n_test:])
    return (
        replace(dataset, examples=tuple(train)),
        replace(dataset, examples=tuple(test)),
    )


def rebalance(dataset: Dataset, seed: int) -> Dataset:
    """Downsample every post-label class to the minimum class count."""
    groups = dataset.by_post_label()
    empty = [label for label in dataset.post_labels if not groups[label]]
    if empty:
        raise ValueError(f"cannot rebalance: empty post-label classes {empty!r}")
    floor = min(len(members) for members in groups.values())
    chosen: list[Example] = []
    for label in dataset.post_labels:
        chosen.extend(_class_permutation(groups[label], derive_seed(seed, "rebalance"), label)[:floor])
    return replace(dataset, examples=tuple(chosen))
