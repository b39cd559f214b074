"""The comparison methods, behind one uniform interface.

Every method consumes a pre-shift training set, a (possibly few-shot)
post-shift training set, and a test set, and returns one predicted
post-shift label per test id:

- majority: the most frequent post-shift training label, for everything.
- pre_shift_only: a multiclass model trained on pre-shift labels only;
  what you get if you never adapt.
- finetuned: the pre-shift model warm-started and trained further on the
  post-shift data.
- finetuned_post_only: a fresh multiclass model trained on the post-shift
  data alone.
- l1l2: a fresh multiclass model trained on the sum of cross-entropies
  against the pre-shift and post-shift labels jointly.
- entail: the binary reformulation: augment the post-shift data into
  label-transition entailment samples, train a fresh binary head, and
  predict by argmax over per-candidate probabilities. The ``random``
  prompt variant swaps every label surface for a semantics-free decoy
  word, isolating how much the label wording contributes.

The four multiclass kinds are one softmax head trained by one helper on
different rows and label columns (the ``_MULTICLASS`` table). Their heads
always span the post-shift label set; pre-shift target labels are mapped
into it, which is what lets a pre-shift head be fine-tuned on post-shift
classes without surgery. ``finetuned``'s pre-shift stage is the
``pre_shift_only`` model, trained with the same ``train_config``; an empty
pre-shift set skips it, reducing ``finetuned`` to ``finetuned_post_only``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .corpus import Dataset, Example, LabelSet
from .model import (
    FeaturizerConfig,
    Model,
    TrainConfig,
    featurize,
    make_binary_scorer,
    train,
    train_joint,
)
from .prompts import (
    BUILTIN_CATALOG_IDS,
    DEFAULT_DECOYS,
    PromptCatalog,
    builtin_catalog,
    load_catalog,
    randomize_labels,
)
from .reformulate import augment_dataset, infer_concat_mode, predict_dataset
from .seeding import derive_seed

METHOD_KINDS = (
    "majority",
    "pre_shift_only",
    "finetuned",
    "finetuned_post_only",
    "l1l2",
    "entail",
)


@dataclass(frozen=True)
class MethodSpec:
    """One comparison method plus everything needed to run it."""

    kind: str
    prompt_variant: str = "informative"        # entail only
    catalog_id: str = ""                       # entail only
    train_config: TrainConfig = field(default_factory=TrainConfig)
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    oversample: bool = True                    # entail only
    concat_mode: str | None = None             # None = infer from the data

    def __post_init__(self) -> None:
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; one of {METHOD_KINDS}")
        if self.prompt_variant not in ("informative", "random"):
            raise ValueError(f"unknown prompt variant {self.prompt_variant!r}")
        if self.kind == "entail" and not self.catalog_id:
            raise ValueError("entail needs a catalog_id")
        if self.kind != "entail" and self.prompt_variant != "informative":
            raise ValueError(f"prompt_variant applies only to entail, not {self.kind!r}")

    @property
    def method_id(self) -> str:
        if self.kind == "entail":
            return f"entail_{self.prompt_variant}"
        return self.kind

    def with_seed(self, seed: int) -> "MethodSpec":
        """The same method with its training seed replaced."""
        return replace(self, train_config=replace(self.train_config, seed=seed))


def resolve_catalog(catalog_id: str) -> PromptCatalog:
    """Built-in catalog by id, or a catalog JSON file by path."""
    if catalog_id in BUILTIN_CATALOG_IDS:
        return builtin_catalog(catalog_id)
    path = Path(catalog_id)
    if path.exists():
        return load_catalog(path)
    raise ValueError(
        f"catalog {catalog_id!r} is neither a built-in ({', '.join(BUILTIN_CATALOG_IDS)}) "
        "nor an existing file"
    )


def _multiclass_segments(example: Example) -> tuple[str, ...]:
    """``(text_a,)``, or ``(text_a, text_b)``: text_a is crossed with text_b."""
    return (example.text_a,) if example.text_b is None else (example.text_a, example.text_b)


def _post_label_indices(dataset: Dataset, column: str) -> list[int]:
    """``column`` ("pre" or "post") targets as indices into the post label set."""
    labels = dataset.post_labels
    out = []
    for ex in dataset:
        target = getattr(ex, f"{column}_label")
        if target not in labels:
            raise ValueError(
                f"pre-shift label {target!r} (example {ex.id!r}) is not in the "
                f"post-shift label set {labels.labels!r}; cannot share one head"
            )
        out.append(labels.index(target))
    return out


def _fit_multiclass(
    dataset: Dataset, columns: tuple[str, ...], config: TrainConfig, featurizer: FeaturizerConfig
) -> Model:
    """A post-label-set softmax head on one label column, or jointly on two."""
    features = [featurize(_multiclass_segments(ex), featurizer) for ex in dataset]
    targets = [_post_label_indices(dataset, column) for column in columns]
    n_classes = len(dataset.post_labels)
    if len(columns) == 2:
        return train_joint(features, *targets, config, n_classes=n_classes, featurizer=featurizer)
    return train(
        features, targets[0], config, head="multiclass", n_classes=n_classes, featurizer=featurizer
    )


# Multiclass kind -> (training set, label columns).
_MULTICLASS = {
    "pre_shift_only": ("pre", ("pre",)),
    "finetuned": ("post", ("post",)),
    "finetuned_post_only": ("post", ("post",)),
    "l1l2": ("post", ("pre", "post")),
}


def _multiclass_model(kind: str, spec: MethodSpec, pre_train: Dataset, post_train: Dataset) -> Model:
    """The trained head of a ``_MULTICLASS`` kind; finetuned warm-starts from pre_shift_only's."""
    source, columns = _MULTICLASS[kind]
    dataset = pre_train if source == "pre" else post_train
    _require_nonempty(dataset, kind, f"{source}-shift training")
    config = spec.train_config
    if kind == "finetuned":
        warm = _multiclass_model("pre_shift_only", spec, pre_train, post_train) if len(pre_train) else None
        config = replace(config, warm_start=warm)
    return _fit_multiclass(dataset, columns, config, spec.featurizer)


def _predict_multiclass(model: Model, test: Dataset) -> dict[str, str]:
    from .model import score  # looked up per call: the benchmark tracer wraps model.score

    probs = score(model, [featurize(_multiclass_segments(ex), model.featurizer) for ex in test])
    labels = test.post_labels.labels
    return {ex.id: labels[k] for ex, k in zip(test, probs.argmax(axis=1))}


def _require_nonempty(dataset: Dataset, kind: str, which: str) -> None:
    if len(dataset) == 0:
        raise ValueError(f"{kind} requires a non-empty {which} dataset")


def run_method(
    spec: MethodSpec, pre_train: Dataset, post_train: Dataset, test: Dataset
) -> dict[str, str]:
    """Predictions (id -> post-shift label) for every test example."""
    kind = spec.kind
    cfg = spec.train_config

    if kind == "majority":
        _require_nonempty(post_train, kind, "post-shift training")
        counts = post_train.post_counts()
        best = max(post_train.post_labels, key=lambda l: (counts[l], -post_train.post_labels.index(l)))
        return {ex.id: best for ex in test}

    if kind in _MULTICLASS:
        return _predict_multiclass(_multiclass_model(kind, spec, pre_train, post_train), test)

    # kind == "entail"
    _require_nonempty(post_train, kind, "post-shift training")
    catalog = resolve_catalog(spec.catalog_id)
    if spec.prompt_variant == "random":
        catalog = randomize_labels(catalog, DEFAULT_DECOYS)
    missing = [l for l in post_train.post_labels if l not in catalog.label_surface]
    if missing:
        raise ValueError(
            f"catalog {spec.catalog_id!r} lacks prompts for labels {missing!r}"
        )
    mode = spec.concat_mode or infer_concat_mode(post_train)
    aug = augment_dataset(
        post_train,
        catalog,
        mode=mode,
        oversample=spec.oversample,
        seed=derive_seed(cfg.seed, "augment"),
    )
    features = [featurize(s.segments, spec.featurizer) for s in aug]
    labels = [s.binary_label for s in aug]
    model = train(features, labels, cfg, head="binary", featurizer=spec.featurizer)
    test_mode = spec.concat_mode or infer_concat_mode(test)
    return predict_dataset(make_binary_scorer(model), test, catalog, mode=test_mode)


# ---------------------------------------------------------------------------
# Predictions file interface
# ---------------------------------------------------------------------------


def save_predictions(predictions: Mapping[str, str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for example_id, label in predictions.items():
            f.write(
                json.dumps({"id": example_id, "predicted_label": label}, ensure_ascii=False)
                + "\n"
            )


def load_predictions(path: str | Path) -> dict[str, str]:
    predictions = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                predictions[str(row["id"])] = str(row["predicted_label"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return predictions
