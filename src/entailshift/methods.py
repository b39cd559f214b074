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

Every method reads an example's text as ``Example.segments``, ``(text_a,)``
or ``(text_a, text_b)``: the multiclass heads featurize those segments and
entail puts each candidate's prompt in front of them, so the layout follows
each example and no method has a layout setting. Rows are featurized under
the spec's ``featurizer``; a trained model takes that config from its rows
and predicts through it, so no method passes it to training. Training rows
are featurized as the fit reads them (``_Featurized``), so a fit never holds
a list of them.

The four multiclass kinds are one softmax head trained by one helper on
different rows and label columns: ``fit_pre_shift`` fits ``pre_shift_only``
on the pre-shift labels, and the ``_POST_TRAINED`` table names the columns of
the kinds trained on the post-shift set. Their heads always span the
post-shift label set; pre-shift target labels are mapped into it, which is
what lets a pre-shift head be fine-tuned on post-shift classes without
surgery. ``finetuned`` warm-starts from the ``pre_shift_only`` model; an
empty pre-shift set skips it, reducing ``finetuned`` to
``finetuned_post_only``. ``run_method`` fits that model with the method's own
``train_config`` unless it is handed one already trained: an experiment grid
fits it once per seed and hands it to every ``pre_shift_only`` and
``finetuned`` cell of that seed at every budget, since it never sees the
few-shot set.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .corpus import Dataset, require_unique_ids
from .jsonfiles import read_keyed_jsonl, write_jsonl
from .model import (
    FeaturizerConfig,
    Model,
    TrainConfig,
    featurize,
    featurize_batch,
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
from .reformulate import augment_dataset, predict_dataset
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

    def __post_init__(self) -> None:
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; one of {METHOD_KINDS}")
        if self.prompt_variant not in ("informative", "random"):
            raise ValueError(f"unknown prompt variant {self.prompt_variant!r}")
        if not isinstance(self.catalog_id, str):
            raise ValueError(f"catalog_id must be a string, got {self.catalog_id!r}")
        if self.kind == "entail" and not self.catalog_id:
            raise ValueError("entail needs a catalog_id")
        if not isinstance(self.oversample, bool):
            raise ValueError(f"oversample must be true or false, got {self.oversample!r}")
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


def check_inputs(
    spec: MethodSpec, pre_train: Dataset, post_train: Dataset, test: Dataset
) -> PromptCatalog | None:
    """Entail's resolved catalog (None for other kinds), or a ValueError for unusable inputs.

    Every head is indexed by the post-shift label order, so all three datasets
    must declare the same one; entail's catalog must prompt every label.
    """
    labels = post_train.post_labels.labels
    for which, dataset in (("pre-shift training", pre_train), ("test", test)):
        if dataset.post_labels.labels != labels:
            raise ValueError(
                f"the {which} set declares post-shift labels {dataset.post_labels.labels!r} but "
                f"the post-shift training set declares {labels!r}; they must match in order"
            )
    if spec.kind != "entail":
        return None
    catalog = resolve_catalog(spec.catalog_id)
    if spec.prompt_variant == "random":
        catalog = randomize_labels(catalog, DEFAULT_DECOYS)
    missing = [l for l in labels if l not in catalog.label_surface]
    if missing:
        raise ValueError(f"catalog {spec.catalog_id!r} lacks prompts for labels {missing!r}")
    return catalog


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


class _Featurized:
    """The featurized segments of ``items``, made one at a time as a fit reads them.

    Sized, because the benchmark tracer counts training rows with ``len``
    (ROADMAP item 3). Each row comes from this module's ``featurize``, looked
    up as it is read, so the tracer counts one call per row.
    """

    def __init__(self, items, featurizer: FeaturizerConfig) -> None:
        self.items, self.featurizer = items, featurizer

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return (featurize(item.segments, self.featurizer) for item in self.items)


def _fit_multiclass(
    dataset: Dataset, columns: tuple[str, ...], config: TrainConfig, featurizer: FeaturizerConfig
) -> Model:
    """A post-label-set softmax head on one label column, or jointly on two."""
    features = _Featurized(dataset, featurizer)
    targets = [_post_label_indices(dataset, column) for column in columns]
    n_classes = len(dataset.post_labels)
    if len(columns) == 2:
        return train_joint(features, *targets, config, n_classes)
    return train(features, targets[0], config, n_classes)


# The kinds whose head is, or warm-starts from, the pre-shift model.
PRE_SHIFT_KINDS = ("pre_shift_only", "finetuned")

# Multiclass kind trained on the post-shift set -> its label columns.
_POST_TRAINED = {
    "finetuned": ("post",),
    "finetuned_post_only": ("post",),
    "l1l2": ("pre", "post"),
}


def fit_pre_shift(spec: MethodSpec, pre_train: Dataset) -> Model:
    """The pre_shift_only head under ``spec``'s train and featurizer settings."""
    _require_nonempty(pre_train, "pre_shift_only", "pre-shift training")
    return _fit_multiclass(pre_train, ("pre",), spec.train_config, spec.featurizer)


def _multiclass_model(
    kind: str, spec: MethodSpec, pre_train: Dataset, post_train: Dataset, pre_shift: Model | None
) -> Model:
    """The trained head of a multiclass kind; the pre-shift model is fit here unless given."""
    if kind == "pre_shift_only":
        return pre_shift if pre_shift is not None else fit_pre_shift(spec, pre_train)
    _require_nonempty(post_train, kind, "post-shift training")
    config = spec.train_config
    if kind == "finetuned":
        if pre_shift is None and len(pre_train):
            pre_shift = fit_pre_shift(spec, pre_train)
        config = replace(config, warm_start=pre_shift)
    return _fit_multiclass(post_train, _POST_TRAINED[kind], config, spec.featurizer)


def _predict_multiclass(model: Model, test: Dataset) -> dict[str, str]:
    from .model import score  # looked up per call: the benchmark tracer wraps model.score

    probs = score(model, featurize_batch([ex.segments for ex in test], model.featurizer))
    labels = test.post_labels.labels
    return {ex.id: labels[k] for ex, k in zip(test, probs.argmax(axis=1))}


def _require_nonempty(dataset: Dataset, kind: str, which: str) -> None:
    if len(dataset) == 0:
        raise ValueError(f"{kind} requires a non-empty {which} dataset")


def run_method(
    spec: MethodSpec, pre_train: Dataset, post_train: Dataset, test: Dataset,
    pre_shift: Model | None = None,
) -> dict[str, str]:
    """Predictions (id -> post-shift label) for every test example; test ids must be unique.

    ``pre_shift`` is a trained ``fit_pre_shift`` model for a ``PRE_SHIFT_KINDS``
    method to use instead of fitting its own: pre_shift_only predicts with it
    and finetuned warm-starts from it.
    """
    require_unique_ids(test)
    catalog = check_inputs(spec, pre_train, post_train, test)
    kind = spec.kind
    cfg = spec.train_config
    if pre_shift is not None and kind not in PRE_SHIFT_KINDS:
        raise ValueError(f"{kind} has no pre-shift stage to take a trained pre-shift model")

    if kind == "majority":
        _require_nonempty(post_train, kind, "post-shift training")
        counts = post_train.post_counts()
        best = max(post_train.post_labels, key=lambda l: (counts[l], -post_train.post_labels.index(l)))
        return {ex.id: best for ex in test}

    if kind != "entail":
        return _predict_multiclass(_multiclass_model(kind, spec, pre_train, post_train, pre_shift), test)

    _require_nonempty(post_train, kind, "post-shift training")
    aug = augment_dataset(
        post_train,
        catalog,
        oversample=spec.oversample,
        seed=derive_seed(cfg.seed, "augment"),
    )
    model = train(_Featurized(aug, spec.featurizer), [s.binary_label for s in aug], cfg)
    return predict_dataset(make_binary_scorer(model), test, catalog)


# ---------------------------------------------------------------------------
# Predictions file interface
# ---------------------------------------------------------------------------


def save_predictions(predictions: Mapping[str, str], path: str | Path) -> None:
    write_jsonl(path, ({"id": i, "predicted_label": label} for i, label in predictions.items()))


def load_predictions(path: str | Path) -> dict[str, str]:
    """id -> label; a malformed row or a second row for one id is a ValueError naming the line(s)."""
    return read_keyed_jsonl(
        path, lambda row: (str(row["id"]), str(row["predicted_label"])), ValueError)
