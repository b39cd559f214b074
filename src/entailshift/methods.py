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

An entail spec resolves its ``catalog_id`` once, when it is made:
``MethodSpec.catalog`` holds that catalog, already randomized for ``random``,
and ``with_seed`` copies it, so no cell or pool worker reads a catalog again.

Every method reads an example's text as ``Example.segments``, ``(text_a,)``
or ``(text_a, text_b)``: the multiclass heads featurize those segments and
entail puts each candidate's prompt in front of them, so the layout follows
each example and no method has a layout setting. Rows are featurized under
the spec's ``featurizer``; a trained model takes that config from its rows
and predicts through it, so no method passes it to training.

A method's test inputs depend only on its ``input_key``: the featurizer of a
multiclass head, and the featurizer and catalog of entail. ``build_inputs``
featurizes them once, through the block featurizer, into an ``InputSet``
held only packed: the test examples' segments, or every entail candidate
in ``predict_dataset`` order. A grid builds each set once and hands it to
every cell that reads it, where a multiclass head scores it in one
``score`` call and entail's scorer reads its rows slice by slice, one
``score`` call per candidate batch. ``run_method`` alone, with no set
handed in, builds a multiclass head's test rows once its model is trained,
but scores entail one candidate batch at a time through
``make_binary_scorer``, featurizing each batch through the same block
featurizer: holding a whole test set's candidate rows next to the model's
lookup would only raise the peak heap of a call that reads each row once,
and a heap that swings past the allocator's trim threshold returns and
re-faults its top pages call after call. Training rows are
featurized one ``featurize`` call per row as the fit reads them
(``_Featurized``), never held as a list: they are each cell's own few-shot
and oversampled rows, so no other cell could reuse them, and the benchmark
tracer counts one call per training row.

The four multiclass kinds are one softmax head trained by one helper on
different rows and label columns: ``fit_pre_shift`` fits ``pre_shift_only``
on the pre-shift labels, and the ``_POST_TRAINED`` table names the columns of
the kinds trained on the post-shift set. Their heads always span the
post-shift label set; pre-shift target labels are mapped into it, which is
what lets a pre-shift head be fine-tuned on post-shift classes without
surgery. ``finetuned`` warm-starts from the ``pre_shift_only`` model; an
empty pre-shift set skips it, reducing ``finetuned`` to
``finetuned_post_only``. ``run_method`` fits that model with the method's own
``train_config`` unless it is handed one already trained. An experiment
grid's plan builds every value its cells share once and hands each cell
what it reads: its ``build_inputs`` set through ``inputs`` and, for a
``pre_shift_only`` or ``finetuned`` cell, the pre-shift model of its seed,
train and featurizer settings through ``pre_shift``, at every budget, since
that model never sees the few-shot set.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from . import model as _model
from .corpus import Dataset, require_unique_ids
from .jsonfiles import read_keyed_jsonl, write_jsonl
from .model import (
    FeaturizerConfig,
    Model,
    TrainConfig,
    _featurize_packed,
    _Packed,
    featurize,
    make_binary_scorer,
    train,
    train_joint,
)
from .prompts import (
    BUILTIN_CATALOG_IDS,
    PromptCatalog,
    builtin_catalog,
    load_catalog,
    randomize_labels,
)
from .reformulate import Candidate, augment_dataset, dataset_candidates, predict_dataset
from .seeding import derive_seed

METHOD_KINDS = (
    "majority",
    "pre_shift_only",
    "finetuned",
    "finetuned_post_only",
    "l1l2",
    "entail",
)


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


@dataclass(frozen=True)
class MethodSpec:
    """One comparison method plus everything needed to run it."""

    kind: str
    prompt_variant: str = "informative"        # entail only
    catalog_id: str = ""                       # entail only
    train_config: TrainConfig = field(default_factory=TrainConfig)
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    oversample: bool = True                    # entail only
    catalog: PromptCatalog | None = field(default=None, init=False, compare=False, repr=False)  # derived

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
        if not isinstance(self.train_config, TrainConfig):
            raise ValueError(f"train_config must be a TrainConfig, got {self.train_config!r}")
        if not isinstance(self.featurizer, FeaturizerConfig):
            raise ValueError(f"featurizer must be a FeaturizerConfig, got {self.featurizer!r}")
        if self.kind != "entail" and self.prompt_variant != "informative":
            raise ValueError(f"prompt_variant applies only to entail, not {self.kind!r}")
        if self.kind != "entail" and self.catalog_id:
            raise ValueError(f"catalog_id applies only to entail, not {self.kind!r}")
        if self.kind == "entail":
            catalog = resolve_catalog(self.catalog_id)
            if self.prompt_variant == "random":
                catalog = randomize_labels(catalog)
            object.__setattr__(self, "catalog", catalog)

    @property
    def method_id(self) -> str:
        if self.kind == "entail":
            return f"entail_{self.prompt_variant}"
        return self.kind

    def with_seed(self, seed: int) -> "MethodSpec":
        """The same method, resolved catalog and all, with its training seed replaced."""
        spec = copy.copy(self)
        object.__setattr__(spec, "train_config", replace(self.train_config, seed=seed))
        return spec


def check_inputs(spec: MethodSpec, pre_train: Dataset, post_train: Dataset, test: Dataset) -> None:
    """A ValueError for datasets ``spec`` cannot run on; reads no file.

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
    if spec.catalog is not None:
        missing = [l for l in labels if l not in spec.catalog.label_surface]
        if missing:
            raise ValueError(f"catalog {spec.catalog_id!r} lacks prompts for labels {missing!r}")


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
    (ROADMAP item 3) and the fit reserves its packed arrays from it. Each row
    comes from this module's ``featurize``, looked up as it is read, so the
    tracer counts one call per row.
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
    config = spec.train_config
    if kind == "finetuned":
        if pre_shift is None and len(pre_train):
            pre_shift = fit_pre_shift(spec, pre_train)
        config = replace(config, warm_start=pre_shift)
    return _fit_multiclass(post_train, _POST_TRAINED[kind], config, spec.featurizer)


@dataclass(frozen=True, eq=False)
class InputSet:
    """A test set's inputs for the methods of one ``input_key``, featurized once and held packed.

    ``rows`` are the test examples' segments for a multiclass head, or for
    entail the segments of ``candidates``, the test set's K candidates per
    example in ``dataset_candidates`` order; ``test`` is the set.
    """

    key: tuple
    test: Dataset
    rows: _Packed
    candidates: tuple[Candidate, ...] | None = None


def input_key(spec: MethodSpec) -> tuple | None:
    """What a method's test inputs depend on: nothing for majority, which reads none, the
    featurizer for a multiclass head, and the featurizer and catalog for entail."""
    if spec.kind == "majority":
        return None
    if spec.kind == "entail":
        return ("entail", spec.featurizer, spec.catalog_id, spec.prompt_variant)
    return ("multiclass", spec.featurizer)


def build_inputs(spec: MethodSpec, test: Dataset) -> InputSet:
    """The ``InputSet`` every method of ``spec``'s ``input_key`` scores ``test`` over."""
    key = input_key(spec)
    if key is None:
        raise ValueError(f"{spec.kind} reads no test inputs")
    if spec.kind != "entail":
        return InputSet(key, test, _featurize_packed([ex.segments for ex in test], spec.featurizer))
    pending = tuple(dataset_candidates(test, spec.catalog))
    return InputSet(key, test, _featurize_packed([c.segments for c in pending], spec.featurizer),
                    pending)


def _check_given_inputs(spec: MethodSpec, test: Dataset, inputs: InputSet) -> None:
    if inputs.key != input_key(spec):
        raise ValueError(f"test inputs built for {inputs.key} cannot serve {spec.method_id}, "
                         f"which reads {input_key(spec)}")
    if inputs.test is not test and inputs.test != test:
        raise ValueError("the test inputs were built from another test set")


def _predict_multiclass(model: Model, test: Dataset, rows: _Packed) -> dict[str, str]:
    """Labels of ``test`` from one ``score`` call over its packed rows."""
    probs = _model.score(model, rows)
    labels = test.post_labels.labels
    return {ex.id: labels[k] for ex, k in zip(test, probs.argmax(axis=1))}


def _predict_entail(model: Model, test: Dataset, catalog: PromptCatalog, inputs: InputSet) -> dict[str, str]:
    """``predict_dataset`` over the candidates of ``inputs``, scored by their packed rows in order.

    A batch of n candidates scores the next n rows in one ``score`` call; a
    batch that is not the candidates those rows hold is refused.
    """
    position = 0

    def scorer(batch):
        nonlocal position
        start = position
        position += len(batch)
        if tuple(batch) != inputs.candidates[start:position]:
            raise ValueError(f"candidates {start}..{position} are not those the test inputs hold there")
        return _model.score(model, inputs.rows.rows(start, position))

    return predict_dataset(scorer, test, catalog, inputs.candidates)


def _require_nonempty(dataset: Dataset, kind: str, which: str) -> None:
    if len(dataset) == 0:
        raise ValueError(f"{kind} requires a non-empty {which} dataset")


def run_method(
    spec: MethodSpec, pre_train: Dataset, post_train: Dataset, test: Dataset,
    pre_shift: Model | None = None, inputs: InputSet | None = None,
) -> dict[str, str]:
    """Predictions (id -> post-shift label) for every test example; test ids must be unique.

    ``pre_shift`` is a trained ``fit_pre_shift`` model for a ``PRE_SHIFT_KINDS``
    method to use instead of fitting its own: pre_shift_only predicts with it
    and finetuned warm-starts from it. ``inputs`` is the ``build_inputs`` set
    of ``spec`` on ``test`` to score over; without it a multiclass head
    builds its own once its model is trained, and entail featurizes one
    candidate batch at a time.
    """
    require_unique_ids(test)
    check_inputs(spec, pre_train, post_train, test)
    kind = spec.kind
    cfg = spec.train_config
    if pre_shift is not None and kind not in PRE_SHIFT_KINDS:
        raise ValueError(f"{kind} has no pre-shift stage to take a trained pre-shift model")
    if inputs is not None:
        _check_given_inputs(spec, test, inputs)
    if kind != "pre_shift_only":
        _require_nonempty(post_train, kind, "post-shift training")

    if kind == "majority":
        counts = post_train.post_counts()
        best = max(post_train.post_labels, key=lambda l: (counts[l], -post_train.post_labels.index(l)))
        return {ex.id: best for ex in test}

    if kind != "entail":
        model = _multiclass_model(kind, spec, pre_train, post_train, pre_shift)
        return _predict_multiclass(model, test, (inputs or build_inputs(spec, test)).rows)

    aug = augment_dataset(
        post_train,
        spec.catalog,
        oversample=spec.oversample,
        seed=derive_seed(cfg.seed, "augment"),
    )
    model = train(_Featurized(aug, spec.featurizer), [s.binary_label for s in aug], cfg)
    if inputs is None:
        return predict_dataset(make_binary_scorer(model), test, spec.catalog)
    return _predict_entail(model, test, spec.catalog, inputs)


# ---------------------------------------------------------------------------
# Predictions file interface
# ---------------------------------------------------------------------------


def save_predictions(predictions: Mapping[str, str], path: str | Path) -> None:
    write_jsonl(path, ({"id": i, "predicted_label": label} for i, label in predictions.items()))


def load_predictions(path: str | Path) -> dict[str, str]:
    """id -> label; a malformed row or a second row for one id is a ValueError naming the line(s)."""
    return read_keyed_jsonl(
        path, lambda row: (str(row["id"]), str(row["predicted_label"])), ValueError)
