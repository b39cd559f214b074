"""Deterministic trainable text classifier on hashed n-gram features.

Stands in for a pretrained transformer at desk scale: inputs map to sparse
L2-normalized count vectors over a power-of-two hash space (word 1-2 grams,
character trigrams, and prompt-token x content-token cross features), and a
logistic or softmax head trains by mini-batch gradient descent. Everything
is bit-deterministic given the seed, gradients are verifiable by central
finite differences, and models round-trip through a versioned .npz blob.

An input is a tuple of text segments, the way a PLM tokenizer receives
``text_a [SEP] prompt [SEP] text_b``: the first segment (the prompt, or
``text_a`` of a plain pair) is crossed with the rest. A bare string is one
segment and is never split, so no separator inside user text is special.

Hashing uses BLAKE2b (64-bit digests) with the salt mixed in as the keyed
hash key, reduced modulo the table size; ``hash_feature`` is its only
definition. ``featurize`` hashes each distinct key once: bounded memos map
keys to indices per (salt, dim) and tokens to the indices of their unigram
and character n-gram keys per config, so its vectors equal hashing every
key of ``feature_keys`` bit for bit. Training and ``score`` run one forward,
``_logits`` over packed rows, so a row scores the same alone or in a batch.
Cross features exist because a
purely additive linear model scores candidate prompts independently of the
text they are paired with; the conjunction features are what let the binary
head read prompts in context.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MODEL_FORMAT_VERSION = "entailshift-model-v1"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class FeaturizerConfig:
    """Hash dimension, enabled feature families, and the hash salt."""

    dim: int = 2**18
    word_ngrams: tuple[int, ...] = (1, 2)
    char_ngrams: tuple[int, ...] = (3,)
    cross_features: bool = True
    hash_salt: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_ngrams", tuple(self.word_ngrams))
        object.__setattr__(self, "char_ngrams", tuple(self.char_ngrams))
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two, got {self.dim}")
        if not (self.word_ngrams or self.char_ngrams or self.cross_features):
            raise ValueError("at least one feature family must be enabled")
        if any(n < 1 for n in self.word_ngrams + self.char_ngrams):
            raise ValueError("n-gram orders must be positive")
        for what, orders in (("word_ngrams", self.word_ngrams), ("char_ngrams", self.char_ngrams)):
            if len(set(orders)) != len(orders):
                raise ValueError(f"{what} orders must be distinct, got {orders}")
        if not isinstance(self.cross_features, bool):
            raise ValueError(f"cross_features must be a bool, got {self.cross_features!r}")


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Sparse unit-norm vector: sorted unique indices with their values."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be parallel arrays")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def hash_feature(key: str, salt: int, dim: int) -> int:
    """BLAKE2b-64 of the feature key, salt-mixed, modulo the table size."""
    digest = hashlib.blake2b(
        key.encode("utf-8"),
        digest_size=8,
        key=(salt % 2**64).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little") % dim


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs; punctuation acts as whitespace."""
    return _TOKEN_RE.findall(text.lower())


def _token_lists(segments: str | Sequence[str]) -> list[list[str]]:
    if isinstance(segments, str):
        segments = (segments,)
    return [tokenize(part) for part in segments]


def _token_keys(token: str, config: FeaturizerConfig) -> list[str]:
    """Keys a token yields wherever it occurs: "w:tok" and its char n-grams."""
    keys = ["w:" + token for n in config.word_ngrams if n == 1]
    for n in config.char_ngrams:
        keys.extend("c:" + token[i : i + n] for i in range(len(token) - n + 1))
    return keys


def _word_ngram_keys(tokens: list[str], config: FeaturizerConfig) -> list[str]:
    """Word n-grams with n > 1 of one segment: "w:tok1 tok2"."""
    return [
        "w:" + " ".join(tokens[i : i + n])
        for n in config.word_ngrams
        if n > 1
        for i in range(len(tokens) - n + 1)
    ]


def _cross_keys(token_lists: list[list[str]], config: FeaturizerConfig) -> list[str]:
    """First-segment x later-segment token conjunctions: "ptok⊗ctok"."""
    if not config.cross_features or len(token_lists) < 2:
        return []
    content_tokens = [tok for tokens in token_lists[1:] for tok in tokens]
    return [f"{p}⊗{c}" for p in token_lists[0] for c in content_tokens]


def feature_keys(segments: str | Sequence[str], config: FeaturizerConfig) -> list[str]:
    """The raw (pre-hash) feature key multiset for a segments tuple.

    Key formats: word n-grams "w:tok1 tok2", char n-grams "c:xyz", and
    first-segment x later-segment crosses "ptok⊗ctok". Word n-grams never
    span segment boundaries. A bare string is a single segment. This is the
    string-level statement of what ``featurize`` hashes; the order of the
    keys carries no meaning.
    """
    token_lists = _token_lists(segments)
    keys: list[str] = []
    for tokens in token_lists:
        for tok in tokens:
            keys.extend(_token_keys(tok, config))
        keys.extend(_word_ngram_keys(tokens, config))
    keys.extend(_cross_keys(token_lists, config))
    return keys


# Memos that make ``featurize`` hash each distinct key once. They hold only
# values ``hash_feature`` defines, so they change no result. A memo is cleared
# when it reaches _MEMO_ENTRIES entries, and all memos of a kind are dropped
# when one more would exceed _MEMO_TABLES.
_MEMO_ENTRIES = 2**16
_MEMO_TABLES = 8


class _Memo(dict):
    """A dict that fills a missing entry with ``compute(key)``."""

    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        if len(self) >= _MEMO_ENTRIES:
            self.clear()
        value = self[key] = self.compute(key)
        return value


_key_memos: dict[tuple[int, int], _Memo] = {}  # key -> index, per (salt, dim)
_token_memos: dict[FeaturizerConfig, _Memo] = {}  # token -> its keys' indices


def _memo(memos: dict, space, compute) -> _Memo:
    memo = memos.get(space)
    if memo is None:
        if len(memos) >= _MEMO_TABLES:
            memos.clear()
        memo = memos[space] = _Memo(compute)
    return memo


def featurize(segments: str | Sequence[str], config: FeaturizerConfig) -> FeatureVector:
    """Hash the key multiset and L2-normalize the counts; empty -> zero vector.

    Equal to hashing every key of ``feature_keys`` with ``hash_feature``;
    keys are looked up in bounded memos so each distinct key is hashed once.
    """
    salt, dim = config.hash_salt, config.dim
    keys = _memo(_key_memos, (salt, dim), lambda key: hash_feature(key, salt, dim))
    tokens_index = _memo(_token_memos, config, lambda token: tuple(
        hash_feature(key, salt, dim) for key in _token_keys(token, config)))
    token_lists = _token_lists(segments)
    idx: list[int] = []
    for tokens in token_lists:
        idx.extend(chain.from_iterable(map(tokens_index.__getitem__, tokens)))
        idx.extend(map(keys.__getitem__, _word_ngram_keys(tokens, config)))
    idx.extend(map(keys.__getitem__, _cross_keys(token_lists, config)))
    if not idx:
        return FeatureVector(
            indices=np.empty(0, dtype=np.int64),
            values=np.empty(0, dtype=np.float64),
            dim=dim,
        )
    indices, counts = np.unique(np.array(idx, dtype=np.int64), return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices=indices, values=values, dim=dim)


# ---------------------------------------------------------------------------
# Packed sample matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Packed:
    """CSR-style concatenation of sparse rows."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.indptr.size - 1)


def _pack(features: Sequence[FeatureVector], dim: int) -> _Packed:
    """Pack the rows, all of hash dimension ``dim``; zero rows pack too."""
    for fv in features:
        if fv.dim != dim:
            raise ValueError("feature vectors do not match the featurizer dimension")
    lengths = np.array([fv.nnz for fv in features], dtype=np.int64)
    indptr = np.zeros(len(features) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([np.empty(0, dtype=np.int64), *(fv.indices for fv in features)])
    values = np.concatenate([np.empty(0, dtype=np.float64), *(fv.values for fv in features)])
    return _Packed(indptr=indptr, indices=indices, values=values)


def _gather(packed: _Packed, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (sample_pos, indices, values) arrays for a row subset, in order."""
    starts = packed.indptr[rows]
    lengths = packed.indptr[rows + 1] - starts
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    flat = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    positions = np.repeat(starts, lengths) + flat
    sample_pos = np.repeat(np.arange(rows.size, dtype=np.int64), lengths)
    return sample_pos, packed.indices[positions], packed.values[positions]


# ---------------------------------------------------------------------------
# Heads and configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs for one training run."""

    epochs: int = 30
    learning_rate: float = 0.2
    batch_size: int = 16
    seed: int = 0
    l2_penalty: float = 1e-6
    warm_start: "Model | None" = None

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_penalty < 0:
            raise ValueError(f"l2_penalty must be nonnegative, got {self.l2_penalty}")


@dataclass(frozen=True, eq=False)
class Model:
    """Linear head over hashed features: logistic (binary) or softmax (K-class)."""

    head: str                         # "binary" | "multiclass"
    weights: np.ndarray               # (dim,) binary, (K, dim) multiclass
    bias: np.ndarray                  # (1,) binary, (K,) multiclass
    featurizer: FeaturizerConfig
    train_log: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.head not in ("binary", "multiclass"):
            raise ValueError(f"unknown head {self.head!r}")
        expected_ndim = 1 if self.head == "binary" else 2
        if self.weights.ndim != expected_ndim:
            raise ValueError(
                f"{self.head} head expects {expected_ndim}-D weights, got {self.weights.ndim}-D"
            )
        if self.weights.shape[-1] != self.featurizer.dim:
            raise ValueError("weight width must equal the featurizer dimension")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def n_classes(self) -> int:
        return 2 if self.head == "binary" else int(self.weights.shape[0])


def zero_model(featurizer: FeaturizerConfig, head: str, n_classes: int | None = None) -> Model:
    """Freshly initialized parameters (all zeros)."""
    if head == "binary":
        return Model(
            head=head,
            weights=np.zeros(featurizer.dim),
            bias=np.zeros(1),
            featurizer=featurizer,
        )
    if n_classes is None or n_classes < 2:
        raise ValueError("multiclass head needs n_classes >= 2")
    return Model(
        head=head,
        weights=np.zeros((n_classes, featurizer.dim)),
        bias=np.zeros(n_classes),
        featurizer=featurizer,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _logits(
    weights: np.ndarray, bias: np.ndarray, packed: _Packed, rows: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(len(rows), R) logits of an (R, dim) weight view, plus the gathered rows.

    The binary head is R=1 over ``np.atleast_2d(weights)``, a view of its
    1-D weights, so the same forward, dL/dz and scatter serve every head.
    """
    gathered = sample_pos, idx, vals = _gather(packed, rows)
    z = np.empty((rows.size, weights.shape[0]))
    for k in range(weights.shape[0]):
        z[:, k] = np.bincount(sample_pos, weights=vals * weights[k][idx], minlength=rows.size)
    z += bias
    return z, gathered


def _dlogits(z: np.ndarray, targets: Sequence[np.ndarray]) -> np.ndarray:
    """Per-sample dL/dz of the summed loss over the target columns.

    One column of 0/1 floats is the logistic head: sigmoid(z) - y. Integer
    columns share one softmax: m*softmax(z) - sum_j onehot(y_j) for m columns.
    """
    if z.shape[1] == 1:
        return _sigmoid(z) - targets[0][:, None]
    g = len(targets) * _softmax(z)
    r = np.arange(z.shape[0])
    for y in targets:
        g[r, y] -= 1.0
    return g


def _data_loss(z: np.ndarray, targets: Sequence[np.ndarray]) -> float:
    """Mean cross-entropy of the logits, summed over the target columns."""
    if z.shape[1] == 1:
        return float(np.mean(np.logaddexp(0.0, z[:, 0]) - targets[0] * z[:, 0]))
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    r = np.arange(z.shape[0])
    return sum(float(np.mean(lse - z[r, y])) for y in targets)


def _scatter(
    weights: np.ndarray,
    gathered: tuple[np.ndarray, np.ndarray, np.ndarray],
    g: np.ndarray,
    scale: float,
) -> None:
    """weights[k] += scale * sum over samples of g[:, k] * x, in place."""
    sample_pos, idx, vals = gathered
    for k in range(weights.shape[0]):
        np.add.at(weights[k], idx, scale * g[:, k][sample_pos] * vals)


def _target_columns(head: str, columns: Iterable[Sequence[int]]) -> list[np.ndarray]:
    """Label columns as _dlogits reads them: float for binary, int64 otherwise."""
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    return [cols[0].astype(np.float64)] if head == "binary" else cols


def _validate_labels(labels: np.ndarray, arity: int, what: str) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= arity):
        bad = labels[(labels < 0) | (labels >= arity)][0]
        raise ValueError(f"{what} label {int(bad)} outside head arity {arity}")


def _init_params(
    featurizer: FeaturizerConfig,
    head: str,
    n_classes: int,
    warm_start: Model | None,
) -> tuple[np.ndarray, np.ndarray]:
    if warm_start is None:
        fresh = zero_model(featurizer, head, n_classes if head == "multiclass" else None)
        return fresh.weights.copy(), fresh.bias.copy()
    if warm_start.head != head:
        raise ValueError(f"warm start head {warm_start.head!r} does not match {head!r}")
    if warm_start.featurizer != featurizer:
        raise ValueError("warm start featurizer config does not match")
    if head == "multiclass" and warm_start.weights.shape[0] != n_classes:
        raise ValueError(
            f"warm start has {warm_start.weights.shape[0]} classes, need {n_classes}"
        )
    return warm_start.weights.copy(), warm_start.bias.astype(np.float64).copy().reshape(-1)


def _fit(
    features: Sequence[FeatureVector],
    columns: dict[str, Sequence[int]],
    config: TrainConfig,
    head: str,
    n_classes: int,
    featurizer: FeaturizerConfig | None,
) -> Model:
    """Mini-batch descent on the summed cross-entropy of the named label columns."""
    if not features:
        raise ValueError("no samples to train on")
    if featurizer is None:
        featurizer = (
            config.warm_start.featurizer
            if config.warm_start is not None
            else FeaturizerConfig(dim=features[0].dim)
        )
    packed = _pack(features, featurizer.dim)
    targets = _target_columns(head, columns.values())
    for what, y in zip(columns, targets):
        if y.size != packed.n_rows:
            raise ValueError(f"{packed.n_rows} samples but {y.size} {what} labels")
        _validate_labels(y, n_classes, what)
    weights, bias = _init_params(featurizer, head, n_classes, config.warm_start)

    weight_rows = np.atleast_2d(weights)
    rng = np.random.default_rng(config.seed)
    n = packed.n_rows
    decay = 1.0 - config.learning_rate * config.l2_penalty
    log: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            z, gathered = _logits(weight_rows, bias, packed, rows)
            g = _dlogits(z, [y[rows] for y in targets]) / rows.size
            if config.l2_penalty:
                weights *= decay
            _scatter(weight_rows, gathered, g, -config.learning_rate)
            bias -= config.learning_rate * g.sum(axis=0)
        z, _ = _logits(weight_rows, bias, packed, np.arange(n, dtype=np.int64))
        log.append(_data_loss(z, targets))
    return Model(head=head, weights=weights, bias=bias, featurizer=featurizer, train_log=tuple(log))


def train(
    features: Sequence[FeatureVector],
    labels: Sequence[int],
    config: TrainConfig,
    head: str = "binary",
    n_classes: int | None = None,
    featurizer: FeaturizerConfig | None = None,
) -> Model:
    """Mini-batch gradient descent on mean cross-entropy plus L2.

    Every head trains through one kernel: ``_logits`` forward, ``_dlogits``
    for dL/dz and ``_scatter`` into the weights; ``_loss_and_grad`` (and so
    ``grad_check``) runs the same three. The L2 penalty enters as per-batch
    multiplicative weight decay, which is exactly gradient descent on
    meanCE + (l2/2)*||w||^2; the bias is not decayed. ``train_log`` records
    the full-dataset mean cross-entropy after each epoch.
    ``config.warm_start`` initializes from a prior model of the same head
    and featurizer (fine-tuning); otherwise parameters start at zero.
    """
    if head == "binary":
        n_classes = 2
    elif head != "multiclass":
        raise ValueError(f"unknown head {head!r}")
    elif n_classes is None:
        raise ValueError("multiclass training requires explicit n_classes")
    return _fit(features, {head: labels}, config, head, n_classes, featurizer)


def train_joint(
    features: Sequence[FeatureVector],
    pre_labels: Sequence[int],
    post_labels: Sequence[int],
    config: TrainConfig,
    n_classes: int,
    featurizer: FeaturizerConfig | None = None,
) -> Model:
    """Minimize CE(prediction, pre label) + CE(prediction, post label).

    One shared softmax head serves both terms, so the per-logit gradient is
    2*softmax - onehot(pre) - onehot(post). ``train_log`` records the summed
    two-term mean cross-entropy per epoch.
    """
    columns = {"pre-shift": pre_labels, "post-shift": post_labels}
    return _fit(features, columns, config, "multiclass", n_classes, featurizer)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score(model: Model, features: Sequence[FeatureVector]) -> np.ndarray:
    """Probabilities of the rows: (n,) for the binary head, (n, K) rows summing to 1 otherwise.

    The rows are packed and run through the training forward ``_logits``;
    a row's probability does not depend on the other rows of the call.
    """
    packed = _pack(features, model.featurizer.dim)
    rows = np.arange(packed.n_rows, dtype=np.int64)
    z, _ = _logits(np.atleast_2d(model.weights), model.bias, packed, rows)
    return _sigmoid(z[:, 0]) if model.head == "binary" else _softmax(z)


def make_binary_scorer(model: Model):
    """Adapt a binary model to the scorer interface: candidate batch -> probabilities."""
    if model.head != "binary":
        raise ValueError("scorer adapter requires a binary head")
    return lambda batch: score(model, [featurize(c.segments, model.featurizer) for c in batch])


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def _loss_and_grad(
    model: Model,
    features: Sequence[FeatureVector],
    labels: Sequence[Sequence[int]],
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Full-objective value and analytic gradient for any head.

    ``labels`` is one column for plain heads and two for the joint loss.
    The objective is the mean data loss plus (l2/2)*||w||^2. The gradient
    is the one a full-batch training step applies: the same forward, dL/dz
    and scatter, here into zeros with scale 1.
    """
    if not features:
        raise ValueError("no samples to check")
    packed = _pack(features, model.featurizer.dim)
    targets = _target_columns(model.head, labels)
    rows = np.arange(packed.n_rows, dtype=np.int64)
    z, gathered = _logits(np.atleast_2d(model.weights), model.bias, packed, rows)
    g = _dlogits(z, targets) / packed.n_rows
    grad_w = np.zeros_like(model.weights)
    _scatter(np.atleast_2d(grad_w), gathered, g, 1.0)
    grad_w += l2 * model.weights
    loss = _data_loss(z, targets) + 0.5 * l2 * float(np.sum(model.weights**2))
    return loss, grad_w, g.sum(axis=0)


def grad_check(
    model: Model,
    features: Sequence[FeatureVector],
    labels: Sequence[Sequence[int]],
    epsilon: float = 1e-5,
    n_coords: int = 20,
    l2: float = 0.0,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic gradient comes from ``_loss_and_grad``, which runs the
    training kernel, so this checks the gradient the optimizer applies.
    Coordinates are sampled from the feature support of the given samples
    plus the bias entries, so every checked coordinate carries signal.
    """
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    _, grad_w, grad_b = _loss_and_grad(model, features, labels, l2)
    weights, grad_w = np.atleast_2d(model.weights), np.atleast_2d(grad_w)

    support = sorted({int(i) for fv in features for i in fv.indices})
    rng = np.random.default_rng(seed)
    coords: list[tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = []
    if support:
        for pick in rng.integers(0, len(support), size=max(n_coords, 1)):
            where = (int(rng.integers(0, weights.shape[0])), support[int(pick)])
            coords.append((weights, grad_w, where))
    coords += [(model.bias, grad_b, (b,)) for b in range(model.bias.size)]

    max_rel = 0.0
    for array, grad, where in coords:
        analytic = grad[where]
        original = array[where]
        array[where] = original + epsilon
        up, _, _ = _loss_and_grad(model, features, labels, l2)
        array[where] = original - epsilon
        down, _, _ = _loss_and_grad(model, features, labels, l2)
        array[where] = original
        fd = (up - down) / (2.0 * epsilon)
        rel = abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_model(model: Model, path: str | Path) -> None:
    np.savez_compressed(
        path,
        format_version=np.array(MODEL_FORMAT_VERSION),
        head=np.array(model.head),
        weights=model.weights,
        bias=model.bias,
        train_log=np.array(model.train_log, dtype=np.float64),
        dim=np.array(model.featurizer.dim),
        word_ngrams=np.array(model.featurizer.word_ngrams, dtype=np.int64),
        char_ngrams=np.array(model.featurizer.char_ngrams, dtype=np.int64),
        cross_features=np.array(model.featurizer.cross_features),
        hash_salt=np.array(model.featurizer.hash_salt),
    )


def load_model(path: str | Path) -> Model:
    with np.load(path, allow_pickle=False) as blob:
        version = str(blob["format_version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"cannot load model format {version!r}; this build reads {MODEL_FORMAT_VERSION!r}"
            )
        featurizer = FeaturizerConfig(
            dim=int(blob["dim"]),
            word_ngrams=tuple(int(n) for n in blob["word_ngrams"]),
            char_ngrams=tuple(int(n) for n in blob["char_ngrams"]),
            cross_features=bool(blob["cross_features"]),
            hash_salt=int(blob["hash_salt"]),
        )
        return Model(
            head=str(blob["head"]),
            weights=blob["weights"].astype(np.float64),
            bias=blob["bias"].astype(np.float64),
            featurizer=featurizer,
            train_log=tuple(float(x) for x in blob["train_log"]),
        )
