"""Deterministic trainable text classifier on hashed n-gram features.

Stands in for a pretrained transformer at desk scale: inputs map to sparse
L2-normalized count vectors over a power-of-two hash space (word 1-2 grams,
character trigrams, and prompt-token x content-token cross features), and a
logistic or softmax head trains by mini-batch gradient descent. Everything
is bit-deterministic given the seed, and gradients are verifiable by
central finite differences.

An input is a tuple of text segments, the way a PLM tokenizer receives
``text_a [SEP] prompt [SEP] text_b``: the first segment (the prompt, or
``text_a`` of a plain pair) is crossed with the rest. A bare string is one
segment and is never split, so no separator inside user text is special.

A feature space is its ``dim`` alone, a power of two up to 2**30, and a
key's index is its BLAKE2b-64 digest (``_digest``) modulo ``dim``
(``hash_feature``). ``featurize`` hashes each distinct key once: one pair
of bounded memos, shared by every ``dim``, maps keys to digests and tokens
to their unigram and character trigram keys' digests, and one ``&= dim - 1``
makes a row's digests indices, so its vectors equal hashing every key of
the input's key multiset bit for bit. ``featurize_batch`` gives the same
vectors for many inputs: in blocks of 64 rows it tokenizes and keys each
distinct segment once, so the K candidates of one example share their
content's work, and one ``np.unique`` and one norm pass finish the block.
The scorers featurize through it; training featurizes row by row. A
``FeatureVector`` carries the ``FeaturizerConfig`` that made it. Every
entry point takes any iterable of rows and packs it through ``_pack``, which
reads the rows once, a block at a time, so a fit holds them only packed; it
refuses a row from another space or an index outside [0, dim). Training
takes its featurizer from its first row, and a model's weight rows decide
its head.
Training and ``grad_check`` share one set-up, ``_problem``, and one label gate.
Training and ``score`` run one forward, ``_logits`` over packed rows, so a
row scores the same alone or in a batch. Training gathers a chunk of whole
mini-batches at once and takes each batch as views of it; full passes (the
per-epoch loss, ``score``, the checked gradient) run in fixed blocks of
consecutive rows, so no temporary grows with the data. A model holds only
its active columns, the feature indices its training touched, and
``score`` maps indices to them through a lookup built once per model, so
no array is as wide as the hash space per class. Cross features exist
because a purely additive linear model scores candidate prompts
independently of the text they are paired with; the conjunction features
are what let the binary head read prompts in context.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class FeaturizerConfig:
    """The hash dimension, a power of two from 2 to 2**30; the feature families are fixed."""

    dim: int = 2**18
    # Not a field: the benchmark tracer keys its seen-index table on it; goes with ROADMAP item 3.
    hash_salt: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if not 2 <= self.dim <= 2**30 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two from 2 to 2**30, got {self.dim}")


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Sparse unit-norm vector in ``featurizer``'s hash space: sorted unique 1-D integer indices
    with their 1-D real values."""

    indices: np.ndarray
    values: np.ndarray
    featurizer: FeaturizerConfig

    def __post_init__(self) -> None:
        indices, values = self.indices, self.values
        if not (isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu"):
            raise ValueError(f"indices must be a 1-D integer array, got {_described(indices)}")
        if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf"):
            raise ValueError(f"values must be a 1-D real array, got {_described(values)}")
        if indices.shape != values.shape:
            raise ValueError("indices and values must be parallel arrays")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def _described(array) -> str:
    return f"{array.dtype} of shape {array.shape}" if isinstance(array, np.ndarray) else type(array).__name__


def _digest(key: str) -> int:
    """The low 30 bits of the key's BLAKE2b-64 digest, keyed with eight zero bytes.

    For a power-of-two dim up to 2**30 they reduce to the full digest modulo
    dim, and CPython holds them in one digit, which ``np.fromiter`` reads fastest.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8, key=bytes(8)).digest()
    return int.from_bytes(digest, "little") & (2**30 - 1)


def hash_feature(key: str, dim: int) -> int:
    """The key's index in a ``FeaturizerConfig`` space of ``dim``: its BLAKE2b-64 modulo ``dim``."""
    return _digest(key) & (dim - 1)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs; punctuation acts as whitespace."""
    return _TOKEN_RE.findall(text.lower())


def _token_keys(token: str) -> list[str]:
    """Keys a token yields wherever it occurs: "w:tok" and its character trigrams."""
    return ["w:" + token, *("c:" + token[i : i + 3] for i in range(len(token) - 2))]


# Memos that make ``featurize`` hash each distinct key once. They hold only
# ``_digest`` values, which no dim changes, so they change no result. A memo is
# cleared when it reaches _MEMO_ENTRIES entries.
_MEMO_ENTRIES = 2**16


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


# (key -> digest, token -> the digests of its ``_token_keys``)
_memos = (_Memo(_digest), _Memo(lambda token: tuple(map(_digest, _token_keys(token)))))


def _row_digests(segments: str | Sequence[str], segment_cache: dict, cross_cache: dict) -> list[int]:
    """The ``_digest`` of every key of one input's key multiset, in no particular order.

    ``segment_cache`` maps a segment's text to ``(tokens, digests of its
    token keys and "w:tok1 tok2" bigrams)``; ``cross_cache`` maps a prompt
    segment's text to a dict from content token to the digests of its
    "ptok⊗ctok" keys over the prompt's tokens. Both are local to one call or
    block, so inputs that share a segment tokenize and key it once.
    """
    keys, tokens_index = _memos
    if isinstance(segments, str):
        segments = (segments,)
    digests: list[int] = []
    token_lists = []
    for text in segments:
        cached = segment_cache.get(text)
        if cached is None:
            tokens = tokenize(text)
            own = list(chain.from_iterable(map(tokens_index.__getitem__, tokens)))
            own.extend(keys[f"w:{a} {b}"] for a, b in zip(tokens, tokens[1:]))
            cached = segment_cache[text] = (tokens, own)
        token_lists.append(cached[0])
        digests.extend(cached[1])
    if len(segments) > 1:
        prompt = token_lists[0]
        crosses = cross_cache.get(segments[0])
        if crosses is None:
            crosses = cross_cache[segments[0]] = {}
        for tokens in token_lists[1:]:
            for c in tokens:
                hit = crosses.get(c)
                if hit is None:
                    hit = crosses[c] = tuple([keys[f"{p}⊗{c}"] for p in prompt])
                digests.extend(hit)
    return digests


def featurize(segments: str | Sequence[str], config: FeaturizerConfig) -> FeatureVector:
    """Hash the key multiset and L2-normalize the counts; empty -> zero vector.

    The keys are each segment's ``_token_keys`` and "w:tok1 tok2" bigrams,
    and every first-segment x later-segment "ptok⊗ctok" cross, each at its
    ``hash_feature`` index: the memos digest each distinct key once, and one
    ``&= dim - 1`` reduces the row's digests to indices.
    """
    idx = np.array(_row_digests(segments, {}, {}), dtype=np.int64)
    idx &= config.dim - 1
    indices, counts = np.unique(idx, return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices=indices, values=values, featurizer=config)


# Rows per block of ``featurize_batch``: the scorers' candidate batch size.
_BLOCK_ROWS = 64


def featurize_batch(
    inputs: Sequence[str | Sequence[str]], config: FeaturizerConfig
) -> list[FeatureVector]:
    """``[featurize(x, config) for x in inputs]``, bit for bit, a block at a time.

    Within a block of ``_BLOCK_ROWS`` inputs each distinct segment is
    tokenized and keyed once, and one ``&= dim - 1``, one ``np.unique`` and
    one norm pass serve every row. A row's vector does not depend on the
    other rows.
    """
    dim = config.dim
    out: list[FeatureVector] = []
    for start in range(0, len(inputs), _BLOCK_ROWS):
        segment_cache: dict = {}
        cross_cache: dict = {}
        rows = [_row_digests(x, segment_cache, cross_cache) for x in inputs[start : start + _BLOCK_ROWS]]
        lengths = [len(row) for row in rows]
        # Tag each index with its row as row * dim + index. This fits int64:
        # dim <= 2**30 keeps 64 * dim far below 2**63.
        tags = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=sum(lengths))
        tags &= dim - 1
        tags += np.repeat(np.arange(len(rows), dtype=np.int64) * dim, lengths)
        tags, counts = np.unique(tags, return_counts=True)
        row, indices = np.divmod(tags, dim)
        values = counts.astype(np.float64)
        # Integer counts: the squared sums are exact in any order, so their sqrt
        # equals np.linalg.norm of each row bit for bit. Empty rows own no entries.
        values /= np.sqrt(np.bincount(row, weights=values * values, minlength=len(rows)))[row]
        bounds = np.searchsorted(row, np.arange(len(rows) + 1)).tolist()
        out.extend(FeatureVector(indices=indices[a:b], values=values[a:b], featurizer=config)
                   for a, b in zip(bounds, bounds[1:]))
    return out


# ---------------------------------------------------------------------------
# Packed sample matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Packed:
    """CSR-style concatenation of sparse rows made by ``featurizer`` (None: no rows, no featurizer)."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    featurizer: FeaturizerConfig | None

    @property
    def n_rows(self) -> int:
        return int(self.indptr.size - 1)


# Rows per block of ``_pack`` and of an index remap, and per chunk of training
# batches (rounded down to whole batches, at least one) and block of a full
# pass, so no temporary grows with the data. On a 2-core host, 128 rows ran a
# 1,200-example news_shift grid about 5% slower, and its serial retail_shift
# grid peaked about 0.4 MB lower in resident memory.
_CHUNK_ROWS = 256


def _pack(features: Iterable[FeatureVector], featurizer: FeaturizerConfig | None) -> _Packed:
    """Pack the rows, each made by ``featurizer`` (None: the first row's) with indices in [0, dim).

    The rows are read once, ``_CHUNK_ROWS`` at a time: each block is checked,
    concatenated onto the end of the growing packed arrays and dropped, so
    those arrays are the only full copy of the rows. Zero rows pack too.
    """
    rows = iter(features)
    lengths: list[int] = []
    indices = np.empty(0, dtype=np.int64)
    values = np.empty(0, dtype=np.float64)
    stop = 0
    while block := list(islice(rows, _CHUNK_ROWS)):
        featurizer = featurizer or block[0].featurizer
        for i, fv in enumerate(block, len(lengths)):
            # Rows of one batch share their config object, so identity settles most rows.
            if fv.featurizer is not featurizer and fv.featurizer != featurizer:
                raise ValueError(f"feature row {i} was made by {fv.featurizer}, not {featurizer}")
        parts = [fv.indices for fv in block]
        lengths += map(len, parts)
        block_indices = np.concatenate(parts, dtype=np.int64)
        # A negative index reads as a huge unsigned one, so one max checks both ends.
        if block_indices.size and block_indices.view(np.uint64).max() >= featurizer.dim:
            bad = block_indices[(block_indices < 0) | (block_indices >= featurizer.dim)][0]
            raise ValueError(f"feature index {int(bad)} outside [0, {featurizer.dim})")
        block_values = np.concatenate([fv.values for fv in block], dtype=np.float64)
        start, stop = stop, stop + block_indices.size
        if not start:
            indices, values = block_indices, block_values
            continue
        if stop > indices.size:
            # A full block may have a successor, so keep an eighth spare: growing
            # then copies each entry about nine times at most, not once per block.
            spare = stop // 8 if len(block) == _CHUNK_ROWS else 0
            for array in (indices, values):
                array.resize(stop + spare, refcheck=False)  # realloc; no view of it exists
        indices[start:stop] = block_indices
        values[start:stop] = block_values
    if indices.size > stop:
        for array in (indices, values):
            array.resize(stop, refcheck=False)
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.array(lengths, dtype=np.int64), out=indptr[1:])
    return _Packed(indptr=indptr, indices=indices, values=values, featurizer=featurizer)


def _remap(packed: _Packed, lookup) -> None:
    """Replace the packed indices by ``lookup(indices)`` in place, a block of rows at a time."""
    indptr, indices = packed.indptr, packed.indices
    for start in range(0, packed.n_rows, _CHUNK_ROWS):
        block = indices[indptr[start] : indptr[min(start + _CHUNK_ROWS, packed.n_rows)]]
        block[:] = lookup(block)


def _gather(
    packed: _Packed, rows: np.ndarray, period: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[int]]:
    """Flat (sample_pos, indices, values) of ``rows`` in order, and each row's entry offset.

    An entry's sample_pos is its row's position in ``rows`` modulo
    ``period``, so a run of ``period`` rows starting at a multiple of
    ``period`` is one batch in its own row numbers: slicing the three arrays
    at its offsets gives that batch's gather as views.
    """
    starts = packed.indptr[rows]
    lengths = packed.indptr[rows + 1] - starts
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    positions = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
    sample_pos = np.repeat(np.arange(rows.size, dtype=np.int64) % period, lengths)
    gathered = sample_pos, packed.indices[positions], packed.values[positions]
    return gathered, offsets.tolist()


def _blocks(packed: _Packed) -> Iterator[tuple[slice, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Each block of ``_CHUNK_ROWS`` consecutive rows: its row slice and its gather.

    A block's indices and values are views of the packed arrays; only its
    block-local sample_pos is new.
    """
    indptr = packed.indptr
    for start in range(0, packed.n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, packed.n_rows)
        a, b = int(indptr[start]), int(indptr[stop])
        lengths = np.diff(indptr[start : stop + 1])
        sample_pos = np.repeat(np.arange(stop - start, dtype=np.int64), lengths)
        yield slice(start, stop), (sample_pos, packed.indices[a:b], packed.values[a:b])


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("learning_rate", "l2_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_penalty < 0:
            raise ValueError(f"l2_penalty must be nonnegative, got {self.l2_penalty}")
        if self.learning_rate * self.l2_penalty >= 1:
            raise ValueError(
                "learning_rate * l2_penalty must be below 1 to keep the per-batch weight "
                f"decay 1 - learning_rate * l2_penalty positive; got learning_rate="
                f"{self.learning_rate!r} and l2_penalty={self.l2_penalty!r}"
            )


@dataclass(frozen=True, eq=False)
class Model:
    """Linear head over hashed features: one weight row is logistic, K >= 2 rows a softmax.

    The model holds only its active columns: ``weights[:, j]`` is the weight
    of feature index ``columns[j]``, and every other index weighs zero.
    """

    columns: np.ndarray               # sorted unique feature indices in [0, dim)
    weights: np.ndarray               # (1 or K, len(columns))
    bias: np.ndarray                  # (1 or K,), one per weight row
    featurizer: FeaturizerConfig
    train_log: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        columns = self.columns
        if (not isinstance(columns, np.ndarray) or columns.ndim != 1
                or not np.issubdtype(columns.dtype, np.integer)):
            raise ValueError("columns must be a 1-D integer array")
        if np.any(columns[1:] <= columns[:-1]):
            raise ValueError("columns must be strictly increasing")
        if columns.size and (columns[0] < 0 or columns[-1] >= self.featurizer.dim):
            raise ValueError(f"columns must lie in [0, {self.featurizer.dim})")
        if self.weights.ndim != 2 or self.weights.shape[0] < 1:
            raise ValueError(f"weights must be 2-D with at least one row, got shape {self.weights.shape}")
        if self.weights.shape[1] != columns.size:
            raise ValueError(
                f"weight width {self.weights.shape[1]} differs from the {columns.size} columns")
        if self.bias.shape != self.weights.shape[:1]:
            raise ValueError(
                f"bias of shape {self.bias.shape} does not match the {self.weights.shape[0]} weight rows")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def head(self) -> str:
        """"binary" for one weight row, "multiclass" for more."""
        return "binary" if self.weights.shape[0] == 1 else "multiclass"

    @cached_property
    def _slots(self) -> np.ndarray:
        """Each feature index's weight column; an index outside ``columns`` reads
        column ``len(columns)``, which ``score`` holds at zero."""
        slots = np.full(self.featurizer.dim, self.columns.size, dtype=np.int32)
        slots[self.columns] = np.arange(self.columns.size, dtype=np.int32)
        return slots


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) below, over one exp(-|z|).

    ``np.minimum(z, -z)`` is -|z| that keeps a NaN's sign, so every element,
    NaN included, equals the two-branch form bit for bit.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _logits(
    weights: np.ndarray,
    bias: np.ndarray,
    gathered: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
) -> np.ndarray:
    """(n, R) logits of (R, width) weights over the gathered entries of n rows.

    The gathered indices are weight columns. The binary head is R=1, so the
    same forward, dL/dz and scatter serve every head. Each row's logit sums
    its own entries in order, so a row's logit does not depend on which
    other rows were gathered with it.
    """
    sample_pos, idx, vals = gathered
    z = np.empty((n, weights.shape[0]))
    for k in range(weights.shape[0]):
        z[:, k] = np.bincount(sample_pos, weights=vals * weights[k][idx], minlength=n)
    z += bias
    return z


def _full_logits(weights: np.ndarray, bias: np.ndarray, packed: _Packed) -> np.ndarray:
    """``_logits`` of every packed row, one ``_blocks`` block at a time."""
    z = np.empty((packed.n_rows, weights.shape[0]))
    for rows, gathered in _blocks(packed):
        z[rows] = _logits(weights, bias, gathered, rows.stop - rows.start)
    return z


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


def _mean(x: np.ndarray) -> float:
    """``np.mean(x)``, bit for bit, unless its sum overflows: then the sum of ``x / n``."""
    with np.errstate(over="ignore"):
        total = float(np.sum(x))
    return total / x.size if math.isfinite(total) else float(np.sum(x / x.size))


def _data_loss(z: np.ndarray, targets: Sequence[np.ndarray]) -> float:
    """Mean cross-entropy of the logits, summed over the target columns."""
    if z.shape[1] == 1:
        return _mean(np.logaddexp(0.0, z[:, 0]) - targets[0] * z[:, 0])
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    r = np.arange(z.shape[0])
    return sum(_mean(lse - z[r, y]) for y in targets)


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


def _label_columns(columns: dict[str, Sequence[int]], n: int, rows: int) -> list[np.ndarray]:
    """The named label columns as ``_dlogits`` reads them: floats for one weight row, else int64.

    Each must hold one integer per row inside the head's arity (2 for one
    weight row), and one weight row reads exactly one column; else a
    ValueError names the column.
    """
    if not columns or (rows == 1 and len(columns) > 1):
        raise ValueError(f"a head of {rows} weight rows cannot read {len(columns)} label columns")
    arity, targets = max(rows, 2), []
    for what, column in columns.items():
        try:
            y = np.asarray(column)
        except ValueError as exc:
            raise ValueError(f"{what} labels are not one integer per row: {exc}") from exc
        if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"{what} labels must be {n} integers, got {y.dtype} of shape {y.shape}")
        if y.min() < 0 or y.max() >= arity:
            raise ValueError(f"{what} label {int(y[(y < 0) | (y >= arity)][0])} outside head arity {arity}")
        targets.append(y.astype(np.float64 if rows == 1 else np.int64))
    return targets


def _init_params(
    featurizer: FeaturizerConfig,
    rows: int,
    warm_start: Model | None,
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The active columns a fit trains and its starting weights over them and bias.

    The active columns are the feature ``indices`` plus the warm start's
    non-zero columns; without a warm start every parameter starts at zero.
    """
    used = np.zeros(featurizer.dim, dtype=bool)
    used[indices] = True
    if warm_start is None:
        active = np.flatnonzero(used)
        return active, np.zeros((rows, active.size)), np.zeros(rows)
    if warm_start.featurizer != featurizer:
        raise ValueError(
            f"warm start featurizer {warm_start.featurizer} does not match {featurizer}")
    if warm_start.weights.shape[0] != rows:
        raise ValueError(
            f"warm start head has {warm_start.weights.shape[0]} weight rows, this head needs {rows}")
    held = np.any(warm_start.weights != 0, axis=0)
    used[warm_start.columns[held]] = True
    active = np.flatnonzero(used)
    # Assigned into fresh zeros, not copied: an unpickled array keeps a non-canonical
    # float64 dtype through copies and fancy indexing, on which np.add.at runs about
    # 20x slower.
    weights = np.zeros((rows, active.size))
    weights[:, np.searchsorted(active, warm_start.columns[held])] = warm_start.weights[:, held]
    return active, weights, warm_start.bias.astype(np.float64)


def _problem(features: Iterable[FeatureVector], featurizer: FeaturizerConfig | None,
             columns: dict[str, Sequence[int]], rows: int, start: Model | None):
    """The set-up training runs on and ``grad_check`` checks, for a head of ``rows`` weight rows.

    Returns the rows packed in ``featurizer``'s space (None: the first row's)
    with indices mapped onto ``_init_params``'s active columns, the
    ``_label_columns``, the active columns, and its own starting weights and bias.
    """
    packed = _pack(features, featurizer)
    if not packed.n_rows:
        raise ValueError("no samples")
    targets = _label_columns(columns, packed.n_rows, rows)
    active, weights, bias = _init_params(packed.featurizer, rows, start, packed.indices)
    _remap(packed, partial(np.searchsorted, active))
    return packed, targets, active, weights, bias


def _fit(
    features: Iterable[FeatureVector],
    columns: dict[str, Sequence[int]],
    config: TrainConfig,
    n_classes: int | None,
) -> Model:
    """Mini-batch descent on the summed cross-entropy of the named label columns.

    ``n_classes`` None is the logistic head, one weight row over 0/1 labels.
    Descent runs on the ``_problem`` set-up started at ``config.warm_start``.
    """
    if n_classes is not None and n_classes < 2:
        raise ValueError(f"a softmax head needs n_classes >= 2, got {n_classes}")
    packed, targets, active, weights, bias = _problem(features, None, columns, n_classes or 1,
                                                      config.warm_start)
    rng = np.random.default_rng(config.seed)
    n, batch_size = packed.n_rows, config.batch_size
    chunk_size = max(1, _CHUNK_ROWS // batch_size) * batch_size
    decay = 1.0 - config.learning_rate * config.l2_penalty
    log: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for chunk_start in range(0, n, chunk_size):
            rows = order[chunk_start : chunk_start + chunk_size]
            (sample_pos, idx, vals), offsets = _gather(packed, rows, batch_size)
            labels = [y[rows] for y in targets]
            for start in range(0, rows.size, batch_size):
                stop = min(start + batch_size, rows.size)
                a, b = offsets[start], offsets[stop]
                gathered = sample_pos[a:b], idx[a:b], vals[a:b]
                z = _logits(weights, bias, gathered, stop - start)
                g = _dlogits(z, [y[start:stop] for y in labels]) / (stop - start)
                if config.l2_penalty:
                    weights *= decay
                _scatter(weights, gathered, g, -config.learning_rate)
                bias -= config.learning_rate * g.sum(axis=0)
        log.append(_data_loss(_full_logits(weights, bias, packed), targets))
    return Model(active, weights, bias, packed.featurizer, train_log=tuple(log))


def train(
    features: Iterable[FeatureVector],
    labels: Sequence[int],
    config: TrainConfig,
    n_classes: int | None = None,
) -> Model:
    """Mini-batch gradient descent on mean cross-entropy plus L2.

    ``n_classes`` None trains the logistic head on 0/1 labels; an integer
    >= 2 trains a softmax over that many classes. ``labels`` holds one
    integer per row inside that arity, or a ValueError names the column.
    ``features`` is any iterable of rows, read once as they are packed. The
    model records the featurizer that made the first row, and every row
    must share it. Every head trains through one kernel: ``_logits``
    forward, ``_dlogits`` for dL/dz and ``_scatter`` into the weights;
    ``_loss_and_grad`` (and so ``grad_check``) runs the same three. The L2
    penalty enters as per-batch multiplicative weight decay, which is
    exactly gradient descent on meanCE + (l2/2)*||w||^2; the bias is not
    decayed. Descent and decay run on the active columns only, those the
    samples touch or the warm start holds non-zero, and the model holds
    only those: every other column is exactly zero, as under full decay.
    ``train_log`` records the full-dataset mean cross-entropy per epoch.
    ``config.warm_start`` initializes from a prior model with as many weight
    rows and the same featurizer (fine-tuning); otherwise parameters start
    at zero.
    """
    return _fit(features, {"training": labels}, config, n_classes)


def train_joint(
    features: Iterable[FeatureVector],
    pre_labels: Sequence[int],
    post_labels: Sequence[int],
    config: TrainConfig,
    n_classes: int,
) -> Model:
    """Minimize CE(prediction, pre label) + CE(prediction, post label).

    One shared softmax head over ``n_classes`` >= 2 serves both terms, so
    the per-logit gradient is 2*softmax - onehot(pre) - onehot(post).
    ``train_log`` records the summed two-term mean cross-entropy per epoch.
    """
    if n_classes is None:
        raise ValueError("joint training needs n_classes >= 2")
    columns = {"pre-shift": pre_labels, "post-shift": post_labels}
    return _fit(features, columns, config, n_classes)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score(model: Model, features: Iterable[FeatureVector]) -> np.ndarray:
    """Probabilities of the rows: (n,) for the binary head, (n, K) rows summing to 1 otherwise.

    The rows are packed, their feature indices mapped to weight columns
    through the model's cached lookup (an index outside ``model.columns``
    reads one zero column, so every logit keeps its terms), and run through
    the training forward ``_logits`` in blocks of ``_CHUNK_ROWS`` consecutive
    rows, whose indices and values are views of the packed arrays; a row's
    probability does not depend on the other rows of the call.
    """
    packed = _pack(features, model.featurizer)
    _remap(packed, model._slots.__getitem__)
    weights = np.zeros((model.weights.shape[0], model.columns.size + 1))
    weights[:, :-1] = model.weights
    z = _full_logits(weights, model.bias, packed)
    return _sigmoid(z[:, 0]) if model.head == "binary" else _softmax(z)


def make_binary_scorer(model: Model):
    """Adapt a binary model to the scorer interface: candidate batch -> probabilities."""
    if model.head != "binary":
        raise ValueError("scorer adapter requires a binary head")
    return lambda batch: score(model, featurize_batch([c.segments for c in batch], model.featurizer))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def _loss_and_grad(weights: np.ndarray, bias: np.ndarray, packed: _Packed,
                   targets: Sequence[np.ndarray], l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The mean data loss plus (l2/2)*||w||^2, its weight gradient and its bias gradient.

    ``packed`` and ``targets`` are a ``_problem`` set-up's rows and label
    columns. The gradient is the one a full-batch training step applies: the
    same forward, dL/dz and scatter, here into zeros with scale 1.
    """
    z = _full_logits(weights, bias, packed)
    g = _dlogits(z, targets) / packed.n_rows
    grad_w = np.zeros(weights.shape)
    for rows, gathered in _blocks(packed):
        _scatter(grad_w, gathered, g[rows], 1.0)
    grad_w += l2 * weights
    loss = _data_loss(z, targets) + 0.5 * l2 * float(np.sum(weights**2))
    return loss, grad_w, g.sum(axis=0)


def grad_check(
    model: Model,
    features: Iterable[FeatureVector],
    labels: Sequence[Sequence[int]],
    epsilon: float = 1e-5,
    n_coords: int = 20,
    l2: float = 0.0,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    It checks the ``_problem`` set-up a fit warm-started from ``model``
    trains on (label columns named "column 0", ...), and ``_loss_and_grad``
    runs the training kernel, so this checks the gradient the optimizer
    applies. Coordinates are sampled from the samples' feature support plus
    the bias entries, so every checked coordinate carries signal. The
    differences perturb the set-up's own weights and bias, not ``model``.
    """
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    columns = {f"column {i}": y for i, y in enumerate(labels)}
    packed, targets, _, weights, bias = _problem(features, model.featurizer, columns,
                                                 model.weights.shape[0], model)
    _, grad_w, grad_b = _loss_and_grad(weights, bias, packed, targets, l2)

    support = np.unique(packed.indices)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, support.size, size=max(n_coords, 1)) if support.size else []
    coords = [(weights, grad_w, (int(rng.integers(0, weights.shape[0])), int(support[pick])))
              for pick in picks]
    coords += [(bias, grad_b, (b,)) for b in range(bias.size)]

    max_rel = 0.0
    for array, grad, where in coords:
        original = array[where]
        array[where] = original + epsilon
        up, _, _ = _loss_and_grad(weights, bias, packed, targets, l2)
        array[where] = original - epsilon
        down, _, _ = _loss_and_grad(weights, bias, packed, targets, l2)
        array[where] = original
        fd = (up - down) / (2.0 * epsilon)
        max_rel = max(max_rel, abs(grad[where] - fd) / max(abs(grad[where]) + abs(fd), 1e-8))
    return max_rel
