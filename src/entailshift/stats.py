"""Scoring and significance: macro-F1, seed aggregation, Mann-Whitney U.

Per-class F1 uses the zero convention: a class with no true positives and
no false anything scores 0, and zero-support classes still count toward the
unweighted macro mean (a constant predictor on a balanced 4-class test set
therefore scores 0.10, not 0.40).

The Mann-Whitney U test handles ties by midranks. The pooled sample size
picks the p-value branch, with no option to override it: up to
``EXACT_ENUMERATION_LIMIT`` (12) pooled values, the two-sided p-value is
computed by exact enumeration of all group assignments; larger samples use
the normal approximation with tie and continuity corrections. Midranks are
kept in doubled integer form so the exact branch never compares floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .corpus import LabelSet

EXACT_ENUMERATION_LIMIT = 12


# ---------------------------------------------------------------------------
# Confusion and F1
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts indexed (gold, predicted) over one label set."""

    counts: np.ndarray
    label_set: LabelSet

    def __post_init__(self) -> None:
        k = len(self.label_set)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} matrix, got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("confusion counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(
    gold: Sequence[str], predicted: Sequence[str], labels: LabelSet
) -> ConfusionMatrix:
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels vs {len(predicted)} predictions")
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for g, p in zip(gold, predicted):
        counts[labels.index(g), labels.index(p)] += 1
    return ConfusionMatrix(counts=counts, label_set=labels)


def per_class_f1(confusion: ConfusionMatrix) -> np.ndarray:
    """F1 per label; 0 whenever the class has no gold or predicted mass."""
    counts = confusion.counts
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    out = np.zeros(len(confusion.label_set))
    mask = denom > 0
    out[mask] = 2 * tp[mask] / denom[mask]
    return out


def macro_f1(confusion: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over the full label set."""
    if confusion.total == 0:
        raise ValueError("cannot score an empty confusion matrix")
    return float(per_class_f1(confusion).mean())


# ---------------------------------------------------------------------------
# Per-run scores and aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunScore:
    """One (method, budget, seed) cell of the experiment grid."""

    method: str
    budget: str
    seed: int
    macro_f1: float
    per_class_f1: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_class_f1", tuple(self.per_class_f1))
        if not 0.0 <= self.macro_f1 <= 1.0:
            raise ValueError(f"macro_f1 must be in [0, 1], got {self.macro_f1}")
        if self.per_class_f1:
            mean = sum(self.per_class_f1) / len(self.per_class_f1)
            if abs(mean - self.macro_f1) > 1e-9:
                raise ValueError(
                    f"macro_f1 {self.macro_f1} is not the mean of per_class_f1 ({mean})"
                )


@dataclass(frozen=True)
class Aggregate:
    """Mean and sample standard deviation of one grid group."""

    mean: float
    std: float | None          # None when only one seed was run
    count: int


def aggregate(values: Sequence[float]) -> Aggregate:
    """Arithmetic mean and (n-1)-denominator standard deviation."""
    if len(values) == 0:
        raise ValueError("cannot aggregate an empty group")
    vals = np.asarray(values, dtype=np.float64)
    mean = float(vals.mean())
    if vals.size == 1:
        return Aggregate(mean=mean, std=None, count=1)
    std = float(math.sqrt(float(((vals - mean) ** 2).sum()) / (vals.size - 1)))
    return Aggregate(mean=mean, std=std, count=int(vals.size))


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    p_two_sided: float
    method: str                 # "exact" | "normal"


def _doubled_midranks(pooled: np.ndarray) -> np.ndarray:
    """Two times the midrank of every pooled element, as exact integers.

    A tie group of size t following s smaller elements occupies ranks
    s+1 .. s+t, whose midrank is s + (t+1)/2; doubling gives the integer
    2s + t + 1.
    """
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    smaller = np.cumsum(counts) - counts
    return (2 * smaller + counts + 1)[inverse]


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test of samples ``a`` and ``b``.

    U is oriented to ``a``: the number of (a_i, b_j) pairs with a_i > b_j,
    counting ties as half. When |a| + |b| <= ``EXACT_ENUMERATION_LIMIT`` the
    p-value enumerates all C(n, |a|) group assignments ("exact"); otherwise
    it is the tie-corrected normal approximation with continuity correction
    ("normal"). ``MannWhitneyResult.method`` names the branch that ran.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.size == 0 or b_arr.size == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = int(a_arr.size), int(b_arr.size)
    n = n_a + n_b
    pooled = np.concatenate([a_arr, b_arr])
    doubled = _doubled_midranks(pooled)

    # In doubled units: U2 = 2U = sum of doubled ranks of a minus n_a(n_a+1).
    u2 = int(doubled[:n_a].sum()) - n_a * (n_a + 1)
    u = u2 / 2.0

    if n <= EXACT_ENUMERATION_LIMIT:
        d = [int(x) for x in doubled]
        base = n_a * (n_a + 1)
        less = more = total = 0
        for subset in combinations(range(n), n_a):
            u2_s = sum(d[i] for i in subset) - base
            total += 1
            less += u2_s <= u2
            more += u2_s >= u2
        p = min(1.0, 2.0 * min(less / total, more / total))
        return MannWhitneyResult(u=u, p_two_sided=p, method="exact")

    mu = n_a * n_b / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum())
    variance = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        # Every pooled value identical: no evidence of any difference.
        return MannWhitneyResult(u=u, p_two_sided=1.0, method="normal")
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(variance)
    p = math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(u=u, p_two_sided=min(1.0, p), method="normal")
