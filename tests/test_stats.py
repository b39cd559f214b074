"""Scoring and significance machinery against independent oracles."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailshift.corpus import LabelSet
from entailshift.stats import (
    Aggregate,
    ConfusionMatrix,
    MannWhitneyResult,
    RunScore,
    aggregate,
    confusion_from_predictions,
    macro_f1,
    mann_whitney_u,
    per_class_f1,
)

BINARY = LabelSet(("relevant", "irrelevant"))
FOURWAY = LabelSet(("exact", "substitute", "complement", "irrelevant"))


class TestMacroF1:
    def test_perfect_predictions(self):
        gold = ["exact", "substitute", "complement", "irrelevant"] * 5
        cm = confusion_from_predictions(gold, gold, FOURWAY)
        assert macro_f1(cm) == 1.0

    def test_constant_predictor_balanced_binary_is_one_third(self):
        gold = ["relevant"] * 50 + ["irrelevant"] * 50
        pred = ["relevant"] * 100
        cm = confusion_from_predictions(gold, pred, BINARY)
        assert abs(macro_f1(cm) - 1 / 3) < 1e-12

    def test_constant_predictor_balanced_fourway_is_ten_percent(self):
        gold = [label for label in FOURWAY for _ in range(25)]
        pred = ["exact"] * 100
        cm = confusion_from_predictions(gold, pred, FOURWAY)
        assert abs(macro_f1(cm) - 0.10) < 1e-12

    def test_hand_built_two_by_two(self):
        """counts [[3,1],[2,4]]: class 0 has TP=3, FN=1, FP=2 so F1=6/9;
        class 1 has TP=4, FN=2, FP=1 so F1=8/11; macro = 23/33."""
        cm = ConfusionMatrix(counts=np.array([[3, 1], [2, 4]]), label_set=BINARY)
        np.testing.assert_allclose(per_class_f1(cm), [6 / 9, 8 / 11], atol=1e-12)
        assert abs(macro_f1(cm) - 23 / 33) < 1e-12

    @pytest.mark.parametrize("counts, message", [
        (np.zeros((2, 3), dtype=int), r"expected a 2x2 matrix, got \(2, 3\)"),
        (np.zeros(4, dtype=int), r"expected a 2x2 matrix, got \(4,\)"),
        (np.array([[3, -1], [0, 2]]), "confusion counts must be nonnegative"),
    ], ids=["wide", "flat", "negative"])
    def test_malformed_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ConfusionMatrix(counts=counts, label_set=BINARY)

    def test_empty_confusion_rejected(self):
        cm = ConfusionMatrix(counts=np.zeros((2, 2), dtype=int), label_set=BINARY)
        with pytest.raises(ValueError, match="empty"):
            macro_f1(cm)

    def test_zero_support_class_counts_as_zero(self):
        gold = ["relevant"] * 10
        pred = ["relevant"] * 10
        cm = confusion_from_predictions(gold, pred, BINARY)
        np.testing.assert_allclose(per_class_f1(cm), [1.0, 0.0])
        assert abs(macro_f1(cm) - 0.5) < 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        gold = [BINARY.labels[i] for i in rng.integers(0, 2, size=60)]
        pred = [BINARY.labels[i] for i in rng.integers(0, 2, size=60)]
        base = macro_f1(confusion_from_predictions(gold, pred, BINARY))
        order = rng.permutation(60)
        shuffled = macro_f1(
            confusion_from_predictions(
                [gold[i] for i in order], [pred[i] for i in order], BINARY
            )
        )
        assert shuffled == base

    def test_relabeling_permutes_per_class_but_keeps_macro(self):
        rng = np.random.default_rng(1)
        gold = [FOURWAY.labels[i] for i in rng.integers(0, 4, size=80)]
        pred = [FOURWAY.labels[i] for i in rng.integers(0, 4, size=80)]
        base_cm = confusion_from_predictions(gold, pred, FOURWAY)
        perm = {"exact": "substitute", "substitute": "complement",
                "complement": "irrelevant", "irrelevant": "exact"}
        renamed_cm = confusion_from_predictions(
            [perm[g] for g in gold], [perm[p] for p in pred], FOURWAY
        )
        assert sorted(per_class_f1(base_cm)) == pytest.approx(sorted(per_class_f1(renamed_cm)))
        assert macro_f1(base_cm) == pytest.approx(macro_f1(renamed_cm), abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="gold"):
            confusion_from_predictions(["relevant"], [], BINARY)


class TestRunScore:
    def test_macro_must_equal_mean_of_per_class(self):
        RunScore("m", "10", 0, macro_f1=0.5, per_class_f1=(0.4, 0.6))
        with pytest.raises(ValueError, match="mean"):
            RunScore("m", "10", 0, macro_f1=0.9, per_class_f1=(0.4, 0.6))

    def test_range_check(self):
        with pytest.raises(ValueError, match="macro_f1"):
            RunScore("m", "10", 0, macro_f1=1.5, per_class_f1=())


class TestAggregate:
    def test_identical_scores_have_zero_std(self):
        agg = aggregate([0.1, 0.1, 0.1, 0.1, 0.1])
        assert agg == Aggregate(mean=0.1, std=0.0, count=5)

    def test_two_point_formula(self):
        agg = aggregate([0.2, 0.4])
        assert abs(agg.mean - 0.3) < 1e-15
        assert abs(agg.std - math.sqrt(0.02)) < 1e-15

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            vals = rng.random(5)
            agg = aggregate(vals)
            mean = sum(vals) / 5
            var = sum((v - mean) ** 2 for v in vals) / 4
            assert abs(agg.mean - mean) < 1e-12
            assert abs(agg.std - math.sqrt(var)) < 1e-12

    def test_singleton_flags_undefined_std(self):
        agg = aggregate([0.42])
        assert agg.mean == 0.42 and agg.std is None and agg.count == 1

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])


def oracle_mwu(a: list[float], b: list[float]) -> tuple[float, float]:
    """Brute-force reference: U by direct pair counting, p by enumerating
    every assignment of pooled values to a group of size |a|."""
    pooled = list(a) + list(b)
    n = len(pooled)
    n_a = len(a)

    def u_of(positions: tuple[int, ...]) -> float:
        inside = set(positions)
        group_a = [pooled[i] for i in positions]
        group_b = [pooled[i] for i in range(n) if i not in inside]
        return sum(
            1.0 if x > y else (0.5 if x == y else 0.0) for x in group_a for y in group_b
        )

    observed = u_of(tuple(range(n_a)))
    us = [u_of(c) for c in combinations(range(n), n_a)]
    p_le = sum(u <= observed for u in us) / len(us)
    p_ge = sum(u >= observed for u in us) / len(us)
    return observed, min(1.0, 2.0 * min(p_le, p_ge))


small_sample = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=5
)


class TestMannWhitneyU:
    def test_separated_anchor(self):
        """a entirely below b: U = 0, and among C(6,3) = 20 assignments only
        the observed one is as extreme, so two-sided p = 2/20 = 0.1."""
        result = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert result.u == 0.0
        assert abs(result.p_two_sided - 0.1) < 1e-15
        assert result.method == "exact"

    def test_identical_samples_are_null(self):
        result = mann_whitney_u([0.5, 0.7, 0.9], [0.5, 0.7, 0.9])
        assert result.p_two_sided == 1.0

    def test_all_tied_values(self):
        exact = mann_whitney_u([1, 1], [1, 1, 1])
        assert exact.u == 2 * 3 / 2
        assert exact.p_two_sided == 1.0
        normal = mann_whitney_u([1] * 10, [1] * 10)
        assert normal.p_two_sided == 1.0

    @settings(max_examples=60, deadline=None)
    @given(a=small_sample, b=small_sample)
    def test_exact_branch_matches_enumeration_oracle(self, a, b):
        result = mann_whitney_u(a, b)
        oracle_u, oracle_p = oracle_mwu(a, b)
        assert result.u == oracle_u
        assert abs(result.p_two_sided - oracle_p) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=small_sample, b=small_sample)
    def test_complement_identity(self, a, b):
        ab = mann_whitney_u(a, b)
        ba = mann_whitney_u(b, a)
        assert ab.u + ba.u == len(a) * len(b)

    @settings(max_examples=60, deadline=None)
    @given(a=small_sample, b=small_sample)
    def test_exact_p_is_symmetric_and_in_range(self, a, b):
        ab = mann_whitney_u(a, b)
        ba = mann_whitney_u(b, a)
        assert abs(ab.p_two_sided - ba.p_two_sided) < 1e-12
        assert 0.0 < ab.p_two_sided <= 1.0

    def test_branches_agree_on_moderate_samples(self):
        """Just past the enumeration limit (7 + 6 values) the normal branch
        runs, and its p-value stays close to the exact one."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = list(rng.normal(size=7))
            b = list(rng.normal(loc=rng.uniform(0, 1), size=6))
            approx = mann_whitney_u(a, b)
            assert approx.method == "normal"
            assert abs(oracle_mwu(a, b)[1] - approx.p_two_sided) < 0.02

    def test_auto_switches_at_the_enumeration_limit(self):
        small = mann_whitney_u([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12])
        big = mann_whitney_u([1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13])
        assert small.method == "exact"
        assert big.method == "normal"

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            mann_whitney_u([], [1.0])
