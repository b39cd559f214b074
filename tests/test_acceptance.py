"""Acceptance suite: one check, one printed pass/fail line, per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Criteria 1-5 and 9 are exact or oracle-equivalence checks; 6-8 assert the
direction of effects on controlled synthetic shifts; 10 checks determinism
of the full experiment pipeline. Each check also enforces its runtime budget.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from entailshift.cli import main as cli_main
from entailshift.corpus import Dataset, Example, LabelSet, fewshot_sample, split
from entailshift.experiment import ExperimentConfig, run_experiment
from entailshift.methods import MethodSpec, run_method
from entailshift.model import (
    FeatureVector,
    FeaturizerConfig,
    Model,
    TrainConfig,
    featurize,
    grad_check,
    make_binary_scorer,
    train,
)
from entailshift.prompts import PromptCatalog, builtin_catalog
from entailshift.reformulate import (
    Candidate,
    augment_dataset,
    export_augmented,
    export_scores,
    import_augmented,
    import_scores,
    predict_dataset,
    predict_from_scores,
)
from entailshift.stats import aggregate, confusion_from_predictions, macro_f1, mann_whitney_u
from entailshift.synth import preset_config, synth_generate


def check(number: int, description: str, ok: bool, elapsed: float, budget_s: float) -> None:
    within = elapsed < budget_s
    status = "PASS" if (ok and within) else "FAIL"
    print(f"[{status}] criterion {number:02d} ({description}) "
          f"[{elapsed:.1f}s / {budget_s:.0f}s budget]")
    assert ok, f"criterion {number} failed: {description}"
    assert within, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def catalog_for(labels: tuple[str, ...]) -> PromptCatalog:
    return PromptCatalog(
        catalog_id=f"adhoc-{len(labels)}",
        language="en",
        remained_template="remained {label}",
        changed_to_template="changed to {label}",
        label_surface={label: label.replace("_", " ") for label in labels},
    )


def random_dataset(rng: np.random.Generator, n: int, k: int, two_segment: bool) -> Dataset:
    labels = LabelSet(tuple(f"label{i}" for i in range(k)))
    vocab = [f"tok{i}" for i in range(40)]
    examples = []
    for i in range(n):
        length = int(rng.integers(1, 20))
        text_a = " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab), size=length))
        text_b = None
        if two_segment:
            blen = int(rng.integers(1, 12))
            text_b = " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab), size=blen))
        examples.append(Example(
            id=f"r{i}",
            text_a=text_a,
            text_b=text_b,
            pre_label=labels.labels[int(rng.integers(0, k))],
            post_label=labels.labels[int(rng.integers(0, k))],
        ))
    return Dataset(examples=tuple(examples), pre_labels=labels, post_labels=labels)


class TestAcceptance:
    def test_criterion_01_augmentation_laws(self):
        started = time.perf_counter()
        rng = np.random.default_rng(11)
        sizes = {2: 1000, 3: 640, 4: 357, 6: 99}
        ok = True
        for k, n in sizes.items():
            dataset = random_dataset(rng, n, k, two_segment=(k % 2 == 0))
            catalog = catalog_for(dataset.post_labels.labels)
            plain = augment_dataset(dataset, catalog, oversample=False)
            boosted = augment_dataset(dataset, catalog, oversample=True)
            ok &= len(plain) == k * n
            ok &= sum(s.binary_label for s in plain) == n
            ok &= len(boosted) == (k + 1) * n
            ok &= sum(s.binary_label for s in boosted) == 2 * n
        check(1, "K*n and (K+1)*n augmentation counts", ok,
              time.perf_counter() - started, 5.0)

    def test_criterion_02_majority_anchors(self):
        started = time.perf_counter()
        results = []
        for k, expected in ((2, 33.33), (4, 10.00)):
            labels = LabelSet(tuple(f"c{i}" for i in range(k)))
            test = Dataset(
                examples=tuple(
                    Example(id=f"t{label}{i}", text_a=f"text {i}",
                            pre_label=labels.labels[0], post_label=label)
                    for label in labels for i in range(30)
                ),
                pre_labels=labels, post_labels=labels,
            )
            train_ds = Dataset(
                examples=tuple(
                    Example(id=f"s{i}", text_a="text", pre_label=labels.labels[0],
                            post_label=labels.labels[0])
                    for i in range(9)
                ),
                pre_labels=labels, post_labels=labels,
            )
            predictions = run_method(MethodSpec(kind="majority"), train_ds, train_ds, test)
            confusion = confusion_from_predictions(
                [ex.post_label for ex in test], [predictions[ex.id] for ex in test], labels)
            results.append(abs(macro_f1(confusion) * 100 - expected) <= 0.01)
        check(2, "constant predictor scores 33.33 / 10.00", all(results),
              time.perf_counter() - started, 1.0)

    def test_criterion_03_argmax_reduction_oracle(self):
        started = time.perf_counter()
        catalog = builtin_catalog("en-retail")
        labels = LabelSet(catalog.labels)

        def quantized_scorer(text: str) -> float:
            import hashlib
            digest = hashlib.md5(text.encode("utf-8")).digest()
            return (digest[0] % 5) / 4.0            # coarse grid forces ties

        rng = np.random.default_rng(5)
        agreed = 0
        ties_seen = 0
        total = 200
        for i in range(total):
            two_segment = i >= 100
            ds = random_dataset(rng, 1, 4, two_segment)
            example = Example(
                id=f"o{i}", text_a=ds.examples[0].text_a, text_b=ds.examples[0].text_b,
                pre_label=str(rng.choice(catalog.labels)),
                post_label=catalog.labels[0],
            )
            one = Dataset(examples=(example,), pre_labels=labels, post_labels=labels)
            fast = predict_dataset(lambda cs: [quantized_scorer(c.input_text) for c in cs],
                                   one, catalog)[example.id]
            contents = (example.text_a,) + ((example.text_b,) if two_segment else ())
            scores = [
                quantized_scorer(Candidate(example.id, k, (
                    catalog.render(label, pre_label=example.pre_label), *contents)).input_text)
                for k, label in enumerate(labels, start=1)
            ]
            best = max(scores)
            if sum(score == best for score in scores) > 1:
                ties_seen += 1
            brute = labels.labels[int(np.argmax(scores))]
            agreed += fast == brute
        ok = agreed == total and ties_seen > 0
        check(3, f"argmax reduction agrees 200/200 with {ties_seen} tie cases", ok,
              time.perf_counter() - started, 5.0)

    def test_criterion_04_gradient_correctness(self):
        started = time.perf_counter()
        feat = FeaturizerConfig(dim=2**12)
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(50):
            head = ("binary", "multiclass", "joint")[trial % 3]
            n = int(rng.integers(3, 10))
            features = []
            for _ in range(n):
                nnz = int(rng.integers(2, 12))
                indices = np.sort(rng.choice(feat.dim, size=nnz, replace=False)).astype(np.int64)
                features.append(FeatureVector(
                    indices=indices, values=rng.normal(size=nnz), featurizer=feat))
            k = int(rng.integers(2, 5))
            if head == "binary":
                model = Model(columns=np.arange(feat.dim),
                              weights=rng.normal(size=(1, feat.dim)) * 0.5,
                              bias=rng.normal(size=1), featurizer=feat)
                labels = [list(rng.integers(0, 2, size=n))]
            else:
                model = Model(columns=np.arange(feat.dim),
                              weights=rng.normal(size=(k, feat.dim)) * 0.5,
                              bias=rng.normal(size=k), featurizer=feat)
                labels = [list(rng.integers(0, k, size=n))]
                if head == "joint":
                    labels.append(list(rng.integers(0, k, size=n)))
            err = grad_check(model, features, labels, epsilon=1e-5, n_coords=20,
                             l2=float(rng.choice([0.0, 1e-4])), seed=trial)
            worst = max(worst, err)
        check(4, f"analytic vs central-difference gradients (max rel err {worst:.2e})",
              worst < 1e-4, time.perf_counter() - started, 30.0)

    def test_criterion_05_statistics_oracles(self):
        started = time.perf_counter()

        def oracle(a: list[float], b: list[float]) -> tuple[float, float]:
            pooled = list(a) + list(b)
            n, n_a = len(pooled), len(a)
            def u_of(index_set: frozenset[int]) -> float:
                left = [pooled[i] for i in index_set]
                right = [pooled[i] for i in range(n) if i not in index_set]
                return sum((x > y) + 0.5 * (x == y) for x in left for y in right)
            observed = u_of(frozenset(range(n_a)))
            us = [u_of(frozenset(c)) for c in itertools.combinations(range(n), n_a)]
            p_le = sum(u <= observed + 1e-9 for u in us)
            p_ge = sum(u >= observed - 1e-9 for u in us)
            return observed, min(1.0, 2 * min(p_le, p_ge) / len(us))

        rng = np.random.default_rng(23)
        ok = True
        for n_a in range(1, 10):
            for n_b in range(1, 11 - n_a):
                for tied in (False, True):
                    if tied:
                        a = [float(v) for v in rng.integers(0, 3, size=n_a)]
                        b = [float(v) for v in rng.integers(0, 3, size=n_b)]
                    else:
                        pool = rng.permutation(np.arange(n_a + n_b, dtype=float) * 1.7 + 0.3)
                        a, b = list(pool[:n_a]), list(pool[n_a:])
                    mine = mann_whitney_u(a, b)
                    u_ref, p_ref = oracle(a, b)
                    ok &= mine.method == "exact"
                    ok &= abs(mine.u - u_ref) < 1e-9
                    ok &= abs(mine.p_two_sided - p_ref) < 1e-12
                    ok &= abs(mine.p_two_sided - mann_whitney_u(b, a).p_two_sided) < 1e-12
                    ok &= abs(mine.u + mann_whitney_u(b, a).u - n_a * n_b) < 1e-9
        anchor = mann_whitney_u([1, 2, 3], [4, 5, 6])
        ok &= anchor.method == "exact" and abs(anchor.p_two_sided - 0.1) < 1e-15

        for _ in range(200):
            values = rng.normal(size=int(rng.integers(2, 50))) * 3.0
            agg = aggregate(values)
            mean_ref = sum(float(v) for v in values) / len(values)
            var_ref = sum((float(v) - mean_ref) ** 2 for v in values) / (len(values) - 1)
            ok &= abs(agg.mean - mean_ref) < 1e-12
            ok &= abs(agg.std - math.sqrt(var_ref)) < 1e-12
        check(5, "rank-test enumeration + two-pass aggregate oracles", ok,
              time.perf_counter() - started, 60.0)

    def test_criterion_06_catastrophic_drop(self):
        started = time.perf_counter()
        ok = True
        details = []
        for seed in range(5):
            ds = synth_generate(preset_config("total_flip", n_per_topic=150), seed=seed)
            train_ds, test_ds = split(ds, test_fraction=0.25, seed=seed)
            pre_spec = MethodSpec(kind="pre_shift_only", train_config=TrainConfig(seed=seed))
            tune_spec = MethodSpec(kind="finetuned", train_config=TrainConfig(seed=seed))
            scores = {}
            for name, spec in (("pre", pre_spec), ("tuned", tune_spec)):
                predictions = run_method(spec, train_ds, train_ds, test_ds)
                confusion = confusion_from_predictions(
                    [ex.post_label for ex in test_ds],
                    [predictions[ex.id] for ex in test_ds],
                    test_ds.post_labels,
                )
                scores[name] = macro_f1(confusion) * 100
            details.append((scores["pre"], scores["tuned"]))
            ok &= scores["pre"] < 20.0 and scores["tuned"] > 90.0
        worst_pre = max(d[0] for d in details)
        worst_tuned = min(d[1] for d in details)
        check(6, f"total flip: pre_shift_only <=20 (worst {worst_pre:.1f}), "
                 f"finetuned full >90 (worst {worst_tuned:.1f})",
              ok, time.perf_counter() - started, 120.0)

    @pytest.mark.slow
    def test_criterion_07_fewshot_advantage_trend(self):
        started = time.perf_counter()
        config = ExperimentConfig.from_dict({
            "name": "fewshot-trend",
            "master_seed": 0,
            "data": {"synth": {"preset": "retail_shift"}},
            "methods": [
                {"kind": "entail", "catalog_id": "en-retail"},
                {"kind": "finetuned"},
            ],
            "budgets": [10, 100, 1000, "full"],
            "seeds": 5,
            "output_dir": "unused",
        })
        # Grid outputs do not depend on the worker count; two workers halve
        # this test's time and put a full-budget grid through the pool.
        result = run_experiment(config, workers=2)
        assert not result.failures, result.failures
        gaps = []
        for label in result.budget_labels:
            entail_mean = result.aggregates[("entail_informative", label)].mean
            tuned_mean = result.aggregates[("finetuned", label)].mean
            gaps.append(entail_mean - tuned_mean)
        violations = sum(gaps[i + 1] > gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        gap_text = ", ".join(f"{g * 100:+.1f}" for g in gaps)
        ok = gaps[0] >= 0.05 and violations <= 1
        check(7, f"N=10 advantage {gaps[0] * 100:.1f} pts, gap trail [{gap_text}], "
                 f"{violations} non-monotone step(s)",
              ok, time.perf_counter() - started, 600.0)

    @pytest.mark.slow
    def test_criterion_08_random_prompt_variance(self):
        started = time.perf_counter()
        wins = 0
        stds = []
        for run in range(5):
            config = ExperimentConfig.from_dict({
                "name": f"variance-{run}",
                "master_seed": run,
                "data": {"synth": {"preset": "retail_shift"}},
                "methods": [
                    {"kind": "entail", "catalog_id": "en-retail"},
                    {"kind": "entail", "catalog_id": "en-retail", "prompt_variant": "random"},
                ],
                "budgets": [10],
                "seeds": 5,
                "output_dir": "unused",
            })
            result = run_experiment(config)
            assert not result.failures, result.failures
            informative = result.aggregates[("entail_informative", "10")].std
            random_std = result.aggregates[("entail_random", "10")].std
            stds.append((informative, random_std))
            wins += random_std >= informative
        pairs = "; ".join(f"{r * 100:.1f}>={i * 100:.1f}" if r >= i else f"{r * 100:.1f}<{i * 100:.1f}"
                          for i, r in stds)
        check(8, f"random-prompt std >= informative std in {wins}/5 runs ({pairs})",
              wins >= 4, time.perf_counter() - started, 600.0)

    def test_criterion_09_bridge_round_trip(self, tmp_path):
        started = time.perf_counter()
        ds = synth_generate(preset_config("retail_shift", n_per_topic=125), seed=9)
        catalog = builtin_catalog("en-retail")
        few = fewshot_sample(ds, 100, seed=0)
        aug_train = augment_dataset(few, catalog, seed=0)
        feat = FeaturizerConfig(dim=2**16)
        features = [featurize(s.segments, feat) for s in aug_train]
        model = train(features, [s.binary_label for s in aug_train],
                      TrainConfig(epochs=10, seed=0))
        scorer = make_binary_scorer(model)

        in_process = predict_dataset(scorer, ds, catalog)

        candidates = augment_dataset(ds, catalog, oversample=False)
        export_path = tmp_path / "candidates.jsonl"
        export_augmented(candidates, export_path)
        imported = import_augmented(export_path)
        scores = dict(zip(((s.source_id, s.candidate_index) for s in imported), scorer(imported)))
        scores_path = tmp_path / "scores.jsonl"
        export_scores(scores, scores_path)
        bridged = predict_from_scores(import_scores(scores_path), ds.examples, ds.post_labels)
        ok = len(ds.examples) == 500 and bridged == in_process
        check(9, "export -> self-score -> import reproduces 500 predictions", ok,
              time.perf_counter() - started, 10.0)

    @pytest.mark.slow
    def test_criterion_10_full_matrix_determinism(self, tmp_path):
        started = time.perf_counter()
        import json
        config = {
            "name": "determinism",
            "master_seed": 4,
            "data": {"synth": {"preset": "retail_shift", "overrides": {"n_per_topic": 100}}},
            "methods": [
                {"kind": "majority"},
                {"kind": "finetuned"},
                {"kind": "entail", "catalog_id": "en-retail"},
            ],
            "budgets": [10, "full"],
            "seeds": 3,
            "output_dir": str(tmp_path / "results"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        runner = CliRunner()
        first = runner.invoke(cli_main, ["experiment", "--config", str(config_path)])
        assert first.exit_code == 0, first.output
        grid_path = tmp_path / "results" / "raw_grid.csv"
        first_bytes = grid_path.read_bytes()
        second = runner.invoke(cli_main, ["experiment", "--config", str(config_path)])
        assert second.exit_code == 0, second.output
        ok = grid_path.read_bytes() == first_bytes and len(first_bytes) > 0
        check(10, "repeated experiment runs emit identical raw grids", ok,
              time.perf_counter() - started, 900.0)
