"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` times each layer by replacing the module attribute
the pipeline calls it through, so a renamed function or a call that bypasses
that attribute silently drops a layer from the benchmark. This runs two
methods under the tracer, loaded unchanged from its file, and checks that
every wrapped layer exists and is reached.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from entailshift import methods
from entailshift.corpus import fewshot_sample, split
from entailshift.model import TrainConfig
from entailshift.synth import preset_config, synth_generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_reach_every_layer():
    tracing = load_tracing()
    ds = synth_generate(preset_config("retail_shift", n_per_topic=10), seed=0)
    train_ds, test_ds = split(ds, test_fraction=0.25, seed=0)
    post_train = fewshot_sample(train_ds, 10, seed=0)
    config = TrainConfig(epochs=2)
    with tracing.Tracer().installed() as tracer:
        for spec in (methods.MethodSpec(kind="entail", catalog_id="en-retail", train_config=config),
                     methods.MethodSpec(kind="finetuned", train_config=config)):
            predictions = methods.run_method(spec, train_ds, post_train, test_ds)
            assert set(predictions) == {ex.id for ex in test_ds}
    names = {span[0] for span in tracer.spans}
    assert {"methods.run_method", "model.featurize", "model.train", "model.score",
            "reformulate.augment", "reformulate.predict"} <= names
    assert tracer.missing == []
    # One score call per batch of at most 64 test candidates, plus one for
    # the whole multiclass test set.
    candidates = len(test_ds) * len(test_ds.post_labels)
    assert tracer.usage.counts["model.score_calls"] == math.ceil(candidates / 64) + 1
