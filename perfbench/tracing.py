"""In-memory span tracing of the entailshift layers, from outside the package.

The tracer replaces each layer function at the module attribute through which
the pipeline looks it up (``entailshift.methods.featurize`` is the name
``run_method`` calls, ``entailshift.model.featurize`` the one the binary
scorer calls), so no file under ``src/`` changes. Every call records a span
(name, start, end, parent) in a list and, for a few layers, counts taken from
its arguments and result. Spans stay in memory; per-layer times are derived
when the run ends.

Grid cells that run in pool workers are traced in the worker: the wrapper
around ``experiment._run_cell`` attaches the worker's spans and counts to the
cell's result object, which the pool pickles back to the parent. This needs
workers forked from the traced parent, which is the default start method on
Linux before Python 3.14; ``harvest`` raises if a result arrives without them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). A function the pipeline reaches through
# two modules is wrapped in both.
LAYER_FUNCTIONS = (
    ("entailshift.synth", "synth_generate", "synth.generate"),
    ("entailshift.experiment", "synth_generate", "synth.generate"),
    ("entailshift.experiment", "prepare_data", "corpus.prepare_data"),
    ("entailshift.experiment", "budget_subset", "corpus.budget_subset"),
    ("entailshift.experiment", "run_method", "methods.run_method"),
    ("entailshift.methods", "run_method", "methods.run_method"),
    ("entailshift.methods", "augment_dataset", "reformulate.augment"),
    ("entailshift.methods", "predict_dataset", "reformulate.predict"),
    ("entailshift.methods", "featurize", "model.featurize"),
    ("entailshift.model", "featurize", "model.featurize"),
    ("entailshift.methods", "train", "model.train"),
    ("entailshift.methods", "train_joint", "model.train"),
    ("entailshift.model", "score", "model.score"),
    ("entailshift.experiment", "confusion_from_predictions", "stats"),
    ("entailshift.experiment", "per_class_f1", "stats"),
    ("entailshift.experiment", "aggregate", "stats"),
    ("entailshift.experiment", "mann_whitney_u", "stats"),
    ("entailshift.stats", "confusion_from_predictions", "stats"),
    ("entailshift.stats", "per_class_f1", "stats"),
    ("entailshift.experiment", "run_experiment", "experiment.run_experiment"),
    ("entailshift.experiment", "save_result", "experiment.save_emit"),
    ("entailshift.experiment", "emit_report", "experiment.save_emit"),
)
CELL_FUNCTION = ("entailshift.experiment", "_run_cell", "experiment.cell")

# Bookkeeping done by the tracer itself runs inside a span of this name, so
# layer times can leave it out.
OVERHEAD_SPAN = "trace"
_PAYLOAD = "_perfbench_trace"


class Usage:
    """Work counts at layer boundaries, and how much of that work repeats.

    ``featurize`` calls whose (text, config) pair was featurized before, and
    hashed feature keys emitted before, count as repeats. A Usage filled in a
    pool worker covers one cell; ``merge`` folds it into the parent's Usage
    in grid order, counting its first-seen items against what the parent has
    already seen.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._texts: set[int] = set()
        self._keys: dict[tuple[int, int], np.ndarray] = {}
        self.first_texts: list[int] = []
        self.first_keys: dict[tuple[int, int], list[np.ndarray]] = {}

    def featurized(self, text: str, config, fv) -> None:
        c = self.counts
        c["model.featurize_calls"] += 1
        c["model.featurize_nnz"] += fv.nnz
        self._see_texts([hash((text, config))])
        self._see_keys((config.dim, config.hash_salt), fv.indices)

    def _see_texts(self, keys) -> None:
        for key in keys:
            if key in self._texts:
                self.counts["featurize_repeats"] += 1
            else:
                self._texts.add(key)
                self.first_texts.append(key)

    def _see_keys(self, space: tuple[int, int], indices: np.ndarray) -> None:
        seen = self._keys.get(space)
        if seen is None:
            seen = self._keys[space] = np.zeros(space[0], dtype=bool)
        fresh = indices[~seen[indices]]
        self.counts["key_repeats"] += int(indices.size - fresh.size)
        seen[fresh] = True
        self.first_keys.setdefault(space, []).append(fresh)

    def portable(self) -> dict:
        return {
            "counts": dict(self.counts),
            "first_texts": self.first_texts,
            "first_keys": {s: np.concatenate(v) for s, v in self.first_keys.items()},
        }

    def merge(self, other: dict) -> None:
        self.counts.update(other["counts"])
        self._see_texts(other["first_texts"])
        for space, indices in other["first_keys"].items():
            self._see_keys(space, indices)


class Tracer:
    """Spans and usage of one traced run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, layers: bool = True) -> None:
        self.layers = layers
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.usage = Usage()
        self.missing: list[str] = []
        self.cell_seconds: list[float] = []
        self.twin_seconds: list[float] = []
        self.twin_mismatches = 0
        self._cells = 0
        self._saved: list[tuple[object, str, object, object]] = []
        self._pid = os.getpid()

    # -- wrapping ----------------------------------------------------------

    def install(self) -> "Tracer":
        table = (LAYER_FUNCTIONS if self.layers else ()) + (CELL_FUNCTION,)
        for module_name, attr, span in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            if attr == CELL_FUNCTION[1]:
                wrapper = self._cell_wrapper(original)
            else:
                wrapper = self._wrapper(span, original)
            self._saved.append((module, attr, original, wrapper))
            setattr(module, attr, wrapper)
        return self

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _set_layers(self, traced: bool) -> None:
        for module, attr, original, wrapper in self._saved:
            if attr != CELL_FUNCTION[1]:
                setattr(module, attr, wrapper if traced else original)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark's own code around calls into a layer."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                bookkeeping = self._open(OVERHEAD_SPAN)
                count(self.usage, args, kwargs, result)
                self._close(bookkeeping)
            return result

        return traced

    def _cell_wrapper(self, fn):
        """Time each grid cell; with layers traced, also run an untraced twin of it.

        The twin runs right before or after the traced cell, alternating, with
        the layer wrappers removed, inside a bookkeeping span. Pairing each
        cell with its twin measures tracing overhead without host speed drift
        between the two, and the twin's outcome must equal the traced one.
        """

        def timed(name: str, args, kwargs):
            index = self._open(name)
            try:
                outcome = fn(*args, **kwargs)
            finally:
                self._close(index)
            _, start, end, _ = self.spans[index]
            return outcome, end - start

        def twin(args, kwargs):
            self._set_layers(False)
            try:
                return timed(OVERHEAD_SPAN, args, kwargs)
            finally:
                self._set_layers(True)

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            in_worker = os.getpid() != self._pid
            if in_worker:
                self.spans, self.stack, self.usage = [], [], Usage()
            payload = {}
            self._cells += 1
            twin_first = self.layers and self._cells % 2 == 1
            if twin_first:
                other, payload["twin_seconds"] = twin(args, kwargs)
            outcome, payload["seconds"] = timed(CELL_FUNCTION[2], args, kwargs)
            if self.layers and not twin_first:
                other, payload["twin_seconds"] = twin(args, kwargs)
            if self.layers:
                payload["twin_matches"] = other == outcome
            if in_worker:
                payload["spans"] = self.spans
                payload["usage"] = self.usage.portable()
            object.__setattr__(outcome, _PAYLOAD, payload)
            return outcome

        return cell

    # -- collection --------------------------------------------------------

    def harvest(self, outcomes) -> None:
        """Take cell timings, and worker spans and usage, off grid outcomes.

        ``outcomes`` are the scores and failures of one ``run_experiment``
        call, in grid order. Worker spans are re-parented under the most
        recent ``experiment.run_experiment`` span.
        """
        parent = max(
            (i for i, s in enumerate(self.spans) if s[0] == "experiment.run_experiment"),
            default=-1,
        )
        for outcome in outcomes:
            payload = outcome.__dict__.pop(_PAYLOAD, None)
            if payload is None:
                raise RuntimeError(
                    "a grid cell came back without its timing: the cell wrapper did "
                    "not run, so pool workers were not forked from this process"
                )
            self.cell_seconds.append(payload["seconds"])
            if "twin_seconds" in payload:
                self.twin_seconds.append(payload["twin_seconds"])
                self.twin_mismatches += not payload["twin_matches"]
            if "spans" in payload:
                offset = len(self.spans)
                for name, start, end, up in payload["spans"]:
                    self.spans.append([name, start, end, parent if up < 0 else up + offset])
                self.usage.merge(payload["usage"])

    def layer_times(self) -> tuple[Counter, Counter]:
        """(self time, total time) per span name, both without tracer bookkeeping.

        Self time is a span's duration minus the part of its interval that its
        child spans cover; children of one span overlap when they ran in
        parallel workers, so the covered part is the union of their intervals.
        """
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(i)
        overhead_inside = [0.0] * len(self.spans)
        self_time: Counter = Counter()
        total: Counter = Counter()
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            duration = end - start
            if name == OVERHEAD_SPAN:
                overhead_inside[i] = duration
            else:
                kids = [(self.spans[c][1], self.spans[c][2]) for c in children.get(i, ())]
                self_time[name] += duration - _covered(kids, start, end)
                total[name] += duration - overhead_inside[i]
            if parent >= 0:
                overhead_inside[parent] += overhead_inside[i]
        return self_time, total


def _covered(intervals, start: float, end: float) -> float:
    covered = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_featurize(usage: Usage, args, kwargs, result) -> None:
    usage.featurized(_arg(args, kwargs, 0, "text"), _arg(args, kwargs, 1, "config"), result)


def _count_train(usage: Usage, args, kwargs, result) -> None:
    features = _arg(args, kwargs, 0, "features")
    # train(features, labels, config) and train_joint(features, pre, post, config)
    config = kwargs.get("config") or next(a for a in args[2:] if hasattr(a, "batch_size"))
    c = usage.counts
    c["model.train_calls"] += 1
    c["model.train_samples"] += len(features)
    c["model.train_batches"] += config.epochs * math.ceil(len(features) / config.batch_size)


def _count_score(usage: Usage, args, kwargs, result) -> None:
    usage.counts["model.score_calls"] += 1


def _count_augment(usage: Usage, args, kwargs, result) -> None:
    usage.counts["reformulate.augment_samples"] += len(result)


def _count_predict(usage: Usage, args, kwargs, result) -> None:
    dataset = _arg(args, kwargs, 1, "dataset")
    usage.counts["reformulate.candidates_scored"] += len(dataset) * len(dataset.post_labels)


_COUNTERS = {
    "model.featurize": _count_featurize,
    "model.train": _count_train,
    "model.score": _count_score,
    "reformulate.augment": _count_augment,
    "reformulate.predict": _count_predict,
}
