"""The file layer: round trips through every writer/loader pair, and fuzzed loaders.

Every loader either parses a file or raises its own error class with the file
named; a non-UTF-8 byte in a JSON Lines file is also located at its line.
"""
from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entailshift.corpus import (
    Dataset,
    DatasetError,
    Example,
    LabelSet,
    ShiftSpec,
    load_dataset,
    save_dataset,
)
from entailshift.experiment import ConfigError, ExperimentConfig, load_result
from entailshift.methods import load_predictions, save_predictions
from entailshift.prompts import CatalogError, builtin_catalog, load_catalog, save_catalog
from entailshift.reformulate import (
    EntailSample,
    export_augmented,
    export_scores,
    import_augmented,
    import_scores,
)

FILE_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Text that stresses the file formats: the candidate separator, quotes, CSV
# delimiters and every character some splitter treats as a line break.
AWKWARD = [" [SEP] ", '"', "'", ",", "\\", "\n", "\r", "\r\n", "\u2028", "\u2029", "\x85", "\x0b", "é", "日本"]
text = st.lists(st.text(max_size=4) | st.sampled_from(AWKWARD), max_size=5).map("".join)
nonempty = text.filter(bool)


@st.composite
def datasets(draw) -> Dataset:
    # Files store an empty optional field as absent (CSV "empty cell =
    # null"), so ``Example`` takes optional fields as None or non-empty.
    labels = LabelSet(tuple(draw(st.lists(nonempty, min_size=2, max_size=4, unique=True))))
    ids = draw(st.lists(nonempty, max_size=4, unique=True))
    examples = tuple(
        Example(
            id=i,
            text_a=draw(nonempty),
            text_b=draw(st.none() | nonempty),
            pre_label=draw(st.sampled_from(labels.labels)),
            post_label=draw(st.sampled_from(labels.labels)),
            lang=draw(nonempty),
            topic=draw(st.none() | nonempty),
        )
        for i in ids
    )
    return Dataset(examples, labels, labels, name=draw(nonempty))


samples = st.builds(
    EntailSample,
    source_id=text,
    candidate_index=st.integers(1, 50),
    segments=st.lists(text, min_size=2, max_size=3).map(tuple),
    binary_label=st.sampled_from([0, 1]),
    is_oversampled=st.booleans(),
)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
@FILE_SETTINGS
@given(dataset=datasets())
def test_dataset_round_trip(tmp_path, suffix, dataset):
    path = tmp_path / f"data{suffix}"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset


@FILE_SETTINGS
@given(predictions=st.dictionaries(text, text, max_size=5))
def test_predictions_round_trip(tmp_path, predictions):
    path = tmp_path / "predictions.jsonl"
    save_predictions(predictions, path)
    assert load_predictions(path) == predictions


@FILE_SETTINGS
@given(scores=st.dictionaries(st.tuples(text, st.integers(1, 50)), st.floats(0.0, 1.0), max_size=6))
def test_scores_round_trip(tmp_path, scores):
    path = tmp_path / "scores.jsonl"
    export_scores(scores, path)
    assert import_scores(path) == scores


@FILE_SETTINGS
@given(drawn=st.lists(samples, max_size=5))
def test_augmented_round_trip(tmp_path, drawn):
    path = tmp_path / "augmented.jsonl"
    export_augmented(drawn, path)
    assert import_augmented(path) == tuple(drawn)


def _dataset_files(tmp_path: Path, data_name: str) -> Path:
    """A data file path, after writing a one-example dataset and its sidecar there."""
    labels = LabelSet(("a", "b"))
    path = tmp_path / data_name
    save_dataset(Dataset((Example("e", "t", "a", "b"),), labels, labels), path)
    return path


# loader name -> (file to fuzz given a directory, the call, its declared error class)
LOADERS = {
    "dataset_jsonl": (lambda d: _dataset_files(d, "d.jsonl"), load_dataset, DatasetError),
    "dataset_csv": (lambda d: _dataset_files(d, "d.csv"), load_dataset, DatasetError),
    "labels": (lambda d: _dataset_files(d, "d.jsonl").with_name("d.jsonl.labels.json"),
               lambda p: load_dataset(p.with_name("d.jsonl")), DatasetError),
    "shift": (lambda d: d / "shift.json", ShiftSpec.from_file, DatasetError),
    "catalog": (lambda d: d / "catalog.json", load_catalog, CatalogError),
    "config": (lambda d: d / "config.json", ExperimentConfig.from_file, ConfigError),
    "result": (lambda d: d / "result.json", lambda p: load_result(p.parent), ValueError),
    "augmented": (lambda d: d / "aug.jsonl", import_augmented, ValueError),
    "scores": (lambda d: d / "scores.jsonl", import_scores, ValueError),
    "predictions": (lambda d: d / "predictions.jsonl", load_predictions, ValueError),
}
JSON_LINES = {"dataset_jsonl", "dataset_csv", "augmented", "scores", "predictions"}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary(max_size=48))
def test_fuzzed_file_parses_or_names_itself(tmp_path, name, content):
    target, load, error = LOADERS[name]
    path = target(tmp_path)
    path.write_bytes(content)
    try:
        load(path)
    except error as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_non_utf8_byte_names_file_and_line(tmp_path, name):
    """A bad byte on line 2 is the loader's own error, naming the file (and line)."""
    target, load, error = LOADERS[name]
    path = target(tmp_path)
    first = path.read_bytes().splitlines()[0] if path.exists() else b""
    path.write_bytes(first + b"\n\xff\xfe\n")
    with pytest.raises(error) as err:
        load(path)
    assert str(path) in str(err.value)
    assert type(err.value) is not UnicodeDecodeError
    if name in JSON_LINES:
        assert f"{path}: line 2: " in str(err.value)


def test_catalog_round_trip_keeps_non_ascii(tmp_path):
    path = tmp_path / "es-retail.json"
    save_catalog(builtin_catalog("es-retail"), path)
    assert "ó" in path.read_text(encoding="utf-8")
    assert load_catalog(path) == builtin_catalog("es-retail")


def test_written_rows_are_one_object_per_line(tmp_path):
    """U+2028 is written raw, and still does not split a row."""
    path = tmp_path / "predictions.jsonl"
    save_predictions({"a\u2028b": "x"}, path)
    assert path.read_bytes().count(b"\n") == 1
    assert json.loads(path.read_text(encoding="utf-8")) == {"id": "a\u2028b", "predicted_label": "x"}


def test_only_jsonfiles_parses_json():
    """Every JSON file the package reads goes through ``jsonfiles``: no other
    module calls or imports ``json.load`` or ``json.loads``."""
    parsers = {}
    for path in sorted((Path(__file__).parents[1] / "src" / "entailshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"load", "loads"}:
                parsers.setdefault(path.name, []).append(node.lineno)
    assert set(parsers) == {"jsonfiles.py"}, parsers
