"""Every JSON and JSON Lines file the package reads or writes, in UTF-8.

A JSON file holds one object; a JSON Lines file one object per line, where
lines break at ``\\n``, ``\\r`` or ``\\r\\n`` only (not at U+2028) and blank
lines are skipped. Readers raise the caller's error class naming the file,
and for JSON Lines the line: ``"<path>: line N: ..."``.

One file is written elsewhere: ``experiment.save_result`` writes
``result.json`` itself, with sorted keys. ``write_json`` keeps its payload's
key order, since a catalog's ``label_surface`` order is its candidate order.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping


def _lines(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(keepends=True), start=1):
        try:
            yield line_no, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: line {line_no}: not UTF-8: {exc}") from exc


def read_text(path: str | Path, error: type[Exception]) -> str:
    return "".join(line for _, line in _lines(path, error))


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object a file holds."""
    try:
        raw = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def read_jsonl(path: str | Path, parse: Callable[[dict], Any], error: type[Exception]) -> list:
    """``(line number, parse(row))`` per row; a row that is not an object, or a
    KeyError, TypeError or ValueError from ``parse``, is an ``error`` at its line."""
    parsed = []
    for line_no, line in _lines(path, error):
        if line.strip():
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError(f"expected a JSON object, got {type(row).__name__}")
                parsed.append((line_no, parse(row)))
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {line_no}: not valid JSON: {exc.msg} at column {exc.colno}") from exc
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise error(f"{path}: line {line_no}: {problem}") from exc
    return parsed


def read_keyed_jsonl(path: str | Path, parse: Callable[[dict], tuple], error: type[Exception]) -> dict:
    """``{key: value}`` from rows ``parse`` maps to ``(key, value)``; a repeated key names both lines."""
    values, first_line = {}, {}
    for line_no, (key, value) in read_jsonl(path, parse, error):
        if key in first_line:
            raise error(f"{path}: line {line_no}: duplicate row for {key!r}, "
                        f"first given on line {first_line[key]}")
        values[key], first_line[key] = value, line_no
    return values


def typed_field(row: dict, key: str, *kinds: type) -> Any:
    """``row[key]``, which must be exactly one of ``kinds``: a JSON bool is not an int."""
    if type(row[key]) not in kinds:
        raise TypeError(f"{key} must be a JSON {' or '.join(k.__name__ for k in kinds)}, got {row[key]!r}")
    return row[key]


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, rows: Iterable[Mapping[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
