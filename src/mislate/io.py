"""CSV ingestion and machine-readable reports."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Optional

import numpy as np

from .data import Dataset, Mode
from .exceptions import ParseError, SchemaError, ValidationError

# rows converted per step; parsing holds one chunk of rows at a time
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class CsvSchema:
    y_col: str
    t_col: str
    z_col: str
    v_col: str
    delimiter: str = ","
    header: bool = True


def _parse_binary(raw: str, col: str, line: int) -> int:
    s = raw.strip()
    if s in ("0", "1"):
        return int(s)
    raise ParseError(f"column {col!r} must be 0 or 1, got {raw!r} at line {line}", line)


def _parse_rows(rows, first_line: int, schema: CsvSchema, idx: dict) -> tuple:
    """The row rules: y, t and z arrays and the stripped V labels of rows
    numbered from first_line, skipping blank rows. Raises ParseError for the
    first bad row."""
    ys, ts, zs, vs = [], [], [], []
    for lineno, row in enumerate(rows, start=first_line):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            y = float(row[idx[schema.y_col]])
        except (ValueError, IndexError):
            raise ParseError(
                f"column {schema.y_col!r} not numeric at line {lineno}", lineno
            ) from None
        if not np.isfinite(y):
            raise ParseError(f"non-finite outcome at line {lineno}", lineno)
        try:
            t = _parse_binary(row[idx[schema.t_col]], schema.t_col, lineno)
            z = _parse_binary(row[idx[schema.z_col]], schema.z_col, lineno)
            v = row[idx[schema.v_col]].strip()
        except IndexError:
            raise ParseError(f"short row at line {lineno}", lineno) from None
        ys.append(y)
        ts.append(t)
        zs.append(z)
        vs.append(v)
    return (np.array(ys, dtype=float), np.array(ts, dtype=np.int8),
            np.array(zs, dtype=np.int8), vs)


def _binary_column(raw: list):
    """int8 codes of a column whose distinct values all pass _parse_binary;
    None when one does not."""
    try:
        # the line number only labels an error that is discarded here
        lut = {s: _parse_binary(s, "", 0) for s in set(raw)}
    except ParseError:
        return None
    return np.fromiter(map(lut.__getitem__, raw), np.int8, len(raw))


def _parse_columns(rows: list, schema: CsvSchema, idx: dict):
    """What _parse_rows returns for the rows, converted a column at a time,
    with V labels not yet stripped; None when a row is blank, short or bad."""
    try:
        y = np.fromiter(map(float, map(itemgetter(idx[schema.y_col]), rows)),
                        float, len(rows))
        t_raw, z_raw, v_raw = (list(map(itemgetter(idx[c]), rows)) for c in
                               (schema.t_col, schema.z_col, schema.v_col))
    except (ValueError, IndexError):
        return None
    if not np.isfinite(y).all():
        return None
    t, z = _binary_column(t_raw), _binary_column(z_raw)
    if t is None or z is None:
        return None
    return y, t, z, v_raw


def _code_labels(labels: list, index: dict, grow: bool) -> tuple:
    """int64 codes of the stripped labels in index, and the first label,
    in row order, that index lacks. With grow, unseen labels are added to
    index in order of first appearance; otherwise they get code -1."""
    lut = {}
    missing = None
    for raw in dict.fromkeys(labels):
        label = raw.strip()
        code = index.get(label)
        if code is None:
            if grow:
                code = index[label] = len(index)
            else:
                code = -1
                if missing is None:
                    missing = label
        lut[raw] = code
    return np.fromiter(map(lut.__getitem__, labels), np.int64, len(labels)), missing


def _take(reader, count: int) -> list:
    """The reader's next count rows, or fewer at the end; a record the csv
    module rejects, such as one with a field over its size limit, raises
    ParseError with its line number."""
    try:
        return list(islice(reader, count))
    except csv.Error as exc:
        raise ParseError(f"{exc} at line {reader.line_num}", reader.line_num) from None


def load_csv(path, schema: CsvSchema, mode: Mode, v_support=None) -> Dataset:
    """Read a (Y, T, Z, V) dataset.

    V labels are kept verbatim; the support order is first appearance unless
    v_support pins it. Raises ParseError with the offending line number and
    SchemaError when declared columns are missing.

    Rows are read CHUNK_ROWS at a time and converted a column at a time, so
    parsing holds one chunk of rows. A chunk that fails a columnar check is
    read again by the row rules, which report the first bad row. A record
    the csv module rejects is reported as soon as it is read.
    """
    grow = v_support is None
    index = {} if grow else {lab: k for k, lab in enumerate(v_support)}
    columns = []
    missing = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        if schema.header:
            first = _take(reader, 1)
            if not first:
                raise SchemaError("file is empty")
            header = [h.strip() for h in first[0]]
            try:
                idx = {c: header.index(c) for c in
                       (schema.y_col, schema.t_col, schema.z_col, schema.v_col)}
            except ValueError as exc:
                raise SchemaError(f"missing column: {exc}") from None
            line = 2
        else:
            idx = {schema.y_col: 0, schema.t_col: 1, schema.z_col: 2, schema.v_col: 3}
            line = 1
        while chunk := _take(reader, CHUNK_ROWS):
            parsed = _parse_columns(chunk, schema, idx)
            if parsed is None:
                parsed = _parse_rows(chunk, line, schema, idx)
            line += len(chunk)
            y, t, z, labels = parsed
            v, chunk_missing = _code_labels(labels, index, grow)
            if missing is None:
                missing = chunk_missing
            columns.append((y, t, z, v))
    if not any(len(col[0]) for col in columns):
        raise SchemaError("no data rows")
    if missing is not None:
        raise ValidationError(f"V value {missing!r} not in declared support")
    y, t, z, v = (np.concatenate(parts) for parts in zip(*columns))
    support = tuple(index) if grow else tuple(v_support)
    return Dataset(y=y, t=t, z=z, v=v, v_support=support, mode=mode)


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def report_json(report: dict) -> str:
    """Serialise a report dict to stable, lossless JSON."""
    return json.dumps(_to_jsonable(report), indent=2, sort_keys=False)


def format_number(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "."
    return f"{x:.3f}"


def report_text(report: dict) -> str:
    """Plain-text rendering with 3-decimal numbers; same numerical content
    as the JSON output."""
    lines = []

    def emit(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                emit(f"{prefix}{k}." if prefix else f"{k}.", v)
        elif isinstance(obj, (list, tuple, np.ndarray)):
            vals = _to_jsonable(list(obj))
            if all(isinstance(v, (int, float, type(None))) for v in vals):
                lines.append(
                    f"{prefix[:-1]}: "
                    + " ".join(format_number(v) if isinstance(v, float) else str(v)
                               for v in vals)
                )
            else:
                for i, v in enumerate(vals):
                    emit(f"{prefix}{i}.", v)
        elif isinstance(obj, float):
            lines.append(f"{prefix[:-1]}: {format_number(obj)}")
        else:
            lines.append(f"{prefix[:-1]}: {obj}")

    emit("", _to_jsonable(report))
    return "\n".join(lines) + "\n"
