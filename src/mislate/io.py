"""CSV ingestion and machine-readable reports."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .data import Dataset, Mode
from .exceptions import ParseError, SchemaError, ValidationError

# lines read and converted per step; parsing holds one chunk at a time
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class CsvSchema:
    y_col: str
    t_col: str
    z_col: str
    v_col: str
    delimiter: str = ","


def _parse_binary(raw: str, col: str, line: int) -> int:
    s = raw.strip()
    if s in ("0", "1"):
        return int(s)
    raise ParseError(f"column {col!r} must be 0 or 1, got {raw!r} at line {line}", line)


def _parse_rows(rows, lines, schema: CsvSchema, idx: dict) -> tuple:
    """The row rules: y, t and z arrays and the stripped V labels of rows,
    the i-th of which starts on physical line lines[i], skipping blank rows.
    Raises ParseError for the first bad row."""
    ys, ts, zs, vs = [], [], [], []
    for lineno, row in zip(lines, rows):
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
    distinct = set(raw)
    if distinct <= {"0", "1"}:
        return (np.frombuffer("".join(raw).encode(), np.uint8) - 48).view(np.int8)
    try:
        # the line number only labels an error that is discarded here
        lut = {s: _parse_binary(s, "", 0) for s in distinct}
    except ParseError:
        return None
    return np.fromiter(map(lut.__getitem__, raw), np.int8, len(raw))


def _parse_columns(y_raw: list, t_raw: list, z_raw: list, v_raw: list):
    """What _parse_rows returns for the rows whose y, t, z and V fields
    these are, converted a column at a time, with V labels not yet
    stripped; None when a value is bad."""
    try:
        y = np.fromiter(map(float, y_raw), float, len(y_raw))
    except ValueError:
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


def _take(reader, count: int, consumed: int) -> tuple:
    """The reader's next count rows, or fewer at the end, and the line each
    starts on, after consumed lines read before the reader; a record the
    csv module rejects, such as one with a field over its size limit,
    raises ParseError with its line number."""
    rows, lines = [], [consumed + reader.line_num + 1]
    try:
        for row in islice(reader, count):
            rows.append(row)
            lines.append(consumed + reader.line_num + 1)
    except csv.Error as exc:
        line = consumed + reader.line_num
        raise ParseError(f"{exc} at line {line}", line) from None
    return rows, lines[:-1]


def _plain_columns(lines: list, delimiter: str, width: int, cols: list):
    """Columns cols of the lines split on the delimiter, which gives csv's
    tokens, or None unless the lines are plain: no quote or NUL, no CR
    except in a CRLF line end, and width fields, none over csv's size
    limit, on every line. When they are not, the lines whose fields are
    all whitespace (blank rows, which the row rules skip) are dropped and
    the rest is tried again."""
    fields = _split_lines(lines, delimiter, width, cols)
    if fields is None:
        kept = [line for line in lines if line.replace(delimiter, "").strip()]
        if len(kept) < len(lines):
            fields = _split_lines(kept, delimiter, width, cols)
    return fields


def _split_lines(lines: list, delimiter: str, width: int, cols: list):
    """_plain_columns without the blank-row retry."""
    block = "".join(lines).removesuffix("\n") + "\n"  # the last may lack it
    if "\r" in block:
        block = block.replace("\r\n", "\n")
    if not delimiter.isascii() or '"' in block or "\r" in block or "\0" in block:
        return None
    raw = np.frombuffer(block.encode(), np.uint8)
    ends = np.flatnonzero((raw == ord(delimiter)) | (raw == 10))
    if (ends.size != len(lines) * width or (raw[ends[width - 1::width]] != 10).any()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    fields = block.replace("\n", delimiter).split(delimiter)
    fields.pop()
    return [fields[j::width] for j in cols]


def _chunks(fh, schema: CsvSchema, idx: dict, width: int, consumed: int):
    """What _parse_rows returns for each chunk of the rows left in fh, after
    consumed lines, in a file whose header has width fields. Plain chunks
    of CHUNK_ROWS lines are split; from the first chunk that is not,
    csv.reader reads the rest of the file."""
    delimiter = schema.delimiter
    cols = [idx[c] for c in (schema.y_col, schema.t_col, schema.z_col, schema.v_col)]
    while lines := list(islice(fh, CHUNK_ROWS)):
        fields = _plain_columns(lines, delimiter, width, cols)
        if fields is None:
            break
        first, consumed = consumed + 1, consumed + len(lines)
        yield _parse_columns(*fields) or _parse_rows(
            csv.reader(lines, delimiter=delimiter), range(first, consumed + 1),
            schema, idx)
    reader = csv.reader(chain(lines, fh), delimiter=delimiter)
    while True:
        rows, lines = _take(reader, CHUNK_ROWS, consumed)
        if not rows:
            return
        try:
            parsed = _parse_columns(*(list(map(itemgetter(j), rows)) for j in cols))
        except IndexError:          # a blank or short row
            parsed = None
        yield parsed or _parse_rows(rows, lines, schema, idx)


def load_csv(path, schema: CsvSchema, mode: Mode, v_support=None) -> Dataset:
    """Read a (Y, T, Z, V) dataset from a CSV whose first line is a header
    naming the columns.

    V labels are kept verbatim; the support order is first appearance unless
    v_support pins it. Raises ParseError with the offending line number,
    SchemaError when declared columns are missing, and ValidationError when
    v_support repeats a label.

    The header goes through csv.reader. The rows are read CHUNK_ROWS lines
    at a time, so parsing holds one chunk. A plain chunk (no quote or NUL,
    no CR except in CRLF line ends, the header's field count on every line)
    is split on the delimiter, so CRLF lines are plain; a line whose fields
    are all whitespace is a blank row, which is dropped from the split. The
    first chunk that is not plain, and the rest of the file after it, go
    through csv.reader, so a quoted field never straddles the two. On plain lines the two give the
    same tokens, so the result does not depend on which one ran. Either way
    a chunk is converted a column at a time; one that fails a columnar check
    is read again by the row rules, which report the first bad row by the
    physical line it starts on. A record the csv module rejects is reported
    as soon as it is read. A file that is not UTF-8 raises ParseError
    naming the first line that does not decode; a leading byte-order mark
    is dropped. A delimiter that is not one character, or is a quote, CR or
    LF, raises SchemaError.
    """
    if len(schema.delimiter) != 1 or schema.delimiter in '"\r\n':
        raise SchemaError(f"delimiter must be one character other than a "
                          f"quote, CR or LF, got {schema.delimiter!r}")
    grow = v_support is None
    index = {} if grow else {lab: k for k, lab in enumerate(v_support)}
    if not grow and len(index) < len(v_support):
        repeated = next(lab for k, lab in enumerate(v_support) if index[lab] != k)
        raise ValidationError(f"v_support repeats the label {repeated!r}")
    columns = []
    missing = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            first, _ = _take(reader, 1, 0)
            if not first:
                raise SchemaError("file is empty")
            header = [h.strip() for h in first[0]]
            try:
                idx = {c: header.index(c) for c in
                       (schema.y_col, schema.t_col, schema.z_col, schema.v_col)}
            except ValueError as exc:
                raise SchemaError(f"missing column: {exc}") from None
            for y, t, z, labels in _chunks(fh, schema, idx, len(header),
                                           reader.line_num):
                v, chunk_missing = _code_labels(labels, index, grow)
                if missing is None:
                    missing = chunk_missing
                columns.append((y, t, z, v))
        except UnicodeDecodeError:
            fh.seek(0)
            # the first line whose bytes the decoder replaces or drops
            line = next(i for i, raw in enumerate(fh.buffer, 1) if
                        raw.decode(errors="replace") != raw.decode(errors="ignore"))
            raise ParseError(f"invalid UTF-8 at line {line}", line) from None
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
