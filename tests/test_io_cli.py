import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
from importlib.metadata import (EntryPoint, PackageNotFoundError,
                                distribution, entry_points)
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (count_calls, no_first_stage, random_theta, row_iv_fit,
                      simulate_from_theta)
import mislate
from mislate import gmm, io as mio
from mislate.baselines import ols, relevance_test, wald_iv
from mislate.cli import EXIT_DIAG, EXIT_IO, EXIT_OK, main
from mislate.data import Mode, cell_stats
from mislate.exceptions import (NoConvergence, ParseError, SchemaError,
                                ValidationError)
from mislate.io import CsvSchema, format_number, load_csv, report_json, report_text
from mislate.simulation import DesignSpec, generate

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.schema.json")
    .read_text()
)
STD_SCHEMA = CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v")
ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def _declared_scripts():
    """The [project.scripts] table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def _write_csv(path, ds, header=("y", "t", "z", "v")):
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for i in range(ds.n):
            fh.write(f"{float(ds.y[i])!r},{ds.t[i]},{ds.z[i]},"
                     f"{ds.v_support[ds.v[i]]}\n")


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(8)
    theta = random_theta(rng, Mode.CASE_II, 2)
    ds = simulate_from_theta(theta, 3000, rng)
    path = tmp_path / "data.csv"
    _write_csv(path, ds)
    return path, ds


# a V label longer than the csv module's default field size limit
OVERSIZED = "a" * 200_000


def _oversized_csv(path, good_rows=0):
    """good_rows valid rows, then one whose V field is OVERSIZED."""
    path.write_text("y,t,z,v\n" + "1.0,0,0,0\n" * good_rows
                    + f"1.0,0,0,{OVERSIZED}\n")
    return path


class TestLoadCsv:
    def test_round_trip(self, sample_csv):
        path, ds = sample_csv
        got = load_csv(path, STD_SCHEMA, Mode.CASE_II)
        np.testing.assert_allclose(got.y, ds.y)
        np.testing.assert_array_equal(got.t, ds.t)
        np.testing.assert_array_equal(got.z, ds.z)
        assert got.v_support == ("0", "1") or got.v_support == ("1", "0")

    def test_v_support_pins_coding_order(self, sample_csv):
        path, ds = sample_csv
        a = load_csv(path, STD_SCHEMA, Mode.CASE_II, v_support=("1", "0"))
        assert a.v_support == ("1", "0")
        np.testing.assert_array_equal(a.v, 1 - ds.v)

    def test_v_support_repeating_a_label_is_refused(self, sample_csv):
        path, _ = sample_csv
        with pytest.raises(ValidationError) as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II, v_support=("1", "0", "0"))
        assert str(err.value) == "v_support repeats the label '0'"

    def test_verbatim_labels(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("y,t,z,v\n1.0,0,0,north\n2.0,1,1,south\n"
                        "0.5,0,1,north\n1.5,1,0,south\n")
        ds = load_csv(path, STD_SCHEMA, Mode.CASE_II)
        assert ds.v_support == ("north", "south")

    def test_nonbinary_treatment_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\n1.0,0,0,0\n2.0,2,1,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II)
        assert err.value.line == 3
        assert "'t'" in str(err.value)

    def test_non_numeric_outcome_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\noops,0,0,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II)
        assert err.value.line == 2

    @pytest.mark.parametrize("good_rows", [0, 6])
    def test_oversized_field_reports_line(self, tmp_path, small_chunks,
                                          good_rows):
        path = _oversized_csv(tmp_path / "big.csv", good_rows)
        with pytest.raises(ParseError) as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II)
        line = good_rows + 2
        assert err.value.line == line
        assert str(err.value) == ("field larger than field limit (131072) "
                                  f"at line {line}")

    @pytest.mark.parametrize("body,line", [
        (b"y,t,z,v\n1.0,1,0,a\n2.0,0,1,b\xff\n", 3),
        (b"\xffy,t,z,v\n1.0,1,0,a\n", 1),
        (b"y,t,z,v\n1.0,1,0,\xe2\x82\n", 2),   # a cut multi-byte character
        (b"\xef\xbb\xbfy,t,z,v\n1.0,1,0,a\n2.0,0,1,b\xff\n", 3),
    ], ids=["label", "header", "truncated", "after-byte-order-mark"])
    def test_non_utf8_reports_line(self, tmp_path, body, line):
        path = tmp_path / "latin.csv"
        path.write_bytes(body)
        with pytest.raises(ParseError, match=f"^invalid UTF-8 at line {line}$") as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II)
        assert err.value.line == line

    @pytest.mark.parametrize("first", ["1.0", '"1.0"'],
                             ids=["split", "csv-reader"])
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, first):
        # Excel's "CSV UTF-8" export starts the file with one; a quoted first
        # field sends the rows to csv.reader instead of the split
        body = (f"y,t,z,v\n{first},1,0,a\n2.0,0,1,b\n"
                "0.5,1,1,a\n1.5,0,0,b\n").encode()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        want = load_csv(plain, STD_SCHEMA, Mode.CASE_II)
        split, plain_columns = [], mio._plain_columns
        monkeypatch.setattr(mio, "_plain_columns", lambda *args: split.append(
            plain_columns(*args)) or split[-1])
        got = load_csv(marked, STD_SCHEMA, Mode.CASE_II)
        assert [fields is not None for fields in split] == [first == "1.0"]
        for name in ("y", "t", "z", "v"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (got.v_support, got.mode) == (want.v_support, want.mode) == (
            ("a", "b"), Mode.CASE_II)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,t,z\n1.0,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(path, STD_SCHEMA, Mode.CASE_II)
        # a file without a header: its first row is read as one
        bare = tmp_path / "bare.csv"
        bare.write_text("1.0,0,0,0\n2.0,1,1,1\n")
        with pytest.raises(SchemaError, match="missing column"):
            load_csv(bare, STD_SCHEMA, Mode.CASE_II)

    def test_empty_and_no_rows(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            load_csv(empty, STD_SCHEMA, Mode.CASE_II)
        headonly = tmp_path / "head.csv"
        headonly.write_text("y,t,z,v\n\n")
        with pytest.raises(SchemaError):
            load_csv(headonly, STD_SCHEMA, Mode.CASE_II)

    def test_tab_delimiter(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("y\tt\tz\tv\n1.0\t0\t0\t0\n2.0\t1\t1\t1\n")
        schema = CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v",
                           delimiter="\t")
        ds = load_csv(path, schema, Mode.CASE_II)
        assert ds.n == 2
        with pytest.raises(ParseError) as err:
            bad = tmp_path / "short.tsv"
            bad.write_text("y\tt\tz\tv\n1.0\t0\t0\t0\n2.0\t1\n")
            load_csv(bad, schema, Mode.CASE_II)
        assert err.value.line == 3

    @pytest.mark.parametrize("delimiter", ["", ";;", "ab", '"', "\r", "\n"],
                             ids=["empty", "two", "ab", "quote", "cr", "lf"])
    def test_rejects_delimiter_that_is_not_one_plain_character(
            self, tmp_path, delimiter):
        path = tmp_path / "rows.csv"
        path.write_text("y,t,z,v\n1.0,0,0,0\n")
        schema = CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v",
                           delimiter=delimiter)
        with pytest.raises(SchemaError) as err:
            load_csv(path, schema, Mode.CASE_II)
        assert str(err.value) == (
            "delimiter must be one character other than a quote, CR or LF, "
            f"got {delimiter!r}")


# chunk size the reader tests run with, so that a few rows span several chunks
CHUNK = 4
LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(mio, "CHUNK_ROWS", CHUNK)


def _row_loop(path, schema, v_support=None):
    """Reference reader: the row rules over the whole file as one chunk, each
    record numbered by the physical line it starts on, V coded in plain
    Python (first appearance unless v_support pins it)."""
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        start = 0
        for row in reader:
            rows.append(row)
            lines.append(start + 1)
            start = reader.line_num
    cols = (schema.y_col, schema.t_col, schema.z_col, schema.v_col)
    header = [h.strip() for h in rows.pop(0)]
    lines.pop(0)
    idx = {c: header.index(c) for c in cols}
    y, t, z, labels = mio._parse_rows(rows, lines, schema, idx)
    support = (tuple(dict.fromkeys(labels)) if v_support is None
               else tuple(v_support))
    code = {lab: k for k, lab in enumerate(support)}
    return y, t, z, np.array([code[lab] for lab in labels]), support


def _records(n, seed=0):
    """n data rows (y, t, z, v) as strings, V over three labels."""
    rng = np.random.default_rng(seed)
    return [(repr(float(rng.normal())), str(rng.integers(2)),
             str(rng.integers(2)), ("north", "south", "east")[rng.integers(3)])
            for _ in range(n)]


def _text(kind, records):
    """A CSV of the records in one of the layouts the reader accepts."""
    if kind == "tab":
        return "".join("\t".join(r) + "\n" for r in [("y", "t", "z", "v"), *records])
    if kind == "extra-columns":
        return "id,v,extra,z,y,t,more\n" + "".join(
            f"{i},{v},x{i},{z},{y},{t},\n"
            for i, (y, t, z, v) in enumerate(records))
    lines = ["y,t,z,v"]
    for i, (y, t, z, v) in enumerate(records):
        if kind == "quoted" or (kind == "quoted-late" and i >= CHUNK):
            lines.append(f'"{y}","{t}",{z},"{v}, ""{i % 2}"""')
        elif kind == "padded-binaries":
            lines.append(f"{y}, {t} ,{z} , {v} ")
        elif kind == "ragged-late" and i == len(records) - 1:
            lines.append(f"{y},{t},{z},{v},extra")
        elif kind == "unicode-labels":
            lines.append(f"{y},{t},{z},{v.replace('o', 'ö')}-€")
        else:
            lines.append(f"{y},{t},{z},{v}")
        if kind == "blank-lines" and i % 3 == 0:
            lines.append("")
        if kind == "blank-line" and i == 1:
            lines.append(" \t ")
        if kind == "whitespace-rows" and i % 3 == 1:
            lines.append("  ,\t, ,  " if i % 2 else "   ")
    end = "\r\n" if kind == "crlf" else "\n"
    return end.join(lines) + ("" if kind == "no-final-newline" else end)


KINDS = ("plain", "blank-line", "blank-lines", "whitespace-rows", "crlf",
         "quoted", "padded-binaries", "extra-columns", "tab",
         "quoted-late", "ragged-late", "no-final-newline", "unicode-labels")
# every chunk converts a column at a time, except where a blank row keeps
# its delimiters (the split keeps it, and its empty y fails the conversion)
COLUMNAR_KINDS = set(KINDS) - {"whitespace-rows"}
# layouts whose rows are all split on the delimiter, blank rows dropped:
# csv.reader reads the header alone
SPLIT_KINDS = {"plain", "blank-line", "blank-lines", "crlf", "extra-columns",
               "tab", "padded-binaries", "no-final-newline",
               "unicode-labels"}


def _schema(kind):
    if kind == "tab":
        return CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v",
                         delimiter="\t")
    return STD_SCHEMA


def _lines(*rows):
    return "y,t,z,v\n" + "".join(r + "\n" for r in rows)


def _clean(n):
    return [f"{i}.5,{i % 2},{(i // 2) % 2},{i % 2}" for i in range(n)]


def _parse_failure(path, schema=STD_SCHEMA, v_support=None):
    with pytest.raises(ParseError) as err:
        load_csv(path, schema, Mode.CASE_II, v_support=v_support)
    return str(err.value), err.value.line


class TestChunkedReader:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_row_loop(self, tmp_path, monkeypatch, small_chunks,
                              kind, n):
        path = tmp_path / "data.csv"
        path.write_text(_text(kind, _records(n, seed=n)), newline="")
        schema = _schema(kind)
        want = _row_loop(path, schema)
        calls = []
        row_rules = mio._parse_rows

        def spy(rows, lines, *rest):
            calls.append(lines)
            return row_rules(rows, lines, *rest)

        monkeypatch.setattr(mio, "_parse_rows", spy)
        ds = load_csv(path, schema, Mode.CASE_II)
        for got, ref in zip((ds.y, ds.t, ds.z, ds.v), want[:4]):
            assert np.array_equal(got, ref)
        assert ds.v_support == want[4]
        assert ds.n == n
        if kind in COLUMNAR_KINDS:
            assert calls == []

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("kind", sorted(SPLIT_KINDS) + ["quoted-late"])
    def test_csv_reader_sees_only_what_is_not_plain(self, tmp_path, monkeypatch,
                                                    small_chunks, kind, n):
        path = tmp_path / "data.csv"
        path.write_text(_text(kind, _records(n, seed=n)), newline="")
        seen = []
        real = csv.reader

        class Spy:
            def __init__(self, *args, **kwargs):
                self.reader = real(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                row = next(self.reader)
                seen.append(row)
                return row

            @property
            def line_num(self):
                return self.reader.line_num

        monkeypatch.setattr(mio.csv, "reader", Spy)
        ds = load_csv(path, _schema(kind), Mode.CASE_II)
        assert ds.n == n
        # quoted-late: chunk 1 is split, the quoted rows after it are not
        late = max(n - CHUNK, 0) if kind == "quoted-late" else 0
        assert len(seen) == 1 + late

    @pytest.mark.parametrize("n", LENGTHS)
    def test_pinned_support_matches_row_loop(self, tmp_path, small_chunks, n):
        path = tmp_path / "data.csv"
        path.write_text(_text("padded-binaries", _records(n, seed=n)))
        support = ("south", "west", "east", "north")
        ds = load_csv(path, STD_SCHEMA, Mode.CASE_II, v_support=support)
        want = _row_loop(path, STD_SCHEMA, v_support=support)
        for got, ref in zip((ds.y, ds.t, ds.z, ds.v), want[:4]):
            assert np.array_equal(got, ref)
        assert ds.v_support == support

    @pytest.mark.parametrize("bad,message", [
        ("oops,0,0,0", "column 'y' not numeric at line {}"),
        ("1.0,2,0,0", "column 't' must be 0 or 1, got '2' at line {}"),
        ("1.0,1,01,0", "column 'z' must be 0 or 1, got '01' at line {}"),
        ("1.0,1", "short row at line {}"),
        ("inf,0,1,0", "non-finite outcome at line {}"),
    ])
    @pytest.mark.parametrize("row", [1, CHUNK + 2])
    def test_bad_row_reports_its_own_line(self, tmp_path, small_chunks,
                                          bad, message, row):
        rows = _clean(2 * CHUNK + 3)
        rows[row - 1] = bad
        rows[-1] = "nan,0,0,0"          # a later bad row is not reported
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        text, line = _parse_failure(path)
        assert (text, line) == (message.format(row + 1), row + 1)
        with pytest.raises(ParseError) as ref:
            _row_loop(path, STD_SCHEMA)
        assert (str(ref.value), ref.value.line) == (text, line)

    @pytest.mark.parametrize("chunk", [1, 2, mio.CHUNK_ROWS])
    def test_bad_row_after_multiline_record_reports_its_line(
            self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(mio, "CHUNK_ROWS", chunk)
        path = tmp_path / "bad.csv"
        path.write_text('y,t,z,v\n1.0,0,0,"a\nb"\nx,0,0,0\n', newline="")
        assert _parse_failure(path) == ("column 'y' not numeric at line 4", 4)

    def test_short_and_long_row_in_one_chunk(self, tmp_path, small_chunks):
        # the chunk holds 4 x 4 fields, but shifted by a row's width
        path = tmp_path / "ragged.csv"
        path.write_text(_lines("1.0,0,0", "0,1,1,0,7", "2.0,1,1,0", "3.0,0,1,1"))
        assert _parse_failure(path) == ("short row at line 2", 2)

    def test_blank_rows_count_in_line_numbers(self, tmp_path, small_chunks):
        rows = _clean(CHUNK + 1) + ["", "  ,  ,,", "1.0,0,1,0", "x,0,0,0"]
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        assert _parse_failure(path) == ("column 'y' not numeric at line 10", 10)

    def test_bad_row_after_blank_line_in_split_chunk(self, tmp_path,
                                                     small_chunks):
        # chunk 2 is split without its blank line; the row rules still
        # number its lines from the file
        rows = _clean(CHUNK + 1) + [" \t ", "x,0,0,0", "1.0,0,1,0"]
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        assert _parse_failure(path) == ("column 'y' not numeric at line 8", 8)
        with pytest.raises(ParseError) as ref:
            _row_loop(path, STD_SCHEMA)
        assert (str(ref.value), ref.value.line) == ("column 'y' not numeric at line 8", 8)

    @pytest.mark.parametrize("y", ["nan", "NaN", "inf", "-inf", " Infinity "])
    @pytest.mark.parametrize("row", [2, CHUNK + 1])
    def test_non_finite_outcome(self, tmp_path, small_chunks, y, row):
        rows = _clean(2 * CHUNK)
        rows[row - 1] = f"{y},0,1,1"
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        assert _parse_failure(path) == (
            f"non-finite outcome at line {row + 1}", row + 1)

    def test_parse_error_beats_undeclared_label(self, tmp_path, small_chunks):
        rows = _clean(2 * CHUNK)
        rows[0] = "1.0,0,0,7"           # chunk 1: outside the support
        rows[CHUNK + 1] = "1.0,0,9,0"   # chunk 2: not a binary
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        text, line = _parse_failure(path, v_support=("0", "1"))
        assert line == CHUNK + 3
        assert text == f"column 'z' must be 0 or 1, got '9' at line {line}"

    @pytest.mark.parametrize("first", [2, CHUNK + 1])
    def test_undeclared_label_names_first_in_row_order(self, tmp_path,
                                                       small_chunks, first):
        rows = _clean(3 * CHUNK)
        rows[first - 1] = "1.0,0,0, west "
        rows[first + 1] = "1.0,0,0,up"
        rows[-1] = "1.0,1,1,down"
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        with pytest.raises(ValidationError) as err:
            load_csv(path, STD_SCHEMA, Mode.CASE_II, v_support=("0", "1"))
        assert str(err.value) == "V value 'west' not in declared support"

    def test_only_blank_rows_is_schema_error(self, tmp_path, small_chunks):
        path = tmp_path / "blank.csv"
        path.write_text("y,t,z,v\n" + "\n , , , \n" * (CHUNK + 1))
        with pytest.raises(SchemaError, match="no data rows"):
            load_csv(path, STD_SCHEMA, Mode.CASE_II)


# labels and extra fields with delimiters, quotes, line breaks, non-ASCII
_LABELS = st.text(st.sampled_from(list('ab,"\n\r \té€')), max_size=4)
_PLAIN_LABELS = st.sampled_from(["north", " south ", "é€", ""])
_Y_OK = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.sampled_from(["1", " -2.5 ", "1e3", "0"]))
_Y_ANY = st.one_of(_Y_OK, st.sampled_from(["x", "nan", "-inf", "", " "]))
_BIN_OK = st.sampled_from(["0", "1", " 1 ", "0 "])
_BIN_ANY = st.one_of(_BIN_OK, st.sampled_from(["2", "01", "", "1.0"]))


@st.composite
def _csv_files(draw):
    """A CSV over y, t, z, v and extra columns, in any order under a
    header. About one record in five may be quoted (over several lines)
    and end in CRLF; the others are plain. A record may also be blank,
    whitespace, short or long. The last line may lack its newline."""
    names = draw(st.permutations(
        ["y", "t", "z", "v"] + [f"x{i}" for i in range(draw(st.integers(0, 2)))]))
    bad = draw(st.booleans())
    values = {"y": _Y_ANY if bad else _Y_OK, "t": _BIN_ANY if bad else _BIN_OK,
              "z": _BIN_ANY if bad else _BIN_OK}
    text = ",".join(names) + "\n"
    for _ in range(draw(st.integers(0, 12))):
        special = not draw(st.integers(0, 4))
        fields = []
        for name in names:
            value = draw(values.get(name, _LABELS if special else _PLAIN_LABELS))
            if any(c in value for c in ',"\n\r') or special and draw(st.booleans()):
                value = '"' + value.replace('"', '""') + '"'
            fields.append(value)
        shape = draw(st.sampled_from(["row"] * 10 + ["blank", "spaces", "short",
                                                     "long"]))
        if shape == "blank":
            fields = []
        elif shape == "spaces":
            fields = [" "] * len(names)
        elif shape == "short":
            fields = fields[:draw(st.integers(1, len(names) - 1))]
        elif shape == "long":
            fields.append("extra")
        text += ",".join(fields) + ("\r\n" if special and draw(st.booleans())
                                    else "\n")
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_files(), st.integers(1, 5))
def test_reader_matches_row_loop_on_any_layout(tmp_path, text, chunk):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    try:
        want = _row_loop(path, STD_SCHEMA)
    except ParseError as err:
        want = (str(err), err.line)
    with mock.patch.object(mio, "CHUNK_ROWS", chunk):
        if len(want) == 2:
            assert _parse_failure(path) == want
        elif len(want[0]) == 0:
            with pytest.raises(SchemaError, match="no data rows"):
                load_csv(path, STD_SCHEMA, Mode.CASE_II)
        else:
            ds = load_csv(path, STD_SCHEMA, Mode.CASE_II)
            for got, ref in zip((ds.y, ds.t, ds.z, ds.v), want[:4]):
                assert np.array_equal(got, ref)
            assert ds.v_support == want[4]


@st.composite
def _cli_argv(draw):
    """A command with any mix of its flags, some of them malformed or
    naming a column the file lacks."""
    command = draw(st.sampled_from(["estimate", "identify"]))
    argv = [command, "--outcome", draw(st.sampled_from(["y", "w"])),
            "--treatment", "t", "--instrument", "z", "--exogenous", "v"]
    flags = {"--mode": ["case-i", "case-ii", "case-iii"],
             "--delimiter": [",", ";", "ab", '"'],
             "--v-support": ["0,1", "1, 0", "", "a,b,c"],
             "--weight" if command == "estimate" else "--support-points":
                 ["identity", "optimal"] if command == "estimate"
                 else ["0,1", "0,1,2;0,1,2", "1,1", "x"],
             "--level" if command == "estimate" else "--json":
                 ["0.9", "1.5", "nan", "x"] if command == "estimate" else [None]}
    for flag, values in flags.items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    if command == "estimate" and draw(st.booleans()):
        argv.append("--hc1")
    if draw(st.booleans()):
        argv.append("--text")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=120),
                 _csv_files().map(str.encode),
                 st.tuples(_csv_files().map(str.encode), st.binary(min_size=1, max_size=3),
                           st.integers(0, 200)).map(
                     lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])),
       _cli_argv())
def test_cli_exits_with_a_documented_code_on_any_input(tmp_path, data, argv):
    # any bytes as the CSV and any flag set end in an exit code: 0-3 from
    # main, or 2 from argparse; no other exception escapes
    path = tmp_path / "any.csv"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--data", str(path)])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
    assert code in (EXIT_OK, EXIT_IO, EXIT_DIAG, 3)


class TestReportFormats:
    def test_json_is_deterministic_and_finite_safe(self):
        report = {"a": np.float64(1.5), "b": [np.inf, 2.0],
                  "c": {"n": np.int64(3), "flag": np.bool_(True)}}
        s1, s2 = report_json(report), report_json(report)
        assert s1 == s2
        parsed = json.loads(s1)
        assert parsed["b"][0] is None
        assert parsed["c"]["flag"] is True

    def test_format_number(self):
        assert format_number(1.23456) == "1.235"
        assert format_number(None) == "."
        assert format_number(float("nan")) == "."

    def test_text_mirrors_json_content(self):
        report = {"x": {"y": 0.5, "names": ["a", "b"]}, "z": [1.0, 2.0]}
        text = report_text(report)
        assert "x.y: 0.500" in text
        assert "z: 1.000 2.000" in text

    def test_text_prints_a_missing_number_as_a_dot(self):
        # a NaN SE or a p-value the weighting does not give is a JSON null,
        # printed as a dot alone or in a list
        assert report_text({"p": None, "v": [1.0, None]}) == "p: .\nv: 1.000 .\n"
        assert report_text({"se": [float("nan")]}) == "se: .\n"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _data_args(path):
    return ["--data", str(path), "--outcome", "y", "--treatment", "t",
            "--instrument", "z", "--exogenous", "v"]


class TestCli:
    def test_estimate_json_validates(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out = _run(capsys, ["estimate"] + _data_args(path))
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == "estimate"
        names = [p["name"] for p in report["estimate"]["params"]]
        assert names[0] == "beta_star"
        assert report["j_test"]["dof"] == 0
        assert "naive_bias" in report["baselines"]

    @pytest.mark.parametrize("command", ["estimate", "identify"])
    def test_rows_are_tabulated_once(self, sample_csv, capsys, monkeypatch,
                                     command):
        path, _ = sample_csv
        calls = count_calls(monkeypatch, cell_stats)
        code, _ = _run(capsys, [command] + _data_args(path))
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_estimate_deterministic(self, sample_csv, capsys):
        path, _ = sample_csv
        _, out1 = _run(capsys, ["estimate"] + _data_args(path))
        _, out2 = _run(capsys, ["estimate"] + _data_args(path))
        assert out1 == out2

    def test_estimate_reports_the_naive_ols(self, sample_csv, capsys):
        path, ds = sample_csv
        code, out = _run(capsys, ["estimate"] + _data_args(path))
        assert code == EXIT_OK
        got = json.loads(out)["baselines"]["ols"]
        want = ols(cell_stats(load_csv(path, STD_SCHEMA, Mode.CASE_II)), "y", ("t",))
        assert (got["coef"], got["robust_se"]) == (want.coef[1], want.robust_se[1])
        X = np.column_stack([np.ones(ds.n), ds.t])
        coef, se, _ = row_iv_fit(ds.y, X, X)
        np.testing.assert_allclose([got["coef"], got["robust_se"]],
                                   [coef[1], se[1]], rtol=1e-10)

    def test_hc1_scales_the_baseline_ses_alone(self, sample_csv, capsys):
        path, _ = sample_csv
        _, out = _run(capsys, ["estimate"] + _data_args(path))
        code, out1 = _run(capsys, ["estimate", "--hc1"] + _data_args(path))
        assert code == EXIT_OK
        hc0, hc1 = json.loads(out), json.loads(out1)
        jsonschema.validate(hc1, SCHEMA)
        assert hc1["args"]["hc1"] is True and hc0["args"]["hc1"] is False
        stats = cell_stats(load_csv(path, STD_SCHEMA, Mode.CASE_II))
        rel = relevance_test(stats, hc1=True)
        fits = {"wald_iv": wald_iv(stats, hc1=True),
                "ols": ols(stats, "y", ("t",), hc1=True)}
        for name, fit in fits.items():
            got = hc1["baselines"][name]
            assert got["robust_se"] == fit.robust_se[1]
            assert got["robust_se"] > hc0["baselines"][name]["robust_se"]
            assert got["coef"] == hc0["baselines"][name]["coef"] == fit.coef[1]
        for z, fit in rel.items():
            got = hc1["diagnostics"]["relevance"][str(z)]
            assert got["robust_se"] == fit.robust_se[1]
            assert got["coef"] == hc0["diagnostics"]["relevance"][str(z)]["coef"]
        # the corrected estimate and everything else do not move
        for report in (hc0, hc1):
            del report["args"]["hc1"]
            for key in ("wald_iv", "ols"):
                del report["baselines"][key]["robust_se"]
            for arm in report["diagnostics"]["relevance"].values():
                del arm["robust_se"]
        assert hc1 == hc0

    def test_estimate_text_matches_json_numbers(self, sample_csv, capsys):
        # the data summary, the naive OLS and IV, the relevance regressions,
        # the fit, every parameter with its SE and interval, and the J test
        path, _ = sample_csv
        _, jout = _run(capsys, ["estimate", "--hc1"] + _data_args(path))
        code, text = _run(capsys, ["estimate", "--hc1", "--text"] + _data_args(path))
        assert code == EXIT_OK
        report = json.loads(jout)
        lines = set(text.splitlines())
        want = [f"dataset.n: {report['dataset']['n']}",
                f"dataset.r_hat: {report['dataset']['r_hat']:.3f}",
                "estimate.converged: True",
                f"estimate.objective: {report['estimate']['objective']:.3f}",
                f"j_test.stat: {report['j_test']['stat']:.3f}",
                "j_test.dof: 0", "j_test.pvalue: ."]
        for name in ("ols", "wald_iv"):
            fit = report["baselines"][name]
            want += [f"baselines.{name}.coef: {fit['coef']:.3f}",
                     f"baselines.{name}.robust_se: {fit['robust_se']:.3f}"]
        for z, fit in report["diagnostics"]["relevance"].items():
            want += [f"diagnostics.relevance.{z}.coef: {fit['coef']:.3f}",
                     f"diagnostics.relevance.{z}.robust_se: {fit['robust_se']:.3f}",
                     f"diagnostics.relevance.{z}.n: {fit['n']}"]
        for i, p in enumerate(report["estimate"]["params"]):
            want += [f"estimate.params.{i}.name: {p['name']}",
                     f"estimate.params.{i}.estimate: {p['estimate']:.3f}",
                     f"estimate.params.{i}.se: {p['se']:.3f}",
                     f"estimate.params.{i}.ci: {p['ci'][0]:.3f} {p['ci'][1]:.3f}"]
        assert [line for line in want if line not in lines] == []

    def test_overidentified_optimal_fit_solves_twice(self, tmp_path, capsys,
                                                     monkeypatch):
        # a V split into three labels makes case ii overidentified, so each
        # step of the two-step fit is a solve of mislate.lsq
        ds, _ = generate(DesignSpec(3), 4000, seed=0)
        path = tmp_path / "k3.csv"
        _write_csv(path, dataclasses.replace(
            ds, v=ds.v + (ds.v == 1) * (np.arange(ds.n) % 2), v_support=(0, 1, 2)))
        solves, trf = [], gmm.trf

        def recorded(*args, **kwargs):
            solves.append(trf(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(gmm, "trf", recorded)
        code, out = _run(capsys, ["estimate", "--weight", "optimal"]
                         + _data_args(path))
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["estimate"]["converged"]
        assert report["j_test"]["dof"] == 2
        assert 0.0 < report["j_test"]["pvalue"] < 1.0
        assert len(solves) == 2 and all(s.status > 0 for s in solves)

    def test_estimation_failure_is_diagnostic_failure(self, sample_csv,
                                                      monkeypatch, capsys):
        def fail(stats, cfg):
            raise NoConvergence("optimizer stopped")

        monkeypatch.setattr(mislate.cli, "gmm_estimate", fail)
        path, _ = sample_csv
        code, out = _run(capsys, ["estimate"] + _data_args(path))
        assert code == EXIT_DIAG
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"] == "optimizer stopped"
        assert "estimate" not in report and "baselines" not in report

    def test_identify_json_validates(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out = _run(capsys, ["identify"] + _data_args(path))
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["identify"]["params"][0]["name"] == "beta_star"
        # the text report carries the same solution
        code, text = _run(capsys, ["identify", "--text"] + _data_args(path))
        assert code == EXIT_OK
        lines = set(text.splitlines())
        result = report["identify"]
        want = [f"identify.support_points: {result['support_points']}",
                f"identify.s: {' '.join(f'{s:.3f}' for s in result['s'])}"]
        for i, p in enumerate(result["params"]):
            want += [f"identify.params.{i}.name: {p['name']}",
                     f"identify.params.{i}.estimate: {p['estimate']:.3f}"]
        assert [line for line in want if line not in lines] == []

    def test_identify_without_a_first_stage_is_diagnostic_failure(
            self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        _write_csv(path, no_first_stage())
        code, out = _run(capsys, ["identify"] + _data_args(path))
        assert code == EXIT_DIAG
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"] == "determinant 0.0 below tolerance"
        assert "identify" not in report

    def test_identify_support_points_flag(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out = _run(capsys, ["identify", "--support-points", "0,1"]
                         + _data_args(path))
        assert code == EXIT_OK
        assert "(0, 1)" in json.loads(out)["identify"]["support_points"]

    def test_estimate_rejects_support_points_flag(self, tmp_path, capsys):
        # a usage error from argparse, raised before the CSV would be opened
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--support-points", "0,1"]
                 + _data_args(tmp_path / "nope.csv"))
        assert exc.value.code == 2
        assert "--support-points" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,k,points", [
        ("case-ii", 2, "7,9"),          # out of range
        ("case-ii", 2, "0,x"),          # not an integer
        ("case-ii", 2, "-1,0"),         # negative
        ("case-ii", 2, "0"),            # one index
        ("case-ii", 2, "0,1,0"),        # three indices
        ("case-ii", 2, "1,1"),          # repeated index
        ("case-ii", 2, "0,1;0,1"),      # two groups
        ("case-i", 3, "0,1,2"),         # one triple
        ("case-i", 3, "0,1;0,1,2"),     # a pair where a triple belongs
        ("case-i", 3, "0,1,2;0,1,3"),   # out of range
        ("case-i", 3, "0,1,1;0,1,2"),   # repeated index
        ("case-i", 3, "0,1,2;0,1,2;0,1,2"),
    ])
    def test_identify_rejects_bad_support_points(self, tmp_path, capsys,
                                                 mode, k, points):
        rng = np.random.default_rng(5)
        ds = simulate_from_theta(random_theta(rng, Mode.CASE_II, k), 600, rng)
        path = tmp_path / "data.csv"
        _write_csv(path, ds)
        code = main(["identify", "--mode", mode, f"--support-points={points}"]
                    + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert "--support-points" in captured.err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["estimate"] + _data_args(tmp_path / "nope.csv"))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file")

    def test_parse_error_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\n1.0,0,0,0\n1.0,9,0,0\n")
        code = main(["estimate"] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == ("error: column 't' must be 0 or 1, "
                                "got '9' at line 3\n")

    @pytest.mark.parametrize("delimiter", ["", ";;", "ab"],
                             ids=["empty", "two", "ab"])
    @pytest.mark.parametrize("command", ["estimate", "identify"])
    def test_bad_delimiter_is_io_error(self, sample_csv, capsys, command,
                                       delimiter):
        path, _ = sample_csv
        code = main([command, "--delimiter", delimiter] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == (
            "error: delimiter must be one character other than a quote, CR "
            f"or LF, got {delimiter!r}\n")

    @pytest.mark.parametrize("level", ["1.5", "0", "1"])
    def test_estimate_level_outside_unit_interval_is_io_error(
            self, sample_csv, capsys, level):
        path, _ = sample_csv
        code = main(["estimate", "--level", level] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == "error: ci_level must be in (0,1)\n"

    def test_repeated_v_support_label_is_io_error(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["estimate", "--v-support", "1,0,0"] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == "error: v_support repeats the label '0'\n"

    @pytest.mark.parametrize("command", ["estimate", "identify"])
    def test_empty_v_support_is_io_error(self, sample_csv, capsys, command):
        path, _ = sample_csv
        code = main([command, "--v-support", ""] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == "error: --v-support names no label\n"

    def test_v_support_labels_are_stripped(self, sample_csv, capsys):
        # the reader strips every V label, so the flag's labels are too
        path, _ = sample_csv
        code, out = _run(capsys, ["estimate", "--v-support", "0, 1"]
                         + _data_args(path))
        assert code == EXIT_OK
        _, want = _run(capsys, ["estimate", "--v-support", "0,1"]
                       + _data_args(path))
        report, expect = json.loads(out), json.loads(want)
        assert report["dataset"]["v_support"] == ["0", "1"]
        assert report["estimate"] == expect["estimate"]

    def test_oversized_field_is_io_error(self, tmp_path, capsys):
        path = _oversized_csv(tmp_path / "big.csv")
        code = main(["estimate"] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == ("error: field larger than field limit "
                                "(131072) at line 2\n")

    @pytest.mark.parametrize("command", ["estimate", "identify"])
    def test_non_utf8_csv_is_io_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,t,z,v\n1.0,1,0,caf\xe9\n")
        code = main([command] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == "error: invalid UTF-8 at line 2\n"

    def test_simulate_out_of_memory_is_io_error(self, capsys, monkeypatch):
        # a study whose arrays do not fit; nothing is allocated here
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")

        monkeypatch.setattr(mislate.cli, "run_study", too_large)
        code = main(["simulate", "--design", "1", "--n", "1000000000000000",
                     "--reps", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == ("error: the study does not fit in memory "
                                "(Unable to allocate 7.28 PiB for an array)\n")

    def test_y_whose_moments_overflow_is_diagnostic_failure(self, tmp_path,
                                                              capsys):
        # every y is finite, but the first cell's sum of squares overflows
        path = tmp_path / "huge.csv"
        path.write_text("y,t,z,v\n1e155,0,0,0\n-1e155,0,0,0\n"
                        + "".join(f"0.0,{t},{z},{v}\n" for z in (0, 1)
                                  for v in (0, 1) for t in (0, 1)))
        code, out = _run(capsys, ["estimate", "--json"] + _data_args(path))
        assert code == EXIT_DIAG
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"] == ("y is too large: a cell's mean or spread "
                                   "exceeds 1e+100")

    def test_case_i_with_two_support_points_is_diagnostic_failure(
            self, sample_csv, capsys):
        path, _ = sample_csv
        code, out = _run(capsys, ["estimate", "--mode", "case-i"]
                         + _data_args(path))
        assert code == EXIT_DIAG
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert "error" in report

    def test_simulate_json_validates(self, capsys):
        code, out = _run(capsys, ["simulate", "--design", "1", "--n", "800",
                                  "--reps", "3", "--seed", "4"])
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        rows = {(r["parameter"], r["estimator"]) for r in report["simulate"]["rows"]}
        assert ("beta_star", "gmm") in rows
        assert ("delta_p_star", "ols") in rows

    def test_simulate_reports_failures_by_cause(self, capsys):
        # design 2, n = 40, seed 0: one replication has no first-stage
        # contrast and one fit does not converge
        argv = ["simulate", "--design", "2", "--n", "40", "--reps", "12"]
        code, out = _run(capsys, argv + ["--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        failures = report["simulate"]["failures"]
        assert failures == {"WeakFirstStage": 1, "NoConvergence": 1}
        assert sum(failures.values()) == report["simulate"]["n_failed"]
        code, out = _run(capsys, argv + ["--text"])
        assert code == EXIT_OK
        assert "simulate.failures.WeakFirstStage: 1\n" in out
        assert "simulate.failures.NoConvergence: 1\n" in out

    def test_simulate_bad_design_is_io_error(self, capsys):
        code, _ = _run(capsys, ["simulate", "--design", "9", "--n", "100",
                                "--reps", "1"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_simulate_nonpositive_threads_is_io_error(self, capsys, threads):
        code, out = _run(capsys, ["simulate", "--design", "1", "--n", "100",
                                  "--reps", "1", "--threads", threads])
        assert code == EXIT_IO
        assert out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "n must be at least 1, got 0"),
        (["--reps", "-1"], "reps must be at least 1, got -1"),
        (["--level", "1.5"], "ci_level must be in (0,1), got 1.5"),
        (["--seed", "-1"], "seed must be in 0..2**64-1, got -1"),
    ], ids=["n-0", "reps-negative", "level-1.5", "seed-negative"])
    def test_simulate_bad_option_value_is_io_error(self, capsys, flags,
                                                   message):
        code = main(["simulate", "--design", "1", "--n", "100", "--reps", "1"]
                    + flags)
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_console_script_is_registered(self, monkeypatch):
        target = _declared_scripts().get("mislate")
        assert target == "mislate.cli:main"
        script = EntryPoint(name="mislate", value=target,
                            group="console_scripts").load()
        assert script is main
        # the generated wrapper calls the entry point with no arguments
        monkeypatch.setattr(sys, "argv", ["mislate", "simulate", "--design",
                                          "9", "--n", "100", "--reps", "1"])
        assert script() == EXIT_IO

    @pytest.mark.skipif(not _installed("mislate"),
                        reason="no installed mislate distribution")
    def test_installed_console_script_matches_declaration(self):
        installed = entry_points().select(group="console_scripts",
                                          name="mislate")
        assert [e.value for e in installed] == [_declared_scripts()["mislate"]]


def _fresh_python(*args):
    """The stdout of a fresh interpreter run with args, with this mislate
    on its path; a non-zero exit fails the test."""
    src = str(Path(mislate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], check=True, timeout=120,
                          capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": path}).stdout


def test_import_loads_no_scipy_module():
    # a fresh interpreter: this one may have loaded scipy for the oracles
    code = ("import sys, mislate, mislate.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_python("-c", code) == "[]\n"


def test_a_worker_pool_gives_the_serial_study():
    # `python -m mislate.cli` as a user runs it, so that --threads 2 starts
    # a real pool of two processes (where the host has two CPUs) outside
    # pytest's warning filters; design 2, seed 0: reps 3, 7, 9 and 10 of
    # the 12 take the solver, the rest are fitted as one stack
    def simulate(threads):
        out = _fresh_python("-m", "mislate.cli", "simulate", "--design", "2",
                            "--n", "1000", "--reps", "12", "--threads",
                            str(threads), "--json")
        return json.loads(out)["simulate"]

    serial = simulate(1)
    assert serial["n_failed"] == 0
    assert simulate(2) == serial


def _run_empirical(argv):
    # the empirical illustration's run: `mislate estimate --text` on a CSV
    return main(["estimate", "--text"] + argv)


class TestRunEmpirical:
    def test_summary(self, sample_csv, capsys):
        path, _ = sample_csv
        assert _run_empirical(["--hc1"] + _data_args(path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "baselines.ols.coef: " in out
        assert "baselines.wald_iv.coef: " in out
        assert "estimate.params.0.name: beta_star" in out

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\n1.0,0,0,0\n2.0,2,1,1\n")
        assert _run_empirical(_data_args(path)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: column 't' must be 0 or 1, "
                                "got '2' at line 3\n")

    def test_oversized_field_is_io_error(self, tmp_path, capsys):
        path = _oversized_csv(tmp_path / "big.csv")
        assert _run_empirical(_data_args(path)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: field larger than field limit "
                                "(131072) at line 2\n")

    def test_non_utf8_csv_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,t,z,v\n1.0,1,0,caf\xe9\n")
        assert _run_empirical(_data_args(path)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid UTF-8 at line 2\n"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = _run_empirical(_data_args(tmp_path / "nope.csv"))
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file")

    @pytest.mark.parametrize("level", ["1.5", "0", "1"])
    def test_level_outside_unit_interval_is_io_error(self, sample_csv, capsys,
                                                     level):
        path, _ = sample_csv
        code = _run_empirical(["--level", level] + _data_args(path))
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err == "error: ci_level must be in (0,1)\n"


def _run_montecarlo():
    spec = importlib.util.spec_from_file_location(
        "run_montecarlo", ROOT / "scripts" / "run_montecarlo.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestRunMontecarlo:
    def test_tables(self, capsys):
        argv = ["--n", "1000", "--reps", "2", "--designs", "3"]
        assert _run_montecarlo().main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "design 3: done (0 failed reps)\n"
        rows = [line.split() for line in captured.out.splitlines()
                if line.startswith("     3")]
        assert [row[1:3] for row in rows] == [
            ["gmm", "beta_star"], ["iv", "beta_star"],
            ["gmm", "delta_p_star"], ["ols", "delta_p_star"],
            ["gmm", "m0"], ["gmm", "m1"]]
        assert all(len(row) == 8 and "." not in row for row in rows)

    def test_every_replication_failed_prints_dots(self, capsys):
        argv = ["--n", "12", "--reps", "2", "--designs", "1"]
        assert _run_montecarlo().main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ("design 1: done (2 failed reps: "
                                "2 ValidationError)\n")
        rows = [line.split() for line in captured.out.splitlines()
                if line.startswith("     1")]
        assert len(rows) == 6
        assert all(row[3:] == ["."] * 5 for row in rows)

    def test_done_line_names_the_causes(self, capsys):
        argv = ["--n", "40", "--reps", "12", "--seed", "0", "--designs", "2"]
        assert _run_montecarlo().main(argv) == EXIT_OK
        assert capsys.readouterr().err == (
            "design 2: done (2 failed reps: 1 WeakFirstStage, "
            "1 NoConvergence)\n")

    def test_out_of_memory_is_io_error(self, capsys, monkeypatch):
        # a study whose arrays do not fit; nothing is allocated here
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")

        script = _run_montecarlo()
        monkeypatch.setattr(script, "run_study", too_large)
        argv = ["--n", "1000000000000000", "--reps", "1", "--designs", "1"]
        assert script.main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the study does not fit in memory "
                                "(Unable to allocate 7.28 PiB for an array)\n")

    @pytest.mark.parametrize("argv,message", [
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--designs", "7"], "design must be 1..6, got 7"),
        (["--n", "0"], "n must be at least 1, got 0"),
        (["--reps", "0"], "reps must be at least 1, got 0"),
    ])
    def test_bad_option_value_is_io_error(self, capsys, argv, message):
        assert _run_montecarlo().main(["--reps", "2"] + argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
