import csv
import importlib.util
import json
import sys
from importlib.metadata import (EntryPoint, PackageNotFoundError,
                                distribution, entry_points)
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import random_theta, simulate_from_theta
from mislate import io as mio
from mislate.cli import EXIT_DIAG, EXIT_IO, EXIT_OK, main
from mislate.data import Mode
from mislate.exceptions import (NoConvergence, ParseError, SchemaError,
                                ValidationError)
from mislate.io import CsvSchema, format_number, load_csv, report_json, report_text

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

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,t,z\n1.0,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(path, STD_SCHEMA, Mode.CASE_II)

    def test_empty_and_no_rows(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            load_csv(empty, STD_SCHEMA, Mode.CASE_II)
        headonly = tmp_path / "head.csv"
        headonly.write_text("y,t,z,v\n\n")
        with pytest.raises(SchemaError):
            load_csv(headonly, STD_SCHEMA, Mode.CASE_II)

    def test_headerless_and_delimiter(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("1.0\t0\t0\t0\n2.0\t1\t1\t1\n")
        schema = CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v",
                           delimiter="\t", header=False)
        ds = load_csv(path, schema, Mode.CASE_II)
        assert ds.n == 2
        with pytest.raises(ParseError) as err:
            bad = tmp_path / "short.tsv"
            bad.write_text("1.0\t0\t0\t0\n2.0\t1\n")
            load_csv(bad, schema, Mode.CASE_II)
        assert err.value.line == 2


# chunk size the reader tests run with, so that a few rows span several chunks
CHUNK = 4
LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(mio, "CHUNK_ROWS", CHUNK)


def _row_loop(path, schema, v_support=None):
    """Reference reader: the row rules over the whole file as one chunk, V
    coded in plain Python (first appearance unless v_support pins it)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=schema.delimiter))
    cols = (schema.y_col, schema.t_col, schema.z_col, schema.v_col)
    if schema.header:
        header = [h.strip() for h in rows.pop(0)]
        idx = {c: header.index(c) for c in cols}
        first = 2
    else:
        idx = dict(zip(cols, range(4)))
        first = 1
    y, t, z, labels = mio._parse_rows(rows, first, schema, idx)
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
    if kind == "headerless-tab":
        return "".join("\t".join(r) + "\n" for r in records)
    if kind == "extra-columns":
        return "id,v,extra,z,y,t,more\n" + "".join(
            f"{i},{v},x{i},{z},{y},{t},\n"
            for i, (y, t, z, v) in enumerate(records))
    lines = ["y,t,z,v"]
    for i, (y, t, z, v) in enumerate(records):
        if kind == "quoted":
            lines.append(f'"{y}","{t}",{z},"{v}, ""{i % 2}"""')
        elif kind == "padded-binaries":
            lines.append(f"{y}, {t} ,{z} , {v} ")
        else:
            lines.append(f"{y},{t},{z},{v}")
        if kind == "blank-lines" and i % 3 == 0:
            lines.append("")
        if kind == "whitespace-rows" and i % 3 == 1:
            lines.append("  ,\t, ,  " if i % 2 else "   ")
    end = "\r\n" if kind == "crlf" else "\n"
    return end.join(lines) + end


KINDS = ("plain", "blank-lines", "whitespace-rows", "crlf", "quoted",
         "padded-binaries", "extra-columns", "headerless-tab")
# layouts with no blank row: every chunk converts a column at a time
COLUMNAR_KINDS = {"plain", "crlf", "quoted", "padded-binaries",
                  "extra-columns", "headerless-tab"}


def _schema(kind):
    if kind == "headerless-tab":
        return CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v",
                         delimiter="\t", header=False)
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

        def spy(rows, first_line, *rest):
            calls.append(first_line)
            return row_rules(rows, first_line, *rest)

        monkeypatch.setattr(mio, "_parse_rows", spy)
        ds = load_csv(path, schema, Mode.CASE_II)
        for got, ref in zip((ds.y, ds.t, ds.z, ds.v), want[:4]):
            assert np.array_equal(got, ref)
        assert ds.v_support == want[4]
        assert ds.n == n
        if kind in COLUMNAR_KINDS:
            assert calls == []

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

    def test_blank_rows_count_in_line_numbers(self, tmp_path, small_chunks):
        rows = _clean(CHUNK + 1) + ["", "  ,  ,,", "1.0,0,1,0", "x,0,0,0"]
        path = tmp_path / "bad.csv"
        path.write_text(_lines(*rows))
        assert _parse_failure(path) == ("column 'y' not numeric at line 10", 10)

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

    def test_estimate_deterministic(self, sample_csv, capsys):
        path, _ = sample_csv
        _, out1 = _run(capsys, ["estimate"] + _data_args(path))
        _, out2 = _run(capsys, ["estimate"] + _data_args(path))
        assert out1 == out2

    def test_estimate_text_matches_json_numbers(self, sample_csv, capsys):
        path, _ = sample_csv
        _, jout = _run(capsys, ["estimate"] + _data_args(path))
        code, tout = _run(capsys, ["estimate", "--text"] + _data_args(path))
        assert code == EXIT_OK
        beta = json.loads(jout)["estimate"]["params"][0]["estimate"]
        assert f"estimate.params.0.estimate: {beta:.3f}" in tout

    def test_identify_json_validates(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out = _run(capsys, ["identify"] + _data_args(path))
        assert code == EXIT_OK
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["identify"]["params"][0]["name"] == "beta_star"

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
        code, _ = _run(capsys, ["estimate"]
                       + _data_args(tmp_path / "nope.csv"))
        assert code == EXIT_IO

    def test_parse_error_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\n1.0,9,0,0\n")
        code, _ = _run(capsys, ["estimate"] + _data_args(path))
        assert code == EXIT_IO

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


def _run_empirical():
    spec = importlib.util.spec_from_file_location(
        "run_empirical", ROOT / "scripts" / "run_empirical.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestRunEmpirical:
    def test_summary(self, sample_csv, capsys):
        path, _ = sample_csv
        assert _run_empirical().main(_data_args(path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "naive IV" in out and "beta_star" in out

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,z,v\n1.0,0,0,0\n2.0,2,1,1\n")
        assert _run_empirical().main(_data_args(path)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: column 't' must be 0 or 1, "
                                "got '2' at line 3\n")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = _run_empirical().main(_data_args(tmp_path / "nope.csv"))
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file")

    def test_estimation_failure_is_diagnostic_failure(self, sample_csv,
                                                      monkeypatch, capsys):
        script = _run_empirical()

        def fail(ds, cfg):
            raise NoConvergence("optimizer stopped")

        monkeypatch.setattr(script, "estimate", fail)
        path, _ = sample_csv
        assert script.main(_data_args(path)) == EXIT_DIAG
        assert capsys.readouterr().err == "error: optimizer stopped\n"
