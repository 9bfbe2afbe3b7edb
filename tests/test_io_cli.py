import json
import sys
from importlib.metadata import (EntryPoint, PackageNotFoundError,
                                distribution, entry_points)
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import random_theta, simulate_from_theta
from mislate.cli import EXIT_DIAG, EXIT_IO, EXIT_OK, main
from mislate.data import Mode
from mislate.exceptions import ParseError, SchemaError
from mislate.io import CsvSchema, format_number, load_csv, report_json, report_text

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.schema.json")
    .read_text()
)
STD_SCHEMA = CsvSchema(y_col="y", t_col="t", z_col="z", v_col="v")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
