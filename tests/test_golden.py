"""scripts/golden.py's comparison of two trees' outputs."""
import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _fit(theta, error=None, objective=1.0):
    return {"theta": np.array(theta), "se": np.array([0.5, 0.5]),
            "objective": np.float64(objective), "converged": True,
            "error": error}


def test_equal_outputs_with_nan_are_bit_identical():
    lines, same = golden.compare({"overid a": _fit([1.0, np.nan])},
                                 {"overid a": _fit([1.0, np.nan])})
    assert same and "overid: 1 of 1 outputs bit-identical" in lines


def test_a_nan_that_moves_is_an_infinite_drift():
    new, old = _fit([1.0, np.nan]), _fit([1.0, 2.0])
    assert golden._drift(new["theta"], old["theta"]) == np.inf
    lines, same = golden.compare({"overid a": new}, {"overid a": old})
    assert not same and "overid: 0 of 1 outputs bit-identical" in lines


def test_drift_se_units_and_objective_ratio_are_reported():
    lines, same = golden.compare({"overid a": _fit([1.0, 2.5], objective=2.0)},
                                 {"overid a": _fit([1.0, 2.0], objective=1.0)})
    assert not same
    assert "  theta: worst relative drift 0.25 (overid a)" in lines
    assert "  theta in SE units: worst drift 1 (overid a)" in lines
    assert any("1 +1 (overid a)" in line for line in lines)


def test_an_error_class_or_a_missing_output_is_listed():
    lines, same = golden.compare(
        {"study a": {"error": "NoConvergence"}, "study b": {"x": np.zeros(2)}},
        {"study a": {"error": None}})
    assert not same
    assert "  differs: study a: error None -> 'NoConvergence'" in lines
    assert "  differs: study b: only in this tree" in lines
