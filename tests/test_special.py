"""mislate._special against scipy.special, which serves as the oracle.
Without scipy the comparisons skip and the checks of the ends run."""
import math

import numpy as np
import pytest

from mislate._special import chdtrc, ndtr, ndtri

# the far-tail, end-of-stream and branch-edge points of AS241
EDGES = np.array([0.5 ** 53, 1.0 - 0.5 ** 53, 1e-300, 0.075, 0.925,
                  np.nextafter(0.075, 1.0), np.nextafter(0.925, 0.0), 0.5,
                  np.exp(-25.0), 1.0 - np.exp(-25.0) / 2.0])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _special():
    return pytest.importorskip("scipy.special")


class TestNdtri:
    def test_matches_scipy_on_a_million_uniforms_and_the_edges(self):
        u = np.random.default_rng(0).random(10 ** 6)
        p = np.concatenate([u[u != 0.5], EDGES[EDGES != 0.5]])
        assert _max_rel(ndtri(p), _special().ndtri(p)) <= 2e-15

    def test_matches_scipy_down_the_tails(self):
        p = np.exp(-np.linspace(0.0, 700.0, 20_001)[1:])
        assert _max_rel(ndtri(p), _special().ndtri(p)) <= 2e-15
        assert _max_rel(ndtri(1.0 - p[p > 1e-15]),
                        _special().ndtri(1.0 - p[p > 1e-15])) <= 2e-15

    def test_ends_and_invalid_inputs_raise_no_warning(self):
        # pytest turns a RuntimeWarning into an error here
        got = ndtri(np.array([0.0, 1.0, -0.1, 1.1, np.nan, 0.5]))
        np.testing.assert_array_equal(got, [-np.inf, np.inf, np.nan, np.nan,
                                            np.nan, 0.0])

    def test_keeps_the_input_shape(self):
        p = np.random.default_rng(1).random((3, 4))
        assert ndtri(p).shape == (3, 4)
        assert ndtri(np.empty(0)).shape == (0,)
        # the critical value of a Wald interval is ndtri of one float
        assert ndtri(0.975).shape == ()
        assert _max_rel(ndtri(0.975), _special().ndtri(0.975)) <= 2e-15


class TestNdtr:
    def test_matches_scipy_on_minus_8_to_8(self):
        x = np.linspace(-8.0, 8.0, 160_001)
        got = np.array([ndtr(float(v)) for v in x])
        assert float(np.max(np.abs(got - _special().ndtr(x)))) <= 4e-16

    def test_ends(self):
        assert ndtr(0.0) == 0.5
        assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0


def _refused(dof, j):
    with pytest.raises(ValueError, match=f"^dof must be even, got {dof}$"):
        chdtrc(dof, j)


class TestChdtrc:
    # a J test's dof, 2K - 4 or 2K - 6, is even, and an odd dof is refused
    @pytest.mark.parametrize("dof", range(1, 12))
    def test_matches_scipy(self, dof):
        j = np.geomspace(0.01, 60.0, 2001)
        if dof % 2:
            _refused(dof, float(j[0]))
            return
        got = np.array([chdtrc(dof, float(v)) for v in j])
        assert _max_rel(got, _special().chdtrc(dof, j)) <= 1e-13

    @pytest.mark.parametrize("dof", [1, 2, 3, 8])
    def test_ends_raise_no_warning(self, dof):
        # e^(-j/2) underflows from j = 1e5 on; as scipy, a J statistic
        # rounded below 0 has p-value 1. An odd dof is refused at each j
        for j, want in ((0.0, 1.0), (1e5, 0.0), (1e308, 0.0), (math.inf, 0.0),
                        (-1.0, 1.0), (math.nan, math.nan)):
            if dof % 2:
                _refused(dof, j)
            elif math.isnan(want):
                assert math.isnan(chdtrc(dof, j))
            else:
                assert chdtrc(dof, j) == want
