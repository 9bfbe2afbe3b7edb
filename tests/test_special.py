"""mislate._special against scipy.special, which serves as the oracle."""
import math

import numpy as np
import pytest
from scipy import special

from mislate._special import chdtrc, ndtr, ndtri

# the far-tail, end-of-stream and branch-edge points of AS241
EDGES = np.array([0.5 ** 53, 1.0 - 0.5 ** 53, 1e-300, 0.075, 0.925,
                  np.nextafter(0.075, 1.0), np.nextafter(0.925, 0.0), 0.5,
                  np.exp(-25.0), 1.0 - np.exp(-25.0) / 2.0])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestNdtri:
    def test_matches_scipy_on_a_million_uniforms_and_the_edges(self):
        u = np.random.default_rng(0).random(10 ** 6)
        p = np.concatenate([u[u != 0.5], EDGES[EDGES != 0.5]])
        assert _max_rel(ndtri(p), special.ndtri(p)) <= 2e-15

    def test_matches_scipy_down_the_tails(self):
        p = np.exp(-np.linspace(0.0, 700.0, 20_001)[1:])
        assert _max_rel(ndtri(p), special.ndtri(p)) <= 2e-15
        assert _max_rel(ndtri(1.0 - p[p > 1e-15]),
                        special.ndtri(1.0 - p[p > 1e-15])) <= 2e-15

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
        assert _max_rel(ndtri(0.975), special.ndtri(0.975)) <= 2e-15


class TestNdtr:
    def test_matches_scipy_on_minus_8_to_8(self):
        x = np.linspace(-8.0, 8.0, 160_001)
        got = np.array([ndtr(float(v)) for v in x])
        assert float(np.max(np.abs(got - special.ndtr(x)))) <= 4e-16

    def test_ends(self):
        assert ndtr(0.0) == 0.5
        assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0


class TestChdtrc:
    @pytest.mark.parametrize("dof", range(1, 12))
    def test_matches_scipy(self, dof):
        j = np.geomspace(0.01, 60.0, 2001)
        got = np.array([chdtrc(dof, float(v)) for v in j])
        assert _max_rel(got, special.chdtrc(dof, j)) <= 1e-13

    @pytest.mark.parametrize("dof", [1, 2, 3, 8])
    def test_ends_raise_no_warning(self, dof):
        assert chdtrc(dof, 0.0) == 1.0
        # e^(-j/2) underflows
        assert chdtrc(dof, 1e5) == 0.0
        assert chdtrc(dof, 1e308) == 0.0
        assert chdtrc(dof, math.inf) == 0.0
        # as scipy: a J statistic rounded below 0 has p-value 1
        assert chdtrc(dof, -1.0) == 1.0
        assert math.isnan(chdtrc(dof, math.nan))
