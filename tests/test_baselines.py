import numpy as np
import pytest

from conftest import random_theta, simulate_from_theta
from mislate.baselines import (
    naive_bias_diag,
    ols,
    relevance_test,
    wald_iv,
)
from mislate.data import Dataset, Mode, cell_stats
from mislate.exceptions import RankDeficient, WeakFirstStage


def _ds(y, t, z, v=None, k=1):
    y = np.asarray(y, float)
    n = y.size
    v = np.zeros(n, dtype=int) if v is None else np.asarray(v)
    return Dataset(y=y, t=np.asarray(t), z=np.asarray(z), v=v,
                   v_support=tuple(range(k)), mode=Mode.CASE_II)


class TestWaldIV:
    def test_equals_wald_ratio(self, rng):
        n = 2000
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        y = 2.0 * t + rng.normal(size=n)
        ds = _ds(y, t, z)
        res = wald_iv(ds)
        stats = cell_stats(ds, require_cells=False)
        wald = (stats.mu_z[1] - stats.mu_z[0]) / (stats.p_z[1] - stats.p_z[0])
        assert res.coef[1] == pytest.approx(wald, abs=1e-10)

    def test_instrument_label_flip_negates_nothing(self, rng):
        # relabelling z -> 1-z leaves the Wald slope unchanged
        n = 1500
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        y = 1.5 * t + rng.normal(size=n)
        a = wald_iv(_ds(y, t, z))
        b = wald_iv(_ds(y, t, 1 - z))
        assert a.coef[1] == pytest.approx(b.coef[1], abs=1e-10)

    def test_zero_first_stage_raises(self):
        y = np.arange(8.0)
        t = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(WeakFirstStage):
            wald_iv(_ds(y, t, z))

    def test_hc1_inflates_hc0(self, rng):
        n = 300
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        y = t + rng.normal(size=n)
        ds = _ds(y, t, z)
        se0 = wald_iv(ds).robust_se
        se1 = wald_iv(ds, hc1=True).robust_se
        np.testing.assert_allclose(se1, se0 * np.sqrt(n / (n - 2)))


class TestOls:
    def test_matches_lstsq(self, rng):
        n = 400
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.3 + 0.3 * z).astype(int)
        y = 1.0 + 0.7 * t + rng.normal(size=n)
        ds = _ds(y, t, z)
        res = ols(ds, "y", ("t", "z"))
        X = np.column_stack([np.ones(n), t, z])
        expect, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(res.coef, expect, atol=1e-10)
        assert res.names == ("const", "t", "z")

    def test_hc0_oracle_binary_regressor(self):
        # y on a binary x: slope ybar1 - ybar0 and HC0 variance
        # sum e^2 within each group scaled by the group counts
        y = np.array([1.0, 3.0, 2.0, 6.0, 4.0])
        t = np.array([0, 0, 0, 1, 1])
        ds = _ds(y, t, np.array([0, 1, 0, 1, 0]))
        res = ols(ds, "y", ("t",))
        assert res.coef[1] == pytest.approx(3.0, abs=1e-12)
        # group residual sums of squares: (1,3,2) about 2 -> 2 ; (6,4) about 5 -> 2
        var0, var1 = 2.0 / 9.0, 2.0 / 4.0
        assert res.robust_se[1] == pytest.approx(np.sqrt(var0 + var1), abs=1e-12)

    def test_collinear_raises(self):
        y = np.arange(6.0)
        t = np.array([0, 1, 0, 1, 0, 1])
        ds = _ds(y, t, t.copy())
        with pytest.raises(RankDeficient):
            ols(ds, "y", ("t", "z"))

    def test_v_uses_numeric_labels_when_possible(self, rng):
        n = 200
        v = rng.integers(0, 2, size=n)
        y = 10.0 * v + rng.normal(size=n)
        t = (rng.random(n) < 0.5).astype(int)
        z = (rng.random(n) < 0.5).astype(int)
        a = Dataset(y=y, t=t, z=z, v=v, v_support=(0, 1), mode=Mode.CASE_II)
        b = Dataset(y=y, t=t, z=z, v=v, v_support=("0", "10"), mode=Mode.CASE_II)
        ca = ols(a, "y", ("v",)).coef[1]
        cb = ols(b, "y", ("v",)).coef[1]
        assert ca == pytest.approx(10.0 * cb, abs=1e-8)


class TestRelevance:
    def test_slope_reflects_first_stage(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 50_000, rng)
        out = relevance_test(ds)
        s = float(theta.s[0])
        for z in (0, 1):
            slope_true = s * (theta.p_star[z, 1] - theta.p_star[z, 0])
            assert out[z].coef[1] == pytest.approx(slope_true, abs=0.02)
            assert out[z].n == int((ds.z == z).sum())

    def test_empty_subsample_raises(self):
        ds = _ds(np.zeros(4), [0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1], k=2)
        with pytest.raises(WeakFirstStage):
            relevance_test(ds)


class TestNaiveBias:
    def test_attenuation_law_population(self, rng):
        # the naive Wald recovers beta*/s, so beta_naive * s ~ beta*
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 200_000, rng)
        rep = naive_bias_diag(theta.beta_star, float(theta.m0[0]),
                              float(theta.m1[0]), wald_iv(ds))
        assert rep.s_hat == pytest.approx(float(theta.s[0]), abs=1e-12)
        assert rep.beta_naive_times_s == pytest.approx(theta.beta_star, abs=0.1)
        assert rep.gap == rep.beta_naive_times_s - rep.beta_star_hat
