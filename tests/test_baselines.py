import numpy as np
import pytest

from conftest import random_theta, row_iv_fit, simulate_from_theta, stack_tables
from mislate.baselines import (
    naive_bias_diag,
    ols,
    relevance_test,
    wald_iv,
)
from mislate.data import Dataset, Mode, cell_stats
from mislate.exceptions import RankDeficient, ValidationError, WeakFirstStage
from mislate.simulation import DesignSpec, generate


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
        stats = cell_stats(ds)
        res = wald_iv(stats)
        wald = (stats.mu_z[1] - stats.mu_z[0]) / (stats.p_z[1] - stats.p_z[0])
        assert res.coef[1] == pytest.approx(wald, abs=1e-10)

    def test_instrument_label_flip_negates_nothing(self, rng):
        # relabelling z -> 1-z leaves the Wald slope unchanged
        n = 1500
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        y = 1.5 * t + rng.normal(size=n)
        a = wald_iv(cell_stats(_ds(y, t, z)))
        b = wald_iv(cell_stats(_ds(y, t, 1 - z)))
        assert a.coef[1] == pytest.approx(b.coef[1], abs=1e-10)

    def test_zero_first_stage_raises(self):
        y = np.arange(8.0)
        t = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(WeakFirstStage):
            wald_iv(cell_stats(_ds(y, t, z)))

    def test_hc1_inflates_hc0(self, rng):
        n = 300
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        y = t + rng.normal(size=n)
        ds = _ds(y, t, z)
        se0 = wald_iv(cell_stats(ds)).robust_se
        se1 = wald_iv(cell_stats(ds), hc1=True).robust_se
        np.testing.assert_allclose(se1, se0 * np.sqrt(n / (n - 2)))


@pytest.mark.parametrize("hc1", [False, True])
def test_a_stack_is_fitted_as_each_table_alone(hc1):
    tables = [cell_stats(generate(DesignSpec(d), 800, seed=5, rep=d)[0])
              for d in range(1, 7)]
    stack = stack_tables(tables)
    for fit in (lambda s: wald_iv(s, hc1),
                lambda s: ols(s, outcome="t", regressors=("z",), hc1=hc1),
                lambda s: ols(s, outcome="y", regressors=("t", "v"), hc1=hc1)):
        together = fit(stack)
        for i, table in enumerate(tables):
            alone = fit(table)
            for name in ("coef", "robust_se", "vcov"):
                assert (getattr(together, name)[i].tobytes()
                        == getattr(alone, name).tobytes())
            assert together.n[i] == alone.n


class TestOls:
    def test_matches_lstsq(self, rng):
        n = 400
        z = (rng.random(n) < 0.5).astype(int)
        t = (rng.random(n) < 0.3 + 0.3 * z).astype(int)
        y = 1.0 + 0.7 * t + rng.normal(size=n)
        ds = _ds(y, t, z)
        res = ols(cell_stats(ds), "y", ("t", "z"))
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
        res = ols(cell_stats(ds), "y", ("t",))
        assert res.coef[1] == pytest.approx(3.0, abs=1e-12)
        # group residual sums of squares: (1,3,2) about 2 -> 2 ; (6,4) about 5 -> 2
        var0, var1 = 2.0 / 9.0, 2.0 / 4.0
        assert res.robust_se[1] == pytest.approx(np.sqrt(var0 + var1), abs=1e-12)

    def test_collinear_raises(self):
        y = np.arange(6.0)
        t = np.array([0, 1, 0, 1, 0, 1])
        ds = _ds(y, t, t.copy())
        with pytest.raises(RankDeficient):
            ols(cell_stats(ds), "y", ("t", "z"))

    def test_v_uses_numeric_labels_when_possible(self, rng):
        n = 200
        v = rng.integers(0, 2, size=n)
        y = 10.0 * v + rng.normal(size=n)
        t = (rng.random(n) < 0.5).astype(int)
        z = (rng.random(n) < 0.5).astype(int)
        a = Dataset(y=y, t=t, z=z, v=v, v_support=(0, 1), mode=Mode.CASE_II)
        b = Dataset(y=y, t=t, z=z, v=v, v_support=("0", "10"), mode=Mode.CASE_II)
        ca = ols(cell_stats(a), "y", ("v",)).coef[1]
        cb = ols(cell_stats(b), "y", ("v",)).coef[1]
        assert ca == pytest.approx(10.0 * cb, abs=1e-8)


    def test_refuses_y_regressor_and_unknown_names(self, rng):
        stats = cell_stats(_random_dataset(rng, 2))
        for outcome, regressors in (("t", ("y",)), ("y", ("t", "y")),
                                    ("w", ("t",)), ("y", ("x",))):
            with pytest.raises(ValidationError):
                ols(stats, outcome, regressors)


class TestRelevance:
    def test_slope_reflects_first_stage(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 50_000, rng)
        out = relevance_test(cell_stats(ds))
        s = float(1.0 - theta.m0[0] - theta.m1[0])
        for z in (0, 1):
            slope_true = s * (theta.p_star[z, 1] - theta.p_star[z, 0])
            assert out[z].coef[1] == pytest.approx(slope_true, abs=0.02)
            assert out[z].n == int((ds.z == z).sum())

    def test_empty_subsample_raises(self):
        ds = _ds(np.zeros(4), [0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1], k=2)
        with pytest.raises(WeakFirstStage):
            relevance_test(cell_stats(ds))


class TestNaiveBias:
    def test_attenuation_law_population(self, rng):
        # the naive Wald recovers beta*/s, so beta_naive * s ~ beta*
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 200_000, rng)
        rep = naive_bias_diag(theta.beta_star, float(theta.m0[0]),
                              float(theta.m1[0]), wald_iv(cell_stats(ds)))
        s = float(1.0 - theta.m0[0] - theta.m1[0])
        assert rep.s_hat == pytest.approx(s, abs=1e-12)
        assert rep.beta_naive_times_s == pytest.approx(theta.beta_star, abs=0.1)
        assert rep.gap == rep.beta_naive_times_s - rep.beta_star_hat


def _labels(kind, k):
    return {"codes": tuple(range(k)),
            "numeric": tuple(f"{0.75 * j - 1.0:g}" for j in range(k)),
            "strings": tuple("abcde"[:k])}[kind]


def _random_dataset(rng, k, labels="codes", empty_cell=False, n=600):
    z = (rng.random(n) < 0.45).astype(int)
    v = rng.integers(0, k, size=n)
    t = (rng.random(n) < 0.15 + 0.5 * z + 0.3 * v / k).astype(int)
    y = 2.0 + 1.5 * t + 0.4 * v + (1.0 + t) * rng.normal(size=n)
    if empty_cell:
        keep = ~((z == 1) & (v == k - 1) & (t == 0))
        y, t, z, v = y[keep], t[keep], z[keep], v[keep]
    return Dataset(y=y, t=t, z=z, v=v, v_support=_labels(labels, k),
                   mode=Mode.CASE_II)


def _assert_matches(res, oracle, names, n):
    assert res.names == names
    assert res.n == n
    for got, want in zip((res.coef, res.robust_se, res.vcov), oracle):
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(want)))


PARITY_CASES = [
    pytest.param(k, labels, empty, hc1,
                 id=f"K{k}-{labels}{'-empty' if empty else ''}-"
                    f"{'hc1' if hc1 else 'hc0'}")
    for k, labels, empty in ((2, "codes", False), (3, "numeric", False),
                             (4, "strings", False), (5, "numeric", False),
                             (2, "numeric", True), (3, "strings", True))
    for hc1 in (False, True)
]


@pytest.mark.parametrize("k,labels,empty,hc1", PARITY_CASES)
def test_table_baselines_match_the_row_fit(rng, k, labels, empty, hc1):
    ds = _random_dataset(rng, k, labels, empty)
    stats = cell_stats(ds)
    assert np.any(stats.n_zvt == 0) == empty
    try:
        vnum = np.array([float(lab) for lab in ds.v_support])
    except ValueError:
        vnum = np.arange(k, dtype=float)
    cols = {"y": ds.y, "t": ds.t.astype(float), "z": ds.z.astype(float),
            "v": vnum[ds.v]}
    one = np.ones(ds.n)

    _assert_matches(
        wald_iv(stats, hc1=hc1),
        row_iv_fit(ds.y, np.column_stack([one, cols["t"]]),
                   np.column_stack([one, cols["z"]]), hc1),
        ("const", "t"), ds.n)
    for outcome, regressors in (("y", ("t",)), ("y", ("t", "z")),
                                ("y", ("v",)), ("y", ("t", "z", "v")),
                                ("t", ("z",)), ("t", ("v",)),
                                ("t", ("z", "v"))):
        X = np.column_stack([one] + [cols[r] for r in regressors])
        _assert_matches(ols(stats, outcome, regressors, hc1=hc1),
                        row_iv_fit(cols[outcome], X, X, hc1),
                        ("const",) + regressors, ds.n)
    out = relevance_test(stats, hc1=hc1)
    for z in (0, 1):
        arm = ds.z == z
        X = np.column_stack([np.ones(arm.sum()), cols["v"][arm]])
        _assert_matches(out[z], row_iv_fit(cols["t"][arm], X, X, hc1),
                        ("const", "v"), int(arm.sum()))


def test_wald_se_survives_a_large_outcome_offset():
    # a table of raw sums of y**2 loses the residual scale to cancellation
    # once y carries an offset of 1e6; the centred sums of squares do not
    ds, _ = generate(DesignSpec(3), 100_000, seed=5)
    shifted = Dataset(y=ds.y + 1e6, t=ds.t, z=ds.z, v=ds.v,
                      v_support=ds.v_support, mode=ds.mode)
    a = wald_iv(cell_stats(ds))
    b = wald_iv(cell_stats(shifted))
    np.testing.assert_allclose(b.robust_se, a.robust_se, rtol=1e-7, atol=0)
