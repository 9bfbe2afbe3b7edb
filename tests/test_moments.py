import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cell_grid, central_differences, moment_matrix,
                      random_theta, simulate_from_theta, stack_tables)
from mislate import data
from mislate.data import Dataset, Mode, ParamVector, cell_stats
from mislate.exceptions import DomainError, ValidationError
from mislate.identification import (forward_cell_stats, identify, implied_p,
                                    implied_tau)
from mislate import moments
from mislate.moments import MomentSums, gbar_and_jacobian, gbar_jacobian_omega


TABLE_CASES = [
    pytest.param(mode, k, id=f"{mode.value}-K{k}")
    for mode, k in ((Mode.CASE_II, 2), (Mode.CASE_II, 5), (Mode.CASE_I, 3),
                    (Mode.CASE_I, 4))
]


def _at(stats, theta):
    """(gbar, G, Omega) as a fit evaluates them at its estimate."""
    return gbar_jacobian_omega(stats, theta.pack())


def _step(stats, theta_flat):
    """(gbar, G) as a solver step evaluates them."""
    return gbar_and_jacobian(MomentSums.of(stats), theta_flat)


class TestLayout:
    @pytest.mark.parametrize("k,mode,n_params,n_overid", [
        (2, Mode.CASE_II, 11, 0),
        (3, Mode.CASE_II, 13, 2),
        (3, Mode.CASE_I, 15, 0),
        (5, Mode.CASE_I, 19, 4),
    ])
    def test_counts(self, rng, k, mode, n_params, n_overid):
        theta = random_theta(rng, mode, k)
        g, G = _step(forward_cell_stats(theta), theta.pack())
        assert g.shape == (4 * k + 3,) and G.shape == (4 * k + 3, n_params)
        assert data.n_params(k, mode) == n_params
        assert moments._n_overid(k, mode) == n_overid


def _exact_count_dataset(theta, per_cell=2000):
    """Expand a CASE_II parameter vector into a dataset whose cell
    frequencies hit the implied probabilities exactly (integer counts)."""
    cols = {"y": [], "t": [], "z": [], "v": []}
    for z in (0, 1):
        for v in range(theta.k):
            q = implied_p(float(theta.m0[z]), float(theta.m1[z]),
                          float(theta.p_star[z, v]))
            n1 = q * per_cell
            assert n1 == round(n1), "choose per_cell so counts are integers"
            tau_cell = implied_tau(float(theta.m0[z]), float(theta.m1[z]), q,
                                   float(theta.tau_star[z]))
            reps = [int(n1), per_cell - int(n1)]
            cols["y"].append(np.repeat([tau_cell, 0.0], reps))
            cols["t"].append(np.repeat([1, 0], reps))
            cols["z"].append(np.full(per_cell, z))
            cols["v"].append(np.full(per_cell, v))
    return Dataset(**{c: np.concatenate(x) for c, x in cols.items()},
                   v_support=tuple(range(theta.k)), mode=theta.mode)


def _oracle_theta():
    m0 = np.array([0.25, 0.25])
    m1 = np.array([0.25, 0.25])
    p_star = np.array([[0.1, 0.35], [0.5, 0.75]])
    tau_star = np.array([1.0, 0.8])
    mu = np.zeros(2)
    for z in (0, 1):
        for v in range(2):
            q = implied_p(0.25, 0.25, p_star[z, v])
            mu[z] += 0.5 * q * implied_tau(0.25, 0.25, q, tau_star[z])
    dp = 0.5 * (p_star[1].sum() - p_star[0].sum())
    return ParamVector(
        beta_star=float((mu[1] - mu[0]) / dp), delta_p_star=float(dp),
        r=0.5, m0=m0, m1=m1, p_star=p_star, tau_star=tau_star,
        mode=Mode.CASE_II,
    )


class TestMomentZero:
    def test_exact_frequency_oracle(self):
        theta = _oracle_theta()
        ds = _exact_count_dataset(theta)
        assert np.max(np.abs(_at(cell_stats(ds), theta)[0])) < 1e-10

    def test_closed_form_plug_in_zeroes_sample_moments(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 4000, rng)
        fitted = identify(cell_stats(ds), Mode.CASE_II).theta
        assert np.max(np.abs(_at(cell_stats(ds), fitted)[0])) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_plug_in_zero_property(self, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 1500, rng)
        try:
            fitted = identify(cell_stats(ds), Mode.CASE_II).theta
        except Exception:
            # a small sample can land outside the identified region;
            # the property only concerns successful solves
            return
        assert np.max(np.abs(_at(cell_stats(ds), fitted)[0])) < 1e-9

    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_population_table_zeroes_moments(self, rng, mode, k):
        theta = random_theta(rng, mode, k)
        assert np.max(np.abs(_at(forward_cell_stats(theta), theta)[0])) < 1e-12


def _table_case(rng, mode, k, n=500):
    """A sample of n rows; an empty (z, v, t) cell simply adds nothing."""
    theta = random_theta(rng, mode, k)
    ds = replace(simulate_from_theta(theta, n, rng), mode=mode)
    return theta, ds


def _row_mean(ds, theta_flat, k, mode):
    """Exactly rounded mean of the dense moment rows."""
    rows = moment_matrix(ds, ParamVector.unpack(theta_flat, k, mode))
    return np.array([math.fsum(col) for col in rows.T]) / ds.n


class TestStructure:
    def test_indicator_sparsity(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 200, rng)
        k = ds.k
        g = moment_matrix(ds, theta)
        for i in range(ds.n):
            z, v = int(ds.z[i]), int(ds.v[i])
            p_cols = [1 + zz * k + vv for zz in (0, 1)
                      for vv in range(k) if (zz, vv) != (z, v)]
            tau_cols = [1 + 2 * k + zz * k + vv for zz in (0, 1)
                        for vv in range(k) if (zz, vv) != (z, v)]
            assert np.all(g[i, p_cols] == 0.0)
            assert np.all(g[i, tau_cols] == 0.0)

    def test_duplication_invariance(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 300, rng)
        doubled = Dataset(
            y=np.concatenate([ds.y, ds.y]), t=np.concatenate([ds.t, ds.t]),
            z=np.concatenate([ds.z, ds.z]), v=np.concatenate([ds.v, ds.v]),
            v_support=ds.v_support, mode=ds.mode,
        )
        a = _at(cell_stats(ds), theta)
        b = _at(cell_stats(doubled), theta)
        np.testing.assert_allclose(a[0], b[0], atol=1e-15)
        np.testing.assert_allclose(a[2], b[2], atol=1e-15)

    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_omega_is_uncentered_second_moment(self, rng, mode, k):
        theta, ds = _table_case(rng, mode, k)
        omega = _at(cell_stats(ds), theta)[2]
        rows = moment_matrix(ds, theta)
        expected = sum(np.outer(row, row) for row in rows) / ds.n
        np.testing.assert_allclose(omega, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode,k", [
        pytest.param(mode, k, id=f"{mode.value}-K{k}")
        for mode, k in ((Mode.CASE_II, 2), (Mode.CASE_II, 3), (Mode.CASE_I, 3),
                        (Mode.CASE_I, 4))])
    def test_one_evaluation_at_the_estimate_matches_rows(self, rng, mode, k):
        # gbar and G are the bits each solver step reads; Omega is the row
        # oracle's second moment
        theta, ds = _table_case(rng, mode, k, n=2000)
        stats = cell_stats(ds)
        g, G, omega = gbar_jacobian_omega(stats, theta.pack())
        g_step, G_step = _step(stats, theta.pack())
        assert g.tobytes() == g_step.tobytes()
        assert G.tobytes() == G_step.tobytes()
        np.testing.assert_allclose(g, _row_mean(ds, theta.pack(), k, mode),
                                   rtol=1e-12, atol=1e-14)
        rows = moment_matrix(ds, theta)
        expected = sum(np.outer(row, row) for row in rows) / ds.n
        np.testing.assert_allclose(omega, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_a_stack_is_evaluated_as_each_table_alone(self, rng, mode, k):
        # the stack's axis is the only difference: every number is the bits
        # of its table's own evaluation
        cases = [_table_case(rng, mode, k, n=500) for _ in range(5)]
        tables = [cell_stats(ds) for _, ds in cases]
        x = np.stack([theta.pack() for theta, _ in cases])
        stack = stack_tables(tables)
        together = gbar_jacobian_omega(stack, x)
        for i, table in enumerate(tables):
            alone = gbar_jacobian_omega(table, x[i])
            for got, want in zip(together, alone):
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_closed_form_gbar_matches_cell_intercepts_and_slopes(
            self, rng, mode, k):
        theta, ds = _table_case(rng, mode, k)
        stats = cell_stats(ds)
        a, b = moments._cell_rows(moments._terms(MomentSums.of(stats),
                                                 theta.pack()))
        cells = (stats.n_zvt.ravel() @ a + stats.sum_y.ravel() @ b) / stats.n
        assert np.max(np.abs(_step(stats, theta.pack())[0] - cells)) <= 1e-13
        # every cell's row at y = 0 and y = 1, against the row-by-row oracle
        rows = moment_matrix(cell_grid(k, mode), theta)
        assert np.max(np.abs(a - rows[:4 * k])) <= 1e-13
        assert np.max(np.abs(a + b - rows[4 * k:])) <= 1e-13

    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_table_gbar_and_jacobian_match_rows(self, rng, mode, k):
        theta, ds = _table_case(rng, mode, k)
        stats = cell_stats(ds)
        np.testing.assert_allclose(_at(stats, theta)[0],
                                   _row_mean(ds, theta.pack(), k, mode),
                                   rtol=1e-12, atol=1e-14)
        # the same central differences, each side a mean over the n rows;
        # either side carries about 1e-16 / h absolute rounding noise
        x0 = theta.pack()
        expected = np.empty((4 * k + 3, x0.size))
        for j in range(x0.size):
            h = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            expected[:, j] = (_row_mean(ds, xp, k, mode)
                              - _row_mean(ds, xm, k, mode)) / (2 * h)
        np.testing.assert_allclose(_step(stats, x0)[1], expected,
                                   rtol=1e-8, atol=1e-8)


def _jacobian_point(rng, mode, k, where):
    """A parameter value and a 500-row table. "q-near-0" and "q-near-1" put
    cell (z=0, v=0) at q = 0.015 and 0.985, "s-0.1" sets m0 + m1 = 0.9; in
    case i m0 differs across z."""
    theta = random_theta(rng, mode, k)
    m0, m1, p_star = theta.m0.copy(), theta.m1.copy(), theta.p_star.copy()
    if where == "q-near-0":
        m0[:] = 0.005
        p_star[0, 0] = 0.01 / (1.0 - m0[0] - m1[0])
    elif where == "q-near-1":
        m1[:] = 0.005
        p_star[0, 0] = (0.985 - m0[0]) / (0.995 - m0[0])
    elif where == "s-0.1":
        m0[:], m1[:] = 0.45, 0.45
    if mode is Mode.CASE_I:
        m0 = m0 * [1.0, 0.9]
    theta = replace(theta, m0=m0, m1=m1, p_star=p_star)
    ds = replace(simulate_from_theta(theta, 500, rng), mode=mode)
    return theta, cell_stats(ds)


class TestAnalyticJacobian:
    @pytest.mark.parametrize("where", ["interior", "q-near-0", "q-near-1",
                                       "s-0.1"])
    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_matches_central_differences(self, rng, mode, k, where):
        theta, stats = _jacobian_point(rng, mode, k, where)
        expected = central_differences(
            lambda x: _step(stats, x)[0], theta.pack())
        # the oracle's truncation error grows like h^2 / q^4 near the
        # boundary: about 4e-8 at q = 0.015
        np.testing.assert_allclose(_step(stats, theta.pack())[1], expected,
                                   rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("where", ["interior", "s-0.1"])
    @pytest.mark.parametrize("mode,k", TABLE_CASES)
    def test_combined_evaluation_is_gbar_and_jacobian(self, rng, mode, k,
                                                      where):
        # a solver step and the evaluation at an estimate build one set of
        # shared terms: the same bits
        theta, stats = _jacobian_point(rng, mode, k, where)
        g, G = _step(stats, theta.pack())
        g_at, G_at, _ = _at(stats, theta)
        assert g.tobytes() == g_at.tobytes()
        assert G.tobytes() == G_at.tobytes()


class TestDomainGuards:
    def _theta(self, **over):
        base = _oracle_theta()
        fields = dict(
            beta_star=base.beta_star, delta_p_star=base.delta_p_star,
            r=base.r, m0=base.m0, m1=base.m1, p_star=base.p_star,
            tau_star=base.tau_star, mode=base.mode,
        )
        fields.update(over)
        return ParamVector(**fields)

    def test_r_outside_unit_interval(self, rng):
        ds = _exact_count_dataset(_oracle_theta(), per_cell=40)
        with pytest.raises(DomainError):
            moment_matrix(ds, self._theta(r=1.0))

    def test_monotonicity_failure(self):
        ds = _exact_count_dataset(_oracle_theta(), per_cell=40)
        with pytest.raises(DomainError):
            moment_matrix(ds, self._theta(m0=np.array([0.6, 0.6]),
                                          m1=np.array([0.5, 0.5])))

    def test_zero_first_stage(self):
        ds = _exact_count_dataset(_oracle_theta(), per_cell=40)
        with pytest.raises(DomainError):
            moment_matrix(ds, self._theta(delta_p_star=0.0))

    def test_a_wrong_coordinate_count(self):
        table = cell_stats(_exact_count_dataset(_oracle_theta(), per_cell=40))
        with pytest.raises(ValidationError,
                           match=r"^expected 11 coordinates, got \(12,\)$"):
            gbar_jacobian_omega(table, np.zeros(12))

    @pytest.mark.parametrize("over,prefix", [
        (dict(r=1.0), "r-moment"),
        (dict(r=np.nan), "r-moment"),
        (dict(m0=np.array([0.6, 0.6]), m1=np.array([0.5, 0.5])), "p-moment"),
        (dict(delta_p_star=0.0), "beta-moment"),
        (dict(m0=np.zeros(2), p_star=np.array([[0.0, 0.35], [0.5, 0.75]])),
         "tau-moment"),
        (dict(p_star=np.array([[0.1, np.nan], [0.5, 0.75]])), "tau-moment"),
    ], ids=["r-1", "r-nan", "s-negative", "dp-0", "q-0", "p-star-nan"])
    def test_closed_forms_raise_the_row_messages(self, over, prefix):
        ds = _exact_count_dataset(_oracle_theta(), per_cell=40)
        theta = self._theta(**over)
        with pytest.raises(DomainError) as rows:
            moment_matrix(ds, theta)
        assert str(rows.value).startswith(prefix)
        for closed_form in (_step, gbar_jacobian_omega):
            with pytest.raises(DomainError) as err:
                closed_form(cell_stats(ds), theta.pack())
            assert str(err.value) == str(rows.value)
        # in a stack the first vector is valid: the second raises, and the
        # message is its own (r-moment's names its r)
        table = cell_stats(ds)
        with pytest.raises(DomainError) as err:
            gbar_jacobian_omega(stack_tables([table, table]),
                                np.stack([_oracle_theta().pack(), theta.pack()]))
        assert str(err.value) == str(rows.value)


class TestJacobian:
    def test_analytic_slopes(self):
        theta = _oracle_theta()
        ds = _exact_count_dataset(theta, per_cell=200)
        jac = _step(cell_stats(ds), theta.pack())[1]

        # column order: beta*, dp*, r, m0, p*00, p*01, tau0*, m1, p*10, p*11, tau1*
        beta_col, dp_col, r_col = 0, 1, 2
        # row order (K = 2): r, p by (z, v), tau by (z, v), first stage, LATE
        r_row, dp_row, beta_row = 0, 9, 10

        # the LATE moment is linear in beta* with unit slope and is the only
        # moment touching it
        assert jac[beta_row, beta_col] == pytest.approx(1.0, abs=1e-6)
        mask = np.ones(11, bool)
        mask[beta_row] = False
        np.testing.assert_allclose(jac[mask, beta_col], 0.0, atol=1e-8)

        # instrument-mean moment: unit slope in r, no other parameter enters
        assert jac[r_row, r_col] == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(jac[r_row, [c for c in range(11) if c != r_col]],
                                   0.0, atol=1e-8)

        # first-stage moment: unit slope in delta_p*; the LATE moment reacts
        # with slope beta*/delta_p* at the solution
        assert jac[dp_row, dp_col] == pytest.approx(1.0, abs=1e-6)
        assert jac[beta_row, dp_col] == pytest.approx(
            theta.beta_star / theta.delta_p_star, abs=1e-5)

        # treatment-probability moment for cell (z, v): slope in p*_zv equals
        # s_z times the cell frequency (cells are balanced here: 1/4)
        s = float(1.0 - theta.m0[0] - theta.m1[0])
        for z, v, col in ((0, 0, 4), (0, 1, 5), (1, 0, 8), (1, 1, 9)):
            assert jac[1 + 2 * z + v, col] == pytest.approx(
                0.25 * s, abs=1e-6)

    def test_matches_numpy_gradient_of_gbar(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 500, rng)
        stats = cell_stats(ds)
        x0 = theta.pack()
        jac = _step(stats, x0)[1]
        j = 3
        h = 1e-6 * max(1.0, abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        col = (_step(stats, xp)[0] - _step(stats, xm)[0]) / (2 * h)
        np.testing.assert_allclose(jac[:, j], col, atol=1e-12)
