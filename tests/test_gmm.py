from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import (central_differences, count_calls, random_theta,
                      simulate_from_theta)
from test_moments import _exact_count_dataset, _oracle_theta
from mislate.data import Dataset, Mode, ParamVector, cell_stats
from mislate.exceptions import MislateError, RankDeficient, ValidationError
from mislate import gmm
from mislate.gmm import (
    GmmConfig,
    confidence_intervals,
    estimate,
    param_names,
    sandwich_cov,
)
from mislate.identification import identify
from mislate.lsq import _strictly_feasible
from mislate.moments import MomentSums, gbar_jacobian_omega
from mislate.simulation import DesignSpec, generate


class TestConfig:
    def test_rejects_unknown_weighting(self):
        with pytest.raises(ValueError):
            GmmConfig(weighting="three-step")

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            GmmConfig(ci_level=1.0)


class TestParamNames:
    def test_lengths(self):
        assert len(param_names(2, Mode.CASE_II)) == 11
        assert len(param_names(3, Mode.CASE_I)) == 15

    def test_case_ii_shares_m(self):
        names = param_names(2, Mode.CASE_II)
        assert names[:4] == ["beta_star", "delta_p_star", "r", "m0"]
        assert "m1" in names


class TestSandwich:
    def test_optimal_weight_collapses_to_efficient_form(self, rng):
        q, p = 11, 7
        G = rng.normal(size=(q, p))
        A = rng.normal(size=(q, q))
        omega = A @ A.T + np.eye(q)
        w = np.linalg.inv(omega)
        n = 500
        v = sandwich_cov(G, w, omega, n)
        np.testing.assert_allclose(v, np.linalg.inv(G.T @ w @ G) / n,
                                   atol=1e-12)

    def test_symmetric_psd(self, rng):
        G = rng.normal(size=(11, 7))
        A = rng.normal(size=(11, 11))
        omega = A @ A.T + np.eye(11)
        v = sandwich_cov(G, np.eye(11), omega, 200)
        np.testing.assert_allclose(v, v.T)
        assert np.all(np.linalg.eigvalsh(v) > 0)

    def test_rank_deficient_raises(self, rng):
        G = np.zeros((11, 7))
        G[:, :6] = rng.normal(size=(11, 6))
        with pytest.raises(RankDeficient):
            sandwich_cov(G, np.eye(11), np.eye(11), 100)

    def test_scales_inversely_with_n(self, rng):
        G = rng.normal(size=(11, 7))
        v1 = sandwich_cov(G, np.eye(11), np.eye(11), 100)
        v2 = sandwich_cov(G, np.eye(11), np.eye(11), 200)
        np.testing.assert_allclose(v1, 2.0 * v2)

    @pytest.mark.parametrize("weighting", ["identity", "scaled"])
    def test_ill_conditioned_square_jacobian(self, rng, weighting):
        # G = U diag(s) V' with cond(G) = 1e6, and Omega = U diag(w) U', so
        # G^-1 Omega G^-T = V diag(w / s^2) V' for every W; forming G'WG
        # squares cond(G) and would lose about twelve digits of it
        q, n = 9, 400
        u, _ = np.linalg.qr(rng.normal(size=(q, q)))
        v, _ = np.linalg.qr(rng.normal(size=(q, q)))
        s = np.logspace(0.0, -6.0, q)
        w = rng.uniform(0.5, 2.0, size=q)
        G = u @ np.diag(s) @ v.T
        omega = u @ np.diag(w) @ u.T
        W = np.eye(q) if weighting == "identity" else np.diag(
            rng.uniform(0.5, 2.0, size=q))
        exact = (v ** 2) @ (w / s ** 2) / n
        got = np.diag(sandwich_cov(G, W, omega, n))
        np.testing.assert_allclose(got, exact, rtol=1e-8, atol=0.0)


class TestConfidenceIntervals:
    def test_hand_computed_95(self):
        # 0.421 +/- 1.959964 * 0.124
        ci = confidence_intervals(np.array([0.421]), np.array([[0.124 ** 2]]), 0.95)
        assert ci[0, 0] == pytest.approx(0.178, abs=5e-4)
        assert ci[0, 1] == pytest.approx(0.664, abs=5e-4)

    def test_level_ordering(self):
        wide = confidence_intervals(np.zeros(1), np.eye(1), 0.99)
        narrow = confidence_intervals(np.zeros(1), np.eye(1), 0.90)
        assert wide[0, 0] < narrow[0, 0] < narrow[0, 1] < wide[0, 1]

    @pytest.mark.parametrize("level", [1.5, 0.0, 1.0, -0.2])
    def test_rejects_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match=r"^ci_level must be in \(0,1\)$"):
            confidence_intervals(np.zeros(1), np.eye(1), level)


class TestEstimate:
    def test_rejects_invalid_dataset(self):
        ds = Dataset(y=np.zeros(4), t=np.array([0, 1, 0, 1]),
                     z=np.ones(4, dtype=int), v=np.array([0, 0, 1, 1]),
                     v_support=(0, 1), mode=Mode.CASE_II)
        with pytest.raises(ValidationError):
            estimate(cell_stats(ds))

    def test_noiseless_recovery(self):
        theta = _oracle_theta()
        ds = _exact_count_dataset(theta)
        est = estimate(cell_stats(ds))
        np.testing.assert_allclose(est.theta_flat, theta.pack(), atol=1e-8)
        assert est.objective < 1e-16
        assert est.converged

    def test_just_identified_matches_closed_form(self):
        # seed chosen so the closed form succeeds on this sample
        rng = np.random.default_rng(8)
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 3000, rng)
        table = cell_stats(ds)
        closed = identify(table, Mode.CASE_II).theta
        est = estimate(table)
        np.testing.assert_allclose(est.theta_flat, closed.pack(), atol=1e-6)
        assert est.j_dof == 0
        assert est.j_pvalue is None

    def test_two_step_equals_one_step_when_just_identified(self):
        rng = np.random.default_rng(8)
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 3000, rng)
        table = cell_stats(ds)
        a = estimate(table, GmmConfig(weighting="identity"))
        b = estimate(table, GmmConfig(weighting="optimal"))
        np.testing.assert_allclose(a.theta_flat, b.theta_flat, atol=1e-5)

    def test_duplication_fixes_point_and_halves_vcov(self):
        rng = np.random.default_rng(8)
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 2000, rng)
        doubled = Dataset(
            y=np.concatenate([ds.y, ds.y]), t=np.concatenate([ds.t, ds.t]),
            z=np.concatenate([ds.z, ds.z]), v=np.concatenate([ds.v, ds.v]),
            v_support=ds.v_support, mode=ds.mode,
        )
        a, b = estimate(cell_stats(ds)), estimate(cell_stats(doubled))
        np.testing.assert_allclose(a.theta_flat, b.theta_flat, atol=1e-8)
        # G is ill conditioned here (cond about 2e5); the sandwich scales
        # rounding by cond(G), not by its square as an inverse of G'WG would
        np.testing.assert_allclose(a.vcov, 2.0 * b.vcov, rtol=1e-9, atol=1e-9)

    def test_fallback_fit_builds_omega_once_per_step(self, monkeypatch):
        # a draw whose closed form fails, so the fit starts from the
        # fallback and iterates; gbar, G and Omega are evaluated at the
        # estimate once for an identity fit and twice for a two-step fit
        ds, _ = generate(DesignSpec(4), 1000, seed=0, rep=7)
        table = cell_stats(ds)
        with pytest.raises(MislateError):
            identify(table, table.mode)
        omega = count_calls(monkeypatch, gbar_jacobian_omega)
        steps = count_calls(monkeypatch, gmm._evaluate)
        for weighting, most in (("identity", 1), ("optimal", 2)):
            omega.clear()
            steps.clear()
            estimate(table, GmmConfig(weighting=weighting))
            assert len(steps) > 20
            assert 1 <= len(omega) <= most

    def test_consistency_with_growing_n(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 200_000, rng)
        est = estimate(cell_stats(ds))
        assert abs(est.theta_flat[0] - theta.beta_star) < 10 * est.se[0] + 0.05
        assert abs(float(est.theta_hat.m0[0]) - theta.m0[0]) < 0.05
        assert abs(float(est.theta_hat.m1[0]) - theta.m1[0]) < 0.05


class TestResidualJacobian:
    @pytest.mark.parametrize("near_face", [False, True],
                             ids=["inside", "near-face"])
    @pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 2), (Mode.CASE_II, 3),
                                        (Mode.CASE_I, 3)])
    def test_matches_central_differences(self, rng, mode, k, near_face):
        theta = random_theta(rng, mode, k)
        sums = MomentSums.of(cell_stats(replace(
            simulate_from_theta(theta, 2000, rng), mode=mode)))
        x = theta.pack()
        if near_face:  # s = 1 - m0 - m1 = 0.03, where G is steepest
            m0, m1 = gmm._m_indices(k, mode)
            x[m0 + m1] *= np.tile(0.97 / (x[m0] + x[m1]), 2)
        a = rng.normal(size=(4 * k + 3, 4 * k + 3))
        w_half = gmm._w_half(a @ a.T)
        expected = central_differences(
            lambda x_: gmm._evaluate(x_, sums, w_half)[0], x)
        np.testing.assert_allclose(gmm._evaluate(x, sums, w_half)[1],
                                   expected, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("past", [False, True], ids=["inside", "past-face"])
    def test_identity_weighting_needs_no_matrix(self, rng, past):
        # w_half None skips the products with W^{1/2} = I, which are exact
        theta = random_theta(rng, Mode.CASE_II, 3)
        sums = MomentSums.of(cell_stats(simulate_from_theta(theta, 2000, rng)))
        x = theta.pack()
        if past:
            m0, m1 = gmm._m_indices(3, Mode.CASE_II)
            x[m0 + m1] *= np.tile(1.2 / (x[m0] + x[m1]), 2)
        f, J = gmm._evaluate(x, sums, None)
        f_eye, J_eye = gmm._evaluate(x, sums, np.eye(15))
        assert (np.array_equal(f, f_eye, equal_nan=True)
                and np.array_equal(J, J_eye, equal_nan=True))
        assert f.shape == (15,) and J.shape == (15, x.size)
        assert np.isfinite(f).all() != past

    @pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 2), (Mode.CASE_I, 3)])
    def test_a_point_past_the_face_has_no_finite_residual(
            self, rng, monkeypatch, mode, k):
        # one z arm's m1 at the first float that puts m0 + m1 past 1 - eps:
        # every residual is NaN and no moment is computed, so lsq.trf refuses
        # the step; one float lower, the evaluation is finite
        theta = random_theta(rng, mode, k)
        sums = MomentSums.of(cell_stats(replace(
            simulate_from_theta(theta, 2000, rng), mode=mode)))
        x = theta.pack()
        m0, m1 = gmm._m_indices(k, mode)
        x[m1[-1]] = 1.0 - gmm.EPS_CONSTRAINT - x[m0[-1]] - 1e-12
        while not gmm._past_face(x, k, mode).any():
            inside = x.copy()
            x[m1[-1]] = np.nextafter(x[m1[-1]], 2.0)
        moments = count_calls(monkeypatch, gmm.gbar_and_jacobian)
        f, J = gmm._evaluate(x, sums, None)
        assert not moments and np.isnan(f).all() and np.isnan(J).all()
        f, J = gmm._evaluate(inside, sums, None)
        assert len(moments) == 1 and np.isfinite(f).all() and np.isfinite(J).all()


_BOX = st.floats(gmm.EPS_CONSTRAINT, 1.0 - gmm.EPS_CONSTRAINT)


class TestStart:
    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from([Mode.CASE_I, Mode.CASE_II]),
           m0=st.tuples(_BOX, _BOX), m1=st.tuples(_BOX, _BOX))
    def test_any_start_in_the_box_is_scaled_strictly_inside_the_face(
            self, mode, m0, m1):
        # the start stays in the box and passes _evaluate's test, also after
        # trf moves a coordinate within 1e-10 of a bound off it
        if mode is Mode.CASE_II:
            m0, m1 = m0[:1] * 2, m1[:1] * 2
        theta = random_theta(np.random.default_rng(0), mode, 3)
        x = replace(theta, m0=np.array(m0), m1=np.array(m1)).pack()
        start, lo, hi = gmm._clip_start(x, 3, mode)
        assert np.all((lo <= start) & (start <= hi))
        assert not gmm._past_face(start, 3, mode).any()
        moved = _strictly_feasible(start, lo, hi, 1e-10)
        assert not gmm._past_face(moved, 3, mode).any()
        # a start that the clip leaves inside the face is not scaled
        clipped = np.clip(x, lo + 1e-12, hi - 1e-12)
        assert (np.array_equal(start, clipped)
                != gmm._past_face(clipped, 3, mode).any())

    def test_a_plain_scaling_onto_the_face_can_end_past_it(self):
        # (1 - eps) / (m0 + m1) times each of 0.6 and 0.7 rounds to a sum one
        # ulp past 1 - eps, which _evaluate refuses; so the start is scaled
        # to a point strictly inside
        x = random_theta(np.random.default_rng(0), Mode.CASE_II, 2).pack()
        m0, m1 = gmm._m_indices(2, Mode.CASE_II)
        x[m0], x[m1] = 0.6, 0.7
        scaled = x.copy()
        scaled[m0 + m1] *= (1.0 - gmm.EPS_CONSTRAINT) / (0.6 + 0.7)
        assert gmm._past_face(scaled, 2, Mode.CASE_II).all()
        start = gmm._clip_start(x, 2, Mode.CASE_II)[0]
        assert not gmm._past_face(start, 2, Mode.CASE_II).any()
        assert start[m0] + start[m1] == pytest.approx(1.0 - 2 * gmm.EPS_CONSTRAINT)


class TestReproducibility:
    @pytest.mark.parametrize("weighting", ["identity", "optimal"])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_last_bit_of_the_table_moves_no_overidentified_fit(
            self, seed, weighting):
        rng = np.random.default_rng(seed)
        ds = simulate_from_theta(random_theta(rng, Mode.CASE_II, 3), 20_000, rng)
        table = cell_stats(ds)
        cfg = GmmConfig(weighting=weighting)
        a = estimate(table, cfg)
        # the summaries are derived from the sums, so the nudge also moves
        # mu_z and tau_zv and with them the closed-form start
        nudged = replace(table, sum_y=table.sum_y * (1 + 4e-16),
                         ss_y=table.ss_y * (1 - 4e-16))
        b = estimate(nudged, cfg)
        assert a.j_dof == 2
        # the solver stops at TOL_GRAD; Gauss-Newton converges only linearly
        # on an overidentified fit, so the last step leaves about 2e-8
        scale = np.maximum(np.abs(a.theta_flat), 1e-3)
        assert np.max(np.abs(b.theta_flat - a.theta_flat) / scale) <= 1e-7
        assert abs(b.j_stat - a.j_stat) <= 1e-7 * max(a.j_stat, 1.0)


def _calibration_theta():
    return ParamVector(
        beta_star=1.0, delta_p_star=0.4, r=0.5,
        m0=np.array([0.15, 0.15]), m1=np.array([0.15, 0.15]),
        p_star=np.array([[0.15, 0.35, 0.55], [0.55, 0.75, 0.9]]),
        tau_star=np.array([1.0, 1.0]), mode=Mode.CASE_II,
    )


class TestJTest:
    def test_just_identified_semantics(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        ds = simulate_from_theta(theta, 2000, rng)
        est = estimate(cell_stats(ds))
        assert est.j_dof == 0 and est.j_pvalue is None

    def test_just_identified_fit_on_a_bound_keeps_its_j(self):
        # J is 0 at dof 0 only for a closed-form fit; this draw's closed form
        # fails and the fit ends on a bound with J about 55
        ds, _ = generate(DesignSpec(4), 1000, seed=0, rep=7)
        est = estimate(cell_stats(ds), GmmConfig(weighting="identity"))
        assert est.j_dof == 0
        assert est.j_stat > 1.0

    def test_identity_weighting_overidentified_refuses_pvalue(self, rng):
        # J is chi-squared only under two-step optimal weighting
        ds = simulate_from_theta(_calibration_theta(), 4000,
                                 np.random.default_rng(3))
        est = estimate(cell_stats(ds), GmmConfig(weighting="identity"))
        assert est.j_dof == 2 and est.j_stat > 0.0
        assert est.j_pvalue is None

    def test_pvalue_is_the_chi2_survival_function(self):
        ds = simulate_from_theta(_calibration_theta(), 4000,
                                 np.random.default_rng(3))
        est = estimate(cell_stats(ds), GmmConfig(weighting="optimal"))
        assert est.j_dof == 2 and 0.0 < est.j_pvalue < 1.0
        np.testing.assert_array_max_ulp(
            est.j_pvalue, stats.chi2.sf(est.j_stat, est.j_dof), maxulp=4)

    def test_size_calibration(self):
        # overidentified model (K=3 shared-error mode, 2 degrees of freedom):
        # nominal 5% rejection under the null
        theta = _calibration_theta()
        rng = np.random.default_rng(7_2024)
        rej = 0
        reps = 200
        for _ in range(reps):
            ds = simulate_from_theta(theta, 4000, rng)
            est = estimate(cell_stats(ds), GmmConfig(weighting="optimal"))
            assert est.j_dof == 2
            rej += est.j_pvalue < 0.05
        assert 0.02 <= rej / reps <= 0.11

    def test_power_against_cell_varying_error(self):
        theta = _calibration_theta()
        rng = np.random.default_rng(11)
        rej = 0
        reps = 40
        for _ in range(reps):
            ds = simulate_from_theta(theta, 4000, rng, error_by_v=True)
            est = estimate(cell_stats(ds), GmmConfig(weighting="optimal"))
            rej += est.j_pvalue < 0.05
        assert rej / reps > 0.5
