import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mislate
from mislate import gmm
from conftest import random_theta, simulate_from_theta, stack_tables
from mislate.data import CellStats, Mode, ParamVector, cell_stats
from mislate.exceptions import (
    DegenerateCell,
    EmptyCell,
    InvalidProbability,
    MislateError,
    MonotonicityViolated,
    RankDeficient,
    SingularSystem,
    ValidationError,
    WeakFirstStage,
)
from mislate.identification import (
    _b_to_m,
    _p_star,
    _solve_b,
    _w_triple,
    forward_cell_stats,
    identify,
    implied_p,
    implied_tau,
    m_factor,
    nonsingularity_diag,
)


class TestForwardMaps:
    def test_implied_p_no_misclassification(self):
        assert implied_p(0.0, 0.0, 0.3) == 0.3

    def test_implied_p_design_value(self):
        assert implied_p(0.25, 0.25, 0.6707) == pytest.approx(0.58535, abs=1e-10)

    def test_implied_p_boundary(self):
        assert implied_p(0.25, 0.25, 0.0) == 0.25

    def test_implied_p_monotonicity_error(self):
        with pytest.raises(MonotonicityViolated):
            implied_p(0.6, 0.5, 0.3)

    def test_m_factor_identity_without_error(self):
        assert m_factor(0.0, 0.0, 0.5) == 1.0

    def test_m_factor_design_value(self):
        # cross-checked against the conditional-mean contrast of the latent
        # treatment given the observed one
        p = 0.58535
        got = m_factor(0.25, 0.25, p)
        e1 = (1 - 0.25) * 0.6707 / p
        e0 = 0.25 * 0.6707 / (1 - p)
        assert got == pytest.approx(e1 - e0, abs=1e-10)
        assert got == pytest.approx(0.45494, abs=5e-5)

    def test_m_factor_symmetric_point(self):
        assert m_factor(0.25, 0.25, 0.5) == pytest.approx(
            2.0 * (1.0 - 2.0 * 0.1875 / 0.5), abs=1e-12
        )

    def test_m_factor_degenerate(self):
        with pytest.raises(DegenerateCell):
            m_factor(0.1, 0.1, 1.0)

    def test_implied_tau(self):
        assert implied_tau(0.0, 0.0, 0.4, 2.0) == 2.0
        assert implied_tau(0.25, 0.25, 0.58535, 1.0) == pytest.approx(
            m_factor(0.25, 0.25, 0.58535), abs=1e-14
        )
        assert implied_tau(0.2, 0.3, 0.4, 0.0) == 0.0

    @pytest.mark.parametrize("m0,m1,message", [
        (np.nan, 0.1, "m0=nan is not a probability"),
        (-0.2, 0.1, "m0=-0.2 is not a probability"),
        (0.1, np.array([0.2, np.nan]), "m1=nan is not a probability"),
        (np.array([0.1, -1e-9]), 0.1, "m0=-1e-09 is not a probability"),
    ], ids=["m0-nan", "m0-negative", "m1-nan", "m0-negative-entry"])
    def test_forward_maps_refuse_a_rate_that_is_nan_or_negative(self, m0, m1, message):
        for forward in (implied_p, m_factor):
            with pytest.raises(InvalidProbability, match=f"^{re.escape(message)}$"):
                forward(m0, m1, 0.5)

    @pytest.mark.parametrize("m0,message", [
        ((np.nan, 0.1), "m0=nan is not a probability"),
        ((-0.2, 0.1), "m0=-0.2 is not a probability"),
    ], ids=["nan", "negative"])
    def test_forward_cell_stats_refuses_a_rate_that_is_nan_or_negative(self, m0, message):
        # CASE_I takes z-specific rates; the table would hold NaN cell
        # probabilities and a negative count, or a negative rate's cells
        theta = dataclasses.replace(random_theta(np.random.default_rng(4), Mode.CASE_I, 3),
                                    m0=np.array(m0))
        with pytest.raises(InvalidProbability, match=f"^{re.escape(message)}$"):
            forward_cell_stats(theta)
        assert forward_cell_stats(dataclasses.replace(theta, m0=np.zeros(2))).n == 1


class TestWTriple:
    def test_identical_cells_vanish(self):
        assert tuple(_w_triple(0.7, 0.7, 0.4, 0.4)) == (0.0, 0.0, 0.0)

    def test_direct_arithmetic(self):
        w0, w1, w2 = _w_triple(0.45494, 0.56, 0.58535, 0.46)
        assert w2 == pytest.approx(0.10506, abs=1e-12)
        assert w0 == pytest.approx(0.45494 / 0.46 - 0.56 / 0.58535, abs=1e-12)
        assert w1 == pytest.approx(
            0.45494 / 0.54 - 0.56 / (1 - 0.58535), abs=1e-12
        )

    @given(
        tau_v=st.floats(-2, 2), tau_vp=st.floats(-2, 2),
        p_v=st.floats(0.05, 0.95), p_vp=st.floats(0.05, 0.95),
    )
    def test_antisymmetry(self, tau_v, tau_vp, p_v, p_vp):
        a = _w_triple(tau_v, tau_vp, p_v, p_vp)
        b = _w_triple(tau_vp, tau_v, p_vp, p_v)
        np.testing.assert_allclose(a, -b, rtol=0, atol=1e-12)

    def test_boundary_probability(self):
        # the equations' cells are checked where a public call reads them
        stats = _observed_table([[0.0, 0.5], [0.3, 0.7]], np.ones((2, 2)))
        with pytest.raises(DegenerateCell, match="^cell probability 0.0 on the boundary$"):
            nonsingularity_diag(stats, Mode.CASE_II)


def _w_from_params(m0, m1, p_stars, tau_star):
    ps = [implied_p(m0, m1, p) for p in p_stars]
    taus = [implied_tau(m0, m1, p, tau_star) for p in ps]
    return [
        _w_triple(taus[0], taus[j], ps[0], ps[j]) for j in (1, 2)
    ] if len(ps) == 3 else _w_triple(taus[0], taus[1], ps[0], ps[1])


def _solved(wa, wb):
    """(B0, B1) of the equations wa and wb, and the checks _solve_b appends."""
    checks = []
    return _solve_b(np.stack([wa, wb], axis=-1), checks), checks


def _failed(checks) -> list:
    """The error class of each check that failed, in order."""
    return [error for bad, error, _ in checks if np.any(bad)]


class TestSolveB:
    def test_case_i_round_trip(self):
        (b0, b1), checks = _solved(*_w_from_params(0.2, 0.3, [0.2, 0.5, 0.8], 1.0))
        assert b0 == pytest.approx(0.2 * 0.7, abs=1e-10)
        assert b1 == pytest.approx(0.8 * 0.3, abs=1e-10)
        assert _failed(checks) == []

    def test_case_i_zero_misclassification(self):
        (b0, b1), _ = _solved(*_w_from_params(0.0, 0.0, [0.2, 0.5, 0.8], 1.0))
        assert abs(b0) < 1e-12 and abs(b1) < 1e-12

    def test_case_i_zero_tau_singular(self):
        w12, w13 = _w_from_params(0.2, 0.3, [0.2, 0.5, 0.8], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, checks = _solved(w12, w13)
        assert _failed(checks) == [SingularSystem]

    def test_case_ii_round_trip(self):
        wz0 = _w_from_params(0.25, 0.25, [0.3, 0.7], 1.0)
        wz1 = _w_from_params(0.25, 0.25, [0.4, 0.9], 0.8)
        (b0, b1), checks = _solved(wz0, wz1)
        assert b0 == pytest.approx(0.1875, abs=1e-10)
        assert b1 == pytest.approx(0.1875, abs=1e-10)
        assert _failed(checks) == []

    def test_case_ii_zero_tau_singular(self):
        wz0 = _w_from_params(0.25, 0.25, [0.3, 0.7], 0.0)
        wz1 = _w_from_params(0.25, 0.25, [0.4, 0.9], 0.8)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, checks = _solved(wz0, wz1)
        assert _failed(checks) == [SingularSystem]


def _m_of(b0, b1):
    """(m0, m1, s) of (B0, B1), and the checks _b_to_m appends."""
    checks = []
    return _b_to_m(b0, b1, checks), checks


class TestBToM:
    def test_design_values(self):
        assert _m_of(0.1875, 0.1875)[0] == pytest.approx((0.25, 0.25, 0.5))

    def test_zero(self):
        assert _m_of(0.0, 0.0)[0] == (0.0, 0.0, 1.0)

    def test_asymmetric(self):
        (m0, m1, s), checks = _m_of(0.14, 0.24)
        assert (m0, m1, s) == pytest.approx((0.2, 0.3, 0.5), abs=1e-12)
        assert _failed(checks) == []

    @given(m0=st.floats(0.0, 0.9), m1=st.floats(0.0, 0.9))
    def test_identity_on_monotone_region(self, m0, m1):
        if m0 + m1 >= 0.999:
            return
        (r0, r1, s), checks = _m_of(m0 * (1 - m1), (1 - m0) * m1)
        assert r0 == pytest.approx(m0, abs=1e-12)
        assert r1 == pytest.approx(m1, abs=1e-12)
        # returned branch always satisfies the monotonicity condition
        assert r0 + r1 < 1.0
        assert s > 0.0
        assert _failed(checks) == []

    def test_negative_discriminant(self):
        from mislate.exceptions import NegativeDiscriminant
        _, checks = _m_of(0.5, 0.5)
        assert _failed(checks) == [NegativeDiscriminant]


class TestScalarInverses:
    def test_p_star_from_p(self):
        assert _p_star(0.58535, 0.25, 0.25, []) == pytest.approx(0.6707, abs=1e-10)
        assert _p_star(0.37, 0.0, 0.0, []) == 0.37
        checks = []
        _p_star(0.2, 0.25, 0.25, checks)
        assert _failed(checks) == [InvalidProbability]

    def test_late_from_reduced(self):
        # identify's LATE is the reduced form over the true first stage, and
        # a first stage of 0 trips its check
        theta = random_theta(np.random.default_rng(3), Mode.CASE_II, 2)
        stats = forward_cell_stats(theta)
        got = identify(stats, Mode.CASE_II).theta
        assert got.beta_star == (stats.mu_z[1] - stats.mu_z[0]) / got.delta_p_star
        assert got.beta_star == pytest.approx(theta.beta_star, abs=1e-10)
        weak = _table_with_latent(0.25, 0.25, [[0.25, 0.5, 0.75], [0.75, 0.5, 0.25]],
                                  [1.0, 0.5])
        with pytest.raises(WeakFirstStage):
            identify(weak, Mode.CASE_II)


class TestNonsingularityDiag:
    def test_forward_model_nonzero(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        stats = forward_cell_stats(theta)
        dets = nonsingularity_diag(stats, Mode.CASE_II)
        assert all(abs(d) > 1e-12 for d in dets.values())

    def test_zero_tau_gives_zero_determinants(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        theta = ParamVector(
            beta_star=theta.beta_star, delta_p_star=theta.delta_p_star,
            r=theta.r, m0=theta.m0, m1=theta.m1, p_star=theta.p_star,
            tau_star=np.zeros(2), mode=Mode.CASE_II,
        )
        stats = forward_cell_stats(theta)
        dets = nonsingularity_diag(stats, Mode.CASE_II)
        assert all(abs(d) < 1e-14 for d in dets.values())

    def test_s_zero_limit_gives_zero_determinants(self):
        # at m0+m1 = 1 the observed treatment is independent of the true one:
        # constant p across cells and vanishing tau contrasts
        from mislate.data import CellStats
        n_zvt = np.broadcast_to([0.25 * 0.65, 0.25 * 0.35], (2, 2, 2))
        stats = CellStats(
            n_zvt=n_zvt, sum_y=np.zeros((2, 2, 2)), ss_y=np.zeros((2, 2, 2)),
            mode=Mode.CASE_II, v_support=(0, 1),
        )
        assert np.all(stats.p_zv == stats.p_zv[0, 0])
        assert np.all(stats.tau_zv == 0.0)
        dets = nonsingularity_diag(stats, Mode.CASE_II)
        assert all(d == 0.0 for d in dets.values())

    def test_determinant_composition(self, rng):
        theta = random_theta(rng, Mode.CASE_I, 3)
        stats = forward_cell_stats(theta)
        dets = nonsingularity_diag(stats, Mode.CASE_I)
        for z in (0, 1):
            wa = _w_triple(stats.tau_zv[z, 0], stats.tau_zv[z, 1],
                           stats.p_zv[z, 0], stats.p_zv[z, 1])
            wb = _w_triple(stats.tau_zv[z, 0], stats.tau_zv[z, 2],
                           stats.p_zv[z, 0], stats.p_zv[z, 2])
            assert dets[(z, (0, 1, 2))] == wa[0] * wb[1] - wb[0] * wa[1]


class TestIdentify:
    def test_case_ii_round_trip_reference_values(self):
        theta = ParamVector(
            beta_star=1.0, delta_p_star=0.4, r=0.5,
            m0=np.array([0.25, 0.25]), m1=np.array([0.25, 0.25]),
            p_star=np.array([[0.1, 0.35], [0.5, 0.75]]),
            tau_star=np.array([1.0, 1.0]), mode=Mode.CASE_II,
        )
        got = identify(forward_cell_stats(theta), Mode.CASE_II).theta
        np.testing.assert_allclose(got.pack(), theta.pack(), atol=1e-10)

    def test_zero_misclassification_is_plug_in(self, rng):
        theta = random_theta(rng, Mode.CASE_II, 2)
        theta = ParamVector(
            beta_star=theta.beta_star, delta_p_star=theta.delta_p_star,
            r=theta.r, m0=np.zeros(2), m1=np.zeros(2),
            p_star=theta.p_star, tau_star=theta.tau_star, mode=Mode.CASE_II,
        )
        stats = forward_cell_stats(theta)
        got = identify(stats, Mode.CASE_II).theta
        np.testing.assert_allclose(got.m0, 0.0, atol=1e-9)
        np.testing.assert_allclose(got.p_star, stats.p_zv, atol=1e-9)

    def test_case_i_distinct_ms_per_z(self, rng):
        theta = random_theta(rng, Mode.CASE_I, 3)
        got = identify(forward_cell_stats(theta), Mode.CASE_I).theta
        np.testing.assert_allclose(got.pack(), theta.pack(), atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        mode = Mode.CASE_I if seed % 2 else Mode.CASE_II
        k = 3 if mode is Mode.CASE_I else 2
        theta = random_theta(rng, mode, k)
        got = identify(forward_cell_stats(theta), mode).theta
        np.testing.assert_allclose(got.pack(), theta.pack(), atol=1e-10)

    def test_population_wald_bias_law(self, rng):
        # with z-invariant misclassification the naive Wald equals beta*/s
        theta = random_theta(rng, Mode.CASE_II, 2)
        stats = forward_cell_stats(theta)
        s = float(1.0 - theta.m0[0] - theta.m1[0])
        wald = (stats.mu_z[1] - stats.mu_z[0]) / (stats.p_z[1] - stats.p_z[0])
        assert wald == pytest.approx(theta.beta_star / s, abs=1e-10)


@pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 3), (Mode.CASE_I, 4)])
def test_broadcast_maps_match_the_scalar_loop(rng, mode, k):
    theta = random_theta(rng, mode, k)
    m0, m1, tau_star = (np.broadcast_to(x[:, None], (2, k))
                        for x in (theta.m0, theta.m1, theta.tau_star))

    def loop(fn, *args):
        """fn called entry by entry on (2, K) arguments."""
        entries = zip(*(np.ravel(x) for x in args))
        return np.array([fn(*e) for e in entries]).reshape(2, k)

    p = implied_p(m0, m1, theta.p_star)
    assert np.array_equal(p, loop(implied_p, m0, m1, theta.p_star))
    tau = implied_tau(m0, m1, p, tau_star)
    assert np.array_equal(tau, loop(implied_tau, m0, m1, p, tau_star))
    back = _p_star(p, m0, m1, [])
    assert np.array_equal(back, loop(lambda *a: _p_star(*a, []), p, m0, m1))
    assert isinstance(implied_p(0.1, 0.2, 0.3), float)
    assert isinstance(_p_star(0.5, 0.1, 0.2, []), float)


def _default_pick(dets: dict, mode: Mode):
    """The support identify selects without support_points: the candidate
    with the largest |determinant|, per z in CASE_I."""
    if mode is Mode.CASE_II:
        return max(dets, key=lambda c: abs(dets[c]))
    return tuple(max((c for c in dets if c[0] == z), key=lambda c: abs(dets[c]))[1]
                 for z in (0, 1))


@pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 2), (Mode.CASE_II, 3),
                                    (Mode.CASE_I, 3), (Mode.CASE_I, 4)])
def test_pinning_the_default_pick_changes_nothing(mode, k):
    # the pinned and the default path share one loop; pinning the candidate
    # the default picks must give the same bits, or the same failure. In
    # case ii swapping v and v' negates each equation's coefficients
    # exactly, so the swapped pair must too
    rng = np.random.default_rng(100 + k)
    for _ in range(6):
        theta = random_theta(rng, mode, k)
        sample = simulate_from_theta(theta, 20_000, rng)
        for stats in (forward_cell_stats(theta),
                      cell_stats(dataclasses.replace(sample, mode=mode))):
            pick = _default_pick(nonsingularity_diag(stats, mode), mode)
            pins = [pick, pick[::-1]] if mode is Mode.CASE_II else [pick]
            try:
                default = identify(stats, mode)
            except MislateError as exc:
                for pin in pins:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        identify(stats, mode, support_points=pin)
                continue
            assert default.support_points == pick
            for pin in pins:
                pinned = identify(stats, mode, support_points=pin)
                assert pinned.support_points == pin
                assert (pinned.theta.pack().tobytes()
                        == default.theta.pack().tobytes())
                assert pinned.s.tobytes() == default.s.tobytes()
                assert list(pinned.determinants.items()) == list(
                    default.determinants.items())
                assert pinned.discriminants == default.discriminants


@pytest.mark.parametrize("mode,pin", [
    (Mode.CASE_II, (0, -1)),              # negative index
    (Mode.CASE_II, (0, 3)),               # past K - 1
    (Mode.CASE_II, (0, 0)),               # repeated
    (Mode.CASE_II, (0, 1, 2)),            # a triple in case ii
    (Mode.CASE_II, ((0, 1),)),            # a group of pairs in case ii
    (Mode.CASE_II, (0.0, 1.0)),           # not integers
    (Mode.CASE_I, (0, 1, 2)),             # one triple in case i
    (Mode.CASE_I, ((0, 1, 2), (0, 1))),   # a pair for z = 1
    (Mode.CASE_I, ((0, 1, 2), (0, 2, -1))),
    (Mode.CASE_I, ((0, 1, 1), (0, 1, 2))),
], ids=str)
def test_identify_refuses_a_malformed_pin(mode, pin):
    # K = 3 population tables, on which every well-formed pin solves; a
    # negative index would otherwise count from the end
    theta = random_theta(np.random.default_rng(7), mode, 3)
    stats = forward_cell_stats(theta)
    with pytest.raises(ValidationError, match="support_points"):
        identify(stats, mode, support_points=pin)


def test_identify_reports_the_pin_as_given():
    theta = random_theta(np.random.default_rng(7), Mode.CASE_II, 3)
    stats = forward_cell_stats(theta)
    result = identify(stats, Mode.CASE_II, support_points=(np.int64(2), 0))
    assert result.support_points == (2, 0)
    np.testing.assert_allclose(result.theta.pack(), theta.pack(), rtol=1e-9)


def _table_with_latent(m0: float, m1: float, p_star, tau_star) -> CellStats:
    """Population CASE_II table of the given latent cell probabilities,
    which may lie outside [0, 1], with equal cell weights."""
    p_star = np.asarray(p_star, dtype=float)
    k = p_star.shape[1]
    p = m0 + (1.0 - m0 - m1) * p_star
    tau = m_factor(m0, m1, p) * np.asarray(tau_star)[:, None]
    n_zvt = np.stack([1.0 - p, p], axis=2) / (2 * k)
    ybar = np.stack([np.zeros((2, k)), tau], axis=2)
    return CellStats(n_zvt=n_zvt, sum_y=n_zvt * ybar, ss_y=np.zeros((2, k, 2)),
                     mode=Mode.CASE_II, v_support=tuple(range(k)))


@pytest.mark.parametrize("p_star,first", [
    # bad cells at z=0 and z=1: the first z=0 one is named
    ([[0.3, -0.02, -0.05], [-0.03, 0.6, 0.9]], -0.02),
    # bad cells at z=1 only: the first in v order is named
    ([[0.3, 0.5, 0.7], [0.2, -0.04, -0.01]], -0.04),
    ([[0.3, 0.5, 0.7], [-0.01, 0.6, 1.05]], -0.01),
])
def test_invalid_p_star_names_the_first_bad_cell(p_star, first):
    stats = _table_with_latent(0.2, 0.2, p_star, [1.0, 0.8])
    with pytest.raises(InvalidProbability) as exc:
        identify(stats, Mode.CASE_II)
    got = re.fullmatch(r"implied p_star=(\S+) outside \[0,1\]", str(exc.value))
    assert got is not None
    assert float(got.group(1)) == pytest.approx(first, abs=1e-9)


def _observed_table(p, tau) -> CellStats:
    """CASE_II table of the given observed cell probabilities and contrasts,
    with equal cell weights."""
    p = np.asarray(p, dtype=float)
    n_zvt = np.stack([1.0 - p, p], axis=2)
    ybar = np.stack([np.zeros(p.shape), tau], axis=2)
    return CellStats(n_zvt=n_zvt, sum_y=n_zvt * ybar, ss_y=np.zeros(n_zvt.shape),
                     mode=Mode.CASE_II, v_support=("a", "b"))


def _half_misclassified():
    # the contrasts of m0 = m1 = 1/2, where B0 = B1 = 1/4 and s = 0
    p = np.array([[0.25, 0.75], [0.5, 0.75]])
    return _observed_table(p, (1.0 - 0.25 / p - 0.25 / (1.0 - p)) * [[1.0], [0.5]])


def _boundary_cell():
    # a t = 0 count too small to move p off 1 in double precision
    table = _observed_table([[0.25, 0.5], [0.5, 0.75]], [[1.0, 0.5], [0.3, 0.2]])
    n_zvt = table.n_zvt.copy()
    n_zvt[0, 0] = [1e-20, 0.25]
    return CellStats(n_zvt=n_zvt, sum_y=n_zvt * [0.0, 1.0], ss_y=table.ss_y,
                     mode=Mode.CASE_II, v_support=table.v_support)


def _empty_cell():
    table = _observed_table([[0.25, 0.5], [0.5, 0.75]], [[1.0, 0.5], [0.3, 0.2]])
    n_zvt = table.n_zvt.copy()
    n_zvt[1, 0, 1] = 0.0
    return CellStats(n_zvt=n_zvt, sum_y=n_zvt * 1.0, ss_y=table.ss_y,
                     mode=Mode.CASE_II, v_support=table.v_support)


def _boundary_latent():
    # p* = 1 with m1 = 0 puts the observed probability at 1
    return ParamVector(beta_star=1.0, delta_p_star=0.4, r=0.5, m0=[0.25, 0.25],
                       m1=[0.0, 0.0], p_star=[[0.1, 1.0], [0.5, 0.75]],
                       tau_star=[1.0, 1.0], mode=Mode.CASE_II)


def _identify(table):
    return lambda: identify(table(), Mode.CASE_II)


@pytest.mark.parametrize("call,error,message", [
    (_identify(lambda: _observed_table([[0.25] * 2] * 2, np.zeros((2, 2)))),
     SingularSystem, "determinant 0.0 below tolerance"),
    # p* = 0 in cell (0, 0), where the attenuation factor of m0 = m1 = 1/4 is 0
    (_identify(lambda: _table_with_latent(0.25, 0.25, [[0.0, 0.5, 0.75],
                                                        [0.25, 0.5, 1.0]], [1.0, 0.5])),
     SingularSystem, "attenuation factor vanishes in a cell"),
    (_identify(_half_misclassified), MonotonicityViolated, "m0+m1=1.0 >= 1"),
    # the arms' cells swapped: the same p* on average in each arm
    (_identify(lambda: _table_with_latent(0.25, 0.25, [[0.25, 0.5, 0.75],
                                                        [0.75, 0.5, 0.25]], [1.0, 0.5])),
     WeakFirstStage, "|delta p*|=0.0 below tolerance"),
    (_identify(_boundary_cell), DegenerateCell,
     "a cell treatment probability is 0 or 1"),
    (lambda: nonsingularity_diag(_boundary_cell(), Mode.CASE_II), DegenerateCell,
     "cell probability 1.0 on the boundary"),
    (lambda: forward_cell_stats(_boundary_latent()), DegenerateCell,
     "observed treatment probability on the boundary"),
    (_identify(_empty_cell), EmptyCell, "no observations with z=1, v='a', t=1"),
    # case i has no system of two support points
    (lambda: identify(_observed_table([[0.25, 0.5], [0.5, 0.75]], np.ones((2, 2))),
                      Mode.CASE_I),
     ValidationError, "case-i needs more than K=2 support points"),
], ids=["determinant", "attenuation", "monotone", "first-stage", "cell-p",
        "equation-p", "observed-p", "empty", "case-i-k2"])
def test_every_identification_message_is_reached(call, error, message):
    # each message that reaches a report's error field, through the public
    # call that raises it
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_no_extended_precision_in_the_package():
    # numpy's long double is plain double on some platforms, so a result
    # that needs it would not be the same everywhere
    src = Path(mislate.__file__).resolve().parent
    for path in sorted(src.glob("**/*.py")):
        text = path.read_text()
        for name in ("longdouble", "float128", "float96"):
            assert name not in text, f"{path.name} names {name}"


def _pool(mode: Mode, k: int) -> list:
    """24 small-sample tables: some fail, and some that solve pick another
    candidate than their neighbours; every sixth may have an empty cell."""
    rng = np.random.default_rng(40 + k)
    tables = []
    while len(tables) < 24:
        theta = random_theta(rng, mode, k)
        sample = simulate_from_theta(theta, 400 * k, rng)
        table = cell_stats(dataclasses.replace(sample, mode=mode))
        if not (table.n_zvt == 0).any() or len(tables) % 6 == 0:
            tables.append(table)
    return tables


# (index, error, message) of each table of _pool(mode, K) that fails alone
_FAILS_ALONE = {
    (Mode.CASE_II, 2): [
        (1, 'InvalidProbability', 'implied p_star=1.0590330940452914 outside [0,1]'),
        (2, 'InvalidProbability', 'implied p_star=-0.20121953495634254 outside [0,1]'),
        (5, 'InvalidProbability', 'implied p_star=4.139083871690407 outside [0,1]'),
        (8, 'InvalidProbability', 'implied p_star=-1.2864101605591767 outside [0,1]'),
        (10, 'InvalidProbability', 'implied p_star=1.04357002721039 outside [0,1]'),
        (14, 'InvalidProbability', 'implied p_star=-0.03634779061189866 outside [0,1]'),
        (17, 'InvalidProbability', 'implied p_star=4.2782623338552925 outside [0,1]'),
        (18, 'InvalidProbability', 'implied p_star=-0.07424751517762351 outside [0,1]'),
        (19, 'InvalidProbability', 'implied p_star=-0.04135083523222194 outside [0,1]'),
        (22, 'NegativeDiscriminant', 'discriminant -0.08087964537303316 < -1e-08'),
    ],
    (Mode.CASE_II, 3): [
        (0, 'InvalidProbability', 'implied p_star=1.2930052669885552 outside [0,1]'),
        (1, 'InvalidProbability', 'recovered m1=-0.001172541933896487 outside [0,1)'),
        (2, 'InvalidProbability', 'implied p_star=-0.026410535474690862 outside [0,1]'),
        (3, 'NegativeDiscriminant', 'discriminant -0.03660639069481471 < -1e-08'),
        (4, 'InvalidProbability', 'implied p_star=1.571254243830726 outside [0,1]'),
        (6, 'InvalidProbability', 'implied p_star=1.0188230959737115 outside [0,1]'),
        (8, 'NegativeDiscriminant', 'discriminant -0.0015058042937916571 < -1e-08'),
        (9, 'InvalidProbability', 'implied p_star=1.0006509357185078 outside [0,1]'),
        (11, 'InvalidProbability', 'implied p_star=-0.009434462500004187 outside [0,1]'),
        (12, 'NegativeDiscriminant', 'discriminant -0.014210928217211372 < -1e-08'),
        (13, 'NegativeDiscriminant', 'discriminant -0.014323377576419993 < -1e-08'),
        (14, 'InvalidProbability', 'implied p_star=1.0747633828459242 outside [0,1]'),
        (15, 'NegativeDiscriminant', 'discriminant -0.000743715671294165 < -1e-08'),
        (17, 'InvalidProbability', 'implied p_star=1.3838414367286203 outside [0,1]'),
        (19, 'InvalidProbability', 'implied p_star=-0.338266546751367 outside [0,1]'),
        (21, 'InvalidProbability', 'implied p_star=-0.012955685373446732 outside [0,1]'),
        (22, 'InvalidProbability', 'implied p_star=1.156863473364501 outside [0,1]'),
        (23, 'InvalidProbability', 'implied p_star=-0.00850951100533645 outside [0,1]'),
    ],
    (Mode.CASE_I, 3): [
        (1, 'InvalidProbability', 'implied p_star=1.0249105721219463 outside [0,1]'),
        (2, 'InvalidProbability', 'recovered m1=-0.00965611711952924 outside [0,1)'),
        (3, 'InvalidProbability', 'recovered m1=-0.020392543033218247 outside [0,1)'),
        (5, 'InvalidProbability', 'implied p_star=1.139557803145295 outside [0,1]'),
        (6, 'InvalidProbability', 'implied p_star=-0.21786689063103612 outside [0,1]'),
        (7, 'InvalidProbability', 'implied p_star=1.0410033947974995 outside [0,1]'),
        (9, 'NegativeDiscriminant', 'discriminant -0.3196424432193723 < -1e-08'),
        (10, 'InvalidProbability', 'implied p_star=-0.030693995477246244 outside [0,1]'),
        (11, 'InvalidProbability', 'recovered m1=-0.11549363369910343 outside [0,1)'),
        (12, 'NegativeDiscriminant', 'discriminant -0.0012007577362793675 < -1e-08'),
        (13, 'InvalidProbability', 'implied p_star=-0.02221257327882516 outside [0,1]'),
        (14, 'InvalidProbability', 'implied p_star=1.0167779792053244 outside [0,1]'),
        (15, 'InvalidProbability', 'recovered m1=-0.006426462628979945 outside [0,1)'),
        (16, 'NegativeDiscriminant', 'discriminant -0.0003099487962137104 < -1e-08'),
        (17, 'NegativeDiscriminant', 'discriminant -0.020772302626962613 < -1e-08'),
        (19, 'InvalidProbability', 'recovered m0=-0.8920887626720395 outside [0,1)'),
        (20, 'InvalidProbability', 'implied p_star=1.1421544733133442 outside [0,1]'),
        (21, 'NegativeDiscriminant', 'discriminant -0.004184748044653297 < -1e-08'),
        (22, 'InvalidProbability', 'implied p_star=1.0318639194640356 outside [0,1]'),
        (23, 'NegativeDiscriminant', 'discriminant -0.005519238700614215 < -1e-08'),
    ],
    (Mode.CASE_I, 4): [
        (0, 'InvalidProbability', 'implied p_star=1.0337803032137716 outside [0,1]'),
        (2, 'NegativeDiscriminant', 'discriminant -0.018737405237909233 < -1e-08'),
        (3, 'InvalidProbability', 'implied p_star=-0.10366941880177508 outside [0,1]'),
        (5, 'InvalidProbability', 'implied p_star=-0.0012859458377080786 outside [0,1]'),
        (6, 'InvalidProbability', 'implied p_star=1.076599134875446 outside [0,1]'),
        (8, 'InvalidProbability', 'implied p_star=-0.04138232818524654 outside [0,1]'),
        (9, 'InvalidProbability', 'implied p_star=1.011979793538883 outside [0,1]'),
        (10, 'InvalidProbability', 'recovered m1=-0.004413881772258155 outside [0,1)'),
        (11, 'InvalidProbability', 'implied p_star=1.1146152633165245 outside [0,1]'),
        (12, 'InvalidProbability', 'implied p_star=-0.5657985021472255 outside [0,1]'),
        (13, 'InvalidProbability', 'implied p_star=-0.15644247155935753 outside [0,1]'),
        (14, 'NegativeDiscriminant', 'discriminant -0.0016914112346779753 < -1e-08'),
        (15, 'InvalidProbability', 'implied p_star=1.558584089932732 outside [0,1]'),
        (16, 'InvalidProbability', 'implied p_star=1.0667087364450114 outside [0,1]'),
        (17, 'InvalidProbability', 'implied p_star=1.0652012392155707 outside [0,1]'),
        (19, 'NegativeDiscriminant', 'discriminant -0.00115964892306053 < -1e-08'),
        (20, 'NegativeDiscriminant', 'discriminant -0.006131290847913756 < -1e-08'),
        (21, 'NegativeDiscriminant', 'discriminant -0.0020994717355420356 < -1e-08'),
        (23, 'InvalidProbability', 'implied p_star=1.3807159009483634 outside [0,1]'),
    ],
}


POOLS = [(Mode.CASE_II, 2), (Mode.CASE_II, 3), (Mode.CASE_I, 3), (Mode.CASE_I, 4)]


@pytest.mark.parametrize("mode,k", POOLS)
def test_a_stack_is_solved_as_each_table_alone(mode, k):
    # each table of the stack gives the bits it gives alone, or fails
    # where it fails alone, with the error and message _FAILS_ALONE pins
    tables = _pool(mode, k)
    stacked = identify(stack_tables(tables), mode)
    failed = []
    for i, table in enumerate(tables):
        try:
            alone = identify(table, mode)
        except MislateError as exc:
            failed.append((i, type(exc).__name__, str(exc)))
            assert stacked.failed[i]
            continue
        assert not stacked.failed[i]
        assert stacked.theta.pack()[i].tobytes() == alone.theta.pack().tobytes()
        assert stacked.s[i].tobytes() == alone.s.tobytes()
        assert [d[i] for d in stacked.discriminants] == list(alone.discriminants)
        picked = (stacked.support_points[i] if mode is Mode.CASE_II
                  else tuple(g[i] for g in stacked.support_points))
        assert picked == alone.support_points
    assert failed == _FAILS_ALONE[mode, k]
    assert 0 < len(failed) < len(tables)


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("mode,k", POOLS)
def test_identify_on_a_stack_of_one_is_identify_on_the_table(mode, k):
    for table in _pool(mode, k):
        one = identify(table[None], mode)
        try:
            alone = identify(table, mode)
        except MislateError:
            assert one.failed[0]
            continue
        assert not one.failed[0]
        assert _same_bits(one.theta.pack()[0], alone.theta.pack())
        assert _same_bits(one.s[0], alone.s)
        assert list(one.determinants) == list(alone.determinants)
        assert all(_same_bits(one.determinants[key][0], det)
                   for key, det in alone.determinants.items())
        assert len(one.discriminants) == len(alone.discriminants)
        assert all(_same_bits(d[0], a) for d, a in
                   zip(one.discriminants, alone.discriminants))
        picked = (one.support_points[0] if mode is Mode.CASE_II
                  else tuple(g[0] for g in one.support_points))
        assert picked == alone.support_points


@pytest.mark.parametrize("mode,k", [(Mode.CASE_II, 2), (Mode.CASE_I, 3)])
def test_a_closed_form_estimate_is_closed_forms_on_a_stack_of_one(
        mode, k, monkeypatch):
    # just-identified pools, where some closed forms are the estimate and
    # the other tables are solved, and a table with an emptied cell that
    # fails validation: under either weighting, each table of the stack
    # gets estimate's bits, or its error, from _fit. A short solver budget
    # keeps the fits quick; both paths stop at the same evaluation.
    monkeypatch.setattr(gmm, "MAX_ITER", 3)
    tables = _pool(mode, k)
    n_zvt = tables[0].n_zvt.copy()
    n_zvt[0, 0, 0] = 0
    tables.append(CellStats(n_zvt, *(np.where(n_zvt == 0, 0.0, x) for x in
                                     (tables[0].sum_y, tables[0].ss_y)),
                            mode=mode, v_support=tables[0].v_support))
    for weighting in ("identity", "optimal"):
        kept = []
        for table in tables:
            try:
                kept.append((table, gmm.estimate(
                    table, gmm.GmmConfig(weighting=weighting))))
            except RankDeficient:  # a check of the evaluated stack: it raises
                pass
            except MislateError as exc:
                kept.append((table, exc))
        stats = stack_tables([table for table, _ in kept])
        ident = identify(stats, mode)
        closed = [not failed and gmm._is_closed(x, k, mode)
                  for failed, x in zip(ident.failed, ident.theta.pack())]
        assert sum(closed) >= 3 and not all(closed)
        fit = gmm._fit(stats, weighting)
        for i, (_, est) in enumerate(kept):
            if isinstance(est, MislateError):
                assert type(fit.errors[i]) is type(est)
                assert str(fit.errors[i]) == str(est)
                continue
            assert fit.errors[i] is None
            assert _same_bits(fit.x[i], est.theta_flat)
            assert _same_bits(fit.vcov[i], est.vcov)
            assert _same_bits(fit.objective[i], est.objective)
            assert fit.converged[i] == est.converged
        assert sum(fit.errors[i] is not None for i in range(len(kept))) == 1
