"""The trust-region reflective loop of mislate.lsq against scipy's
least_squares(method="trf"), on the GMM fit's own problems."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import (count_calls, least_squares_oracle, random_theta,
                      simulate_from_theta)
from mislate import gmm
from mislate.data import Mode, cell_stats
from mislate.exceptions import MislateError
from mislate.identification import forward_cell_stats, identify
from mislate.lsq import trf
from mislate.moments import MomentSums, gbar_jacobian_omega
from mislate.simulation import DesignSpec, generate


def _closed_form_start():
    # the closed form succeeds on this sample (test_gmm's seed 8)
    rng = np.random.default_rng(8)
    table = cell_stats(simulate_from_theta(random_theta(rng, Mode.CASE_II, 2),
                                           3000, rng))
    return table, identify(table, table.mode).theta.pack(), None


def _fallback_start():
    # an mc_study draw whose closed form fails
    ds, _ = generate(DesignSpec(4), 1000, seed=0, rep=7)
    table = cell_stats(ds)
    with pytest.raises(MislateError):
        identify(table, table.mode)
    return table, gmm._fallback_start(table).pack(), None


def _case_i_start():
    # an iterating just-identified fit: the fallback start, not the closed form
    rng = np.random.default_rng(1)
    theta = random_theta(rng, Mode.CASE_I, 3)
    table = cell_stats(replace(simulate_from_theta(theta, 20_000, rng),
                               mode=Mode.CASE_I))
    return table, gmm._fallback_start(table).pack(), None


def _two_step_start():
    # the second step of an overidentified optimal fit: W from the first
    rng = np.random.default_rng(1)
    table = cell_stats(simulate_from_theta(random_theta(rng, Mode.CASE_II, 3),
                                           20_000, rng))
    first = gmm.estimate(table)
    omega = gbar_jacobian_omega(table, first.theta_flat)[2]
    return table, first.theta_flat, gmm._w_half(np.linalg.pinv(omega))


def _pool_start(design, seed, rep):
    # an mc_study fit (n = 1000) as gmm._fit starts it: from the closed form,
    # or from the fallback where identification fails
    def start():
        ds, _ = generate(DesignSpec(design), 1000, seed=seed, rep=rep)
        table = cell_stats(ds)
        try:
            return table, identify(table, table.mode).theta.pack(), None
        except MislateError:
            return table, gmm._fallback_start(table).pack(), None
    return start


CASES = {"closed-form": _closed_form_start, "fallback": _fallback_start,
         "case-i": _case_i_start, "two-step": _two_step_start,
         # fits of the mc_study pool, each pinning a long solver path: nfev,
         # njev and status are 93, 74, 1; 94, 72, 1; 19, 18, 1 (a flat valley
         # that a profiled fit leaves elsewhere); 32, 30, 2 (stopped by ftol);
         # and 59, 48, 1, a path on which trf refuses a step past the face
         # m0 + m1 = 1 - eps. A step whose arithmetic is reordered moves such
         # a path.
         **{f"pool-d{d}-s{s}-r{r}": _pool_start(d, s, r)
            for d, s, r in ((1, 1, 8), (3, 1, 8), (3, 1, 4), (4, 1, 4),
                            (1, 0, 10))}}
# cases on which trf meets a point past the face and refuses the step
REFUSING = {"pool-d1-s0-r10"}


@pytest.mark.parametrize("case", CASES)
def test_matches_least_squares(case):
    table, x0, w_half = CASES[case]()
    sums = MomentSums.of(table)
    k, mode = table.k, table.mode
    lo, hi = gmm._bounds(k, mode, bool(x0[1] >= 0))
    x0 = gmm._clip_start(x0, k, mode)[0]
    finite = []

    def evaluate(x):
        f, J = gmm._evaluate(x, sums, w_half)
        finite.append(np.isfinite(f).all())
        return f, J

    tols = dict(ftol=gmm.TOL_STEP, xtol=gmm.TOL_STEP, gtol=gmm.TOL_GRAD,
                max_nfev=gmm.MAX_ITER * (x0.size + 1))
    ours = trf(evaluate, x0, lo, hi, **tols)
    if case in REFUSING:
        assert not all(finite)
    assert not gmm._past_face(ours.x, k, mode).any()
    ref = least_squares_oracle(evaluate, x0, lo, hi, **tols)
    assert (ours.nfev, ours.njev, ours.status) == (ref.nfev, ref.njev, ref.status)
    np.testing.assert_allclose(ours.x, ref.x, rtol=1e-12, atol=0.0)
    assert 0.5 * ours.fun @ ours.fun == pytest.approx(ref.cost, rel=1e-9,
                                                      abs=1e-30)
    if case == "closed-form":
        assert (ours.nfev, ours.njev, ours.status) == (1, 1, 1)
    else:
        assert ours.nfev > 1


def test_just_identified_fit_evaluates_once(monkeypatch):
    # the closed form inside the box is the estimate: no solver call, and
    # one evaluation of gbar, G and Omega there
    table, x0, _ = _closed_form_start()
    calls = count_calls(monkeypatch, gmm._evaluate)
    at_estimate = count_calls(monkeypatch, gbar_jacobian_omega)
    est = gmm.estimate(table)
    assert len(calls) == 0 and len(at_estimate) == 1
    assert est.theta_flat.tobytes() == x0.tobytes()
    assert est.converged


def test_closed_form_on_the_box_edge_reaches_the_solver(monkeypatch):
    # a population table with m0 = 0: the closed form is exact, but the box
    # moves m0 to EPS_CONSTRAINT, so the fit starts the solver from there
    rng = np.random.default_rng(3)
    theta = replace(random_theta(rng, Mode.CASE_II, 2), m0=np.zeros(2))
    table = forward_cell_stats(theta)
    closed = identify(table, table.mode).theta.pack()
    assert not np.array_equal(gmm._clip_start(closed, 2, table.mode)[0], closed)
    calls = count_calls(monkeypatch, gmm._evaluate)
    est = gmm.estimate(table)
    assert len(calls) >= 1
    assert est.converged


def test_bounds_are_shared_and_read_only():
    lo, hi = gmm._bounds(3, Mode.CASE_II, True)
    assert gmm._bounds(3, Mode.CASE_II, True)[0] is lo
    assert not lo.flags.writeable and not hi.flags.writeable
    lo_neg, hi_neg = gmm._bounds(3, Mode.CASE_II, False)
    assert lo[1] == -hi_neg[1] == gmm.EPS_CONSTRAINT
    assert hi[1] == -lo_neg[1] == np.inf


def test_refuses_a_start_outside_the_box():
    lb, ub = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError, match="outside"):
        trf(lambda x: (x, np.eye(2)), np.array([0.5, 1.5]), lb, ub,
            ftol=1e-12, xtol=1e-12, gtol=1e-10, max_nfev=10)


@pytest.mark.parametrize("ub,f,message", [
    ([1.0, 0.0], [0.0, 0.0], "each lower bound must be below its upper bound"),
    ([1.0, 1.0], [np.nan, 0.0], "residuals are not finite at the initial point"),
], ids=["bounds", "residuals"])
def test_refuses_a_problem_it_cannot_start(ub, f, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        trf(lambda x: (np.array(f), np.eye(2)), np.zeros(2), np.zeros(2),
            np.array(ub), ftol=1e-12, xtol=1e-12, gtol=1e-10, max_nfev=10)


def test_stops_at_max_nfev_with_status_0():
    # the Rosenbrock residuals with x[1] unbounded: three evaluations stop
    # short, a thousand reach the minimum at (1, 1) as scipy's loop does
    def evaluate(x):
        f = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        return f, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    lb, ub = np.array([-2.0, -np.inf]), np.array([2.0, np.inf])
    x0 = np.array([-1.2, 1.0])
    ours = trf(evaluate, x0, lb, ub, ftol=1e-12, xtol=1e-12, gtol=1e-10,
               max_nfev=3)
    assert ours.status == 0 and ours.nfev == 3
    full = trf(evaluate, x0, lb, ub, ftol=1e-12, xtol=1e-12, gtol=1e-10,
               max_nfev=1000)
    ref = least_squares_oracle(evaluate, x0, lb, ub, ftol=1e-12, xtol=1e-12,
                               gtol=1e-10, max_nfev=1000)
    assert (full.nfev, full.njev, full.status) == (ref.nfev, ref.njev, ref.status)
    np.testing.assert_allclose(full.x, [1.0, 1.0], rtol=1e-9)
