"""Box-bounded nonlinear least squares by the trust-region reflective method.

The GMM fit minimises 0.5 ||f(x)||^2 over a box lb <= x <= ub. This module
is a small port of the bounded ``trf`` loop of scipy.optimize.least_squares
(scipy is BSD-3 licensed, Copyright (c) 2001-2002 Enthought, Inc. and
2003-2024 SciPy Developers), cut down to what the GMM estimator of the
LATE under a misclassified binary treatment (arXiv:1804.03349, 2018) uses:

- finite or infinite box bounds, the start moved strictly inside them as
  least_squares moves it (make_strictly_feasible with rstep = 1e-10);
- the exact trust-region subproblem: one SVD per iteration and More's
  Newton iteration on phi(alpha) = ||p(alpha)|| - Delta;
- Coleman-Li scaling and the choice among the truncated trust-region step,
  its reflection off the first bound it hits, and the projected gradient
  step;
- unit variable scaling, the linear loss, and the ftol, xtol, gtol and
  max_nfev stops, with least_squares' evaluation counts and status codes.

The problem comes as one callable evaluate(x) -> (f, J), so the residual
and its Jacobian share their work; J is used only at accepted points, and
njev counts those, as least_squares counts its Jacobian calls. A start
that meets gtol costs one evaluation.

References: Branch, Coleman & Li (1999), "A subspace, interior, and
conjugate gradient method for large-scale bound-constrained minimization
problems", SIAM J. Sci. Comput. 21(1); More (1977), "The Levenberg-Marquardt
algorithm: implementation and theory", Lecture Notes in Mathematics 630.
"""
from __future__ import annotations

from math import copysign, sqrt
from typing import Callable, NamedTuple

import numpy as np

EPS = np.finfo(float).eps


class LsqResult(NamedTuple):
    x: np.ndarray        # the solution
    fun: np.ndarray      # residuals at x
    nfev: int            # residual evaluations, the start's included
    njev: int            # Jacobians used: the start's and one per accepted step
    status: int          # 0 to 4, as trf documents; > 0 means converged


def _norm(v) -> float:
    """The Euclidean norm of a real vector, as numpy.linalg.norm computes
    it, without its argument handling."""
    return sqrt(v.dot(v))


def _strictly_feasible(x, lb, ub, rstep):
    """x with every coordinate within rstep * max(1, |bound|) of a bound
    moved to that distance inside it (to the next float when rstep = 0)."""
    if rstep == 0 and ((x > lb) & (x < ub)).all():
        return x
    x_new = x.copy()
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist, upper_dist = x - lb, ub - x
        lower_tol = rstep * np.maximum(1, np.abs(lb))
        upper_tol = rstep * np.maximum(1, np.abs(ub))
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, upper_tol))
        lower = (np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, lower_tol))
                 & ~upper)
        x_new[lower] = lb[lower] + lower_tol[lower]
        x_new[upper] = ub[upper] - upper_tol[upper]
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _step_to_bound(x, s, lb, ub):
    """(t, hits): the largest t >= 0 with x + t s in the box, and the
    coordinates where x + t s reaches a bound."""
    # only the bound ahead of x along s is reached: the other one's t is <= 0
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        np.divide(np.where(s > 0, ub, lb) - x, s, out=steps, where=s != 0)
    t = steps.min()
    return t, steps == t


def _intersect_trust_region(x, s, delta):
    """The two roots t of ||x + t s|| = delta, smaller first; x lies inside
    the region and s is not zero."""
    a = s.dot(s)
    b = x.dot(s)
    c = x.dot(x) - delta ** 2
    d = np.sqrt(b * b - a * c)
    q = -(b + copysign(d, b))
    t1, t2 = q / a, c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _solve_trust_region(n, m, uf, s, V, delta, alpha):
    """min ||J p + f|| over ||p|| <= delta from the SVD J = U diag(s) V' and
    uf = U'f, by More's Newton iteration on alpha (the Levenberg-Marquardt
    parameter), warm-started at the previous alpha. Returns (p, alpha)."""
    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -(suf2 / denom ** 3).sum() / p_norm

    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= delta:
            return p, 0.0

    # squared once per subproblem, not once per Newton iteration
    suf = s * uf
    s2, suf2 = s ** 2, suf ** 2
    alpha_upper = _norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if abs(phi) < 0.01 * delta:
            break

    p = -V.dot(suf / (s2 + alpha))
    # on the boundary exactly, so that later steps start inside the region
    p *= delta / _norm(p)
    return p, alpha


def _quadratic(J, g, s, diag):
    """0.5 s'(J'J + diag(diag))s + g's."""
    Js = J.dot(s)
    return 0.5 * (Js.dot(Js) + (s * diag).dot(s)) + s.dot(g)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients (a, b[, c]) of the quadratic along s0 + t s: a t^2 + b t
    + c; c only with s0."""
    v = J.dot(s)
    a = 0.5 * (v.dot(v) + (s * diag).dot(s))
    b = g.dot(s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += u.dot(v)
    b += (s0 * diag).dot(s)
    c = 0.5 * u.dot(u) + g.dot(s0) + 0.5 * (s0 * diag).dot(s0)
    return a, b, c


def _minimize_1d(a, b, lo, hi, c=0):
    """(t, value): the minimum of a t^2 + b t + c over lo <= t <= hi, the
    first of equal values, a NaN value first, as numpy's argmin picks it."""
    t = [lo, hi]
    if a != 0:
        extremum = -0.5 * b / a
        if lo < extremum < hi:
            t.append(extremum)
    y = [u * (a * u + b) + c for u in t]
    i = min(range(len(t)), key=lambda j: (y[j] == y[j], y[j]))
    return t[i], y[i]


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """The best of the trust-region step p (held strictly inside the box),
    its reflection off the first bound it hits, and the projected gradient
    step; returns (step, step in hat space, predicted reduction)."""
    x_p = x + p
    if ((x_p >= lb) & (x_p <= ub)).all():
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)

    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = p_h.copy()
    r_h[hits] *= -1
    r = d * r_h

    # cut the step at the bound; the reflection leaves the box or the trust
    # region first
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    _, to_tr = _intersect_trust_region(p_h, r_h, delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)

    # search the reflected ray only where it stays strictly feasible
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    p *= theta
    p_h *= theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _update_radius(delta, actual, predicted, step_norm, bound_hit):
    """(new radius, actual / predicted reduction)."""
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def _termination(d_cost, cost, dx_norm, x_norm, ratio, ftol, xtol):
    """Status 2, 3 or 4 when ftol, xtol or both are met, else None."""
    ftol_met = d_cost < ftol * cost and ratio > 0.25
    xtol_met = dx_norm < xtol * (xtol + x_norm)
    if ftol_met and xtol_met:
        return 4
    if ftol_met:
        return 2
    if xtol_met:
        return 3
    return None


def trf(evaluate: Callable, x0, lb, ub, *, ftol: float, xtol: float,
        gtol: float, max_nfev: int) -> LsqResult:
    """Minimise 0.5 ||f(x)||^2 subject to lb <= x <= ub, where
    evaluate(x) returns the residuals f (m,) and their Jacobian J (m, n).

    Stops with status 1 when the scaled gradient's largest entry is below
    gtol, 2 when a step cuts the cost by less than ftol times it, 3 when a
    step is shorter than xtol (xtol + ||x||), 4 for both 2 and 3, and 0
    after max_nfev evaluations. Raises ValueError for a start outside the
    box or non-finite residuals there.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    if np.any(lb >= ub):
        raise ValueError("each lower bound must be below its upper bound")
    if not np.all((x0 >= lb) & (x0 <= ub)):
        raise ValueError("initial guess is outside of the bounds")
    x = _strictly_feasible(x0, lb, ub, 1e-10)

    f, J = evaluate(x)
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at the initial point")
    nfev = njev = 1
    m, n = J.shape
    cost = 0.5 * f.dot(f)
    g = J.T.dot(f)

    # Coleman-Li scaling: v is the distance to the bound the negative
    # gradient points at (1 where there is none); dv its derivative
    finite_lb, finite_ub = np.isfinite(lb), np.isfinite(ub)

    def scaling(x, g):
        to_ub, to_lb = (g < 0) & finite_ub, (g > 0) & finite_lb
        v = np.where(to_ub, ub - x, np.where(to_lb, x - lb, 1.0))
        return v, np.subtract(to_lb, to_ub, dtype=float)

    v, _ = scaling(x, g)
    delta = _norm(x / v ** 0.5) or 1.0
    # the subproblem's [J d; diag(C)^0.5] and [f; 0], written in place
    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h, diagonal = J_augmented[:m], J_augmented[m:].reshape(-1)[::n + 1]
    alpha = 0.0
    status = None

    while True:
        v, dv = scaling(x, g)
        g_norm = np.abs(g * v).max()
        if g_norm < gtol:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        # the problem in "hat" variables x = d x_h, with C = diag(g dv) the
        # Coleman-Li curvature term
        d = v ** 0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        np.sqrt(diag_h, out=diagonal)
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        V = Vt.T
        uf = U.T.dot(f_augmented)

        # step back ratio from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_trust_region(n, m, uf, s, V, delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta)

            x_new = _strictly_feasible(x + step, lb, ub, 0)
            f_new, J_new = evaluate(x_new)
            nfev += 1

            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * f_new.dot(f_new)
            actual_reduction = cost - cost_new
            delta_new, ratio = _update_radius(
                delta, actual_reduction, predicted_reduction, step_h_norm,
                step_h_norm > 0.95 * delta)
            status = _termination(actual_reduction, cost, _norm(step),
                                  _norm(x), ratio, ftol, xtol)
            if status is not None:
                break
            alpha *= delta / delta_new
            delta = delta_new

        if actual_reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            njev += 1
            g = J.T.dot(f)

    return LsqResult(x=x, fun=f, nfev=nfev, njev=njev, status=status or 0)
