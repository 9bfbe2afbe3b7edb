"""GMM moment function for the misclassified-treatment LATE model.

The moment vector has 4K+3 components: the instrument mean, one treatment
probability moment and one outcome-contrast moment per (z, v_k) cell, the
true first-stage moment, and the LATE moment. In CASE_II the z-specific
misclassification probabilities are replaced by shared (m0, m1), which
shrinks the parameter vector but not the moment vector.

Within a (z, v, t) cell every component is affine in y: the row of a cell
is a + b y, with intercept a and slope b read off the parameters. So the
sample mean gbar depends on the data only through per-(z, v) counts and
sums of y, held divided by n in MomentSums. There is one entry point per
job, each built on one set of shared terms (a few array operations on
(2, K) blocks, O(K^2) per evaluation, with no row). gbar_and_jacobian,
which each step of a GMM fit calls, gives gbar and its Jacobian in closed
form on the MomentSums. gbar_jacobian_omega, which a fit calls once at each
estimate, adds the second-moment matrix Omega from the same terms: each
cell's a and b, summed against the cell's count, sum of y and sum of y
squared; on a stack of tables and vectors, for each, the terms carrying the
stack's axis last. The row-by-row moment function is the test suite's
oracle (tests/conftest.py), not part of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .data import CellStats, Mode, ParamVector, n_params
from .exceptions import DomainError, ValidationError


def _n_overid(k: int, mode: Mode) -> int:
    """Moments (4K+3) less packed coordinates: the J statistic's degrees of
    freedom, 0 when the model is just identified."""
    return 4 * k + 3 - n_params(k, mode)


@dataclass(frozen=True)
class MomentSums:
    """Per-(z, v) sums of a CellStats table, each divided by its n: all that
    the sample moment mean and its Jacobian read of the data, with the
    layout constants each evaluation would otherwise re-derive. A fit builds
    it once and passes it to every gbar_and_jacobian step (a stack's with
    its axis last)."""

    p: np.ndarray        # (2, K) n_zv / n
    n1: np.ndarray       # (2, K) treated count / n
    s1: np.ndarray       # (2, K) sum of y over treated rows / n
    s0: np.ndarray       # (2, K) sum of y over untreated rows / n
    t_z: tuple           # (T0, T1), floats (a stack's: arrays): per z, sum over v of n1
    y_z: tuple           # (Y0, Y1), likewise: per z, sum of y / n
    r_hat: float
    mode: Mode
    gather: np.ndarray   # packed[gather]: the coordinates in the order _terms reads
    entries: np.ndarray  # flat Jacobian positions of _jacobian's values
    jacobian_shape: tuple  # (4K+3, dim), a stack's with its axis first

    @property
    def k(self) -> int:
        return self.p.shape[1]

    @classmethod
    def of(cls, stats: CellStats) -> "MomentSums":
        # a stack's axis moves after the (z, v, t) axes
        n_zvt, sum_y = (x.transpose(-3, -2, -1, *range(x.ndim - 3))
                        for x in (stats.n_zvt, stats.sum_y))
        n = np.asarray(stats.n)
        n1 = n_zvt[:, :, 1] / n
        s = sum_y / n
        gather, entries = _layout(stats.k, stats.mode)
        shape = n.shape + (4 * stats.k + 3, n_params(stats.k, stats.mode))
        if n.shape:  # each entry's values hold the stack's; table i goes after i - 1
            entries = (entries[:, None] + shape[1] * shape[2] * np.arange(n.size)).ravel()
        return cls(p=n_zvt.sum(axis=2) / n, n1=n1, s1=s[:, :, 1], s0=s[:, :, 0],
                   t_z=tuple(n1.sum(axis=1)), y_z=tuple(s.sum(axis=(1, 2))),
                   r_hat=stats.r_hat, mode=stats.mode, gather=gather, entries=entries,
                   jacobian_shape=shape)


_DOMAIN_ERRORS = ("r-moment: r={} outside (0,1)", "p-moment: m0+m1 >= 1 at z=0",
                  "p-moment: m0+m1 >= 1 at z=1", "beta-moment: delta_p_star is zero",
                  "tau-moment: cell denominator outside (0,1)")


def _check_domain(r, dp, m0, m1, p_star) -> tuple:
    """(s, q, 1 - q): s_z = 1 - m0_z - m1_z and the (2, K) cell probabilities
    q = m0_z + s_z p*_zv, after one test that every moment is defined (a NaN
    r, m0, m1 or p* fails it). Of a stack (axis last), the first vector with
    an undefined moment raises, naming the first in _DOMAIN_ERRORS."""
    s = 1.0 - m0 - m1
    q = m0[:, None] + s[:, None] * p_star
    q1 = 1.0 - q
    # q (1 - q) > 0 exactly where 0 < q < 1: 1 - q is near 1 where q is small
    ok = ((0.0 < r) & (r < 1.0), s[0] > 0.0, s[1] > 0.0, dp != 0.0,
          (q * q1).min(axis=(0, 1)) > 0.0)
    if not (ok[0] & ok[1] & ok[2] & ok[3] & ok[4]).all():
        bad = ~np.array(ok).reshape(5, -1)
        vector = bad.any(axis=0).argmax()
        raise DomainError(_DOMAIN_ERRORS[bad[:, vector].argmax()].format(
            np.ravel(r)[vector]))
    return s, q, q1


@lru_cache(maxsize=None)
def _layout(k: int, mode: Mode) -> tuple:
    """(gather, entries): the packed positions of b*, dp*, r, m0_z, m1_z,
    p*_zv, tau*_z, in that order, each field a contiguous block of
    packed[gather]; and the flat positions in the (4K+3, dim) Jacobian of
    _jacobian's values: per (z, v) the p row's (m0_z, m1_z, p*_zv) and the
    tau row's (m0_z, m1_z, p*_zv, tau*_z), each block in (z, v) order; r's
    row; the first-stage row's dp*, r, m0_0, m1_0, m0_1, m1_1, where CASE_II's
    shared m0 and m1 come twice and add; the LATE row's b*, dp*, r."""
    n = n_params(k, mode)
    # each coordinate's packed position, as data lays the vector out
    beta, dp, r, m0, m1, ps, tau = fields = tuple(
        np.asarray(x).astype(np.int64)
        for x in ParamVector.unpacked_fields(np.arange(n), k, mode))
    gather = np.concatenate(fields, axis=None)
    z, v = np.indices((2, k))
    p_row, tau_row = 1 + z * k + v, 1 + 2 * k + z * k + v
    cell_cols = [m0[z], m1[z], ps, tau[z]]
    rows = [p_row] * 3 + [tau_row] * 4
    cols = cell_cols[:3] + cell_cols
    fs, late = 1 + 4 * k, 2 + 4 * k
    rows.append(np.array([0, fs, fs, fs, fs, fs, fs, late, late, late]))
    cols.append(np.array([r, dp, r, m0[0], m1[0], m0[1], m1[1], beta, dp, r]))
    flat = (np.concatenate(rows, axis=None) * n
            + np.concatenate(cols, axis=None))
    for x in (gather, flat):
        x.setflags(write=False)
    return gather, flat


class _Terms(NamedTuple):
    """The shared terms of gbar and its Jacobian at one parameter value."""

    sums: MomentSums
    beta: float
    dp: float
    r: float
    m0: np.ndarray       # (2,) m0_z
    s: np.ndarray        # (2,) 1 - m0 - m1
    cm0: np.ndarray      # (2, 1) 1 - m0
    cm1: np.ndarray      # (2, 1) 1 - m1
    ps: np.ndarray       # (2, K) p*
    ps1: np.ndarray      # (2, K) 1 - p*
    q: np.ndarray        # (2, K) m0 + s p*
    q1: np.ndarray       # (2, K) 1 - q
    tau: np.ndarray      # (2, 1) tau*
    ptau: np.ndarray     # (2, K) P tau*
    h1: np.ndarray       # (2, K) (1-m1) p*
    h0: np.ndarray       # (2, K) (1-m0) (1-p*)
    c_tau: np.ndarray    # (2, K) 1 - h1/q - h0/(1-q), a tau row's slope in tau* / P
    alpha: np.ndarray    # (2, K) P tau* h1 - S1
    gamma: np.ndarray    # (2, K) P tau* h0 + S0
    u0: float            # T0 / (1-r) - m0_0
    u1: float            # T1 / r - m0_1
    late: float          # Y1 / r - Y0 / (1-r)


def _terms(sums: MomentSums, theta_flat: np.ndarray) -> _Terms:
    """gbar's terms at a packed coordinate vector, laid out for the K and
    mode of sums.

    With P = n_zv/n, N1 the treated share, S_t the sums of y by arm over n,
    q = m0_z + s_z p*, alpha = P tau (1-m1) p* - S1 and
    gamma = P tau (1-m0) (1-p*) + S0, the cell rows are P q - N1 and
    P tau - alpha/q - gamma/(1-q); the rest read the per-z totals.
    """
    theta = np.asarray(theta_flat, dtype=float)
    dim = sums.jacobian_shape[-1]
    if theta.shape[-1:] != (dim,):
        raise ValidationError(f"expected {dim} coordinates, got {theta.shape}")
    fields = theta.T[sums.gather]  # a stack's axis last
    beta, dp, r = fields[:3]
    m0, m1, tau = fields[3:5], fields[5:7], fields[-2:, None]
    ps = fields[7:-2].reshape((2, sums.k) + fields.shape[1:])
    s, q, q1 = _check_domain(r, dp, m0, m1, ps)
    cm = 1.0 - fields[3:7, None]
    cm0, cm1, ps1 = cm[:2], cm[2:], 1.0 - ps
    ptau = sums.p * tau
    h1, h0 = cm1 * ps, cm0 * ps1
    (t0, t1), (y0, y1) = sums.t_z, sums.y_z
    return _Terms(sums=sums, beta=beta, dp=dp, r=r, m0=m0, s=s, cm0=cm0,
                  cm1=cm1, ps=ps, ps1=ps1, q=q, q1=q1, tau=tau, ptau=ptau,
                  h1=h1, h0=h0, c_tau=1.0 - h1 / q - h0 / q1,
                  alpha=ptau * h1 - sums.s1, gamma=ptau * h0 + sums.s0,
                  u0=t0 / (1.0 - r) - m0[0], u1=t1 / r - m0[1],
                  late=y1 / r - y0 / (1.0 - r))


def _gbar(t: _Terms) -> np.ndarray:
    sums, q, s = t.sums, t.q, t.s
    column = (-1,) + q.shape[2:]
    return np.concatenate([
        [t.r - sums.r_hat],
        (sums.p * q - sums.n1).reshape(column),
        (t.ptau - t.alpha / q - t.gamma / t.q1).reshape(column),
        [t.dp - t.u1 / s[1] + t.u0 / s[0], t.beta - t.late / t.dp],
    ])


def _jacobian(t: _Terms) -> np.ndarray:
    """gbar's terms differentiated by hand: each nonzero entry, placed in
    the packed columns (where CASE_II's shared m0 and m1 sum their z
    parts). A stack's Jacobians come with its axis first."""
    sums, q, q1, s, r, dp, ps, ps1 = t.sums, t.q, t.q1, t.s, t.r, t.dp, t.ps, t.ps1
    p, sz = sums.p, s[:, None]
    cm0, cm1, ptau = t.cm0, t.cm1, t.ptau
    w = t.alpha / q ** 2 - t.gamma / q1 ** 2
    a, b = ptau / q, ptau / q1
    (t0, t1), (y0, y1) = sums.t_z, sums.y_z
    u0, u1, one = t.u0, t.u1, 0.0 * r + 1.0
    # libm's pow, which ** is on a float, also on a stack
    r2, rc2, s02, s12, dp2 = np.float_power([r, 1.0 - r, s[0], s[1], dp], 2)
    values = np.concatenate([
        # p rows P q - N1 by (m0_z, m1_z, p*_zv): dq = (1-p*, -p*, s)
        p * ps1, -p * ps, p * sz,
        # tau rows P tau - alpha/q - gamma/(1-q) by (m0_z, m1_z, p*_zv, tau*_z)
        (b + w) * ps1, (a - w) * ps, cm0 * b - cm1 * a + w * sz, p * t.c_tau,
        # r row r - r_hat; first-stage row dp* - u1/s_1 + u0/s_0 by dp*, r,
        # m0_0, m1_0, m0_1, m1_1; LATE row b* - (Y1/r - Y0/(1-r)) / dp* by
        # b*, dp*, r
        [one, one, t1 / (r2 * s[1]) + t0 / (rc2 * s[0]),
         -1.0 / s[0] + u0 / s02, u0 / s02,
         1.0 / s[1] - u1 / s12, -u1 / s12,
         one, t.late / dp2, (y1 / r2 + y0 / rc2) / dp],
    ], axis=None)
    shape = sums.jacobian_shape
    return np.bincount(sums.entries, weights=values, minlength=math.prod(shape)
                       ).reshape(shape)


def _cell_rows(t: _Terms) -> tuple:
    """(a, b), each (4K, 4K+3): row i of (z, v, d) cell c, cells in the C
    order of CellStats.n_zvt, is a[c] + b[c] y_i. Only the tau and LATE
    rows depend on y. A stack's come with its axis first."""
    k = t.sums.k  # each vector's values as a column, to meet the cells' rows
    r, dp, beta, m00, m01, s0, s1 = (np.asarray(x)[..., None] for x in
                                     (t.r, t.dp, t.beta, *t.m0, *t.s))
    z, v, d = (x.ravel() for x in np.indices((2, k, 2)))
    cell, zv, q = np.arange(4 * k), z * k + v, t.q[z, v].T
    a = np.zeros(r.shape[:-1] + (4 * k, 4 * k + 3))
    b = np.zeros_like(a)
    a[..., 0] = r - z
    a[..., cell, 1 + zv] = q - d
    a[..., cell, 1 + 2 * k + zv] = (t.tau * t.c_tau)[z, v].T
    b[..., cell, 1 + 2 * k + zv] = d / q - (1 - d) / (1.0 - q)
    a[..., -2] = dp - ((d * z / r - m01) / s1
                       - (d * (1 - z) / (1.0 - r) - m00) / s0)
    a[..., -1] = beta
    b[..., -1] = -(z / r - (1 - z) / (1.0 - r)) / dp
    return a, b


def gbar_and_jacobian(sums: MomentSums, theta_flat: np.ndarray) -> tuple:
    """(gbar, its Jacobian with respect to the packed vector, shape
    (4K+3, dim)) at a packed coordinate vector, from one set of shared
    terms: what each step of a fit reads."""
    t = _terms(sums, theta_flat)
    return _gbar(t), _jacobian(t)


def gbar_jacobian_omega(stats: CellStats, theta_flat: np.ndarray) -> tuple:
    """(gbar, its Jacobian, Omega) at a packed coordinate vector, from one
    set of shared terms: what a fit reads at its estimate. Omega, the
    uncentered second moment (1/n) sum g_i g_i', is summed cell by cell as
    a'Na + a'(Sy)b + b'(Sy)a + b'(Syy)b, where a cell's sum of y squared is
    its centred sum of squares plus Sy times its mean. A stack of tables and
    vectors gives a stack of each."""
    t = _terms(MomentSums.of(stats), theta_flat)
    a, b = _cell_rows(t)
    at, column = np.swapaxes(a, -1, -2), stats.n_zvt.shape[:-3] + (-1, 1)
    n_c, sy = stats.n_zvt.reshape(column), stats.sum_y.reshape(column)
    syy = stats.ss_y.reshape(column) + sy * stats.y_mean.reshape(column)
    cross = at @ (sy * b)
    omega = ((at @ (n_c * a) + cross + np.swapaxes(cross, -1, -2)
              + np.swapaxes(b, -1, -2) @ (syy * b))
             / np.reshape(stats.n, column[:-2] + (1, 1)))
    return _gbar(t).T, _jacobian(t), omega
