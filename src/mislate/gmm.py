"""GMM estimation: point estimates, sandwich covariance, CIs, and the J statistic.

The objective Q(theta) = gbar(theta)' W gbar(theta) is minimised as a box
constrained nonlinear least-squares problem in the residuals W^{1/2} gbar,
warm-started from the closed-form identification solution, by the
package's trust-region reflective loop (lsq.trf). The constraint
m0 + m1 <= 1 - eps is kept by trf's own rule: past it an evaluation gives
non-finite residuals and computes no moment, and trf refuses such a step
and cuts its radius to a quarter of the step, so every accepted iterate is
feasible. The start is scaled strictly inside the constraint. The fit reads
the data only through the caller's per-cell CellStats table, reduced once
per fit to the MomentSums that every evaluation reads. One evaluation gives
the residuals and their Jacobian together, from gbar's closed-form terms and
the closed-form moment Jacobian; under identity weighting it multiplies by
no W^{1/2}. A just-identified closed form inside the box zeroes every
moment, so it is the estimate with no solver call. _fit is the one fit
path: it identifies a stack of tables once, solves the other tables one at
a time, and evaluates every estimate with one call of each step. estimate
is the one-table edge: it fits its validated table as a stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._special import chdtrc, ndtri
from .data import CellStats, Mode, ParamVector, n_params, param_names, validate
from .exceptions import MislateError, RankDeficient, StartFailure, ValidationError
from .identification import identify
from .lsq import trf
from .moments import (MomentSums, _n_overid, gbar_and_jacobian,
                      gbar_jacobian_omega)

EPS_CONSTRAINT = 1e-4
MAX_ITER = 200
TOL_GRAD = 1e-10
TOL_STEP = 1e-12


@dataclass(frozen=True)
class GmmConfig:
    weighting: str = "identity"        # "identity" | "optimal"
    ci_level: float = 0.95

    def __post_init__(self):
        if self.weighting not in ("identity", "optimal"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0,1)")


@dataclass(frozen=True)
class Estimate:
    theta_hat: ParamVector
    theta_flat: np.ndarray
    vcov: np.ndarray
    se: np.ndarray
    ci: np.ndarray                # (dim, 2)
    j_stat: float
    j_dof: int
    j_pvalue: Optional[float]
    objective: float
    converged: bool
    n: int
    weighting: str
    param_names: list = field(default_factory=list)


@lru_cache(maxsize=None)
def _bounds(k: int, mode: Mode, dp_positive: bool) -> tuple:
    """Packed lower and upper bounds, read-only: probabilities in
    [eps, 1 - eps], delta_p_star at least eps (dp_positive) or at most
    -eps, the rest free."""
    eps, inf = EPS_CONSTRAINT, np.inf

    def packed(free, dp, prob):
        x = ParamVector(free, dp, prob, np.full(2, prob), np.full(2, prob),
                        np.full((2, k), prob), np.full(2, free), mode).pack()
        x.setflags(write=False)
        return x

    if dp_positive:
        return packed(-inf, eps, eps), packed(inf, inf, 1.0 - eps)
    return packed(-inf, -inf, eps), packed(inf, -eps, 1.0 - eps)


@lru_cache(maxsize=None)
def _m_indices(k: int, mode: Mode) -> tuple:
    """The m0 and the m1 coordinate indices, two lists with one entry per
    z-specific constraint."""
    at = ParamVector.unpack(np.arange(n_params(k, mode)), k, mode)
    pairs = dict.fromkeys((int(at.m0[z]), int(at.m1[z])) for z in (0, 1))
    return tuple(list(side) for side in zip(*pairs))


def _past_face(x: np.ndarray, k: int, mode: Mode) -> np.ndarray:
    """Per z-specific constraint, whether x has m0 + m1 > 1 - eps."""
    m0, m1 = _m_indices(k, mode)
    return x[m0] + x[m1] > 1.0 - EPS_CONSTRAINT


def _clip_start(x: np.ndarray, k: int, mode: Mode) -> tuple:
    """(x inside the box lo..hi and on m0 + m1 <= 1 - eps, lo, hi); the box
    takes the sign of x's delta_p_star. A pair (m0, m1) past the face is
    scaled toward the box's corner (eps, eps) to m0 + m1 = 1 - 2 eps: it
    stays in the box, and neither rounding nor trf's move of a start off a
    bound (1e-10) takes it back past the face."""
    dp = ParamVector.unpacked_fields(x, k, mode)[1]
    lo, hi = _bounds(k, mode, bool(dp >= 0))
    x = np.clip(x, lo + 1e-12, hi - 1e-12)
    past = _past_face(x, k, mode)
    if past.any():
        eps, m = EPS_CONSTRAINT, np.array(_m_indices(k, mode))[:, past]
        x[m] = eps + (x[m] - eps) * ((1.0 - 4 * eps) / (x[m].sum(axis=0) - 2 * eps))
    return x, lo, hi


def _fallback_start(table: CellStats) -> ParamVector:
    """Moment-matched naive start used when closed-form identification fails:
    small misclassification, observed cell probabilities, naive Wald."""
    dp = table.p_z[1] - table.p_z[0]
    if dp == 0.0:
        raise StartFailure("observed first stage is exactly zero")
    beta = (table.mu_z[1] - table.mu_z[0]) / dp
    w = table.n_zv / table.n_zv.sum(axis=1, keepdims=True)
    tau = np.nansum(w * table.tau_zv, axis=1)
    m = np.full(2, 0.05)
    return ParamVector(
        beta_star=beta,
        delta_p_star=dp,
        r=table.r_hat,
        m0=m,
        m1=m,
        p_star=np.clip(table.p_zv, 1e-3, 1.0 - 1e-3),
        tau_star=tau,
        mode=table.mode,
    )


def _w_half(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w)
    vals = np.clip(vals, 0.0, None)
    root = np.eye(vals.shape[-1]) * np.sqrt(vals)[..., None, :]  # diag, stacked
    return vecs @ root @ np.swapaxes(vecs, -1, -2)


def _weights(omega: np.ndarray, weighting: str) -> tuple:
    """(W, W^{1/2}): I, or pinv(Omega) and its root, stacked as Omega."""
    if weighting == "identity":
        return (np.eye(omega.shape[-1]),) * 2
    weight = np.linalg.pinv(omega)
    return weight, _w_half(weight)


def _evaluate(x: np.ndarray, sums: MomentSums, w_half: Optional[np.ndarray]) -> tuple:
    """The residuals W^{1/2} gbar(x) and their Jacobian W^{1/2} G(x), from
    one set of moment terms; w_half None stands for the identity. Past the
    face m0 + m1 = 1 - eps both are NaN and no moment is computed: lsq.trf
    refuses such a step."""
    if _past_face(x, sums.k, sums.mode).any():
        m = 4 * sums.k + 3
        return np.full(m, np.nan), np.full((m, x.size), np.nan)
    g, G = gbar_and_jacobian(sums, x)
    if w_half is not None:
        g, G = w_half @ g, w_half @ G
    return g, G


def _minimize(sums: MomentSums, x0, w_half):
    x0, lo, hi = _clip_start(x0, sums.k, sums.mode)
    res = trf(lambda x: _evaluate(x, sums, w_half), x0, lo, hi,
              ftol=TOL_STEP, xtol=TOL_STEP, gtol=TOL_GRAD,
              max_nfev=MAX_ITER * (x0.size + 1))
    return res.x, res.status > 0


def sandwich_cov(G: np.ndarray, W: np.ndarray, Omega: np.ndarray, n: int,
                 w_half: Optional[np.ndarray] = None) -> np.ndarray:
    """(G'WG)^-1 G'W Omega W G (G'WG)^-1 / n, computed as X Omega X' / n
    with X = V diag(1/s) U' W^{1/2} from the SVD W^{1/2} G = U diag(s) V',
    so cond(G) is not squared (X = G^-1 when G is square). w_half is
    W^{1/2} when the caller holds it. Stacked arguments give a stack."""
    if w_half is None:
        w_half = _w_half(W)
    u, s, vt = np.linalg.svd(w_half @ G, full_matrices=False)
    # matrix_rank's tolerance
    if s.shape[-1] < G.shape[-1] or np.any(
            s[..., -1] <= s[..., 0] * max(G.shape[-2:]) * np.finfo(s.dtype).eps):
        raise RankDeficient("moment Jacobian is rank deficient")
    x = (np.swapaxes(vt, -1, -2) / s[..., None, :]) @ (np.swapaxes(u, -1, -2) @ w_half)
    v = x @ Omega @ np.swapaxes(x, -1, -2) / np.reshape(n, np.shape(n) + (1, 1))
    return (v + np.swapaxes(v, -1, -2)) / 2.0


def _se(vcov: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(np.diagonal(vcov, axis1=-2, axis2=-1), 0.0, None))


def _is_closed(x: np.ndarray, k: int, mode: Mode) -> bool:
    # a just-identified closed form zeroes every moment: the minimum, unclipped
    return (_n_overid(k, mode) == 0
            and np.array_equal(_clip_start(x, k, mode)[0], x))


def _solve(table: CellStats, x0: Optional[np.ndarray], weighting: str):
    """(x, converged, weights) of a table: validate it, minimise from x0
    (_fallback_start's where x0 is None) and, two-step, again with the
    weights (W, W^{1/2}) taken at the first estimate, which weights holds
    (else None)."""
    problems = validate(table)
    if problems:
        raise ValidationError("; ".join(problems))
    if x0 is None:
        x0 = _fallback_start(table).pack()
    sums = MomentSums.of(table)
    x, converged = _minimize(sums, x0, None)
    if weighting == "identity":
        return x, converged, None
    weights = _weights(gbar_jacobian_omega(table, x)[2], weighting)
    return (*_minimize(sums, x, weights[1]), weights)


class _Fit(NamedTuple):
    """A stack's fits, its axis first; a failed table's arrays hold NaN."""
    x: np.ndarray          # estimates, packed
    g: np.ndarray          # gbar at x
    omega: np.ndarray      # Omega at x
    vcov: np.ndarray       # sandwich covariance
    objective: np.ndarray  # gbar' W gbar at x
    converged: np.ndarray
    errors: list           # per table the MislateError that failed it, or None


def _fit(stats: CellStats, weighting: str) -> _Fit:
    """GMM fits of a stack of tables, identified once: a just-identified
    closed form inside the box is the estimate, any other table goes
    through _solve alone. gbar, G and Omega, the weights (a two-step
    solve's own) and the sandwich then run once on every estimate. A
    table's MislateError goes in errors; a check that trips on the stack
    raises."""
    k, mode, size = stats.k, stats.mode, len(stats.n)
    ident = identify(stats, mode)
    x = ident.theta.pack()
    converged, errors, first = np.ones(size, dtype=bool), [None] * size, {}
    for i in range(size):
        if ident.failed[i] or not _is_closed(x[i], k, mode):
            try:
                x[i], converged[i], first[i] = _solve(
                    stats[i], None if ident.failed[i] else x[i], weighting)
            except MislateError as exc:
                errors[i] = exc
    ok = np.array([error is None for error in errors])
    x[~ok] = np.nan
    m, p = 4 * k + 3, x.shape[1]
    g, omega, vcov, objective = (np.full((size,) + shape, np.nan)
                                 for shape in ((m,), (m, m), (p, p), ()))
    if ok.any():
        done = stats[ok]
        g[ok], G, omega[ok] = gbar_jacobian_omega(done, x[ok])
        weight, w_half = _weights(omega[ok], weighting)
        for j, i in enumerate(np.flatnonzero(ok)):
            if first.get(i) is not None:
                weight[j], w_half[j] = first[i]
        vcov[ok] = sandwich_cov(G, weight, omega[ok], done.n, w_half)
        core = w_half @ g[ok][..., None]
        objective[ok] = (np.swapaxes(core, -1, -2) @ core)[..., 0, 0]
    return _Fit(x, g, omega, vcov, objective, converged, errors)


@lru_cache(maxsize=None)
def _zcrit(level: float) -> float:
    """The normal critical value of a two-sided interval at this level. It is
    cached because ndtri of one value costs ~0.1 ms, 3 % of a Monte Carlo
    replication, and every replication of a study fits at the same level."""
    return float(ndtri(0.5 + level / 2.0))


def confidence_intervals(theta_flat: np.ndarray, vcov: np.ndarray, level: float) -> np.ndarray:
    """Per-parameter normal intervals theta_j +/- z * se_j, shape (dim, 2).
    A level outside (0, 1) raises ValueError."""
    if not 0.0 < level < 1.0:
        raise ValueError("ci_level must be in (0,1)")
    zcrit = _zcrit(level)
    se = _se(vcov)
    return np.column_stack([theta_flat - zcrit * se, theta_flat + zcrit * se])


def estimate(table: CellStats, cfg: GmmConfig = GmmConfig()) -> Estimate:
    """Full GMM pipeline on a cell table: validate, fit it as a stack of
    one (raising its error), infer."""
    problems = validate(table)
    if problems:
        raise ValidationError("; ".join(problems))
    k, mode, n = table.k, table.mode, table.n
    fit = _fit(table[None], cfg.weighting)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    x_hat, g, omega, vcov = fit.x[0], fit.g[0], fit.omega[0], fit.vcov[0]
    j_stat = float(n * g @ np.linalg.pinv(omega) @ g)
    j_dof = _n_overid(k, mode)
    return Estimate(
        theta_hat=ParamVector.unpack(x_hat, k, mode),
        theta_flat=x_hat,
        vcov=vcov,
        se=_se(vcov),
        ci=confidence_intervals(x_hat, vcov, cfg.ci_level),
        j_stat=j_stat,
        j_dof=j_dof,
        j_pvalue=(float(chdtrc(j_dof, j_stat))
                  if cfg.weighting == "optimal" and j_dof > 0 else None),
        objective=float(fit.objective[0]),
        converged=bool(fit.converged[0]),
        n=n,
        weighting=cfg.weighting,
        param_names=param_names(k, mode),
    )
