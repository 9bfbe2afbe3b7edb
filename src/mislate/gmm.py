"""GMM estimation: point estimates, sandwich covariance, CIs, and J-test.

The objective Q(theta) = gbar(theta)' W gbar(theta) is minimised as a box
constrained nonlinear least-squares problem in the residuals W^{1/2} gbar,
warm-started from the closed-form identification solution. The constraint
m0 + m1 <= 1 - eps is enforced by projection plus a hinge penalty residual;
it is inactive at every interior solution. The fit reads the data only
through the caller's per-cell CellStats table, reduced once per fit to the
MomentSums that every residual and Jacobian evaluation reads; the residual
Jacobian and the sandwich use the closed-form moment Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import optimize, stats
from scipy.special import ndtri

from .data import CellStats, Mode, ParamVector, n_params, param_names, validate
from .exceptions import (
    MislateError,
    NotOveridentified,
    RankDeficient,
    StartFailure,
    ValidationError,
)
from .identification import identify
from .moments import (MomentLayout, MomentSums, gbar, moment_jacobian,
                      sample_moments)

EPS_CONSTRAINT = 1e-4
PENALTY = 10.0
MAX_ITER = 200
TOL_GRAD = 1e-10
TOL_STEP = 1e-12


@dataclass(frozen=True)
class GmmConfig:
    weighting: str = "identity"        # "identity" | "optimal"
    start: Optional[ParamVector] = None  # closed form when None
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
    layout: MomentLayout
    weighting: str
    param_names: list = field(default_factory=list)


def _bounds(k: int, mode: Mode, dp_sign: float) -> tuple:
    """Packed lower and upper bounds: probabilities in [eps, 1 - eps],
    delta_p_star away from 0 on the side of dp_sign, the rest free."""
    eps, inf = EPS_CONSTRAINT, np.inf

    def packed(free, dp, prob):
        return ParamVector(free, dp, prob, np.full(2, prob), np.full(2, prob),
                           np.full((2, k), prob), np.full(2, free), mode).pack()

    if dp_sign >= 0:
        return packed(-inf, eps, eps), packed(inf, inf, 1.0 - eps)
    return packed(-inf, -inf, eps), packed(inf, -eps, 1.0 - eps)


@lru_cache(maxsize=None)
def _m_indices(k: int, mode: Mode) -> tuple:
    """(m0, m1) coordinate index pairs, one per z-specific constraint."""
    at = ParamVector.unpack(np.arange(n_params(k, mode)), k, mode)
    return tuple(dict.fromkeys((int(at.m0[z]), int(at.m1[z])) for z in (0, 1)))


def _project(x: np.ndarray, k: int, mode: Mode) -> tuple:
    """Scale (m0, m1) onto m0+m1 <= 1-eps when violated; return the
    projected vector and per-constraint violations."""
    viols = []
    xp = x
    for i0, i1 in _m_indices(k, mode):
        tot = x[i0] + x[i1]
        v = max(0.0, tot - (1.0 - EPS_CONSTRAINT))
        viols.append(v)
        if v > 0.0:
            if xp is x:
                xp = x.copy()
            scale = (1.0 - EPS_CONSTRAINT) / tot
            xp[i0] *= scale
            xp[i1] *= scale
    return xp, np.array(viols)


def _project_jac(x: np.ndarray, k: int, mode: Mode) -> tuple:
    """Derivatives with respect to x of _project's projected vector and of
    its violations."""
    pairs = _m_indices(k, mode)
    d_xp = np.eye(x.size)
    d_viols = np.zeros((len(pairs), x.size))
    for row, (i0, i1) in enumerate(pairs):
        idx = [i0, i1]
        tot = x[i0] + x[i1]
        if tot - (1.0 - EPS_CONSTRAINT) > 0.0:
            scale = (1.0 - EPS_CONSTRAINT) / tot
            d_xp[np.ix_(idx, idx)] = scale * (np.eye(2) - x[idx, None] / tot)
            d_viols[row, idx] = 1.0
    return d_xp, d_viols


def _clip_start(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, k, mode) -> np.ndarray:
    x = np.clip(x, lo + 1e-12, hi - 1e-12)
    x, _ = _project(x, k, mode)
    return x


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


def starting_value(table: CellStats, cfg: GmmConfig) -> ParamVector:
    if cfg.start is not None:
        return cfg.start
    try:
        return identify(table, table.mode).theta
    except MislateError:
        return _fallback_start(table)


def _w_half(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _residual(x: np.ndarray, table, w_half: np.ndarray) -> np.ndarray:
    """W^{1/2} gbar at the projected point, then the hinge penalties; table
    is a CellStats or its MomentSums."""
    k, mode = table.k, table.mode
    xp, viols = _project(x, k, mode)
    return np.concatenate([w_half @ gbar(table, xp, k, mode), PENALTY * viols])


def _residual_jac(x: np.ndarray, table, w_half: np.ndarray) -> np.ndarray:
    """Jacobian of _residual: W^{1/2} G(P(x)) DP(x) over PENALTY dviol/dx."""
    k, mode = table.k, table.mode
    xp, _ = _project(x, k, mode)
    d_xp, d_viols = _project_jac(x, k, mode)
    G = moment_jacobian(table, ParamVector.unpack(xp, k, mode))
    return np.vstack([w_half @ G @ d_xp, PENALTY * d_viols])


def _minimize(sums: MomentSums, x0, w_half):
    k, mode = sums.k, sums.mode
    dp_sign = np.sign(ParamVector.unpack(x0, k, mode).delta_p_star) or 1.0
    lo, hi = _bounds(k, mode, dp_sign)
    x0 = _clip_start(x0, lo, hi, k, mode)
    n_con = len(_m_indices(k, mode))

    res = optimize.least_squares(
        _residual,
        x0,
        jac=_residual_jac,
        args=(sums, w_half),
        bounds=(lo, hi),
        method="trf",
        xtol=TOL_STEP,
        gtol=TOL_GRAD,
        ftol=TOL_STEP,
        max_nfev=MAX_ITER * (x0.size + 1),
    )
    x_hat, _ = _project(res.x, k, mode)
    core = res.fun[: res.fun.size - n_con]
    return x_hat, float(core @ core), res.status > 0


def sandwich_cov(G: np.ndarray, W: np.ndarray, Omega: np.ndarray, n: int,
                 w_half: Optional[np.ndarray] = None) -> np.ndarray:
    """(G'WG)^-1 G'W Omega W G (G'WG)^-1 / n, computed as X Omega X' / n
    with X = V diag(1/s) U' W^{1/2} from the SVD W^{1/2} G = U diag(s) V',
    so cond(G) is not squared (X = G^-1 when G is square). w_half is
    W^{1/2} when the caller holds it."""
    if w_half is None:
        w_half = _w_half(W)
    u, s, vt = np.linalg.svd(w_half @ G, full_matrices=False)
    # matrix_rank's tolerance
    if s.size < G.shape[1] or s[-1] <= s[0] * max(G.shape) * np.finfo(s.dtype).eps:
        raise RankDeficient("moment Jacobian is rank deficient")
    x = (vt.T / s) @ (u.T @ w_half)
    v = x @ Omega @ x.T / n
    return (v + v.T) / 2.0


def confidence_intervals(theta_flat: np.ndarray, vcov: np.ndarray, level: float) -> np.ndarray:
    """Per-parameter normal intervals theta_j +/- z * se_j, shape (dim, 2)."""
    zcrit = ndtri(0.5 + level / 2.0)
    se = np.sqrt(np.clip(np.diag(vcov), 0.0, None))
    return np.column_stack([theta_flat - zcrit * se, theta_flat + zcrit * se])


def estimate(table: CellStats, cfg: GmmConfig = GmmConfig()) -> Estimate:
    """Full GMM pipeline on a cell table: validate, start, minimise,
    (optionally) re-weight, infer."""
    problems = validate(table)
    if problems:
        raise ValidationError("; ".join(problems))
    k, mode, n = table.k, table.mode, table.n
    layout = MomentLayout(k, mode)

    x0 = starting_value(table, cfg).pack()
    sums = MomentSums.of(table)
    w_identity = np.eye(layout.n_moments)
    x_hat, objective, converged = _minimize(sums, x0, w_identity)

    theta_hat = ParamVector.unpack(x_hat, k, mode)
    ev = sample_moments(table, theta_hat)
    omega = ev.omega()
    weight = w_half = w_identity
    if cfg.weighting == "optimal":
        weight = np.linalg.pinv(omega)
        w_half = _w_half(weight)
        x_hat, objective, converged = _minimize(sums, x_hat, w_half)
        theta_hat = ParamVector.unpack(x_hat, k, mode)
        ev = sample_moments(table, theta_hat)
        omega = ev.omega()

    G = moment_jacobian(sums, theta_hat)
    vcov = sandwich_cov(G, weight, omega, n, w_half)
    se = np.sqrt(np.clip(np.diag(vcov), 0.0, None))
    ci = confidence_intervals(x_hat, vcov, cfg.ci_level)

    omega_inv = np.linalg.pinv(omega)
    j_stat = float(n * ev.gbar @ omega_inv @ ev.gbar)
    j_dof = layout.n_overid
    j_pvalue = (
        float(stats.chi2.sf(j_stat, j_dof))
        if (cfg.weighting == "optimal" and j_dof > 0)
        else None
    )

    return Estimate(
        theta_hat=theta_hat,
        theta_flat=x_hat,
        vcov=vcov,
        se=se,
        ci=ci,
        j_stat=j_stat,
        j_dof=j_dof,
        j_pvalue=j_pvalue,
        objective=objective,
        converged=converged,
        n=n,
        layout=layout,
        weighting=cfg.weighting,
        param_names=param_names(k, mode),
    )


def j_test(est: Estimate, require_pvalue: bool = False) -> tuple:
    """Overidentification test (stat, dof, pvalue); pvalue is None at dof 0.

    With require_pvalue, a just-identified model raises NotOveridentified
    instead of returning the undefined marker.
    """
    if est.j_dof == 0:
        if require_pvalue:
            raise NotOveridentified("model is just-identified (dof = 0)")
        return est.j_stat, 0, None
    if est.weighting != "optimal":
        raise ValidationError(
            "J-test requires two-step optimal weighting in an overidentified model"
        )
    return est.j_stat, est.j_dof, est.j_pvalue
