"""Shared fixtures and generators for the test suite."""
from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy import optimize

from mislate.data import CellStats, Dataset, Mode, ParamVector
from mislate.moments import _check_domain


def random_theta(rng: np.random.Generator, mode: Mode, k: int) -> ParamVector:
    """Admissible parameter draw with well-separated cells.

    Constraints: m0+m1 <= 0.9, |tau_z*| >= 0.1, p*_zv separated by >= 0.05,
    implied p_zv in [0.02, 0.98].
    """
    while True:
        m0 = rng.uniform(0.0, 0.9, size=2)
        m1 = rng.uniform(0.0, 0.9 - m0)
        if mode is Mode.CASE_II:
            m0[:] = m0[0]
            m1[:] = m1[0]
        tau = rng.uniform(0.1, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        p_star = rng.uniform(0.0, 1.0, size=(2, k))
        p_star.sort(axis=1)
        if np.any(np.diff(p_star, axis=1) < 0.05):
            continue
        p_star = p_star[:, rng.permutation(k)]
        s = 1.0 - m0 - m1
        p_zv = m0[:, None] + s[:, None] * p_star
        if np.any(p_zv < 0.02) or np.any(p_zv > 0.98):
            continue
        r = rng.uniform(0.2, 0.8)
        w = np.full((2, k), 1.0 / k)
        p_star_z = (w * p_star).sum(axis=1)
        dp = float(p_star_z[1] - p_star_z[0])
        if abs(dp) < 0.1:
            continue
        # the LATE coordinate is pinned down by the reduced form the other
        # coordinates imply (uniform weights over the exogenous support)
        beta = float(tau[1] * p_star_z[1] - tau[0] * p_star_z[0]) / dp
        return ParamVector(
            beta_star=beta,
            delta_p_star=dp,
            r=float(r),
            m0=m0,
            m1=m1,
            p_star=p_star,
            tau_star=tau,
            mode=mode,
        )


def simulate_from_theta(theta: ParamVector, n: int, rng: np.random.Generator,
                        noise_sd: float = 0.3,
                        error_by_v: bool = False) -> Dataset:
    """Latent DGP faithful to a CASE_II parameter vector.

    Y = T* tau_z* + 0.3 V + eps keeps the exclusion restriction exact.
    With error_by_v=True the misclassification rate varies with the
    exogenous variable, breaking the cross-cell error restriction the
    overidentified moments can detect.
    """
    z = (rng.random(n) < theta.r).astype(np.int8)
    v = rng.integers(0, theta.k, size=n).astype(np.int64)
    ps = theta.p_star[z.astype(np.int64), v]
    t_star = (rng.random(n) < ps).astype(np.int8)
    eps = rng.normal(0.0, noise_sd, size=n)
    if error_by_v:
        flip = 0.03 + 0.12 * v
    else:
        flip = np.where(t_star == 0, theta.m0[z.astype(np.int64)],
                        theta.m1[z.astype(np.int64)])
    t = np.where(rng.random(n) < flip, 1 - t_star, t_star).astype(np.int8)
    y = t_star * theta.tau_star[z.astype(np.int64)] + 0.3 * v + eps
    return Dataset(y=y, t=t, z=z, v=v, v_support=tuple(range(theta.k)),
                   mode=Mode.CASE_II)


def central_differences(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of f at x; column j uses
    h_j = step * max(1, |x_j|). The oracle for closed-form derivatives."""
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((f(xp) - f(xm)) / (2.0 * h))
    return np.column_stack(cols)


def row_iv_fit(y, X, Z, hc1=False):
    """Just-identified linear IV on the rows: b = (Z'X)^-1 Z'y with HC0 (or
    HC1) sandwich covariance; returns (coef, robust_se, vcov). With Z = X
    this is OLS. The oracle for the cell-table baselines."""
    n, kx = X.shape
    a_inv = np.linalg.inv(Z.T @ X)
    b = a_inv @ (Z.T @ y)
    e = y - X @ b
    meat = (Z * (e ** 2)[:, None]).T @ Z
    v = a_inv @ meat @ a_inv.T
    if hc1:
        v = v * n / (n - kx)
    return b, np.sqrt(np.clip(np.diag(v), 0.0, None)), v


def least_squares_oracle(evaluate, x0, lb, ub, *, ftol, xtol, gtol, max_nfev):
    """scipy's least_squares with method="trf" on the residuals and
    Jacobian of evaluate(x) -> (f, J), with the arguments the GMM fit gives
    mislate.lsq.trf. The oracle for that port."""
    return optimize.least_squares(
        lambda x: evaluate(x)[0], x0, jac=lambda x: evaluate(x)[1],
        bounds=(lb, ub), method="trf", ftol=ftol, xtol=xtol, gtol=gtol,
        max_nfev=max_nfev)


def moment_matrix(ds: Dataset, theta: ParamVector) -> np.ndarray:
    """Per-observation moment rows, shape (n, 4K+3): the moment function row
    by row, in the order r, p by (z, v), tau by (z, v), first stage, LATE.
    The oracle for the closed forms in mislate.moments."""
    k = ds.k
    s, q, _ = _check_domain(theta.r, theta.delta_p_star, theta.m0, theta.m1,
                            theta.p_star)

    y, t, z, v = ds.y, ds.t.astype(float), ds.z.astype(float), ds.v
    n = ds.n
    g = np.zeros((n, 4 * k + 3))
    g[:, 0] = theta.r - z

    zi = ds.z.astype(np.int64)
    cell_q = q[zi, v]
    cell_ps = theta.p_star[zi, v]
    cell_m0 = theta.m0[zi]
    cell_m1 = theta.m1[zi]
    cell_s = s[zi]
    cell_tau = theta.tau_star[zi]

    p_val = cell_m0 + cell_s * cell_ps - t
    tau_val = (
        cell_tau
        + (y * t - (1.0 - cell_m1) * cell_ps * cell_tau) / cell_q
        - (y * (1.0 - t) + (1.0 - cell_m0) * (1.0 - cell_ps) * cell_tau)
        / (1.0 - cell_q)
    )
    rows = np.arange(n)
    g[rows, 1 + zi * k + v] = p_val
    g[rows, 1 + 2 * k + zi * k + v] = tau_val

    g[:, 1 + 4 * k] = theta.delta_p_star - (
        (t * z / theta.r - theta.m0[1]) / s[1]
        - (t * (1.0 - z) / (1.0 - theta.r) - theta.m0[0]) / s[0]
    )
    g[:, 2 + 4 * k] = theta.beta_star - (
        y * z / theta.r - y * (1.0 - z) / (1.0 - theta.r)
    ) / theta.delta_p_star
    return g


def cell_grid(k: int, mode: Mode) -> Dataset:
    """Every (z, v, t) cell, in CellStats order, at y = 0 (rows 0..4K-1) and
    again at y = 1 (rows 4K..8K-1)."""
    z, v, t = (np.tile(x.ravel(), 2) for x in np.indices((2, k, 2)))
    return Dataset(y=np.repeat([0.0, 1.0], 4 * k), t=t, z=z, v=v,
                   v_support=tuple(range(k)), mode=mode)


def row_validate(ds: Dataset) -> list:
    """validate() as a pass over the rows: the oracle for the table checks."""
    out = []
    if ds.n < 1:
        out.append("dataset is empty")
        return out
    k = ds.k
    if ds.mode is Mode.CASE_I and k < 3:
        out.append("CaseI requires K >= 3 support points for V")
    if ds.mode is Mode.CASE_II and k < 2:
        out.append("CaseII requires K >= 2 support points for V")
    if not np.all(np.isfinite(ds.y)):
        out.append("y contains non-finite values")
    t_ok = (ds.t == 0) | (ds.t == 1)
    if not np.all(t_ok):
        out.append("t contains values outside {0,1}")
    z_ok = (ds.z == 0) | (ds.z == 1)
    if not np.all(z_ok):
        out.append("z contains values outside {0,1}")
    if np.any(ds.v < 0) or np.any(ds.v >= k):
        out.append("v contains codes outside the declared support")
        return out
    zbar = float(np.mean(ds.z))
    if zbar in (0.0, 1.0):
        out.append("instrument degenerate: z takes a single value")
    cell = (ds.z.astype(np.int64) * k + ds.v) * 2 + ds.t
    rows_ok = t_ok & z_ok
    if not np.all(rows_ok):
        cell = cell[rows_ok]
    counts = np.bincount(cell, minlength=4 * k).reshape(2, k, 2)
    # argwhere walks the cells in z, v, t order
    for z, kk, t in np.argwhere(counts == 0):
        out.append(
            f"empty cell: no observations with z={z}, "
            f"v={ds.v_support[kk]!r}, t={t}"
        )
    return out


def stack_tables(tables) -> CellStats:
    """The stack of equal-shape CellStats tables, in order."""
    return CellStats(*(np.stack([getattr(t, f) for t in tables])
                       for f in ("n_zvt", "sum_y", "ss_y")),
                     mode=tables[0].mode, v_support=tables[0].v_support)


def count_calls(monkeypatch, fn) -> list:
    """Route every mislate module's name for fn through a wrapper that
    records the arguments of each call; returns the (growing) record."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "mislate" or name.startswith("mislate."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)
