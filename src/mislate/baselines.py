"""Naive estimators that ignore misclassification, plus the testable
relevance-condition regression. These are the comparison columns for the
corrected GMM estimates.

Every regressor and instrument here is one of t, z and v, which are
constant within a (z, v, t) cell, so each fit is a count-weighted fit over
the 4K cells of a CellStats table and reads no row of the data; wald_iv
and ols fit a stack of tables too, failing if any table fails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CellStats
from .exceptions import RankDeficient, ValidationError, WeakFirstStage


@dataclass(frozen=True)
class RegressionResult:
    coef: np.ndarray
    robust_se: np.ndarray
    vcov: np.ndarray
    n: int
    names: tuple


def _iv_fit(n_c, ybar, ss, X, Z, names, hc1=False) -> RegressionResult:
    """Just-identified linear IV over cells: b = (Z'NX)^-1 Z'N ybar with HC
    sandwich SEs. Cell c holds n_c rows sharing the regressor row X[c] and
    instrument row Z[c], with outcome mean ybar[c] and sum of squares ss[c]
    about that mean, so its residual sum of squares is
    ss[c] + n_c (ybar[c] - X[c] b)^2. With Z = X this is OLS; rows of n_c,
    ybar and ss are a stack's tables."""
    n = n_c.sum(axis=-1)
    kx = X.shape[1]
    zx = Z.T @ (n_c[..., None] * X)
    if np.any(np.linalg.matrix_rank(zx) < kx):
        raise RankDeficient("instrument-regressor cross-moment is singular")
    a_inv = np.linalg.inv(zx)
    b = (a_inv @ (Z.T @ (n_c * ybar)[..., None]))[..., 0]
    e2 = ss + n_c * (ybar - (X @ b[..., None])[..., 0]) ** 2
    v = a_inv @ (np.swapaxes(Z * e2[..., None], -1, -2) @ Z) @ np.swapaxes(a_inv, -1, -2)
    if hc1:
        v = v * n[..., None, None] / (n[..., None, None] - kx)
    se = np.sqrt(np.clip(np.diagonal(v, axis1=-2, axis2=-1), 0.0, None))
    return RegressionResult(coef=b, robust_se=se, vcov=v,
                            n=n.astype(np.int64).tolist(), names=names)


def _v_numeric(stats: CellStats) -> np.ndarray:
    """Value of each V code: its label when every label parses as a number,
    the code itself otherwise."""
    try:
        return np.array([float(lab) for lab in stats.v_support])
    except (TypeError, ValueError):
        return np.arange(stats.k, dtype=float)


def _cells(stats: CellStats) -> tuple:
    """Count, y mean and y sum of squares of every (z, v, t) cell, flattened
    in the C order of n_zvt, and the cell's t, z and numeric v values."""
    z, v, t = np.indices(stats.n_zvt.shape[-3:]).reshape(3, -1)
    cols = {"t": t.astype(float), "z": z.astype(float),
            "v": _v_numeric(stats)[v]}
    flat = stats.n_zvt.shape[:-3] + (-1,)
    return (stats.n_zvt.reshape(flat), stats.y_mean.reshape(flat),
            stats.ss_y.reshape(flat), cols)


def wald_iv(stats: CellStats, hc1: bool = False) -> RegressionResult:
    """2SLS of Y on T (with intercept) instrumented by Z; the slope equals
    the Wald ratio (mu1-mu0)/(p1-p0)."""
    if np.any(stats.p_z[..., 1] == stats.p_z[..., 0]):
        raise WeakFirstStage("observed first-stage contrast is zero")
    n_c, ybar, ss, cols = _cells(stats)
    one = np.ones(n_c.shape[-1])
    return _iv_fit(n_c, ybar, ss, np.column_stack([one, cols["t"]]),
                   np.column_stack([one, cols["z"]]), ("const", "t"), hc1)


def ols(stats: CellStats, outcome: str = "y", regressors=("t",),
        hc1: bool = False) -> RegressionResult:
    """OLS with HC-robust SEs of an outcome in {y, t, z, v} on regressors in
    {t, z, v}.

    The v column holds the numeric support labels when they parse as
    numbers, the integer codes otherwise. y varies within a cell, so it is
    refused as a regressor.
    """
    n_c, ybar, ss, cols = _cells(stats)
    if outcome not in ("y", *cols) or not set(regressors) <= cols.keys():
        raise ValidationError(f"ols takes an outcome in y, t, z, v and "
                              f"regressors in t, z, v, got {outcome!r} on "
                              f"{tuple(regressors)}")
    if outcome != "y":
        ybar, ss = cols[outcome], np.zeros_like(n_c)
    X = np.column_stack([np.ones(n_c.shape[-1])] + [cols[r] for r in regressors])
    return _iv_fit(n_c, ybar, ss, X, X, ("const",) + tuple(regressors), hc1)


def relevance_test(stats: CellStats, hc1: bool = False) -> dict:
    """OLS of T on V (plus intercept) within each Z=z subsample.

    A nonzero V slope evidences variation of the true treatment probability
    across V, i.e. the relevance condition.
    """
    n_c, _, _, cols = _cells(stats)
    out = {}
    for z in (0, 1):
        if stats.n_zv[z].sum() == 0:
            raise WeakFirstStage(f"z={z} subsample is empty")
        arm = cols["z"] == z
        X = np.column_stack([np.ones(arm.sum()), cols["v"][arm]])
        out[z] = _iv_fit(n_c[arm], cols["t"][arm], np.zeros(arm.sum()), X, X,
                         ("const", "v"), hc1)
    return out


@dataclass(frozen=True)
class NaiveBiasReport:
    beta_naive: float
    s_hat: float
    beta_naive_times_s: float
    beta_star_hat: float
    gap: float


def naive_bias_diag(beta_star_hat: float, m0_hat: float, m1_hat: float,
                    iv: RegressionResult) -> NaiveBiasReport:
    """Report the bias law for z-invariant misclassification:
    beta_naive = beta_star / s, so beta_naive * s_hat should track the
    corrected estimate. iv is the Wald IV fit (wald_iv) on the same data."""
    beta_naive = float(iv.coef[1])
    s_hat = 1.0 - m0_hat - m1_hat
    implied = beta_naive * s_hat
    return NaiveBiasReport(
        beta_naive=beta_naive,
        s_hat=s_hat,
        beta_naive_times_s=implied,
        beta_star_hat=beta_star_hat,
        gap=implied - beta_star_hat,
    )
