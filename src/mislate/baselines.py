"""Naive estimators that ignore misclassification, plus the testable
relevance-condition regression. These are the comparison columns for the
corrected GMM estimates."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Mode, cell_stats
from .exceptions import RankDeficient, WeakFirstStage


@dataclass(frozen=True)
class RegressionResult:
    coef: np.ndarray
    robust_se: np.ndarray
    vcov: np.ndarray
    n: int
    names: tuple


def _iv_fit(y, X, Z, hc1=False) -> RegressionResult:
    """Just-identified linear IV: b = (Z'X)^-1 Z'y with HC sandwich SEs.
    With Z = X this is OLS."""
    n, kx = X.shape
    zx = Z.T @ X
    if np.linalg.matrix_rank(zx) < kx:
        raise RankDeficient("instrument-regressor cross-moment is singular")
    a_inv = np.linalg.inv(zx)
    b = a_inv @ (Z.T @ y)
    e = y - X @ b
    meat = (Z * (e ** 2)[:, None]).T @ Z
    v = a_inv @ meat @ a_inv.T
    if hc1:
        v = v * n / (n - kx)
    se = np.sqrt(np.clip(np.diag(v), 0.0, None))
    return RegressionResult(coef=b, robust_se=se, vcov=v, n=n, names=())


def wald_iv(ds: Dataset, hc1: bool = False) -> RegressionResult:
    """2SLS of Y on T (with intercept) instrumented by Z; the slope equals
    the Wald ratio (mu1-mu0)/(p1-p0)."""
    stats_ = cell_stats(ds, require_cells=False)
    if stats_.p_z[1] == stats_.p_z[0]:
        raise WeakFirstStage("observed first-stage contrast is zero")
    ones = np.ones(ds.n)
    X = np.column_stack([ones, ds.t.astype(float)])
    Z = np.column_stack([ones, ds.z.astype(float)])
    res = _iv_fit(ds.y, X, Z, hc1=hc1)
    return RegressionResult(
        coef=res.coef, robust_se=res.robust_se, vcov=res.vcov, n=res.n,
        names=("const", "t"),
    )


def ols(ds: Dataset, outcome: str = "y", regressors=("t",), hc1: bool = False) -> RegressionResult:
    """OLS with HC-robust SEs over columns named in {y, t, z, v}.

    The v regressor uses the numeric support labels when they parse as
    numbers, the integer codes otherwise.
    """
    cols = {"y": ds.y, "t": ds.t.astype(float), "z": ds.z.astype(float),
            "v": _v_numeric(ds)}
    y = cols[outcome]
    X = np.column_stack([np.ones(ds.n)] + [cols[r] for r in regressors])
    res = _iv_fit(y, X, X, hc1=hc1)
    return RegressionResult(
        coef=res.coef, robust_se=res.robust_se, vcov=res.vcov, n=res.n,
        names=("const",) + tuple(regressors),
    )


def _v_numeric(ds: Dataset) -> np.ndarray:
    try:
        labels = np.array([float(lab) for lab in ds.v_support])
    except (TypeError, ValueError):
        labels = np.arange(ds.k, dtype=float)
    return labels[ds.v]


def relevance_test(ds: Dataset, hc1: bool = False) -> dict:
    """OLS of T on V (plus intercept) within each Z=z subsample.

    A nonzero V slope evidences variation of the true treatment probability
    across V, i.e. the relevance condition.
    """
    out = {}
    vnum = _v_numeric(ds)
    for z in (0, 1):
        mask = ds.z == z
        if not np.any(mask):
            raise WeakFirstStage(f"z={z} subsample is empty")
        X = np.column_stack([np.ones(mask.sum()), vnum[mask]])
        res = _iv_fit(ds.t[mask].astype(float), X, X, hc1=hc1)
        out[z] = RegressionResult(
            coef=res.coef, robust_se=res.robust_se, vcov=res.vcov, n=res.n,
            names=("const", "v"),
        )
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
