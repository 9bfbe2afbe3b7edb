"""Core domain types: datasets, parameter vectors, and per-cell statistics.

Observations are rows of (y, t, z, v) where t and z are binary and v is an
integer code into an explicit support list. All types are immutable after
construction; every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .exceptions import EmptyCell, ValidationError


class Mode(Enum):
    """Identification regime for the exogenous variable V.

    CASE_I: V takes K >= 3 values; misclassification may depend on Z.
    CASE_II: V binary (K >= 2) with Z-invariant misclassification.
    """

    CASE_I = "case-i"
    CASE_II = "case-ii"


@dataclass(frozen=True)
class Observation:
    """A single row (y, t, z, v); v is an index into the V support."""

    y: float
    t: int
    z: int
    v: int

    def __post_init__(self):
        if self.t not in (0, 1):
            raise ValidationError(f"t must be 0 or 1, got {self.t}")
        if self.z not in (0, 1):
            raise ValidationError(f"z must be 0 or 1, got {self.z}")
        if not np.isfinite(self.y):
            raise ValidationError(f"y must be finite, got {self.y}")
        if self.v < 0:
            raise ValidationError(f"v code must be non-negative, got {self.v}")


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample of (Y, T, Z, V) with V-support metadata.

    v holds integer codes 0..K-1 into v_support; the support order fixes the
    parameter ordering everywhere downstream.
    """

    y: np.ndarray
    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    v_support: tuple
    mode: Mode

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=np.int8)
        z = np.asarray(self.z, dtype=np.int8)
        v = np.asarray(self.v, dtype=np.int64)
        for name, arr in (("y", y), ("t", t), ("z", z), ("v", v)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        n = y.shape[0]
        if not (t.shape[0] == z.shape[0] == v.shape[0] == n):
            raise ValidationError("column lengths differ")
        object.__setattr__(self, "v_support", tuple(self.v_support))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return len(self.v_support)

    @classmethod
    def from_rows(cls, rows: Sequence[Observation], v_support, mode: Mode) -> "Dataset":
        return cls(
            y=np.array([r.y for r in rows], dtype=float),
            t=np.array([r.t for r in rows], dtype=np.int8),
            z=np.array([r.z for r in rows], dtype=np.int8),
            v=np.array([r.v for r in rows], dtype=np.int64),
            v_support=tuple(v_support),
            mode=mode,
        )


@dataclass(frozen=True)
class ParamVector:
    """Full parameter tuple (LATE, first stage, E(Z), misclassification,
    true conditional treatment probabilities, outcome-mean contrasts).

    m0 and m1 are per-z arrays of length 2; in CASE_II both entries are equal
    and pack to a single free coordinate each. p_star has shape (2, K),
    tau_star shape (2,).
    """

    beta_star: float
    delta_p_star: float
    r: float
    m0: np.ndarray
    m1: np.ndarray
    p_star: np.ndarray
    tau_star: np.ndarray
    mode: Mode

    def __post_init__(self):
        for name, shape in (("m0", (2,)), ("m1", (2,)), ("tau_star", (2,))):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        p = np.asarray(self.p_star, dtype=float)
        if p.ndim != 2 or p.shape[0] != 2:
            raise ValidationError(f"p_star must have shape (2, K), got {p.shape}")
        object.__setattr__(self, "p_star", p)
        p.setflags(write=False)
        if self.mode is Mode.CASE_II and not (
            self.m0[0] == self.m0[1] and self.m1[0] == self.m1[1]
        ):
            raise ValidationError("CASE_II requires z-invariant m0 and m1")

    @property
    def k(self) -> int:
        return self.p_star.shape[1]

    @property
    def s(self) -> np.ndarray:
        """s_z = 1 - m0z - m1z per z."""
        return 1.0 - self.m0 - self.m1

    @property
    def dim(self) -> int:
        k = self.k
        return 2 * k + 9 if self.mode is Mode.CASE_I else 2 * k + 7

    def violations(self) -> list:
        """Constraint violations (empty list when the vector is admissible)."""
        out = []
        if not 0.0 < self.r < 1.0:
            out.append(f"r={self.r} outside (0,1)")
        for z in (0, 1):
            if not (0.0 <= self.m0[z] <= 1.0 and 0.0 <= self.m1[z] <= 1.0):
                out.append(f"misclassification probabilities for z={z} outside [0,1]")
            if self.m0[z] + self.m1[z] >= 1.0:
                out.append(f"monotonicity violated for z={z}: m0+m1 >= 1")
        if np.any(self.p_star < 0.0) or np.any(self.p_star > 1.0):
            out.append("p_star entries outside [0,1]")
        return out

    def pack(self) -> np.ndarray:
        """Flatten to the free-coordinate layout.

        CASE_I:  (b*, dp*, r, m00, m10, p*_{0,.}, tau0*, m01, m11, p*_{1,.}, tau1*)
        CASE_II: (b*, dp*, r, m0,  p*_{0,.}, tau0*, m1,  p*_{1,.}, tau1*)
        """
        head = [self.beta_star, self.delta_p_star, self.r]
        blocks = []
        for z in (0, 1):
            if self.mode is Mode.CASE_I:
                blocks += [self.m0[z], self.m1[z]]
            else:
                blocks.append(self.m0[z] if z == 0 else self.m1[z])
            blocks += list(self.p_star[z])
            blocks.append(self.tau_star[z])
        return np.array(head + blocks, dtype=float)

    @classmethod
    def unpack(cls, theta: np.ndarray, k: int, mode: Mode) -> "ParamVector":
        theta = np.asarray(theta, dtype=float)
        expected = 2 * k + 9 if mode is Mode.CASE_I else 2 * k + 7
        if theta.shape != (expected,):
            raise ValidationError(f"expected {expected} coordinates, got {theta.shape}")
        beta_star, delta_p_star, r = theta[:3]
        pos = 3
        m0 = np.empty(2)
        m1 = np.empty(2)
        p_star = np.empty((2, k))
        tau_star = np.empty(2)
        if mode is Mode.CASE_I:
            for z in (0, 1):
                m0[z], m1[z] = theta[pos], theta[pos + 1]
                pos += 2
                p_star[z] = theta[pos:pos + k]
                pos += k
                tau_star[z] = theta[pos]
                pos += 1
        else:
            m0[:] = theta[3]
            p_star[0] = theta[4:4 + k]
            tau_star[0] = theta[4 + k]
            m1[:] = theta[5 + k]
            p_star[1] = theta[6 + k:6 + 2 * k]
            tau_star[1] = theta[6 + 2 * k]
        return cls(beta_star, delta_p_star, r, m0, m1, p_star, tau_star, mode)


@dataclass(frozen=True)
class CellStats:
    """Per-(z, v, t) count, sum of y and sum of y squared, with the per-(z, v)
    and per-z summaries they determine.

    Within a (z, v, t) cell every moment is affine in y, so these three
    (2, K, 2) arrays are all the GMM estimator reads of the data. tau_zv
    entries are NaN where a treatment arm is empty; n_zvt carries the raw
    (z, v, t) counts so callers can see why. sum_y and sum_yy are None in a
    table assembled from summaries alone, which suffices for identification
    but not for the moment functions.
    """

    n_zv: np.ndarray          # (2, K) counts
    n_zvt: np.ndarray         # (2, K, 2) counts by treatment arm
    p_zv: np.ndarray          # (2, K) Pr(T=1 | Z=z, V=v_k)
    tau_zv: np.ndarray        # (2, K) mean-Y contrast by T within cell
    p_z: np.ndarray           # (2,)
    mu_z: np.ndarray          # (2,)
    r_hat: float
    n: int
    k: int
    mode: Mode
    sum_y: Optional[np.ndarray] = None    # (2, K, 2) sum of y by cell
    sum_yy: Optional[np.ndarray] = None   # (2, K, 2) sum of y**2 by cell


def _cell_index(ds: Dataset) -> np.ndarray:
    """Flat (z, v, t) cell of each row, in C order of a (2, K, 2) array."""
    return (ds.z.astype(np.int64) * ds.k + ds.v) * 2 + ds.t


def validate(ds: Dataset) -> list:
    """Return a list of human-readable invariant violations (empty if valid)."""
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
    cell = _cell_index(ds)
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


def cell_stats(ds: Dataset, require_cells: bool = True) -> CellStats:
    """Exact per-(z, v, t) count, sum of y and sum of y squared, and the
    sample frequencies and conditional means they give for every (z, v) cell.

    With require_cells, any (z, v, t) cell needed by identification that is
    empty raises EmptyCell; otherwise the corresponding tau_zv is NaN.
    """
    k = ds.k
    n = ds.n
    cell = _cell_index(ds)
    counts = np.bincount(cell, minlength=4 * k).reshape(2, k, 2).astype(float)
    ysums = np.bincount(cell, weights=ds.y, minlength=4 * k).reshape(2, k, 2)
    yysums = np.bincount(cell, weights=ds.y * ds.y,
                         minlength=4 * k).reshape(2, k, 2)

    n_zv = counts.sum(axis=2)
    if require_cells and np.any(counts == 0):
        zi, ki, ti = np.argwhere(counts == 0)[0]
        raise EmptyCell(
            f"no observations with z={zi}, v={ds.v_support[ki]!r}, t={ti}"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        p_zv = counts[:, :, 1] / n_zv
        ybar = ysums / counts
        tau_zv = ybar[:, :, 1] - ybar[:, :, 0]
        n_z = n_zv.sum(axis=1)
        p_z = counts[:, :, 1].sum(axis=1) / n_z
        mu_z = ysums.sum(axis=(1, 2)) / n_z
        r_hat = float(n_z[1] / n)
    return CellStats(
        n_zv=n_zv,
        n_zvt=counts,
        p_zv=p_zv,
        tau_zv=tau_zv,
        p_z=p_z,
        mu_z=mu_z,
        r_hat=r_hat,
        n=n,
        k=k,
        mode=ds.mode,
        sum_y=ysums,
        sum_yy=yysums,
    )
