"""Core domain types: datasets, parameter vectors, and per-cell statistics.

Observations are rows of (y, t, z, v) where t and z are binary and v is an
integer code into an explicit support list. All types are immutable after
construction; every function here is pure. Each type may also hold a
stack of R samples, vectors or tables along a leading axis. Inner code
takes a stack; stats[None] makes a stack of one, and stats[i] takes a
table out, at the edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .exceptions import ValidationError


# the largest mean or standard deviation of y in a cell: the second moments
# of the GMM fit square y and scale it by up to about 1e8, well inside a double
Y_MAX = 1e100


class Mode(Enum):
    """Identification regime for the exogenous variable V.

    CASE_I: V takes K >= 3 values; misclassification may depend on Z.
    CASE_II: V binary (K >= 2) with Z-invariant misclassification.
    """

    CASE_I = "case-i"
    CASE_II = "case-ii"


def _codes(values, dtype, top: int, message: str) -> np.ndarray:
    """values as a dtype array of integer codes in 0..top; a value outside
    that range or not a whole number, NaN included, raises ValidationError
    with message before the cast could change it."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        arr = np.asarray(arr, dtype=float)
        if not np.all(arr == np.floor(arr)):
            raise ValidationError(message)
    if arr.size and (arr.min() < 0 or arr.max() > top):
        raise ValidationError(message)
    return arr.astype(dtype, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample of (Y, T, Z, V) with V-support metadata.

    v holds integer codes 0..K-1 into v_support; the support order fixes the
    parameter ordering everywhere downstream. A t or z outside {0, 1} or a
    v code outside 0..K-1, as given, raises ValidationError.
    """

    y: np.ndarray
    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    v_support: tuple
    mode: Mode

    def __post_init__(self):
        support = tuple(self.v_support)
        binary = "t or z contains values outside {0,1}"
        y = np.asarray(self.y, dtype=float)
        t = _codes(self.t, np.int8, 1, binary)
        z = _codes(self.z, np.int8, 1, binary)
        v = _codes(self.v, np.int64, len(support) - 1,
                   "v contains codes outside the declared support")
        for name, arr in (("y", y), ("t", t), ("z", z), ("v", v)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if not (t.shape == z.shape == v.shape == y.shape):
            raise ValidationError("column lengths differ")
        object.__setattr__(self, "v_support", support)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def k(self) -> int:
        return len(self.v_support)


def _natural_names(k: int) -> list:
    """Coordinate names of the natural (CASE_I) layout: b*, dp*, r, then per
    z the block m0_z, m1_z, p*_{z,.}, tau*_z."""
    names = ["beta_star", "delta_p_star", "r"]
    for z in (0, 1):
        names += [f"m0[z={z}]", f"m1[z={z}]"]
        names += [f"p_star[z={z},k={k_}]" for k_ in range(k)]
        names.append(f"tau_star[z={z}]")
    return names


# CASE_II packs the shared m0 in z=0's block and the shared m1 in z=1's
_CASE_II_SHARED = {"m1[z=0]": "m1[z=1]", "m0[z=1]": "m0[z=0]"}
_CASE_II_NAMES = {"m0[z=0]": "m0", "m1[z=1]": "m1"}


@lru_cache(maxsize=None)
def packed_layout(k: int, mode: Mode) -> tuple:
    """Index arrays (select, gather) of the packed layout, with
    packed = natural[select] and natural = packed[gather]."""
    names = _natural_names(k)
    shared = _CASE_II_SHARED if mode is Mode.CASE_II else {}
    kept = [name for name in names if name not in shared]
    select = np.array([names.index(name) for name in kept])
    gather = np.array([kept.index(shared.get(name, name)) for name in names])
    select.setflags(write=False)
    gather.setflags(write=False)
    return select, gather


def n_params(k: int, mode: Mode) -> int:
    """Number of packed coordinates."""
    return packed_layout(k, mode)[0].size


def param_names(k: int, mode: Mode) -> list:
    """Name of each packed coordinate, in packed order."""
    names = _CASE_II_NAMES if mode is Mode.CASE_II else {}
    natural = _natural_names(k)
    return [names.get(natural[i], natural[i]) for i in packed_layout(k, mode)[0]]


@dataclass(frozen=True)
class ParamVector:
    """Full parameter tuple (LATE, first stage, E(Z), misclassification,
    true conditional treatment probabilities, outcome-mean contrasts).

    m0 and m1 are per-z arrays of length 2; in CASE_II both entries are equal
    and pack to a single free coordinate each. p_star has shape (2, K),
    tau_star shape (2,). Every field may carry a leading axis of R vectors.
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
            if arr.shape[-1:] != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        p = np.asarray(self.p_star, dtype=float)
        if p.ndim < 2 or p.shape[-2] != 2:
            raise ValidationError(f"p_star must have shape (2, K), got {p.shape}")
        object.__setattr__(self, "p_star", p)
        p.setflags(write=False)
        if self.mode is Mode.CASE_II and not (
            (self.m0[..., 0] == self.m0[..., 1]).all()
            and (self.m1[..., 0] == self.m1[..., 1]).all()
        ):
            raise ValidationError("CASE_II requires z-invariant m0 and m1")

    @property
    def k(self) -> int:
        return self.p_star.shape[-1]

    def pack(self) -> np.ndarray:
        """Flatten to the free-coordinate layout (names: param_names).

        CASE_I:  (b*, dp*, r, m00, m10, p*_{0,.}, tau0*, m01, m11, p*_{1,.}, tau1*)
        CASE_II: (b*, dp*, r, m0,  p*_{0,.}, tau0*, m1,  p*_{1,.}, tau1*)
        """
        blocks = np.concatenate([self.m0[..., None], self.m1[..., None],
                                 self.p_star, self.tau_star[..., None]], axis=-1)
        natural = np.concatenate([np.stack([self.beta_star, self.delta_p_star, self.r], -1),
                                  blocks.reshape(blocks.shape[:-2] + (-1,))], axis=-1)
        return natural[..., packed_layout(self.k, self.mode)[0]]

    @classmethod
    def unpack(cls, theta: np.ndarray, k: int, mode: Mode) -> "ParamVector":
        return cls(*cls.unpacked_fields(theta, k, mode), mode)

    @staticmethod
    def unpacked_fields(theta: np.ndarray, k: int, mode: Mode) -> tuple:
        """(beta*, dp*, r, m0, m1, p*, tau*) of a packed vector: the fields
        unpack sets, as views, without building or checking a ParamVector;
        a stack's, with its axis last, for the moment terms to broadcast."""
        theta = np.asarray(theta, dtype=float)
        select, gather = packed_layout(k, mode)
        if theta.shape[-1:] != select.shape:
            raise ValidationError(
                f"expected {select.size} coordinates, got {theta.shape}")
        natural = theta.T[gather]
        blocks = natural[3:].reshape((2, k + 3) + theta.shape[:-1])
        return (natural[0], natural[1], natural[2], blocks[:, 0], blocks[:, 1],
                blocks[:, 2:-1], blocks[:, -1])


@dataclass(frozen=True)
class CellStats:
    """Per-(z, v, t) count, sum of y and sum of squares of y about the cell
    mean, with the per-(z, v) and per-z summaries they determine.

    Within a (z, v, t) cell every moment is affine in y and t, z, v are
    constant, so these three (2, K, 2) arrays are all the GMM estimator and
    the baselines read of the data. Tables add: the table of two samples is
    the sum of their n_zvt and sum_y, with ss_y combined as in a parallel
    variance. The summaries are derived at construction. tau_zv entries are
    NaN where a treatment arm is empty; n_zvt shows why. n is the total
    count as an int: the row count of a sample, 1 for a population table
    of cell probabilities. A stack's summaries keep its leading axis, its n
    is the list of its tables' counts, and stats[i] indexes it.
    """

    n_zvt: np.ndarray         # (2, K, 2) counts by treatment arm
    sum_y: np.ndarray         # (2, K, 2) sum of y by cell
    ss_y: np.ndarray          # (2, K, 2) sum of (y - cell mean)**2
    mode: Mode
    v_support: tuple          # V label of each code
    n: int = field(init=False)
    k: int = field(init=False)
    n_zv: np.ndarray = field(init=False)     # (2, K) counts
    p_zv: np.ndarray = field(init=False)     # (2, K) Pr(T=1 | Z=z, V=v_k)
    tau_zv: np.ndarray = field(init=False)   # (2, K) mean-Y contrast by T
    p_z: np.ndarray = field(init=False)      # (2,)
    mu_z: np.ndarray = field(init=False)     # (2,)
    r_hat: float = field(init=False)

    def __post_init__(self):
        counts, ysums = self.n_zvt, self.sum_y
        n_zv = counts.sum(axis=-1)
        n_z = n_zv.sum(axis=-1)
        n = np.rint(n_z.sum(axis=-1)).astype(np.int64)
        # a sum of y that overflows is infinite, which validate refuses
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ybar = ysums / counts
            derived = dict(
                n=n.tolist(), k=counts.shape[-2], n_zv=n_zv,
                p_zv=counts[..., 1] / n_zv,
                tau_zv=ybar[..., 1] - ybar[..., 0],
                p_z=counts[..., 1].sum(axis=-1) / n_z,
                mu_z=ysums.sum(axis=(-2, -1)) / n_z,
                r_hat=n_z[..., 1] / n)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __getitem__(self, index) -> "CellStats":
        # every field but K, mode and v_support, which the tables share, has
        # one entry per table; each summary is elementwise in the tables, so
        # it indexes as they do
        out = object.__new__(CellStats)
        for name, value in vars(self).items():
            if name == "n":
                value = np.asarray(value)[index].tolist()
            elif name not in ("k", "mode", "v_support"):
                value = value[index]
            vars(out)[name] = value
        return out

    @property
    def y_mean(self) -> np.ndarray:
        """(2, K, 2) mean of y by cell, 0 in an empty cell."""
        return np.divide(self.sum_y, self.n_zvt, out=np.zeros_like(self.sum_y),
                         where=self.n_zvt > 0)

    def empty_cells(self) -> list:
        """One "no observations with z=.., v=.., t=.." per empty (z, v, t)
        cell, in z, v, t order (of a stack, table by table); v is the cell's
        label."""
        # argwhere walks the cells in z, v, t order
        return [f"no observations with z={z}, v={self.v_support[kk]!r}, t={t}"
                for *_, z, kk, t in np.argwhere(self.n_zvt == 0)]


def validate(stats: CellStats) -> list:
    """Return a list of human-readable invariant violations of a table
    (empty if valid)."""
    out = []
    if stats.n < 1:
        out.append("dataset is empty")
        return out
    k = stats.k
    if stats.mode is Mode.CASE_I and k < 3:
        out.append("CaseI requires K >= 3 support points for V")
    if stats.mode is Mode.CASE_II and k < 2:
        out.append("CaseII requires K >= 2 support points for V")
    # an infinite or NaN y makes its cell's sum or ss_y NaN; finite y whose
    # sums overflow make them infinite, which the magnitude check refuses
    if np.isnan(stats.sum_y).any() or np.isnan(stats.ss_y).any():
        out.append("y contains non-finite values")
    elif np.any((np.abs(stats.sum_y) > Y_MAX * stats.n_zvt)
                | (stats.ss_y > Y_MAX ** 2 * stats.n_zvt)):
        out.append(f"y is too large: a cell's mean or spread exceeds {Y_MAX:g}")
    if np.any(stats.n_zv.sum(axis=1) == 0):
        out.append("instrument degenerate: z takes a single value")
    out += [f"empty cell: {msg}" for msg in stats.empty_cells()]
    return out


def cell_stats(ds: Dataset) -> CellStats:
    """Exact per-(z, v, t) count, sum of y and sum of squares about the cell
    mean, and the frequencies and conditional means they give per (z, v).

    Dataset has checked the codes, so every row has a cell. An empty
    (z, v, t) cell leaves its tau_zv NaN; validate lists it. A stack of
    samples gives the stack of their tables.
    """
    k = ds.k
    # flat (z, v, t) cell of each row, in C order of the (2, K, 2) table, and
    # after the previous sample's table in a stack
    lead = ds.y.shape[:-1]
    first = 4 * k * np.arange(int(np.prod(lead))).reshape(lead + (1,))
    cell = ((ds.z.astype(np.int64) * k + ds.v) * 2 + ds.t + first).ravel()
    shape, size = lead + (2, k, 2), first.size * 4 * k
    counts = np.bincount(cell, minlength=size).reshape(shape).astype(float)
    ysums = np.bincount(cell, weights=ds.y.ravel(), minlength=size).reshape(shape)

    # a y whose square overflows gives an infinite ss_y, which validate refuses
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ybar = ysums / counts
        # every row sits in a nonempty cell, so no NaN mean is read
        ss = np.bincount(cell, weights=(ds.y.ravel() - ybar.ravel()[cell]) ** 2,
                         minlength=size).reshape(shape)
    return CellStats(n_zvt=counts, sum_y=ysums, ss_y=ss, mode=ds.mode,
                     v_support=ds.v_support)
