"""GMM moment function for the misclassified-treatment LATE model.

The moment vector has 4K+3 components: the instrument mean, one treatment
probability moment and one outcome-contrast moment per (z, v_k) cell, the
true first-stage moment, and the LATE moment. In CASE_II the z-specific
misclassification probabilities are replaced by shared (m0, m1), which
shrinks the parameter vector but not the moment vector.

moment_matrix is the one definition of the moment function, row by row.
Within a (z, v, t) cell every component is affine in y, so the sample mean
and second-moment matrix depend on the data only through the per-cell count,
sum of y and within-cell sum of squares of y of a CellStats table.
sample_moments evaluates moment_matrix on a fixed grid holding every cell at
y = 0 and y = 1, reads off each cell's intercept and slope, and combines
them with the table; no evaluation touches the n rows. moment_jacobian
differentiates the same intercepts and slopes in closed form and combines
them the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import CellStats, Dataset, Mode, ParamVector, n_params, packed_layout
from .exceptions import DomainError


@dataclass(frozen=True)
class MomentLayout:
    """Index map from moment labels to vector positions."""

    k: int
    mode: Mode

    @property
    def n_moments(self) -> int:
        return 4 * self.k + 3

    @property
    def n_params(self) -> int:
        return n_params(self.k, self.mode)

    @property
    def n_overid(self) -> int:
        return self.n_moments - self.n_params

    def r_index(self) -> int:
        return 0

    def p_index(self, z: int, k: int) -> int:
        return 1 + z * self.k + k

    def tau_index(self, z: int, k: int) -> int:
        return 1 + 2 * self.k + z * self.k + k

    def dp_index(self) -> int:
        return 1 + 4 * self.k

    def beta_index(self) -> int:
        return 2 + 4 * self.k

    def labels(self) -> list:
        out = ["r"]
        out += [f"p[z={z},k={k}]" for z in (0, 1) for k in range(self.k)]
        out += [f"tau[z={z},k={k}]" for z in (0, 1) for k in range(self.k)]
        out += ["delta_p_star", "beta_star"]
        return out


@dataclass(frozen=True)
class MomentEval:
    """Moment function at one parameter value: row i in (z, v, t) cell c is
    a[c] + b[c] * y_i, with cells in the C order of CellStats.n_zvt."""

    gbar: np.ndarray
    a: np.ndarray        # (4K, 4K+3) per-cell intercepts
    b: np.ndarray        # (4K, 4K+3) per-cell slopes in y
    stats: CellStats
    layout: MomentLayout

    def omega(self) -> np.ndarray:
        """Uncentered second-moment matrix (1/n) sum g_i g_i', summed cell by
        cell as a'Na + a'(Sy)b + b'(Sy)a + b'(Syy)b, where a cell's sum of
        y squared is its centred sum of squares plus Sy times its mean."""
        st = self.stats
        n_c, sy = st.n_zvt.reshape(-1, 1), st.sum_y.reshape(-1, 1)
        syy = st.ss_y.reshape(-1, 1) + sy * st.y_mean.reshape(-1, 1)
        a, b = self.a, self.b
        cross = a.T @ (sy * b)
        return (a.T @ (n_c * a) + cross + cross.T + b.T @ (syy * b)) / st.n


def _check_domain(theta: ParamVector):
    if not 0.0 < theta.r < 1.0:
        raise DomainError(f"r-moment: r={theta.r} outside (0,1)")
    s = theta.s
    for z in (0, 1):
        if s[z] <= 0.0:
            raise DomainError(f"p-moment: m0+m1 >= 1 at z={z}")
    if theta.delta_p_star == 0.0:
        raise DomainError("beta-moment: delta_p_star is zero")
    q = theta.m0[:, None] + s[:, None] * theta.p_star
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise DomainError("tau-moment: cell denominator outside (0,1)")
    return q


def moment_matrix(ds: Dataset, theta: ParamVector) -> np.ndarray:
    """Per-observation moment rows, shape (n, 4K+3)."""
    k = ds.k
    layout = MomentLayout(k, theta.mode)
    q = _check_domain(theta)
    s = theta.s

    y, t, z, v = ds.y, ds.t.astype(float), ds.z.astype(float), ds.v
    n = ds.n
    g = np.zeros((n, layout.n_moments))
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

    g[:, layout.dp_index()] = theta.delta_p_star - (
        (t * z / theta.r - theta.m0[1]) / s[1]
        - (t * (1.0 - z) / (1.0 - theta.r) - theta.m0[0]) / s[0]
    )
    g[:, layout.beta_index()] = theta.beta_star - (
        y * z / theta.r - y * (1.0 - z) / (1.0 - theta.r)
    ) / theta.delta_p_star
    return g


@lru_cache(maxsize=None)
def _cell_grid(k: int, mode: Mode) -> Dataset:
    """Every (z, v, t) cell, in CellStats order, at y = 0 (rows 0..4K-1) and
    again at y = 1 (rows 4K..8K-1). Dataset arrays are read-only, so one
    grid serves every evaluation."""
    z, v, t = (np.tile(x.ravel(), 2) for x in np.indices((2, k, 2)))
    return Dataset(y=np.repeat([0.0, 1.0], 4 * k), t=t, z=z, v=v,
                   v_support=tuple(range(k)), mode=mode)


def sample_moments(stats: CellStats, theta: ParamVector) -> MomentEval:
    """Sample mean of the moment function from the per-cell table."""
    c = 4 * stats.k
    g = moment_matrix(_cell_grid(stats.k, theta.mode), theta)
    a, b = g[:c], g[c:] - g[:c]
    gbar_ = (stats.n_zvt.ravel() @ a + stats.sum_y.ravel() @ b) / stats.n
    return MomentEval(gbar=gbar_, a=a, b=b, stats=stats,
                      layout=MomentLayout(stats.k, theta.mode))


def gbar(stats: CellStats, theta_flat: np.ndarray, k: int, mode: Mode) -> np.ndarray:
    """Sample moment mean from a packed coordinate vector."""
    theta = ParamVector.unpack(theta_flat, k, mode)
    return sample_moments(stats, theta).gbar


@lru_cache(maxsize=None)
def _natural_from_packed(k: int, mode: Mode) -> np.ndarray:
    """0/1 matrix D with natural = D @ packed. The natural coordinates are
    the CASE_I packing (b*, dp*, r, then per z: m0_z, m1_z, p*_{z,.}, tau*_z);
    in CASE_II one packed m0 (and one m1) feeds both z."""
    select, gather = packed_layout(k, mode)
    d = np.eye(select.size)[gather]
    d.setflags(write=False)
    return d


def moment_jacobian(stats: CellStats, theta: ParamVector) -> np.ndarray:
    """Jacobian of the sample moment mean with respect to the packed
    parameter vector, shape (4K+3, dim), in closed form.

    Cell by cell it differentiates the intercept a and slope b that
    sample_moments reads off moment_matrix, with respect to the natural
    coordinates, and contracts them with the table the same way:
    G = (N da + Sy db) / n.
    """
    k = stats.k
    layout = MomentLayout(k, theta.mode)
    q = _check_domain(theta)
    s = theta.s
    r, dp = theta.r, theta.delta_p_star
    n_cells, n_mom = 4 * k, layout.n_moments
    da = np.zeros((n_cells, n_mom, n_params(k, Mode.CASE_I)))
    db = np.zeros_like(da)

    z, v, t = (x.ravel() for x in np.indices((2, k, 2)))
    cell = np.arange(n_cells)[:, None]
    m0, m1 = theta.m0[z], theta.m1[z]
    ps, tau = theta.p_star[z, v], theta.tau_star[z]
    # natural column of m0_z; m1_z, p*_{z,.} and tau*_z follow it. Rows of
    # dq, d_a and d_b are cells, columns the cell's (m0_z, m1_z, p*_zv, tau*_z)
    m0_col = 3 + np.arange(2) * (k + 3)
    base = m0_col[z]
    cols = np.column_stack([base, base + 1, base + 2 + v, base + 2 + k])
    zero = np.zeros(n_cells)

    # p moment: a = q - t with q = m0 + s p*
    dq = np.column_stack([1.0 - ps, -ps, s[z], zero])
    da[cell, layout.p_index(z, v)[:, None], cols] = dq

    # tau moment: a = tau + A/q - B/(1-q), b = t/q - (1-t)/(1-q), where at
    # y = 0 A = -(1-m1) p* tau and B = (1-m0)(1-p*) tau
    big_a = -(1.0 - m1) * ps * tau
    big_b = (1.0 - m0) * (1.0 - ps) * tau
    d_a = np.column_stack([zero, ps * tau, -(1.0 - m1) * tau, -(1.0 - m1) * ps])
    d_b = np.column_stack([-(1.0 - ps) * tau, zero, -(1.0 - m0) * tau,
                           (1.0 - m0) * (1.0 - ps)])
    qc = q[z, v][:, None]
    q1 = 1.0 - qc
    row = layout.tau_index(z, v)[:, None]
    da[cell, row, cols] = (
        [0.0, 0.0, 0.0, 1.0] + d_a / qc - big_a[:, None] * dq / qc ** 2
        - d_b / q1 - big_b[:, None] * dq / q1 ** 2)
    db[cell, row, cols] = -(t[:, None] / qc ** 2 + (1 - t[:, None]) / q1 ** 2) * dq

    da[:, layout.r_index(), 2] = 1.0

    # first-stage moment: dp* - (t z/r - m0_1)/s_1 + (t (1-z)/(1-r) - m0_0)/s_0
    u1 = t * z / r - theta.m0[1]
    u0 = t * (1 - z) / (1.0 - r) - theta.m0[0]
    i = layout.dp_index()
    da[:, i, 1] = 1.0
    da[:, i, 2] = t * z / (r ** 2 * s[1]) + t * (1 - z) / ((1.0 - r) ** 2 * s[0])
    da[:, i, m0_col[0]] = -1.0 / s[0] + u0 / s[0] ** 2
    da[:, i, m0_col[0] + 1] = u0 / s[0] ** 2
    da[:, i, m0_col[1]] = 1.0 / s[1] - u1 / s[1] ** 2
    da[:, i, m0_col[1] + 1] = -u1 / s[1] ** 2

    # LATE moment: b* - y (z/r - (1-z)/(1-r)) / dp*
    i = layout.beta_index()
    da[:, i, 0] = 1.0
    db[:, i, 1] = (z / r - (1 - z) / (1.0 - r)) / dp ** 2
    db[:, i, 2] = (z / r ** 2 + (1 - z) / (1.0 - r) ** 2) / dp

    g = (stats.n_zvt.ravel() @ da.reshape(n_cells, -1)
         + stats.sum_y.ravel() @ db.reshape(n_cells, -1)) / stats.n
    return g.reshape(n_mom, -1) @ _natural_from_packed(k, theta.mode)
