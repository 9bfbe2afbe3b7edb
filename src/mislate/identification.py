"""Closed-form identification of the LATE under treatment misclassification.

Forward maps take latent parameters (misclassification probabilities, true
conditional treatment probabilities, outcome contrasts) to observable cell
quantities; the inverse solver recovers the latent parameters from observed
cells by solving small linear systems in B0 = m0(1-m1), B1 = (1-m0)m1 and
taking the monotone square-root branch for s = 1 - m0 - m1. tau*_z is then
the count-weighted least-squares fit of the observed contrasts on their
attenuation factors. Every step runs in double precision, so the result
does not depend on the platform's long double.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import CellStats, Mode, ParamVector
from .exceptions import (
    DegenerateCell,
    EmptyCell,
    InvalidProbability,
    MonotonicityViolated,
    NegativeDiscriminant,
    SingularSystem,
    WeakFirstStage,
)

# Discriminants in [-DISC_TOL, 0) are treated as exact zeros (sampling noise);
# probabilities within PROB_TOL of [0, 1] are clamped.
DISC_TOL = 1e-8
PROB_TOL = 1e-6
DET_TOL = 1e-12
FIRST_STAGE_TOL = 1e-12


@dataclass(frozen=True)
class BPair:
    """Solution (B0, B1) of one misclassification system."""

    b0: float
    b1: float

    @property
    def discriminant(self) -> float:
        """(B0 - B1 + 1)^2 - 4 B0, whose square root is s = 1 - m0 - m1."""
        return (self.b0 - self.b1 + 1.0) ** 2 - 4.0 * self.b0


@dataclass(frozen=True)
class WTriple:
    """Coefficients (w0, w1, w2) of one linear identification equation,
    built from a (v, v') cell pair at fixed z."""

    w0: float
    w1: float
    w2: float


@dataclass(frozen=True)
class IdentifyResult:
    theta: ParamVector
    s: np.ndarray                 # (2,) with s_z; equal entries in case ii
    determinants: dict            # candidate support selection -> determinant
    discriminants: tuple          # discriminant per solved system
    support_points: tuple         # selected support indices (per z in case i)


def implied_p(m0: float, m1: float, p_star: float) -> float:
    """Observable treatment probability implied by the latent one:
    p = m0 + (1 - m0 - m1) * p_star."""
    if m0 + m1 >= 1.0:
        raise MonotonicityViolated(f"m0+m1={m0 + m1} >= 1")
    if not 0.0 <= p_star <= 1.0:
        raise InvalidProbability(f"p_star={p_star} outside [0,1]")
    return m0 + (1.0 - m0 - m1) * p_star


def m_factor(m0: float, m1: float, p) -> float:
    """Attenuation factor linking observed and latent outcome contrasts:
    tau = M(m0, m1, p) * tau_star."""
    if m0 + m1 >= 1.0:
        raise MonotonicityViolated(f"m0+m1={m0 + m1} >= 1")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DegenerateCell("observed treatment probability on the boundary")
    s = 1.0 - m0 - m1
    out = (1.0 - m0 * (1.0 - m1) / p - (1.0 - m0) * m1 / (1.0 - p)) / s
    return float(out) if out.ndim == 0 else out


def implied_tau(m0: float, m1: float, p: float, tau_star: float) -> float:
    """Observable outcome contrast implied by the latent one."""
    return m_factor(m0, m1, p) * tau_star


def w_triple(tau_v: float, tau_vp: float, p_v: float, p_vp: float) -> WTriple:
    """Equation coefficients for the cell pair (v, v') at fixed z."""
    for p in (p_v, p_vp):
        if not 0.0 < p < 1.0:
            raise DegenerateCell(f"cell probability {p} on the boundary")
    return WTriple(
        w0=tau_v / p_vp - tau_vp / p_v,
        w1=tau_v / (1.0 - p_vp) - tau_vp / (1.0 - p_v),
        w2=tau_vp - tau_v,
    )


def _solve_pair(wa: WTriple, wb: WTriple) -> tuple:
    det = wa.w0 * wb.w1 - wb.w0 * wa.w1
    if abs(det) < DET_TOL:
        raise SingularSystem(f"determinant {det} below tolerance")
    b0 = (-wa.w2 * wb.w1 + wb.w2 * wa.w1) / det
    b1 = (-wa.w0 * wb.w2 + wb.w0 * wa.w2) / det
    return BPair(b0, b1), det


def solve_b_case_i(w12: WTriple, w13: WTriple) -> BPair:
    """Solve the two-equation system from cell pairs (v1,v2) and (v1,v3)
    at a fixed z for (B0z, B1z)."""
    return _solve_pair(w12, w13)[0]


def solve_b_case_ii(w_z0: WTriple, w_z1: WTriple) -> BPair:
    """Solve the system coupling z=0 and z=1 for the shared (B0, B1)."""
    return _solve_pair(w_z0, w_z1)[0]


def b_to_m(b: BPair, disc_tol: float = DISC_TOL) -> tuple:
    """Invert (B0, B1) to (m0, m1, s) on the monotone branch s > 0."""
    disc = b.discriminant
    if disc < -disc_tol:
        raise NegativeDiscriminant(f"discriminant {disc} < -{disc_tol}")
    s = np.sqrt(max(disc, 0.0))
    m0 = (b.b0 - b.b1 + 1.0 - s) / 2.0
    m1 = 1.0 - m0 - s
    for name, m in (("m0", m0), ("m1", m1)):
        if m < -PROB_TOL or m >= 1.0:
            raise InvalidProbability(f"recovered {name}={m} outside [0,1)")
    return max(m0, 0.0), max(m1, 0.0), s


def p_star_from_p(p: float, m0: float, m1: float) -> float:
    """Latent treatment probability (p - m0) / (1 - m0 - m1), clamped to
    [0, 1] within PROB_TOL."""
    if m0 + m1 >= 1.0:
        raise MonotonicityViolated(f"m0+m1={m0 + m1} >= 1")
    p_star = (p - m0) / (1.0 - m0 - m1)
    if p_star < -PROB_TOL or p_star > 1.0 + PROB_TOL:
        raise InvalidProbability(f"implied p_star={p_star} outside [0,1]")
    return min(max(p_star, 0.0), 1.0)


def late_from_reduced(mu1: float, mu0: float, dp_star: float) -> float:
    """LATE as the reduced-form contrast over the true first stage."""
    if abs(dp_star) < FIRST_STAGE_TOL:
        raise WeakFirstStage(f"|delta p*|={abs(dp_star)} below tolerance")
    return (mu1 - mu0) / dp_star


def _pair_triples(stats: CellStats, z: int, k1: int, k2: int) -> WTriple:
    return w_triple(
        stats.tau_zv[z, k1], stats.tau_zv[z, k2],
        stats.p_zv[z, k1], stats.p_zv[z, k2],
    )


def nonsingularity_diag(stats: CellStats, mode: Mode) -> dict:
    """Determinant of every candidate linear system.

    CASE_I keys are (z, (v1, v2, v3)) support-index triples; CASE_II keys are
    (v1, v2) pairs shared across z. Zero (or near-zero) values flag a failing
    nonsingularity condition for that candidate.
    """
    k = stats.k
    out = {}
    if mode is Mode.CASE_I:
        for z in (0, 1):
            for trip in combinations(range(k), 3):
                k1, k2, k3 = trip
                wa = _pair_triples(stats, z, k1, k2)
                wb = _pair_triples(stats, z, k1, k3)
                out[(z, trip)] = wa.w0 * wb.w1 - wb.w0 * wa.w1
    else:
        for pair in combinations(range(k), 2):
            k1, k2 = pair
            wa = _pair_triples(stats, 0, k1, k2)
            wb = _pair_triples(stats, 1, k1, k2)
            out[pair] = wa.w0 * wb.w1 - wb.w0 * wa.w1
    return out


def _tau_star(stats: CellStats, z: int, m0: float, m1: float) -> float:
    """Count-weighted least-squares fit of tau_zv = M_zv tau*_z for one z:
    sum n M tau / sum n M^2.

    All cells agree exactly in population (and in just-identified samples),
    where this is tau_zv / M_zv in every cell. Unlike the mean of those
    ratios it does not amplify a cell whose attenuation factor is near 0.
    """
    m = m_factor(m0, m1, stats.p_zv[z])
    if np.any(np.abs(m) < 1e-12):
        raise SingularSystem("attenuation factor vanishes in a cell")
    n = stats.n_zv[z]
    return float(np.sum(n * m * stats.tau_zv[z]) / np.sum(n * m * m))


def identify(stats: CellStats, mode: Mode, support_points=None) -> IdentifyResult:
    """Closed-form recovery of the full parameter vector from cell statistics.

    support_points pins the support indices used ((triple_z0, triple_z1) in
    CASE_I, a single pair in CASE_II); by default the candidate with the
    largest absolute determinant is selected. A table with an empty
    (z, v, t) cell raises EmptyCell.
    """
    empty = stats.empty_cells()
    if empty:
        raise EmptyCell(empty[0])
    if np.any(stats.p_zv <= 0.0) or np.any(stats.p_zv >= 1.0):
        raise DegenerateCell("a cell treatment probability is 0 or 1")
    dets = nonsingularity_diag(stats, mode)
    m0, m1, s = np.empty(2), np.empty(2), np.empty(2)

    if mode is Mode.CASE_I:
        selected = []
        discs = []
        for z in (0, 1):
            if support_points is not None:
                trip = tuple(support_points[z])
            else:
                cands = {t: d for (zz, t), d in dets.items() if zz == z}
                trip = max(cands, key=lambda t: abs(cands[t]))
            k1, k2, k3 = trip
            b = solve_b_case_i(
                _pair_triples(stats, z, k1, k2),
                _pair_triples(stats, z, k1, k3),
            )
            discs.append(float(b.discriminant))
            m0[z], m1[z], s[z] = b_to_m(b)
            selected.append(trip)
        selected = tuple(selected)
        discs = tuple(discs)
    else:
        if support_points is not None:
            pair = tuple(support_points)
        else:
            pair = max(dets, key=lambda p: abs(dets[p]))
        k1, k2 = pair
        b = solve_b_case_ii(
            _pair_triples(stats, 0, k1, k2), _pair_triples(stats, 1, k1, k2)
        )
        discs = (float(b.discriminant),)
        m0[:], m1[:], s[:] = b_to_m(b)
        selected = pair

    k = stats.k
    p_star = np.empty((2, k))
    tau_star = np.empty(2)
    p_star_z = np.empty(2)
    for z in (0, 1):
        for kk in range(k):
            p_star[z, kk] = p_star_from_p(stats.p_zv[z, kk], m0[z], m1[z])
        p_star_z[z] = p_star_from_p(stats.p_z[z], m0[z], m1[z])
        tau_star[z] = _tau_star(stats, z, m0[z], m1[z])
    delta_p_star = p_star_z[1] - p_star_z[0]
    beta_star = late_from_reduced(stats.mu_z[1], stats.mu_z[0], delta_p_star)

    theta = ParamVector(
        beta_star=float(beta_star),
        delta_p_star=float(delta_p_star),
        r=stats.r_hat,
        m0=m0,
        m1=m1,
        p_star=p_star,
        tau_star=tau_star,
        mode=mode,
    )
    return IdentifyResult(
        theta=theta,
        s=s,
        determinants=dets,
        discriminants=discs,
        support_points=selected,
    )


def forward_cell_stats(theta: ParamVector, v_weights=None) -> CellStats:
    """Exact population CellStats implied by a parameter vector.

    v_weights gives Pr(V=v_k | Z=z) (shape (2, K) or (K,)); uniform by
    default. The outcome level is normalised so mu_0 = 0 and
    mu_1 = beta_star * (p_1* - p_0*). Counts are set to the cell
    probabilities so count-weighted aggregation matches the population.
    Y is taken constant within each (z, v, t) cell, with the t = 0 level
    shared across v, so sum_y follows from mu_z and tau_zv and every
    within-cell sum of squares is 0.
    """
    k = theta.k
    if v_weights is None:
        w = np.full((2, k), 1.0 / k)
    else:
        w = np.broadcast_to(np.asarray(v_weights, dtype=float), (2, k)).copy()
        w /= w.sum(axis=1, keepdims=True)

    p_zv = np.empty((2, k))
    tau_zv = np.empty((2, k))
    for z in (0, 1):
        for kk in range(k):
            p_zv[z, kk] = implied_p(theta.m0[z], theta.m1[z], theta.p_star[z, kk])
            tau_zv[z, kk] = implied_tau(
                theta.m0[z], theta.m1[z], p_zv[z, kk], theta.tau_star[z]
            )
    p_star_z = (w * theta.p_star).sum(axis=1)
    mu_z = np.array([0.0, theta.beta_star * (p_star_z[1] - p_star_z[0])])
    pz = np.array([1.0 - theta.r, theta.r])
    n_zv = w * pz[:, None]
    n_zvt = np.stack([n_zv * (1.0 - p_zv), n_zv * p_zv], axis=2)
    y0 = mu_z - (w * p_zv * tau_zv).sum(axis=1)
    ybar = np.stack([np.broadcast_to(y0[:, None], (2, k)), y0[:, None] + tau_zv],
                    axis=2)
    return CellStats(n_zvt=n_zvt, sum_y=n_zvt * ybar, ss_y=np.zeros((2, k, 2)),
                     mode=theta.mode, v_support=tuple(range(k)))
