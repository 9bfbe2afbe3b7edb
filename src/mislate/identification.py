"""Closed-form identification of the LATE under treatment misclassification.

Forward maps take latent parameters (misclassification probabilities, true
conditional treatment probabilities, outcome contrasts) to observable cell
quantities; the inverse solver recovers the latent parameters from observed
cells by solving small linear systems in B0 = m0(1-m1), B1 = (1-m0)m1 and
taking the monotone square-root branch for s = 1 - m0 - m1. Both modes
solve the same 2x2 system and differ only in which two (z, v, v') cell
pairs make it up, which the candidate table records. tau*_z is then the
count-weighted least-squares fit of the observed contrasts on their
attenuation factors. Every step runs in double precision, so the result
does not depend on the platform's long double.

identify also solves a stack of tables: each check is a mask, which a
helper raises on, or, given identify's list of checks, appends to it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index
from typing import NamedTuple

import numpy as np

from .data import CellStats, Mode, ParamVector
from .exceptions import (
    DegenerateCell,
    EmptyCell,
    InvalidProbability,
    MonotonicityViolated,
    NegativeDiscriminant,
    SingularSystem,
    ValidationError,
    WeakFirstStage,
)

# Discriminants in [-DISC_TOL, 0) are treated as exact zeros (sampling noise);
# probabilities within PROB_TOL of [0, 1] are clamped.
DISC_TOL = 1e-8
PROB_TOL = 1e-6
DET_TOL = 1e-12
FIRST_STAGE_TOL = 1e-12


class BPair(NamedTuple):
    """Solution (B0, B1) of one misclassification system."""

    b0: float
    b1: float

    @property
    def discriminant(self) -> float:
        """(B0 - B1 + 1)^2 - 4 B0, whose square root is s = 1 - m0 - m1."""
        # libm's pow, which ** is on a float, also on a stack
        return np.float_power(self.b0 - self.b1 + 1.0, 2) - 4.0 * self.b0


class WTriple(NamedTuple):
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
    failed: np.ndarray            # a stack's tables that failed a check


def _scalar(out):
    """A float for 0-d results, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def _check(checks, bad, error, message):
    """Raise error(message()) if bad has a set entry, or collect bad."""
    if checks is not None:
        checks.append(bad)
    elif bad.any() if bad.ndim else bad:
        raise error(message())


def _check_monotone(m0, m1, checks=None):
    """Check m0 + m1 < 1, naming the first m0 + m1 >= 1."""
    total = np.asarray(m0 + m1)
    _check(checks, total >= 1.0, MonotonicityViolated,
           lambda: f"m0+m1={total[total >= 1.0][0]} >= 1")


def implied_p(m0, m1, p_star):
    """Observable treatment probability implied by the latent one:
    p = m0 + (1 - m0 - m1) * p_star. Broadcasts over arrays."""
    _check_monotone(m0, m1)
    p_star = np.asarray(p_star, dtype=float)
    bad = ~((0.0 <= p_star) & (p_star <= 1.0))
    _check(None, bad, InvalidProbability,
           lambda: f"p_star={p_star[bad][0]} outside [0,1]")
    return _scalar(m0 + (1.0 - m0 - m1) * p_star)


def m_factor(m0, m1, p, checks=None):
    """Attenuation factor linking observed and latent outcome contrasts:
    tau = M(m0, m1, p) * tau_star. Broadcasts over arrays."""
    _check_monotone(m0, m1, checks)
    p = np.asarray(p, dtype=float)
    _check(checks, (p <= 0.0) | (p >= 1.0), DegenerateCell,
           lambda: "observed treatment probability on the boundary")
    s = 1.0 - m0 - m1
    return _scalar((1.0 - m0 * (1.0 - m1) / p - (1.0 - m0) * m1 / (1.0 - p)) / s)


def implied_tau(m0, m1, p, tau_star):
    """Observable outcome contrast implied by the latent one."""
    return m_factor(m0, m1, p) * tau_star


def w_triple(tau_v: float, tau_vp: float, p_v: float, p_vp: float,
             checks=None) -> WTriple:
    """Equation coefficients for the cell pair (v, v') at fixed z."""
    for p in (p_v, p_vp):
        _check(checks, np.logical_not((0.0 < p) & (p < 1.0)), DegenerateCell,
               lambda: f"cell probability {p} on the boundary")
    return WTriple(
        w0=tau_v / p_vp - tau_vp / p_v,
        w1=tau_v / (1.0 - p_vp) - tau_vp / (1.0 - p_v),
        w2=tau_vp - tau_v,
    )


def _det(wa: WTriple, wb: WTriple) -> float:
    """Determinant of the system of equations wa, wb in (B0, B1)."""
    return wa.w0 * wb.w1 - wb.w0 * wa.w1


def solve_b(wa: WTriple, wb: WTriple, checks=None) -> BPair:
    """Solve two identification equations for (B0, B1): the cell pairs
    (v1, v2) and (v1, v3) at one z in CASE_I, the pair (v1, v2) at z = 0
    and at z = 1 in CASE_II."""
    det = _det(wa, wb)
    _check(checks, np.abs(det) < DET_TOL, SingularSystem,
           lambda: f"determinant {det} below tolerance")
    return BPair((-wa.w2 * wb.w1 + wb.w2 * wa.w1) / det,
                 (-wa.w0 * wb.w2 + wb.w0 * wa.w2) / det)


def b_to_m(b: BPair, checks=None) -> tuple:
    """Invert (B0, B1) to (m0, m1, s) on the monotone branch s > 0."""
    disc = b.discriminant
    _check(checks, disc < -DISC_TOL, NegativeDiscriminant,
           lambda: f"discriminant {disc} < -{DISC_TOL}")
    s = np.sqrt(np.maximum(disc, 0.0))
    m0 = (b.b0 - b.b1 + 1.0 - s) / 2.0
    m1 = 1.0 - m0 - s
    for name, m in (("m0", m0), ("m1", m1)):
        _check(checks, (m < -PROB_TOL) | (m >= 1.0), InvalidProbability,
               lambda: f"recovered {name}={m} outside [0,1)")
    return np.maximum(m0, 0.0), np.maximum(m1, 0.0), s


def p_star_from_p(p, m0, m1, checks=None):
    """Latent treatment probability (p - m0) / (1 - m0 - m1), clamped to
    [0, 1] within PROB_TOL. Broadcasts over arrays; a value further out
    raises InvalidProbability naming the first one in C order."""
    _check_monotone(m0, m1, checks)
    p_star = np.asarray((p - m0) / (1.0 - m0 - m1))
    bad = (p_star < -PROB_TOL) | (p_star > 1.0 + PROB_TOL)
    _check(checks, bad, InvalidProbability,
           lambda: f"implied p_star={p_star[bad][0]} outside [0,1]")
    return _scalar(np.minimum(np.maximum(p_star, 0.0), 1.0))


def late_from_reduced(mu1: float, mu0: float, dp_star: float,
                      checks=None) -> float:
    """LATE as the reduced-form contrast over the true first stage."""
    _check(checks, np.abs(dp_star) < FIRST_STAGE_TOL, WeakFirstStage,
           lambda: f"|delta p*|={abs(dp_star)} below tolerance")
    return (mu1 - mu0) / dp_star


def _cell_pairs(arms: tuple, support: tuple) -> tuple:
    """The (z, v, v') cell pairs of a candidate's two equations: the first
    support point against each later one, in each z arm of its group."""
    first, *rest = support
    return tuple((z, first, v) for z in arms for v in rest)


@lru_cache(maxsize=None)
def _candidates(k: int, mode: Mode) -> tuple:
    """The candidate systems with K support points, by group.

    A group is a tuple of z arms that share one (B0, B1). Each comes with
    its candidates, in nonsingularity_diag's order, as (key, support, the
    (z, v, v') cell pairs of the two equations):
        CASE_I, groups (0,) and (1,):
            (z, (v1, v2, v3)) -> (z, v1, v2), (z, v1, v3)
        CASE_II, group (0, 1):
            (v1, v2) -> (0, v1, v2), (1, v1, v2)
    """
    if mode is Mode.CASE_I:
        groups = [((z,), [((z, sup), sup) for sup in combinations(range(k), 3)])
                  for z in (0, 1)]
    else:
        groups = [((0, 1), [(sup, sup) for sup in combinations(range(k), 2)])]
    return tuple((arms, tuple((key, sup, _cell_pairs(arms, sup))
                              for key, sup in cands))
                 for arms, cands in groups)


def _equations(stats: CellStats, pairs: tuple, checks=None) -> tuple:
    """The equations of the given (z, v, v') cell pairs."""
    # transposed, a cell of one table is a float and of a stack an array
    tau, p = stats.tau_zv.T, stats.p_zv.T
    return tuple(w_triple(tau[v, z], tau[vp, z], p[v, z], p[vp, z], checks)
                 for z, v, vp in pairs)


def nonsingularity_diag(stats: CellStats, mode: Mode, checks=None) -> dict:
    """Determinant of every candidate linear system.

    CASE_I keys are (z, (v1, v2, v3)) support-index triples; CASE_II keys are
    (v1, v2) pairs shared across z. Zero (or near-zero) values flag a failing
    nonsingularity condition for that candidate.
    """
    return {key: _det(*_equations(stats, pairs, checks))
            for _, cands in _candidates(stats.k, mode)
            for key, _, pairs in cands}


def _tau_star(stats: CellStats, z: int, m0, m1, checks):
    """Count-weighted least-squares fit of tau_zv = M_zv tau*_z for one z:
    sum n M tau / sum n M^2.

    All cells agree exactly in population (and in just-identified samples),
    where this is tau_zv / M_zv in every cell. Unlike the mean of those
    ratios it does not amplify a cell whose attenuation factor is near 0.
    """
    m = m_factor(m0[..., None], m1[..., None], stats.p_zv[..., z, :], checks)
    _check(checks, np.abs(m) < 1e-12, SingularSystem,
           lambda: "attenuation factor vanishes in a cell")
    n = stats.n_zv[..., z, :]
    return ((n * m * stats.tau_zv[..., z, :]).sum(axis=-1)
            / (n * m * m).sum(axis=-1))


def check_support_points(support_points, k: int, mode: Mode) -> tuple:
    """The pinned support of each group, as tuples of int: two triples in
    CASE_I, one pair in CASE_II, each of distinct indices in 0..K-1. Raises
    ValidationError on any other form."""
    case_i = mode is Mode.CASE_I
    size, shape = (3, "two triples") if case_i else (2, "a pair")
    try:
        pins = tuple(tuple(index(i) for i in pin)
                     for pin in (support_points if case_i else (support_points,)))
    except TypeError:
        pins = ()
    if len(pins) != (2 if case_i else 1) or any(len(pin) != size for pin in pins):
        raise ValidationError(f"support_points must be {shape} of integer "
                              f"indices in {mode.value}, got {support_points!r}")
    for pin in pins:
        if not all(0 <= i < k for i in pin):
            raise ValidationError(f"support_points indices must lie in "
                                  f"0..{k - 1}, got {support_points!r}")
        if len(set(pin)) != size:
            raise ValidationError(f"support_points indices must be distinct, "
                                  f"got {support_points!r}")
    return pins


def identify(stats: CellStats, mode: Mode, support_points=None) -> IdentifyResult:
    """Closed-form recovery of the full parameter vector from cell statistics.

    Each group of z arms sharing one (B0, B1) solves one candidate system.
    support_points pins their supports: one per group ((triple_z0,
    triple_z1) in CASE_I), or the support itself where the mode has a
    single group (a pair in CASE_II). By default each group takes its
    candidate with the largest absolute determinant. A pin of another form,
    or with an index outside 0..K-1 or repeated, raises ValidationError; a
    table with an empty (z, v, t) cell raises EmptyCell.

    A stack of R tables gives a stack of results: every field gains a
    leading axis and support_points holds each table's pick (the pin, if
    pinned). failed marks the tables that fail a check; they raise
    nothing, and their values mean nothing.
    """
    pins = (None if support_points is None
            else check_support_points(support_points, stats.k, mode))
    checks = [] if stats.n_zvt.ndim > 3 else None
    with np.errstate(divide="ignore", invalid="ignore"):
        _check(checks, stats.n_zvt == 0, EmptyCell,
               lambda: stats.empty_cells()[0])
        _check(checks, (stats.p_zv <= 0.0) | (stats.p_zv >= 1.0),
               DegenerateCell, lambda: "a cell treatment probability is 0 or 1")
        # the equations' checks of their cells repeat the two above
        dets = nonsingularity_diag(stats, mode, [])
        groups = _candidates(stats.k, mode)
        m = np.empty((3,) + stats.p_z.T.shape)  # (m0, m1, s), a stack's axis last
        selected, discs = [], []
        for g, (arms, cands) in enumerate(groups):
            if pins is not None:
                cands = [(None, pins[g], _cell_pairs(arms, pins[g]))]
            supports = np.empty(len(cands), dtype=object)
            supports[:] = [support for _, support, _ in cands]
            # the candidate with the largest |det|, of a stack each table's
            pick = np.argmax([np.abs(dets.get(key, 0.0)) for key, _, _ in cands], axis=0)
            if np.ndim(pick):
                eqs = np.take_along_axis(np.array([_equations(stats, pairs, [])
                                                   for *_, pairs in cands]),
                                         pick[None, None, None], 0)[0]
            else:
                eqs = _equations(stats, cands[pick][2], [])
            b = solve_b(*(WTriple(*w) for w in eqs), checks)
            discs.append(_scalar(np.asarray(b.discriminant)))
            m[:, list(arms)] = np.array(b_to_m(b, checks))[:, None]
            selected.append(supports[pick])
        m0, m1, s = m

        # z by z: p* of the cells and of the arm, then tau*_z, so that a
        # failure at z = 0 is reported before any at z = 1
        p_star = np.concatenate([stats.p_zv, stats.p_z[..., None]], axis=-1)
        tau_star = np.empty(stats.p_z.shape)
        for z in (0, 1):
            p_star[..., z, :] = p_star_from_p(p_star[..., z, :], m0[z][..., None],
                                              m1[z][..., None], checks)
            tau_star[..., z] = _tau_star(stats, z, m0[z], m1[z], checks)
        p_star_z, mu_z = p_star.T[-1], stats.mu_z.T
        delta_p_star = p_star_z[1] - p_star_z[0]
        beta_star = late_from_reduced(mu_z[1], mu_z[0], delta_p_star, checks)

    failed = np.zeros(stats.mu_z.shape[:-1], dtype=bool)
    for bad in checks or ():
        failed |= np.reshape(bad, failed.shape + (-1,)).any(axis=-1)
    # a failed table's m0 and m1 may be NaN; 0 keeps its vector valid
    theta = ParamVector(
        beta_star=_scalar(np.asarray(beta_star)),
        delta_p_star=_scalar(np.asarray(delta_p_star)),
        r=stats.r_hat,
        m0=np.where(failed, 0.0, m0).T,
        m1=np.where(failed, 0.0, m1).T,
        p_star=p_star[..., :-1],
        tau_star=tau_star,
        mode=mode,
    )
    return IdentifyResult(
        theta=theta,
        s=s.T,
        determinants=dets,
        discriminants=tuple(discs),
        support_points=selected[0] if len(groups) == 1 else tuple(selected),
        failed=failed,
    )


def forward_cell_stats(theta: ParamVector) -> CellStats:
    """Exact population CellStats implied by a parameter vector.

    V is uniform given Z, Pr(V=v_k | Z=z) = 1/K. The outcome level is
    normalised so mu_0 = 0 and mu_1 = beta_star * (p_1* - p_0*). Counts are
    set to the cell probabilities so count-weighted aggregation matches the
    population.
    Y is taken constant within each (z, v, t) cell, with the t = 0 level
    shared across v, so sum_y follows from mu_z and tau_zv and every
    within-cell sum of squares is 0.
    """
    k = theta.k
    w = np.full((2, k), 1.0 / k)
    m0, m1 = theta.m0[:, None], theta.m1[:, None]
    p_zv = implied_p(m0, m1, theta.p_star)
    tau_zv = implied_tau(m0, m1, p_zv, theta.tau_star[:, None])
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
