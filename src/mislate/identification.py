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

Every function has one mode. The solver's steps take a stack of tables
and append each check, as (mask, error class, message builder), to the
list they are given; identify on one table, solved as a stack of one, is
the one edge that raises the first that failed. The forward maps and
nonsingularity_diag check their own input first and raise, then compute.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index

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


@dataclass(frozen=True)
class IdentifyResult:
    theta: ParamVector
    s: np.ndarray                 # (2,) with s_z; equal entries in case ii
    determinants: dict            # candidate support selection -> determinant
    discriminants: tuple          # discriminant per solved system
    support_points: tuple         # selected support indices (per z in case i)
    failed: np.ndarray            # a stack's tables that failed a check


def _raise_first(checks: list):
    """Raise the error of the first check that failed, in the list's order."""
    for bad, error, message in checks:
        if np.any(bad):
            raise error(message())


def _first(x, bad):
    """The entry of x at the first set entry of bad, in C order."""
    return np.asarray(x)[bad][0]


def _monotone(m0, m1) -> tuple:
    """The check m0 + m1 < 1, naming the first m0 + m1 >= 1."""
    total = m0 + m1
    bad = total >= 1.0
    return bad, MonotonicityViolated, lambda: f"m0+m1={_first(total, bad)} >= 1"


def _rates(m0, m1) -> list:
    """The checks m0 >= 0 and m1 >= 0, which NaN fails, each naming its
    first failing entry."""
    rates = {"m0": np.asarray(m0, dtype=float), "m1": np.asarray(m1, dtype=float)}
    return [(~(m >= 0.0), InvalidProbability, lambda name=name, m=m:
             f"{name}={_first(m, ~(m >= 0.0))} is not a probability")
            for name, m in rates.items()]


def implied_p(m0, m1, p_star):
    """Observable treatment probability implied by the latent one:
    p = m0 + (1 - m0 - m1) * p_star. Broadcasts over arrays."""
    p_star = np.asarray(p_star, dtype=float)
    bad = ~((0.0 <= p_star) & (p_star <= 1.0))
    _raise_first([*_rates(m0, m1), _monotone(m0, m1), (bad, InvalidProbability, lambda:
                  f"p_star={_first(p_star, bad)} outside [0,1]")])
    return m0 + (1.0 - m0 - m1) * p_star


def _m_factor(m0, m1, p):
    """The attenuation factor M(m0, m1, p), unchecked."""
    s = 1.0 - m0 - m1
    return (1.0 - m0 * (1.0 - m1) / p - (1.0 - m0) * m1 / (1.0 - p)) / s


def m_factor(m0, m1, p):
    """Attenuation factor linking observed and latent outcome contrasts:
    tau = M(m0, m1, p) * tau_star. Broadcasts over arrays."""
    p = np.asarray(p, dtype=float)
    _raise_first([*_rates(m0, m1), _monotone(m0, m1),
                  ((p <= 0.0) | (p >= 1.0), DegenerateCell,
                   lambda: "observed treatment probability on the boundary")])
    return _m_factor(m0, m1, p)


def implied_tau(m0, m1, p, tau_star):
    """Observable outcome contrast implied by the latent one."""
    return m_factor(m0, m1, p) * tau_star


def _w_triple(tau_v, tau_vp, p_v, p_vp) -> np.ndarray:
    """Coefficients (w0, w1, w2), stacked on a first axis, of the
    identification equation w0 B0 + w1 B1 + w2 = 0 of the cell pair (v, v')
    at fixed z."""
    return np.array([np.divide(tau_v, p_vp) - np.divide(tau_vp, p_v),
                     np.divide(tau_v, 1.0 - p_vp) - np.divide(tau_vp, 1.0 - p_v),
                     np.subtract(tau_vp, tau_v)])


def _det(coefs: np.ndarray) -> np.ndarray:
    """Determinant in (B0, B1) of each system of two equations, whose
    coefficients coefs holds on its first axis and the equations on its
    last."""
    (w0a, w0b), (w1a, w1b) = np.moveaxis(coefs[:2], -1, 1)
    return np.subtract(w0a * w1b, w0b * w1a)


def _solve_b(coefs: np.ndarray, checks) -> tuple:
    """(B0, B1) of each system of two equations, as _det takes them: the
    cell pairs (v1, v2) and (v1, v3) at one z in CASE_I, the pair (v1, v2)
    at z = 0 and at z = 1 in CASE_II."""
    det = _det(coefs)
    bad = np.abs(det) < DET_TOL
    checks.append((bad, SingularSystem,
                   lambda: f"determinant {_first(det, bad)} below tolerance"))
    (w0a, w0b), (w1a, w1b), (w2a, w2b) = np.moveaxis(coefs, -1, 1)
    return (-w2a * w1b + w2b * w1a) / det, (-w0a * w2b + w0b * w2a) / det


def _discriminant(b0, b1):
    """(B0 - B1 + 1)^2 - 4 B0, whose square root is s = 1 - m0 - m1."""
    # libm's pow, which ** is on a float, also on a stack
    return np.float_power(b0 - b1 + 1.0, 2) - 4.0 * b0


def _b_to_m(b0, b1, checks) -> tuple:
    """Invert (B0, B1) to (m0, m1, s) on the monotone branch s > 0."""
    disc = _discriminant(b0, b1)
    negative = disc < -DISC_TOL
    checks.append((negative, NegativeDiscriminant,
                   lambda: f"discriminant {_first(disc, negative)} < -{DISC_TOL}"))
    s = np.sqrt(np.maximum(disc, 0.0))
    m0 = (b0 - b1 + 1.0 - s) / 2.0
    m1 = 1.0 - m0 - s
    for name, m in (("m0", m0), ("m1", m1)):
        bad = (m < -PROB_TOL) | (m >= 1.0)
        checks.append((bad, InvalidProbability, lambda name=name, m=m, bad=bad:
                       f"recovered {name}={_first(m, bad)} outside [0,1)"))
    return np.maximum(m0, 0.0), np.maximum(m1, 0.0), s


def _p_star(p, m0, m1, checks):
    """Latent treatment probability (p - m0) / (1 - m0 - m1), clamped to
    [0, 1] within PROB_TOL; the check of a value further out names the
    first one in C order. Broadcasts over arrays."""
    checks.append(_monotone(m0, m1))
    p_star = np.divide(np.subtract(p, m0), 1.0 - m0 - m1)
    bad = (p_star < -PROB_TOL) | (p_star > 1.0 + PROB_TOL)
    checks.append((bad, InvalidProbability,
                   lambda: f"implied p_star={_first(p_star, bad)} outside [0,1]"))
    return np.minimum(np.maximum(p_star, 0.0), 1.0)


@lru_cache(maxsize=None)
def _system(k: int, mode: Mode, pins=None) -> tuple:
    """The candidate systems with K support points, or the pinned ones.

    A group is a tuple of z arms that share one (B0, B1). A candidate's two
    equations are its cell pairs (z, v, v'): the first support point
    against each later one, in each arm of its group.
        CASE_I, groups (0,) and (1,):
            key (z, (v1, v2, v3)) -> (z, v1, v2), (z, v1, v3)
        CASE_II, group (0, 1):
            key (v1, v2) -> (0, v1, v2), (1, v1, v2)
    Returns the keys in nonsingularity_diag's order; the z, v and v' of the
    equations, each of shape (candidates, 2); and per group its arms, the
    numbers of its candidates and their supports.
    """
    if mode is Mode.CASE_I:
        groups = [((z,), [((z, sup), sup) for sup in combinations(range(k), 3)])
                  for z in (0, 1)]
    else:
        groups = [((0, 1), [(sup, sup) for sup in combinations(range(k), 2)])]
    if pins is not None:
        groups = [(arms, [(None, pin)]) for (arms, _), pin in zip(groups, pins)]
    keys, pairs, out = [], [], []
    for arms, cands in groups:
        supports = np.empty(len(cands), dtype=object)
        supports[:] = [support for _, support in cands]
        out.append((list(arms), np.arange(len(keys), len(keys) + len(cands)),
                    supports))
        keys += [key for key, _ in cands]
        pairs += [[(z, first, v) for z in arms for v in rest]
                  for _, (first, *rest) in cands]
    eqs = np.moveaxis(np.array(pairs, dtype=int).reshape(-1, 2, 3), -1, 0)
    return tuple(keys), tuple(eqs), tuple(out)


def _equations(stats: CellStats, eqs: tuple) -> np.ndarray:
    """(w0, w1, w2) of the equations of the (z, v, v') cell pairs eqs,
    stacked on a first axis."""
    z, v, vp = eqs
    tau, p = stats.tau_zv, stats.p_zv
    return _w_triple(tau[..., z, v], tau[..., z, vp], p[..., z, v], p[..., z, vp])


def nonsingularity_diag(stats: CellStats, mode: Mode) -> dict:
    """Determinant of every candidate linear system.

    CASE_I keys are (z, (v1, v2, v3)) support-index triples; CASE_II keys are
    (v1, v2) pairs shared across z. Zero (or near-zero) values flag a failing
    nonsingularity condition for that candidate. A cell of the systems with
    a treatment probability outside (0, 1) raises DegenerateCell.
    """
    keys, eqs, _ = _system(stats.k, mode)
    z, v, vp = eqs
    p = np.stack([stats.p_zv[..., z, v], stats.p_zv[..., z, vp]], axis=-1)
    bad = ~((0.0 < p) & (p < 1.0))
    if np.any(bad):
        raise DegenerateCell(f"cell probability {_first(p, bad)} on the boundary")
    return dict(zip(keys, _det(_equations(stats, eqs)).T))


def _tau_star(stats: CellStats, m0, m1, checks):
    """Count-weighted least-squares fit of tau_zv = M_zv tau*_z for each z:
    sum n M tau / sum n M^2.

    All cells agree exactly in population (and in just-identified samples),
    where this is tau_zv / M_zv in every cell. Unlike the mean of those
    ratios it does not amplify a cell whose attenuation factor is near 0.
    """
    # its input is the cells' and p*'s, which their checks cover
    m = _m_factor(m0[..., None], m1[..., None], stats.p_zv)
    checks.append((np.abs(m) < 1e-12, SingularSystem,
                   lambda: "attenuation factor vanishes in a cell"))
    nm = stats.n_zv * m
    return (nm * stats.tau_zv).sum(axis=-1) / (nm * m).sum(axis=-1)


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
    nothing, and their values mean nothing. One table is solved as a stack
    of one, and its first failed check raises.
    """
    pins = (None if support_points is None
            else check_support_points(support_points, stats.k, mode))
    one = stats.n_zvt.ndim == 3
    table = stats[None] if one else stats
    checks = [(table.n_zvt == 0, EmptyCell, lambda: table.empty_cells()[0]),
              ((table.p_zv <= 0.0) | (table.p_zv >= 1.0), DegenerateCell,
               lambda: "a cell treatment probability is 0 or 1")]
    keys, eqs, groups = _system(stats.k, mode)
    if not keys:  # no system to solve; the cells' failures come first
        _raise_first(checks)
        raise ValidationError(f"{mode.value} needs more than K={stats.k} "
                              f"support points")
    with np.errstate(divide="ignore", invalid="ignore"):
        coefs = _equations(table, eqs)
        dets = by = _det(coefs)
        if pins is not None:
            _, eqs, groups = _system(stats.k, mode, pins)
            coefs = _equations(table, eqs)
            by = _det(coefs)
        rows = np.arange(len(dets))
        m = np.empty((3,) + table.p_z.shape)  # (m0, m1, s), each (R, 2)
        discs, picks = [], []
        for arms, cands, supports in groups:
            # the candidate with the largest |det|, of each table
            pick = np.abs(by[:, cands]).argmax(axis=-1)
            b = _solve_b(coefs[:, rows, cands[pick]], checks)
            discs.append(_discriminant(*b))
            m[:, :, arms] = np.array(_b_to_m(*b, checks))[..., None]
            picks.append(supports[pick])
        m0, m1, s = m

        # p* of the cells and of each arm, then tau*_z; their checks go z by
        # z, so that a failure at z = 0 is reported before any at z = 1
        by_z = []
        p_star = _p_star(np.concatenate([table.p_zv, table.p_z[..., None]], -1),
                         m0[..., None], m1[..., None], by_z)
        tau_star = _tau_star(table, m0, m1, by_z)
        checks += [(bad[:, z], error, message) for z in (0, 1)
                   for bad, error, message in by_z]
        # the LATE: the reduced-form contrast over the true first stage
        delta_p_star = p_star[:, 1, -1] - p_star[:, 0, -1]
        weak = np.abs(delta_p_star) < FIRST_STAGE_TOL
        checks.append((weak, WeakFirstStage, lambda: f"|delta p*|="
                       f"{abs(_first(delta_p_star, weak))} below tolerance"))
        beta_star = (table.mu_z[:, 1] - table.mu_z[:, 0]) / delta_p_star
    failed = np.concatenate([bad.reshape(len(s), -1) for bad, _, _ in checks],
                            axis=1).any(axis=1)
    m0[failed] = m1[failed] = 0.0  # a failed table's may be NaN; 0 is valid
    fields = [beta_star, delta_p_star, table.r_hat, m0, m1, p_star[..., :-1],
              tau_star, s, failed]
    dets = dict(zip(keys, dets.T))
    if one:
        if failed[0]:
            _raise_first(checks)
        fields, discs, picks = ([x[0] for x in fields], [d[0] for d in discs],
                                [p[0] for p in picks])
        dets = {key: d[0] for key, d in dets.items()}
    *theta, s, failed = fields
    return IdentifyResult(
        theta=ParamVector(*theta, mode=mode),
        s=s,
        determinants=dets,
        discriminants=tuple(discs),
        support_points=picks[0] if len(picks) == 1 else tuple(picks),
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
