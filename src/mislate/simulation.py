"""Monte Carlo engine: the six data-generating processes, analytic true
parameter values, and the replication study producing bias/SD/RMSE/CP tables.

Each replication draws from an independent Philox counter-based stream keyed
by (seed, rep), so results are bit-reproducible and independent of how
replications are scheduled across workers. Normal draws go through the
inverse CDF to keep streams aligned.

A study draws, tabulates and fits its replications in blocks of at most
_BLOCK_DRAWS draws, as stacks of tables: one gmm._fit fits a block. Each
table gets the bits it gets alone, so the summary depends on neither the
block size nor the number of workers.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._special import ndtr, ndtri
from .baselines import ols, wald_iv
from .data import Dataset, Mode, ParamVector, cell_stats, param_names
from .exceptions import MislateError, NoConvergence
from . import gmm

# var(U2 | U1) under the (U1, U2) covariance [[1, 0.05], [0.05, 0.5]]
_U2_RESID_SD = float(np.sqrt(0.5 - 0.05 ** 2))
_T_FLIP = 0.25
_V_FLIP = 0.3
# draws (replications x n) per block: what a study holds in memory at once
_BLOCK_DRAWS = 2 ** 15


@dataclass(frozen=True)
class DesignSpec:
    """One of the six simulation designs.

    Designs 1-2: V a binary covariate (design 2 heterogeneous effects);
    3-4: V a binary instrument; 5-6: V a noisy repeated measure of the
    true treatment.
    """

    id: int

    def __post_init__(self):
        if self.id not in range(1, 7):
            raise ValueError(f"design must be 1..6, got {self.id}")

    @property
    def heterogeneous(self) -> bool:
        return self.id in (2, 4, 6)

    @property
    def repeated_measure(self) -> bool:
        return self.id in (5, 6)

    @property
    def v_in_outcome(self) -> bool:
        return self.id in (1, 2)


@dataclass(frozen=True)
class LatentRecord:
    """Latent quantities kept alongside a generated dataset."""

    u1: np.ndarray
    u2: np.ndarray
    t_star: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _check_stream_key(name: str, value: int):
    """seed and rep are the two 64-bit halves of a Philox key."""
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be in 0..2**64-1, got {value}")


def generate(design: DesignSpec, n: int, seed: int, rep=0):
    """Draw one sample; returns (Dataset, LatentRecord). A sequence of reps
    draws one sample per rep, each from its own stream, and stacks them:
    every array then has shape (reps, n)."""
    zu, normal, uv, ut = (np.empty(np.shape(rep) + (m * n,)) for m in (1, 2, 1, 1))
    seed = int(seed)
    _check_stream_key("seed", seed)
    # one bit generator, re-keyed for each sample: a fresh state keyed (r, seed)
    # is the stream of Philox(key=(seed << 64) + r), with no entropy drawn
    bits = np.random.Philox(0)
    rng, fresh = np.random.Generator(bits), bits.state
    for i, r in enumerate(np.ravel(rep).tolist()):  # each sample's draws,
        r = int(r)                                   # in stream order
        _check_stream_key("rep", r)
        bits.state = {**fresh, "state": {**fresh["state"],
                                         "key": np.array([r, seed], np.uint64)}}
        for draws in (zu, normal, uv, ut):
            rng.random(out=draws.reshape(-1, draws.shape[-1])[i])
    z = (zu < 0.5).astype(np.int8)
    normal[normal == 0.0] = 0.5 ** 53
    e = ndtri(normal)
    e1, e2 = e[..., :n], e[..., n:]
    u1 = e1
    u2 = 0.05 * e1 + _U2_RESID_SD * e2

    if design.repeated_measure:
        t_star = (-0.5 + z - u1 > 0).astype(np.int8)
        v = np.where(uv < _V_FLIP, 1 - t_star, t_star).astype(np.int8)
    else:
        v = (uv < 0.5).astype(np.int8)
        t_star = (-1.0 + z + v - u1 > 0).astype(np.int8)
    t = np.where(ut < _T_FLIP, 1 - t_star, t_star).astype(np.int8)

    effect = (u2 * (2.0 * u2 - 1.0)) if design.heterogeneous else 1.0
    base = u2 + (0.3 * v if design.v_in_outcome else 0.0)
    y0 = base if design.heterogeneous else base + 1.0
    y1 = y0 + effect
    y = y0 + t_star * (y1 - y0)

    ds = Dataset(y=y, t=t, z=z, v=v.astype(np.int64), v_support=(0, 1),
                 mode=Mode.CASE_II)
    return ds, LatentRecord(u1=u1, u2=u2, t_star=t_star, y0=y0, y1=y1)


def _trunc_moments(c: float) -> tuple:
    """(E(U|U<c), E(U|U>c), E(U^2|U<c)) for standard normal U."""
    lo = ndtr(c)
    # scipy.stats.norm.pdf's expression: phi equals norm.pdf(c) bit for bit
    phi = np.exp(-c ** 2 / 2.0) / np.sqrt(2 * np.pi)
    return -phi / lo, phi / (1.0 - lo), 1.0 - c * phi / lo


def _tau_star_cell(design: DesignSpec, c: float) -> float:
    """Latent outcome contrast E(Y|T*=1,.) - E(Y|T*=0,.) for the threshold
    cell T* = 1(U1 < c)."""
    e_lo, e_hi, e2_lo = _trunc_moments(c)
    if design.heterogeneous:
        # Y|T*=1 = 2 U2^2 (+ V terms common to both arms), Y|T*=0 = U2 (+ ...)
        e_u2sq = 0.05 ** 2 * e2_lo + (0.5 - 0.05 ** 2)
        return 2.0 * e_u2sq - 0.05 * e_hi
    return 1.0 + 0.05 * (e_lo - e_hi)


def true_params(design: DesignSpec) -> ParamVector:
    """Analytic population parameter vector for a design.

    The LATE is reported as 1.000 for every design, following the reference
    tables. It is the complier-conditional effect E(Y1 - Y0 | complier) in
    the homogeneous designs; in the heterogeneous ones, where U2 correlates
    with U1, that effect is slightly below 1 (about 0.994 in 4e6 draws).
    """
    if design.repeated_measure:
        p_star_z = np.array([ndtr(-0.5), ndtr(0.5)])
        # V is informative about T* through the 0.3 flip rate
        p_star = np.empty((2, 2))
        for z in (0, 1):
            pz = p_star_z[z]
            for v in (0, 1):
                like1 = _V_FLIP if v == 0 else 1.0 - _V_FLIP
                like0 = (1.0 - _V_FLIP) if v == 0 else _V_FLIP
                p_star[z, v] = like1 * pz / (like1 * pz + like0 * (1.0 - pz))
        tau = np.array([_tau_star_cell(design, z - 0.5) for z in (0, 1)])
    else:
        p_star = np.array([[ndtr(z + v - 1.0) for v in (0, 1)] for z in (0, 1)])
        p_star_z = p_star.mean(axis=1)
        # cell-probability weights are 1/2 per v; tau_z* is their average
        tau = np.array([
            0.5 * (_tau_star_cell(design, z - 1.0) + _tau_star_cell(design, z))
            for z in (0, 1)
        ])
    return ParamVector(
        beta_star=1.0,
        delta_p_star=float(p_star_z[1] - p_star_z[0]),
        r=0.5,
        m0=np.array([_T_FLIP, _T_FLIP]),
        m1=np.array([_T_FLIP, _T_FLIP]),
        p_star=p_star,
        tau_star=tau,
        mode=Mode.CASE_II,
    )


@dataclass(frozen=True)
class McRow:
    parameter: str
    estimator: str
    true: float
    bias: float
    sd: float
    rmse: float
    cp: float


@dataclass(frozen=True)
class McSummary:
    design: int
    n: int
    reps: int
    seed: int
    n_failed: int
    rows: list
    # exception class name -> failed replications; the counts sum to n_failed
    failures: dict = field(default_factory=dict)

    def row(self, parameter: str, estimator: str) -> McRow:
        for r in self.rows:
            if r.parameter == parameter and r.estimator == estimator:
                return r
        raise KeyError((parameter, estimator))


# packed positions of the tracked CASE_II (K=2) parameters
_TRACKED = {p: i for i, p in enumerate(param_names(2, Mode.CASE_II))
            if p in ("beta_star", "delta_p_star", "m0", "m1")}
_ROWS = [(p, "gmm") for p in _TRACKED] + [("beta_star", "iv"), ("delta_p_star", "ols")]


def _fit(stats) -> tuple:
    """(causes, fits) of a stack: per table the class name of the error that
    failed its fit, or None; and its (estimate, SE) by _ROWS, shape
    (R, len(_ROWS), 2), of which a failed table's are not read. A check
    that trips on the stack raises."""
    iv, fs = wald_iv(stats), ols(stats, outcome="t", regressors=("z",))
    fit = gmm._fit(stats, "identity")
    causes = [type(error).__name__ if error is not None
              else (None if converged else NoConvergence.__name__)
              for error, converged in zip(fit.errors, fit.converged)]
    cols = list(_TRACKED.values())
    return causes, np.stack([
        np.column_stack([fit.x[:, cols], iv.coef[:, 1], fs.coef[:, 1]]),
        np.column_stack([gmm._se(fit.vcov)[:, cols], iv.robust_se[:, 1],
                         fs.robust_se[:, 1]]),
    ], axis=-1)


def _run_block(args) -> tuple:
    """_fit of a block of replications, drawn and tabulated as one stack; if
    a check trips on the stack, of each replication as a stack of one."""
    design_id, n, seed, reps = args
    stats = cell_stats(generate(DesignSpec(design_id), n, seed, reps)[0])
    try:
        return _fit(stats)
    except MislateError:
        causes, fits = [], np.full((len(reps), len(_ROWS), 2), np.nan)
        for i in range(len(reps)):
            try:
                [cause], fits[i:i + 1] = _fit(stats[i:i + 1])
                causes.append(cause)
            except MislateError as exc:
                causes.append(type(exc).__name__)
        return causes, fits


def run_study(design: DesignSpec, n: int, reps: int, seed: int,
              ci_level: float = 0.95, workers: int = 1) -> McSummary:
    """Replicate (generate -> estimate) and summarise bias/SD/RMSE/CP of
    the identity-weighted GMM fit and the naive IV and first-stage OLS.

    Replications in which one of them fails (empty cells, identification
    failure, optimizer non-convergence) are counted and excluded from the
    summary moments.
    SD uses the uncentered convention so rmse^2 = bias^2 + sd^2 exactly.
    failures counts them by error. At most min(workers, CPU count, reps)
    worker processes run, with a block each at least; the per-replication
    streams make the result independent of that number.
    n, reps or workers below 1, a seed outside 0..2**64-1, or a ci_level
    outside (0, 1), raises ValueError before any replication runs.
    """
    for name, value in (("n", n), ("reps", reps), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    _check_stream_key("seed", int(seed))
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must be in (0,1), got {ci_level}")
    truth = true_params(design)
    true_flat = truth.pack()
    true_vals = {p: float(true_flat[i]) for p, i in _TRACKED.items()}
    zcrit = gmm._zcrit(ci_level)

    pool_size = min(workers, os.cpu_count() or 1, reps)
    blocks = max(pool_size, -(-reps // max(1, _BLOCK_DRAWS // n)))
    tasks = [(design.id, n, seed, range(reps * b // blocks,
                                        reps * (b + 1) // blocks))
             for b in range(blocks)]
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outs = list(pool.map(_run_block, tasks))
    else:
        outs = [_run_block(t) for t in tasks]
    causes = [c for block, _ in outs for c in block]
    fits = np.concatenate([f for _, f in outs])
    ok = np.array([c is None for c in causes])
    rows = [_summarise(p, est, true_vals[p], *fits[ok, j].T, zcrit)
            for j, (p, est) in enumerate(_ROWS)] if ok.any() else []
    return McSummary(design=design.id, n=n, reps=reps, seed=seed,
                     n_failed=reps - int(ok.sum()), rows=rows,
                     failures=dict(Counter(c for c in causes if c)))


def _summarise(parameter, estimator, true, vals, ses, zcrit) -> McRow:
    bias = float(vals.mean() - true)
    sd = float(vals.std(ddof=0))
    rmse = float(np.sqrt(np.mean((vals - true) ** 2)))
    cp = float(np.mean(np.abs(vals - true) <= zcrit * ses))
    return McRow(parameter=parameter, estimator=estimator, true=float(true),
                 bias=bias, sd=sd, rmse=rmse, cp=cp)
