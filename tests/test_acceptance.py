"""Acceptance gate: one test per release criterion, each emitting a single
PASS/FAIL line on the live terminal (bypassing capture) plus a normal assert.

The Monte Carlo criteria share one 500-replication run per design at n=1000.
"""
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from conftest import random_theta
from mislate.baselines import wald_iv
from mislate.data import Mode, cell_stats
from mislate.gmm import GmmConfig, estimate
from mislate.identification import _w_triple, forward_cell_stats, identify
from mislate.moments import (MomentSums, _n_overid, gbar_and_jacobian,
                             gbar_jacobian_omega)
from mislate.simulation import DesignSpec, generate, run_study, true_params

from test_moments import _exact_count_dataset, _oracle_theta

MC_REPS = 500
MC_N = 1000
MC_SEED = 2024

# family-wise false-failure probability of criterion 2's moment check
CRIT2_FWER = 1e-4

# reference Monte Carlo values at n=1000 (bias unless stated otherwise)
REF_GMM_BETA_BIAS = {1: 0.090, 2: 0.144, 3: 0.098, 4: 0.157, 5: 0.103, 6: 0.162}
REF_GMM_BETA_RMSE = {1: 0.345, 2: 0.479, 3: 0.353, 4: 0.463, 5: 0.339, 6: 0.448}
REF_IV_BETA_BIAS = {1: 1.052, 2: 1.041, 3: 1.047, 4: 1.045, 5: 1.062, 6: 1.026}
REF_GMM_DP_BIAS = {1: -0.011, 2: -0.016, 3: -0.010, 4: -0.020, 5: -0.012, 6: -0.026}
REF_OLS_FS_BIAS = {1: -0.171, 2: -0.169, 3: -0.169, 4: -0.169, 5: -0.191, 6: -0.189}
REF_M0_BIAS = {1: -0.020, 2: -0.030, 3: -0.021, 4: -0.035, 5: -0.021, 6: -0.033}
REF_M1_BIAS = {1: -0.019, 2: -0.034, 3: -0.022, 4: -0.040, 5: -0.020, 6: -0.047}


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def mc():
    """One 500-rep study per design, shared across the table criteria."""
    out = {}
    for d in range(1, 7):
        out[d] = run_study(DesignSpec(d), n=MC_N, reps=MC_REPS, seed=MC_SEED)
    return out


def test_criterion_1_round_trip_identification(capsys):
    worst = 0.0
    for mode, k, seed in ((Mode.CASE_II, 2, 101), (Mode.CASE_I, 3, 202)):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            theta = random_theta(rng, mode, k)
            got = identify(forward_cell_stats(theta), mode).theta
            worst = max(worst, float(np.max(np.abs(got.pack() - theta.pack()))))
    ok = worst <= 1e-10
    _report(capsys, 1, "round-trip identification", ok, f"max err {worst:.2e}")
    assert ok


def test_criterion_2_population_moments_vanish(capsys):
    # Four independent design-1 draws of 10^6 rows, pooled. Each moment
    # component is studentized by its standard error sqrt(Omega_jj / n); at
    # the truth the 11 ratios are asymptotically N(0, 1), so the two-sided
    # Bonferroni bound c = 4.44 fails a correct program with probability at
    # most CRIT2_FWER = 1e-4, whatever the seeds.
    truth = true_params(DesignSpec(1))
    c = float(norm.isf(CRIT2_FWER / (2 * (4 * truth.k + 3))))
    # each shift moves some component's mean by at least 8.9 standard errors
    # (beta_star 9.1, m0 8.9, delta_p_star 10.7; mean over draws 1-60), so
    # the statistic also exceeds c with probability above 1 - 1e-4
    shifted = {
        "beta_star+0.05": replace(truth, beta_star=truth.beta_star + 0.05),
        "m0+0.005": replace(truth, m0=truth.m0 + 0.005),
        "delta_p_star+0.015": replace(
            truth, delta_p_star=truth.delta_p_star + 0.015),
    }
    thetas = {"truth": truth, **shifted}
    draws, draw_n = 4, 10 ** 6
    gbars = {name: [] for name in thetas}
    omega_diags = {name: [] for name in thetas}
    for seed in range(1, draws + 1):
        ds, _ = generate(DesignSpec(1), draw_n, seed=seed)
        table = cell_stats(ds)
        for name, theta in thetas.items():
            g, _, omega = gbar_jacobian_omega(table, theta.pack())
            gbars[name].append(g)
            omega_diags[name].append(np.diag(omega))
    # the draws are the same size, so pooled means are means over draws
    se = {name: np.sqrt(np.mean(omega_diags[name], axis=0) / (draws * draw_n))
          for name in thetas}
    stat = {name: float(np.max(np.abs(np.mean(gbars[name], axis=0)) / se[name]))
            for name in thetas}

    ok = stat["truth"] <= c and all(stat[name] > c for name in shifted)
    shifts = ", ".join(f"{name} {stat[name]:.2f}" for name in shifted)
    _report(capsys, 2, "moment conditions vanish at truth", ok,
            f"max |gbar|/SE {stat['truth']:.2f}, c = {c:.2f}; "
            f"shifted: {shifts}")
    assert ok, stat


def test_criterion_3_late_table(capsys, mc):
    fails = []
    for d in range(1, 7):
        g = mc[d].row("beta_star", "gmm")
        iv = mc[d].row("beta_star", "iv")
        if abs(g.bias - REF_GMM_BETA_BIAS[d]) > 0.06:
            fails.append(f"d{d} gmm bias {g.bias:.3f}")
        if abs(g.rmse - REF_GMM_BETA_RMSE[d]) > 0.10:
            fails.append(f"d{d} gmm rmse {g.rmse:.3f}")
        if not 0.92 <= g.cp <= 0.98:
            fails.append(f"d{d} gmm cp {g.cp:.3f}")
        if abs(iv.bias - REF_IV_BETA_BIAS[d]) > 0.15:
            fails.append(f"d{d} iv bias {iv.bias:.3f}")
    ok = not fails
    _report(capsys, 3, "LATE Monte Carlo table", ok, "; ".join(fails))
    assert ok, fails


def test_criterion_4_first_stage_table(capsys, mc):
    fails = []
    for d in range(1, 7):
        g = mc[d].row("delta_p_star", "gmm")
        o = mc[d].row("delta_p_star", "ols")
        if abs(g.bias - REF_GMM_DP_BIAS[d]) > 0.04:
            fails.append(f"d{d} gmm bias {g.bias:.3f}")
        if abs(o.bias - REF_OLS_FS_BIAS[d]) > 0.03:
            fails.append(f"d{d} ols bias {o.bias:.3f}")
    ok = not fails
    _report(capsys, 4, "first-stage Monte Carlo table", ok, "; ".join(fails))
    assert ok, fails


def test_criterion_5_error_rate_table(capsys, mc):
    fails = []
    for d in range(1, 7):
        r0 = mc[d].row("m0", "gmm")
        r1 = mc[d].row("m1", "gmm")
        if abs(r0.bias - REF_M0_BIAS[d]) > 0.04:
            fails.append(f"d{d} m0 bias {r0.bias:.3f}")
        if abs(r1.bias - REF_M1_BIAS[d]) > 0.04:
            fails.append(f"d{d} m1 bias {r1.bias:.3f}")
        for nm, r in (("m0", r0), ("m1", r1)):
            if not 0.90 <= r.cp <= 0.99:
                fails.append(f"d{d} {nm} cp {r.cp:.3f}")
    ok = not fails
    _report(capsys, 5, "error-rate Monte Carlo table", ok, "; ".join(fails))
    assert ok, fails


def test_criterion_6_naive_bias_law(capsys):
    # population: s = 0.5 doubles the naive Wald
    theta = _oracle_theta()
    assert float(1.0 - theta.m0[0] - theta.m1[0]) == 0.5
    ds = _exact_count_dataset(theta)
    wald = float(wald_iv(cell_stats(ds)).coef[1])
    pop_err = abs(wald - 2.0 * theta.beta_star)

    # finite just-identified sample: the attenuation identity holds exactly
    sample, _ = generate(DesignSpec(1), 4000, seed=3)
    table = cell_stats(sample)
    est = estimate(table, GmmConfig())
    s_hat = 1.0 - float(est.theta_hat.m0[0]) - float(est.theta_hat.m1[0])
    wald_hat = float(wald_iv(table).coef[1])
    samp_err = abs(wald_hat * s_hat - float(est.theta_flat[0]))

    ok = pop_err <= 1e-10 and samp_err <= 1e-8
    _report(capsys, 6, "naive Wald bias law", ok,
            f"pop err {pop_err:.1e}, sample err {samp_err:.1e}")
    assert ok


EMPIRICAL_PATHS = [
    Path(__file__).resolve().parent.parent / "data" / "schooling.csv",
    Path(os.environ.get("MISLATE_EMPIRICAL_CSV", "")),
]


def test_criterion_7_empirical_replication(capsys):
    path = next((p for p in EMPIRICAL_PATHS if str(p) and p.is_file()), None)
    if path is None:
        with capsys.disabled():
            print("\nACCEPTANCE 7 empirical replication: SKIPPED"
                  "  (no returns-to-schooling CSV present)")
        pytest.skip("empirical data file not present")
    # the full table comparison would go here; no public fixture ships with
    # the repository, so in practice this branch only runs user-side
    pytest.fail(f"empirical comparison not implemented for {path}")


def test_criterion_8_property_suite(capsys, rng):
    checks = {}

    w1 = _w_triple(0.4, 0.7, 0.3, 0.6)
    w2 = _w_triple(0.7, 0.4, 0.6, 0.3)
    checks["antisymmetry"] = np.max(np.abs(w1 + w2)) < 1e-12

    a, _ = generate(DesignSpec(2), 2000, seed=9, rep=4)
    b, _ = generate(DesignSpec(2), 2000, seed=9, rep=4)
    checks["determinism"] = np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)

    ds, _ = generate(DesignSpec(1), 3000, seed=5)
    est = estimate(cell_stats(ds))
    checks["psd covariance"] = bool(np.all(np.linalg.eigvalsh(est.vcov) > -1e-12))

    checks["overid counts"] = (
        _n_overid(5, Mode.CASE_I) == 2 * 5 - 6
        and _n_overid(5, Mode.CASE_II) == 2 * 5 - 4
    )

    theta = _oracle_theta()
    cells = _exact_count_dataset(theta, per_cell=200)
    jac = gbar_and_jacobian(MomentSums.of(cell_stats(cells)), theta.pack())[1]
    # rows (K = 2): r 0, p[z=0, v=0] 1, LATE 10
    checks["jacobian slopes"] = (
        abs(jac[10, 0] - 1.0) < 1e-6
        and abs(jac[0, 2] - 1.0) < 1e-6
        and abs(jac[1, 4] - 0.25 * float(1.0 - theta.m0[0] - theta.m1[0])) < 1e-6
    )

    _, latent = generate(DesignSpec(3), 100_000, seed=8)
    ds3, _ = generate(DesignSpec(3), 100_000, seed=8)
    t_z0 = (-1.0 + 0 + ds3.v - latent.u1 > 0)
    t_z1 = (-1.0 + 1 + ds3.v - latent.u1 > 0)
    checks["defier share zero"] = not np.any(t_z0 & ~t_z1)

    failed = [k for k, v in checks.items() if not v]
    ok = not failed
    _report(capsys, 8, "property suite", ok, "; ".join(failed))
    assert ok, failed
