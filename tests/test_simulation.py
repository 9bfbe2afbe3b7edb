import collections
import concurrent.futures

import numpy as np
import pytest

from conftest import count_calls
import mislate.simulation
from mislate.baselines import ols, wald_iv
from mislate.data import Mode, cell_stats, validate
from mislate.exceptions import MislateError, NoConvergence
from mislate import gmm
from mislate.gmm import estimate
from mislate.identification import identify
from mislate.simulation import (
    DesignSpec,
    _trunc_moments,
    generate,
    run_study,
    true_params,
)


@pytest.fixture
def norm():
    """scipy's standard normal, the oracle of the normal draws and of
    true_params; a test that takes it skips without scipy."""
    return pytest.importorskip("scipy.stats").norm


def _norm_trunc_moments(norm, c):
    lo, phi = norm.cdf(c), norm.pdf(c)
    return -phi / lo, phi / (1.0 - lo), 1.0 - c * phi / lo


class TestDesignSpec:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DesignSpec(0)
        with pytest.raises(ValueError):
            DesignSpec(7)

    def test_roles(self):
        assert DesignSpec(2).heterogeneous and not DesignSpec(1).heterogeneous
        assert DesignSpec(1).v_in_outcome and not DesignSpec(3).v_in_outcome


class TestGenerate:
    def test_bit_reproducible(self):
        a, _ = generate(DesignSpec(1), 500, seed=42, rep=3)
        b, _ = generate(DesignSpec(1), 500, seed=42, rep=3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.t, b.t)

    @pytest.mark.parametrize("design", [2, 5])
    def test_normal_draws_match_the_norm_ppf_oracle(self, monkeypatch, norm,
                                                   design):
        fast = generate(DesignSpec(design), 5000, seed=11, rep=2)
        monkeypatch.setattr(mislate.simulation, "ndtri", norm.ppf)
        oracle = generate(DesignSpec(design), 5000, seed=11, rep=2)
        for got, want in zip(fast, oracle):
            for name in vars(got):
                g, w = getattr(got, name), getattr(want, name)
                if name == "u1":
                    # the draws themselves, as in test_special.py
                    np.testing.assert_allclose(g, w, rtol=2e-15, atol=0)
                elif isinstance(g, np.ndarray) and g.dtype.kind == "f":
                    # a sum of draws can cancel near 0, so its bound is
                    # relative to the array's largest element
                    np.testing.assert_allclose(
                        g, w, rtol=0, atol=2e-15 * np.abs(w).max())
                else:
                    assert np.array_equal(g, w)

    def test_streams_differ_across_reps_and_seeds(self):
        a, _ = generate(DesignSpec(1), 500, seed=42, rep=0)
        b, _ = generate(DesignSpec(1), 500, seed=42, rep=1)
        c, _ = generate(DesignSpec(1), 500, seed=43, rep=0)
        assert not np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    @pytest.mark.parametrize("seed,rep,message", [
        (-1, 0, "seed must be in 0..2**64-1, got -1"),
        (2 ** 64, 0, "seed must be in 0..2**64-1, got 18446744073709551616"),
        (0, -1, "rep must be in 0..2**64-1, got -1"),
        (0, 2 ** 64, "rep must be in 0..2**64-1, got 18446744073709551616"),
    ], ids=["seed-negative", "seed-2**64", "rep-negative", "rep-2**64"])
    def test_stream_key_halves_are_64_bit(self, seed, rep, message):
        # (seed, 2**64) would otherwise alias the stream of (seed + 1, 0)
        with pytest.raises(ValueError) as err:
            generate(DesignSpec(1), 10, seed=seed, rep=rep)
        assert str(err.value) == message
        top = 2 ** 64 - 1
        assert generate(DesignSpec(1), 10, seed=top, rep=top)[0].n == 10

    @pytest.mark.parametrize("seed,rep", [(0, 0), (1, 7), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_each_sample_draws_the_stream_of_its_own_philox(self, seed, rep):
        # one bit generator is re-keyed for each sample; the second sample's
        # draws are those of a new Philox keyed by (seed, rep)
        n = 40
        ds, latent = generate(DesignSpec(1), n, seed=seed, rep=[rep ^ 1, rep])
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + rep))
        zu, normal, uv, ut = (rng.random(m * n) for m in (1, 2, 1, 1))
        assert np.array_equal(ds.z[1], zu < 0.5)
        assert latent.u1[1].tobytes() == mislate.simulation.ndtri(normal[:n]).tobytes()
        assert np.array_equal(ds.v[1], uv < 0.5)
        t_star = latent.t_star[1]
        assert np.array_equal(ds.t[1], np.where(ut < 0.25, 1 - t_star, t_star))

    def test_shapes_and_mode(self):
        ds, latent = generate(DesignSpec(4), 300, seed=0)
        assert ds.n == 300 and ds.k == 2 and ds.mode is Mode.CASE_II
        assert latent.t_star.shape == (300,)
        assert set(np.unique(ds.t)) <= {0, 1}

    def test_observed_flip_rate(self):
        ds, latent = generate(DesignSpec(1), 1_000_000, seed=5)
        flip = np.mean(ds.t != latent.t_star)
        assert flip == pytest.approx(0.25, abs=0.002)

    def test_repeated_measure_flip_rate(self):
        ds, latent = generate(DesignSpec(5), 1_000_000, seed=5)
        flip = np.mean(ds.v != latent.t_star)
        assert flip == pytest.approx(0.3, abs=0.002)

    def test_no_defiers(self):
        # the threshold rule is monotone in z for every unit
        for d in (1, 5):
            design = DesignSpec(d)
            a, la = generate(design, 200_000, seed=9)
            shift = 1.0 if design.repeated_measure else 1.0
            # recompute t_star under the other instrument value
            if design.repeated_measure:
                t0 = (-0.5 + 0 - la.u1 > 0)
                t1 = (-0.5 + 1 - la.u1 > 0)
            else:
                v = a.v
                t0 = (-1.0 + 0 + v - la.u1 > 0)
                t1 = (-1.0 + 1 + v - la.u1 > 0)
            assert not np.any(t0 & ~t1)

    def test_latent_propensity_matches_probit(self, norm):
        _, latent = generate(DesignSpec(3), 1_000_000, seed=2)
        ds, _ = generate(DesignSpec(3), 1_000_000, seed=2)
        for z in (0, 1):
            share = latent.t_star[ds.z == z].mean()
            expect = 0.5 * (norm.cdf(z - 1.0) + norm.cdf(float(z)))
            assert share == pytest.approx(expect, abs=0.002)

    def test_u2_second_moment(self):
        _, latent = generate(DesignSpec(2), 1_000_000, seed=3)
        assert latent.u2.var() == pytest.approx(0.5, abs=0.005)
        assert np.corrcoef(latent.u1, latent.u2)[0, 1] * np.sqrt(0.5) == \
            pytest.approx(0.05, abs=0.005)

    def test_repeated_measure_v_independent_of_t_given_t_star(self):
        ds, latent = generate(DesignSpec(5), 1_000_000, seed=4)
        for ts in (0, 1):
            mask = latent.t_star == ts
            joint = np.mean(ds.v[mask] * (ds.t[mask] != ts))
            prod = np.mean(ds.v[mask]) * np.mean(ds.t[mask] != ts)
            assert joint == pytest.approx(prod, abs=0.002)


class TestTrueParams:
    def test_first_stage_contrasts(self, norm):
        # binary-covariate designs: average Phi contrast across v
        t1 = true_params(DesignSpec(1))
        expect = 0.5 * (norm.cdf(0.0) + norm.cdf(1.0)) \
            - 0.5 * (norm.cdf(-1.0) + norm.cdf(0.0))
        assert t1.delta_p_star == pytest.approx(expect, abs=1e-12)
        assert t1.delta_p_star == pytest.approx(0.3413, abs=5e-5)
        t5 = true_params(DesignSpec(5))
        assert t5.delta_p_star == pytest.approx(
            norm.cdf(0.5) - norm.cdf(-0.5), abs=1e-12)
        assert t5.delta_p_star == pytest.approx(0.3829, abs=5e-5)

    @pytest.mark.parametrize("c", [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.7])
    def test_trunc_moments_match_the_norm_oracle(self, norm, c):
        # math.erfc and scipy's Cephes erfc differ in the last bit, and at
        # c = -2.5 erfc's slope turns the rounding of -c / sqrt 2 into 7 ulp
        # of Phi(c); taking c * sqrt(1/2) as scipy does gives 1 ulp there but
        # moves Phi(+-1) off norm.cdf, which true_params matches bit for bit,
        # and 1 - Phi(1) by 5 ulp
        np.testing.assert_array_max_ulp(
            np.array(_trunc_moments(c)), np.array(_norm_trunc_moments(norm, c)),
            maxulp=8)

    @pytest.mark.parametrize("design", range(1, 7))
    def test_match_the_norm_cdf_and_pdf_oracle(self, monkeypatch, norm,
                                              design):
        fast = true_params(DesignSpec(design)).pack()
        monkeypatch.setattr(mislate.simulation, "ndtr", norm.cdf)
        monkeypatch.setattr(mislate.simulation, "_trunc_moments",
                            lambda c: _norm_trunc_moments(norm, c))
        oracle = true_params(DesignSpec(design)).pack()
        assert fast.tobytes() == oracle.tobytes()

    def test_error_rates_and_mode(self):
        for d in range(1, 7):
            t = true_params(DesignSpec(d))
            assert float(t.m0[0]) == 0.25 and float(t.m1[0]) == 0.25
            assert t.r == 0.5 and t.mode is Mode.CASE_II
            assert t.beta_star == 1.0

    def test_repeated_measure_bayes_cells(self, norm):
        t = true_params(DesignSpec(5))
        pz = norm.cdf(-0.5)
        expect = 0.7 * pz / (0.7 * pz + 0.3 * (1 - pz))
        assert t.p_star[0, 1] == pytest.approx(expect, abs=1e-12)
        # V=1 raises and V=0 lowers the posterior treatment probability
        assert t.p_star[0, 1] > pz > t.p_star[0, 0]

    def test_cell_probabilities_against_simulation(self):
        for d in (2, 6):
            t = true_params(DesignSpec(d))
            ds, latent = generate(DesignSpec(d), 2_000_000, seed=12)
            for z in (0, 1):
                for v in (0, 1):
                    mask = (ds.z == z) & (ds.v == v)
                    assert latent.t_star[mask].mean() == pytest.approx(
                        t.p_star[z, v], abs=0.002)

    def test_tau_star_against_simulation(self):
        from mislate.simulation import _tau_star_cell

        # covariate designs: the latent contrast lives cell by cell, and the
        # reported tau_z* is the equal-weight average over v
        for d in (1, 2):
            design = DesignSpec(d)
            t = true_params(design)
            ds, latent = generate(design, 2_000_000, seed=13)
            for z in (0, 1):
                cells = []
                for v in (0, 1):
                    mask = (ds.z == z) & (ds.v == v)
                    y1 = latent.y1[mask & (latent.t_star == 1)].mean()
                    y0 = latent.y0[mask & (latent.t_star == 0)].mean()
                    cells.append(y1 - y0)
                    assert y1 - y0 == pytest.approx(
                        _tau_star_cell(design, z + v - 1.0), abs=0.01)
                assert np.mean(cells) == pytest.approx(
                    float(t.tau_star[z]), abs=0.01)

        # repeated-measure designs: V is independent of the outcome given the
        # true treatment, so the pooled-by-z contrast is the cell contrast
        for d in (5, 6):
            t = true_params(DesignSpec(d))
            ds, latent = generate(DesignSpec(d), 2_000_000, seed=13)
            for z in (0, 1):
                mask = ds.z == z
                y1 = latent.y1[mask & (latent.t_star == 1)].mean()
                y0 = latent.y0[mask & (latent.t_star == 0)].mean()
                assert y1 - y0 == pytest.approx(float(t.tau_star[z]), abs=0.005)

    def test_complier_effect_near_one(self):
        # E(Y1 - Y0 | complier): in designs 1-2 a unit complies, taking
        # T* = 1 at z = 1 and T* = 0 at z = 0, when V - 1 <= U1 < V; the
        # effect is 1 exactly when it is homogeneous, and slightly off 1
        # otherwise, because U2 correlates with U1
        def complier_effect(design, n):
            ds, latent = generate(DesignSpec(design), n, seed=0)
            complier = (latent.u1 >= ds.v - 1.0) & (latent.u1 < ds.v)
            return float((latent.y1 - latent.y0)[complier].mean())

        assert complier_effect(1, 10 ** 6) == 1.0
        assert complier_effect(2, 4 * 10 ** 6) == pytest.approx(1.0, abs=0.02)


class TestRunStudy:
    def test_deterministic_and_rmse_identity(self):
        design = DesignSpec(1)
        a = run_study(design, n=1000, reps=30, seed=3)
        b = run_study(design, n=1000, reps=30, seed=3)
        assert a == b
        for row in a.rows:
            assert row.rmse ** 2 == pytest.approx(
                row.bias ** 2 + row.sd ** 2, abs=1e-12)

    def test_single_rep_degenerate_summaries(self):
        s = run_study(DesignSpec(1), n=2000, reps=1, seed=6)
        row = s.row("beta_star", "gmm")
        assert row.sd == 0.0
        assert row.rmse == pytest.approx(abs(row.bias), abs=1e-12)
        assert row.cp in (0.0, 1.0)

    def test_gmm_failure_is_counted_by_cause(self, monkeypatch):
        # a block fits GMM through one gmm._fit of its stack, which solves a
        # table that is not a closed form alone; the solve's error is the
        # replication's cause
        fits = count_calls(monkeypatch, gmm._fit)
        solves = []

        def failing(*args):
            solves.append(args)
            raise MislateError("solve called")

        monkeypatch.setattr(gmm, "_is_closed", lambda *args: False)
        monkeypatch.setattr(gmm, "_solve", failing)
        s = run_study(DesignSpec(1), n=1000, reps=5, seed=1)
        assert len(fits) == 1 and len(solves) == 5
        assert s.n_failed == 5 and s.rows == []
        assert s.failures == {"MislateError": 5}

    def test_a_block_identifies_each_table_once(self, monkeypatch):
        # design 4, seed 0: some replications take the solver; the block is
        # identified as one stack, and only the solver's tables are
        # validated, each once
        solver = []
        for rep in range(12):
            table = cell_stats(generate(DesignSpec(4), 1000, 0, rep)[0])
            try:
                closed_form = identify(table, table.mode).theta.pack()
            except MislateError:
                closed_form = None
            if closed_form is None or not gmm._is_closed(closed_form, 2,
                                                         table.mode):
                solver.append(table.n_zvt.tobytes())
        assert 0 < len(solver) < 12
        identified = count_calls(monkeypatch, identify)
        validated = count_calls(monkeypatch, validate)
        s = run_study(DesignSpec(4), n=1000, reps=12, seed=0)
        assert s.n_failed == 0
        assert [len(stats.n) for stats, _ in identified] == [12]
        assert [stats.n_zvt.tobytes() for stats, in validated] == solver

    def test_each_replication_is_tabulated_once(self, monkeypatch):
        # one tabulation per block, of every replication in it
        calls = count_calls(monkeypatch, cell_stats)
        s = run_study(DesignSpec(1), n=1000, reps=3, seed=1)
        assert s.n_failed == 0 and len(s.rows) == 6
        assert len(calls) == 1 and calls[0][0].y.shape == (3, 1000)

    def test_moderate_study_tracks_population_values(self):
        s = run_study(DesignSpec(1), n=1000, reps=60, seed=11)
        assert s.n_failed <= 3
        assert abs(s.row("beta_star", "gmm").bias) < 0.25
        # naive IV inflates the LATE by roughly 1/s = 2
        assert s.row("beta_star", "iv").bias == pytest.approx(1.05, abs=0.3)
        # naive first stage attenuated by s = 0.5
        assert s.row("delta_p_star", "ols").bias == pytest.approx(-0.17, abs=0.05)
        assert 0.8 <= s.row("beta_star", "gmm").cp <= 1.0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError):
            run_study(DesignSpec(1), n=1000, reps=2, seed=1, workers=workers)

    @pytest.mark.parametrize("over,message", [
        (dict(n=0), "n must be at least 1, got 0"),
        (dict(reps=0), "reps must be at least 1, got 0"),
        (dict(reps=-1), "reps must be at least 1, got -1"),
        (dict(ci_level=1.5), "ci_level must be in (0,1), got 1.5"),
        (dict(ci_level=0.0), "ci_level must be in (0,1), got 0.0"),
        (dict(seed=-1), "seed must be in 0..2**64-1, got -1"),
        (dict(seed=2 ** 64),
         "seed must be in 0..2**64-1, got 18446744073709551616"),
    ], ids=["n-0", "reps-0", "reps-negative", "level-1.5", "level-0",
            "seed-negative", "seed-2**64"])
    def test_rejects_bad_size_or_level_up_front(self, monkeypatch, over,
                                                message):
        def no_rep(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(mislate.simulation, "_run_block", no_rep)
        args = dict(n=500, reps=3, seed=0) | over
        with pytest.raises(ValueError) as err:
            run_study(DesignSpec(1), **args)
        assert str(err.value) == message

    def test_worker_pool_is_bounded(self, monkeypatch):
        # a fake pool that runs in this process records the requested size,
        # so no worker process is started
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        # run_study imports the executor only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(mislate.simulation.os, "cpu_count", lambda: 4)
        design = DesignSpec(1)
        serial = run_study(design, n=1000, reps=6, seed=2, workers=1)
        assert sizes == []
        assert run_study(design, n=1000, reps=6, seed=2, workers=10 ** 6) == serial
        run_study(design, n=1000, reps=3, seed=2, workers=10 ** 6)
        run_study(design, n=1000, reps=6, seed=2, workers=2)
        assert sizes == [4, 3, 2]
        monkeypatch.setattr(mislate.simulation.os, "cpu_count", lambda: None)
        run_study(design, n=1000, reps=6, seed=2, workers=8)
        assert sizes == [4, 3, 2]


class TestBlocks:
    @pytest.mark.parametrize("design", range(1, 7))
    def test_a_block_is_each_replication_alone(self, design):
        # the block's draws and tables are the bits of each replication's
        # own, and each fit of the block's stack, closed form or solved, is
        # the bits of estimate's
        reps = range(3, 23)
        ds, latent = generate(DesignSpec(design), 1000, 7, reps)
        stats = cell_stats(ds)
        fit, closed = gmm._fit(stats, "identity"), 0
        slopes = wald_iv(stats), ols(stats, outcome="t", regressors=("z",))
        for i, r in enumerate(reps):
            ds_r, latent_r = generate(DesignSpec(design), 1000, 7, r)
            for got, want in ((ds, ds_r), (latent, latent_r)):
                for name, value in vars(want).items():
                    if isinstance(value, np.ndarray):
                        assert getattr(got, name)[i].tobytes() == value.tobytes()
            table = cell_stats(ds_r)
            for name in ("n_zvt", "sum_y", "ss_y"):
                assert getattr(stats, name)[i].tobytes() == getattr(table, name).tobytes()
            alone = wald_iv(table), ols(table, outcome="t", regressors=("z",))
            for got, want in zip(slopes, alone):
                for name in ("coef", "robust_se", "vcov"):
                    assert getattr(got, name)[i].tobytes() == getattr(want, name).tobytes()
            try:
                closed_form = identify(table, table.mode).theta.pack()
            except MislateError:
                closed_form = None
            closed += (closed_form is not None
                       and gmm._is_closed(closed_form, 2, table.mode))
            est = estimate(table, gmm.GmmConfig(weighting="identity"))
            assert fit.errors[i] is None
            assert fit.x[i].tobytes() == est.theta_flat.tobytes()
            assert gmm._se(fit.vcov[i]).tobytes() == est.se.tobytes()
            assert fit.converged[i] == est.converged
        assert 10 <= closed < 20

    def test_the_summary_depends_on_neither_block_size_nor_workers(
            self, monkeypatch):
        class FakePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(mislate.simulation.os, "cpu_count", lambda: 2)
        args = dict(n=500, reps=11, seed=4)
        expected = run_study(DesignSpec(4), **args)
        assert expected.n_failed < 11 and len(expected.rows) == 6
        blocks = count_calls(monkeypatch, generate)
        for cap in (1, 3 * 500, mislate.simulation._BLOCK_DRAWS):
            monkeypatch.setattr(mislate.simulation, "_BLOCK_DRAWS", cap)
            for workers in (1, 2):
                blocks.clear()
                assert run_study(DesignSpec(4), workers=workers, **args) == expected
                sizes = [len(call[3]) for call in blocks]
                assert sum(sizes) == 11 and len(sizes) >= workers
                assert max(sizes) <= max(1, cap // 500)

    def test_the_retry_path_fills_the_array_as_the_stack_does(self,
                                                              monkeypatch):
        # design 4, seed 0: some replications take the solver, so both
        # kinds of fit fill the array
        task = (4, 1000, 0, range(12))
        causes, fits = mislate.simulation._run_block(task)
        assert causes == [None] * 12 and fits.shape == (12, 6, 2)
        fit, alone = mislate.simulation._fit, []

        def trips_on_a_stack(stats):
            if len(stats.n) > 1:
                raise MislateError("a stacked check tripped")
            alone.append(stats)
            if len(alone) == 6:
                raise NoConvergence("this replication fails alone")
            return fit(stats)

        monkeypatch.setattr(mislate.simulation, "_fit", trips_on_a_stack)
        retry_causes, retry_fits = mislate.simulation._run_block(task)
        assert len(alone) == 12
        assert retry_causes == [None] * 5 + ["NoConvergence"] + [None] * 6
        assert np.isnan(retry_fits[5]).all()
        kept = np.arange(12) != 5
        assert retry_fits[kept].tobytes() == fits[kept].tobytes()

    def test_a_sample_larger_than_a_block_runs_alone(self, monkeypatch):
        monkeypatch.setattr(mislate.simulation, "_BLOCK_DRAWS", 999)
        blocks = count_calls(monkeypatch, generate)
        run_study(DesignSpec(1), n=1000, reps=3, seed=0)
        assert [list(call[3]) for call in blocks] == [[0], [1], [2]]

    def test_failures_are_counted_by_cause(self):
        # at n = 40 one replication has no first-stage contrast, which fails
        # its block's baselines, and one fit does not converge
        s = run_study(DesignSpec(2), n=40, reps=12, seed=0)
        causes = []
        for rep in range(12):
            table = cell_stats(generate(DesignSpec(2), 40, 0, rep)[0])
            try:
                wald_iv(table)
                ols(table, outcome="t", regressors=("z",))
                if not estimate(table).converged:
                    causes.append("NoConvergence")
            except MislateError as exc:
                causes.append(type(exc).__name__)
        assert s.failures == {"WeakFirstStage": 1, "NoConvergence": 1}
        assert s.failures == dict(collections.Counter(causes))
        assert sum(s.failures.values()) == s.n_failed
