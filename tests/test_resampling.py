from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import erot
from erot.errors import ConfigParse, EmptyInput, NonUniquePotentials
from erot.resampling import (
    DIVERGENCE_CLT,
    PLAN_FUNCTIONAL_CLT,
    VALUE_CLT,
    ExperimentConfig,
    _normal_or_degenerate_cdf,
    bootstrap_plan_functional,
    bootstrap_value,
    ks_statistic,
    mc_clt_experiment,
    vanishing_lambda_experiment,
)


def _instance(seed, n=4, lam=1.0):
    rng = np.random.default_rng(seed)
    sp = erot.integer_grid(n)
    r = erot.validate_measure(rng.dirichlet(np.ones(n) * 4), sp)
    s = erot.validate_measure(rng.dirichlet(np.ones(n) * 4), sp)
    m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, lam)
    return r, s, m


def _refuse(*args, **kwargs):
    raise AssertionError("not expected to run")


class TestKSStatistic:
    def test_sample_against_own_cdf_is_small(self):
        draws = np.random.default_rng(0).standard_normal(10_000)
        assert ks_statistic(draws, stats.norm.cdf) <= 0.02

    def test_two_sample_identical_is_zero(self):
        draws = np.random.default_rng(1).standard_normal(500)
        assert ks_statistic(draws, draws) == pytest.approx(0.0, abs=1e-12)

    def test_constant_sample_vs_continuous(self):
        c = 0.7
        draws = np.full(100, c)
        expected = max(stats.norm.cdf(c), 1 - stats.norm.cdf(c))
        assert ks_statistic(draws, stats.norm.cdf) == pytest.approx(expected, abs=1e-10)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ks_statistic(np.empty(0), stats.norm.cdf)

    @pytest.mark.parametrize("sd", [1.0, 0.37, 2.5e-7, 13.0])
    def test_normal_reference_bitwise_against_scipy_stats(self, sd):
        x = np.random.default_rng(3).standard_normal(100_000) * 3 * sd
        x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, 1e300, -5e-324]])
        sigma2 = sd * sd
        got = _normal_or_degenerate_cdf(sigma2)(x)
        want = stats.norm.cdf(x, scale=np.sqrt(sigma2))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBootstrap:
    def test_point_mass_sample_all_zero(self):
        r, s, m = _instance(0)
        sample = np.zeros(50, dtype=int)  # every observation is atom 0
        draws = bootstrap_value(sample, s, m, 1.0, B=20, seed=0)
        assert np.allclose(draws, 0.0, atol=1e-12)

    def test_single_replication_reproducible(self):
        r, s, m = _instance(1)
        rng = np.random.default_rng(5)
        sample = rng.choice(4, size=80, p=r.weights)
        a = bootstrap_value(sample, s, m, 1.0, B=1, seed=42)
        b = bootstrap_value(sample, s, m, 1.0, B=1, seed=42)
        assert a.shape == (1,)
        assert np.array_equal(a, b)

    def test_thread_count_independence(self):
        r, s, m = _instance(2)
        sample = np.random.default_rng(6).choice(4, size=60, p=r.weights)
        a = bootstrap_value(sample, s, m, 1.0, B=16, seed=9, threads=1)
        b = bootstrap_value(sample, s, m, 1.0, B=16, seed=9, threads=3)
        assert np.array_equal(a, b)

    def test_constant_functional_all_zero(self):
        r, s, m = _instance(3)
        sample = np.random.default_rng(7).choice(4, size=60, p=r.weights)
        draws = bootstrap_plan_functional(
            sample, s, m, 1.0, f=np.ones((4, 4)), B=12, seed=0
        )
        assert np.allclose(draws, 0.0, atol=1e-10)

    def test_spread_matches_limit_variance(self):
        r, s, m = _instance(4)
        sample = np.random.default_rng(8).choice(4, size=2000, p=r.weights)
        draws = bootstrap_value(sample, s, m, 1.0, B=400, seed=1, threads=2)
        r_hat = erot.empirical_measure(sample, r.space)
        sol = erot.solve(r_hat, s, m, 1.0)
        target = erot.sensitivity.value_variance(sol, r_hat, s)
        assert np.var(draws, ddof=1) == pytest.approx(target, rel=0.4)


class TestMCExperiment:
    def test_value_clt_small_run(self):
        r, s, m = _instance(10)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=1500, replications=300, seed=3)
        rep = mc_clt_experiment(r, s, m, cfg)
        assert rep.target_sigma2 > 0
        assert rep.ks_distance <= 0.12
        assert abs(rep.sample_mean) <= 4 * np.sqrt(rep.target_sigma2 / 300) + 0.1
        assert rep.standardized_draws.shape == (300,)

    def test_degenerate_target_symmetric_uniform(self):
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=500, replications=50, seed=0)
        rep = mc_clt_experiment(u, u, m, cfg)
        assert rep.target_sigma2 == pytest.approx(0.0, abs=1e-10)

    def test_reproducible_and_thread_independent(self):
        r, s, m = _instance(11)
        base = dict(statistic=VALUE_CLT, n=300, replications=24, seed=12)
        a = mc_clt_experiment(r, s, m, ExperimentConfig(**base, threads=1))
        b = mc_clt_experiment(r, s, m, ExperimentConfig(**base, threads=3))
        assert np.array_equal(a.standardized_draws, b.standardized_draws)

    def test_divergence_clt_runs(self):
        r, s, m = _instance(12)
        cfg = ExperimentConfig(statistic=DIVERGENCE_CLT, n=400, replications=40, seed=2)
        rep = mc_clt_experiment(r, s, m, cfg)
        assert rep.target_sigma2 > 0
        assert rep.standardized_draws.shape == (40,)

    def test_plan_functional_requires_table(self):
        r, s, m = _instance(13)
        cfg = ExperimentConfig(statistic=PLAN_FUNCTIONAL_CLT, n=200, replications=4)
        with pytest.raises(ValueError):
            mc_clt_experiment(r, s, m, cfg)

    def test_plan_functional_table_checked_before_any_solve(self, monkeypatch):
        r, s, m = _instance(13)
        monkeypatch.setattr(erot.resampling, "solve", _refuse)
        cfg = ExperimentConfig(statistic=PLAN_FUNCTIONAL_CLT, n=200, replications=4,
                               f=np.eye(3))
        with pytest.raises(ConfigParse, match=r"f of shape \(4, 4\)"):
            mc_clt_experiment(r, s, m, cfg)

    def test_divergence_clt_reads_no_population_solve(self, monkeypatch):
        # the divergence and its variance solve inside sensitivity/sinkhorn
        r, s, m = _instance(12)
        monkeypatch.setattr(erot.resampling, "solve", _refuse)
        cfg = ExperimentConfig(statistic=DIVERGENCE_CLT, n=400, replications=3, seed=2)
        assert mc_clt_experiment(r, s, m, cfg).standardized_draws.shape == (3,)

    def test_two_sample_reproducible_with_delta_weighted_target(self):
        r, s, m = _instance(8)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=150, m=250, replications=15, seed=6)
        a = mc_clt_experiment(r, s, m, cfg)
        b = mc_clt_experiment(r, s, m, replace(cfg, threads=3))
        assert np.array_equal(a.standardized_draws, b.standardized_draws)
        pop = erot.solve(r, s, m, 1.0)
        assert a.target_sigma2 == erot.value_variance(pop, r, s, "two_sample", 250 / 400)
        assert cfg.design == erot.Design(250 / 400, 150 / 400)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1)
        cfg = ExperimentConfig(n=100, m=300)
        assert cfg.design.w_r == pytest.approx(0.75)
        assert cfg.rate == pytest.approx(np.sqrt(100 * 300 / 400))


class TestVanishingLambda:
    @pytest.mark.parametrize("kw", [dict(lambda_coef=0.0), dict(lambda_coef=np.inf),
                                    dict(lambda_exponent=np.nan)])
    def test_schedule_checked_before_exact_ot(self, monkeypatch, kw):
        r, s, m = _instance(14)
        monkeypatch.setattr(erot.resampling, "exact_ot_small", _refuse)
        with pytest.raises(ConfigParse, match="must be"):
            vanishing_lambda_experiment(r, s, m, sample_sizes=(50,), replications=2, **kw)

    def test_refuses_nonunique_potentials(self):
        sp = erot.integer_grid(3)
        u = erot.validate_measure(np.full(3, 1 / 3), sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        with pytest.raises(NonUniquePotentials):
            vanishing_lambda_experiment(u, u, m, sample_sizes=(50,), replications=2)

    def test_small_run_reproducible(self):
        sp = erot.integer_grid(4)
        rng = np.random.default_rng(20)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        m, _ = erot.build_cost({"family": "custom", "cost": rng.uniform(0, 1, (4, 4))}, sp, sp, 1.0)
        kw = dict(sample_sizes=(100, 400), replications=10, seed=4)
        a = vanishing_lambda_experiment(r, s, m, **kw)
        b = vanishing_lambda_experiment(r, s, m, **kw, threads=2)
        assert np.array_equal(a.standardized_draws, b.standardized_draws)
        assert a.variance_trace == b.variance_trace
        assert a.var_alpha0 > 0
        assert len(a.lambdas) == 2 and a.lambdas[0] > a.lambdas[1]

    def test_draws_independent_of_thread_count(self):
        sp = erot.integer_grid(6)
        r = erot.validate_measure([0.28, 0.22, 0.17, 0.13, 0.11, 0.09], sp)
        s = erot.validate_measure([0.08, 0.12, 0.14, 0.18, 0.21, 0.27], sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        kw = dict(sample_sizes=(60, 120), replications=7, seed=9)
        a = vanishing_lambda_experiment(r, s, m, **kw, threads=1)
        b = vanishing_lambda_experiment(r, s, m, **kw, threads=3)
        assert a.standardized_draws.shape == (7,)
        assert np.array_equal(a.standardized_draws, b.standardized_draws)
        assert a.variance_trace == b.variance_trace


def _count_draw(measure, n, rng):
    """The empirical measure of n observations from `measure`, as counts."""
    return erot.DiscreteMeasure(measure.space, rng.multinomial(n, measure.weights) / n)


class TestCountDrawReplay:
    """Replication i is one rng.multinomial count draw on the generator of
    SeedSequence(seed).spawn(R)[i] (vanishing lambda: spawned per sample size,
    then per replication) and one solve; a cold solve on the replayed counts
    reproduces the returned draw."""

    @pytest.mark.parametrize("m_size", [None, 90], ids=["one-sample", "two-sample"])
    def test_mc_clt(self, m_size):
        r, s, m = _instance(30)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=120, m=m_size, replications=6, seed=31)
        rep = mc_clt_experiment(r, s, m, cfg)
        pop = erot.solve(r, s, m, 1.0)
        for i, ss in enumerate(np.random.SeedSequence(31).spawn(6)):
            rng = np.random.default_rng(ss)
            r_hat = _count_draw(r, 120, rng)
            s_hat = s if m_size is None else _count_draw(s, m_size, rng)
            want = cfg.rate * (erot.solve(r_hat, s_hat, m, 1.0).value - pop.value)
            assert rep.standardized_draws[i] == pytest.approx(want, rel=0, abs=1e-8)

    def test_bootstrap_value(self):
        r, s, m = _instance(32)
        sample = np.random.default_rng(33).choice(4, size=150, p=r.weights)
        draws = bootstrap_value(sample, s, m, 1.0, B=6, seed=34)
        r_hat = erot.empirical_measure(sample, r.space)
        base = erot.solve(r_hat, s, m, 1.0)
        for i, ss in enumerate(np.random.SeedSequence(34).spawn(6)):
            r_star = _count_draw(r_hat, 150, np.random.default_rng(ss))
            want = np.sqrt(150) * (erot.solve(r_star, s, m, 1.0).value - base.value)
            assert draws[i] == pytest.approx(want, rel=0, abs=1e-8)

    def test_vanishing_lambda(self):
        sp = erot.integer_grid(6)
        r = erot.validate_measure([0.28, 0.22, 0.17, 0.13, 0.11, 0.09], sp)
        s = erot.validate_measure([0.08, 0.12, 0.14, 0.18, 0.21, 0.27], sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        sizes, R = (60, 120), 5
        rep = vanishing_lambda_experiment(r, s, m, sample_sizes=sizes, replications=R, seed=35)
        ot = erot.exact_ot_small(r, s, m)
        size_seeds = np.random.SeedSequence(35).spawn(len(sizes))
        for n, size_seed, trace in zip(sizes, size_seeds, rep.variance_trace):
            lam = n ** -0.6
            var_hats, draws = [], []
            for ss in size_seed.spawn(R):
                r_hat = _count_draw(r, n, np.random.default_rng(ss))
                sol = erot.solve(r_hat, s, m, lam)
                mean = sol.alpha @ r_hat.weights
                var_hats.append((sol.alpha - mean) ** 2 @ r_hat.weights)
                draws.append(np.sqrt(n) * (sol.value - ot.value))
            assert trace == pytest.approx(abs(np.mean(var_hats) - rep.var_alpha0), rel=0, abs=1e-8)
        assert rep.standardized_draws == pytest.approx(np.array(draws), rel=0, abs=1e-8)
