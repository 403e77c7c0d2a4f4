from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import erot
from erot.errors import EmptyInput, NonUniquePotentials
from erot.resampling import (
    DIVERGENCE_CLT,
    PLAN_FUNCTIONAL_CLT,
    VALUE_CLT,
    ExperimentConfig,
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

    def test_failed_conditions_warn(self):
        sp = erot.integer_grid(20)
        poly = erot.polynomial_measure(sp, 2.0)
        geo = erot.geometric_measure(sp, 0.5)
        m, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        report = erot.check_value_conditions(poly, geo, prof)
        assert report.verdict == "Fail"
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=100, replications=2, seed=0)
        with pytest.warns(RuntimeWarning):
            mc_clt_experiment(poly, geo, m, cfg, conditions=report)

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
        assert cfg.delta == pytest.approx(0.75)
        assert cfg.rate == pytest.approx(np.sqrt(100 * 300 / 400))


class TestVanishingLambda:
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
