"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package at desk scale:
solver accuracy against closed forms and an exact-transport oracle,
quantitative potential/plan bounds, derivative correctness by finite
differences, the Gaussian limit theorems by Monte Carlo, bootstrap
consistency, the vanishing-regularization regime, the summability checkers,
and the degenerate edge cases.

Sample sizes on the 21-atom geometric reference instance (q = 0.7,
c = |x - y|, lambda = 1).  The limit theorems promise nothing at a fixed n,
and this instance is far from its limit at small n: its lightest atom has
mass 2.4e-4, and its cost oscillation of 20 puts the e-weights in the
theorems' constants at e^10.  The rule is that every atom has an expected
count of at least about 50.  So the Monte Carlo and bootstrap checks on
this instance run at REF_VALUE_N = 2e5 (value CLT and bootstrap; lightest
expected count 48) and REF_COST_N = 5e5 (Sinkhorn cost; 120).  Below these
sizes the second-order terms of the plug-in statistics dominate.  Measured
with the tests' seeds and 2000 replications:
  * Value CLT at n = 2e3 / 2e4 / 2e5: KS 0.137 / 0.055 / 0.027,
    standardized mean shift 0.47 / 0.17 / 0.06, variance ratio
    1.12 / 1.02 / 0.99.  The plug-in value is convex in the empirical
    weights, so the mean shift is about tr(H S)/(2 sqrt(n) sigma) (H the
    value Hessian, S the multinomial covariance) and falls like 1/sqrt(n).
  * Sinkhorn cost at n = 5e3 / 5e4 / 5e5: MC variance 0.057 / 0.019 /
    0.0138 against the target 0.0129 (ratio 4.40 / 1.469 / 1.073),
    standardized mean shift 2.72 / 0.94 / 0.27.  The variance excess falls
    like 1/n, as the delta method's second-order remainder does.  The
    plug-in target itself is pinned by an independent finite-difference
    gradient oracle (test_plugin_variance_against_fd_oracle).
  * Bootstrap against the value-CLT draws: KS 0.084 at n = 2e3 and 0.031
    at n = 2e5.  The bootstrap variance inherits the drawn sample's
    empirical potential spread, which fluctuates by a factor of ~3 across
    samples of size 2e3.
A replication draws the 21 atom counts, n r_hat ~ Multinomial(n, r), and
runs one warm-started solve on them, so its cost does not depend on n.
Passing counterparts on light-tailed instances, whose atoms all have large
expected counts at n = 2000 and 5000, check the same formulas at those
sizes.
"""

import time

import numpy as np
import pytest

import erot
from erot.resampling import (
    SINKHORN_COST_CLT,
    VALUE_CLT,
    ExperimentConfig,
    bootstrap_value,
    ks_statistic,
    mc_clt_experiment,
    vanishing_lambda_experiment,
)
from erot.sensitivity import (
    build_operators,
    divergence_variance,
    functional_covariance,
    plan_derivative,
    sinkhorn_cost_variance,
    value_derivative,
)

import oracles

THREADS = 4

# Sample sizes on the reference instance: every atom has an expected count
# of at least about 50 (see the module docstring).  The bootstrap test
# compares against the reference_value_mc draws, so it uses REF_VALUE_N too.
REF_VALUE_N = 200_000
REF_COST_N = 500_000


def _random_bounded_instance(rng):
    nx = int(rng.integers(2, 51))
    ny = int(rng.integers(2, 51))
    spx = erot.integer_grid(nx)
    spy = erot.integer_grid(ny)
    r = erot.validate_measure(rng.dirichlet(np.ones(nx)), spx)
    s = erot.validate_measure(rng.dirichlet(np.ones(ny)), spy)
    lam = float(rng.uniform(0.05, 10.0))
    m, prof = erot.build_cost(
        {"family": "bounded", "cost": rng.uniform(0, 2, (nx, ny))}, spx, spy, lam
    )
    return r, s, m, prof, lam


@pytest.fixture(scope="module")
def solved_instances():
    rng = np.random.default_rng(2024)
    out = []
    start = time.perf_counter()
    for _ in range(200):
        r, s, m, prof, lam = _random_bounded_instance(rng)
        sol = erot.solve(r, s, m, lam)
        out.append((r, s, m, prof, lam, sol))
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def reference_instance():
    sp = erot.integer_grid(21)
    r = erot.geometric_measure(sp, 0.7)
    s = erot.geometric_measure(sp, 0.7)
    m, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
    return r, s, m, prof


@pytest.fixture(scope="module")
def reference_value_mc(reference_instance):
    r, s, m, _ = reference_instance
    cfg = ExperimentConfig(
        statistic=VALUE_CLT, n=REF_VALUE_N, replications=2000, lam=1.0,
        seed=77, threads=THREADS,
    )
    return mc_clt_experiment(r, s, m, cfg)


class TestSolverCorrectness:
    def test_residual_gap_and_runtime(self, solved_instances):
        instances, elapsed = solved_instances
        assert elapsed < 30.0
        for r, s, m, _, lam, sol in instances:
            res = np.abs(sol.plan.sum(axis=1) - r.weights).sum() + np.abs(
                sol.plan.sum(axis=0) - s.weights
            ).sum()
            assert res <= 1e-10
            # duality gap with mutual information recomputed from the plan,
            # not read back from the solver's own bookkeeping
            mi = erot.mutual_information(sol.plan, r, s)
            primal = sol.cost_part + lam * mi
            dual = sol.alpha @ r.weights + sol.beta @ s.weights
            assert abs(primal - dual) <= 1e-8 * (1 + abs(sol.value))


class TestClosedForm:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_two_by_two_diagonal_entry(self, lam):
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        m, _ = erot.build_cost(
            {"family": "bounded", "kind": "discrete_metric"}, sp, sp, lam
        )
        sol = erot.solve(u, u, m, lam)
        t = np.exp(1 / lam) / (2 * (1 + np.exp(1 / lam)))
        assert sol.plan[0, 0] == pytest.approx(t, abs=1e-8)
        assert sol.plan[1, 1] == pytest.approx(t, abs=1e-8)


class TestPotentialPlanBounds:
    def test_no_violation_above_tolerance(self, solved_instances):
        instances, _ = solved_instances
        for r, s, m, _, lam, sol in instances:
            report = erot.verify_bounds(sol, m, r, s)
            assert report.max_violation <= 1e-7


class TestDerivativeCheck:
    TS = (1e-2, 1e-3, 1e-4)

    def test_finite_difference_slopes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sp = erot.integer_grid(5)
            r = erot.validate_measure(rng.dirichlet(np.ones(5) * 4), sp)
            s = erot.validate_measure(rng.dirichlet(np.ones(5) * 4), sp)
            lam = float(rng.uniform(0.5, 2.0))
            m, _ = erot.build_cost(
                {"family": "bounded", "cost": rng.uniform(0, 2, (5, 5))}, sp, sp, lam
            )
            sol = erot.solve(r, s, m, lam)
            ops = build_operators(sol, r, s, m)
            hx = rng.normal(size=5) * 0.02
            hy = rng.normal(size=5) * 0.02
            hx -= hx.mean()
            hy -= hy.mean()
            hX = erot.SignedVector(sp, hx)
            hY = erot.SignedVector(sp, hy)
            d_plan = plan_derivative(ops, hX, hY)
            d_val = value_derivative(sol, hX, hY)
            assert np.abs(d_plan.sum(axis=1) - hx).max() <= 1e-9
            assert np.abs(d_plan.sum(axis=0) - hy).max() <= 1e-9
            plan_err, val_err = [], []
            for t in self.TS:
                rt = erot.validate_measure(r.weights + t * hx, sp)
                st = erot.validate_measure(s.weights + t * hy, sp)
                pert = erot.solve(rt, st, m, lam)
                plan_err.append(np.abs((pert.plan - sol.plan) / t - d_plan).max())
                val_err.append(abs((pert.value - sol.value) / t - d_val))
            logt = np.log(self.TS)
            assert np.polyfit(logt, np.log(plan_err), 1)[0] >= 0.9
            assert np.polyfit(logt, np.log(val_err), 1)[0] >= 0.9


class TestContraction:
    def test_contraction_and_neumann_agreement(self):
        rng = np.random.default_rng(51)
        checked_neumann = 0
        for _ in range(30):
            n = int(rng.integers(3, 12))
            sp = erot.integer_grid(n)
            r = erot.validate_measure(rng.dirichlet(np.ones(n) * 3), sp)
            s = erot.validate_measure(rng.dirichlet(np.ones(n) * 3), sp)
            lam = float(rng.uniform(0.3, 5.0))
            m, _ = erot.build_cost(
                {"family": "bounded", "cost": rng.uniform(0, 2, (n, n))}, sp, sp, lam
            )
            sol = erot.solve(r, s, m, lam)
            ops = build_operators(sol, r, s, m)
            assert ops.contraction_norm < 1.0
            if ops.contraction_norm <= 0.9:
                hx = rng.normal(size=n)
                hy = rng.normal(size=n)
                hX = erot.SignedVector(sp, hx - hx.mean())
                hY = erot.SignedVector(sp, hy - hy.mean())
                a = plan_derivative(ops, hX, hY)
                b = oracles.neumann_plan_derivative(sol.plan, r, s, hX.entries, hY.entries)
                assert np.abs(a - b).max() <= 1e-8
                checked_neumann += 1
        assert checked_neumann > 0


class TestValueCLT:
    @pytest.mark.slow
    def test_ks_against_gaussian_limit(self, reference_value_mc):
        rep = reference_value_mc
        assert rep.runtime <= 600
        assert rep.target_sigma2 > 0
        # diagnostics: the plug-in value is convex in the empirical weights,
        # so the standardized draws carry an O(1/sqrt(n)) mean shift
        bias = rep.sample_mean / np.sqrt(rep.target_sigma2)
        print(
            f"\nvalue-CLT diagnostics at n={REF_VALUE_N}: "
            f"ks={rep.ks_distance:.4f}, standardized mean shift={bias:.4f} "
            f"(second-order bias ~ tr(H S)/(2 sqrt(n) sigma)), "
            f"sample var / target = {rep.sample_var / rep.target_sigma2:.4f}"
        )
        assert rep.ks_distance <= 0.05, (
            f"KS distance {rep.ks_distance:.4f} exceeds 0.05 at "
            f"n={REF_VALUE_N}: the draws are shifted by {bias:.3f} standard "
            f"deviations and their variance is "
            f"{rep.sample_var / rep.target_sigma2:.3f}x the target"
        )

    @pytest.mark.slow
    def test_ks_on_light_tailed_instance(self):
        # same theorem, an instance whose atoms all have large expected
        # counts at n = 2000: the Gaussian limit is already accurate
        rng = np.random.default_rng(606)
        sp = erot.integer_grid(6)
        r = erot.validate_measure(rng.dirichlet(np.ones(6) * 8), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(6) * 8), sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=2000, replications=2000,
                               lam=1.0, seed=607, threads=THREADS)
        rep = mc_clt_experiment(r, s, m, cfg)
        assert rep.ks_distance <= 0.05


class TestSinkhornCostCLT:
    @pytest.mark.slow
    def test_mc_variance_matches_plugin(self, reference_instance):
        r, s, m, _ = reference_instance
        cfg = ExperimentConfig(
            statistic=SINKHORN_COST_CLT, n=REF_COST_N, replications=2000,
            lam=1.0, seed=78, threads=THREADS,
        )
        rep = mc_clt_experiment(r, s, m, cfg)
        ratio = rep.sample_var / rep.target_sigma2
        bias = rep.sample_mean / np.sqrt(rep.target_sigma2)
        print(
            f"\nsinkhorn-cost diagnostics at n={REF_COST_N}: "
            f"mc var={rep.sample_var:.5f}, "
            f"plug-in target={rep.target_sigma2:.5f} (ratio {ratio:.3f}), "
            f"standardized mean shift={bias:.4f}"
        )
        assert abs(ratio - 1) <= 0.10, (
            f"MC variance is {ratio:.3f}x the limit variance at "
            f"n={REF_COST_N}"
        )

    def test_plugin_variance_against_fd_oracle(self, reference_instance):
        # independent check of the plug-in target on the same instance: a
        # central finite-difference gradient of the Sinkhorn cost pushed
        # through the multinomial covariance
        r, s, m, _ = reference_instance
        sol = erot.solve(r, s, m, 1.0)
        ops = build_operators(sol, r, s, m)
        target = sinkhorn_cost_variance(ops, r, s, m)
        g = np.zeros(r.space.size)
        t = 1e-6
        for k in range(r.space.size):
            h = -r.weights.copy()
            h[k] += 1.0
            up = erot.solve(erot.validate_measure(r.weights + t * h, r.space), s, m, 1.0)
            dn = erot.solve(erot.validate_measure(r.weights - t * h, r.space), s, m, 1.0)
            g[k] = (up.cost_part - dn.cost_part) / (2 * t)
        fd = float(g @ oracles.multinomial_covariance(r.weights) @ g)
        assert target == pytest.approx(fd, rel=1e-5)

    @pytest.mark.slow
    def test_mc_variance_on_light_tailed_instance(self):
        rng = np.random.default_rng(700)
        sp = erot.integer_grid(5)
        r = erot.validate_measure(rng.dirichlet(np.ones(5) * 3), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(5) * 3), sp)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 1, (5, 5))}, sp, sp, 1.0
        )
        sol = erot.solve(r, s, m, 1.0)
        ops = build_operators(sol, r, s, m)
        target = sinkhorn_cost_variance(ops, r, s, m)
        cfg = ExperimentConfig(statistic=SINKHORN_COST_CLT, n=5000,
                               replications=2000, lam=1.0, seed=701,
                               threads=THREADS)
        rep = mc_clt_experiment(r, s, m, cfg)
        assert rep.target_sigma2 == pytest.approx(target, rel=1e-12)
        assert abs(rep.sample_var / target - 1) <= 0.10

    def test_cost_path_equals_functional_path(self, reference_instance):
        r, s, m, _ = reference_instance
        sol = erot.solve(r, s, m, 1.0)
        ops = build_operators(sol, r, s, m)
        direct = sinkhorn_cost_variance(ops, r, s, m)
        generic = float(functional_covariance(ops, r, s, [m.cost])[0, 0])
        assert abs(direct - generic) <= 1e-9


class TestBootstrap:
    @pytest.mark.slow
    def test_bootstrap_matches_mc_law(self, reference_instance, reference_value_mc):
        r, s, m, _ = reference_instance
        sample = np.random.default_rng(800).choice(
            r.space.size, size=REF_VALUE_N, p=r.weights
        )
        draws = bootstrap_value(sample, s, m, 1.0, B=2000, seed=801,
                                threads=THREADS)
        ks = ks_statistic(draws, reference_value_mc.standardized_draws)
        print(
            f"\nbootstrap diagnostics at n={REF_VALUE_N}: ks={ks:.4f}, "
            f"bootstrap var={draws.var(ddof=1):.4f} vs mc var="
            f"{reference_value_mc.sample_var:.4f}"
        )
        assert ks <= 0.07, (
            f"bootstrap-vs-MC KS {ks:.4f} exceeds 0.07 at n={REF_VALUE_N}"
        )

    @pytest.mark.slow
    def test_bootstrap_matches_mc_on_light_tailed_instance(self):
        rng = np.random.default_rng(810)
        sp = erot.integer_grid(6)
        r = erot.validate_measure(rng.dirichlet(np.ones(6) * 8), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(6) * 8), sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        cfg = ExperimentConfig(statistic=VALUE_CLT, n=2000, replications=2000,
                               lam=1.0, seed=811, threads=THREADS)
        mc = mc_clt_experiment(r, s, m, cfg)
        sample = np.random.default_rng(812).choice(6, size=2000, p=r.weights)
        draws = bootstrap_value(sample, s, m, 1.0, B=2000, seed=813,
                                threads=THREADS)
        assert ks_statistic(draws, mc.standardized_draws) <= 0.07


class TestVanishingLambda:
    def test_gap_chain_on_small_instances(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            sp = erot.integer_grid(n)
            r = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            s = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            m, _ = erot.build_cost(
                {"family": "bounded", "cost": rng.uniform(0, 2, (n, n))}, sp, sp, 1.0
            )
            report = erot.vanishing_reg_gap(r, s, m, [1.0, 0.5, 0.1, 0.01])
            assert report.chain_holds
            for lam, v, c in zip(report.lambdas, report.erot_values,
                                 report.sinkhorn_costs):
                assert report.ot.value - 1e-9 <= c <= v + 1e-12
                assert v <= report.ot.value + lam * report.entropy_bound + 1e-9

    def test_plugin_variance_consistent_under_schedule(self):
        sp = erot.integer_grid(6)
        r = erot.validate_measure([0.28, 0.22, 0.17, 0.13, 0.11, 0.09], sp)
        s = erot.validate_measure([0.08, 0.12, 0.14, 0.18, 0.21, 0.27], sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        report = vanishing_lambda_experiment(
            r, s, m, sample_sizes=(500, 2000, 8000), replications=120,
            seed=90, threads=THREADS,
        )
        assert report.var_alpha0 > 0
        t = report.variance_trace
        assert t[0] > t[1] > t[2]


class TestConditionVerdicts:
    def test_bounded_geometric_pass(self):
        sp = erot.integer_grid(25)
        geo = erot.geometric_measure(sp, 0.6)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        assert erot.check_value_conditions(geo, geo, prof).verdict == "Pass"

    def test_bounded_polynomial_fail(self):
        sp = erot.integer_grid(25)
        poly = erot.polynomial_measure(sp, 2.0)
        geo = erot.geometric_measure(sp, 0.6)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        assert erot.check_value_conditions(poly, geo, prof).verdict == "Fail"

    def test_semibounded_subweibull_pass(self):
        spx = erot.IndexedSpace(("0", "1"), coords=[0.0, 1.0])
        spy = erot.integer_grid(31)
        _, prof = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0,
             "setting": "semi_bounded"}, spx, spy, 1.0,
        )
        r = erot.validate_measure([0.5, 0.5], spx)
        s = erot.subweibull_measure(spy, gamma=1.0, theta=1.5)
        assert erot.check_plan_conditions(r, s, prof).verdict == "Pass"

    def test_unbounded_both_plan_fail(self):
        sp = erot.integer_grid(20)
        geo = erot.geometric_measure(sp, 0.5)
        _, prof = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0,
             "setting": "unbounded"}, sp, sp, 1.0,
        )
        assert erot.check_plan_conditions(geo, geo, prof).verdict == "Fail"


class TestDegeneracy:
    def test_self_divergence_variance_zero(self):
        rng = np.random.default_rng(111)
        sp = erot.integer_grid(4)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        m, _ = erot.build_cost(
            {"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0
        )
        assert divergence_variance(r, r, m, 1.0) <= 1e-10

    def test_symmetric_uniform_value_clt_degenerates(self):
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        m, _ = erot.build_cost(
            {"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0
        )
        variances = []
        for n in (200, 2000, 20000):
            cfg = ExperimentConfig(statistic=VALUE_CLT, n=n, replications=100,
                                   seed=5, threads=THREADS)
            rep = mc_clt_experiment(u, u, m, cfg)
            assert rep.target_sigma2 <= 1e-10
            variances.append(rep.sample_var)
        assert variances[2] < variances[0]
