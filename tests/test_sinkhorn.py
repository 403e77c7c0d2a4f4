import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import erot
from erot.errors import AsymmetricSetup, MarginalMismatch, NonConvergence
from erot.sinkhorn import _log_update


def _random_instance(rng, n_x, n_y, cost_scale=2.0):
    spx = erot.integer_grid(n_x)
    spy = erot.integer_grid(n_y)
    r = erot.validate_measure(rng.dirichlet(np.ones(n_x)), spx)
    s = erot.validate_measure(rng.dirichlet(np.ones(n_y)), spy)
    m, _ = erot.build_cost(
        {"family": "custom", "cost": rng.uniform(0, cost_scale, (n_x, n_y))},
        spx, spy, 1.0,
    )
    return r, s, m


class TestSolve:
    def test_singleton_coupling(self):
        spx = erot.integer_grid(1)
        spy = erot.integer_grid(3)
        r = erot.validate_measure([1.0], spx)
        s = erot.validate_measure([0.2, 0.3, 0.5], spy)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": [[1.0, 2.0, 3.0]]}, spx, spy, 1.0
        )
        sol = erot.solve(r, s, m, 1.0)
        assert np.allclose(sol.plan, s.weights[None, :])
        assert sol.mutual_info == pytest.approx(0.0, abs=1e-12)
        assert sol.value == pytest.approx(0.2 * 1 + 0.3 * 2 + 0.5 * 3, abs=1e-10)

    def test_separable_cost_gives_product_plan(self):
        # c(x, y) = f(x) + g(y) makes every coupling equally expensive, so
        # the entropy term alone decides and the product plan wins
        rng = np.random.default_rng(3)
        spx = erot.integer_grid(4)
        spy = erot.integer_grid(5)
        f = rng.uniform(0, 1, 4)
        g = rng.uniform(0, 1, 5)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), spx)
        s = erot.validate_measure(rng.dirichlet(np.ones(5)), spy)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": f[:, None] + g[None, :]}, spx, spy, 1.0
        )
        sol = erot.solve(r, s, m, 1.0)
        assert np.allclose(sol.plan, np.outer(r.weights, s.weights), atol=1e-10)
        assert sol.mutual_info == pytest.approx(0.0, abs=1e-10)
        expected = r.weights @ f + s.weights @ g
        assert sol.value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_two_by_two_grid_search_oracle(self, lam):
        # uniform marginals, 0/1 cost: the plan is [[t, 1/2-t], [1/2-t, t]],
        # minimize over t by dense search as an independent oracle
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, lam)

        def objective(t):
            pi = np.array([[t, 0.5 - t], [0.5 - t, t]])
            cost = pi[0, 1] + pi[1, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = np.nansum(pi * np.log(pi / 0.25))
            return cost + lam * ent

        ts = np.linspace(1e-9, 0.5 - 1e-9, 400_001)
        vals = np.array([objective(t) for t in ts])
        best = ts[np.argmin(vals)]

        sol = erot.solve(u, u, m, lam)
        assert sol.plan[0, 0] == pytest.approx(best, abs=1e-6)
        assert sol.value == pytest.approx(vals.min(), abs=1e-8)
        # closed form for the diagonal entry
        t_closed = math.exp(1 / lam) / (2 * (1 + math.exp(1 / lam)))
        assert sol.plan[0, 0] == pytest.approx(t_closed, abs=1e-10)

    def test_marginals_and_duality_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r, s, m = _random_instance(rng, rng.integers(2, 10), rng.integers(2, 10))
            lam = float(rng.uniform(0.1, 3.0))
            sol = erot.solve(r, s, m, lam)
            assert np.allclose(sol.plan.sum(axis=1), r.weights, atol=1e-9)
            assert np.allclose(sol.plan.sum(axis=0), s.weights, atol=1e-9)
            # genuine gap: recompute mutual information from plan entries
            mi = erot.mutual_information(sol.plan, r, s)
            primal = sol.cost_part + lam * mi
            dual = sol.alpha @ r.weights + sol.beta @ s.weights
            assert abs(primal - dual) <= 1e-8 * (1 + abs(sol.value))

    def test_zero_mass_atoms_backfilled(self):
        spy = erot.integer_grid(4)
        spx = erot.integer_grid(3)
        rng = np.random.default_rng(5)
        r = erot.validate_measure([0.3, 0.3, 0.4], spx)
        s = erot.validate_measure([0.5, 0.0, 0.25, 0.25], spy)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 1, (3, 4))}, spx, spy, 1.0
        )
        sol = erot.solve(r, s, m, 1.0)
        assert np.all(np.isfinite(sol.beta))
        assert np.allclose(sol.plan[:, 1], 0.0)
        assert np.allclose(sol.plan.sum(axis=0), s.weights, atol=1e-10)

    def test_potential_shift_invariance(self):
        rng = np.random.default_rng(2)
        r, s, m = _random_instance(rng, 5, 6)
        bal = erot.solve(r, s, m, 1.0, erot.SolveConfig(normalization=erot.Normalization.BALANCED))
        anc = erot.solve(r, s, m, 1.0, erot.SolveConfig(normalization=erot.Normalization.ANCHORED_AT_Y1))
        eta = bal.alpha[0] - anc.alpha[0]
        assert np.allclose(bal.alpha, anc.alpha + eta, atol=1e-8)
        assert np.allclose(bal.beta, anc.beta - eta, atol=1e-8)
        assert anc.beta[0] == pytest.approx(0.0, abs=1e-12)
        assert bal.alpha @ r.weights == pytest.approx(bal.beta @ s.weights, abs=1e-8)
        assert np.allclose(bal.plan, anc.plan, atol=1e-10)
        assert bal.value == pytest.approx(anc.value, abs=1e-10)

    def test_renormalized_round_trip(self):
        rng = np.random.default_rng(9)
        r, s, m = _random_instance(rng, 4, 4)
        sol = erot.solve(r, s, m, 1.0)
        other = sol.renormalized(erot.Normalization.ANCHORED_AT_Y1, r, s)
        back = other.renormalized(erot.Normalization.BALANCED, r, s)
        assert np.allclose(back.alpha, sol.alpha, atol=1e-10)
        assert np.allclose(back.beta, sol.beta, atol=1e-10)

    def test_lambda_monotone_value(self):
        rng = np.random.default_rng(4)
        r, s, m = _random_instance(rng, 6, 6)
        vals = [erot.solve(r, s, m, lam).value for lam in (0.1, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        n = 5
        sp = erot.integer_grid(n)
        w_r = rng.dirichlet(np.ones(n))
        w_s = rng.dirichlet(np.ones(n))
        cost = rng.uniform(0, 2, (n, n))
        perm = rng.permutation(n)
        r = erot.validate_measure(w_r, sp)
        s = erot.validate_measure(w_s, sp)
        m, _ = erot.build_cost({"family": "custom", "cost": cost}, sp, sp, 1.0)
        rp = erot.validate_measure(w_r[perm], sp)
        mp, _ = erot.build_cost({"family": "custom", "cost": cost[perm]}, sp, sp, 1.0)
        a = erot.solve(r, s, m, 1.0)
        b = erot.solve(rp, s, mp, 1.0)
        assert b.value == pytest.approx(a.value, abs=1e-10)
        assert np.allclose(b.plan, a.plan[perm], atol=1e-10)

    def test_nonconvergence_raises_with_state(self):
        rng = np.random.default_rng(1)
        r, s, m = _random_instance(rng, 8, 8)
        with pytest.raises(NonConvergence) as exc:
            erot.solve(r, s, m, 0.05, erot.SolveConfig(tol=1e-14, max_iter=3))
        assert exc.value.iterations == 3
        assert exc.value.residual > 0


def _oracle_update(log_w, pot, cost, lam, axis):
    """The sweep by scipy's logsumexp: an oracle independent of the solver."""
    along = (1, -1) if axis == 1 else (-1, 1)
    return -lam * logsumexp((pot.reshape(along) - cost) / lam + log_w.reshape(along), axis=axis)


def _max_rel(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


class TestFusedSweep:
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("shape", [(7, 7), (5, 9), (9, 5), (1, 6), (6, 1)])
    def test_against_logsumexp_oracle(self, shape, lam):
        rng = np.random.default_rng(sum(shape))
        cost = rng.uniform(0, 2, shape)
        for axis in (1, 0):
            k = shape[axis]
            pot = rng.uniform(-1, 1, k)
            log_w = np.log(rng.dirichlet(np.ones(k)))
            expected = _oracle_update(log_w, pot, cost, lam, axis)
            got = _log_update(log_w, pot, cost, lam, axis, np.empty(shape))
            assert got.shape == expected.shape
            assert _max_rel(got, expected) <= 1e-12
            # the cost table may serve as its own workspace
            table = cost.copy()
            assert np.array_equal(_log_update(log_w, pot, table, lam, axis, table), got)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_full_support_potentials_solve_both_fixed_point_equations(self, lam):
        # at full support no potential is back-filled: alpha and beta are the
        # iterates themselves, so both equations hold to the solver tolerance
        rng = np.random.default_rng(41)
        r, s, m = _random_instance(rng, 6, 8)
        sol = erot.solve(r, s, m, lam, erot.SolveConfig(tol=1e-13))
        log_r, log_s = np.log(r.weights), np.log(s.weights)
        assert _max_rel(_oracle_update(log_s, sol.beta, m.cost, lam, 1), sol.alpha) <= 1e-12
        assert _max_rel(_oracle_update(log_r, sol.alpha, m.cost, lam, 0), sol.beta) <= 1e-12

    def test_backfilled_potentials_solve_the_fixed_point_equations(self):
        # zero-mass atoms on both sides: their potentials come from the
        # right-hand sides over the supports, like every other atom's
        rng = np.random.default_rng(43)
        spx, spy = erot.integer_grid(5), erot.integer_grid(7)
        w_r, w_s = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(7))
        w_r[[1, 4]] = 0.0
        w_s[2] = 0.0
        r = erot.validate_measure(w_r / w_r.sum(), spx)
        s = erot.validate_measure(w_s / w_s.sum(), spy)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 2, (5, 7))}, spx, spy, 1.0)
        sol = erot.solve(r, s, m, 0.5, erot.SolveConfig(tol=1e-13))
        ix, iy = np.flatnonzero(w_r > 0), np.flatnonzero(w_s > 0)
        alpha = _oracle_update(np.log(s.weights[iy]), sol.beta[iy], m.cost[:, iy], 0.5, 1)
        beta = _oracle_update(np.log(r.weights[ix]), sol.alpha[ix], m.cost[ix], 0.5, 0)
        assert _max_rel(sol.alpha, alpha) <= 1e-12
        assert _max_rel(sol.beta, beta) <= 1e-12


class TestMutualInformation:
    def test_product_plan_zero(self):
        sp = erot.integer_grid(3)
        r = erot.validate_measure([0.2, 0.3, 0.5], sp)
        s = erot.validate_measure([0.6, 0.1, 0.3], sp)
        assert erot.mutual_information(np.outer(r.weights, s.weights), r, s) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_plan_log2(self):
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        pi = np.diag([0.5, 0.5])
        assert erot.mutual_information(pi, u, u) == pytest.approx(math.log(2), abs=1e-12)

    def test_bounded_by_entropy_pair(self):
        rng = np.random.default_rng(6)
        r, s, m = _random_instance(rng, 5, 7)
        sol = erot.solve(r, s, m, 0.3)
        mi = erot.mutual_information(sol.plan, r, s)
        assert 0.0 <= mi <= erot.entropy_pair(r, s) + 1e-12

    def test_marginal_mismatch(self):
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp)
        bad = np.array([[0.4, 0.1], [0.1, 0.4]])
        erot.mutual_information(bad, u, u)  # marginals match: fine
        with pytest.raises(MarginalMismatch):
            erot.mutual_information(bad, u, erot.validate_measure([0.3, 0.7], sp))


class TestDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(12)
        sp = erot.integer_grid(4)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        assert erot.sinkhorn_divergence(r, r, m, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(13)
        sp = erot.integer_grid(5)
        r = erot.validate_measure(rng.dirichlet(np.ones(5)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(5)), sp)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        d_rs = erot.sinkhorn_divergence(r, s, m, 1.0)
        d_sr = erot.sinkhorn_divergence(s, r, m, 1.0)
        assert d_rs == pytest.approx(d_sr, abs=1e-9)
        assert d_rs > 1e-6

    def test_requires_shared_space(self):
        spx = erot.integer_grid(3)
        spy = erot.integer_grid(4)
        r = erot.validate_measure([0.2, 0.3, 0.5], spx)
        s = erot.validate_measure([0.25] * 4, spy)
        rng = np.random.default_rng(0)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 1, (3, 4))}, spx, spy, 1.0
        )
        with pytest.raises(AsymmetricSetup):
            erot.sinkhorn_divergence(r, s, m, 1.0)


class TestBounds:
    def test_random_instances_no_violation(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            sp = erot.integer_grid(n)
            r = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            s = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            lam = float(rng.uniform(0.2, 5.0))
            m, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, lam)
            sol = erot.solve(r, s, m, lam)
            report = erot.verify_bounds(sol, m, r, s)
            assert report.max_violation <= 1e-7

    def test_large_lambda_plan_near_product(self):
        sp = erot.integer_grid(4)
        rng = np.random.default_rng(15)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        m, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 100.0)
        sol = erot.solve(r, s, m, 100.0)
        assert erot.verify_bounds(sol, m, r, s).max_violation <= 1e-7
        assert np.allclose(sol.plan, np.outer(r.weights, s.weights), atol=5e-3)

    @pytest.mark.parametrize("lam, vacuous", [(1.0, False), (0.01, True)])
    def test_overflowing_weights_flag_vacuous(self, lam, vacuous):
        # 21-atom geometric instance, cost |x - y|: the oscillation 20 makes
        # exp(20 / lam) overflow at lam = 0.01
        sp = erot.integer_grid(21)
        r = erot.geometric_measure(sp, 0.7)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, lam)
        sol = erot.solve(r, r, m, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = erot.verify_bounds(sol, m, r, r)
        assert report.vacuous is vacuous
        assert report.to_dict()["vacuous"] is vacuous


class TestExactOT:
    def _quantile_oracle(self, r_w, s_w, coords):
        # monotone coupling is optimal for |x - y| on the line: build it by
        # matching cumulative mass from the left
        pairs = {}
        i = j = 0
        ri, sj = r_w[0], s_w[0]
        while True:
            take = min(ri, sj)
            if take > 0:
                pairs[(i, j)] = pairs.get((i, j), 0.0) + take
            ri -= take
            sj -= take
            if ri <= 1e-15:
                i += 1
                if i == len(r_w):
                    break
                ri = r_w[i]
            if sj <= 1e-15:
                j += 1
                if j == len(s_w):
                    break
                sj = s_w[j]
        return sum(w * abs(coords[a] - coords[b]) for (a, b), w in pairs.items())

    def test_against_quantile_coupling(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sp = erot.integer_grid(n)
            r = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            s = erot.validate_measure(rng.dirichlet(np.ones(n)), sp)
            m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
            sol = erot.exact_ot_small(r, s, m)
            oracle = self._quantile_oracle(r.weights, s.weights, np.arange(n, dtype=float))
            assert sol.value == pytest.approx(oracle, abs=1e-9)

    def test_identity_coupling_and_nonunique_potentials(self):
        sp = erot.integer_grid(3)
        u = erot.validate_measure(np.full(3, 1 / 3), sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        sol = erot.exact_ot_small(u, u, m)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.plan, np.diag(u.weights), atol=1e-10)
        assert not sol.unique_potentials  # diagonal support graph is disconnected

    def test_unique_potentials_generic(self):
        rng = np.random.default_rng(17)
        sp = erot.integer_grid(4)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 1, (4, 4))}, sp, sp, 1.0
        )
        sol = erot.exact_ot_small(r, s, m)
        assert sol.unique_potentials

    def test_dual_feasibility_and_slackness(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            r, s, m = _random_instance(rng, 6, 5)
            sol = erot.exact_ot_small(r, s, m)
            gaps = m.cost - sol.alpha0[:, None] - sol.beta0[None, :]
            assert np.min(gaps) >= -1e-8  # dual feasibility
            assert np.max(sol.plan * gaps) <= 1e-8  # complementary slackness
            dual = sol.alpha0 @ r.weights + sol.beta0 @ s.weights
            assert dual == pytest.approx(sol.value, abs=1e-9)

    def test_point_mass_row(self):
        spx = erot.integer_grid(2)
        spy = erot.integer_grid(3)
        r = erot.validate_measure([1.0, 0.0], spx)
        s = erot.validate_measure([0.5, 0.2, 0.3], spy)
        rng = np.random.default_rng(19)
        c = rng.uniform(0, 1, (2, 3))
        m, _ = erot.build_cost({"family": "custom", "cost": c}, spx, spy, 1.0)
        sol = erot.exact_ot_small(r, s, m)
        assert sol.value == pytest.approx(s.weights @ c[0], abs=1e-10)

    def test_sandwich_ot_sinkhorn(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            r, s, m = _random_instance(rng, 5, 5)
            lam = float(rng.uniform(0.1, 2.0))
            ot = erot.exact_ot_small(r, s, m)
            sink = erot.solve(r, s, m, lam)
            assert ot.value <= sink.cost_part + 1e-9
            assert sink.cost_part <= sink.value + 1e-12


class TestVanishingGap:
    def test_gap_shrinks_and_brackets(self):
        rng = np.random.default_rng(21)
        r, s, m = _random_instance(rng, 6, 6)
        report = erot.vanishing_reg_gap(r, s, m, [1.0, 0.5, 0.1, 0.01])
        assert report.chain_holds
        gaps = np.asarray(report.erot_values) - report.ot_value
        assert np.all(gaps >= -1e-9)
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] <= 1e-1 * (1 + abs(report.ot_value))
        # the entropic value never exceeds OT plus lambda times the entropy cap
        for lam, v in zip(report.lambdas, report.erot_values):
            assert v <= report.ot_value + lam * report.entropy_bound + 1e-9
