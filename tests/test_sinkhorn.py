import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

import erot
from erot.errors import (
    AsymmetricSetup,
    InvalidFamilyParams,
    MarginalMismatch,
    NegativeWeight,
    NonConvergence,
    SpaceMismatch,
)
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

        ts = np.linspace(1e-9, 0.5 - 1e-9, 400_001)
        # one row per grid point: the plan's entries pi00, pi01, pi10, pi11
        pi = np.stack([ts, 0.5 - ts, 0.5 - ts, ts], axis=1)
        cost = pi[:, 1] + pi[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.nansum(pi * np.log(pi / 0.25), axis=1)
        vals = cost + lam * ent
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
        # the potentials are unique up to (alpha + t, beta - t); solve returns
        # the balanced gauge <alpha, r> = <beta, s>
        rng = np.random.default_rng(2)
        r, s, m = _random_instance(rng, 5, 6)
        sol = erot.solve(r, s, m, 1.0)
        assert sol.alpha @ r.weights == pytest.approx(sol.beta @ s.weights, abs=1e-12)
        assert sol.value == pytest.approx(2 * sol.alpha @ r.weights, abs=1e-12)

    def test_separable_cost_shift(self):
        # c + a (+) b leaves the plan as it is and moves the value by
        # <a, r> + <b, s>: the shift is constant on the coupling set
        rng = np.random.default_rng(7)
        r, s, m = _random_instance(rng, 3, 4, cost_scale=1.0)
        a, b = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 4)
        shifted, _ = erot.build_cost({"family": "custom", "cost": m.cost + a[:, None] + b},
                                     r.space, s.space, 1.0)
        sol, moved = erot.solve(r, s, m, 1.0), erot.solve(r, s, shifted, 1.0)
        assert np.allclose(moved.plan, sol.plan, atol=1e-9)
        assert moved.value == pytest.approx(sol.value + a @ r.weights + b @ s.weights, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_must_be_positive_and_finite(self, lam):
        r, s, m = _random_instance(np.random.default_rng(1), 3, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            erot.solve(r, s, m, lam)
        with pytest.raises(InvalidFamilyParams, match="positive and finite"):
            erot.build_cost({"family": "bounded", "p": 1}, r.space, s.space, lam)

    def test_warm_start_is_alpha_on_x(self):
        # a warm start is alpha on X: a shorter or longer alpha and an
        # (alpha, beta) pair are each refused
        r, s, m = _random_instance(np.random.default_rng(9), 3, 4)
        sol = erot.solve(r, s, m, 1.0)
        assert erot.solve(r, s, m, 1.0, warm_start=sol.alpha).iterations <= 2
        for warm in (sol.alpha[:2], np.append(sol.alpha, 0.0), (sol.alpha, sol.alpha)):
            with pytest.raises(SpaceMismatch, match="is not alpha on X"):
                erot.solve(r, s, m, 1.0, warm_start=warm)

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



def _oracle_solve(r, s, m, lam, cfg=erot.SolveConfig(), warm_start=None):
    """Plain alternating log-domain Sinkhorn with scipy's logsumexp, the
    stopping rule, back-fill and balanced normalization of `solve`: an oracle
    that shares no code with the solver.  Returns (alpha, beta, plan,
    iterations)."""
    rw, sw = r.weights, s.weights
    ix, iy = np.flatnonzero(rw > 0), np.flatnonzero(sw > 0)
    c = m.cost[np.ix_(ix, iy)]
    log_r, log_s = np.log(rw[ix]), np.log(sw[iy])
    alpha = np.zeros(ix.size) if warm_start is None else np.asarray(warm_start)[ix]
    beta = _oracle_update(log_r, alpha, c, lam, 0)
    for it in range(1, cfg.max_iter + 1):
        alpha = _oracle_update(log_s, beta, c, lam, 1)
        beta_new = _oracle_update(log_r, alpha, c, lam, 0)
        if sw[iy] @ np.abs(np.exp((beta - beta_new) / lam) - 1.0) <= cfg.tol:
            break
        beta = beta_new
    else:
        raise NonConvergence("oracle did not converge", iterations=cfg.max_iter)
    alpha_full = _oracle_update(log_s, beta, m.cost[:, iy], lam, 1)
    beta_full = _oracle_update(log_r, alpha, m.cost[ix], lam, 0)
    alpha_full[ix], beta_full[iy] = alpha, beta
    shift = 0.5 * (beta_full @ sw - alpha_full @ rw)
    alpha_full += shift
    beta_full -= shift
    plan = np.exp((alpha_full[:, None] + beta_full[None, :] - m.cost) / lam) * np.outer(rw, sw)
    return alpha_full, beta_full, plan, it


def _assert_matches_oracle(sol, oracle):
    alpha, beta, plan, iterations = oracle
    assert sol.iterations == iterations
    assert _max_rel(sol.alpha, alpha) <= 1e-12
    assert _max_rel(sol.beta, beta) <= 1e-12
    assert _max_rel(sol.plan, plan) <= 1e-12


class TestScalingLoop:
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0, 10.0])
    def test_against_log_domain_oracle(self, lam):
        # random instances with zero-mass atoms on either side, cold and warm
        rng = np.random.default_rng(int(lam * 1000) + 7)
        for k in range(8):
            nx, ny = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            spx, spy = erot.integer_grid(nx), erot.integer_grid(ny)
            w_r, w_s = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
            if nx > 2:
                w_r[rng.integers(0, nx)] = 0.0
            if ny > 2 and k % 2:
                w_s[rng.integers(0, ny)] = 0.0
            r = erot.validate_measure(w_r / w_r.sum(), spx)
            s = erot.validate_measure(w_s / w_s.sum(), spy)
            m, _ = erot.build_cost(
                {"family": "custom", "cost": rng.uniform(0, 2, (nx, ny))}, spx, spy, 1.0)
            # a warm alpha; drawing ny more keeps the loop's later instances fixed
            warm = rng.uniform(-1, 1, nx + ny)[:nx] if k % 3 == 0 else None
            sol = erot.solve(r, s, m, lam, warm_start=warm)
            _assert_matches_oracle(sol, _oracle_solve(r, s, m, lam, warm_start=warm))

    def test_forced_absorption_matches_oracle(self, monkeypatch):
        # at bound 1e2 the scalings of the 120-atom geometric instance leave
        # the range early on both sides, so both absorbing half-steps run
        sp = erot.integer_grid(120)
        r = erot.geometric_measure(sp, 0.7)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        sweeps = {0: 0, 1: 0}
        sweep = erot.sinkhorn._log_update

        def counted(log_w, pot, cost, lam, axis, work):
            sweeps[axis] += 1
            return sweep(log_w, pot, cost, lam, axis, work)

        monkeypatch.setattr(erot.sinkhorn, "SCALING_BOUND", 1e2)
        monkeypatch.setattr(erot.sinkhorn, "_log_update", counted)
        sol = erot.solve(r, r, m, 1.0)
        # beyond the first beta and alpha sweeps, one per absorption
        assert sweeps[0] > 1 and sweeps[1] > 1
        _assert_matches_oracle(sol, _oracle_solve(r, r, m, 1.0))

    @staticmethod
    def _counted_solve(monkeypatch, r, s, m, lam):
        """solve(r, s, m, lam) and the number of log-domain sweeps it ran."""
        sweeps = []
        sweep = erot.sinkhorn._log_update

        def counted(log_w, pot, cost, lam, axis, work):
            sweeps.append(axis)
            return sweep(log_w, pot, cost, lam, axis, work)

        monkeypatch.setattr(erot.sinkhorn, "_log_update", counted)
        return erot.solve(r, s, m, lam), sweeps

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_cold_start_within_range_runs_no_sweep(self, monkeypatch, lam):
        # cost range 2 at most: (max c - min c)/lam <= log(SCALING_BOUND), so
        # the kernel comes from one exp pass of the cost
        r, s, m = _random_instance(np.random.default_rng(71), 300, 290)
        sol, sweeps = self._counted_solve(monkeypatch, r, s, m, lam)
        assert sweeps == []
        _assert_matches_oracle(sol, _oracle_solve(r, s, m, lam))

    def test_cold_start_past_range_runs_the_two_opening_sweeps(self, monkeypatch):
        # one cost entry puts the range just past the rule, by 1 at lam = 1
        rng = np.random.default_rng(72)
        sp = erot.integer_grid(300)
        r = erot.validate_measure(rng.dirichlet(np.ones(300)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(300)), sp)
        cost = rng.uniform(0.0, 2.0, (300, 300))
        cost[7, 11] = cost.min() + math.log(erot.sinkhorn.SCALING_BOUND) + 1.0
        m, _ = erot.build_cost({"family": "custom", "cost": cost}, sp, sp, 1.0)
        sol, sweeps = self._counted_solve(monkeypatch, r, s, m, 1.0)
        assert sweeps == [0, 1]  # the beta sweep, then the alpha sweep
        _assert_matches_oracle(sol, _oracle_solve(r, s, m, 1.0))

    def test_cold_start_out_of_scaling_range_falls_back_to_the_sweeps(self, monkeypatch):
        # the range meets the rule, but one target atom weighs 1e-290 and its
        # column costs at least 50 over the minimum: its Gibbs-kernel entries
        # are subnormal and dropped, so v is infinite there and the start
        # falls back to the two opening sweeps in the overwritten workspace
        rng = np.random.default_rng(73)
        sp = erot.integer_grid(300)
        r = erot.validate_measure(rng.dirichlet(np.ones(300)), sp)
        w_s = rng.dirichlet(np.ones(300))
        w_s[11] = 1e-290
        s = erot.validate_measure(w_s / w_s.sum(), sp)
        cost = rng.uniform(0.0, 2.0, (300, 300))
        cost[:, 11] = rng.uniform(50.0, 60.0, 300)
        assert cost.max() - cost.min() <= math.log(erot.sinkhorn.SCALING_BOUND)
        m, _ = erot.build_cost({"family": "custom", "cost": cost}, sp, sp, 1.0)
        starts = []
        gibbs_start = erot.sinkhorn._gibbs_start

        def recorded(*args):
            starts.append(gibbs_start(*args))
            return starts[-1]

        monkeypatch.setattr(erot.sinkhorn, "_gibbs_start", recorded)
        sol, sweeps = self._counted_solve(monkeypatch, r, s, m, 1.0)
        assert starts == [None]
        assert sweeps == [0, 1]
        _assert_matches_oracle(sol, _oracle_solve(r, s, m, 1.0))


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

    @staticmethod
    def _dense(pi, r, s):
        """The whole-table masked sum, kept as the oracle."""
        prod = r.weights[:, None] * s.weights[None, :]
        mask = pi > 0
        return float(np.sum(pi[mask] * np.log(pi[mask] / prod[mask])))

    def test_blocked_sum_matches_the_dense_sum(self):
        # 300 x 250 plans span several row blocks, the last one partial
        rng = np.random.default_rng(27)
        r, s, m = _random_instance(rng, 300, 250)
        w = rng.dirichlet(np.ones(300))
        w[::7] = 0.0
        r0 = erot.validate_measure(w / w.sum(), r.space)
        plans = [(erot.solve(r, s, m, 0.5).plan, r, s),
                 (erot.solve(r0, s, m, 0.2).plan, r0, s),
                 (np.diag(r0.weights), r0, r0)]
        for pi, a, b in plans:
            dense = self._dense(pi, a, b)
            assert dense > 0.1
            assert erot.mutual_information(pi, a, b) == pytest.approx(dense, rel=1e-13, abs=0)
        # a diagonal plan's information is the entropy of its marginal
        assert self._dense(*plans[-1]) == pytest.approx(erot.shannon_entropy(r0), rel=1e-13)


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

    def test_zero_mass_atom_with_an_infinite_bound_is_not_vacuous(self):
        # row 2 holds an infinite cost, so its bound cX+ and its weight e_X
        # are infinite; without mass it counts for nothing, and the reports
        # equal those of the same table with a 2 in its place
        sp = erot.integer_grid(3)
        r = erot.validate_measure([0.5, 0.5, 0.0], sp)
        s = erot.validate_measure([0.3, 0.3, 0.4], sp)
        reports = []
        for corner in (math.inf, 2.0):
            table = [[0, 1, 2], [1, 0, 1], [corner, 1, 0]]
            m, _ = erot.build_cost({"family": "custom", "cost": table}, sp, sp, 1.0)
            sol = erot.solve(r, s, m, 1.0)
            scaled = dataclasses.replace(sol, plan=1e3 * sol.plan)
            reports.append([erot.verify_bounds(x, m, r, s).to_dict() for x in (sol, scaled)])
        assert reports[0] == reports[1]
        solved, scaled = reports[0]
        assert solved["vacuous"] is False and solved["max"] == 0.0
        assert scaled["vacuous"] is False and scaled["plan_upper"] > 0

    @staticmethod
    def _dense(sol, m, r, s):
        """The whole-table bound check, kept as the oracle."""
        lam = sol.lam
        dom = m.dom_primary
        rw, sw = r.weights, s.weights
        ix, iy = rw > 0, sw > 0
        with np.errstate(over="ignore"):
            eX = np.exp((dom.cX_plus - dom.cX_minus) / lam)
            eY = np.exp((dom.cY_plus - dom.cY_minus) / lam)
            mean_plus_X, mean_plus_Y = dom.cX_plus @ rw, dom.cY_plus @ sw
            half_minus = 0.5 * (dom.cX_minus @ rw + dom.cY_minus @ sw)
            eX_r, eY_s = eX @ rw, eY @ sw
            a_lo = dom.cX_minus - mean_plus_X + half_minus - lam * np.log(eY_s)
            a_hi = dom.cX_plus + mean_plus_Y - half_minus
            b_lo = dom.cY_minus - mean_plus_Y + half_minus - lam * np.log(eX_r)
            b_hi = dom.cY_plus + mean_plus_X - half_minus
            prod = rw[:, None] * sw[None, :]
            p_lo = prod / (eX[:, None] * eY[None, :] * eX_r**2 * eY_s**2)
            p_hi = prod * eX[:, None] * eY[None, :] * eX_r * eY_s
        on_support = [a_lo[ix], a_hi[ix], b_lo[iy], b_hi[iy],
                      p_lo[np.ix_(ix, iy)], p_hi[np.ix_(ix, iy)]]

        def viol(arr):
            return float(max(0.0, np.max(arr))) if arr.size else 0.0

        return erot.BoundReport(
            alpha_lower_violation=viol(a_lo[ix] - sol.alpha[ix]),
            alpha_upper_violation=viol(sol.alpha[ix] - a_hi[ix]),
            beta_lower_violation=viol(b_lo[iy] - sol.beta[iy]),
            beta_upper_violation=viol(sol.beta[iy] - b_hi[iy]),
            plan_lower_violation=viol(p_lo - sol.plan),
            plan_upper_violation=viol(sol.plan - p_hi),
            vacuous=not all(np.all(np.isfinite(b)) for b in on_support),
        ).to_dict()

    @staticmethod
    def _last_cell(plan, value):
        plan = plan.copy()
        plan[-1, -1] = value
        return plan

    @pytest.mark.parametrize("lam, edit, broken", [
        (1.0, lambda p: p, ()),
        (1.0, lambda p: 1e3 * p, ("plan_upper",)),
        (1.0, lambda p: 1e-4 * p, ("plan_lower",)),
        (1.0, lambda p: TestBounds._last_cell(p, 0.0), ("plan_lower",)),
        (1.0, lambda p: TestBounds._last_cell(p, 1.0), ("plan_upper",)),
        (0.0025, lambda p: p, ()),
    ], ids=["solved", "scaled_up", "scaled_down", "last_cell_zero", "last_cell_one", "vacuous"])
    def test_blocked_report_equals_the_dense_report(self, lam, edit, broken):
        # 300 x 250 cells span several row blocks, the last one partial;
        # zero-mass atoms on both sides.  At lam = 0.0025
        # exp(1/(2 lam))**4 overflows and the report is vacuous
        rng = np.random.default_rng(28)
        spx = erot.IndexedSpace(tuple(range(300)), coords=np.linspace(0, 1, 300))
        spy = erot.IndexedSpace(tuple(range(250)), coords=np.linspace(0, 1, 250))
        w, v = rng.dirichlet(np.ones(300)), rng.dirichlet(np.ones(250))
        w[::11], v[3::13] = 0.0, 0.0
        r = erot.validate_measure(w / w.sum(), spx)
        s = erot.validate_measure(v / v.sum(), spy)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, spx, spy, lam)
        sol = erot.solve(r, s, m, lam)
        sol = dataclasses.replace(sol, plan=edit(sol.plan))
        with np.errstate(invalid="ignore"):
            dense = self._dense(sol, m, r, s)
            report = erot.verify_bounds(sol, m, r, s).to_dict()
        assert report == dense
        assert {k for k in ("plan_lower", "plan_upper") if dense[k] > 0} == set(broken)
        assert dense["vacuous"] == (lam < 0.01)


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

    @staticmethod
    def _tail_instance(n):
        sp = erot.integer_grid(n)
        r, s = erot.geometric_measure(sp, 0.7), erot.polynomial_measure(sp, 3.0)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        return r, s, m

    def test_tail_instance_matches_closed_form_w1(self):
        # on the line, W1 = sum |F_r - F_s|; with presolve HiGHS lost an atom here
        r, s, m = self._tail_instance(60)
        w1 = float(np.abs(np.cumsum(r.weights) - np.cumsum(s.weights))[:-1].sum())
        sol = erot.exact_ot_small(r, s, m)
        assert sol.value == pytest.approx(w1, rel=1e-12)
        assert sol.unique_potentials

    @pytest.mark.parametrize("n", [120, 200, 512])
    def test_long_tails_keep_every_atom(self, n):
        # every weight from 0.3 down to 1e-80 keeps its mass, in both directions
        r, s, m = self._tail_instance(n)
        w1 = float(np.abs(np.cumsum(r.weights) - np.cumsum(s.weights))[:-1].sum())
        for a, b in ((r, s), (s, r)):
            sol = erot.exact_ot_small(a, b, m)
            assert sol.value == pytest.approx(w1, rel=1e-12)
            rel = np.concatenate([np.abs(sol.plan.sum(axis=1) - a.weights) / a.weights,
                                  np.abs(sol.plan.sum(axis=0) - b.weights) / b.weights])
            assert rel.max() <= 1e-12

    def test_short_plan_raises_marginal_mismatch(self, monkeypatch):
        # a solver that loses an atom's mass is refused, with the atom named
        r, s, m = _random_instance(np.random.default_rng(22), 4, 3)
        solver = erot.sinkhorn._network_simplex

        def lose_last_row(a, b, c):
            plan, alpha, beta, value = solver(a, b, c)
            plan[-1] = 0.0
            return plan, alpha, beta, value

        monkeypatch.setattr(erot.sinkhorn, "_network_simplex", lose_last_row)
        with pytest.raises(MarginalMismatch) as info:
            erot.exact_ot_small(r, s, m)
        exc = info.value
        assert exc.relative_error == pytest.approx(1.0)
        assert exc.atom == r.space.labels[3] and exc.weight == r.weights[3]
        assert f"r atom {exc.atom!r}" in str(exc) and "tolerance 1e-09" in str(exc)

    def test_pivot_cap_raises_nonconvergence(self, monkeypatch):
        r, s, m = _random_instance(np.random.default_rng(23), 6, 6)
        monkeypatch.setattr(erot.sinkhorn, "EXACT_MAX_PIVOTS", 2)
        with pytest.raises(NonConvergence) as info:
            erot.exact_ot_small(r, s, m)
        assert info.value.iterations == 2
        assert info.value.residual < 0  # the most negative reduced cost

    @staticmethod
    def _lp(a, b, c):
        """The transport LP by HiGHS, built here: an oracle independent of
        the network simplex."""
        kx, ky = c.shape
        rows = np.vstack([np.kron(np.eye(kx), np.ones(ky)), np.kron(np.ones(kx), np.eye(ky))])
        res = linprog(c.ravel(), A_eq=rows, b_eq=np.concatenate([a, b]), bounds=(0, None),
                      method="highs")
        assert res.status == 0
        return res.fun

    @staticmethod
    def _lp_instance(rng, kind):
        nx, ny = (int(k) for k in rng.integers(1, 9, 2))
        spx, spy = erot.integer_grid(nx), erot.integer_grid(ny)
        if kind == "equal_partial_sums":
            # dyadic weights: partial sums tie exactly, and on the line
            def parts(k):
                cuts = np.sort(rng.choice(np.arange(1, 16), k - 1, replace=False))
                return np.diff(np.concatenate([[0], cuts, [16]])) / 16
            a, b = parts(nx), parts(ny)
            c = np.abs(np.arange(nx)[:, None] - np.arange(ny)[None, :]).astype(float)
        elif kind == "uniform_weights":
            a, b = np.full(nx, 1 / nx), np.full(ny, 1 / ny)
            c = rng.integers(0, 3, (nx, ny)).astype(float)
        else:
            a, b = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
            c = rng.uniform(0, 2, (nx, ny))
            if kind == "integer_costs":
                c = rng.integers(0, 4, (nx, ny)).astype(float)
            elif kind == "zero_mass":
                a[rng.random(nx) < 0.3] = 0.0
                b[rng.random(ny) < 0.3] = 0.0
                a[rng.integers(nx)] += 0.5
                b[rng.integers(ny)] += 0.5
                a, b = a / a.sum(), b / b.sum()
        r, s = erot.validate_measure(a, spx), erot.validate_measure(b, spy)
        m, _ = erot.build_cost({"family": "custom", "cost": c}, spx, spy, 1.0)
        return r, s, m

    @pytest.mark.parametrize("kind", ["generic", "zero_mass", "integer_costs",
                                      "uniform_weights", "equal_partial_sums"])
    def test_against_lp(self, kind):
        rng = np.random.default_rng(24)
        for _ in range(10):
            r, s, m = self._lp_instance(rng, kind)
            ix, iy = np.flatnonzero(r.weights), np.flatnonzero(s.weights)
            a, b, c = r.weights[ix], s.weights[iy], m.cost[np.ix_(ix, iy)]
            sol = erot.exact_ot_small(r, s, m)
            assert sol.value == pytest.approx(self._lp(a, b, c), rel=1e-12, abs=1e-12)
            gaps = c - sol.alpha0[ix, None] - sol.beta0[None, iy]
            plan = sol.plan[np.ix_(ix, iy)]
            assert gaps.min() >= -1e-12 * np.abs(c).max()  # dual feasibility
            assert (plan * np.abs(gaps)).max() <= 1e-12  # complementary slackness
            assert np.all(sol.plan[np.ix_(r.weights == 0, s.weights >= 0)] == 0)
            assert np.all(sol.plan[np.ix_(r.weights >= 0, s.weights == 0)] == 0)
            assert np.max(np.abs(plan.sum(axis=1) - a) / a) <= 1e-12
            assert np.max(np.abs(plan.sum(axis=0) - b) / b) <= 1e-12
            assert sol.beta0[iy[-1]] == 0.0

    @staticmethod
    def _lp_unique(a, b, c, ot_value):
        """Whether every alpha_i - alpha_0 takes one value over the optimal dual
        face {alpha_i + beta_j <= c_ij, <alpha, a> + <beta, b> = OT}: its min
        and max by HiGHS."""
        kx, ky = c.shape
        pairs = np.hstack([np.kron(np.eye(kx), np.ones((ky, 1))),
                           np.kron(np.ones((kx, 1)), np.eye(ky))])
        face = dict(A_ub=pairs, b_ub=c.ravel(), A_eq=np.concatenate([a, b])[None],
                    b_eq=[ot_value], bounds=(None, None), method="highs",
                    options={"primal_feasibility_tolerance": 1e-10})
        for i in range(1, kx):
            diff = np.zeros(kx + ky)
            diff[i], diff[0] = 1.0, -1.0
            low, high = linprog(diff, **face), linprog(-diff, **face)
            assert low.status == high.status == 0
            if -high.fun - low.fun > 1e-6:
                return False
        return True

    def test_unique_potentials_against_the_dual_face(self):
        cases = []
        sp = erot.integer_grid(3)
        line, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        metric, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"},
                                    sp, sp, 1.0)
        u = erot.validate_measure(np.full(3, 1 / 3), sp)
        cases.append((u, u, metric))  # identity coupling
        # the CLI instance: a degenerate vertex with a disconnected support
        cases.append((erot.validate_measure([0.2, 0.3, 0.5], sp),
                      erot.validate_measure([0.5, 0.25, 0.25], sp), line))
        rng = np.random.default_rng(25)
        for kind in ("equal_partial_sums", "uniform_weights", "integer_costs") * 12:
            r, s, m = self._lp_instance(rng, kind)
            if r.space.size <= 6 and s.space.size <= 6:
                cases.append((r, s, m))
        verdicts = []
        for r, s, m in cases:
            sol = erot.exact_ot_small(r, s, m)
            expected = self._lp_unique(r.weights, s.weights, m.cost, sol.value)
            assert sol.unique_potentials == expected
            verdicts.append(expected)
        assert verdicts[:2] == [False, True]
        assert sum(verdicts) > 3 and len(verdicts) - sum(verdicts) > 3

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
        gaps = np.asarray(report.erot_values) - report.ot.value
        assert np.all(gaps >= -1e-9)
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] <= 1e-1 * (1 + abs(report.ot.value))
        # the entropic value never exceeds OT plus lambda times the entropy cap
        for lam, v in zip(report.lambdas, report.erot_values):
            assert v <= report.ot.value + lam * report.entropy_bound + 1e-9


class TestForbiddenCellsAndUnvalidatedWeights:
    """A forbidden (+inf) cell of a custom table, and weights no validation
    saw."""

    TABLE = [[0, 1, 2], [1, 0, math.inf], [2, 1, 0]]

    def _instance(self, table):
        sp = erot.integer_grid(3)
        m, _ = erot.build_cost({"family": "custom", "cost": table}, sp, sp, 1.0)
        return erot.validate_measure([0.2, 0.3, 0.5], sp), m

    def test_forbidden_cell_adds_nothing_to_the_cost_part(self):
        r, m = self._instance(self.TABLE)
        sol = erot.solve(r, r, m, 1.0)
        assert sol.plan[1, 2] == 0.0
        finite = np.where(np.isinf(m.cost), 0.0, m.cost)
        assert sol.cost_part == pytest.approx(float(np.sum(finite * sol.plan)), rel=1e-14)
        assert sol.cost_part == pytest.approx(0.30338149922992225, rel=1e-12)
        assert sol.mutual_info == pytest.approx(0.4437128745338304, rel=1e-12)
        assert sol.mutual_info == pytest.approx(erot.mutual_information(sol.plan, r, r),
                                                rel=1e-9)

    def test_exact_oracle_refuses_an_infinite_cost_on_the_supports(self):
        r, m = self._instance(self.TABLE)
        with pytest.raises(InvalidFamilyParams, match="finite costs"):
            erot.exact_ot_small(r, r, m)
        with pytest.raises(InvalidFamilyParams, match="finite costs"):
            erot.vanishing_reg_gap(r, r, m, [1.0])

    def test_negative_weight_of_an_unvalidated_measure(self):
        r, m = self._instance([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        for w in ([0.6, -0.1, 0.5], [math.nan, 0.5, 0.5]):
            bad = erot.DiscreteMeasure(r.space, np.array(w))
            with pytest.raises(NegativeWeight):
                erot.solve(bad, r, m, 1.0)
            with pytest.raises(NegativeWeight):
                erot.solve(r, bad, m, 1.0)
