from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dpocon

import erot
from erot.errors import (
    ConfigParse,
    ContractionViolated,
    NonConvergence,
    NotInTangentCone,
    UnboundedXVariation,
    ZeroMassAtom,
)
from erot.sensitivity import (
    _functional_jacobians,
    _multinomial_form,
    _potential_corrections,
    ONE_SAMPLE_R,
    ONE_SAMPLE_S,
    TWO_SAMPLE,
    build_operators,
    divergence_variance,
    functional_covariance,
    plan_derivative,
    sample_limit,
    sample_multinomial_gaussian,
    sinkhorn_cost_variance,
    value_derivative,
    value_variance,
)

import oracles


def _instance(seed, n_x=5, n_y=5, lam=1.0):
    rng = np.random.default_rng(seed)
    spx = erot.integer_grid(n_x)
    spy = erot.integer_grid(n_y)
    r = erot.validate_measure(rng.dirichlet(np.ones(n_x) * 5), spx)
    s = erot.validate_measure(rng.dirichlet(np.ones(n_y) * 5), spy)
    m, _ = erot.build_cost(
        {"family": "custom", "cost": rng.uniform(0, 2, (n_x, n_y))}, spx, spy, lam
    )
    sol = erot.solve(r, s, m, lam)
    return r, s, m, sol


def _tangent(space, entries):
    arr = np.asarray(entries, dtype=float)
    return erot.SignedVector(space, arr - arr.sum() * np.full(arr.size, 1 / arr.size))


class TestOperators:
    def test_row_sum_structure(self):
        r, s, m, sol = _instance(0)
        ops = build_operators(sol, r, s, m)
        AX, AY, _, _ = oracles.operators(sol.plan, r, s)
        # AY rows are conditional distributions of x given y: sum to one
        assert np.allclose(AY.sum(axis=1), 1.0, atol=1e-10)
        # AX rows drop the y1 column of a conditional, so sums are below one
        assert np.all(AX.sum(axis=1) < 1.0)
        assert 0.0 < ops.contraction_norm < 1.0

    def test_product_plan_operators(self):
        sp = erot.integer_grid(3)
        r = erot.validate_measure([0.2, 0.3, 0.5], sp)
        s = erot.validate_measure([0.5, 0.25, 0.25], sp)
        rng = np.random.default_rng(1)
        f = rng.uniform(0, 1, 3)
        m, _ = erot.build_cost(
            {"family": "custom", "cost": f[:, None] + np.zeros((3, 3))}, sp, sp, 1.0
        )
        sol = erot.solve(r, s, m, 1.0)
        AX, AY, BX, _ = oracles.operators(sol.plan, r, s)
        # pi = r x s: AX columns are the s-masses, AY columns the r-masses
        assert np.allclose(AX, np.broadcast_to(s.weights[1:], (3, 2)), atol=1e-9)
        assert np.allclose(AY, np.broadcast_to(r.weights, (2, 3)), atol=1e-9)
        assert np.allclose(BX, 1.0, atol=1e-9)

    def test_zero_mass_atom_rejected(self):
        sp = erot.integer_grid(3)
        r = erot.validate_measure([0.5, 0.5, 0.0], sp)
        s = erot.validate_measure([0.4, 0.3, 0.3], sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        sol = erot.solve(r, s, m, 1.0)
        with pytest.raises(ZeroMassAtom):
            build_operators(sol, r, s, m)

    def test_unbounded_x_variation_rejected(self):
        sp = erot.integer_grid(10)
        geo = erot.geometric_measure(sp, 0.5)
        m, _ = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "unbounded"},
            sp, sp, 2000.0,
        )
        sol = erot.solve(geo, geo, m, 2000.0)
        with pytest.raises(UnboundedXVariation):
            build_operators(sol, geo, geo, m)

    def test_one_atom_y_is_factored_without_blas_complaint(self, capfd):
        # Y* is empty, so S = I; a syrk with k = 0 is refused by the BLAS,
        # which prints its complaint to the process's own output
        sp = erot.integer_grid(5)
        r = erot.validate_measure([0.3, 0.25, 0.2, 0.15, 0.1], sp)
        s = erot.validate_measure([1.0], erot.integer_grid(1))
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, s.space, 1.0)
        ops = build_operators(erot.solve(r, s, m, 1.0), r, s, m)
        f = np.array([[1.0], [0.0], [0.5], [0.2], [0.1]])
        cov = functional_covariance(ops, r, s, [f])
        assert capfd.readouterr() == ("", "")
        # the plan is r (x) delta_0, so <f, pi> moves with the r-sample alone
        g = f[:, 0]
        assert cov[0, 0] == pytest.approx((g - g @ r.weights) ** 2 @ r.weights, rel=1e-12)


class TestPlanDerivative:
    def test_zero_direction(self):
        r, s, m, sol = _instance(2)
        ops = build_operators(sol, r, s, m)
        zX = erot.SignedVector(r.space, np.zeros(5))
        zY = erot.SignedVector(s.space, np.zeros(5))
        assert np.allclose(plan_derivative(ops, zX, zY), 0.0, atol=1e-14)

    def test_marginal_identities(self):
        r, s, m, sol = _instance(3)
        ops = build_operators(sol, r, s, m)
        rng = np.random.default_rng(30)
        hX = _tangent(r.space, rng.normal(size=5))
        hY = _tangent(s.space, rng.normal(size=5))
        d = plan_derivative(ops, hX, hY)
        assert np.allclose(d.sum(axis=1), hX.entries, atol=1e-10)
        assert np.allclose(d.sum(axis=0), hY.entries, atol=1e-10)

    def test_finite_difference_convergence(self):
        r, s, m, sol = _instance(4)
        ops = build_operators(sol, r, s, m)
        rng = np.random.default_rng(40)
        hX = _tangent(r.space, rng.normal(size=5) * 0.05)
        hY = _tangent(s.space, rng.normal(size=5) * 0.05)
        d = plan_derivative(ops, hX, hY)
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            rt = erot.validate_measure(r.weights + t * hX.entries, r.space)
            st = erot.validate_measure(s.weights + t * hY.entries, s.space)
            pert = erot.solve(rt, st, m, sol.lam)
            errs.append(np.max(np.abs((pert.plan - sol.plan) / t - d)))
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_neumann_matches_direct(self):
        r, s, m, sol = _instance(5)
        ops = build_operators(sol, r, s, m)
        rng = np.random.default_rng(50)
        hX = _tangent(r.space, rng.normal(size=5))
        hY = _tangent(s.space, rng.normal(size=5))
        a = plan_derivative(ops, hX, hY)
        b = oracles.neumann_plan_derivative(sol.plan, r, s, hX.entries, hY.entries)
        assert np.allclose(a, b, atol=1e-8)

    def test_non_tangent_rejected(self):
        r, s, m, sol = _instance(6)
        ops = build_operators(sol, r, s, m)
        bad = erot.SignedVector(r.space, np.full(5, 0.1))
        good = erot.SignedVector(s.space, np.zeros(5))
        with pytest.raises(NotInTangentCone):
            plan_derivative(ops, bad, good)


class TestValueDerivative:
    def test_two_point_direction(self):
        r, s, m, sol = _instance(7)
        h = np.zeros(5)
        h[1], h[2] = 1.0, -1.0
        hX = erot.SignedVector(r.space, h)
        hY = erot.SignedVector(s.space, np.zeros(5))
        d = value_derivative(sol, hX, hY)
        assert d == pytest.approx(sol.alpha[1] - sol.alpha[2], abs=1e-12)
        hX_neg = erot.SignedVector(r.space, -h)
        assert value_derivative(sol, hX_neg, hY) == pytest.approx(-d, abs=1e-12)


class TestCovariances:
    def test_multinomial_two_atom(self):
        # J = I: the quadratic form J (diag w - w w^T) J^T is the covariance itself
        sp = erot.integer_grid(2)
        u = erot.validate_measure([0.5, 0.5], sp).weights
        cov = _multinomial_form(np.eye(2), u)
        assert np.allclose(cov, [[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(cov, oracles.multinomial_covariance(u), rtol=0, atol=1e-15)

    def test_multinomial_point_mass_and_row_sums(self):
        sp = erot.integer_grid(3)
        pm = erot.validate_measure([0.0, 1.0, 0.0], sp).weights
        assert np.allclose(_multinomial_form(np.eye(3), pm), 0.0)
        assert np.allclose(oracles.multinomial_covariance(pm), 0.0)
        rng = np.random.default_rng(8)
        r = erot.validate_measure(rng.dirichlet(np.ones(3)), sp).weights
        cov = _multinomial_form(np.eye(3), r)
        assert np.allclose(cov.sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(cov, oracles.multinomial_covariance(r), rtol=0, atol=1e-15)

    def test_value_variance_degenerate_cases(self):
        sp = erot.integer_grid(2)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        pm = erot.validate_measure([1.0, 0.0], sp)
        s = erot.validate_measure([0.5, 0.5], sp)
        sol = erot.solve(pm, s, m, 1.0)
        assert value_variance(sol, pm, s, ONE_SAMPLE_R) == pytest.approx(0.0, abs=1e-12)
        # symmetric uniform case: alpha is constant, so the variance vanishes
        u = erot.validate_measure([0.5, 0.5], sp)
        sol_u = erot.solve(u, u, m, 1.0)
        assert value_variance(sol_u, u, u, ONE_SAMPLE_R) == pytest.approx(0.0, abs=1e-10)

    def test_value_variance_two_atom_formula(self):
        # r = (0.3, 0.7): Var_r[alpha] = 0.3 * 0.7 * (alpha0 - alpha1)^2
        sp = erot.integer_grid(2)
        r = erot.validate_measure([0.3, 0.7], sp)
        s = erot.validate_measure([0.5, 0.5], sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        sol = erot.solve(r, s, m, 1.0)
        expected = 0.21 * (sol.alpha[0] - sol.alpha[1]) ** 2
        assert value_variance(sol, r, s, ONE_SAMPLE_R) == pytest.approx(expected, abs=1e-12)

    def test_value_variance_normalization_invariant(self):
        r, s, m, sol = _instance(9)
        # the potentials shifted by hand along the gauge (alpha + t, beta - t)
        shifted = replace(sol, alpha=sol.alpha + 0.7, beta=sol.beta - 0.7)
        for mode, delta in ((ONE_SAMPLE_R, None), (ONE_SAMPLE_S, None), (TWO_SAMPLE, 0.4)):
            assert value_variance(sol, r, s, mode, delta) == pytest.approx(
                value_variance(shifted, r, s, mode, delta), abs=1e-10
            )

    def test_two_sample_interpolates(self):
        r, s, m, sol = _instance(10)
        vr = value_variance(sol, r, s, ONE_SAMPLE_R)
        vs = value_variance(sol, r, s, ONE_SAMPLE_S)
        vt = value_variance(sol, r, s, TWO_SAMPLE, delta=0.25)
        assert vt == pytest.approx(0.25 * vr + 0.75 * vs, abs=1e-12)
        with pytest.raises(ValueError):
            value_variance(sol, r, s, TWO_SAMPLE)

    def test_divergence_variance_degenerates(self):
        sp = erot.integer_grid(3)
        rng = np.random.default_rng(11)
        r = erot.validate_measure(rng.dirichlet(np.ones(3)), sp)
        m, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        assert divergence_variance(r, r, m, 1.0) == pytest.approx(0.0, abs=1e-10)
        pm = erot.validate_measure([1.0, 0.0, 0.0], sp)
        s = erot.validate_measure([0.2, 0.3, 0.5], sp)
        assert divergence_variance(pm, s, m, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert divergence_variance(r, s, m, 1.0) > 1e-8

    @pytest.mark.parametrize("mode, delta", [(ONE_SAMPLE_R, None),
                                             (ONE_SAMPLE_S, None),
                                             (TWO_SAMPLE, 0.3)])
    def test_divergence_statistics_equal_the_three_solve_formulas(self, mode, delta):
        # the divergence and its variance are exactly what the full solutions
        # at (r, s), (r, r) and (s, s) give
        rng = np.random.default_rng(23)
        sp = erot.integer_grid(40)
        r = erot.validate_measure(rng.dirichlet(np.ones(40)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(40)), sp)
        a = rng.uniform(0, 2, (40, 40))
        m, _ = erot.build_cost({"family": "bounded", "cost": 0.5 * (a + a.T)}, sp, sp, 0.5)
        rs, rr, ss = (erot.solve(x, y, m, 0.5) for x, y in ((r, s), (r, r), (s, s)))

        def var(w, g):
            return float(max(0.0, (g - g @ w) ** 2 @ w))

        expected = erot.Design.of(mode, delta).combine(
            lambda: var(r.weights, rs.alpha - rr.alpha),
            lambda: var(s.weights, rs.beta - ss.beta))
        assert divergence_variance(r, s, m, 0.5, mode, delta) == expected
        assert erot.sinkhorn_divergence(r, s, m, 0.5) == rs.value - 0.5 * (rr.value + ss.value)

    def test_functional_covariance_structure(self):
        r, s, m, sol = _instance(12)
        ops = build_operators(sol, r, s, m)
        const = np.ones((5, 5))
        f = np.random.default_rng(120).uniform(0, 1, (5, 5))
        cov = functional_covariance(ops, r, s, [const, f, 2 * f])
        # <1, pi> = 1 identically, so the constant table has no fluctuation
        assert abs(cov[0, 0]) <= 1e-14
        assert np.allclose(cov[0], 0.0, atol=1e-12)
        # 2f is perfectly correlated with f: covariance scales quadratically
        assert cov[1, 2] == pytest.approx(2 * cov[1, 1], abs=1e-12)
        assert cov[2, 2] == pytest.approx(4 * cov[1, 1], abs=1e-12)
        assert np.allclose(cov, cov.T)

    @pytest.mark.parametrize("mode, delta", [(ONE_SAMPLE_R, None),
                                             (ONE_SAMPLE_S, None),
                                             (TWO_SAMPLE, 0.3)])
    def test_functional_covariance_against_neumann_jacobian(self, mode, delta):
        # oracle: Jacobian columns <f, Dpi(e_x - r, 0)> and <f, Dpi(0, e_y - s)>
        # from the Neumann-summed plan derivative, one direction at a time
        r, s, m, sol = _instance(17, n_x=5, n_y=4)
        ops = build_operators(sol, r, s, m)
        rng = np.random.default_rng(170)
        fns = [m.cost, rng.uniform(-1, 1, (5, 4)), rng.uniform(0, 1, (5, 4))]
        F = np.array(fns)
        JX = np.column_stack([
            (F * oracles.neumann_plan_derivative(sol.plan, r, s, e - r.weights,
                                                 np.zeros(4))).sum(axis=(1, 2))
            for e in np.eye(5)])
        JY = np.column_stack([
            (F * oracles.neumann_plan_derivative(sol.plan, r, s, np.zeros(5),
                                                 e - s.weights)).sum(axis=(1, 2))
            for e in np.eye(4)])
        cov_r = JX @ oracles.multinomial_covariance(r.weights) @ JX.T
        cov_s = JY @ oracles.multinomial_covariance(s.weights) @ JY.T
        expected = {ONE_SAMPLE_R: cov_r, ONE_SAMPLE_S: cov_s,
                    TWO_SAMPLE: 0.3 * cov_r + 0.7 * cov_s}[mode]
        got = functional_covariance(ops, r, s, fns, mode, delta)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())

    def test_cost_variance_matches_functional_path(self):
        r, s, m, sol = _instance(13)
        ops = build_operators(sol, r, s, m)
        direct = sinkhorn_cost_variance(ops, r, s, m)
        via_fc = float(functional_covariance(ops, r, s, [m.cost])[0, 0])
        assert direct == pytest.approx(via_fc, abs=1e-12)
        assert direct > 0


class TestSampling:
    def test_gaussian_draws_match_covariance(self):
        sp = erot.integer_grid(4)
        rng = np.random.default_rng(14)
        r = erot.validate_measure(rng.dirichlet(np.ones(4)), sp)
        draws = sample_multinomial_gaussian(r, 200_000, np.random.default_rng(0))
        emp = draws.T @ draws / draws.shape[0]
        assert np.allclose(emp, oracles.multinomial_covariance(r.weights), atol=5e-3)
        assert np.allclose(draws.sum(axis=1), 0.0, atol=1e-12)

    def test_sample_limit_variance_and_determinism(self):
        r, s, m, sol = _instance(15)
        ops = build_operators(sol, r, s, m)
        target = value_variance(sol, r, s, ONE_SAMPLE_R)
        draws = sample_limit(ops, 100_000, seed=7)
        assert np.var(draws) == pytest.approx(target, rel=0.05)
        again = sample_limit(ops, 100_000, seed=7)
        assert np.array_equal(draws, again)
        assert sample_limit(ops, 0, seed=7).shape == (0,)

    def test_sample_limit_plan_functional(self):
        r, s, m, sol = _instance(16)
        ops = build_operators(sol, r, s, m)
        target = sinkhorn_cost_variance(ops, r, s, m)
        draws = sample_limit(ops, 100_000, seed=3, f=m.cost)
        assert np.var(draws) == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("mode, delta", [(ONE_SAMPLE_S, None), (TWO_SAMPLE, 0.35)])
    def test_sample_limit_variance_in_other_designs(self, mode, delta):
        r, s, m, sol = _instance(17)
        ops = build_operators(sol, r, s, m)
        draws = sample_limit(ops, 100_000, seed=11, mode=mode, delta=delta)
        target = value_variance(sol, r, s, mode, delta)
        assert np.var(draws) == pytest.approx(target, rel=0.05)


class TestDesign:
    def test_one_sample_spelling_is_refused(self):
        # "one_sample_r" is the one spelling of that design
        r, s, m, sol = _instance(18)
        ops = build_operators(sol, r, s, m)
        tables = [m.cost, np.arange(25.0).reshape(5, 5)]
        _, profile = erot.build_cost({"family": "custom", "cost": m.cost}, r.space, s.space, 1.0)
        for call in (lambda: value_variance(sol, r, s, "one_sample"),
                     lambda: functional_covariance(ops, r, s, tables, "one_sample"),
                     lambda: erot.check_value_conditions(r, s, profile, "one_sample"),
                     lambda: erot.Design.of("one_sample")):
            with pytest.raises(ConfigParse, match="unknown sampling mode 'one_sample'"):
                call()
        assert not hasattr(erot.measures, "ONE_SAMPLE")
        assert (erot.check_value_conditions(r, s, profile).to_dict()
                == erot.check_value_conditions(r, s, profile, ONE_SAMPLE_R).to_dict())

    def test_delta_outside_two_sample_is_refused(self):
        r, s, m, sol = _instance(18)
        for mode in (ONE_SAMPLE_R, ONE_SAMPLE_S, erot.Design(1.0, 0.0)):
            with pytest.raises(ConfigParse, match="delta is read only by mode 'two_sample'"):
                erot.Design.of(mode, 0.3)
            with pytest.raises(ConfigParse, match="delta is read only by mode 'two_sample'"):
                value_variance(sol, r, s, mode, 0.3)
        # the conditions ask only which sides are sampled, so two_sample needs no delta
        _, profile = erot.build_cost({"family": "custom", "cost": m.cost}, r.space, s.space, 1.0)
        assert (erot.check_value_conditions(r, s, profile, TWO_SAMPLE).to_dict()
                == erot.check_value_conditions(r, s, profile, erot.Design(0.5, 0.5)).to_dict())

    def test_weights_of_each_spelling(self):
        assert erot.Design.of(ONE_SAMPLE_R) == erot.Design(1.0, 0.0)
        assert erot.Design.of(ONE_SAMPLE_S) == erot.Design(0.0, 1.0)
        assert erot.Design.of(TWO_SAMPLE, 0.25) == erot.Design(0.25, 0.75)

    def test_invalid_modes(self):
        r, s, m, sol = _instance(19)
        with pytest.raises(ConfigParse, match="unknown sampling mode"):
            value_variance(sol, r, s, "bogus")
        with pytest.raises(ValueError, match="delta"):
            value_variance(sol, r, s, TWO_SAMPLE, 1.0)


class TestNeumannAndConditioning:
    def test_neumann_raises_when_truncated(self):
        # the oracle refuses to stop early, so a comparison with it checks
        # a converged sum
        M = np.array([[0.5, 0.2], [0.1, 0.6]])
        rhs = np.array([1.0, -1.0])
        with pytest.raises(NonConvergence) as info:
            oracles.neumann_solve(M, rhs, rate=0.7, max_terms=5)
        assert info.value.iterations == 5
        assert info.value.residual > 0
        full = oracles.neumann_solve(M, rhs, rate=0.7)
        assert np.allclose(full, np.linalg.solve(np.eye(2) - M, rhs), atol=1e-12)

    def test_near_one_warning_reports_the_gap(self):
        # 21-atom reference instance: geometric q = 0.7, cost |x - y|, lambda = 1
        sp = erot.integer_grid(21)
        g = erot.geometric_measure(sp, 0.7)
        m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        sol = erot.solve(g, g, m, 1.0)
        ops = build_operators(sol, g, g, m)
        assert 1.0 - ops.contraction_norm == pytest.approx(4.5e-8, rel=0.05)


def _tail(family, n):
    """Shipped tail on n atoms with cost |x - y| at lambda = 1."""
    sp = erot.integer_grid(n)
    w = erot.geometric_measure(sp, 0.7) if family == "geometric" else erot.polynomial_measure(sp, 3.0)
    m, _ = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
    return w, m


def _dirichlet_instance(n, seed):
    rng = np.random.default_rng(seed)
    sp = erot.integer_grid(n)
    a = rng.uniform(0, 2, (n, n))
    r = erot.validate_measure(rng.dirichlet(2 * np.ones(n)), sp)
    s = erot.validate_measure(rng.dirichlet(2 * np.ones(n)), sp)
    m, _ = erot.build_cost({"family": "bounded", "cost": 0.5 * (a + a.T)}, sp, sp, 1.0)
    return r, s, m


def _relative_tangent(measure, rng):
    """w.z - <w, z> w: moves each atom's mass by a relative amount, so
    w + t h stays positive on the lightest atoms of a tail."""
    w = measure.weights
    z = rng.standard_normal(w.size)
    return erot.SignedVector(measure.space, w * z - (w @ z) * w)


class TestTails:
    @pytest.mark.parametrize("family", ["geometric", "polynomial"])
    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_operators_and_marginal_identities(self, family, n):
        # ||AX AY||_inf passes 1 on these tails, yet S stays well conditioned
        w, m = _tail(family, n)
        sol = erot.solve(w, w, m, 1.0)
        ops = build_operators(sol, w, w, m)
        assert ops.contraction_norm > 1.0
        assert ops.schur_min_eig > 1e-3
        cov = functional_covariance(ops, w, w, [m.cost, np.ones((n, n))])
        assert cov[0, 0] > 0 and np.all(np.isfinite(cov))
        rng = np.random.default_rng(n)
        hX, hY = _tangent(w.space, rng.normal(size=n)), _tangent(w.space, rng.normal(size=n))
        d = plan_derivative(ops, hX, hY)
        assert np.max(np.abs(d.sum(axis=1) - hX.entries)) <= 1e-12
        # Column y of the derivative is off by (c_y/s_y - 1)(hY_y - s_y b_y),
        # c the plan's column sums: at the default tolerance the lightest
        # columns are fitted only to 2.6e-3 relative (geometric, n = 120).  A
        # solve to 1e-15 and directions that move mass in proportion to the
        # weights take that below 1e-12.
        tight = erot.solve(w, w, m, 1.0, erot.SolveConfig(tol=1e-15))
        ops = build_operators(tight, w, w, m)
        hX, hY = _relative_tangent(w, rng), _relative_tangent(w, rng)
        d = plan_derivative(ops, hX, hY)
        assert np.max(np.abs(d.sum(axis=1) - hX.entries)) <= 1e-12
        assert np.max(np.abs(d.sum(axis=0) - hY.entries)) <= 1e-12


    @pytest.mark.parametrize("family, n", [("geometric", 120), ("polynomial", 60)])
    def test_neumann_cross_check(self, family, n):
        # the Neumann sum stops on the spectral radius of AX AY, since
        # 1 - ||AX AY||_inf is negative here
        w, m = _tail(family, n)
        sol = erot.solve(w, w, m, 1.0)
        ops = build_operators(sol, w, w, m)
        rng = np.random.default_rng(n)
        hX, hY = _tangent(w.space, rng.normal(size=n)), _tangent(w.space, rng.normal(size=n))
        d = plan_derivative(ops, hX, hY)
        e = oracles.neumann_plan_derivative(sol.plan, w, w, hX.entries, hY.entries)
        assert np.max(np.abs(e - d)) <= 1e-12 * np.max(np.abs(d))


class TestSchurGate:
    @pytest.mark.parametrize("radius", [1.0, 1.25])
    def test_spectral_radius_at_least_one_raises(self, radius):
        # hand-built plan with no mass on y1: AX is row-stochastic, and
        # s* = (column sums of pi)/radius makes AX AY 1 = radius 1.  Radius 1
        # leaves S singular; radius 1.25 makes it indefinite, so Cholesky fails
        sp2, sp3 = erot.integer_grid(2), erot.integer_grid(3)
        r = erot.validate_measure([0.5, 0.5], sp2)
        s = erot.validate_measure([0.2, 0.4, 0.4], sp3)
        m, _ = erot.build_cost({"family": "custom", "cost": np.zeros((2, 3))}, sp2, sp3, 1.0)
        plan = np.array([[0.0, 0.3, 0.2], [0.0, 0.1, 0.4]])
        sol = replace(erot.solve(r, s, m, 1.0), plan=plan)
        s_hand = erot.DiscreteMeasure(sp3, np.array([0.2, 0.4 / radius, 0.6 / radius]))
        AX = plan[:, 1:] / r.weights[:, None]
        AY = (plan[:, 1:] / s_hand.weights[1:]).T
        assert np.max(np.abs(np.linalg.eigvals(AX @ AY))) == pytest.approx(radius)
        with pytest.raises(ContractionViolated, match="marginal error 1.0e\\+00") as info:
            build_operators(sol, r, s_hand, m)
        # the error carries what its message formats; schur_min_eig only where
        # the Cholesky factor exists
        fields = vars(info.value)
        assert fields.pop("max_rel_marginal_error") == pytest.approx(1.0)
        assert fields.pop("contraction_norm") == pytest.approx(radius)
        assert list(fields) == (["schur_min_eig"] if radius == 1.0 else [])

    def test_min_eig_estimate_on_reference_instance(self):
        w, m = _tail("geometric", 21)
        sol = erot.solve(w, w, m, 1.0)
        ops = build_operators(sol, w, w, m)
        K = sol.plan[:, 1:] / np.sqrt(np.outer(w.weights, w.weights[1:]))
        S = np.eye(21) - K @ K.T
        L = np.linalg.cholesky(S)
        norm1 = np.abs(S).sum(axis=0).max()
        assert ops.schur_min_eig == pytest.approx(dpocon(L, norm1, uplo="L")[0] * norm1,
                                                  rel=1e-12)
        # 1/||S^-1||_1 bounds the smallest eigenvalue from below, within sqrt(n)
        lam_min = np.linalg.eigvalsh(S)[0]
        assert lam_min / np.sqrt(21) <= ops.schur_min_eig <= lam_min * (1 + 1e-9)
        err = max(np.max(np.abs(sol.plan.sum(axis=1) / w.weights - 1)),
                  np.max(np.abs(sol.plan.sum(axis=0) / w.weights - 1)))
        assert ops.max_rel_marginal_error == pytest.approx(err, rel=1e-9)


class TestOracles:
    @pytest.mark.parametrize("case, bound", [("dirichlet", 1e-8), ("geometric", 1e-6),
                                             ("polynomial", 1e-6)])
    def test_central_difference_through_solve(self, case, bound):
        n, t = 60, 1e-4
        cfg = erot.SolveConfig(tol=1e-13)
        if case == "dirichlet":
            r, s, m = _dirichlet_instance(n, 60)
        else:
            r, m = _tail(case, n)
            s = r
        sol = erot.solve(r, s, m, 1.0, cfg)
        ops = build_operators(sol, r, s, m)
        rng = np.random.default_rng(61)
        hX, hY = _relative_tangent(r, rng), _relative_tangent(s, rng)
        d = plan_derivative(ops, hX, hY)

        def plan_at(step):
            rt = erot.validate_measure(r.weights + step * hX.entries, r.space)
            st = erot.validate_measure(s.weights + step * hY.entries, s.space)
            return erot.solve(rt, st, m, 1.0, cfg, warm_start=sol.alpha).plan

        fd = (plan_at(t) - plan_at(-t)) / (2 * t)
        assert np.abs(fd - d).sum() <= bound * np.abs(d).sum()

    def test_cholesky_solves_against_dense_block_system(self):
        n = 300
        r, s, m = _dirichlet_instance(n, 300)
        ops = build_operators(erot.solve(r, s, m, 1.0), r, s, m)
        pi, w_r, w_s = ops.base.plan, r.weights, s.weights
        AX, AY, BX, BY = oracles.operators(pi, r, s)
        # [[I, AX], [AY, I]] (a, b) = (u, v), of size nx + ny - 1
        M = np.block([[np.eye(n), AX], [AY, np.eye(n - 1)]])
        rng = np.random.default_rng(301)
        hX, hY = rng.normal(size=n), rng.normal(size=n)
        a, b = _potential_corrections(ops, hX, hY)
        ab = np.linalg.solve(M, np.concatenate((BX @ hY, BY @ hX)))
        assert np.allclose(np.concatenate((a, b)), ab, rtol=0, atol=1e-10 * np.abs(ab).max())
        # Jacobian rows <f, Dpi(e_x, 0)> and <f, Dpi(0, e_y)> for raw coordinates
        fns = [m.cost, rng.uniform(-1, 1, (n, n))]
        F = np.array(fns) * pi
        gx, gy = F.sum(axis=2), F.sum(axis=1)
        sol_x = np.linalg.solve(M, np.vstack((np.zeros((n, n)), BY)))
        sol_y = np.linalg.solve(M, np.vstack((BX, np.zeros((n - 1, n)))))
        JX = gx / w_r - gx @ sol_x[:n] - gy[:, 1:] @ sol_x[n:]
        JY = gy / w_s - gx @ sol_y[:n] - gy[:, 1:] @ sol_y[n:]
        got_x, got_y = _functional_jacobians(ops, fns)
        assert np.allclose(got_x, JX, rtol=0, atol=1e-10 * np.abs(JX).max())
        assert np.allclose(got_y, JY, rtol=0, atol=1e-10 * np.abs(JY).max())
