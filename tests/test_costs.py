import math

import numpy as np
import pytest

import erot
from erot.errors import (
    InvalidFamilyParams,
    MissingCoordinates,
    SeparabilityViolated,
)


def _sandwich_ok(model):
    dom = model.dom_primary
    lo = dom.cX_minus[:, None] + dom.cY_minus[None, :]
    hi = dom.cX_plus[:, None] + dom.cY_plus[None, :]
    return np.all(lo <= model.cost + 1e-12) and np.all(model.cost <= hi + 1e-12)


class TestBoundedFamily:
    def test_discrete_metric_weights(self):
        sp = erot.integer_grid(3)
        model, prof = erot.build_cost(
            {"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0
        )
        # max cost 1 split evenly: C = 1 + 1/2, e = exp(1/2)
        assert np.allclose(prof.C_X.values, 1.5)
        assert np.allclose(prof.C_Y.values, 1.5)
        assert np.allclose(prof.e_X.values, math.exp(0.5))
        assert np.allclose(prof.e_Y.values, math.exp(0.5))
        assert _sandwich_ok(model)

    def test_constant_weight_vectors(self):
        sp = erot.integer_grid(4)
        rng = np.random.default_rng(0)
        model, prof = erot.build_cost(
            {"family": "custom", "cost": rng.uniform(0, 3, (4, 4))}, sp, sp, 1.0
        )
        assert _sandwich_ok(model)

    def test_rejects_negative_cost(self):
        sp = erot.integer_grid(2)
        with pytest.raises(InvalidFamilyParams):
            erot.build_cost({"family": "bounded", "cost": [[-1, 0], [0, 0]]}, sp, sp, 1.0)


class TestSemiBoundedFamily:
    def test_example_radius_one(self):
        # X bounded in [0,1], Y = {0..50}, anchor 0, absolute-difference cost
        spx = erot.IndexedSpace(("0", "1"), coords=[0.0, 1.0])
        spy = erot.integer_grid(51)
        model, prof = erot.build_cost(
            {"family": "metric_power", "p": 1, "anchor": 0.0, "setting": "semi_bounded"},
            spx, spy, 1.0,
        )
        y = np.arange(51.0)
        assert np.allclose(model.dom_primary.cY_plus, y + 1.0)
        assert np.allclose(model.dom_primary.cY_minus, np.maximum(y - 1.0, 0.0))
        assert np.all(model.dom_primary.cX_plus == 0.0)
        assert _sandwich_ok(model)
        assert model.bounded_x_variation

    def test_power_two_sandwich(self):
        spx = erot.IndexedSpace(("a", "b", "c"), coords=[0.0, 0.5, 1.0])
        spy = erot.integer_grid(40)
        model, _ = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "semi_bounded"},
            spx, spy, 2.0,
        )
        assert _sandwich_ok(model)

    def test_missing_coordinates(self):
        spx = erot.IndexedSpace(("a", "b"))
        spy = erot.integer_grid(3)
        with pytest.raises(MissingCoordinates):
            erot.build_cost(
                {"family": "metric_power", "p": 1, "anchor": 0.0}, spx, spy, 1.0
            )


class TestUnboundedFamily:
    @pytest.mark.parametrize("p", [2, 3])
    def test_both_collections_sandwich(self, p):
        sp = erot.integer_grid(25)
        model, _ = erot.build_cost(
            {"family": "metric_power", "p": p, "anchor": 0.0, "setting": "unbounded"},
            sp, sp, 1.0,
        )
        assert model.dom_secondary is not None
        assert not model.bounded_x_variation
        assert _sandwich_ok(model)

    def test_noninteger_p_rejected(self):
        sp = erot.integer_grid(5)
        with pytest.raises(InvalidFamilyParams):
            erot.build_cost(
                {"family": "metric_power", "p": 2.5, "anchor": 0.0,
                 "setting": "unbounded"}, sp, sp, 1.0,
            )


class TestSeparabilityFamily:
    def test_disjoint_halflines(self):
        # X in (-inf, 0], Y in [1, inf), anchor 0: the triangle through the
        # anchor is tight, so kappa = 0 and e is identically 1
        spx = erot.IndexedSpace(tuple("abcd"), coords=[-3.0, -2.0, -1.0, 0.0])
        spy = erot.IndexedSpace(tuple("efgh"), coords=[1.0, 2.0, 3.0, 4.0])
        model, prof = erot.build_cost(
            {"family": "separability", "anchor": 0.0}, spx, spy, 1.0
        )
        dx = np.array([3.0, 2.0, 1.0, 0.0])
        assert np.allclose(model.dom_primary.cX_plus, dx)
        assert np.allclose(model.dom_primary.cX_minus, dx)  # kappa = 0
        assert np.allclose(prof.e_X.values, 1.0)
        assert np.allclose(prof.e_Y.values, 1.0)
        assert _sandwich_ok(model)

    def test_kappa_bound_enforced(self):
        sp = erot.integer_grid(5)  # overlapping spaces: kappa = 2 * max distance
        with pytest.raises(SeparabilityViolated):
            erot.build_cost(
                {"family": "separability", "anchor": 0.0, "kappa_max": 1.0},
                sp, sp, 1.0,
            )


def test_weight_profile_monotone_in_lambda():
    sp = erot.integer_grid(10)
    _, p1 = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 0.5)
    _, p2 = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 2.0)
    assert np.all(p2.e_X.values <= p1.e_X.values)
    assert np.all(p2.e_Y.values <= p1.e_Y.values)


def test_k_delta_profile():
    sp = erot.integer_grid(4)
    _, prof = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
    k = prof.k_X(2.0)
    assert np.allclose(k.values, prof.C_X.values * prof.e_X.values**2)
    assert np.all(prof.e_X.values >= 1.0)


class TestShiftNonnegative:
    def test_already_nonnegative(self):
        sp = erot.integer_grid(3)
        model, _ = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
        r = erot.validate_measure([0.2, 0.3, 0.5], sp)
        shifted, offset = erot.shift_nonnegative(model, r, r)
        assert offset == 0.0
        assert np.array_equal(shifted.cost, model.cost)

    def test_constant_shift(self):
        sp = erot.integer_grid(2)
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        from erot.costs import CostModel, DominatingCollection, Family

        model = CostModel(
            sp, sp, base - 3.0,
            DominatingCollection(np.full(2, -3.0), np.full(2, 1.0),
                                 np.zeros(2), np.zeros(2)),
            None, Family.CUSTOM,
        )
        r = erot.validate_measure([0.5, 0.5], sp)
        shifted, offset = erot.shift_nonnegative(model, r, r)
        assert offset == pytest.approx(-3.0)
        assert np.allclose(shifted.cost, base)

    def test_same_argmin_plan(self):
        rng = np.random.default_rng(7)
        sp = erot.integer_grid(3)
        cost = rng.uniform(0, 1, (3, 3))
        r = erot.validate_measure(rng.dirichlet(np.ones(3)), sp)
        s = erot.validate_measure(rng.dirichlet(np.ones(3)), sp)
        model, _ = erot.build_cost({"family": "custom", "cost": cost}, sp, sp, 1.0)
        shifted, offset = erot.shift_nonnegative(model, r, s)
        a = erot.solve(r, s, model, 1.0)
        b = erot.solve(r, s, shifted, 1.0)
        assert np.allclose(a.plan, b.plan, atol=1e-9)
        assert a.value == pytest.approx(b.value + offset, abs=1e-9)


class TestConditionChecks:
    def test_bounded_geometric_passes(self):
        sp = erot.integer_grid(30)
        geo = erot.geometric_measure(sp, 0.5)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        assert erot.check_value_conditions(geo, geo, prof).verdict == "Pass"
        assert erot.check_value_conditions(geo, geo, prof, "two_sample").verdict == "Pass"

    def test_bounded_polynomial_fails(self):
        # sum sqrt(r_x) ~ sum 1/x diverges for a = 2
        sp = erot.integer_grid(30)
        poly = erot.polynomial_measure(sp, 2.0)
        geo = erot.geometric_measure(sp, 0.5)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        report = erot.check_value_conditions(poly, geo, prof)
        assert report.verdict == "Fail"
        assert any(c.verdict == "diverges" for c in report.checked_sums)

    def test_fixed_r_gates_under_one_sample_s(self):
        # a heavy-tailed r only fails the theorems that sample it: with r
        # fixed, sum r C_X converges where sum sqrt(r) C_X (a = 1.5) diverges
        sp = erot.integer_grid(30)
        poly = erot.polynomial_measure(sp, 1.5)
        geo = erot.geometric_measure(sp, 0.5)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        report = erot.check_value_conditions(poly, geo, prof, "one_sample_s")
        assert report.verdict == "Pass"
        assert [c.description for c in report.checked_sums] == [
            "sum Ct_X r", "sum C_X r", "sum et_X r",
            "sum Ct_Y sqrt(s)", "sum C_Y^2 s", "sum e_Y^2 s",
        ]
        for mode in ("one_sample_r", "two_sample"):
            report = erot.check_value_conditions(poly, geo, prof, mode)
            assert report.verdict == "Fail"
            assert report.checked_sums[0].description == "sum C_X sqrt(r)"
            assert report.checked_sums[0].verdict == "diverges"

    def test_finite_support_always_passes(self):
        sp = erot.integer_grid(6)
        r = erot.validate_measure(np.full(6, 1 / 6), sp)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        assert erot.check_value_conditions(r, r, prof).verdict == "Pass"
        assert erot.check_plan_conditions(r, r, prof).verdict == "Pass"

    def test_unclassified_tail_is_inconclusive(self):
        sp = erot.integer_grid(8)
        w = np.full(8, 1 / 8)
        r = erot.DiscreteMeasure(sp, w, tail=None)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        assert erot.check_value_conditions(r, r, prof).verdict == "Inconclusive"

    def test_unbounded_both_plan_fails_with_reason(self):
        sp = erot.integer_grid(20)
        geo = erot.geometric_measure(sp, 0.5)
        _, prof = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "unbounded"},
            sp, sp, 1.0,
        )
        report = erot.check_plan_conditions(geo, geo, prof)
        assert report.verdict == "Fail"
        assert any("unbounded X-variation" in c.detail for c in report.checked_sums)

    def test_semibounded_subweibull_above_order_passes(self):
        spx = erot.IndexedSpace(("0", "1"), coords=[0.0, 1.0])
        spy = erot.integer_grid(30)
        _, prof = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "semi_bounded"},
            spx, spy, 1.0,
        )
        r = erot.validate_measure([0.5, 0.5], spx)
        s_fast = erot.subweibull_measure(spy, gamma=1.0, theta=1.5)  # order > p-1
        assert erot.check_plan_conditions(r, s_fast, prof).verdict == "Pass"
        # order below p-1: the e_Y^4 growth wins and the sum diverges
        s_slow = erot.subweibull_measure(spy, gamma=1.0, theta=0.5)
        assert erot.check_plan_conditions(r, s_slow, prof).verdict == "Fail"

    def test_plan_pass_implies_value_pass_when_single_collection(self):
        sp = erot.integer_grid(25)
        geo = erot.geometric_measure(sp, 0.3)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        if erot.check_plan_conditions(geo, geo, prof).verdict == "Pass":
            assert erot.check_value_conditions(geo, geo, prof).verdict == "Pass"
