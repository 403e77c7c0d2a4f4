import math
from dataclasses import replace

import numpy as np
import pytest

import erot
from erot.costs import (
    BLOCK_CELLS,
    SANDWICH_TOL,
    CostModel,
    DominatingCollection,
    row_blocks,
)
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
        assert np.allclose(prof.values["C_X"], 1.5)
        assert np.allclose(prof.values["C_Y"], 1.5)
        assert np.allclose(prof.values["e_X"], math.exp(0.5))
        assert np.allclose(prof.values["e_Y"], math.exp(0.5))
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
        assert np.allclose(prof.values["e_X"], 1.0)
        assert np.allclose(prof.values["e_Y"], 1.0)
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
    assert np.all(p2.values["e_X"] <= p1.values["e_X"])
    assert np.all(p2.values["e_Y"] <= p1.values["e_Y"])


def test_k_delta_profile():
    sp = erot.integer_grid(4)
    _, prof = erot.build_cost({"family": "bounded", "kind": "discrete_metric"}, sp, sp, 1.0)
    assert np.all(prof.values["e_X"] >= 1.0)


@pytest.mark.parametrize("spec", [
    {"family": "bounded", "p": 1},
    {"family": "bounded", "kind": "discrete_metric"},
    {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "semi_bounded"},
    {"family": "separability", "anchor": 0.0},
    {"family": "custom", "cost": [[0.0, 1.0], [1.0, 0.0]]},
    {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "unbounded"},
], ids=["bounded", "discrete_metric", "semi_bounded", "separability", "custom", "unbounded"])
def test_secondary_weights_default_to_the_primary(spec):
    # Ct_* and et_* name the secondary collection; a family without one
    # gives them its primary's values and growth shapes
    sp = erot.integer_grid(len(spec.get("cost", range(8))))
    model, prof = erot.build_cost(spec, sp, sp, 1.0)
    pairs = [(t, t.replace("t", "", 1)) for t in ("Ct_X", "Ct_Y", "et_X", "et_Y")]
    same_values = [np.array_equal(prof.values[t], prof.values[k]) for t, k in pairs]
    same_growth = [prof.growth[t] == prof.growth[k] for t, k in pairs]
    if model.dom_secondary is None:
        assert all(same_values) and all(same_growth)
    else:
        assert not all(same_values) and not all(same_growth)


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

    def test_infinite_weight_counts_only_at_atoms_with_mass(self):
        # a forbidden cell makes C_X infinite at its row: the finite-support
        # sum diverges when that row has mass, and the row adds nothing when not
        sp = erot.integer_grid(3)
        _, prof = erot.build_cost(
            {"family": "custom", "cost": [[0, 1, 2], [1, 0, math.inf], [2, 1, 0]]}, sp, sp, 1.0)
        s = erot.validate_measure([0.2, 0.3, 0.5], sp)
        r = erot.validate_measure([0.5, 0.0, 0.5], sp)
        report = erot.check_value_conditions(s, s, prof)
        assert report.verdict == "Fail"
        assert not math.isfinite(report.checked_sums[0].partial_sum)
        with np.errstate(all="raise"):
            report = erot.check_value_conditions(r, s, prof)
        assert report.verdict == "Pass"
        assert report.checked_sums[0].partial_sum == pytest.approx(2 * 3 * math.sqrt(0.5))

    def test_increment_ratio_reads_only_atoms_with_mass(self):
        # the last row and column hold a forbidden cell, so the last atom's
        # weights are infinite; without mass it must not enter the ratio
        cost = np.add.outer(np.arange(5.0), np.arange(5.0))
        cost[4, 4] = math.inf
        sp = erot.integer_grid(5)
        _, prof = erot.build_cost({"family": "custom", "cost": cost}, sp, sp, 1.0)
        r = erot.validate_measure([0.3, 0.25, 0.2, 0.25, 0.0], sp, tail=None)
        sums = erot.check_value_conditions(r, r, prof).checked_sums
        # X, sampled: C_X sqrt(r) over atoms 2 and 3
        C_X = prof.values["C_X"]
        expected = C_X[3] * math.sqrt(0.25) / (C_X[2] * math.sqrt(0.2))
        assert sums[0].detail == f"increment ratio {expected:.4g}"
        # Y, fixed: C_Y = 1, so the ratio is s_3 / s_2 and not 0 from the last atom
        assert sums[3].detail == f"increment ratio {0.25 / 0.2:.4g}"
        assert all(c.detail != "increment ratio nan" for c in sums)

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

    def test_overflowing_e_Y_power_diverges_without_a_warning(self):
        # e_Y reaches about 1.3e85 on 8 atoms, so e_Y^4 overflows to inf; the
        # suite turns the RuntimeWarning that overflow used to raise into an error
        sp = erot.integer_grid(8)
        _, prof = erot.build_cost(
            {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "semi_bounded"},
            sp, sp, 1.0,
        )
        r = erot.polynomial_measure(sp, 3.0)
        s = erot.subweibull_measure(sp, gamma=0.5, theta=0.8)
        report = erot.check_plan_conditions(r, s, prof)
        assert report.verdict == "Fail"
        (gate,) = [c for c in report.checked_sums if c.description == "sum C_Y e_Y^4 s"]
        assert gate.partial_sum == math.inf and gate.verdict == "diverges"
        # the value gates of a sampled s square e_Y: at lambda = 0.5 on a
        # polynomial s, sum e_Y^2 s is about e^784
        _, prof = erot.build_cost({"family": "metric_power", "p": 2, "anchor": 0.0}, sp, sp, 0.5)
        r, s = erot.geometric_measure(sp, 0.6), erot.polynomial_measure(sp, 3.0)
        for mode in ("one_sample_s", "two_sample"):
            report = erot.check_value_conditions(r, s, prof, mode)
            assert report.verdict == "Fail"
            (gate,) = [c for c in report.checked_sums if c.description == "sum e_Y^2 s"]
            assert gate.partial_sum == math.inf and gate.verdict == "diverges"

    def test_plan_pass_implies_value_pass_when_single_collection(self):
        sp = erot.integer_grid(25)
        geo = erot.geometric_measure(sp, 0.3)
        _, prof = erot.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
        if erot.check_plan_conditions(geo, geo, prof).verdict == "Pass":
            assert erot.check_value_conditions(geo, geo, prof).verdict == "Pass"


# ---------------------------------------------------------------------------
# blocked table checks against the whole-table expressions they replaced


def _dense_sandwich_ok(cost, dom):
    """The whole-table sandwich check, kept as the oracle."""
    tol = SANDWICH_TOL
    if np.any(dom.cX_minus > dom.cX_plus + tol) or np.any(dom.cY_minus > dom.cY_plus + tol):
        return False
    lo = dom.cX_minus[:, None] + dom.cY_minus[None, :]
    hi = dom.cX_plus[:, None] + dom.cY_plus[None, :]
    return not (np.any(lo > cost + tol) or np.any(cost > hi + tol))


def _blocked_sandwich_ok(cost, dom):
    sx, sy = erot.integer_grid(cost.shape[0]), erot.integer_grid(cost.shape[1])
    try:
        CostModel(sx, sy, cost, dom, None)
    except InvalidFamilyParams:
        return False
    return True


# 300 x 250 cells: several row blocks, the last one partial
NX, NY = 300, 250


def test_oracle_shape_has_a_partial_last_block():
    blocks = list(row_blocks(NX, NY))
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) > 2 and sizes[-1] < sizes[0]
    assert max(sizes) * NY <= BLOCK_CELLS and sum(sizes) == NX


KINDS = ["random", "flat", "tight_lower", "tight_upper"]


class TestBlockedSandwich:
    def _inside(self, kind):
        rng = np.random.default_rng(21)
        if kind != "random":
            # constant bounds, as in the bounded family; a "tight" kind gives
            # the last row the tightest lower or upper bound of its block
            dom = DominatingCollection(np.full(NX, -1.0), np.full(NX, 1.1),
                                       np.full(NY, -0.3), np.full(NY, 0.7))
            if kind == "tight_lower":
                dom.cX_minus[-1] = -0.1
            if kind == "tight_upper":
                dom.cX_plus[-1] = 0.2
        else:
            dom = DominatingCollection(
                cX_minus=rng.uniform(-2, 0, NX), cX_plus=rng.uniform(0, 2, NX),
                cY_minus=rng.uniform(-2, 0, NY), cY_plus=rng.uniform(0, 2, NY),
            )
        lo = dom.cX_minus[:, None] + dom.cY_minus[None, :]
        hi = dom.cX_plus[:, None] + dom.cY_plus[None, :]
        return dom, lo, hi, lo + rng.uniform(0, 1, (NX, NY)) * (hi - lo)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cell", [(0, 0), (NX - 1, NY - 1), (NX - 2, 7)])
    def test_verdicts_at_the_tolerance_edge(self, cell, kind):
        dom, lo, hi, cost = self._inside(kind)
        edge_hi, edge_lo = hi[cell] + SANDWICH_TOL, lo[cell] - SANDWICH_TOL
        values = [hi[cell], edge_hi, lo[cell], edge_lo]
        for v in (edge_hi, edge_lo):
            values += [np.nextafter(v, np.inf), np.nextafter(v, -np.inf),
                       v + 1e-3 * SANDWICH_TOL, v - 1e-3 * SANDWICH_TOL]
        verdicts = []
        for v in values:
            c = cost.copy()
            c[cell] = v
            verdicts.append(_dense_sandwich_ok(c, dom))
            assert _blocked_sandwich_ok(c, dom) == verdicts[-1], v
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("kind", KINDS)
    def test_violation_in_the_last_partial_block(self, kind):
        dom, lo, hi, cost = self._inside(kind)
        assert _blocked_sandwich_ok(cost, dom) and _dense_sandwich_ok(cost, dom)
        for row in (NX - 1, list(row_blocks(NX, NY))[-1].start):
            for v in (hi[row, NY - 1] + 1e-6, lo[row, NY - 1] - 1e-6):
                c = cost.copy()
                c[row, NY - 1] = v
                assert not _dense_sandwich_ok(c, dom)
                assert not _blocked_sandwich_ok(c, dom)

    def test_secondary_collection_is_checked_per_block(self):
        dom, lo, hi, cost = self._inside("random")
        tight = replace(dom, cX_plus=dom.cX_minus.copy(), cY_plus=dom.cY_minus.copy())
        sx, sy = erot.integer_grid(NX), erot.integer_grid(NY)
        CostModel(sx, sy, cost, dom, dom)
        with pytest.raises(InvalidFamilyParams, match="sandwich"):
            CostModel(sx, sy, cost, dom, tight)


class TestBlockedSymmetry:
    def _model(self, c):
        sp = erot.integer_grid(c.shape[0])
        wide = DominatingCollection(np.full(c.shape[0], -10.0), np.full(c.shape[0], 10.0),
                                    np.zeros(c.shape[1]), np.zeros(c.shape[1]))
        return CostModel(sp, sp, c, wide, None)

    @pytest.mark.parametrize("cell", [(NX - 1, 0), (0, NX - 1), (NX - 3, NX - 2), (150, 40)])
    def test_verdicts_at_the_allclose_edge(self, cell):
        rng = np.random.default_rng(22)
        a = rng.uniform(-2, 2, (NX, NX))
        base = 0.5 * (a + a.T)
        i, j = cell
        edge = 1e-12 + 1e-5 * abs(base[j, i])
        verdicts = []
        for f in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0):
            for v in (base[j, i] + f * edge, base[j, i] - f * edge):
                for v in (v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)):
                    c = base.copy()
                    c[i, j] = v
                    verdicts.append(np.allclose(c, c.T, atol=1e-12))
                    assert self._model(c).is_symmetric == verdicts[-1], (f, v)
        assert True in verdicts and False in verdicts

    def test_different_spaces_or_rectangular_are_not_symmetric(self):
        sp3, sp4 = erot.integer_grid(3), erot.integer_grid(4)
        m, _ = erot.build_cost({"family": "custom", "cost": np.zeros((3, 4))}, sp3, sp4, 1.0)
        assert not m.is_symmetric
        other = erot.IndexedSpace(("x", "y", "z"))
        m, _ = erot.build_cost({"family": "custom", "cost": np.zeros((3, 3))}, sp3, other, 1.0)
        assert not m.is_symmetric


class TestBlockedTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ord", [None, 1, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
    def test_pairwise_powers_equal_the_dense_table(self, d, ord, p):
        rng = np.random.default_rng(23)
        cx, cy = rng.normal(size=(NX, d)) * 3, rng.normal(size=(NY, d)) * 3
        sx = erot.IndexedSpace(tuple(range(NX)), coords=cx)
        sy = erot.IndexedSpace(tuple(range(NY)), coords=cy)
        m, _ = erot.build_cost({"family": "bounded", "p": p, "norm_ord": ord}, sx, sy, 1.0)
        dense = np.linalg.norm(cx[:, None, :] - cy[None, :, :], ord=ord, axis=2) ** p
        assert np.array_equal(m.cost, dense)

    def test_separability_kappa_is_the_dense_max(self):
        rng = np.random.default_rng(24)
        sx = erot.IndexedSpace(tuple(range(NX)), coords=rng.normal(size=(NX, 2)))
        sy = erot.IndexedSpace(tuple(range(NY)), coords=rng.normal(size=(NY, 2)) + 1.0)
        dx = np.abs(sx.coords).sum(axis=1)
        dy = np.abs(sy.coords).sum(axis=1)
        cost = np.abs(sx.coords[:, None, :] - sy.coords[None, :, :]).sum(axis=2)
        kappa = float(np.max(dx[:, None] + dy[None, :] - cost))
        spec = {"family": "separability", "anchor": [0.0, 0.0]}
        erot.build_cost({**spec, "kappa_max": kappa}, sx, sy, 1.0)
        with pytest.raises(SeparabilityViolated):
            erot.build_cost({**spec, "kappa_max": np.nextafter(kappa, -np.inf)}, sx, sy, 1.0)


class TestNonFiniteCosts:
    def test_nan_entry_in_every_family(self):
        sp = erot.integer_grid(3)
        table = [[0, 1, 2], [1, 0, math.nan], [2, 1, 0]]
        for family in ("bounded", "custom"):
            with pytest.raises(InvalidFamilyParams):
                erot.build_cost({"family": family, "cost": table}, sp, sp, 1.0)
        nan_coords = erot.IndexedSpace(("a", "b", "c"), coords=[0.0, math.nan, 2.0])
        for spec in (
            {"family": "bounded", "p": 1},
            {"family": "metric_power", "p": 2, "anchor": 0.0},
            {"family": "metric_power", "p": 1, "anchor": 0.0, "setting": "bounded"},
            {"family": "separability", "anchor": 0.0},
        ):
            with pytest.raises(InvalidFamilyParams):
                erot.build_cost(spec, nan_coords, nan_coords, 1.0)

    def test_nan_in_the_last_block_of_a_custom_table(self):
        cost = np.random.default_rng(26).uniform(0, 1, (NX, NY))
        cost[NX - 1, NY - 1] = math.nan
        with pytest.raises(InvalidFamilyParams, match="NaN"):
            erot.build_cost({"family": "custom", "cost": cost},
                            erot.integer_grid(NX), erot.integer_grid(NY), 1.0)

    def test_bounded_family_refuses_infinity(self):
        sp = erot.integer_grid(3)
        table = [[0, 1, 2], [1, 0, math.inf], [2, 1, 0]]
        with pytest.raises(InvalidFamilyParams, match="finite"):
            erot.build_cost({"family": "bounded", "cost": table}, sp, sp, 1.0)
        # a custom table may hold +inf: its X-variation is then unbounded
        m, _ = erot.build_cost({"family": "custom", "cost": table}, sp, sp, 1.0)
        assert not m.bounded_x_variation

    def test_negative_infinity_refused(self):
        sp = erot.integer_grid(3)
        table = [[0, 1, 2], [1, 0, -math.inf], [2, 1, 0]]
        with pytest.raises(InvalidFamilyParams, match="-inf entries"):
            erot.build_cost({"family": "custom", "cost": table}, sp, sp, 1.0)
        wide = DominatingCollection(np.full(3, -math.inf), np.full(3, 2.0),
                                    np.zeros(3), np.zeros(3))
        with pytest.raises(InvalidFamilyParams, match="-inf entries"):
            CostModel(sp, sp, np.array(table, dtype=float), wide, None)


class TestCustomDominatingVectors:
    SP = erot.integer_grid(3)
    TABLE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def _dom(self, **overrides):
        dom = {"cX_minus": [0.0] * 3, "cX_plus": [1.0] * 3,
               "cY_minus": [0.0] * 3, "cY_plus": [1.0] * 3}
        return {"family": "custom", "cost": self.TABLE, "dom": {**dom, **overrides}}

    def test_accepted_when_well_formed(self):
        erot.build_cost(self._dom(), self.SP, self.SP, 1.0)

    @pytest.mark.parametrize("key", ["cX_minus", "cX_plus", "cY_minus", "cY_plus"])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_wrong_length_refused(self, key, length):
        spec = self._dom(**{key: [0.0 if key.endswith("minus") else 1.0] * length})
        with pytest.raises(InvalidFamilyParams, match="lengths"):
            erot.build_cost(spec, self.SP, self.SP, 1.0)

    def test_wrong_length_on_a_multi_block_table(self):
        # a length-1 vector would slice to an empty block past the first one
        sx, sy = erot.integer_grid(NX), erot.integer_grid(NY)
        spec = {"family": "custom", "cost": np.zeros((NX, NY)),
                "dom": {"cX_minus": [-1.0], "cX_plus": [1.0],
                        "cY_minus": np.zeros(NY), "cY_plus": np.zeros(NY)}}
        with pytest.raises(InvalidFamilyParams, match="lengths"):
            erot.build_cost(spec, sx, sy, 1.0)

    @pytest.mark.parametrize("key", ["cX_minus", "cX_plus", "cY_minus", "cY_plus"])
    def test_nan_refused(self, key):
        base = 0.0 if key.endswith("minus") else 1.0
        spec = self._dom(**{key: [base, math.nan, base]})
        with pytest.raises(InvalidFamilyParams, match="NaN"):
            erot.build_cost(spec, self.SP, self.SP, 1.0)
