import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erot
from erot.errors import (
    EmptySample,
    IndexOutOfRange,
    MassMismatch,
    NegativeWeight,
    OrderOutOfRange,
    SpaceMismatch,
)


def test_space_requires_unique_labels():
    with pytest.raises(ValueError):
        erot.IndexedSpace(("a", "a"))


def test_space_coords_shape():
    sp = erot.IndexedSpace(("a", "b"), coords=[0.0, 1.0])
    assert sp.coords.shape == (2, 1)
    with pytest.raises(ValueError):
        erot.IndexedSpace(("a", "b"), coords=[[0.0], [1.0], [2.0]])


def test_integer_grid():
    sp = erot.integer_grid(4, start=2)
    assert sp.labels == ("2", "3", "4", "5")
    assert np.allclose(sp.coords[:, 0], [2, 3, 4, 5])


class TestValidateMeasure:
    def test_accepts_exact(self):
        sp = erot.integer_grid(3)
        m = erot.validate_measure([0.2, 0.3, 0.5], sp)
        assert np.allclose(m.weights, [0.2, 0.3, 0.5])

    def test_renormalizes_tiny_drift(self):
        sp = erot.integer_grid(2)
        m = erot.validate_measure([0.5 + 2e-10, 0.5], sp)
        assert abs(m.weights.sum() - 1.0) <= 1e-15

    def test_rejects_large_drift(self):
        sp = erot.integer_grid(2)
        with pytest.raises(MassMismatch):
            erot.validate_measure([0.6, 0.5], sp)

    def test_rejects_negative(self):
        sp = erot.integer_grid(2)
        with pytest.raises(NegativeWeight):
            erot.validate_measure([-0.1, 1.1], sp)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weight_naming_the_atom(self, bad):
        sp = erot.IndexedSpace(("a", "b", "c"))
        with pytest.raises(MassMismatch, match=f"atom 'b' has weight {bad}"):
            erot.validate_measure([0.5, bad, 0.5], sp)
        with pytest.raises(MassMismatch, match="atom 'a'"):
            erot.validate_measure([bad, 0.5, 0.5], sp)

    def test_rejects_wrong_length(self):
        sp = erot.integer_grid(3)
        with pytest.raises(SpaceMismatch):
            erot.validate_measure([0.5, 0.5], sp)


def test_truncated_measure_rejects_a_nan_weight():
    with pytest.raises(MassMismatch, match="not a finite number"):
        erot.measures.truncated_measure([math.nan, 1.0, 1.0], erot.integer_grid(3))


def test_tail_constructors_attach_families():
    sp = erot.integer_grid(10)
    assert erot.geometric_measure(sp, 0.5).tail.kind == "geometric"
    assert erot.polynomial_measure(sp, 2.0).tail.kind == "polynomial"
    assert erot.subweibull_measure(sp, 1.0, 1.5).tail.kind == "subweibull"
    with pytest.raises(ValueError):
        erot.geometric_measure(sp, 1.5)
    with pytest.raises(ValueError):
        erot.polynomial_measure(sp, 1.0)


def test_geometric_measure_shape():
    sp = erot.integer_grid(5)
    m = erot.geometric_measure(sp, 0.5)
    # ratios of consecutive weights are exactly q
    assert np.allclose(m.weights[1:] / m.weights[:-1], 0.5)
    assert math.isclose(m.weights.sum(), 1.0, abs_tol=1e-15)


@given(
    entries=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=3,
        max_size=40,
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_truncate_signed_preserves_sum(entries, data):
    sp = erot.integer_grid(len(entries))
    h = erot.SignedVector(sp, np.array(entries))
    l = data.draw(st.integers(min_value=2, max_value=len(entries)))
    t = erot.truncate_signed(h, l)
    # the fold is exact: compare against fsum of the originals
    assert math.fsum(t.entries.tolist()) == pytest.approx(
        math.fsum(entries), abs=1e-9 * (1 + abs(math.fsum(entries)))
    )
    assert np.all(t.entries[l:] == 0.0)
    assert np.array_equal(t.entries[1:l], h.entries[1:l])


def test_truncate_signed_order_bounds():
    sp = erot.integer_grid(4)
    h = erot.SignedVector(sp, np.arange(4.0))
    with pytest.raises(OrderOutOfRange):
        erot.truncate_signed(h, 1)
    with pytest.raises(OrderOutOfRange):
        erot.truncate_signed(h, 5)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20)
)
@settings(max_examples=100, deadline=None)
def test_weighted_l1_norm_properties(entries):
    sp = erot.integer_grid(len(entries))
    h = erot.SignedVector(sp, np.array(entries))
    w = erot.WeightFunction(sp, np.ones(len(entries)))
    # unit weights give the plain l1 norm; norms scale with the weights
    assert erot.weighted_l1_norm(h, w) == pytest.approx(np.abs(h.entries).sum())
    w2 = erot.WeightFunction(sp, 2 * np.ones(len(entries)))
    assert erot.weighted_l1_norm(h, w2) == pytest.approx(
        2 * erot.weighted_l1_norm(h, w)
    )


def test_weighted_l1_norm_space_mismatch():
    h = erot.SignedVector(erot.integer_grid(3), np.zeros(3))
    w = erot.WeightFunction(erot.integer_grid(4), np.ones(4))
    with pytest.raises(SpaceMismatch):
        erot.weighted_l1_norm(h, w)


def test_shannon_entropy_uniform():
    sp = erot.integer_grid(4)
    m = erot.validate_measure(np.full(4, 0.25), sp)
    assert erot.shannon_entropy(m) == pytest.approx(math.log(4))


def test_entropy_pair_is_min_and_symmetric():
    sp = erot.integer_grid(3)
    a = erot.validate_measure([1.0, 0.0, 0.0], sp)  # entropy 0 with 0 log 0 = 0
    b = erot.validate_measure([1 / 3] * 3, sp)
    assert erot.entropy_pair(a, b) == 0.0
    assert erot.entropy_pair(a, b) == erot.entropy_pair(b, a)


def test_empirical_measure_counts():
    sp = erot.integer_grid(4)
    m = erot.empirical_measure([0, 0, 1, 3], sp)
    assert np.allclose(m.weights, [0.5, 0.25, 0.0, 0.25])
    with pytest.raises(EmptySample):
        erot.empirical_measure([], sp)
    with pytest.raises(IndexOutOfRange):
        erot.empirical_measure([4], sp)


def test_l1_distance():
    sp = erot.integer_grid(2)
    a = erot.validate_measure([1.0, 0.0], sp)
    b = erot.validate_measure([0.0, 1.0], sp)
    assert erot.measures.l1_distance(a, b) == pytest.approx(2.0)
