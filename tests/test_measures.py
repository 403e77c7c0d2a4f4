import math

import numpy as np
import pytest

import erot
from erot.errors import (
    EmptySample,
    IndexOutOfRange,
    MassMismatch,
    NegativeWeight,
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
    sp = erot.integer_grid(4)
    assert sp.labels == ("0", "1", "2", "3")
    assert np.allclose(sp.coords[:, 0], [0, 1, 2, 3])


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


@pytest.mark.parametrize("build, error, message", [
    (lambda: erot.IndexedSpace(()), ValueError, "space needs at least one atom"),
    (lambda: erot.SignedVector(erot.integer_grid(3), [1.0, -1.0]), SpaceMismatch,
     "entry vector does not match space size"),
    (lambda: erot.measures.truncated_measure([-1.0, -2.0], erot.integer_grid(2)),
     NegativeWeight, "negative weight in truncation"),
], ids=["empty-space", "signed-vector-length", "truncation-all-negative"])
def test_malformed_measure_objects_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_tail_constructors_attach_families():
    sp = erot.integer_grid(10)
    assert erot.geometric_measure(sp, 0.5).tail.kind == "geometric"
    assert erot.polynomial_measure(sp, 2.0).tail.kind == "polynomial"
    assert isinstance(erot.polynomial_measure(sp, 2).tail.a, float)
    assert erot.subweibull_measure(sp, 1.0, 1.5).tail.kind == "subweibull"
    with pytest.raises(ValueError):
        erot.geometric_measure(sp, 1.5)
    with pytest.raises(ValueError):
        erot.polynomial_measure(sp, 1.0)
    # the tail is checked before the weights are computed: exp(+i) would overflow
    with pytest.raises(ValueError, match="'gamma' in \\(0, inf\\), not -1"):
        erot.subweibull_measure(erot.integer_grid(1000), -1, 1)


@pytest.mark.parametrize("kind, params, message", [
    ("geometric", {}, "geometric tail needs 'q' in (0, 1), not None"),
    ("geometric", {"q": 0}, "geometric tail needs 'q' in (0, 1), not 0"),
    ("geometric", {"q": 1.0}, "geometric tail needs 'q' in (0, 1), not 1.0"),
    ("geometric", {"q": math.nan}, "geometric tail needs 'q' in (0, 1), not nan"),
    ("polynomial", {"a": 1}, "polynomial tail needs 'a' in (1, inf), not 1"),
    ("polynomial", {"a": math.inf}, "polynomial tail needs 'a' in (1, inf), not inf"),
    ("polynomial", {"a": [3]}, "polynomial tail needs 'a' in (1, inf), not [3]"),
    ("subweibull", {"gamma": 1.0}, "subweibull tail needs 'theta' in (0, inf), not None"),
    ("subweibull", {"gamma": 1.0, "theta": 0.0},
     "subweibull tail needs 'theta' in (0, inf), not 0.0"),
    ("geometric", {"q": 0.5, "theta": 1.0}, "geometric tail takes no 'theta'"),
    ("finite", {"a": 2.0}, "finite tail takes no 'a'"),
    ("cauchy", {}, "unknown tail family 'cauchy'"),
])
def test_tail_family_checks_its_parameters(kind, params, message):
    with pytest.raises(ValueError) as info:
        erot.TailFamily(kind, **params)
    assert str(info.value) == message



def test_geometric_measure_shape():
    sp = erot.integer_grid(5)
    m = erot.geometric_measure(sp, 0.5)
    # ratios of consecutive weights are exactly q
    assert np.allclose(m.weights[1:] / m.weights[:-1], 0.5)
    assert math.isclose(m.weights.sum(), 1.0, abs_tol=1e-15)


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

