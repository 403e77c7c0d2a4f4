"""Finite truncations of countable spaces, probability measures and signed
perturbations on them, weighted l1 norms, entropy, and empirical measures.

A countable space is represented by a finite, ordered truncation whose atoms
may carry numeric coordinates (needed by metric cost families).  Measures on
such a truncation optionally record an analytic tail family (geometric,
polynomial, sub-Weibull) which the summability checkers use to decide
convergence of the gating series; without one, a measure is either an exactly
finitely supported measure or an unclassified truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigParse,
    EmptySample,
    IndexOutOfRange,
    MassMismatch,
    NegativeWeight,
    OrderOutOfRange,
    SpaceMismatch,
)

MASS_TOL = 1e-12
RENORM_TOL = 1e-9

ONE_SAMPLE = "one_sample"
ONE_SAMPLE_R = "one_sample_r"
ONE_SAMPLE_S = "one_sample_s"
TWO_SAMPLE = "two_sample"


@dataclass(frozen=True)
class IndexedSpace:
    """Ordered finite truncation of a countable space.

    ``coords`` is optional; when present it has one row per atom (scalar
    coordinates are stored as shape ``(n, 1)``) and is what metric cost
    families measure distances on.
    """

    labels: tuple
    coords: np.ndarray | None = None

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("space needs at least one atom")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("atom labels must be unique")
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            if c.shape[0] != len(self.labels):
                raise ValueError("one coordinate row per atom required")
            object.__setattr__(self, "coords", c)

    @property
    def size(self) -> int:
        return len(self.labels)

    def same_as(self, other: "IndexedSpace") -> bool:
        return self.labels == other.labels


def integer_grid(n: int, start: int = 0) -> IndexedSpace:
    """Space {start, ..., start+n-1} with matching scalar coordinates."""
    pts = np.arange(start, start + n)
    return IndexedSpace(tuple(str(p) for p in pts), coords=pts.astype(float))


@dataclass(frozen=True)
class TailFamily:
    """Analytic tail description of a measure on an enumerated space.

    kind "geometric":   r_i ~ q**i            (param q in (0,1))
    kind "polynomial":  r_i ~ i**(-a)         (param a > 1)
    kind "subweibull":  r_i ~ exp(-g * i**t)  (params g > 0, t > 0)
    kind "finite":      exact finite support, no tail at all
    """

    kind: str
    q: float | None = None
    a: float | None = None
    gamma: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in ("geometric", "polynomial", "subweibull", "finite"):
            raise ValueError(f"unknown tail family {self.kind!r}")


FINITE_TAIL = TailFamily("finite")


@dataclass(frozen=True)
class DiscreteMeasure:
    space: IndexedSpace
    weights: np.ndarray
    tail: TailFamily | None = FINITE_TAIL


@dataclass(frozen=True)
class SignedVector:
    space: IndexedSpace
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.space.size,):
            raise SpaceMismatch("entry vector does not match space size")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class WeightFunction:
    """Positive weights aligned with a space; the C/e/k profiles live in [1, inf)."""

    space: IndexedSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.size,):
            raise SpaceMismatch("weight vector does not match space size")
        if np.any(v <= 0):
            raise ValueError("weight function must be strictly positive")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Design:
    """Sampling design of a limit theorem: the weights of the r- and
    s-empirical processes in the limit.  One sample from r is (1, 0), one
    from s is (0, 1), and samples of sizes n from r and m from s are
    (delta, 1 - delta) with delta = m / (n + m).  A side of weight 0 is not
    sampled."""

    w_r: float
    w_s: float

    @classmethod
    def of(cls, mode, delta: float | None = None) -> "Design":
        """The design a mode spelling names ("one_sample" is "one_sample_r";
        "two_sample" needs delta in (0, 1)); a Design passes through."""
        if isinstance(mode, Design):
            return mode
        if mode in (ONE_SAMPLE, ONE_SAMPLE_R):
            return cls(1.0, 0.0)
        if mode == ONE_SAMPLE_S:
            return cls(0.0, 1.0)
        if mode != TWO_SAMPLE:
            raise ConfigParse(f"unknown sampling mode {mode!r}")
        if not (delta is not None and 0.0 < delta < 1.0):
            raise ValueError("two-sample mode needs delta in (0, 1)")
        return cls(delta, 1.0 - delta)

    def combine(self, r_term, s_term):
        """w_r r_term() + w_s s_term(); the term of a side of weight 0 is not
        evaluated."""
        return sum(w * term() for w, term in ((self.w_r, r_term), (self.w_s, s_term)) if w)


def validate_measure(
    weights,
    space: IndexedSpace,
    tail: TailFamily | None = FINITE_TAIL,
) -> DiscreteMeasure:
    """Check finite, nonnegative weights and unit mass; small deviations
    (<= 1e-9) are renormalized away."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (space.size,):
        raise SpaceMismatch(
            f"got {w.shape[0] if w.ndim == 1 else w.shape} weights for "
            f"{space.size} atoms"
        )
    if np.any(w < 0):
        raise NegativeWeight(f"negative weight (min {w.min():.3g})")
    finite = np.isfinite(w)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MassMismatch(f"atom {space.labels[i]!r} has weight {w[i]}, not a finite number")
    total = w.sum()
    if abs(total - 1.0) > MASS_TOL:
        if abs(total - 1.0) <= RENORM_TOL:
            w = w / total
        else:
            raise MassMismatch(f"weights sum to {total!r}, expected 1")
    return DiscreteMeasure(space, w, tail=tail)


def truncated_measure(
    unnormalized,
    space: IndexedSpace,
    tail: TailFamily | None = None,
) -> DiscreteMeasure:
    """Normalize an unnormalized weight vector onto ``space``.

    This is the constructor for ground-truth measures with analytic tails:
    the truncation is chosen by the caller so that the discarded tail mass is
    negligible (< 1e-12 of the total for the shipped geometric-type
    families), and the remaining mass is rescaled to 1 and validated.
    """
    w = np.asarray(unnormalized, dtype=float)
    if np.any(w < 0):
        raise NegativeWeight("negative weight in truncation")
    return validate_measure(w / w.sum(), space, tail=tail)


def geometric_measure(space: IndexedSpace, q: float) -> DiscreteMeasure:
    if not 0 < q < 1:
        raise ValueError("geometric ratio must lie in (0,1)")
    i = np.arange(space.size)
    return truncated_measure(q**i, space, tail=TailFamily("geometric", q=q))


def polynomial_measure(space: IndexedSpace, a: float) -> DiscreteMeasure:
    if a <= 1:
        raise ValueError("polynomial exponent must exceed 1 for summability")
    i = np.arange(1, space.size + 1, dtype=float)
    return truncated_measure(i**-a, space, tail=TailFamily("polynomial", a=a))


def subweibull_measure(space: IndexedSpace, gamma: float, theta: float) -> DiscreteMeasure:
    if gamma <= 0 or theta <= 0:
        raise ValueError("sub-Weibull parameters must be positive")
    i = np.arange(space.size, dtype=float)
    return truncated_measure(
        np.exp(-gamma * i**theta), space, tail=TailFamily("subweibull", gamma=gamma, theta=theta)
    )


def weighted_l1_norm(a: SignedVector, w: WeightFunction) -> float:
    if not a.space.same_as(w.space):
        raise SpaceMismatch("signed vector and weight function live on different spaces")
    return float(np.abs(a.entries) @ w.values)


def truncate_signed(h: SignedVector, l: int) -> SignedVector:
    """Support the vector on the first ``l`` atoms, folding all tail mass
    (entries beyond position l) into the first atom so the total sum is
    preserved exactly."""
    n = h.space.size
    if not 2 <= l <= n:
        raise OrderOutOfRange(f"order {l} outside [2, {n}]")
    out = np.zeros(n)
    out[1:l] = h.entries[1:l]
    # math.fsum keeps the fold exact to the last bit over long tails
    out[0] = math.fsum(h.entries[:1].tolist() + h.entries[l:].tolist())
    return SignedVector(h.space, out)


def shannon_entropy(m: DiscreteMeasure) -> float:
    w = m.weights[m.weights > 0]
    return float(-(w @ np.log(w)))


def entropy_pair(r: DiscreteMeasure, s: DiscreteMeasure) -> float:
    """Smaller of the two Shannon entropies (0 log 0 = 0 convention)."""
    return min(shannon_entropy(r), shannon_entropy(s))


def empirical_measure(sample_indices, space: IndexedSpace) -> DiscreteMeasure:
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.size == 0:
        raise EmptySample("empirical measure needs at least one observation")
    if idx.min() < 0 or idx.max() >= space.size:
        raise IndexOutOfRange(f"sample index outside [0, {space.size})")
    counts = np.bincount(idx, minlength=space.size).astype(float)
    return DiscreteMeasure(space, counts / idx.size, tail=FINITE_TAIL)


def l1_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    if not a.space.same_as(b.space):
        raise SpaceMismatch("measures live on different spaces")
    return float(np.abs(a.weights - b.weights).sum())
