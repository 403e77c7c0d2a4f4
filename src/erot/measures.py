"""Finite truncations of countable spaces, probability measures and signed
perturbations on them, entropy, and empirical measures.

A countable space is represented by a finite, ordered truncation whose atoms
may carry numeric coordinates (needed by metric cost families).  Measures on
such a truncation optionally record an analytic tail family (geometric,
polynomial, sub-Weibull) which the summability checkers use to decide
convergence of the gating series; without one, a measure is either an exactly
finitely supported measure or an unclassified truncation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigParse,
    EmptySample,
    IndexOutOfRange,
    MassMismatch,
    NegativeWeight,
    SpaceMismatch,
)

MASS_TOL = 1e-12
RENORM_TOL = 1e-9

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
            if c.ndim != 2 or c.shape[0] != len(self.labels):
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


# each tail kind's parameters (TailFamily fields) and the open interval of each
TAIL_PARAMS = {"geometric": {"q": (0.0, 1.0)}, "polynomial": {"a": (1.0, math.inf)},
               "subweibull": {"gamma": (0.0, math.inf), "theta": (0.0, math.inf)}, "finite": {}}


@dataclass(frozen=True)
class TailFamily:
    """Analytic tail description of a measure on an enumerated space; the
    kind and its parameters (TAIL_PARAMS) are checked at construction.

    kind "geometric":   r_i ~ q**i            (0 < q < 1)
    kind "polynomial":  r_i ~ i**(-a)         (finite a > 1)
    kind "subweibull":  r_i ~ exp(-g * i**t)  (finite g > 0 and t > 0)
    kind "finite":      exact finite support, no tail at all
    """

    kind: str
    q: float | None = None
    a: float | None = None
    gamma: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in TAIL_PARAMS:
            raise ValueError(f"unknown tail family {self.kind!r}")
        ranges = TAIL_PARAMS[self.kind]
        for key in ("q", "a", "gamma", "theta"):
            if key not in ranges and getattr(self, key) is not None:
                raise ValueError(f"{self.kind} tail takes no '{key}'")
        for key, (lo, hi) in ranges.items():
            value = getattr(self, key)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and lo < value < hi):
                raise ValueError(f"{self.kind} tail needs '{key}' in ({lo:g}, {hi:g}), "
                                 f"not {value!r}")
            object.__setattr__(self, key, float(value))


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
        """The design a mode names (a Design passes through); only "two_sample"
        reads delta, which must lie in (0, 1), and any other mode refuses one."""
        if mode == TWO_SAMPLE:
            if not (delta is not None and 0.0 < delta < 1.0):
                raise ConfigParse("two-sample mode needs delta in (0, 1)")
            return cls(delta, 1.0 - delta)
        if not (isinstance(mode, Design) or mode in (ONE_SAMPLE_R, ONE_SAMPLE_S)):
            raise ConfigParse(f"unknown sampling mode {mode!r}")
        if delta is not None:
            raise ConfigParse(f"delta is read only by mode {TWO_SAMPLE!r}, not by {mode!r}")
        if isinstance(mode, Design):
            return mode
        return cls(1.0, 0.0) if mode == ONE_SAMPLE_R else cls(0.0, 1.0)

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
    tail = TailFamily("geometric", q=q)
    return truncated_measure(q ** np.arange(space.size), space, tail=tail)


def polynomial_measure(space: IndexedSpace, a: float) -> DiscreteMeasure:
    tail = TailFamily("polynomial", a=a)
    return truncated_measure(np.arange(1, space.size + 1, dtype=float) ** -a, space, tail=tail)


def subweibull_measure(space: IndexedSpace, gamma: float, theta: float) -> DiscreteMeasure:
    tail = TailFamily("subweibull", gamma=gamma, theta=theta)
    i = np.arange(space.size, dtype=float)
    return truncated_measure(np.exp(-gamma * i**theta), space, tail=tail)


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

