"""Cost tables with separable dominating-function sandwiches, the derived
weight profiles, and the summability checks gating each limit theorem.

Every cost model carries four dominating vectors (cX-, cX+, cY-, cY+) with
cX-(x) + cY-(y) <= c(x,y) <= cX+(x) + cY+(y) pointwise, optionally a second
such collection, and growth descriptors used by the analytic convergence
checks.  Weight profiles are the induced C = 1 + |c+| + |c-| and
e = exp((c+ - c-)/lambda) vectors, in a table keyed by weight name.

Analytic verdicts model a weight as  index**degree * exp(gamma * index**theta)
along the enumeration order; this matches the shipped families on integer
grids where atom coordinates grow linearly with the index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidFamilyParams,
    MissingCoordinates,
    SeparabilityViolated,
)
from .measures import (
    ONE_SAMPLE_R,
    TWO_SAMPLE,
    Design,
    DiscreteMeasure,
    IndexedSpace,
    TailFamily,
)

SANDWICH_TOL = 1e-9
# table-wide checks and reductions read an n x m table in row blocks of at
# most this many cells (256 KB of float64), so their temporaries are a few
# blocks where whole-table expressions would allocate several n x m tables
BLOCK_CELLS = 32_768


def row_blocks(n_rows: int, row_cells: int):
    """Slices of consecutive rows, each of at most BLOCK_CELLS cells (but at
    least one row)."""
    step = max(1, BLOCK_CELLS // max(row_cells, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


@dataclass(frozen=True)
class Growth:
    """Asymptotic shape index**degree * exp(gamma * index**theta)."""

    degree: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0

    def times(self, other: "Growth") -> "Growth":
        if self.gamma and other.gamma and self.theta != other.theta:
            # keep the dominating exponential term
            big, small = (self, other) if self.theta > other.theta else (other, self)
            return Growth(self.degree + other.degree, big.gamma, big.theta)
        theta = self.theta if self.gamma else other.theta
        return Growth(self.degree + other.degree, self.gamma + other.gamma, theta)

    def power(self, k: float) -> "Growth":
        return Growth(self.degree * k, self.gamma * k, self.theta)


CONST_GROWTH = Growth()
_WEIGHT_NAMES = ("C_X", "C_Y", "e_X", "e_Y", "Ct_X", "Ct_Y", "et_X", "et_Y")


def _growth(**shapes: Growth) -> dict:
    """Growth descriptors keyed by weight name: an unnamed primary weight is
    constant, an unnamed secondary one (Ct_*, et_*) takes its primary's."""
    g = {k: shapes.get(k, CONST_GROWTH) for k in _WEIGHT_NAMES[:4]}
    return g | {k: shapes.get(k, g[k.replace("t", "", 1)]) for k in _WEIGHT_NAMES[4:]}


@dataclass(frozen=True)
class DominatingCollection:
    cX_minus: np.ndarray
    cX_plus: np.ndarray
    cY_minus: np.ndarray
    cY_plus: np.ndarray


@dataclass(frozen=True)
class CostModel:
    """A cost table on X x Y and the dominating collections that sandwich
    it, checked cell by cell at construction.  An entry may be +inf, a
    forbidden cell; NaN and -inf entries are refused."""

    space_X: IndexedSpace
    space_Y: IndexedSpace
    cost: np.ndarray
    dom_primary: DominatingCollection
    dom_secondary: DominatingCollection | None
    # asymptotic shapes of the dominating data, keyed by weight name
    growth: dict = field(default_factory=dict)
    # whether sup_x (cX+ - cX-)(x) stays finite on the full countable space
    bounded_x_variation: bool = True

    def __post_init__(self):
        nx, ny = self.space_X.size, self.space_Y.size
        if self.cost.shape != (nx, ny):
            raise InvalidFamilyParams("cost table shape does not match spaces")
        doms = [d for d in (self.dom_primary, self.dom_secondary) if d is not None]
        for dom in doms:
            shapes = (dom.cX_minus.shape, dom.cX_plus.shape, dom.cY_minus.shape, dom.cY_plus.shape)
            if shapes != ((nx,), (nx,), (ny,), (ny,)):
                raise InvalidFamilyParams("dominating function lengths do not match spaces")
            if np.any(dom.cX_minus > dom.cX_plus + SANDWICH_TOL) or np.any(
                dom.cY_minus > dom.cY_plus + SANDWICH_TOL
            ):
                raise InvalidFamilyParams("dominating functions violate c- <= c+")
        # the exhaustive sandwich check, one row block at a time; a NaN entry
        # passes every comparison, so each block's minimum is checked for it
        # (and for -inf, which a table's own bounds would let through)
        for rows in row_blocks(nx, ny):
            c = self.cost[rows]
            low = c.min()
            if np.isnan(low):
                raise InvalidFamilyParams("cost table has NaN entries")
            if low == -np.inf:
                raise InvalidFamilyParams("cost table has -inf entries")
            for dom in doms:
                lo = np.add.outer(dom.cX_minus[rows], dom.cY_minus)
                hi = np.add.outer(dom.cX_plus[rows], dom.cY_plus)
                if np.any(lo > c + SANDWICH_TOL) or np.any(c > hi + SANDWICH_TOL):
                    raise InvalidFamilyParams("dominating functions do not sandwich the cost")
        # NaN bounds pass every comparison too; checked after the table pass,
        # so a NaN table is named even where its derived bounds carry the NaN
        for dom in doms:
            if any(np.isnan(v).any() for v in (dom.cX_minus, dom.cX_plus, dom.cY_minus, dom.cY_plus)):
                raise InvalidFamilyParams("dominating functions have NaN entries")

    @cached_property
    def is_symmetric(self) -> bool:
        """X = Y and the table equals its transpose up to np.allclose's
        tolerance: absolute 1e-12 plus numpy's default relative 1e-5.

        Computed on first read, each row panel against the matching
        transposed column panel; the frozen model keeps the answer."""
        c = self.cost
        return (
            self.space_X.same_as(self.space_Y)
            and c.shape[0] == c.shape[1]
            and all(np.allclose(c[rows], c[:, rows].T, atol=1e-12)
                    for rows in row_blocks(*c.shape))
        )

    @cached_property
    def cost_range(self) -> tuple[float, float]:
        # (min, max) of the table, computed on first read like is_symmetric
        return float(self.cost.min()), float(self.cost.max())


@dataclass(frozen=True)
class WeightProfile:
    """The C and e weights keyed by weight name ("C_X", "et_Y", ...; a t marks
    the secondary collection, the primary when a family has none), the growth
    descriptors keyed the same way, and the X-variation flag the checks read."""

    values: dict
    growth: dict
    bounded_x_variation: bool


def _side_weights(lo: np.ndarray, hi: np.ndarray, lam: float):
    """(C, e) of one side of a dominating collection.  e may saturate to inf;
    the verdicts read the growth descriptors, not these values, and an
    infinite bound (+inf - +inf included) is an infinite variation, e = inf."""
    C = 1.0 + np.abs(hi) + np.abs(lo)
    finite = np.isfinite(lo) & np.isfinite(hi)
    with np.errstate(over="ignore"):
        e = np.exp(np.subtract(hi, lo, out=np.full(hi.shape, np.inf), where=finite) / lam)
    return C, e


def _profile_from(model: CostModel, lam: float) -> WeightProfile:
    p = model.dom_primary
    t = model.dom_secondary or p
    v = {}
    v["C_X"], v["e_X"] = _side_weights(p.cX_minus, p.cX_plus, lam)
    v["C_Y"], v["e_Y"] = _side_weights(p.cY_minus, p.cY_plus, lam)
    v["Ct_X"], v["et_X"] = _side_weights(t.cX_minus, t.cX_plus, lam)
    v["Ct_Y"], v["et_Y"] = _side_weights(t.cY_minus, t.cY_plus, lam)
    return WeightProfile(v, model.growth, model.bounded_x_variation)


# ---------------------------------------------------------------------------
# family construction


def _coords(space: IndexedSpace) -> np.ndarray:
    if space.coords is None:
        raise MissingCoordinates("metric cost families need atom coordinates")
    return space.coords


def _dist_to_anchor(space: IndexedSpace, anchor, ord=None) -> np.ndarray:
    c = _coords(space)
    z = np.atleast_1d(np.asarray(anchor, dtype=float))
    if z.shape[0] != c.shape[1]:
        raise InvalidFamilyParams("anchor dimension does not match coordinates")
    return np.linalg.norm(c - z[None, :], ord=ord, axis=1)


def _pairwise_dist(sx: IndexedSpace, sy: IndexedSpace, ord=None, p: float = 1.0) -> np.ndarray:
    """The table ||x - y||**p, built one row block at a time."""
    cx, cy = _coords(sx), _coords(sy)
    if cx.shape[1] != cy.shape[1]:
        raise InvalidFamilyParams("coordinate dimensions differ between spaces")
    out = np.empty((cx.shape[0], cy.shape[0]))
    for rows in row_blocks(cx.shape[0], cy.size):
        block = out[rows]
        block[...] = np.linalg.norm(cx[rows, None, :] - cy[None, :, :], ord=ord, axis=2)
        if p != 1.0:
            block **= p
    return out


def build_cost(family_spec: dict, space_X: IndexedSpace, space_Y: IndexedSpace, lam: float):
    """Construct a cost model plus its weight profile for one of the shipped
    families.  Returns ``(CostModel, WeightProfile)``."""
    if not 0 < lam < np.inf:  # false for a NaN lam too
        raise InvalidFamilyParams("regularization parameter must be positive and finite")
    spec = dict(family_spec)
    builder = cost_family(spec.pop("family", None))[0]
    # a key the builder does not take raises TypeError instead of being ignored
    model = builder(space_X, space_Y, lam, **spec)
    return model, _profile_from(model, lam)


def cost_family(family):
    """The COST_FAMILIES entry (builder, keys) of a family name."""
    if not (isinstance(family, str) and family in COST_FAMILIES):
        raise InvalidFamilyParams(f"unknown cost family {family!r}")
    return COST_FAMILIES[family]


def _build_bounded(sx, sy, lam, *, cost=None, kind=None, p=None, norm_ord=None):
    if cost is not None:
        cost = np.asarray(cost, dtype=float)
    elif kind == "discrete_metric":
        cost = np.not_equal.outer(np.asarray(sx.labels), np.asarray(sy.labels)).astype(float)
    elif p is not None:
        cost = _pairwise_dist(sx, sy, norm_ord, float(p))
    else:
        raise InvalidFamilyParams("bounded family needs 'cost', 'kind' or 'p'")
    if cost.min() < 0:
        raise InvalidFamilyParams("bounded family expects a nonnegative cost")
    C = float(cost.max())
    if not math.isfinite(C):
        raise InvalidFamilyParams(f"bounded family needs finite cost entries (max c = {C})")
    return _bounded_model(sx, sy, cost, C)


def _bounded_model(sx, sy, cost, C):
    """The model of a cost in [0, C], dominated by 0 <= c <= C/2 + C/2."""
    dom = DominatingCollection(
        cX_minus=np.zeros(sx.size),
        cX_plus=np.full(sx.size, C / 2.0),
        cY_minus=np.zeros(sy.size),
        cY_plus=np.full(sy.size, C / 2.0),
    )
    return CostModel(sx, sy, cost, dom, None, _growth())


def _build_metric_power(sx, sy, lam, *, p=None, anchor=None, norm_ord=None,
                        setting="semi_bounded", epsilon=0.5, gamma=1.0):
    if p is None or p < 1:
        raise InvalidFamilyParams("metric power needs p >= 1")
    if anchor is None:
        raise InvalidFamilyParams("metric power needs an anchor point")
    dx = _dist_to_anchor(sx, anchor, norm_ord)
    dy = _dist_to_anchor(sy, anchor, norm_ord)
    cost = _pairwise_dist(sx, sy, norm_ord, float(p))

    if setting == "bounded":
        return _bounded_model(sx, sy, cost, float((dx.max() + dy.max()) ** p))

    if setting == "semi_bounded":
        # X is the bounded side; Y may be unbounded
        R = float(dx.max())
        dom = DominatingCollection(
            cX_minus=np.zeros(sx.size),
            cX_plus=np.zeros(sx.size),
            cY_minus=np.maximum(dy - R, 0.0) ** p,
            cY_plus=(dy + R) ** p,
        )
        if p > 1:
            gy = Growth(0.0, 2.0 * p * R / lam, p - 1.0)
        else:
            gy = CONST_GROWTH
        return CostModel(sx, sy, cost, dom, None, _growth(C_Y=Growth(float(p)), e_Y=gy))

    if setting == "unbounded":
        if int(p) != p:
            raise InvalidFamilyParams("unbounded metric power needs integer p")
        p = int(p)
        eps = float(epsilon)
        gam = float(gamma)
        if eps <= 0 or gam <= 0:
            raise InvalidFamilyParams("epsilon and gamma must be positive")
        q = [0.0] * p
        K = [0.0] * p
        for i in range(1, p):
            q[i] = (p - 1 + eps) / (i - 1 + eps)
            K[i] = math.comb(p, i) ** ((p - 1 + eps) / (i - 1 + eps)) * (
                (lam * gam / (2 * (p - 1))) * ((p - i) / (i - 1 + eps))
            ) ** (-(p - i) / (p - 1 + eps))

        def holder_sum(d):
            return sum(K[i] * d ** q[i] for i in range(1, p))

        primary = DominatingCollection(
            cX_minus=(-1.0) ** p * dx**p - holder_sum(dx),
            cX_plus=dx**p + holder_sum(dx),
            cY_minus=dy**p - (lam * gam / 2) * dy ** (p - 1 + eps),
            cY_plus=dy**p + (lam * gam / 2) * dy ** (p - 1 + eps),
        )
        secondary = DominatingCollection(
            cX_minus=dx**p - (lam * gam / 2) * dx ** (p - 1 + eps),
            cX_plus=dx**p + (lam * gam / 2) * dx ** (p - 1 + eps),
            cY_minus=(-1.0) ** p * dy**p - holder_sum(dy),
            cY_plus=dy**p + holder_sum(dy),
        )
        deg_hi = max(float(p), (p - 1 + eps) / eps if p > 1 else float(p))
        theta_e = max(float(p) if p % 2 else 0.0, (p - 1 + eps) / eps if p > 1 else 0.0)
        e_holder = Growth(0.0, 2.0, theta_e) if theta_e else CONST_GROWTH
        e_power = Growth(0.0, gam, p - 1 + eps)
        growth = _growth(C_X=Growth(deg_hi), C_Y=Growth(float(p)), e_X=e_holder, e_Y=e_power,
                         Ct_X=Growth(float(p)), Ct_Y=Growth(deg_hi), et_X=e_power, et_Y=e_holder)
        return CostModel(sx, sy, cost, primary, secondary, growth, False)

    raise InvalidFamilyParams(f"unknown metric power setting {setting!r}")


def _build_separability(sx, sy, lam, *, anchor=None, norm_ord=1, kappa_max=None):
    if anchor is None:
        raise InvalidFamilyParams("separability family needs an anchor point")
    dx = _dist_to_anchor(sx, anchor, norm_ord)
    dy = _dist_to_anchor(sy, anchor, norm_ord)
    cost = _pairwise_dist(sx, sy, norm_ord)
    # exact supremum of the triangle defect on the finite truncation, a max
    # over row blocks (np.max, not max, so a NaN block maximum propagates)
    kappa = float(np.max([np.max(dx[rows, None] + dy[None, :] - cost[rows])
                          for rows in row_blocks(sx.size, sy.size)]))
    if kappa_max is not None and kappa > kappa_max:
        raise SeparabilityViolated(f"triangle defect {kappa:.6g} exceeds bound {kappa_max}")
    dom = DominatingCollection(dx - kappa / 2.0, dx, dy - kappa / 2.0, dy)
    return CostModel(sx, sy, cost, dom, None, _growth(C_X=Growth(1.0), C_Y=Growth(1.0)))


def _build_custom(sx, sy, lam, *, cost, dom=None):
    cost = np.asarray(cost, dtype=float)
    if dom is None:
        # generic separable bounds from the table itself
        dom = DominatingCollection(cost.min(axis=1), cost.max(axis=1),
                                   np.zeros(sy.size), np.zeros(sy.size))
    else:
        dom = DominatingCollection(**{k: np.asarray(v, dtype=float) for k, v in dom.items()})
    bounded_x = bool(np.isfinite(dom.cX_minus).all() and np.isfinite(dom.cX_plus).all())
    return CostModel(sx, sy, cost, dom, None, _growth(), bounded_x)


def _number(value):
    """A JSON number as given; strings, booleans and nulls are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


def _numbers(value):
    """A number or an array of numbers as float64, converted in one pass (no
    check per entry); strings, booleans, nulls and ragged arrays are refused."""
    table = np.asarray(value)
    if table.dtype.kind not in "iuf":
        raise TypeError(f"not an array of numbers (dtype {table.dtype})")
    return table.astype(float, copy=False)


def _dom(value):
    """A custom family's dominating vectors: an object with exactly the four
    DominatingCollection fields, each an array of numbers."""
    fields = DominatingCollection.__dataclass_fields__
    if not (isinstance(value, dict) and value.keys() == fields.keys()):
        raise TypeError("'dom' needs exactly the keys cX_minus, cX_plus, cY_minus and cY_plus")
    return {key: _numbers(v) for key, v in value.items()}


def _discrete_metric(value):
    if value != "discrete_metric":
        raise ValueError(f"unknown bounded kind {value!r}")
    return value


# family: (builder, {key: cast}).  The keys are the builder's keyword
# parameters, "!" marking one without a default.  io.load_cost casts a cost
# file's entries with them; build_cost passes a spec's entries on as given.
COST_FAMILIES = {
    "bounded": (_build_bounded, {"cost": _numbers, "kind": _discrete_metric, "p": _number,
                                 "norm_ord": _number}),
    "metric_power": (_build_metric_power, {"p": _number, "anchor": _numbers,
                                           "norm_ord": _number, "setting": str,
                                           "epsilon": _number, "gamma": _number}),
    "separability": (_build_separability, {"anchor": _numbers, "norm_ord": _number,
                                           "kappa_max": _number}),
    "custom": (_build_custom, {"cost!": _numbers, "dom": _dom}),
}


# ---------------------------------------------------------------------------
# summability checks


@dataclass(frozen=True)
class CheckedSum:
    description: str
    partial_sum: float
    verdict: str  # "converges" | "diverges" | "inconclusive"
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    checked_sums: tuple
    verdict: str  # "Pass" | "Fail" | "Inconclusive"
    theorem_tag: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "theorem": self.theorem_tag,
            "sums": [
                {
                    "description": c.description,
                    # an infinite sum is written as null, which strict JSON takes
                    "partial_sum": c.partial_sum if math.isfinite(c.partial_sum) else None,
                    "verdict": c.verdict,
                    "detail": c.detail,
                }
                for c in self.checked_sums
            ],
        }


def _tail_term(tail: TailFamily, power: float) -> Growth:
    """Growth of r_i**power as a (negative-gamma) shape; finite is the caller's."""
    if tail.kind == "geometric":
        return Growth(0.0, -math.log(1.0 / tail.q) * power, 1.0)
    if tail.kind == "polynomial":
        return Growth(-tail.a * power, 0.0, 0.0)
    return Growth(0.0, -tail.gamma * power, tail.theta)  # subweibull


def _series_verdict(weight: Growth, tail: TailFamily | None, power: float) -> tuple[str, str]:
    if tail is not None and tail.kind == "finite":
        return "converges", "finite support"
    if tail is None:
        return "inconclusive", "no analytic tail family"
    term = _tail_term(tail, power)
    total = weight.times(term)
    if total.gamma > 0:
        return "diverges", f"exponential growth exp({total.gamma:.3g} n^{total.theta:.3g})"
    if total.gamma < 0:
        return "converges", f"exponential decay exp({total.gamma:.3g} n^{total.theta:.3g})"
    if total.degree < -1:
        return "converges", f"polynomial decay n^{total.degree:.3g}"
    return "diverges", f"polynomial tail n^{total.degree:.3g} not summable"


def _checked(desc: str, weight_vec: np.ndarray, measure_vec: np.ndarray, power: float,
             weight_growth: Growth, tail: TailFamily | None) -> CheckedSum:
    # atoms of zero mass add nothing, whatever their weight
    on = measure_vec > 0
    weights, masses = weight_vec[on], measure_vec[on]**power
    partial = float(weights @ masses)
    if tail is not None and tail.kind == "finite" and not math.isfinite(partial):
        # on a finite support the partial sum is the whole series
        return CheckedSum(desc, partial, "diverges", "finite support, infinite sum")
    verdict, detail = _series_verdict(weight_growth, tail, power)
    if verdict == "inconclusive":
        # ratio of the last partial-sum increments (atoms with mass) as a numeric diagnostic
        terms = weights * masses
        if terms.size >= 4 and terms[-2] > 0:
            detail = f"increment ratio {terms[-1] / terms[-2]:.4g}"
    return CheckedSum(desc, partial, verdict, detail)


def _aggregate(sums, theorem_tag) -> ConditionReport:
    verdicts = [c.verdict for c in sums]
    if "diverges" in verdicts:
        overall = "Fail"
    elif all(v == "converges" for v in verdicts):
        overall = "Pass"
    else:
        overall = "Inconclusive"
    return ConditionReport(tuple(sums), overall, theorem_tag)


def _value_gates(profile: WeightProfile, mu: DiscreteMeasure, letter: str,
                 roles: tuple, sampled: bool) -> list:
    """The three value-CLT sums of one side.  `roles` names that side's
    weights (a, b, e): ("C_X", "Ct_X", "et_X") for X and their mirrors
    ("Ct_Y", "C_Y", "e_Y") for Y.  A sampled side needs sum a sqrt(mu),
    sum b^2 mu and sum e^2 mu; a fixed side needs sum b mu, sum a mu and
    sum e mu."""
    w, g = profile.values, profile.growth
    a, b, e = roles
    if sampled:
        return [
            _checked(f"sum {a} sqrt({letter})", w[a], mu.weights, 0.5, g[a], mu.tail),
            _checked(f"sum {b}^2 {letter}", w[b]**2, mu.weights, 1.0, g[b].power(2), mu.tail),
            _checked(f"sum {e}^2 {letter}", w[e]**2, mu.weights, 1.0, g[e].power(2), mu.tail),
        ]
    return [_checked(f"sum {k} {letter}", w[k], mu.weights, 1.0, g[k], mu.tail) for k in (b, a, e)]


def check_value_conditions(
    r: DiscreteMeasure,
    s: DiscreteMeasure,
    profile: WeightProfile,
    mode: str | Design = ONE_SAMPLE_R,
) -> ConditionReport:
    """Summability gates for the value limit theorem.  Each side's gates
    depend on whether it is sampled: r is fixed only under "one_sample_s",
    s only under "one_sample_r"."""
    # only which sides are sampled matters, so "two_sample" takes any delta
    design = Design.of(mode, 0.5 if mode == TWO_SAMPLE else None)
    # a weight or its square may overflow to inf, which reads as diverging
    with np.errstate(over="ignore"):
        sums = (_value_gates(profile, r, "r", ("C_X", "Ct_X", "et_X"), bool(design.w_r))
                + _value_gates(profile, s, "s", ("Ct_Y", "C_Y", "e_Y"), bool(design.w_s)))
    return _aggregate(sums, "value_clt")


def check_plan_conditions(
    r: DiscreteMeasure, s: DiscreteMeasure, profile: WeightProfile
) -> ConditionReport:
    """Summability gates for the plan limit theorem (one sample from r)."""
    w, g = profile.values, profile.growth
    # a large finite e_Y overflows to inf, which the verdict reads as diverging
    with np.errstate(over="ignore"):
        sums = [
            _checked("sum C_X sqrt(r)", w["C_X"], r.weights, 0.5, g["C_X"], r.tail),
            _checked("sum C_Y e_Y^4 s", w["C_Y"] * w["e_Y"]**4, s.weights, 1.0,
                     g["C_Y"].times(g["e_Y"].power(4)), s.tail),
        ]
    if not profile.bounded_x_variation:
        sums.append(CheckedSum("sup |cX+ - cX-|", math.inf, "diverges", "unbounded X-variation"))
    return _aggregate(sums, "plan_clt")
