"""Entropic optimal transport on finite truncations.

Solves the dual fixed-point system by alternating log-domain updates

    alpha_x = -lam * log sum_y exp((beta_y - c(x,y))/lam) s_y,

restricted to the supports of the marginals, then extends potentials to
zero-mass atoms via the same right-hand sides.

The log-domain sweep is fused and runs in place: it writes
(pot - c)/lam + log w into one kx x ky workspace, then subtracts the row (or,
for beta, the column) maximum, exponentiates, sums and takes the log there.
The workspace is allocated once per `solve` call and never shared between
calls, so threaded callers stay bit-reproducible.

A cold start builds the Gibbs kernel K = exp((min c - c)/lam) s with one exp
pass, the potentials alpha = 0 and beta = min c absorbed in it, and takes
the first half-steps v = s/(r^T K), u = 1/(K v) as products; that is the
state the opening sweeps would leave.  It applies when
(max c - min c)/lam <= log(SCALING_BOUND), over the whole cost table, so no
kernel entry is below s/SCALING_BOUND.  Otherwise, after a warm start, or
when u or v leaves the scaling range, the first beta and alpha updates are
sweeps: the alpha sweep leaves the max-shifted exponentials in the
workspace, and divided by their row sums they are the kernel
K = exp((alpha + beta - c)/lam) s, with u = v = 1.  Either way the iterates
are then alpha + lam log u and beta + lam log v, and each iteration is two
matrix-vector products, u = 1/(K v) and v' = s/((r u)^T K) (scaling form of
Schmitzer, arXiv:1610.06519).  When a scaling vector leaves
[1/SCALING_BOUND, SCALING_BOUND], that half-step is taken as a sweep
instead, which absorbs the scalings into the potentials and rebuilds K.  The
iterates are mathematically those of the log-domain updates, whatever the
bound.  The final plan u K v r is built in the workspace, and at full
support the cost table is used without a copy.

Also provides the Sinkhorn divergence, quantitative potential/plan bounds,
an exact unregularized transport oracle for small instances (a network
simplex in numpy), and the vanishing-regularization gap chain
0 <= S - OT <= EROT - OT <= lam * H(r, s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel, _side_weights, row_blocks
from .errors import (
    AsymmetricSetup,
    ConfigParse,
    InvalidFamilyParams,
    MarginalMismatch,
    NegativeWeight,
    NonConvergence,
    SpaceMismatch,
    TooLarge,
)
from .measures import DiscreteMeasure, entropy_pair

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# a Sinkhorn scaling vector with an entry outside [1/SCALING_BOUND,
# SCALING_BOUND] is absorbed into its potential and the kernel rebuilt
SCALING_BOUND = 1e50
# l1 marginal error of a plan beyond which mutual_information refuses it
MI_MARGINAL_TOL = 1e-8
# float tolerance of each inequality in vanishing_reg_gap's chain
GAP_TOL = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        # max_iter = 0 is valid: it forces a NonConvergence
        if not (0 < self.tol < np.inf and self.max_iter >= 0):
            raise ConfigParse(f"a solve needs a positive, finite tol and max_iter >= 0; "
                              f"got tol {self.tol}, max_iter {self.max_iter}")


@dataclass(frozen=True)
class SinkhornSolution:
    alpha: np.ndarray
    beta: np.ndarray
    plan: np.ndarray
    lam: float
    value: float
    cost_part: float
    mutual_info: float
    iterations: int
    marginal_residual: float


def _log_update(log_w: np.ndarray, pot: np.ndarray, cost: np.ndarray, lam: float,
                axis: int, work: np.ndarray) -> np.ndarray:
    """-lam * log sum_j exp((pot_j - cost_ij)/lam) w_j, summing along `axis`
    of `cost`.

    `pot` and `log_w` run along `axis`.  The sweep overwrites `work`, an
    array of the shape of `cost` (it may be `cost` itself), with the
    max-shifted exponentials; nothing of that shape is allocated.
    """
    along = (1, -1) if axis == 1 else (-1, 1)
    np.subtract(pot.reshape(along), cost, out=work)
    work /= lam
    work += log_w.reshape(along)
    top = work.max(axis=axis, keepdims=True)
    work -= top
    np.exp(work, out=work)
    return -lam * (np.log(work.sum(axis=axis)) + top.reshape(-1))


def _in_scaling_range(x: np.ndarray) -> bool:
    """Whether every entry lies in [1/SCALING_BOUND, SCALING_BOUND]; false
    for non-finite entries."""
    return bool(np.all((x >= 1.0 / SCALING_BOUND) & (x <= SCALING_BOUND)))


def _drop_subnormals(kernel: np.ndarray) -> None:
    """Zero the kernel's subnormal entries in place.

    At small lam many entries underflow into the subnormal range, where
    BLAS arithmetic is several times slower; each is below 2.3e-308 in a
    kernel whose rows sum to about 1, so the iterates do not notice.
    """
    np.copyto(kernel, 0.0, where=kernel < np.finfo(float).tiny)


def _alpha_kernel(log_s: np.ndarray, beta: np.ndarray, cost: np.ndarray, lam: float,
                  work: np.ndarray):
    """Alpha sweep at `beta` that leaves the kernel exp((alpha + beta - c)/lam) s
    in `work`: the sweep's shifted exponentials divided by their row sums, so
    the rows sum to 1.  Returns alpha and the unit scaling vectors u, v."""
    alpha = _log_update(log_s, beta, cost, lam, 1, work)
    work /= work.sum(axis=1, keepdims=True)
    _drop_subnormals(work)
    return alpha, np.ones(cost.shape[0]), np.ones(cost.shape[1])


def _gibbs_start(rr: np.ndarray, ss: np.ndarray, cost: np.ndarray, c_min: float,
                 lam: float, work: np.ndarray):
    """Cold start from the Gibbs kernel K = exp((c_min - c)/lam) s, built in
    `work` with one exp pass: alpha = 0 and beta = c_min are absorbed in it.

    Takes the first half-steps v = s/(r^T K) and u = 1/(K v), which leave the
    state of the two opening sweeps.  The caller ensures the kernel's entries
    are at least s / SCALING_BOUND.  Returns alpha, beta, u and v, or None
    when u or v leaves the scaling range.
    """
    np.subtract(c_min, cost, out=work)
    work /= lam
    np.exp(work, out=work)
    work *= ss
    if ss.min() < np.finfo(float).tiny * SCALING_BOUND:
        _drop_subnormals(work)
    # a column of dropped entries makes v infinite, which the range check catches
    with np.errstate(divide="ignore", invalid="ignore"):
        v = ss / (rr @ work)
        u = 1.0 / (work @ v)
    if not (_in_scaling_range(v) and _in_scaling_range(u)):
        return None
    return np.zeros(rr.size), np.full(ss.size, c_min), u, v


def _refuse_cut_off_atoms(m: CostModel, rw: np.ndarray, sw: np.ndarray) -> None:
    """InvalidFamilyParams naming an atom whose cost is +inf at every atom of
    the other side with mass: no plan reaches it.  Reads row blocks."""
    for cost, space, mass, other in ((m.cost, m.space_X, sw, "s"), (m.cost.T, m.space_Y, rw, "r")):
        for rows in row_blocks(*cost.shape):
            reached = np.isfinite(cost[rows]) @ (mass > 0)
            if not reached.all():
                label = space.labels[rows.start + int(np.argmin(reached))]
                raise InvalidFamilyParams(f"atom {label!r} has cost +inf wherever {other} has mass")


def solve(
    r: DiscreteMeasure,
    s: DiscreteMeasure,
    m: CostModel,
    lam: float,
    cfg: SolveConfig = SolveConfig(),
    warm_start: np.ndarray | None = None,
) -> SinkhornSolution:
    """Compute the entropic transport plan, potentials and value.

    The fixed point is solved on supp(r) x supp(s); potentials on zero-mass
    atoms are back-filled from the converged ones.  The returned plan has
    exact row marginals and column marginals within the l1 tolerance.  A
    warm start is alpha, one entry per atom of X.  The potentials are in the
    balanced gauge <alpha, r> = <beta, s>; what is derived from them is
    invariant under (alpha + t, beta - t).
    """
    if not 0 < lam < np.inf:  # false for a NaN lam too
        raise ValueError("lam must be positive and finite")
    if warm_start is not None and np.shape(warm_start) != r.weights.shape:
        raise SpaceMismatch(f"warm start of shape {np.shape(warm_start)} is not alpha on X, "
                            f"of shape {r.weights.shape}")
    rw, sw = r.weights, s.weights
    if not (rw.min() >= 0 and sw.min() >= 0):  # false for a NaN weight too
        raise NegativeWeight("solve needs nonnegative, non-NaN weights in r and s")
    # the full table's range: it bounds the support's, and +inf in it may cut atoms off
    c_min, c_max = m.cost_range
    if c_max == np.inf:
        _refuse_cut_off_atoms(m, rw, sw)
    ix = np.flatnonzero(rw > 0)
    iy = np.flatnonzero(sw > 0)
    off_x = np.flatnonzero(rw == 0)
    off_y = np.flatnonzero(sw == 0)
    c = m.cost if off_x.size + off_y.size == 0 else m.cost[np.ix_(ix, iy)]
    rr, ss = rw[ix], sw[iy]
    log_r, log_s = np.log(rr), np.log(ss)
    # the one kx x ky workspace of this call: every sweep and the kernel live
    # in it, and at full support it becomes the returned plan
    work = np.empty(c.shape)

    # the iterates are alpha + lam*log(u) and beta + lam*log(v) over the
    # kernel K = exp((alpha + beta - c)/lam) s held in `work`
    start = None
    if warm_start is None:
        if c_max - c_min <= lam * np.log(SCALING_BOUND):
            start = _gibbs_start(rr, ss, c, c_min, lam, work)
    if start is not None:
        alpha, beta, u, v = start
    else:
        if warm_start is not None:
            alpha = np.asarray(warm_start, dtype=float)[ix]
        else:
            alpha = np.zeros(ix.size)
        beta = _log_update(log_r, alpha, c, lam, 0, work)
        alpha, u, v = _alpha_kernel(log_s, beta, c, lam, work)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        v_new = ss / ((rr * u) @ work)
        if _in_scaling_range(v_new):
            # column-marginal l1 residual, sum_y s_y |exp((beta_y - beta'_y)/lam) - 1|
            residual = float(ss @ np.abs(v / v_new - 1.0))
        else:
            # absorb u into alpha and take this beta step in the log domain;
            # the sweep leaves exp((alpha - c)/lam) r, column-shifted, in the
            # workspace, and scaling its columns gives the kernel at the new beta
            alpha = alpha + lam * np.log(u)
            beta_prev = beta + lam * np.log(v)
            beta = _log_update(log_r, alpha, c, lam, 0, work)
            work *= ss / work.sum(axis=0)
            work /= rr[:, None]
            _drop_subnormals(work)
            u, v_new = np.ones(rr.size), np.ones(ss.size)
            v = np.exp((beta_prev - beta) / lam)
            residual = float(ss @ np.abs(v - 1.0))
        if residual <= cfg.tol:
            break
        # the next alpha step; after it the plan's row marginals equal r exactly
        v = v_new
        u = 1.0 / (work @ v)
        if not _in_scaling_range(u):
            # absorb v into beta and take this alpha step in the log domain
            beta = beta + lam * np.log(v)
            alpha, u, v = _alpha_kernel(log_s, beta, c, lam, work)
    else:
        raise NonConvergence(
            f"no convergence after {cfg.max_iter} iterations (residual {residual:.3e})",
            iterations=cfg.max_iter,
            residual=residual,
        )
    alpha = alpha + lam * np.log(u)
    beta = beta + lam * np.log(v)

    # extend to zero-mass atoms via the fixed-point right-hand sides (each
    # fancy-indexed cost copy is its own workspace)
    alpha_full = np.empty(rw.size)
    beta_full = np.empty(sw.size)
    alpha_full[ix] = alpha
    beta_full[iy] = beta
    if off_x.size:
        c_off = m.cost[np.ix_(off_x, iy)]
        alpha_full[off_x] = _log_update(log_s, beta, c_off, lam, 1, c_off)
    if off_y.size:
        c_off = m.cost[np.ix_(ix, off_y)]
        beta_full[off_y] = _log_update(log_r, alpha, c_off, lam, 0, c_off)

    shift = 0.5 * (beta_full @ sw - alpha_full @ rw)
    alpha_full += shift
    beta_full -= shift

    # the plan on the support, exp((alpha + beta - c)/lam) r s = u K v r, in
    # the workspace
    work *= (u * rr)[:, None]
    work *= v
    if c is m.cost:
        plan = work
    else:
        plan = np.zeros(m.cost.shape)
        plan[np.ix_(ix, iy)] = work
    value = float(alpha_full @ rw + beta_full @ sw)
    cost_part = float(np.einsum("ij,ij->", c, work))
    if np.isnan(cost_part):
        # an infinite cost times its cell's zero mass; cells without mass add nothing
        cost_part = float(np.einsum("ij,ij->", np.where(work > 0, c, 0.0), work))
    return SinkhornSolution(
        alpha=alpha_full,
        beta=beta_full,
        plan=plan,
        lam=lam,
        value=value,
        cost_part=cost_part,
        mutual_info=(value - cost_part) / lam,
        iterations=iterations,
        marginal_residual=float(
            np.abs(plan.sum(axis=1) - rw).sum() + np.abs(plan.sum(axis=0) - sw).sum()
        ),
    )


def mutual_information(pi: np.ndarray, r: DiscreteMeasure, s: DiscreteMeasure) -> float:
    """KL divergence of the plan from the product of its prescribed marginals,
    with the 0 log 0 = 0 convention; summed one row block at a time."""
    row_err = float(np.abs(pi.sum(axis=1) - r.weights).sum())
    col_err = float(np.abs(pi.sum(axis=0) - s.weights).sum())
    if row_err + col_err > MI_MARGINAL_TOL:
        raise MarginalMismatch(
            f"plan marginals off by {row_err + col_err:.3e} (tolerance {MI_MARGINAL_TOL:g})"
        )
    total = 0.0
    for rows in row_blocks(*pi.shape):
        p = pi[rows]
        # cells with p = 0 give nan or -inf here and are left out of the sum
        with np.errstate(divide="ignore", invalid="ignore"):
            t = p / np.multiply.outer(r.weights[rows], s.weights)
            np.log(t, out=t)
            t *= p
        total += float(np.sum(t, where=p > 0))
    return total


def _require_symmetric(m: CostModel):
    if not m.is_symmetric:
        raise AsymmetricSetup("Sinkhorn divergence needs X = Y and a symmetric cost")


def sinkhorn_divergence(
    r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel, lam: float,
    cfg: SolveConfig = SolveConfig(),
) -> float:
    """Debiased value EROT(r,s) - (EROT(r,r) + EROT(s,s))/2; zero at r = s."""
    _require_symmetric(m)
    rs = solve(r, s, m, lam, cfg).value
    rr = solve(r, r, m, lam, cfg).value
    ss = solve(s, s, m, lam, cfg).value
    return rs - 0.5 * (rr + ss)


# ---------------------------------------------------------------------------
# quantitative bounds


@dataclass(frozen=True)
class BoundReport:
    alpha_lower_violation: float
    alpha_upper_violation: float
    beta_lower_violation: float
    beta_upper_violation: float
    plan_lower_violation: float
    plan_upper_violation: float
    vacuous: bool  # some bound on the support is not finite

    @property
    def max_violation(self) -> float:
        return max(
            self.alpha_lower_violation,
            self.alpha_upper_violation,
            self.beta_lower_violation,
            self.beta_upper_violation,
            self.plan_lower_violation,
            self.plan_upper_violation,
        )

    def to_dict(self) -> dict:
        return {
            "alpha_lower": self.alpha_lower_violation,
            "alpha_upper": self.alpha_upper_violation,
            "beta_lower": self.beta_lower_violation,
            "beta_upper": self.beta_upper_violation,
            "plan_lower": self.plan_lower_violation,
            "plan_upper": self.plan_upper_violation,
            "max": self.max_violation,
            "vacuous": self.vacuous,
        }


def verify_bounds(sol: SinkhornSolution, m: CostModel, r: DiscreteMeasure,
                  s: DiscreteMeasure) -> BoundReport:
    """Check the quantitative potential and plan bounds on the support.

    The potential bounds are stated in the balanced gauge <alpha, r> =
    <beta, s>, the one `solve` returns, and are read off the potentials as
    solved; violations are reported as nonnegative magnitudes.
    At small lam the weights exp(osc / lam) can overflow; the bounds then
    hold trivially and the report is flagged `vacuous`.
    """
    lam = sol.lam
    dom = m.dom_primary
    rw, sw = r.weights, s.weights
    ix, iy = rw > 0, sw > 0
    _, eX = _side_weights(dom.cX_minus, dom.cX_plus, lam)
    _, eY = _side_weights(dom.cY_minus, dom.cY_plus, lam)

    def mean(v, mass):
        # an atom without mass adds nothing, even where v is infinite
        return np.where(mass > 0, v, 0.0) @ mass

    with np.errstate(over="ignore"):
        mean_plus_X = mean(dom.cX_plus, rw)
        mean_plus_Y = mean(dom.cY_plus, sw)
        half_minus = 0.5 * (mean(dom.cX_minus, rw) + mean(dom.cY_minus, sw))
        eX_r, eY_s = mean(eX, rw), mean(eY, sw)

        a_lo = dom.cX_minus - mean_plus_X + half_minus - lam * np.log(eY_s)
        a_hi = dom.cX_plus + mean_plus_Y - half_minus
        b_lo = dom.cY_minus - mean_plus_Y + half_minus - lam * np.log(eX_r)
        b_hi = dom.cY_plus + mean_plus_X - half_minus
    finite = all(np.all(np.isfinite(b)) for b in (a_lo[ix], a_hi[ix], b_lo[iy], b_hi[iy]))

    # the plan bounds on the support cells, one block of support rows at a
    # time; np.max over the block maxima propagates a NaN as np.max over
    # the whole support would
    xs, ys = np.flatnonzero(ix), np.flatnonzero(iy)
    r_on, s_on, eX_on, eY_on = rw[xs], sw[ys], eX[xs], eY[ys]
    lower, upper = [], []
    for rows in row_blocks(xs.size, ys.size):
        plan = sol.plan[np.ix_(xs[rows], ys)]
        with np.errstate(over="ignore"):
            prod = r_on[rows, None] * s_on[None, :]
            p_lo = prod / (eX_on[rows, None] * eY_on[None, :] * eX_r**2 * eY_s**2)
            p_hi = prod * eX_on[rows, None] * eY_on[None, :] * eX_r * eY_s
        lower.append(np.max(p_lo - plan))
        upper.append(np.max(plan - p_hi))
        finite = finite and np.all(np.isfinite(p_lo)) and np.all(np.isfinite(p_hi))

    def viol(arr):
        return float(max(0.0, np.max(arr))) if arr.size else 0.0

    return BoundReport(
        alpha_lower_violation=viol(a_lo[ix] - sol.alpha[ix]),
        alpha_upper_violation=viol(sol.alpha[ix] - a_hi[ix]),
        beta_lower_violation=viol(b_lo[iy] - sol.beta[iy]),
        beta_upper_violation=viol(sol.beta[iy] - b_hi[iy]),
        plan_lower_violation=viol(np.array(lower)),
        plan_upper_violation=viol(np.array(upper)),
        vacuous=not finite,
    )


# ---------------------------------------------------------------------------
# exact transportation oracle


@dataclass(frozen=True)
class OTSolution:
    value: float
    plan: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    unique_potentials: bool


MAX_EXACT_SIZE = 512
# worst relative marginal error of an exact plan over positive-mass atoms
EXACT_MARGINAL_TOL = 1e-9
# a reduced cost c - alpha - beta at or above -EXACT_COST_TOL * max|c| counts
# as nonnegative, and one at or below +EXACT_COST_TOL * max|c| as tight
EXACT_COST_TOL = 1e-12
# network simplex pivots after which exact_ot_small raises NonConvergence
EXACT_MAX_PIVOTS = 200_000
# rows of the cost table priced per block
_PRICE_ROWS = 8


def _corner_tree(a: np.ndarray, b: np.ndarray):
    """The corner-rule basis as a spanning tree of the bipartite graph (rows
    are nodes 0..kx-1, columns kx..kx+ky-1) rooted at the last column:
    (preorder, parent, depth), the last two by node.

    The staircase starts at the last row and column and fills each cell
    with the smaller of the mass its row and its column have left; on line
    costs with sorted atoms it is the monotone coupling, optimal as it
    stands.  Starting from the last atoms, where the countable spaces put
    their tails, keeps a tail's masses exact; the float imbalance of the
    weights builds up towards the first atoms instead.  On a tie the
    staircase moves to the previous row, so the zero-flow cell that follows
    hangs its row from its column: every zero-flow arc points to the root,
    and the tree is strongly feasible.  Each cell attaches its new node to
    the node attached last or to an ancestor of it, so the attachment
    order is a preorder.
    """
    kx, ky = a.size, b.size
    n = kx + ky
    i, j = kx - 1, ky - 1
    left_a, left_b = float(a[i]), float(b[j])
    parent = [-1] * n
    depth = [0] * n
    order = [n - 1]
    attached = [False] * n
    attached[n - 1] = True
    while True:
        child, par = (kx + j, i) if attached[i] else (i, kx + j)
        parent[child] = par
        depth[child] = depth[par] + 1
        attached[child] = True
        order.append(child)
        if i == 0 and j == 0:
            return order, parent, depth
        if j == 0 or (i > 0 and left_a <= left_b):
            left_b -= left_a
            i -= 1
            left_a = float(a[i])
        else:
            left_a -= left_b
            j -= 1
            left_b = float(b[j])


def _net_supply(order: list, parent: list, supply: np.ndarray) -> list:
    """Net supply of each node's subtree, summed leaves first from the
    supplies (a on rows, -b on columns): the flow on a row's arc to its
    parent, and minus the flow on a column's.  At the root it is the
    weights' imbalance."""
    net = supply.tolist()
    for v in reversed(order[1:]):
        net[parent[v]] += net[v]
    return net


def _tree_potentials(order: list, parent: list, c: np.ndarray) -> np.ndarray:
    """Potentials that make every tree arc tight, alpha on the rows and -beta
    on the columns (alpha_i + beta_j = c_ij), 0 at the root."""
    kx = c.shape[0]
    pot = [0.0] * len(order)
    for v in order[1:]:
        p = parent[v]
        pot[v] = pot[p] + c.item(v, p - kx) if v < kx else pot[p] - c.item(p, v - kx)
    return np.array(pot)


def _path_up(depth: np.ndarray, p: int, stop: int) -> np.ndarray:
    """Preorder positions of the node at position p and of its ancestors
    below the one at position stop, deepest first.  Going back from p, the
    ancestor at each depth is the first position that shallow."""
    rise = np.maximum.accumulate(-depth[p:stop:-1])
    return p - rise.searchsorted(np.arange(-depth[p], -depth[stop]))


def _rerooted(order: np.ndarray, dep: np.ndarray, pos: np.ndarray, path: np.ndarray,
              top: int, end: int):
    """The subtree order[top:end] re-rooted at path[0], where path runs up
    from path[0] to the subtree's root order[top]: its preorder, and its
    depths below path[0].

    The subtree of the path's m-th node, less that of its (m-1)-th, hangs m
    levels below path[0] and keeps its own preorder; the new preorder takes
    these pieces for m = 0, 1, ... in turn.
    """
    base = int(pos[path[0]])
    # ends[m]: where the subtree of the path's m-th node ends
    low = np.minimum.accumulate(dep[base + 1:end])
    ends = base + 1 + (-low).searchsorted(np.arange(path.size) - dep[base])
    at = np.arange(top, end)
    m = (path.size - pos[path[::-1]].searchsorted(at, side="right")
         + ends.searchsorted(at, side="right"))
    perm = m.argsort(kind="stable")
    return order[top:end][perm], dep[top:end][perm] + 2 * m[perm] - dep[base]


def _network_simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Optimal vertex of min <c, x> over x >= 0 with row sums a and column
    sums b: (plan, alpha, beta, value), with beta = 0 at the last column.

    Network simplex on the complete bipartite graph (Bonneel, van de Panne,
    Paris & Heidrich, SIGGRAPH Asia 2011) from the corner-rule tree.
    The tree is held as a preorder with depths, so a subtree is a contiguous
    slice.  Potentials are signed (alpha on rows, -beta on columns) and each
    arc's flow is held as its subtree's net supply, so a pivot shifts the
    potentials of a slice, and the flows of a path, by one number.  Entering
    arcs are priced in blocks of _PRICE_ROWS rows; the leaving arc follows
    Cunningham's strongly-feasible-tree rule, so degenerate pivots cannot
    cycle.  At the end potentials and flows are recomputed from the tree,
    the flows leaves first from the weights, so each atom's marginal is its
    weight to rounding; the weights' float imbalance goes to the heaviest
    atom.
    """
    kx, ky = c.shape
    n = kx + ky
    tol = EXACT_COST_TOL * float(np.abs(c).max())
    supply = np.concatenate([a, -b])
    order, parent, depth = _corner_tree(a, b)
    net = np.array(_net_supply(order, parent, supply))
    net = np.where(np.arange(n) < kx, np.maximum(net, 0.0), np.minimum(net, 0.0))
    pot = _tree_potentials(order, parent, c)
    order = np.array(order)
    parent = np.array(parent)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # depths by preorder position, and a sentinel that ends the last subtree
    dep = np.append(np.array(depth)[order], -1)
    blocks = -(-kx // _PRICE_ROWS)
    block = clean = pivots = 0
    while True:
        lo = block * _PRICE_ROWS
        hi = min(lo + _PRICE_ROWS, kx)
        block = (block + 1) % blocks
        red = c[lo:hi] - pot[lo:hi, None]
        red += pot[kx:]
        k = int(red.argmin())
        gain = red.item(k)
        if gain >= -tol:
            clean += 1
            if clean < blocks:
                continue
            # every block priced clean: price again at exact tree potentials
            pot = _tree_potentials(order.tolist(), parent.tolist(), c)
            if (c - pot[:kx, None] + pot[kx:]).min() >= -tol:
                break
            clean = 0
            continue
        clean = 0
        if pivots == EXACT_MAX_PIVOTS:
            worst = float((c - pot[:kx, None] + pot[kx:]).min())
            raise NonConvergence(
                f"exact transport: no optimal basis after {pivots} pivots "
                f"(reduced cost {worst:.3e})", iterations=pivots, residual=worst)
        pivots += 1
        u, w = lo + k // ky, kx + k % ky

        # the cycle: both ends' paths up to their deepest common ancestor
        pu, pw = int(pos[u]), int(pos[w])
        first, last = min(pu, pw), max(pu, pw)
        apex_depth = min(int(dep[first]), int(dep[first + 1:last + 1].min()) - 1)
        apex = first - int((dep[first::-1] == apex_depth).argmax())
        up_u = order[_path_up(dep, pu, apex)]
        up_w = order[_path_up(dep, pw, apex)]
        # the flow rises on (u, w) and falls on u's side on the arcs that hang
        # a row, on w's side on those that hang a column.  The leaving arc is
        # the last blocking one met going round from the apex in the entering
        # arc's direction: on w's side the one nearest the apex, else on u's
        # side the one nearest u.
        theta_u = theta_w = np.inf
        if up_u.size:
            cap = np.where(up_u < kx, net[up_u], np.inf)
            k_u = int(cap.argmin())
            theta_u = cap[k_u]
        if up_w.size:
            cap = np.where(up_w >= kx, -net[up_w], np.inf)
            k_w = up_w.size - 1 - int(cap[::-1].argmin())
            theta_w = cap[k_w]
        if theta_w <= theta_u:
            theta, path, v_out, shift = theta_w, up_w[:k_w + 1], u, -gain
        else:
            theta, path, v_out, shift = theta_u, up_u[:k_u + 1], w, gain
        if theta > 0:
            net[up_u] -= theta
            net[up_w] += theta

        # re-hang the leaving arc's subtree from (u, w), re-rooted at its end
        # of (u, w): the path from there up to the subtree's root reverses
        top = int(pos[path[-1]])
        end = top + 1 + int((dep[top + 1:] <= dep[top]).argmax())
        pot[order[top:end]] += shift
        new_order, new_dep = _rerooted(order, dep, pos, path, top, end)
        net[path[1:]] = -net[path[:-1]]
        net[path[0]] = theta if path[0] < kx else -theta
        parent[path[1:]] = path[:-1]
        parent[path[0]] = v_out
        # splice the subtree in right after v_out, its new parent
        pv = int(pos[v_out])
        new_dep += dep[pv] + 1
        if pv < top:
            start = pv + 1
            seg = np.concatenate([new_order, order[start:top]])
            seg_dep = np.concatenate([new_dep, dep[start:top]])
        else:
            start = top
            seg = np.concatenate([order[end:pv + 1], new_order])
            seg_dep = np.concatenate([dep[end:pv + 1], new_dep])
        order[start:start + seg.size] = seg
        dep[start:start + seg.size] = seg_dep
        pos[seg] = np.arange(start, start + seg.size)

    # flows leaves first from the weights, in the tree re-rooted at the
    # heaviest atom: the weights' imbalance and the rounding of the sums
    # collect there, and light atoms stay away from the root
    heavy = [int(np.argmax(np.abs(supply)))]
    while parent[heavy[-1]] >= 0:
        heavy.append(int(parent[heavy[-1]]))
    heavy = np.array(heavy)
    order = _rerooted(order, dep, pos, heavy, 0, n)[0].tolist()
    parent[heavy[1:]] = heavy[:-1]
    parent[heavy[0]] = -1
    parent = parent.tolist()
    net = _net_supply(order, parent, supply)
    child = np.array(order[1:])
    par = np.array(parent)[child]
    row = child < kx
    ri = np.where(row, child, par)
    cj = np.where(row, par, child) - kx
    flow = np.array(net)[child]
    flow = np.maximum(np.where(row, flow, -flow), 0.0)
    plan = np.zeros((kx, ky))
    plan[ri, cj] = flow
    return plan, pot[:kx], 0.0 - pot[kx:], float(c[ri, cj] @ flow)


def _reaches_all(row_to_col: np.ndarray, col_to_row: np.ndarray) -> bool:
    """Whether row 0 reaches every node of the bipartite digraph with an arc
    row i -> column j where row_to_col[i, j], and column j -> row i where
    col_to_row[i, j]."""
    rows = np.zeros(row_to_col.shape[0], dtype=bool)
    cols = np.zeros(row_to_col.shape[1], dtype=bool)
    new_rows, new_cols = rows.copy(), cols.copy()
    new_rows[0] = True
    while new_rows.any() or new_cols.any():
        rows |= new_rows
        cols |= new_cols
        new_rows, new_cols = (col_to_row[:, new_cols].any(axis=1) & ~rows,
                              row_to_col[new_rows].any(axis=0) & ~cols)
    return bool(rows.all() and cols.all())


def _unique_potentials(plan: np.ndarray, c: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                       a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the optimal potentials are unique up to (alpha + t, beta - t).

    Within a component of the plan's support graph the potentials move
    together; across components they can move apart unless tight cells
    (reduced cost c - alpha - beta at most EXACT_COST_TOL * max|c|) pin
    them in both directions.  So they are unique iff the digraph with an
    arc row i -> column j for each tight cell, and column j -> row i for
    each support cell, is strongly connected.  A flow below
    EXACT_MARGINAL_TOL of its lighter atom's weight is within the marginal
    tolerance and counts as no support.
    """
    support = plan > EXACT_MARGINAL_TOL * np.minimum.outer(a, b)
    tight = c - alpha[:, None] - beta <= EXACT_COST_TOL * np.abs(c).max()
    return _reaches_all(tight, support) and _reaches_all(support, tight)


def exact_ot_small(r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel) -> OTSolution:
    """Exact unregularized transport on small truncations.

    Solves the transportation problem on the supports by a network simplex
    (`_network_simplex`) and returns an optimal vertex plan, potentials with
    beta = 0 at the last positive-mass atom of s, extended to zero-mass
    atoms by c-conjugacy, and whether the potentials are unique on the
    supports.  A plan whose marginals miss a positive weight by more than
    EXACT_MARGINAL_TOL relative raises MarginalMismatch with that error
    (relative_error), the atom and its weight; more than EXACT_MAX_PIVOTS pivots raise
    NonConvergence.  A non-finite cost on the supports raises
    InvalidFamilyParams before any pivot.
    """
    nx, ny = r.space.size, s.space.size
    if nx > MAX_EXACT_SIZE or ny > MAX_EXACT_SIZE:
        raise TooLarge(f"exact oracle limited to {MAX_EXACT_SIZE} atoms per side")
    ix = np.flatnonzero(r.weights > 0)
    iy = np.flatnonzero(s.weights > 0)
    kx = ix.size
    c = m.cost[np.ix_(ix, iy)]
    if not np.isfinite(c).all():
        raise InvalidFamilyParams("exact transport needs finite costs on the supports")
    rw, sw = r.weights[ix], s.weights[iy]
    plan_sub, a_sub, b_sub, value = _network_simplex(rw, sw, c)

    weights = np.concatenate([rw, sw])
    sums = np.concatenate([plan_sub.sum(axis=1), plan_sub.sum(axis=0)])
    rel = np.abs(sums - weights) / weights
    k = int(np.argmax(rel))
    if rel[k] > EXACT_MARGINAL_TOL:
        side, atom = ("r", r.space.labels[ix[k]]) if k < kx else ("s", s.space.labels[iy[k - kx]])
        raise MarginalMismatch(
            f"exact transport plan misses the weight {weights[k]:.3e} of {side} atom "
            f"{atom!r} by {rel[k]:.3e} relative (tolerance {EXACT_MARGINAL_TOL:g})",
            relative_error=float(rel[k]), atom=atom, weight=float(weights[k]))

    plan = np.zeros((nx, ny))
    plan[np.ix_(ix, iy)] = plan_sub
    alpha0 = np.full(nx, -np.inf)
    beta0 = np.full(ny, -np.inf)
    alpha0[ix] = a_sub
    beta0[iy] = b_sub
    # extend potentials to zero-mass atoms by tight c-conjugacy
    off_x = np.flatnonzero(r.weights == 0)
    if off_x.size:
        alpha0[off_x] = np.min(m.cost[np.ix_(off_x, iy)] - b_sub[None, :], axis=1)
    off_y = np.flatnonzero(s.weights == 0)
    if off_y.size:
        beta0[off_y] = np.min(m.cost[np.ix_(ix, off_y)] - a_sub[:, None], axis=0)

    return OTSolution(
        value=value,
        plan=plan,
        alpha0=alpha0,
        beta0=beta0,
        unique_potentials=_unique_potentials(plan_sub, c, a_sub, b_sub, rw, sw),
    )


@dataclass(frozen=True)
class GapReport:
    ot: OTSolution  # the exact transport the gaps are measured from
    entropy_bound: float  # min of the marginal Shannon entropies
    lambdas: tuple
    erot_values: tuple
    sinkhorn_costs: tuple
    chain_holds: bool

    def to_dict(self) -> dict:
        return {
            "ot_value": self.ot.value,
            "entropy_bound": self.entropy_bound,
            "lambdas": list(self.lambdas),
            "erot_values": list(self.erot_values),
            "sinkhorn_costs": list(self.sinkhorn_costs),
            "chain_holds": self.chain_holds,
        }


def vanishing_reg_gap(
    r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel, lambdas,
) -> GapReport:
    """Check 0 <= S^lam - OT <= EROT^lam - OT <= lam * H(r, s) per lambda,
    each inequality up to GAP_TOL, with the default SolveConfig."""
    ot = exact_ot_small(r, s, m)
    H = entropy_pair(r, s)
    erots, costs = [], []
    warm = None
    holds = True
    lam_sorted = sorted(lambdas, reverse=True)
    for lam in lam_sorted:
        sol = solve(r, s, m, lam, warm_start=warm)
        warm = sol.alpha
        erots.append(sol.value)
        costs.append(sol.cost_part)
        holds &= (
            ot.value - GAP_TOL <= sol.cost_part <= sol.value + GAP_TOL
            and sol.value - ot.value <= lam * H + GAP_TOL
        )
    return GapReport(
        ot=ot,
        entropy_bound=H,
        lambdas=tuple(lam_sorted),
        erot_values=tuple(erots),
        sinkhorn_costs=tuple(costs),
        chain_holds=bool(holds),
    )
