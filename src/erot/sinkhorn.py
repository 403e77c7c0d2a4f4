"""Entropic optimal transport on finite truncations.

Solves the dual fixed-point system by alternating log-domain updates

    alpha_x = -lam * log sum_y exp((beta_y - c(x,y))/lam) s_y,

restricted to the supports of the marginals, then extends potentials to
zero-mass atoms via the same right-hand sides.

Each sweep is fused and runs in place.  It writes (pot - c)/lam + log w into
one kx x ky workspace, then subtracts the row (or, for beta, the column)
maximum, exponentiates, sums and takes the log there.  The workspace is
allocated once per `solve` call and never shared between calls, so threaded
callers stay bit-reproducible; the beta sweep reduces along the columns of
the same table instead of a transposed copy, and the final plan is built in
the workspace too.  At full support the cost table is used without a copy
and no potential needs back-filling.

Also provides the Sinkhorn divergence, quantitative potential/plan bounds,
an exact unregularized transport oracle for small instances, and the
vanishing-regularization gap chain  0 <= S - OT <= EROT - OT <= lam * H(r, s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .costs import CostModel, WeightProfile
from .errors import (
    AsymmetricSetup,
    MarginalMismatch,
    NonConvergence,
    TooLarge,
)
from .measures import DiscreteMeasure, entropy_pair

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


class Normalization(Enum):
    BALANCED = "balanced"
    ANCHORED_AT_Y1 = "anchored_at_y1"


@dataclass(frozen=True)
class SolveConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    normalization: Normalization = Normalization.BALANCED


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
    normalization: Normalization

    def renormalized(self, normalization: Normalization, r: DiscreteMeasure,
                     s: DiscreteMeasure) -> "SinkhornSolution":
        if normalization == self.normalization:
            return self
        if normalization == Normalization.BALANCED:
            shift = 0.5 * (self.beta @ s.weights - self.alpha @ r.weights)
        else:
            y1 = int(np.argmax(s.weights > 0))
            shift = self.beta[y1]
        return replace(
            self,
            alpha=self.alpha + shift,
            beta=self.beta - shift,
            normalization=normalization,
        )


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


def solve(
    r: DiscreteMeasure,
    s: DiscreteMeasure,
    m: CostModel,
    lam: float,
    cfg: SolveConfig = SolveConfig(),
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> SinkhornSolution:
    """Compute the entropic transport plan, potentials and value.

    The fixed point is solved on supp(r) x supp(s); potentials on zero-mass
    atoms are back-filled from the converged ones.  The returned plan has
    exact row marginals and column marginals within the l1 tolerance.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    rw, sw = r.weights, s.weights
    ix = np.flatnonzero(rw > 0)
    iy = np.flatnonzero(sw > 0)
    off_x = np.flatnonzero(rw == 0)
    off_y = np.flatnonzero(sw == 0)
    c = m.cost if off_x.size + off_y.size == 0 else m.cost[np.ix_(ix, iy)]
    rr, ss = rw[ix], sw[iy]
    log_r, log_s = np.log(rr), np.log(ss)
    # the one kx x ky workspace of this call: every sweep runs in it, and at
    # full support it becomes the returned plan
    work = np.empty(c.shape)

    if warm_start is not None:
        alpha = np.asarray(warm_start[0], dtype=float)[ix]
    else:
        alpha = np.zeros(ix.size)
    beta = _log_update(log_r, alpha, c, lam, 0, work)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        # after the alpha update the plan's row marginals equal r exactly
        alpha = _log_update(log_s, beta, c, lam, 1, work)
        beta_new = _log_update(log_r, alpha, c, lam, 0, work)
        # column-marginal l1 residual of the current plan, no matrix needed
        residual = float(ss @ np.abs(np.exp((beta - beta_new) / lam) - 1.0))
        if residual <= cfg.tol:
            break
        beta = beta_new
    else:
        raise NonConvergence(
            f"no convergence after {cfg.max_iter} iterations (residual {residual:.3e})",
            iterations=cfg.max_iter,
            residual=residual,
        )

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

    if cfg.normalization == Normalization.BALANCED:
        shift = 0.5 * (beta_full @ sw - alpha_full @ rw)
    else:
        shift = beta_full[iy[0]]
    alpha_full += shift
    beta_full -= shift

    # the plan on the support, exp((alpha + beta - c)/lam) r s, in the workspace
    np.add(alpha_full[ix][:, None], beta_full[iy][None, :], out=work)
    work -= c
    work /= lam
    np.exp(work, out=work)
    work *= rr[:, None]
    work *= ss[None, :]
    if c is m.cost:
        plan = work
    else:
        plan = np.zeros(m.cost.shape)
        plan[np.ix_(ix, iy)] = work
    value = float(alpha_full @ rw + beta_full @ sw)
    cost_part = float(np.einsum("ij,ij->", c, work))
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
        normalization=cfg.normalization,
    )


def mutual_information(pi: np.ndarray, r: DiscreteMeasure, s: DiscreteMeasure,
                       marginal_tol: float = 1e-8) -> float:
    """KL divergence of the plan from the product of its prescribed marginals,
    with the 0 log 0 = 0 convention."""
    row_err = float(np.abs(pi.sum(axis=1) - r.weights).sum())
    col_err = float(np.abs(pi.sum(axis=0) - s.weights).sum())
    if row_err + col_err > marginal_tol:
        raise MarginalMismatch(
            f"plan marginals off by {row_err + col_err:.3e} (tolerance {marginal_tol:g})"
        )
    prod = r.weights[:, None] * s.weights[None, :]
    mask = pi > 0
    return float(np.sum(pi[mask] * np.log(pi[mask] / prod[mask])))


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

    Potential bounds apply under the balanced normalization (the solution is
    converted if needed); violations are reported as nonnegative magnitudes.
    At small lam the weights exp(osc / lam) can overflow; the bounds then
    hold trivially and the report is flagged `vacuous`.
    """
    lam = sol.lam
    bal = sol.renormalized(Normalization.BALANCED, r, s)
    dom = m.dom_primary
    rw, sw = r.weights, s.weights
    ix, iy = rw > 0, sw > 0
    with np.errstate(over="ignore"):
        eX = np.exp((dom.cX_plus - dom.cX_minus) / lam)
        eY = np.exp((dom.cY_plus - dom.cY_minus) / lam)
        mean_plus_X = dom.cX_plus @ rw
        mean_plus_Y = dom.cY_plus @ sw
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

    return BoundReport(
        alpha_lower_violation=viol(a_lo[ix] - bal.alpha[ix]),
        alpha_upper_violation=viol(bal.alpha[ix] - a_hi[ix]),
        beta_lower_violation=viol(b_lo[iy] - bal.beta[iy]),
        beta_upper_violation=viol(bal.beta[iy] - b_hi[iy]),
        plan_lower_violation=viol(p_lo - bal.plan),
        plan_upper_violation=viol(bal.plan - p_hi),
        vacuous=not all(np.all(np.isfinite(b)) for b in on_support),
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


def exact_ot_small(r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel) -> OTSolution:
    """Exact unregularized transport on small truncations via an LP solve.

    Returns a vertex plan, complementary-slack potentials, and whether the
    dual potentials are unique on the supports (the support graph of the
    optimal plan is connected).
    """
    from scipy import sparse
    from scipy.optimize import linprog
    from scipy.sparse.csgraph import connected_components

    nx, ny = r.space.size, s.space.size
    if nx > MAX_EXACT_SIZE or ny > MAX_EXACT_SIZE:
        raise TooLarge(f"exact oracle limited to {MAX_EXACT_SIZE} atoms per side")
    ix = np.flatnonzero(r.weights > 0)
    iy = np.flatnonzero(s.weights > 0)
    kx, ky = ix.size, iy.size
    c = m.cost[np.ix_(ix, iy)]

    # equality constraints: row marginals then column marginals (drop the
    # last, redundant, column constraint to keep the system full-rank)
    A = sparse.vstack([
        sparse.kron(sparse.eye(kx), np.ones((1, ky))),
        sparse.kron(np.ones((1, kx)), sparse.eye(ky, format="csr")[:-1]),
    ], format="csr")
    b = np.concatenate([r.weights[ix], s.weights[iy][:-1]])
    res = linprog(c.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise TooLarge(f"exact transportation solve failed: {res.message}")

    plan_sub = res.x.reshape(kx, ky)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    a_sub = duals[:kx]
    b_sub = np.concatenate([duals[kx:], [0.0]])
    # fix the dual sign convention: feasibility requires a + b <= c
    if np.max(a_sub[:, None] + b_sub[None, :] - c) > 1e-6:
        a_sub, b_sub = -a_sub, -b_sub

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

    support = plan_sub > 1e-12
    graph = np.zeros((kx + ky, kx + ky), dtype=bool)
    graph[:kx, kx:] = support
    graph[kx:, :kx] = support.T
    n_comp, _ = connected_components(graph, directed=False)
    return OTSolution(
        value=float(res.fun),
        plan=plan,
        alpha0=alpha0,
        beta0=beta0,
        unique_potentials=(n_comp == 1),
    )


@dataclass(frozen=True)
class GapReport:
    ot_value: float
    entropy_bound: float  # min of the marginal Shannon entropies
    lambdas: tuple
    erot_values: tuple
    sinkhorn_costs: tuple
    chain_holds: bool

    def to_dict(self) -> dict:
        return {
            "ot_value": self.ot_value,
            "entropy_bound": self.entropy_bound,
            "lambdas": list(self.lambdas),
            "erot_values": list(self.erot_values),
            "sinkhorn_costs": list(self.sinkhorn_costs),
            "chain_holds": self.chain_holds,
        }


def vanishing_reg_gap(
    r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel, lambdas,
    cfg: SolveConfig = SolveConfig(), slack: float = 1e-8,
) -> GapReport:
    """Check 0 <= S^lam - OT <= EROT^lam - OT <= lam * H(r, s) per lambda."""
    ot = exact_ot_small(r, s, m)
    H = entropy_pair(r, s)
    erots, costs = [], []
    warm = None
    holds = True
    for lam in sorted(lambdas, reverse=True):
        sol = solve(r, s, m, lam, cfg, warm_start=warm)
        warm = (sol.alpha, sol.beta)
        erots.append(sol.value)
        costs.append(sol.cost_part)
        holds &= (
            ot.value - slack <= sol.cost_part <= sol.value + slack
            and sol.value - ot.value <= lam * H + slack
        )
    lam_sorted = sorted(lambdas, reverse=True)
    return GapReport(
        ot_value=ot.value,
        entropy_bound=H,
        lambdas=tuple(lam_sorted),
        erot_values=tuple(erots),
        sinkhorn_costs=tuple(costs),
        chain_holds=bool(holds),
    )
