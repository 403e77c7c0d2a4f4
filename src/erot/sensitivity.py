"""Hadamard derivatives of the entropic transport plan and value, and the
plug-in asymptotic variances/covariances of the plug-in limit theorems.

The plan derivative is assembled from four operators built at an optimal
solution with the beta potential anchored at the first positive-mass atom y1
of Y (write Y* = Y without y1):

    AX: R^{Y*} -> R^X,  (AX h)_x = sum_{y != y1} (pi_xy / r_x) h_y
    AY: R^X  -> R^{Y*}, (AY h)_y = sum_x (pi_xy / s_y) h_x
    BX: R^Y  -> R^X,    (BX h)_x = sum_y (pi_xy / (r_x s_y)) h_y
    BY: R^X  -> R^{Y*}, (BY h)_y = sum_x (pi_xy / (r_x s_y)) h_x

With u = BX hY, v = BY hX the derivative in direction (hX, hY) is

    Dpi = (pi/(r (x) s)) . [r (x) hY + hX (x) s] - pi . (a (+) (0, b)),
    a = (I - AX AY)^{-1} (u - AX v),
    b = v - AY a,

the unique solution of  a + AX b = u,  AY a + b = v, which is exactly what
differentiating the marginal constraints demands (row sums of Dpi equal hX,
column sums equal hY).  Note the BX sum runs over all of Y including y1;
restricting it to Y without y1 would break the row-sum identity whenever the
direction hY moves mass at y1.

Bounded X-variation of the cost makes AX AY a strict contraction, so I - AX AY
is invertible.  `build_operators` LU-factors it once; every solve of the block
system reuses that factor for a and back-substitutes the second block row for
b.  A truncated Neumann sum is retained as an independent cross-check.

The functional covariances need the rows <f, Dpi(e_x, 0)> and
<f, Dpi(0, e_y)> for every coordinate direction.  They are obtained from one
adjoint (transposed) solve per test table f rather than one solve per
direction: with gx = (f . pi) 1 and gy the column sums of f . pi off y1,

    P  = (gx - gy AY) (I - AX AY)^{-1},
    JX = gx / r - (gy - P AX) BY,
    JY = (f . pi)^T 1 / s - P BX.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .costs import CostModel
from .errors import (
    ContractionViolated,
    NonConvergence,
    NotInTangentCone,
    UnboundedXVariation,
    ZeroMassAtom,
)
# the mode spellings stay importable from here
from .measures import ONE_SAMPLE_R, ONE_SAMPLE_S, TWO_SAMPLE, Design, DiscreteMeasure, SignedVector
from .sinkhorn import Normalization, SinkhornSolution, SolveConfig, _require_symmetric, solve

TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class MultinomialCovariance:
    matrix: np.ndarray


def multinomial_covariance(r: DiscreteMeasure) -> MultinomialCovariance:
    """Covariance diag(r) - r r^T of the empirical-process Gaussian limit."""
    w = r.weights
    return MultinomialCovariance(np.diag(w) - np.outer(w, w))


@dataclass(frozen=True)
class DerivativeOperators:
    base: SinkhornSolution  # anchored normalization, beta[y1] = 0
    r: DiscreteMeasure
    s: DiscreteMeasure
    AX: np.ndarray  # (nx, ny-1)
    AY: np.ndarray  # (ny-1, nx)
    BX: np.ndarray  # (nx, ny), full tensor-quotient pi/(r x s)
    BY: np.ndarray  # (ny-1, nx)
    contraction_norm: float
    lu: tuple  # scipy.linalg.lu_factor of I - AX AY


def build_operators(
    sol: SinkhornSolution,
    r: DiscreteMeasure,
    s: DiscreteMeasure,
    m: CostModel | None = None,
) -> DerivativeOperators:
    """Assemble the derivative operators at a converged solution.

    Requires full support of both marginals and bounded X-variation of the
    cost (which guarantees the contraction property of AX AY).  Full support
    puts y1 at index 0, so Y* is every column but the first.
    """
    if np.any(r.weights <= 0) or np.any(s.weights <= 0):
        raise ZeroMassAtom("plan derivative requires full support of both marginals")
    if m is not None and not m.bounded_x_variation:
        raise UnboundedXVariation(
            "plan derivative requires sup_x (cX+ - cX-)(x) < infinity"
        )
    base = sol.renormalized(Normalization.ANCHORED_AT_Y1, r, s)
    # column-major copy of the plan off y1: the layout fixes the summation
    # order of the BLAS products on AX and AY below
    pi_k = np.asfortranarray(base.plan[:, 1:])
    AX = pi_k / r.weights[:, None]
    AY = (pi_k / s.weights[None, 1:]).T
    B = base.plan / (r.weights[:, None] * s.weights[None, :])
    MX = AX @ AY
    norm = float(np.max(np.abs(MX).sum(axis=1)))
    if norm >= 1.0 - 1e-9:
        raise ContractionViolated(
            f"operator norm of AX AY is {norm:.12f}, too close to 1 for inversion"
        )
    if norm > 0.999:
        warnings.warn(
            f"AX AY contraction norm is 1 - {1.0 - norm:.1e}, close to 1; "
            "derivative may be ill-conditioned",
            RuntimeWarning,
        )
    # BY is a view of BX, so the operators hold one n x n table less
    return DerivativeOperators(
        base=base, r=r, s=s, AX=AX, AY=AY, BX=B, BY=B[:, 1:].T,
        contraction_norm=norm, lu=lu_factor(np.eye(MX.shape[0]) - MX),
    )


def _check_tangent(h: SignedVector, name: str):
    total = float(np.sum(h.entries))
    if abs(total) > TANGENT_TOL:
        raise NotInTangentCone(f"{name} sums to {total:.3e}, not a tangent direction")


def _neumann_solve(M: np.ndarray, rhs: np.ndarray, norm: float, tol: float = 1e-14,
                   max_terms: int = 10_000) -> np.ndarray:
    """(I - M)^{-1} rhs by summing the Neumann series; M must be a contraction.
    Raises NonConvergence if the terms are still above tolerance after
    `max_terms` of them."""
    out = rhs.copy()
    term = rhs.copy()
    for _ in range(max_terms):
        term = M @ term
        out += term
        if np.max(np.abs(term)) <= tol * (1.0 - norm):
            return out
    raise NonConvergence(
        f"Neumann series not below tolerance after {max_terms} terms",
        iterations=max_terms, residual=float(np.max(np.abs(term))),
    )


def _potential_corrections(ops: DerivativeOperators, HX: np.ndarray, HY: np.ndarray,
                           method: str = "direct"):
    """Solve the block system for (a, b); HX, HY may carry batch columns."""
    U = ops.BX @ HY
    V = ops.BY @ HX
    if method == "direct":
        a = lu_solve(ops.lu, U - ops.AX @ V)
        b = V - ops.AY @ a
    elif method == "neumann":
        a = _neumann_solve(ops.AX @ ops.AY, U - ops.AX @ V, ops.contraction_norm)
        b = _neumann_solve(ops.AY @ ops.AX, V - ops.AY @ U, ops.contraction_norm)
    else:
        raise ValueError(f"unknown method {method!r}")
    return a, b


def plan_derivative(ops: DerivativeOperators, hX: SignedVector, hY: SignedVector,
                    method: str = "direct") -> np.ndarray:
    """Directional derivative of the entropic plan at (r, s) along (hX, hY).

    The returned table has row sums hX and column sums hY.  `method` selects
    the block inversion: dense direct solve (default) or truncated Neumann
    summation.
    """
    _check_tangent(hX, "hX")
    _check_tangent(hY, "hY")
    a, b = _potential_corrections(ops, hX.entries, hY.entries, method)
    b_full = np.concatenate(([0.0], b))  # beta[y1] stays anchored at 0
    # (pi/(r (x) s)) . [r (x) hY + hX (x) s] = pi . (hX/r (+) hY/s)
    return ops.base.plan * ((hX.entries / ops.r.weights - a)[:, None]
                            + (hY.entries / ops.s.weights - b_full)[None, :])


def value_derivative(sol: SinkhornSolution, hX: SignedVector, hY: SignedVector) -> float:
    """Directional derivative <alpha, hX> + <beta, hY> of the EROT value."""
    _check_tangent(hX, "hX")
    _check_tangent(hY, "hY")
    return float(sol.alpha @ hX.entries + sol.beta @ hY.entries)


# ---------------------------------------------------------------------------
# asymptotic variances


def _variance_under(weights: np.ndarray, values: np.ndarray) -> float:
    mean = values @ weights
    return float(max(0.0, (values - mean) ** 2 @ weights))


def value_variance(sol: SinkhornSolution, r: DiscreteMeasure, s: DiscreteMeasure,
                   mode: str | Design = ONE_SAMPLE_R, delta: float | None = None) -> float:
    """Limit variance w_r Var_r[alpha] + w_s Var_s[beta] of the plug-in EROT
    value under the sampling design `Design.of(mode, delta)`."""
    return Design.of(mode, delta).combine(
        lambda: _variance_under(r.weights, sol.alpha),
        lambda: _variance_under(s.weights, sol.beta),
    )


def divergence_variance(r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel,
                        lam: float, mode: str | Design = ONE_SAMPLE_R,
                        delta: float | None = None,
                        cfg: SolveConfig = SolveConfig()) -> float:
    """Limit variance of the plug-in Sinkhorn divergence; degenerates to 0 at
    r = s because the debiasing term has the same derivative there."""
    design = Design.of(mode, delta)
    _require_symmetric(m)
    sol_rs = solve(r, s, m, lam, cfg)
    return design.combine(
        lambda: _variance_under(r.weights, sol_rs.alpha - solve(r, r, m, lam, cfg).alpha),
        lambda: _variance_under(s.weights, sol_rs.beta - solve(s, s, m, lam, cfg).beta),
    )


def _functional_jacobians(ops: DerivativeOperators, fns):
    """Rows <f, Dpi(e_x, 0)> and <f, Dpi(0, e_y)> for each table f.

    Raw coordinate perturbations are used; the multinomial covariance
    annihilates the constant component, so the resulting quadratic form
    matches the tangent-space computation.  All rows of a table come from
    one adjoint solve with the stored factor (see the module docstring).
    """
    pi = ops.base.plan
    F = np.array([np.asarray(f, dtype=float) * pi for f in fns]).reshape((-1,) + pi.shape)
    gx = F.sum(axis=2)
    gy_full = F.sum(axis=1)
    gy = gy_full[:, 1:]
    P = lu_solve(ops.lu, (gx - gy @ ops.AY).T, trans=1).T
    JX = gx / ops.r.weights - (gy - P @ ops.AX) @ ops.BY
    JY = gy_full / ops.s.weights - P @ ops.BX
    return JX, JY


def functional_covariance(ops: DerivativeOperators, r: DiscreteMeasure,
                          s: DiscreteMeasure, fns, mode: str | Design = ONE_SAMPLE_R,
                          delta: float | None = None) -> np.ndarray:
    """Limit covariance matrix of the plug-in plan functionals <f, pi> for a
    list of test tables f, pushing the multinomial Gaussian through the plan
    derivative: w_r JX Sigma_r JX^T + w_s JY Sigma_s JY^T."""
    design = Design.of(mode, delta)
    JX, JY = _functional_jacobians(ops, fns)
    cov = design.combine(
        lambda: JX @ multinomial_covariance(r).matrix @ JX.T,
        lambda: JY @ multinomial_covariance(s).matrix @ JY.T,
    )
    return 0.5 * (cov + cov.T)


def sinkhorn_cost_variance(ops: DerivativeOperators, r: DiscreteMeasure,
                           s: DiscreteMeasure, m: CostModel,
                           mode: str | Design = ONE_SAMPLE_R,
                           delta: float | None = None) -> float:
    """Limit variance of the plug-in Sinkhorn cost <c, pi>; the f = c case of
    the functional covariance."""
    var = float(functional_covariance(ops, r, s, [m.cost], mode, delta)[0, 0])
    return max(0.0, var)


# ---------------------------------------------------------------------------
# sampling the Gaussian limits


def sample_multinomial_gaussian(r: DiscreteMeasure, n_draws: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Draws from N(0, diag(r) - r r^T), shape (n_draws, len(r)).

    Uses G = sqrt(r).z - (sum sqrt(r).z) r for standard normal z, which has
    exactly the multinomial covariance since sum r = 1.
    """
    w = r.weights
    z = rng.standard_normal((n_draws, w.size))
    zs = z * np.sqrt(w)[None, :]
    return zs - np.outer(zs.sum(axis=1), w)


def sample_limit(ops: DerivativeOperators, statistic: str, n_draws: int, seed,
                 mode: str | Design = ONE_SAMPLE_R, delta: float | None = None,
                 f: np.ndarray | None = None) -> np.ndarray:
    """Reference draws of the Gaussian limit of a plug-in statistic.

    statistic: "value" for the EROT value, "plan_functional" for <f, pi>
    (requires f).  Each sampled side contributes sqrt(w) times its Gaussian,
    r first.  Deterministic under a fixed seed.
    """
    design = Design.of(mode, delta)
    if n_draws == 0:
        return np.empty(0)
    if statistic == "value":
        gX, gY = ops.base.alpha, ops.base.beta
    elif statistic == "plan_functional":
        if f is None:
            raise ValueError("plan_functional draws need a test table f")
        JX, JY = _functional_jacobians(ops, [f])
        gX, gY = JX[0], JY[0]
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    rng = np.random.default_rng(seed)
    draws = np.zeros(n_draws)
    for w, measure, g in ((design.w_r, ops.r, gX), (design.w_s, ops.s, gY)):
        if w:
            draws += np.sqrt(w) * sample_multinomial_gaussian(measure, n_draws, rng) @ g
    return draws
