"""Hadamard derivatives of the entropic transport plan and value, and the
plug-in asymptotic variances/covariances of the plug-in limit theorems.

The plan derivative is assembled from four operators built at an optimal
solution, taken as solved (only its plan is read); the correction b is
anchored at the first positive-mass atom y1 of Y (write Y* = Y without y1):

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

Neither the four operators nor I - AX AY are stored: a product with an
operator is a product with the plan between diagonal scalings, such as
AX v = (pi_{., Y*} v) / r.  With K = D_r^{-1/2} pi_{., Y*} D_{s*}^{-1/2},

    I - AX AY = D_r^{-1/2} S D_r^{1/2},   S = I - K K^T,

and S is symmetric, positive definite exactly when AX AY has spectral radius
below one.  `build_operators` forms S with one BLAS syrk and Cholesky-factors
it in place; each solve is a = D_r^{-1/2} S^{-1} D_r^{1/2} (u - AX v) on that
factor, then b by back-substitution.  The operators are refused
(`ContractionViolated`) only when Cholesky fails or S's smallest eigenvalue,
estimated as rcond(S) ||S||_1 from LAPACK's dpocon, is below `SCHUR_MIN_EIG`.
The paper's contraction norm ||AX AY||_inf, the largest entry of AX (AY 1)
since AX AY >= 0, is only reported: on long tails it reaches 1 from the
lightest rows while S stays well conditioned.

The functional covariances need the rows <f, Dpi(e_x, 0)> and
<f, Dpi(0, e_y)> for every coordinate direction.  They are obtained from one
adjoint solve per test table f rather than one solve per direction: with
gx = (f . pi) 1 and gy the column sums of f . pi off y1,

    P  = (gx - gy AY) (I - AX AY)^{-1},
    JX = gx / r - (gy - P AX) BY,
    JY = (f . pi)^T 1 / s - P BX,

where P^T = D_r^{1/2} S^{-1} D_r^{-1/2} (gx - gy AY)^T uses the same
factor, S being symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .errors import (
    ContractionViolated,
    NotInTangentCone,
    UnboundedXVariation,
    ZeroMassAtom,
)
# the mode spellings stay importable from here
from .measures import ONE_SAMPLE_R, ONE_SAMPLE_S, TWO_SAMPLE, Design, DiscreteMeasure, SignedVector
from .sinkhorn import SinkhornSolution, SolveConfig, _require_symmetric, solve

TANGENT_TOL = 1e-10
# smallest eigenvalue estimate of S = I - K K^T below which the block system
# counts as singular
SCHUR_MIN_EIG = 1e-12


@dataclass(frozen=True)
class DerivativeOperators:
    """The plan derivative's data at one solution: the solution as solved,
    the marginals, the Cholesky factor of S = I - K K^T and diagnostics.
    The solves work on the plan itself; AX, AY, BX and BY (module
    docstring) are never formed."""

    base: SinkhornSolution  # the solution as solved; b is anchored at y1
    r: DiscreteMeasure
    s: DiscreteMeasure
    contraction_norm: float  # ||AX AY||_inf
    schur_min_eig: float  # rcond(S) ||S||_1, an estimate of S's smallest eigenvalue
    max_rel_marginal_error: float  # worst |plan marginal - weight| / weight
    cho: tuple  # scipy.linalg.cho_factor of S, lower triangle


def build_operators(
    sol: SinkhornSolution,
    r: DiscreteMeasure,
    s: DiscreteMeasure,
    m: CostModel,
) -> DerivativeOperators:
    """Factor the plan derivative's block system at a converged solution.

    Requires full support of both marginals and bounded X-variation of the
    cost.  Full support puts y1 at index 0, so Y* is every column but the
    first.  Raises ContractionViolated when S = I - K K^T (module docstring)
    is not numerically positive definite.
    """
    from scipy.linalg import cho_factor
    from scipy.linalg.blas import dsyrk
    from scipy.linalg.lapack import dpocon

    if np.any(r.weights <= 0) or np.any(s.weights <= 0):
        raise ZeroMassAtom("plan derivative requires full support of both marginals")
    if not m.bounded_x_variation:
        raise UnboundedXVariation(
            "plan derivative requires sup_x (cX+ - cX-)(x) < infinity"
        )
    pi, w_r, w_s = sol.plan, r.weights, s.weights
    rows, cols = pi.sum(axis=1), pi.sum(axis=0)
    marginal_error = float(max(np.max(np.abs(rows - w_r) / w_r),
                               np.max(np.abs(cols - w_s) / w_s)))
    # AX AY >= 0 entrywise, so its infinity norm is the largest entry of AX (AY 1)
    norm = float(np.max(pi[:, 1:] @ (cols[1:] / w_s[1:]) / w_r))
    # K in the plan's row-major layout; K.T is then column-major, the layout
    # BLAS takes without a copy, and syrk with trans=1 forms (K.T)^T K.T = K K^T
    K = np.divide(pi[:, 1:], np.sqrt(w_r)[:, None])
    K /= np.sqrt(w_s[1:])
    S = np.eye(K.shape[0], order="F")
    if K.shape[1]:  # a one-atom Y leaves Y* empty and S = I; syrk refuses k = 0
        S = dsyrk(-1.0, K.T, beta=1.0, c=S, trans=1, lower=1, overwrite_c=1)
    try:
        cho = cho_factor(S, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        raise ContractionViolated(
            "I - K K^T is not positive definite (Cholesky failed); worst "
            f"relative marginal error {marginal_error:.1e}, AX AY norm {norm:.12f}",
            max_rel_marginal_error=marginal_error, contraction_norm=norm,
        ) from None
    # dpocon returns 1 / (anorm * est ||S^{-1}||_1): with anorm = 1 that is
    # rcond(S) ||S||_1, and ||S||_1 need not be formed
    min_eig = float(dpocon(cho[0], 1.0, uplo="L")[0])
    if min_eig < SCHUR_MIN_EIG:
        raise ContractionViolated(
            f"I - K K^T is numerically singular: smallest eigenvalue about "
            f"{min_eig:.1e}; worst relative marginal error {marginal_error:.1e}",
            max_rel_marginal_error=marginal_error, contraction_norm=norm, schur_min_eig=min_eig,
        )
    return DerivativeOperators(
        base=sol, r=r, s=s, contraction_norm=norm, schur_min_eig=min_eig,
        max_rel_marginal_error=marginal_error, cho=cho,
    )


def _check_tangent(h: SignedVector, name: str):
    total = float(np.sum(h.entries))
    if abs(total) > TANGENT_TOL:
        raise NotInTangentCone(f"{name} sums to {total:.3e}, not a tangent direction")


def _potential_corrections(ops: DerivativeOperators, hX: np.ndarray, hY: np.ndarray):
    """Solve the block system for (a, b) along the direction (hX, hY)."""
    from scipy.linalg import cho_solve

    pi, w_r, w_s = ops.base.plan, ops.r.weights, ops.s.weights
    v = (hX / w_r) @ pi[:, 1:] / w_s[1:]  # BY hX
    # u - AX v = pi (hY/s - (0, v)) / r, with u = BX hY
    w = hY / w_s
    w[1:] -= v
    sqrt_r = np.sqrt(w_r)
    a = cho_solve(ops.cho, (pi @ w) / sqrt_r) / sqrt_r
    b = v - a @ pi[:, 1:] / w_s[1:]  # v - AY a
    return a, b


def plan_derivative(ops: DerivativeOperators, hX: SignedVector, hY: SignedVector) -> np.ndarray:
    """Directional derivative of the entropic plan at (r, s) along (hX, hY).

    The returned table has row sums hX and column sums hY.
    """
    _check_tangent(hX, "hX")
    _check_tangent(hY, "hY")
    a, b = _potential_corrections(ops, hX.entries, hY.entries)
    b_full = np.concatenate(([0.0], b))  # b is anchored at y1
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
    rs = solve(r, s, m, lam, cfg)
    alpha, beta = rs.alpha, rs.beta
    del rs  # frees the (r, s) plan before the self-transport solves
    return design.combine(
        lambda: _variance_under(r.weights, alpha - solve(r, r, m, lam, cfg).alpha),
        lambda: _variance_under(s.weights, beta - solve(s, s, m, lam, cfg).beta),
    )


def _functional_jacobians(ops: DerivativeOperators, fns):
    """Rows <f, Dpi(e_x, 0)> and <f, Dpi(0, e_y)> for each table f.

    Raw coordinate perturbations are used; the multinomial covariance
    annihilates the constant component, so the resulting quadratic form
    matches the tangent-space computation.  All rows of a table come from
    one adjoint solve with the stored factor (see the module docstring).
    """
    from scipy.linalg import cho_solve

    pi, w_r, w_s = ops.base.plan, ops.r.weights, ops.s.weights
    # the row and column sums of f . pi, without an n x n temporary
    gx = np.array([np.einsum("ij,ij->i", f, pi) for f in fns])
    gy = np.array([np.einsum("ij,ij->j", f, pi) for f in fns])
    sqrt_r = np.sqrt(w_r)
    # P^T = D_r^{1/2} S^{-1} D_r^{-1/2} (gx - gy AY)^T
    rhs = gx - (gy[:, 1:] / w_s[1:]) @ pi[:, 1:].T
    P = cho_solve(ops.cho, (rhs / sqrt_r).T).T * sqrt_r
    PB = (P / w_r) @ pi  # P AX = PB off y1, P BX = PB / s
    JX = (gx - ((gy[:, 1:] - PB[:, 1:]) / w_s[1:]) @ pi[:, 1:].T) / w_r
    JY = (gy - PB) / w_s
    return JX, JY


def _multinomial_form(J: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J (diag(w) - w w^T) J^T, without forming the covariance matrix."""
    Jw = J @ w
    return (J * w) @ J.T - np.outer(Jw, Jw)


def functional_covariance(ops: DerivativeOperators, r: DiscreteMeasure,
                          s: DiscreteMeasure, fns, mode: str | Design = ONE_SAMPLE_R,
                          delta: float | None = None) -> np.ndarray:
    """Limit covariance matrix of the plug-in plan functionals <f, pi> for a
    list of test tables f, pushing the multinomial Gaussian through the plan
    derivative: w_r JX Sigma_r JX^T + w_s JY Sigma_s JY^T."""
    design = Design.of(mode, delta)
    JX, JY = _functional_jacobians(ops, fns)
    cov = design.combine(
        lambda: _multinomial_form(JX, r.weights),
        lambda: _multinomial_form(JY, s.weights),
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


def sample_limit(ops: DerivativeOperators, n_draws: int, seed,
                 mode: str | Design = ONE_SAMPLE_R, delta: float | None = None,
                 f: np.ndarray | None = None) -> np.ndarray:
    """Reference draws of the Gaussian limit of a plug-in statistic: the EROT
    value without f, the plan functional <f, pi> with a test table f.  Each
    sampled side contributes sqrt(w) times its Gaussian, r first.
    Deterministic under a fixed seed.
    """
    design = Design.of(mode, delta)
    if n_draws == 0:
        return np.empty(0)
    if f is None:
        # each Gaussian sums to 0, so the potentials' gauge does not matter
        gX, gY = ops.base.alpha, ops.base.beta
    else:
        JX, JY = _functional_jacobians(ops, [f])
        gX, gY = JX[0], JY[0]
    rng = np.random.default_rng(seed)
    draws = np.zeros(n_draws)
    for w, measure, g in ((design.w_r, ops.r, gX), (design.w_s, ops.s, gY)):
        if w:
            draws += np.sqrt(w) * sample_multinomial_gaussian(measure, n_draws, rng) @ g
    return draws
