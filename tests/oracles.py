"""Reference computations that the derivative tests compare the library with.

Nothing here is imported from `erot.sensitivity`: the operators AX, AY, BX
and BY are formed densely from the plan, the block system is inverted by
summing its Neumann series, and the series stops on a rate taken from the
eigenvalues of AX AY.  A check against these shares no code with the
Cholesky path it checks.
"""

import numpy as np

from erot.errors import NonConvergence


def operators(plan, r, s):
    """(AX, AY, BX, BY) of the plan derivative, b anchored at the first atom of Y."""
    AX = plan[:, 1:] / r.weights[:, None]
    AY = (plan[:, 1:] / s.weights[1:]).T
    BX = plan / np.outer(r.weights, s.weights)
    return AX, AY, BX, BX[:, 1:].T


def neumann_solve(M, rhs, rate, tol=1e-14, max_terms=10_000):
    """(I - M)^{-1} rhs by summing the Neumann series; M must have spectral
    radius `rate` < 1.  Raises NonConvergence if the terms are still above
    tolerance after `max_terms` of them."""
    out = rhs.copy()
    term = rhs.copy()
    for _ in range(max_terms):
        term = M @ term
        out += term
        if np.max(np.abs(term)) <= tol * (1.0 - rate):
            return out
    raise NonConvergence(
        f"Neumann series not below tolerance after {max_terms} terms",
        iterations=max_terms, residual=float(np.max(np.abs(term))),
    )


def neumann_plan_derivative(plan, r, s, hX, hY):
    """Dpi along the direction (hX, hY), given as arrays, by Neumann summation."""
    AX, AY, BX, BY = operators(plan, r, s)
    u, v = BX @ hY, BY @ hX
    # AX AY and AY AX share their nonzero eigenvalues, so one rate serves both;
    # it stays below 1 where ||AX AY||_inf does not
    rate = float(np.max(np.abs(np.linalg.eigvals(AX @ AY))))
    a = neumann_solve(AX @ AY, u - AX @ v, rate)
    b = neumann_solve(AY @ AX, v - AY @ u, rate)
    b_full = np.concatenate(([0.0], b))
    return plan * ((hX / r.weights - a)[:, None] + (hY / s.weights - b_full)[None, :])


def multinomial_covariance(w):
    """diag(w) - w w^T, the covariance of the empirical-process Gaussian limit."""
    return np.diag(w) - np.outer(w, w)
