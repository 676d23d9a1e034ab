"""Principal half-eigenvalue by policy iteration on the eigenproblem.

``principal_eigenvalue`` runs Howard's loop on F_h u = lambda u with zero
boundary data (Rothblum, Math. Oper. Res. 1984), on either grid's ``apply``,
held LU ``_solve`` and ``unknown``, where the iterate x lives:

- *Seed.* One nonlinear solve of F(D^2 w) = bump, handed the grid in an
  ``_OnGrid`` problem; x = w / max w, and ``apply`` at x picks the policy.
  It needs only a positive x and a policy near the last one, so it stops
  at the solver's SEED_TOL of the data scale, far off the round-off floor
  that RESIDUAL_TOL meets on fine grids.
- *Phases.* With that policy frozen F_h is linear: inverse iteration solves
  w = L^{-1} x with its held LU, lambda = 1 / max w, x = w / max w.  Zero
  boundary data need no rhs fix-up; a ball's centre row reads x there.
- *Stop.* ``apply`` is read at x once per policy when the drift
  |lambda_k - lambda_{k-1}| / lambda first falls to sqrt(tol), and again at
  tol.  A new policy starts a new phase.  The loop stops at drift <= tol once
  F_h picks the frozen policy again, or when the step after a policy change
  made at drift <= tol moves lambda by at most tol too: a sup-inf tie that
  round-off breaks either way.  ``iterations`` counts the seed and the
  linear solves, at most EIGEN_ITERATION_CAP.

The bracket is the (min, max) of F_h u / u at the returned eigenvector u,
from the last evaluation, widened on both sides by the rounding of the
computed ratios.  For a monotone, positively homogeneous F_h the exact
(min, max) holds the discrete lambda1 (Collatz-Wielandt; Gaubert and
Gunawardena, Trans. AMS 2004), and it holds lambda as well: F_h u = lambda
x with max x = max u = 1.  Computed, F_h u at node i is a sum of k stencil
terms and u an LU solve's, so each ratio is off by at most about the
solver's ``_rounding`` of row i, k eps sum_j |a_ij| |u_j|, over u_i for
each of the two, A the matrix of the policy F_h picks at u: the widening is
twice its largest value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import EllipticOperator
from .solver import (
    Annulus, Ball, DirichletProblem, Rectangle, _Grid2D, _OnGrid, _RadialGrid,
    _rounding, _same, solve_dirichlet_2d, solve_dirichlet_radial,
)

EIGEN_ITERATION_CAP = 500


class IterationFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenfield: object
    iterations: int
    drift: float
    bracket: tuple          # (min, max) of F_h u / u at the eigenvector u, widened

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValueError("lambda1 must be positive")


def principal_eigenvalue(f_op: EllipticOperator, domain, cells: int,
                         tol: float = 1e-8) -> EigenResult:
    """First half-eigenvalue of F on a bounded annulus, ball, or rectangle."""
    if not tol > 0:                       # NaN too
        raise ValueError("tol must be positive")
    n, problem = f_op.dim, DirichletProblem(domain=domain, n=f_op.dim)
    if isinstance(domain, (Annulus, Ball)):
        grid = _RadialGrid.for_solve(f_op, n, problem, cells)
    elif isinstance(domain, Rectangle):
        grid = _Grid2D.for_solve(f_op, problem, domain.grid_step(cells))
    else:
        raise TypeError("domain must be an annulus, ball, or rectangle")
    bump = _bump(domain, grid)
    problem = _OnGrid(domain=domain, n=n, rhs=bump / bump.max(), grid=grid)
    seed = (solve_dirichlet_2d(f_op, problem, grid.h) if isinstance(domain, Rectangle)
            else solve_dirichlet_radial(f_op, n, problem, cells))
    u, known = grid.first.copy(), grid.unknown         # zero boundary data
    lam, u[known] = _normalized(seed.values.ravel()[known])
    policy = grid.apply(u)[1]
    check, tie = math.sqrt(tol), False
    for it in range(2, EIGEN_ITERATION_CAP + 1):
        lam_prev = lam
        lam, u[known] = _normalized(grid._solve(policy, u[known]))
        drift = abs(lam - lam_prev) / lam
        if not drift <= check:
            tie = False
            continue
        fu, new = grid.apply(u)
        same = _same(new, policy)
        if drift <= tol and (same or tie):
            ratio = fu / u[known]
            widen = 2.0 * (_rounding(grid, new, u) / u[known]).max()
            bracket = (float(ratio.min() - widen), float(ratio.max() + widen))
            field = grid.field(u, {**grid.meta, "lambda1": lam,
                                   "lambda_lo": bracket[0], "lambda_hi": bracket[1]})
            return EigenResult(lambda1=lam, eigenfield=field, iterations=it,
                               drift=drift, bracket=bracket)
        # a policy changed at drift <= tol is a tie broken by round-off if the
        # next step moves lambda by at most tol too
        policy, check, tie = new, tol if same else math.sqrt(tol), drift <= tol
    raise IterationFailure(
        f"eigenvalue iteration did not converge in {EIGEN_ITERATION_CAP} steps")


def _normalized(w):
    """(1 / max w, w / max w) for an iterate w, which must stay positive."""
    if not w.min() > 0:
        raise IterationFailure("iterate lost positivity; discretization failure")
    sup = float(w.max())
    return 1.0 / sup, w / sup


def _bump(domain, grid):
    """A positive bump at the grid's unknowns, zero on the domain's boundary."""
    if isinstance(domain, Rectangle):
        i, j = np.nonzero(grid.interior)
        x, y = grid.x0 + i * grid.h, grid.y0 + j * grid.h
        return (np.minimum(x - domain.x0, domain.x1 - x) / (domain.x1 - domain.x0)
                * np.minimum(y - domain.y0, domain.y1 - y) / (domain.y1 - domain.y0))
    r = grid.r[grid.unknown]             # a ball's centre included
    if isinstance(domain, Annulus):
        return np.minimum(r - domain.r0, domain.r1 - r) / (0.5 * (domain.r1 - domain.r0))
    return (domain.r1 - r) / domain.r1


def eigen_scaling_check(f_op: EllipticOperator, domain, sigma: float,
                        cells: int = 512, tol: float = 1e-8) -> dict:
    """Verify the two-homogeneity lambda1(sigma * domain) = sigma^{-2} lambda1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    base = principal_eigenvalue(f_op, domain, cells, tol)
    scaled = principal_eigenvalue(f_op, domain.scaled(sigma), cells, tol)
    ratio = base.lambda1 / scaled.lambda1
    return {
        "lambda1_base": base.lambda1,
        "lambda1_scaled": scaled.lambda1,
        "sigma": sigma,
        "ratio": ratio,
        "expected": sigma ** 2,
        "relative_error": abs(ratio - sigma ** 2) / sigma ** 2,
    }
