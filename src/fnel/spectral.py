"""Principal half-eigenvalue estimation by inverse power iteration.

Each step solves F(D^2 u_{k+1}) = u_k with zero boundary data and
sup-normalizes; the reciprocal of the pre-normalization sup-norm converges
to the first eigenvalue associated with a positive eigenfunction.  One loop
in ``principal_eigenvalue`` serves both grids: each supplies its grid, first
iterate and step u -> solution, the iterate is read at the grid's unknowns,
and the eigenfield is the last solution rescaled.

The grid is built once per call and held: each step hands the solver u_k as
an array at the grid's rhs points in an ``_OnGrid`` problem, and the solve
continues from the grid's held evaluation, the previous step's raw solution
with its F_h u and policy.  F is positively homogeneous, so that solution is
the next one up to the drift: a step then takes one policy sweep with the
previous policy and solves with the held LU, one evaluation of F_h and one
LU solve per sweep, no assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import EllipticOperator
from .solver import (
    Annulus, Ball, DirichletProblem, Rectangle, _Grid2D, _OnGrid, _RadialGrid,
    solve_dirichlet_2d, solve_dirichlet_radial,
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

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValueError("lambda1 must be positive")


def principal_eigenvalue(f_op: EllipticOperator, domain, cells: int,
                         tol: float = 1e-8) -> EigenResult:
    """First half-eigenvalue of F on a bounded annulus, ball, or rectangle."""
    if not tol > 0:                       # NaN too
        raise ValueError("tol must be positive")
    if isinstance(domain, (Annulus, Ball)):
        grid, u, step = _radial_steps(f_op, domain, cells)
    elif isinstance(domain, Rectangle):
        grid, u, step = _grid_steps(f_op, domain, cells)
    else:
        raise TypeError("domain must be an annulus, ball, or rectangle")
    u = u / u.max()
    lam_prev = None
    for it in range(1, EIGEN_ITERATION_CAP + 1):
        sol = step(u)
        vin = sol.values.ravel()[grid.unknown]       # a ball's centre included
        if vin.min() <= 0:
            raise IterationFailure(
                "iterate lost positivity; discretization failure")
        sup = float(vin.max())
        lam = 1.0 / sup
        u = np.where(np.isnan(sol.values), 0.0, sol.values / sup)  # NaN off a 2D domain
        if lam_prev is not None:
            drift = abs(lam - lam_prev) / lam
            if drift <= tol:
                field = grid.field(sol.values / sup, {**sol.meta, "lambda1": lam})
                return EigenResult(lambda1=lam, eigenfield=field,
                                   iterations=it, drift=drift)
        lam_prev = lam
    raise IterationFailure(
        f"eigenvalue iteration did not converge in {EIGEN_ITERATION_CAP} steps")


def _radial_steps(f_op, domain, cells):
    """The radial grid, first iterate and step u -> solution."""
    n = f_op.dim
    grid = _RadialGrid.for_solve(f_op, n, DirichletProblem(domain=domain, n=n),
                                cells)
    nodes = grid.r
    if isinstance(domain, Annulus):
        half = 0.5 * (domain.r1 - domain.r0)
        bump = np.minimum(nodes - domain.r0, domain.r1 - nodes) / half
    else:
        bump = (domain.r1 - nodes) / domain.r1

    def step(u):
        problem = _OnGrid(domain=domain, n=n, rhs=np.interp(grid.pts, nodes, u),
                          grid=grid)
        return solve_dirichlet_radial(f_op, n, problem, cells)

    return grid, np.maximum(bump, 0.0), step


def _grid_steps(f_op, domain, cells):
    """The 2D grid, first iterate and step u -> solution."""
    h = domain.grid_step(cells)
    grid = _Grid2D.for_solve(f_op, DirichletProblem(domain=domain, n=2), h)
    nx, ny = grid.interior.shape
    x = grid.x0 + np.arange(nx)[:, None] * grid.h
    y = grid.y0 + np.arange(ny)[None, :] * grid.h

    def step(u):
        problem = _OnGrid(domain=domain, n=2, rhs=u[grid.interior], grid=grid)
        return solve_dirichlet_2d(f_op, problem, h)

    return grid, np.maximum(0.0, np.minimum(x - domain.x0, domain.x1 - x)
                            / (domain.x1 - domain.x0)
                            * np.minimum(y - domain.y0, domain.y1 - y)
                            / (domain.y1 - domain.y0)), step


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
