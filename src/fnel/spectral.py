"""Principal half-eigenvalue estimation by inverse power iteration.

Each step solves F(D^2 u_{k+1}) = u_k with zero boundary data and
sup-normalizes; the reciprocal of the pre-normalization sup-norm converges
to the first eigenvalue associated with a positive eigenfunction.  One loop
in ``principal_eigenvalue`` serves both grids: each grid supplies its start
vector and a step (u, start) -> (solution, interior values), and the
eigenfield is the last solution rescaled.

The rhs u_k is handed to the solver as a field on its own grid, and every
step after the first is warm-started from the previous raw solution.  F is
positively homogeneous, so that start is the next solution up to the drift:
a step then takes one policy sweep with the previous policy, its matrix is
the one the previous step ended with, and the solver's one-slot cache
reuses that factorization instead of computing it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .matcore import EllipticOperator
from .solver import (
    Annulus, Ball, DirichletProblem, Field2D, RadialField, Rectangle,
    _Grid2D, _radial_grid, solve_dirichlet_2d, solve_dirichlet_radial,
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

    def to_json(self) -> str:
        return json.dumps({
            "lambda1": self.lambda1,
            "iterations": self.iterations,
            "drift": self.drift,
        })


def principal_eigenvalue(f_op: EllipticOperator, domain, cells: int,
                         tol: float = 1e-8) -> EigenResult:
    """First half-eigenvalue of F on a bounded annulus, ball, or rectangle."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(domain, (Annulus, Ball)):
        u, step = _radial_steps(f_op, domain, cells)
    elif isinstance(domain, Rectangle):
        u, step = _grid_steps(f_op, domain, cells)
    else:
        raise TypeError("domain must be an annulus, ball, or rectangle")
    u = u / u.max()
    start = lam_prev = None
    for it in range(1, EIGEN_ITERATION_CAP + 1):
        sol, vin = step(u, start)
        if vin.min() <= 0:
            raise IterationFailure(
                "iterate lost positivity; discretization failure")
        start = sol.values
        sup = float(vin.max())
        lam = 1.0 / sup
        u = np.where(np.isnan(start), 0.0, start / sup)  # NaN off a 2D domain
        if lam_prev is not None:
            drift = abs(lam - lam_prev) / lam
            if drift <= tol:
                field = replace(sol, values=start / sup,
                                meta={**sol.meta, "lambda1": lam})
                return EigenResult(lambda1=lam, eigenfield=field,
                                   iterations=it, drift=drift)
        lam_prev = lam
    raise IterationFailure(
        f"eigenvalue iteration did not converge in {EIGEN_ITERATION_CAP} steps")


def _radial_steps(f_op, domain, cells):
    """The radial start vector and step (u, start) -> (solution, interior)."""
    n = f_op.dim
    nodes, _, spacing = _radial_grid(DirichletProblem(domain=domain, n=n), cells)
    if isinstance(domain, Annulus):
        half = 0.5 * (domain.r1 - domain.r0)
        bump = np.minimum(nodes - domain.r0, domain.r1 - nodes) / half
        inner = slice(1, -1)
    else:                                # a ball solves for its centre too
        bump, inner = (domain.r1 - nodes) / domain.r1, slice(0, -1)

    def step(u, start):
        rhs = RadialField(n=n, nodes=nodes, values=u, spacing=spacing)
        problem = DirichletProblem(domain=domain, n=n, rhs=rhs)
        sol = solve_dirichlet_radial(f_op, n, problem, cells, start)
        return sol, sol.values[inner]

    return np.maximum(bump, 0.0), step


def _grid_steps(f_op, domain, cells):
    """The 2D start vector and step (u, start) -> (solution, interior)."""
    h = min(domain.x1 - domain.x0, domain.y1 - domain.y0) / cells
    grid = _Grid2D.build(DirichletProblem(domain=domain, n=2), h)
    nx, ny = grid.interior.shape
    x = grid.x0 + np.arange(nx)[:, None] * grid.h
    y = grid.y0 + np.arange(ny)[None, :] * grid.h

    def step(u, start):
        rhs = Field2D(h=grid.h, x0=grid.x0, y0=grid.y0, values=u,
                      interior=grid.interior)
        problem = DirichletProblem(domain=domain, n=2, rhs=rhs)
        sol = solve_dirichlet_2d(f_op, problem, h, start)
        return sol, sol.values[sol.interior]

    return np.maximum(0.0, np.minimum(x - domain.x0, domain.x1 - x)
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
