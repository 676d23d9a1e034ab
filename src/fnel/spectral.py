"""Principal half-eigenvalue estimation by inverse power iteration.

Each step solves F(D^2 u_{k+1}) = u_k with zero boundary data and
sup-normalizes; the reciprocal of the pre-normalization sup-norm converges
to the first eigenvalue associated with a positive eigenfunction.

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
from dataclasses import dataclass

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


def _bump(domain, nodes):
    if isinstance(domain, Annulus):
        half = 0.5 * (domain.r1 - domain.r0)
        return np.minimum(nodes - domain.r0, domain.r1 - nodes) / half
    if isinstance(domain, Ball):
        return (domain.r1 - nodes) / domain.r1
    raise TypeError


def principal_eigenvalue(f_op: EllipticOperator, domain, cells: int,
                         tol: float = 1e-8) -> EigenResult:
    """First half-eigenvalue of F on a bounded annulus, ball, or rectangle."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(domain, (Annulus, Ball)):
        return _eigen_radial(f_op, domain, cells, tol)
    if isinstance(domain, Rectangle):
        return _eigen_2d(f_op, domain, cells, tol)
    raise TypeError("domain must be an annulus, ball, or rectangle")


def _eigen_radial(f_op, domain, cells, tol):
    n = f_op.dim
    nodes, _, spacing = _radial_grid(DirichletProblem(domain=domain, n=n), cells)
    u = np.maximum(_bump(domain, nodes), 0.0)
    u /= u.max()
    start = None
    lam_prev = None
    for it in range(1, EIGEN_ITERATION_CAP + 1):
        rhs = RadialField(n=n, nodes=nodes, values=u, spacing=spacing)
        problem = DirichletProblem(domain=domain, n=n, rhs=rhs)
        sol = solve_dirichlet_radial(f_op, n, problem, cells, start)
        v = start = sol.values
        interior = v[1:-1] if isinstance(domain, Annulus) else v[:-1]
        if interior.min() <= 0:
            raise IterationFailure(
                "iterate lost positivity; discretization failure")
        sup = float(v.max())
        lam = 1.0 / sup
        u = v / sup
        if lam_prev is not None:
            drift = abs(lam - lam_prev) / lam
            if drift <= tol:
                field = RadialField(n=n, nodes=nodes, values=u,
                                    spacing=sol.spacing,
                                    meta={**sol.meta, "lambda1": lam})
                return EigenResult(lambda1=lam, eigenfield=field,
                                   iterations=it, drift=drift)
        lam_prev = lam
    raise IterationFailure(
        f"eigenvalue iteration did not converge in {EIGEN_ITERATION_CAP} steps")


def _eigen_2d(f_op, domain, cells, tol):
    h = min(domain.x1 - domain.x0, domain.y1 - domain.y0) / cells
    grid = _Grid2D.build(DirichletProblem(domain=domain, n=2), h)
    nx, ny = grid.interior.shape
    x = grid.x0 + np.arange(nx)[:, None] * grid.h
    y = grid.y0 + np.arange(ny)[None, :] * grid.h
    values = np.maximum(0.0, np.minimum(x - domain.x0, domain.x1 - x)
                        / (domain.x1 - domain.x0)
                        * np.minimum(y - domain.y0, domain.y1 - y)
                        / (domain.y1 - domain.y0))
    values /= values.max()
    u = values
    start = None
    lam_prev = None
    for it in range(1, EIGEN_ITERATION_CAP + 1):
        rhs = Field2D(h=grid.h, x0=grid.x0, y0=grid.y0, values=u,
                      interior=grid.interior)
        problem = DirichletProblem(domain=domain, n=2, rhs=rhs)
        sol = solve_dirichlet_2d(f_op, problem, h, start)
        v = start = sol.values
        vin = v[sol.interior]
        if vin.min() <= 0:
            raise IterationFailure(
                "iterate lost positivity; discretization failure")
        sup = float(vin.max())
        lam = 1.0 / sup
        u = np.where(np.isnan(v), 0.0, v / sup)
        if lam_prev is not None:
            drift = abs(lam - lam_prev) / lam
            if drift <= tol:
                field = Field2D(h=sol.h, x0=sol.x0, y0=sol.y0,
                                values=v / sup, interior=sol.interior,
                                meta={**sol.meta, "lambda1": lam})
                return EigenResult(lambda1=lam, eigenfield=field,
                                   iterations=it, drift=drift)
        lam_prev = lam
    raise IterationFailure(
        f"eigenvalue iteration did not converge in {EIGEN_ITERATION_CAP} steps")


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
