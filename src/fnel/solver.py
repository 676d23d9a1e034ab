"""Monotone finite-difference solvers for F(D^2 u) = f with Dirichlet data.

Both public solvers build a grid (``_RadialGrid.for_solve`` or
``_Grid2D.for_solve``), read the rhs at its rhs points and call ``_solve_on``,
the one driver of Howard's policy iteration: it sets the tolerance (1e-10
times the data scale, or SEED_TOL for an eigen seed), starts at the grid's
``first`` and builds the result.  Both grids offer it the same interface: the
first iterate ``first`` with the boundary data in place, the index
``unknown`` of its unknowns, the boundary data terms ``tol_terms`` of the
tolerance, the base ``meta``, the nodes ``nbr`` and four methods.
``apply(u)`` gives F_h u at the rhs points and the policy (the controls
chosen at every node); ``step(policy, rhs)`` solves the linear system with
that policy frozen and the boundary data of ``first``; ``system(policy)``
gives that system's rows, row i on the nodes ``u[nbr[:, i]]``; ``field(u,
meta)`` gives the RadialField or Field2D.  ``apply`` is each grid's one
kernel: the stopping residual, ``residual_norm`` and every sweep's policy
come from it.  It reads the grid's one stencil table, every row's
coefficients on its nodes ``u[grid.nbr]``, as ``system`` and ``step`` (its
boundary terms) do: the residual measures the matrix a sweep factorizes.

The loop succeeds once the residual sup-norm is at most the tolerance.  An
iterate that selects the very policy that produced it is the scheme's fixed
point: the same policy gives the same system and the same iterate again.  A
residual still above tolerance there is round-off, and the solve raises
PolicyIterationDiverged at once, naming the round-off floor: the largest
``_rounding`` of the factorized rows at the iterate, k eps sum_j |a_ij| |u_j|
for a row's k = len(nbr) terms, boundary terms included.  No step is
damped; ITERATION_CAP only stops a sup-inf family whose policies cycle.

Radial path: any dimension n <= 6, annuli and balls.  The domain fixes the
grid: uniform in log r on an annulus, uniform in r on a ball, whose centre
comes first in F_h u, the policy and the unknowns.  At every node the
discrete Hessian has the eigenvalue pattern diag(a, b, ..., b), and a frozen
control reduces F to -(wa*a + wb*b).  ``_pattern_weights`` picks the policy
(wa, wb) at a ball's centre and all interior nodes at once: closed-form sign
tests for the Laplacian and Pucci kinds, a loop over sup-rows of the
(a11, tr A - a11) control table for Isaacs families.  A step solves the
tridiagonal system (the centre row first on a ball) from its (unknowns, 3)
band with LAPACK's tridiagonal LU of its transpose; see ``_RadialGrid`` for
its stencil table and for why the transpose.

2D path: rectangles and annuli on a uniform Cartesian grid.  F is a sup over
rows of an inf over the controls A of one (rows, controls, 2, 2) array, each
discretized by the 9-point stencil of -tr(A D^2 u); the diagonal dominance
check and the (rows, controls, 9) coefficients are array expressions.
``_evaluate_2d`` takes the (9, nodes) neighbor values of every interior node
and returns F_h u with the policy (row, control) per node, looping over rows
only.  A step's matrix is built transposed, in CSC, from the chosen
coefficient rows and factorized by SuperLU in its symmetric mode: the minimum
degree order of A^T + A and the diagonal as pivots, which the M-matrix's
diagonal dominance allows; only the rows next to the boundary add boundary
data to a step's rhs.

Problem data are None (zero) or callables, else ``DirichletProblem`` raises
TypeError; they are called once per node, in node order, into one array.  A
grid is built once per solve, or once per ``principal_eigenvalue``, whose
seed solve hands it over in an ``_OnGrid`` problem with the rhs as an array;
every solve starts from the grid's ``first``.  ``_HeldLU`` keeps its last
sweep's policy with the LU of its ``system(policy)``, factorized once per new
policy; the eigen loop's linear steps solve with it too.  No order or
factorization outlives its grid.

``fundamental_profile`` samples a solution at 128 points on each of 33
spheres of radius s in [2, 8], step 2^(1/16), in one pass (a sample off a 2D
grid's domain raises).  ``_slope_fit`` reads the exponent a of A s^-a + B off
the min and the max profile as minus the slope of one least-squares line of
log|m(s) - m(sqrt(2) s)| against log s, for either sign of a; a max profile
equal to the min one (always so when radial) reuses the min fit.

scipy is imported where a matrix is first factorized: scipy.linalg's LAPACK
by the radial grid, scipy.sparse and its SuperLU by the 2D grid.  Importing
this module loads none of it, and no radial call runs SuperLU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .matcore import (
    ISAACS, LAPLACIAN, PUCCI_MAX, PUCCI_MIN, EllipticOperator, control_table,
)
from .scaling import LOG_CASE_THRESHOLD, alpha_bracket, alpha_star

RESIDUAL_TOL = 1e-10
SEED_TOL = 1e-5                         # RESIDUAL_TOL of an ``_OnGrid`` solve
ITERATION_CAP = 200
_PUCCI_ANGLES = 24                      # rotations in [0, pi/2) of a 2D Pucci family


class PolicyIterationDiverged(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class NonMonotoneScheme(ValueError):
    pass


# ---------------------------------------------------------------------------
# Howard policy iteration


def _misfit(fu, rhs):
    """Sup-norm of F_h u - f at a grid's rhs points."""
    return float(np.abs(fu - rhs).max(initial=0.0))


def _same(policy, other):
    """Whether two policies, pairs of like-shaped arrays, are equal."""
    (a, b), (c, d) = policy, other
    return (a == c).all() and (b == d).all()


def _solve_on(grid, rhs, rel_tol=RESIDUAL_TOL):
    """Howard's loop on a solve's grid (``for_solve`` of either grid class)
    for the rhs at its rhs points, from the grid's ``first``, to rel_tol
    times the data scale and stopped as the module docstring says; the
    grid's field of the solution."""
    tol = rel_tol * sum((1.0, np.abs(rhs).max(initial=0.0), *grid.tol_terms))
    u = grid.first
    fu, policy = grid.apply(u)
    res = _misfit(fu, rhs)
    history = [res]
    while not res <= tol:                # a NaN residual never passes
        if len(history) > ITERATION_CAP:
            raise PolicyIterationDiverged(
                f"policy iteration did not reach tolerance {tol:.2e} in "
                f"{ITERATION_CAP} sweeps (last residual {res:.2e})", history)
        u = grid.step(policy, rhs)
        fu, new = grid.apply(u)
        res = _misfit(fu, rhs)
        history.append(res)
        if not res <= tol and _same(new, policy):
            raise PolicyIterationDiverged(
                f"policy iteration reached its fixed point at residual "
                f"{res:.2e} above tolerance {tol:.2e}; the round-off floor "
                f"k*eps*max(|A||u|) is {_rounding(grid, policy, u).max():.2e}",
                history)
        policy = new
    return grid.field(u, {**grid.meta, "residual": res})


def _rounding(grid, policy, u):
    """k eps sum_j |a_ij| |u_j| for every row i of the policy's system at u:
    the rounding of a row's k = len(grid.nbr) stencil terms (3 radial, 9 in
    2D), boundary terms included."""
    terms = np.abs(grid.system(policy)) * np.abs(u[grid.nbr]).T
    return len(grid.nbr) * np.finfo(float).eps * terms.sum(axis=1)


# ---------------------------------------------------------------------------
# the linear solve and problem data


class _HeldLU:
    """A grid's one-slot cache ``_held = (policy, solve)`` of the last sweep.
    On one grid the policy frozen for a sweep fixes its matrix.  A new policy
    is factorized once, by ``_factorize(system(policy))``, after the old
    factors are dropped; its repeats only solve with the held LU.  Each grid
    factorizes the transpose of the sweep's matrix and solves with
    ``trans="T"``: the radial grid its tridiagonal band by LAPACK's
    ``gttrf``/``gttrs``, the 2D grid its CSC matrix by SuperLU in symmetric
    mode, with diagonal pivots."""

    _held = (None, None)

    def _solve(self, policy, rhs):
        """The sweep's solution for a frozen policy, by the held solve rhs ->
        x that ``_factorize`` gave."""
        last = self._held[0]
        if last is None or not _same(policy, last):
            self._held = (None, None)
            self._held = (policy, self._factorize(self.system(policy)))
        return self._held[1](rhs)


def _data(problem, name, *coords):
    """The problem's ``name`` data, "rhs" or "boundary", at the points of the
    coordinate lists, as ``rhs_at`` or ``boundary_at`` gives it, in one float
    array (zeros for None); a value that is not finite raises ValueError."""
    fn = getattr(problem, name)
    if fn is None:
        return np.zeros(len(coords[0]))
    vals = np.fromiter(map(fn, *coords), dtype=float, count=len(coords[0]))
    if not np.isfinite(vals).all():
        k = np.isfinite(vals).argmin()
        raise ValueError(f"the {name} is {vals[k].item()} at "
                         f"{tuple(c[k] for c in coords)}; problem data must be finite")
    return vals


# ---------------------------------------------------------------------------
# domains and problems


@dataclass(frozen=True)
class Annulus:
    r0: float
    r1: float

    def __post_init__(self):
        if not 0 < self.r0 < self.r1 < math.inf:
            raise ValueError("annulus needs 0 < r0 < r1 < inf")

    def scaled(self, sigma):
        return Annulus(sigma * self.r0, sigma * self.r1)


@dataclass(frozen=True)
class Ball:
    r1: float

    def __post_init__(self):
        if not 0 < self.r1 < math.inf:
            raise ValueError("ball needs 0 < r1 < inf")

    def scaled(self, sigma):
        return Ball(sigma * self.r1)


@dataclass(frozen=True)
class Rectangle:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (-math.inf < self.x0 < self.x1 < math.inf
                and -math.inf < self.y0 < self.y1 < math.inf):
            raise ValueError("rectangle needs finite x0 < x1, y0 < y1")

    def scaled(self, sigma):
        return Rectangle(sigma * self.x0, sigma * self.x1,
                         sigma * self.y0, sigma * self.y1)

    def grid_step(self, cells):
        """The 2D grid step h with ``cells`` cells on the shorter side."""
        if cells < 2:
            raise ValueError("need at least 2 cells")
        return min(self.x1 - self.x0, self.y1 - self.y0) / cells


@dataclass(frozen=True)
class DirichletProblem:
    """F(D^2 u) = rhs in the domain, u = boundary on its boundary.

    rhs and boundary take a radius for radial domains and (x, y) for 2D,
    except the boundary of a 2D annulus, which takes the radius of the
    boundary circle nearest the node.  None means zero; any other value that
    is not callable (a constant, a Field2D) raises TypeError, and a solve
    raises ValueError at a value that is not finite.  A RadialField
    is callable and serves as a radial rhs.  ``exact`` is an optional oracle
    used by convergence studies only.  The domain alone fixes a radial grid:
    uniform in log r on an annulus, uniform in r on a ball.
    """

    domain: object
    n: int
    rhs: Optional[Callable] = None
    boundary: Optional[Callable] = None
    exact: Optional[Callable] = None

    def __post_init__(self):
        for name in ("rhs", "boundary", "exact"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                raise TypeError(f"DirichletProblem.{name} must be None or callable, "
                                f"got {type(value).__name__}")

    def rhs_at(self, *args):
        return 0.0 if self.rhs is None else float(self.rhs(*args))

    def boundary_at(self, *args):
        return 0.0 if self.boundary is None else float(self.boundary(*args))


@dataclass(frozen=True)
class _OnGrid(DirichletProblem):
    """The seed solve of ``principal_eigenvalue``: zero boundary data, the rhs
    an array at the rhs points of the grid, built once for the same solve
    arguments, that the eigen loop goes on to use.  It stops at SEED_TOL in
    place of RESIDUAL_TOL: it gives the loop only a positive start and a
    policy, which the loop's linear steps refine."""

    grid: object = None

    def __post_init__(self):
        pass                                # the rhs is an array, not a callable


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class RadialField:
    n: int
    nodes: np.ndarray       # strictly increasing radii, boundaries included
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes.shape != values.shape:
            raise ValueError("nodes/values shape mismatch")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, r):
        return np.interp(r, self.nodes, self.values)

    def to_csv(self) -> str:
        return _csv(self.meta, "r,u", self.nodes, self.values)


@dataclass(frozen=True)
class Field2D:
    h: float
    x0: float
    y0: float
    values: np.ndarray      # (nx, ny), NaN outside the computational domain
    interior: np.ndarray    # boolean mask of interior (solved) nodes
    meta: dict = field(default_factory=dict, compare=False)

    def xy(self, i, j):
        return self.x0 + i * self.h, self.y0 + j * self.h

    def interp(self, x, y):
        """Bilinear interpolation at a point or at arrays of points; points on
        the closed grid edge are allowed."""
        nx, ny = self.values.shape
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), y)
        gi, gj = (x - self.x0) / self.h, (y - self.y0) / self.h
        slack = 1e-9
        off = ~((-slack <= gi) & (gi <= nx - 1 + slack)
                & (-slack <= gj) & (gj <= ny - 1 + slack))
        if off.any():
            k = off.argmax()
            raise ValueError(f"point {(x.flat[k].item(), y.flat[k].item())} "
                             "lies outside the grid")
        i = np.clip(np.floor(gi).astype(np.intp), 0, nx - 2)
        j = np.clip(np.floor(gj).astype(np.intp), 0, ny - 2)
        fx, fy = gi - i, gj - j
        v = self.values
        return ((1 - fx) * (1 - fy) * v[i, j] + fx * (1 - fy) * v[i + 1, j]
                + (1 - fx) * fy * v[i, j + 1] + fx * fy * v[i + 1, j + 1])

    def to_csv(self) -> str:
        """One row per node in the domain (not NaN), in row-major order."""
        i, j = np.nonzero(~np.isnan(self.values))
        return _csv(self.meta, "x,y,u", *self.xy(i, j), self.values[i, j])


def _csv(meta, header, *columns):
    """A '# key=value ...' meta line, the header and one row per entry of the
    equal-length float columns, each value as its shortest round-trip repr."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())),
             header, *(",".join(map(repr, row)) for row in rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# radial kernel
#
# The domain fixes the grid: uniform in t = log r on an annulus, uniform in r
# on a ball, which needs its centre.  In log coordinates u'' = (U_tt - U_t)/r^2
# and u'/r = U_t/r^2, so the Hessian eigenvalue pattern at a node is
# diag(a, b, ..., b)/r^2 with a = D2 U - D1 U and b = D1 U.  On a ball
# a = D2 u, b = D1 u / r; at the centre the Hessian is u''(0) I by symmetry,
# and with the ghost value U[-1] = U[1] that is a = b = 2 (U[1] - U[0]) / h^2.


def _pattern_weights(f_op, n, a, b, controls):
    """Frozen-control coefficients (wa, wb) with F(diag(a, b, ..., b)) =
    -(wa*a + wb*b), at every node of the arrays a, b at once.

    ``controls`` is the (a11, s) table of ``control_table(f_op)`` for an
    Isaacs family (unread otherwise), whose policy ``_sup_inf`` picks.
    """
    if f_op.kind == LAPLACIAN:
        return np.ones_like(a), np.full_like(b, n - 1.0)
    if f_op.kind in (PUCCI_MAX, PUCCI_MIN):
        pos, neg = f_op.lam, f_op.Lam
        if f_op.kind == PUCCI_MIN:
            pos, neg = neg, pos
        return np.where(a > 0, pos, neg), (n - 1) * np.where(b > 0, pos, neg)
    a11, s = controls
    _, row, ctl = _sup_inf(-(a11_r[:, None] * a + s_r[:, None] * b)   # (controls, nodes)
                           for a11_r, s_r in zip(a11, s))
    return a11[row, ctl], s[row, ctl]


def _sup_inf(rows):
    """Sup over rows of the inf over controls, at every node at once.

    ``rows`` yields one (controls, nodes) array of values per sup-row.
    Returns the value and the chosen row and control per node.  Ties go to
    the first minimum within a row and to the first row that is strictly
    larger.
    """
    for r, vals in enumerate(rows):
        k = vals.argmin(axis=0)
        worst = vals[k, np.arange(k.size)]
        if r == 0:
            best, row, ctl = worst, np.zeros_like(k), k
        else:
            up = worst > best
            best[up], row[up], ctl[up] = worst[up], r, k[up]
    return best, row, ctl


def _check_radial_monotonicity(f_op, n, h):
    """Sufficient condition for the log-grid scheme of an annulus to be monotone.

    The first-derivative term couples neighbors with the opposite sign of the
    second difference; (H1) controls the net effect when
    lam*(1/h^2 + 1/(2h)) >= Lam*(n-1)/(2h) and h <= 2.
    """
    if h > 2.0:
        raise NonMonotoneScheme(f"log-grid step {h:.3g} > 2")
    if f_op.lam * (1.0 / h ** 2 + 1.0 / (2 * h)) < f_op.Lam * (n - 1) / (2 * h):
        raise NonMonotoneScheme(
            f"log-grid step {h:.3g} too coarse for ellipticity ratio "
            f"{f_op.Lam / f_op.lam:.3g} in dimension {n}"
        )


def _radial_grid(domain, cells):
    """The nodes r and step h of ``cells`` cells: uniform in log r on an
    annulus (h in log r), uniform in r on a ball."""
    if cells < 2:
        raise ValueError("need at least 2 cells")
    if isinstance(domain, Annulus):
        t = np.linspace(math.log(domain.r0), math.log(domain.r1), cells + 1)
        return np.exp(t), t[1] - t[0]
    if isinstance(domain, Ball):
        r = np.linspace(0.0, domain.r1, cells + 1)
        return r, r[1] - r[0]
    raise ValueError("radial solver needs an annulus or ball domain")


def _radial_rhs(problem, r):
    """f at the rhs points: on a ball the centre just off r = 0 (f may be
    singular), then the interior nodes; the order of F_h u, the policy and
    the unknowns."""
    pts = np.append(r[1] * 1e-8, r[1:-1]) if isinstance(problem.domain, Ball) else r[1:-1]
    return _data(problem, "rhs", pts.tolist())


class _RadialGrid(_HeldLU):
    """Radial nodes r, the Isaacs control table and the stencil table of r
    and the step h: all that ``apply`` needs.  ``for_solve`` adds the rest
    of the solve interface.  Row i of the table holds the coefficients of a
    (``stencil[0, :, i]``) and of b (``stencil[1, :, i]``) on the nodes
    ``nbr[:, i]``.  A ball's centre row comes first in it, as in F_h u, the
    policy, the rhs points and the unknowns, and reads (U0, U0, U1).

    A sweep's matrix is tridiagonal, its (unknowns, 3) band from ``system``.
    ``_factorize`` runs LAPACK's tridiagonal LU on its transpose, as SuperLU
    did on the CSC transpose, with no sparse matrix, order or cache.  The
    scheme's M-matrices make the transpose diagonally dominant by columns,
    so partial pivoting keeps the diagonal on an annulus; a ball's centre
    row starts a chain of ties, which rounding may break with a row swap.
    The LU of the band itself (``gtsv``, ``solve_banded``) rounds
    differently and left two accept solves at 512 cells over tolerance."""

    def __init__(self, f_op, n, r, h, is_ball):
        self.f_op, self.n, self.r = f_op, n, r
        self.controls = control_table(f_op)[1:] if f_op.kind == ISAACS else None
        ri = r[1:-1]
        if is_ball:
            ca, cb = np.full(ri.shape, 1.0 / h ** 2), 1.0 / (2.0 * h * ri)
            a = [ca, -2.0 * ca, ca]
        else:
            ca, cb = 1.0 / (ri ** 2 * h ** 2), 1.0 / (ri ** 2 * 2.0 * h)
            a = [ca + cb, -2.0 * ca, ca - cb]
        self.stencil = np.array([a, [-cb, 0.0 * cb, cb]])       # (2, 3, rows)
        self.nbr = np.arange(ri.size) + np.arange(3)[:, None]   # (3, rows)
        if is_ball:                          # the centre row first
            centre = [[0.0], [-2.0 / h ** 2], [2.0 / h ** 2]]
            self.stencil = np.concatenate([[centre, centre], self.stencil], axis=2)
            self.nbr = np.hstack([[[0], [0], [1]], self.nbr])
        self.unknown = slice(0 if is_ball else 1, -1)

    @classmethod
    def for_solve(cls, f_op, n, problem, cells):
        """A radial solve's grid after the solver's checks, with the first
        iterate, the matrix rows' factors and the solve interface."""
        if not f_op.rot_invariant:
            raise ValueError("radial solver needs a rotationally invariant operator")
        if n != f_op.dim:
            raise ValueError(f"n={n} does not match operator dim {f_op.dim}")
        if problem.n != n:
            raise ValueError(f"problem n={problem.n} does not match n={n}")
        if not 2 <= n <= 6:
            raise ValueError("radial solver supports 2 <= n <= 6")
        r, h = _radial_grid(problem.domain, cells)
        is_ball = isinstance(problem.domain, Ball)
        if not is_ball:
            _check_radial_monotonicity(f_op, n, h)
        grid = cls(f_op, n, r, h, is_ball)
        if is_ball:                          # unknowns: nodes 0..cells-1, centre first
            g1, = _data(problem, "boundary", r[-1:].tolist())
            grid.first, grid.tol_terms = np.full(cells + 1, g1), (abs(g1), 0.0)
        else:
            (g0, g1), t = _data(problem, "boundary", r[[0, -1]].tolist()), np.log(r)
            grid.first = g0 + (g1 - g0) * (t - t[0]) / (t[-1] - t[0])
            grid.tol_terms = (abs(g1), abs(g0))
        grid.meta = {"operator": f_op.kind, "n": n, "cells": cells,
                     "spacing": "linear" if is_ball else "log"}
        return grid

    @classmethod
    def for_field(cls, f_op, fld, domain):
        """The kernel grid of a RadialField on an annulus or ball ``domain``,
        whose nodes must be the solver's for the field's cells (to 1e-12).
        Its stencil table is built from the field's nodes and the solver's
        step h (from its linspace, not from the nodes): on a solve's own field
        it is the solve's table."""
        nodes, h = _radial_grid(domain, len(fld.nodes) - 1)
        if not np.allclose(fld.nodes, nodes, rtol=1e-12, atol=0.0):
            raise ValueError(f"field nodes are not the {len(nodes) - 1}-cell grid "
                             f"of the {type(domain).__name__.lower()}")
        return cls(f_op, fld.n, fld.nodes, h, isinstance(domain, Ball))

    def apply(self, u):
        """F_h u at a ball's centre and the interior nodes, and the policy (wa, wb)."""
        a, b = (self.stencil * u[self.nbr]).sum(axis=1)
        wa, wb = _pattern_weights(self.f_op, self.n, a, b, self.controls)
        return -(wa * a + wb * b), (wa, wb)

    def step(self, policy, rhs):
        # only the first row's first column and the last row's last one reach
        # the boundary nodes of ``first`` (a ball's centre row has 0 there)
        (wa, wb), (a, b), u = policy, self.stencil, self.first
        rvec = rhs + 0.0                     # + 0.0 maps -0.0 to 0.0
        rvec[0] += (wa[0] * a[0, 0] + wb[0] * b[0, 0]) * u[0]
        rvec[-1] += (wa[-1] * a[2, -1] + wb[-1] * b[2, -1]) * u[-1]
        out = u.copy()
        out[self.unknown] = self._solve(policy, rvec)
        return out

    def _factorize(self, band):
        """The solve rhs -> x of the band's matrix: ``gttrf`` factorizes its
        transpose, whose sub-diagonal is the band's super-diagonal, and
        ``gttrs`` solves with trans="T".  scipy's ``gttrf`` takes 3 unknowns
        or more, so a smaller system gets identity rows after its own.  A
        zero pivot raises RuntimeError, where ``gttrs`` would give inf or NaN."""
        from scipy.linalg import lapack

        nun, pad = len(band), max(3 - len(band), 0)
        if pad:
            band = np.vstack([band, np.tile((0.0, 1.0, 0.0), (pad, 1))])
            band[nun - 1, 2] = 0.0           # the last row's boundary term
        *lu, info = lapack.dgttrf(band[:-1, 2], band[:, 1], band[1:, 0])
        if info > 0:
            raise RuntimeError(f"tridiagonal factor is exactly singular: pivot "
                               f"{info} of {nun} is zero")
        return lambda rhs: lapack.dgttrs(*lu, np.append(rhs, np.zeros(pad)) if pad
                                         else rhs, trans="T")[0][:nun]

    def field(self, u, meta):
        # no RadialField checks of the grid's own nodes; u, which it may hold, is copied
        fld = object.__new__(RadialField)
        fld.__dict__.update(n=self.n, nodes=self.r, values=u.copy(), meta=meta)
        return fld

    def system(self, policy):
        """The (rows, 3) band of a sweep with weights (wa, wb): row k is on
        unknowns k-1, k, k+1 (a ball's centre first)."""
        return -(policy[0] * self.stencil[0] + policy[1] * self.stencil[1]).T


def solve_dirichlet_radial(f_op: EllipticOperator, n: int,
                           problem: DirichletProblem, cells: int) -> RadialField:
    """Solve F(D^2 u) = f(r) on a radial annulus or ball.

    Deterministic for fixed inputs; returns when the interior residual
    sup-norm is below 1e-10 relative to the data scale.
    """
    if isinstance(problem, _OnGrid):
        return _solve_on(problem.grid, problem.rhs, SEED_TOL)
    grid = _RadialGrid.for_solve(f_op, n, problem, cells)
    return _solve_on(grid, _radial_rhs(problem, grid.r))


def residual_norm(f_op: EllipticOperator, fld, problem: DirichletProblem) -> float:
    """Sup-norm of the discrete residual F(D^2_h u) - f at interior nodes."""
    if isinstance(fld, RadialField):
        grid = _RadialGrid.for_field(f_op, fld, problem.domain)
        u, rhs = fld.values, _radial_rhs(problem, fld.nodes)
    elif isinstance(fld, Field2D):
        grid = _Grid2D(h=fld.h, x0=fld.x0, y0=fld.y0, interior=fld.interior,
                       coef=_stencil_coefficients(_control_families(f_op), fld.h))
        u, rhs = fld.values.ravel(), grid.rhs(problem)
    else:
        raise TypeError("unknown field type")
    return _misfit(grid.apply(u)[0], rhs)


def convergence_order(f_op: EllipticOperator, problem: DirichletProblem,
                      cell_counts) -> object:
    """Least-squares slope of log(error) vs log(h) against problem.exact.

    Returns the float order, or the string 'exact' when every error is
    below 1e-12.
    """
    if problem.exact is None:
        raise ValueError("problem must carry an exact solution oracle")
    if len(cell_counts) < 3:
        raise ValueError("need at least 3 grid levels")
    errs = []
    for cells in cell_counts:
        if isinstance(problem.domain, Rectangle):
            fld = solve_dirichlet_2d(f_op, problem, problem.domain.grid_step(cells))
            exact = _at_nodes(problem, "exact", np.ones(fld.values.shape, bool),
                              fld.x0, fld.y0, fld.h)
        else:
            fld = solve_dirichlet_radial(f_op, problem.n, problem, cells)
            exact = _data(problem, "exact", fld.nodes.tolist())
        errs.append(np.abs(fld.values.ravel() - exact).max())
    errs = np.asarray(errs)
    if np.all(errs < 1e-12):
        return "exact"
    hs = [1.0 / cells for cells in cell_counts]
    return float(np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0])


# ---------------------------------------------------------------------------
# 2D kernel


def _control_families(f_op):
    """The (rows, controls, 2, 2) sup-inf control family realizing F on 2D grids.

    Pucci kinds are approximated by rotated extremal diagonal controls; the
    approximation is exact whenever the discrete Hessian's eigenframe hits a
    sampled angle (in particular for axis-aligned data).
    """
    if f_op.dim != 2:
        raise ValueError("2D solver needs a 2-dimensional operator")
    if f_op.kind == LAPLACIAN:
        return np.eye(2)[None, None]
    if f_op.kind == ISAACS:
        return control_table(f_op)[0]
    lam, Lam = f_op.lam, f_op.Lam
    th = [k * math.pi / (2 * _PUCCI_ANGLES) for k in range(_PUCCI_ANGLES)]
    c, s = (np.array([f(t) for t in th]) for f in (math.cos, math.sin))
    rot = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)[:, None]  # (angles, 1, 2, 2)
    w = np.array([(lam, lam), (lam, Lam), (Lam, lam), (Lam, Lam)])
    mats = rot @ (w[:, :, None] * np.eye(2)) @ rot.swapaxes(2, 3)
    # lam*I and Lam*I are rotation-invariant: keep them at angle 0 only
    mats = np.concatenate([mats[0], mats[1:, w[:, 0] != w[:, 1]].reshape(-1, 2, 2)])
    if f_op.kind == PUCCI_MAX:
        return mats[:, None]                 # sup over singleton-inf rows
    return mats[None]                        # single sup row, inf inside


def _check_stencil_monotone(fams):
    """Raise NonMonotoneScheme naming the first control (i,j) of the family
    array that is not diagonally dominant."""
    a11, a12, a22 = fams[..., 0, 0], fams[..., 0, 1], fams[..., 1, 1]
    m = np.abs(a12) - 1e-12
    bad = (a11 < m) | (a22 < m)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise NonMonotoneScheme(
            f"control matrix ({i},{j}) = [[{a11[i, j]:.4g},{a12[i, j]:.4g}],"
            f"[{a12[i, j]:.4g},{a22[i, j]:.4g}]] violates diagonal dominance; "
            "anisotropy too strong for the 9-point stencil")


# neighbor offsets (di, dj) of the 9-point stencil; every (..., 9) array below
# is in this order
_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0))


def _stencil_coefficients(fams, h):
    """(rows, controls, 9) coefficients of -tr(A D^2 .) for every control A of
    the (rows, controls, 2, 2) family array."""
    a12 = fams[..., 0, 1, None]
    m, h2 = np.abs(a12), h * h
    # the axis arms take a11 or a22; the diagonal pair along the sign of a12
    # takes -m/h^2, the other pair 0
    arms = np.concatenate(
        [-(fams[..., [0, 0, 1, 1], [0, 0, 1, 1]] - m) / h2,
         np.where((a12 >= 0) == [True, True, False, False], -m / h2, 0.0)], axis=-1)
    # the centre sums the arms left to right
    return np.concatenate([arms, -np.add.accumulate(arms, axis=-1)[..., -1:]], axis=-1)


def _evaluate_2d(coef, u9):
    """F_h u = sup over rows of inf over controls, at every node at once.

    ``u9`` is the (9, nodes) array of neighbor values.  Returns F_h u and the
    chosen row and control per node, as ``_sup_inf`` picks them.
    """
    return _sup_inf(block @ u9 for block in coef)


def _window(mask):
    """The 9 shifted views mask[i + di, j + dj] over the inner nodes."""
    nx, ny = mask.shape
    return [mask[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj] for di, dj in _OFFSETS]


def _at_nodes(problem, name, mask, x0, y0, h):
    """The problem's ``name`` data at every node of ``mask``, row-major (see _data)."""
    i, j = np.nonzero(mask)
    return _data(problem, name, (x0 + i * h).tolist(), (y0 + j * h).tolist())


@dataclass
class _Grid2D(_HeldLU):
    h: float
    x0: float
    y0: float
    interior: np.ndarray                 # bool (nx, ny)
    boundary_values: Optional[np.ndarray] = None  # NaN where not boundary
    coef: Optional[np.ndarray] = None    # (rows, controls, 9), see _stencil_coefficients

    def __post_init__(self):
        nx, ny = self.interior.shape
        if self.interior[[0, -1], :].any() or self.interior[:, [0, -1]].any():
            raise ValueError("interior nodes need all 8 neighbors on the grid")
        self.nodes = np.flatnonzero(self.interior)          # row-major order
        step = np.array([di * ny + dj for di, dj in _OFFSETS])
        self.nbr = self.nodes + step[:, None]                # (9, nodes)
        unknown = np.full(nx * ny, -1)
        unknown[self.nodes] = np.arange(self.nodes.size)
        self.col = unknown[self.nbr.T]       # (nodes, 9), -1 marks a boundary node
        self.by_index = np.argsort(step)     # the 9 offsets in flat-index order

    @classmethod
    def build(cls, problem, h):
        if not 0 < h < math.inf:
            raise ValueError(f"h must be finite and positive, got {h!r}")
        dom = problem.domain
        if isinstance(dom, Rectangle):
            for name, side in (("x", dom.x1 - dom.x0), ("y", dom.y1 - dom.y0)):
                cells = side / h
                if abs(cells - round(cells)) > 1e-9 * cells:
                    raise ValueError(
                        f"h={h!r} does not divide the rectangle's {name} side "
                        f"{side!r}")
            nx = int(round((dom.x1 - dom.x0) / h)) + 1
            ny = int(round((dom.y1 - dom.y0) / h)) + 1
            x0, y0 = dom.x0, dom.y0
            interior = np.zeros((nx, ny), dtype=bool)
            interior[1:-1, 1:-1] = True
            bvals = np.full((nx, ny), np.nan)
            bvals[~interior] = _at_nodes(problem, "boundary", ~interior, x0, y0, h)
        elif isinstance(dom, Annulus):
            half = int(math.ceil(dom.r1 / h)) + 2
            x0 = y0 = -half * h
            c = x0 + np.arange(2 * half + 1) * h
            rad = np.hypot(c[:, None], c[None, :])
            inside = (rad > dom.r0) & (rad < dom.r1)
            # interior nodes need the full 9-point neighborhood inside
            interior = np.pad(np.logical_and.reduce(_window(inside)), 1)
            ring = np.logical_or.reduce(_window(np.pad(interior, 1))) & ~interior
            # project to the nearest circle of the annulus boundary
            rb = np.where(np.abs(rad - dom.r0) < np.abs(rad - dom.r1), dom.r0, dom.r1)
            bvals = np.full(interior.shape, np.nan)
            bvals[ring] = _data(problem, "boundary", rb[ring].tolist())
        else:
            raise ValueError("2D solver needs a rectangle or annulus domain")
        return cls(h=h, x0=x0, y0=y0, interior=interior, boundary_values=bvals)

    @classmethod
    def for_solve(cls, f_op, problem, h):
        """``build`` after the family check, with the stencil coefficients, the
        stencils' boundary terms and the solve interface."""
        fams = _control_families(f_op)
        _check_stencil_monotone(fams)
        if problem.n != 2:
            raise ValueError(f"2D solver needs problem n=2, got n={problem.n}")
        grid = cls.build(problem, h)
        if grid.nodes.size == 0:
            raise ValueError("no interior nodes at this resolution")
        grid.coef = _stencil_coefficients(fams, h)
        bvals = grid.boundary_values
        bscale = np.nanmax(np.abs(bvals), initial=0.0)
        # flat grid values; boundary nodes hold their data, others 0
        grid.first = np.where(np.isnan(bvals), 0.0, bvals).ravel()
        if bscale > 0:
            grid.first[grid.nodes] = float(np.nanmean(bvals))
        # the rows next to the boundary and their stencils' boundary values
        grid.brows = np.flatnonzero((grid.col < 0).any(axis=1))
        grid.bterms = np.where(grid.col < 0, grid.first[grid.nbr.T], 0.0)[grid.brows]
        grid.unknown, grid.tol_terms = grid.nodes, (bscale,)
        grid.meta = {"operator": f_op.kind, "h": h}
        return grid

    def rhs(self, problem):
        """f at the interior nodes."""
        return _at_nodes(problem, "rhs", self.interior, self.x0, self.y0, self.h)

    def apply(self, u):
        """F_h u at the interior nodes and the policy (row, control) per node."""
        fu, row, ctl = _evaluate_2d(self.coef, u[self.nbr])
        return fu, (row, ctl)

    def step(self, policy, rhs):
        rows = self.brows                    # only they take boundary data
        rvec = rhs.copy()
        rvec[rows] -= (self.coef[policy[0][rows], policy[1][rows]]
                       * self.bterms).sum(axis=1)
        out = self.first.copy()
        out[self.unknown] = self._solve(policy, rvec)
        return out

    def system(self, policy):
        return self.coef[policy]             # the sweep's (nodes, 9) coefficient rows

    def _factorize(self, sel):
        """The solve rhs -> x of the sweep's matrix with coefficient rows
        ``sel``, factorized transposed in CSC (each column the unknowns'
        entries of a row in index order) by SuperLU in its symmetric mode:
        the minimum degree order of A^T + A, the diagonal as pivot, one-column
        panels and supernodes.  A^T of the scheme's M-matrix is diagonally
        dominant by columns, so elimination needs no interchange (Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 9); a pivot off
        the diagonal (perm_r != perm_c) raises RuntimeError."""
        import scipy.sparse as sparse
        import scipy.sparse.linalg as spla

        sel, col = sel[:, self.by_index], self.col[:, self.by_index]
        keep = (col >= 0) & (sel != 0.0)
        nun = self.nodes.size
        indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
        lu = spla.splu(sparse.csc_matrix((sel[keep], col[keep], indptr), shape=(nun, nun)),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
                       panel_size=1, options=dict(SymmetricMode=True))
        off = np.flatnonzero(lu.perm_r != lu.perm_c)
        if off.size:
            k = off[0]
            raise RuntimeError(f"SuperLU pivoted off the diagonal: unknown {k} of "
                               f"{nun} has row position {lu.perm_r[k]} but column "
                               f"position {lu.perm_c[k]}")
        return lambda rhs: lu.solve(rhs, trans="T")

    def field(self, u, meta):
        values = np.where(self.interior, u.reshape(self.interior.shape),
                          self.boundary_values)
        return Field2D(h=self.h, x0=self.x0, y0=self.y0, values=values,
                       interior=self.interior, meta=meta)


def solve_dirichlet_2d(f_op: EllipticOperator, problem: DirichletProblem,
                       h: float) -> Field2D:
    """Solve F(D^2 u) = f on a 2D rectangle or annulus, 9-point stencil.

    Every control matrix is checked for diagonal dominance before assembly;
    a violating matrix raises NonMonotoneScheme naming it.
    """
    if isinstance(problem, _OnGrid):
        return _solve_on(problem.grid, problem.rhs, SEED_TOL)
    grid = _Grid2D.for_solve(f_op, problem, h)
    return _solve_on(grid, grid.rhs(problem))


# ---------------------------------------------------------------------------
# fundamental profile


@dataclass(frozen=True)
class FundamentalProfile:
    """``fitted_alpha`` is signed, and 0.0 exactly when ``log_case``."""
    field: object
    fitted_alpha: float
    log_case: bool
    fit_report: dict


def _sphere_samples(fld, sig):
    """The field at 128 points of each sphere of radius sig, (spheres, samples):
    one per sphere, linear in log r (exact on a log profile), from a radial
    field, and NaN off its domain from a 2D one."""
    if isinstance(fld, RadialField):
        return np.interp(np.log(sig), np.log(fld.nodes), fld.values)[:, None]
    th = np.linspace(0, 2 * math.pi, 128, endpoint=False).tolist()
    cos, sin = (np.array([f(t) for t in th]) for f in (math.cos, math.sin))
    return fld.interp(sig[:, None] * cos, sig[:, None] * sin)


def _line_fit(x, m):
    """Least squares m ~ c0 x + c1 in closed form: ((c0, c1), rms residual),
    from centered sums, with the residual vector formed explicitly so that
    the rms loses no digits to cancellation."""
    xbar, mbar = x.sum() / x.size, m.sum() / m.size     # np.mean, less its overhead
    xc, mc = x - xbar, m - mbar
    c0 = xc @ mc / (xc @ xc)
    r = mc - c0 * xc
    return (c0, mbar - c0 * xbar), math.sqrt((r * r).sum() / r.size)


def _slope_fit(sig, m):
    """(a, rms) of m ~ A s^-a + B on ``sig``: a is minus the slope of log|d|
    against log s, d(s) = m(s) - m(sqrt(2) s) = A (1 - 2^(-a/2)) s^-a with
    sqrt(2) s 8 samples on, and 0 on a log profile; a d that flips sign raises."""
    d = m[:-8] - m[8:]
    flip = np.flatnonzero(np.sign(d) * np.sign(d[0]) <= 0)
    if flip.size:
        raise ValueError(f"m(s) - m(sqrt(2) s) changes sign at s = {sig[flip[0]]:.6g}; "
                         "on A s^-a + B it keeps one sign")
    (slope, _), rms = _line_fit(np.log(sig[:-8]), np.log(np.abs(d)))
    return -float(slope), rms


def fundamental_profile(f_op: EllipticOperator, n: int,
                        cells: int = 512) -> FundamentalProfile:
    """Estimate the scaling exponent from a numerical fundamental solution.

    Solves F(D^2 u) = 0 on annulus(1, 16), boundary 1 inside and 0 outside,
    and fits the sphere minima m(s), s in [2, 8], to A s^-a + B: the signed
    ``fitted_alpha``, 0.0 with ``log_case`` when |a| < LOG_CASE_THRESHOLD (the
    tie rule of ``alpha_star``).  In 2D a fit of the maxima too bounds the
    exponent as an interval, ``alpha_min_fit`` to ``alpha_max_fit`` in
    ``fit_report``, with the min fit's ``slope_rms``, ``bracket`` and
    ``sigma_window``; the 2D error is first order in the grid step.

    Radially, with h = log(16)/cells and |alpha*| h <= 1, |fitted_alpha -
    alpha*| <= |alpha*| (1 + alpha*^2) h^2/6 + 1e-10: the scheme's exponent is
    (2/h) artanh(alpha* h/2) = alpha* + alpha*^3 h^2/12 + O(h^4), and log-r
    interpolation adds at most about |alpha*| h^2/10 (n = 2..6 Laplacian and
    Pucci, Lambda/lambda <= 5.5, 16-4096 cells: within 0.78 of the bound).
    A radial grid with |alpha*| h > 1 raises ValueError naming the fewest
    cells that pass, ceil(|alpha*| log 16): the scheme's exponent has its pole
    at alpha* h = 2, and past the bound the fit drifts far off with no sign.
    """
    if cells < 2:
        raise ValueError("need at least 2 cells")
    if f_op.rot_invariant:
        a = alpha_star(f_op, n).alpha_star
        if abs(a) * math.log(16.0) > cells:
            raise ValueError(f"{cells} cells are too coarse for alpha* = {a:.6g}: "
                             f"the fit needs |alpha*| log(16)/cells <= 1, so at least "
                             f"{math.ceil(abs(a) * math.log(16.0))} cells")
    problem = DirichletProblem(
        domain=Annulus(1.0, 16.0), n=n,
        boundary=lambda r: 1.0 if abs(r - 1.0) < abs(r - 16.0) else 0.0)
    if not f_op.rot_invariant and (n != 2 or f_op.dim != 2):
        raise ValueError("grid path only available for n = 2")
    fld = (solve_dirichlet_radial(f_op, n, problem, cells) if f_op.rot_invariant
           else solve_dirichlet_2d(f_op, problem, h=16.0 / (cells / 4)))

    sig = np.geomspace(2.0, 8.0, 33)
    vals = _sphere_samples(fld, sig)
    off = int(np.isnan(vals).sum())
    if off:
        raise ValueError(f"{off} of the {vals.size} sphere samples fell off the "
                         "grid; a fit needs whole spheres, so use more cells")
    mins, maxs = vals.min(axis=1), vals.max(axis=1)
    alpha_min, rms = _slope_fit(sig, mins)
    log_case = abs(alpha_min) < LOG_CASE_THRESHOLD
    alpha_max = alpha_min if np.array_equal(maxs, mins) else _slope_fit(sig, maxs)[0]
    report = {"slope_rms": rms, "alpha_min_fit": alpha_min, "alpha_max_fit": alpha_max,
              "bracket": alpha_bracket(f_op, n), "sigma_window": (2.0, 8.0)}
    return FundamentalProfile(field=fld, fitted_alpha=0.0 if log_case else alpha_min,
                              log_case=log_case, fit_report=report)
