"""Monotone finite-difference solvers for F(D^2 u) = f with Dirichlet data.

Both public solvers build a grid (``_RadialGrid.for_solve`` or
``_Grid2D.for_solve``), read the rhs at its rhs points and call ``_solve_on``,
the one driver: it alone sets the tolerance (1e-10 times the data scale, or
SEED_TOL for an eigen seed) and runs Howard's policy iteration, ``_howard``.
Both grids offer it the same interface: the first iterate ``first`` with the
boundary data in place, the index ``unknown`` of its unknowns, the boundary
data terms ``tol_terms`` of the tolerance, ``h_min``, the base ``meta``, and
three methods.
``apply(u)`` gives F_h u at the rhs points and the policy (the controls
chosen at every node); ``step(policy, u, rhs)`` solves the linear system
with that policy frozen, reading only u's boundary data; ``field(u, meta)``
gives the RadialField or Field2D.  ``apply`` is each grid's one kernel: the
stopping residual, ``residual_norm`` and every sweep's policy come from it.

The loop succeeds once the residual sup-norm is at most the tolerance.  An
iterate that selects the very policy that produced it is the scheme's fixed
point: the same policy gives the same system and the same iterate again.  A
residual still above tolerance there is round-off, and the solve raises
PolicyIterationDiverged at once, naming the floor 4 eps |u| / h_min^2.  No
step is damped; ITERATION_CAP only stops a sup-inf family whose policies
cycle.

Radial path: any dimension n <= 6, annuli and balls.  The domain fixes the
grid: uniform in log r on an annulus, uniform in r on a ball, whose centre
comes first in F_h u, the policy and the unknowns.  At every node the
discrete Hessian has the eigenvalue pattern diag(a, b, ..., b), and a frozen
control reduces F to -(wa*a + wb*b).  ``_pattern_weights`` picks the policy
(wa, wb) at a ball's centre and all interior nodes at once: closed-form sign
tests for the Laplacian and Pucci kinds, a loop over sup-rows of the
(a11, tr A - a11) control table for Isaacs families.  A step solves the
tridiagonal system (the centre row first on a ball) from its (unknowns, 3)
band; see ``_RadialGrid`` for the skeleton its factorizations share.

2D path: rectangles and annuli on a uniform Cartesian grid.  F is a sup over
rows of an inf over the controls A of one (rows, controls, 2, 2) array, each
discretized by the 9-point stencil of -tr(A D^2 u); the diagonal dominance
check and the (rows, controls, 9) coefficients are array expressions.
``_evaluate_2d`` takes the (9, nodes) neighbor values of every interior node
and returns F_h u with the policy (row, control) per node, looping over rows
only.  A step's matrix is built transposed, in CSC, from the chosen
coefficient rows and factorized in SuperLU's COLAMD order for its sparsity
pattern; only the rows next to the boundary add boundary data to a step's rhs.

Problem data are None (zero) or callables, else ``DirichletProblem`` raises
TypeError; they are called once per node, in node order, into one array.  A
grid is built once per solve, or once per ``principal_eigenvalue``, whose
seed solve hands it over in an ``_OnGrid`` problem with the rhs as an array;
every solve starts from the grid's ``first``.  ``_HeldLU`` keeps its last
sweep's policy with the LU of its ``system(policy)``, factorized once per new
policy; the eigen loop's linear steps solve with it too.  COLAMD reads a
matrix's sparsity pattern alone, so one cache, ``_SKELETONS``, holds its
order per pattern for both grids; a later matrix of a held pattern is built
in that order and factorized in its natural order, with the bits of
SuperLU's own COLAMD run.  A radial skeleton permutes rows and columns alike,
which keeps SuperLU's preferred pivot on the diagonal of the tridiagonal
bands' ties; a 2D matrix permutes its columns only, since moving its rows too
moved solutions in the last bits, and checks its pivots.

``fundamental_profile`` samples a solution at 128 points on each of 33
spheres of radius s in [2, 8] in one pass (a sample off a 2D grid's domain
raises) and fits A s^-a + B to the min and the max profile by
``_brent_min``, a bounded Brent search over a that takes scipy's steps, each
one a closed-form least-squares line in s^-a; a max profile equal to the min
one (always so when radial) reuses the min fit.  log_case: the line
A + B log s fits as well (to 1e-9) or a < 0.05.

scipy is imported where a sparse matrix is first built or factorized, so
importing this module, and every call that builds no sparse matrix, loads none
of it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .matcore import (
    ISAACS, LAPLACIAN, PUCCI_MAX, PUCCI_MIN, EllipticOperator, control_table,
)
from .scaling import alpha_bracket

RESIDUAL_TOL = 1e-10
SEED_TOL = 1e-5                         # RESIDUAL_TOL of an ``_OnGrid`` solve
ITERATION_CAP = 200


class PolicyIterationDiverged(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class NonMonotoneScheme(ValueError):
    pass


# ---------------------------------------------------------------------------
# Howard policy iteration


def _howard(apply, solve, u, rhs, tol, h_min):
    """Policy iteration from the iterate u, stopped as the module docstring
    says (h_min is the grid's smallest step); returns the solution and its
    residual.  ``apply(u)`` gives F_h u and the policy at u, ``solve(policy)``
    the iterate with that policy frozen."""
    fu, policy = apply(u)
    res = _misfit(fu, rhs)
    history = [res]
    while not res <= tol:                # a NaN residual never passes
        if len(history) > ITERATION_CAP:
            raise PolicyIterationDiverged(
                f"policy iteration did not reach tolerance {tol:.2e} in "
                f"{ITERATION_CAP} sweeps (last residual {res:.2e})", history)
        u = solve(policy)
        fu, new = apply(u)
        res = _misfit(fu, rhs)
        history.append(res)
        if not res <= tol and _same(new, policy):
            floor = 4.0 * np.finfo(float).eps * np.abs(u).max() / h_min ** 2
            raise PolicyIterationDiverged(
                f"policy iteration reached its fixed point at residual "
                f"{res:.2e} above tolerance {tol:.2e}; the round-off floor "
                f"4*eps*|u|/h_min^2 is {floor:.2e}", history)
        policy = new
    return u, res


def _misfit(fu, rhs):
    """Sup-norm of F_h u - f at a grid's rhs points."""
    return float(np.abs(fu - rhs).max(initial=0.0))


def _same(policy, other):
    """Whether two policies, pairs of like-shaped arrays, are equal."""
    (a, b), (c, d) = policy, other
    return (a == c).all() and (b == d).all()


def _solve_on(grid, rhs, rel_tol=RESIDUAL_TOL):
    """Howard's loop on a solve's grid (``for_solve`` of either grid class) for
    the rhs at its rhs points, from the grid's ``first``, to rel_tol times the
    data scale; the grid's field of the solution."""
    tol = rel_tol * sum((1.0, np.abs(rhs).max(initial=0.0), *grid.tol_terms))
    # a step reads only the boundary data of the iterate it is given: those of
    # ``first``, which every iterate on the grid keeps
    u, res = _howard(grid.apply, lambda policy: grid.step(policy, grid.first, rhs),
                     grid.first, rhs, tol, grid.h_min)
    return grid.field(u, {**grid.meta, "residual": res})


# ---------------------------------------------------------------------------
# the linear solve and problem data


class _HeldLU:
    """A grid's one-slot cache ``_held = (policy, factors)`` of the last sweep.
    On one grid the policy frozen for a sweep fixes its matrix.  A new policy
    is factorized once, by ``_factorize(system(policy))``, after the old
    factors are dropped; its repeats only solve with the held LU.  Each grid
    factorizes the transpose of the sweep's matrix and solves with
    ``trans="T"``: the triangular solves spsolve runs on the matrix in CSR, so
    the bits are spsolve's.  A factorization of a sparsity pattern held in
    ``_SKELETONS`` skips COLAMD: the radial grid fills its skeleton, rows and
    columns in the held order, and the 2D grid orders its columns alone."""

    _held = (None, None)

    def _solve(self, policy, rhs):
        """The sweep's solution for a frozen policy.  ``_factorize`` gives (LU,
        order, perm_c): the LU solves for the rhs in that order and gives the
        solution in the order perm_c."""
        last = self._held[0]
        if last is None or not _same(policy, last):
            self._held = (None, None)
            self._held = (policy, self._factorize(self.system(policy)))
        lu, order, perm_c = self._held[1]
        return lu.solve(rhs[order], trans="T")[perm_c]


def _data(fn, *coords):
    """fn at the points of the coordinate lists, as the problem's ``rhs_at``
    or ``boundary_at`` gives it, in one float array (zeros for fn None)."""
    if fn is None:
        return np.zeros(len(coords[0]))
    return np.fromiter(map(fn, *coords), dtype=float, count=len(coords[0]))


# ---------------------------------------------------------------------------
# domains and problems


@dataclass(frozen=True)
class Annulus:
    r0: float
    r1: float

    def __post_init__(self):
        if not (0 < self.r0 < self.r1):
            raise ValueError("annulus needs 0 < r0 < r1")

    def scaled(self, sigma):
        return Annulus(sigma * self.r0, sigma * self.r1)


@dataclass(frozen=True)
class Ball:
    r1: float

    def __post_init__(self):
        if self.r1 <= 0:
            raise ValueError("ball needs r1 > 0")

    def scaled(self, sigma):
        return Ball(sigma * self.r1)


@dataclass(frozen=True)
class Rectangle:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle needs x0 < x1, y0 < y1")

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
    is not callable (a constant, a Field2D) raises TypeError.  A RadialField
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
# a = D2 u, b = D1 u / r.


def _radial_entries(u, h, r, is_ball):
    """Pattern entries (a, b) at the interior nodes, a ball's centre first.

    At the centre the Hessian is u''(0) I by symmetry; with the ghost value
    U[-1] = U[1] that is a = b = 2 (U[1] - U[0]) / h^2.
    """
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    d1 = (u[2:] - u[:-2]) / (2.0 * h)
    ri = r[1:-1]
    if not is_ball:
        return (d2 - d1) / ri ** 2, d1 / ri ** 2
    a0 = 2.0 * (u[1] - u[0]) / h ** 2
    return np.concatenate(([a0], d2)), np.concatenate(([a0], d1 / ri))


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
    return _data(problem.rhs, pts.tolist())


# SuperLU's COLAMD orders per sparsity pattern, one cache for both grids (see
# the module docstring): a radial entry, keyed by its number of unknowns, holds
# the read-only arrays of ``_skeleton``; a 2D one, keyed by a digest of its
# pattern, holds ``(order,)`` (see ``_Grid2D._factorize``).  No values, no LU.
_SKELETONS = {}
_SKELETON_CAP = 32                      # patterns held; the oldest goes first


def _remember(key, arrays):
    """Hold the tuple ``arrays``, made read-only, as the newest entry ``key``
    of ``_SKELETONS``, dropping the oldest entries past the cap."""
    for a in arrays:
        a.setflags(write=False)
    _SKELETONS.pop(key, None)
    while len(_SKELETONS) >= _SKELETON_CAP:
        del _SKELETONS[next(iter(_SKELETONS))]
    _SKELETONS[key] = arrays


def _skeleton(nun, perm_c):
    """Remember, for SuperLU's COLAMD order perm_c of the transposed matrix B
    of nun unknowns (B Pc = B[:, order]), ``(order, perm_c, take, indices,
    indptr)``: the gather index from ``band.ravel()`` into the CSC skeleton
    B[order][:, order] and that skeleton's int32 index arrays."""
    order = np.argsort(perm_c)
    # the positions of the matrix entries in band.ravel() stand in for values
    pos = _RadialGrid.matrix(np.arange(3.0 * nun).reshape(nun, 3))
    skel = pos.T.tocsc()[order][:, order].tocsc()
    skel.sort_indices()
    _remember(nun, (order, perm_c.copy(), skel.data.astype(np.intp),
                    skel.indices.astype(np.int32), skel.indptr.astype(np.int32)))


class _RadialGrid(_HeldLU):
    """Radial nodes r with step h, whether the domain is a ball, and the
    Isaacs control table: all that ``apply`` needs.  ``for_solve`` adds the
    rest of the solve interface.  A ball's centre comes first in F_h u, the
    policy, the rhs points and the unknowns alike.

    The first factorization at a number of unknowns is SuperLU's own, with
    COLAMD, on ``matrix(band)``; it gives ``_SKELETONS`` that size's order.
    Every later one fills the grid's one CSC skeleton with the band by one
    ``np.take`` and factorizes it in its natural order, without assembly,
    COLAMD or a transpose.  The skeleton's rows follow the order as its
    columns do, so the diagonal SuperLU prefers as pivot stays the matrix
    diagonal: on the scheme's M-matrices the bits are those of
    ``spsolve(matrix(band), rhs)``."""

    _skel = None                        # the grid's CSC skeleton, made on first use

    def __init__(self, f_op, n, r, h, is_ball):
        self.f_op, self.n, self.r, self.h, self.is_ball = f_op, n, r, h, is_ball
        self.controls = control_table(f_op)[1:] if f_op.kind == ISAACS else None

    @classmethod
    def for_solve(cls, f_op, n, problem, cells):
        """A radial solve's grid after the solver's checks, with the first
        iterate, the matrix rows' factors and the solve interface."""
        if not f_op.rot_invariant:
            raise ValueError("radial solver needs a rotationally invariant operator")
        if n != f_op.dim:
            raise ValueError(f"n={n} does not match operator dim {f_op.dim}")
        if not 2 <= n <= 6:
            raise ValueError("radial solver supports 2 <= n <= 6")
        r, h = _radial_grid(problem.domain, cells)
        is_ball = isinstance(problem.domain, Ball)
        if not is_ball:
            _check_radial_monotonicity(f_op, n, h)
        grid = cls(f_op, n, r, h, is_ball)
        grid.h_min = np.diff(r).min()
        # row i of a sweep's matrix is -(wa_i wa_rows[i] + wb_i wb_rows[i]) on
        # U_{i-1}, U_i, U_{i+1} (log grid: a = d2 - d1, b = d1, over r^2)
        ri, g1 = r[1:-1], problem.boundary_at(r[-1])
        if is_ball:                          # unknowns: nodes 0..cells-1, centre first
            ca, cb = np.full(ri.shape, 1.0 / h ** 2), 1.0 / (2.0 * h * ri)
            grid.wa_rows = np.stack([ca, -2.0 * ca, ca], axis=1)
            grid.first, grid.tol_terms = np.full(cells + 1, g1), (abs(g1), 0.0)
        else:
            ca, cb = 1.0 / (ri ** 2 * h ** 2), 1.0 / (ri ** 2 * 2.0 * h)
            grid.wa_rows = np.stack([ca + cb, -2.0 * ca, ca - cb], axis=1)
            g0, t = problem.boundary_at(r[0]), np.log(r)
            grid.first = g0 + (g1 - g0) * (t - t[0]) / (t[-1] - t[0])
            grid.tol_terms = (abs(g1), abs(g0))
        grid.wb_rows = np.stack([-cb, 0.0 * cb, cb], axis=1)
        grid.unknown = slice(0 if is_ball else 1, -1)
        grid.meta = {"operator": f_op.kind, "n": n, "cells": cells,
                     "spacing": "linear" if is_ball else "log"}
        return grid

    @classmethod
    def for_field(cls, f_op, fld, domain):
        """The kernel grid of a RadialField on an annulus or ball ``domain``,
        whose nodes must be the solver's for the field's cells (to 1e-12).
        The grid holds the field's nodes and the solver's step h (from its
        linspace, not from the nodes), so ``apply`` is the solver's up to
        rounding."""
        nodes, h = _radial_grid(domain, len(fld.nodes) - 1)
        if not np.allclose(fld.nodes, nodes, rtol=1e-12, atol=0.0):
            raise ValueError(f"field nodes are not the {len(nodes) - 1}-cell grid "
                             f"of the {type(domain).__name__.lower()}")
        return cls(f_op, fld.n, fld.nodes, h, isinstance(domain, Ball))

    def apply(self, u):
        """F_h u at a ball's centre and the interior nodes, and the policy (wa, wb)."""
        a, b = _radial_entries(u, self.h, self.r, self.is_ball)
        wa, wb = _pattern_weights(self.f_op, self.n, a, b, self.controls)
        return -(wa * a + wb * b), (wa, wb)

    def step(self, policy, u, rhs):
        wa, wb = policy                      # two band entries reach u's boundary
        rvec = rhs + 0.0                     # + 0.0 maps -0.0 to 0.0
        if not self.is_ball:
            rvec[0] += (wa[0] * self.wa_rows[0, 0] + wb[0] * self.wb_rows[0, 0]) * u[0]
        rvec[-1] += (wa[-1] * self.wa_rows[-1, 2] + wb[-1] * self.wb_rows[-1, 2]) * u[-1]
        out = u.copy()
        out[self.unknown] = self._solve(policy, rvec)
        return out

    def _factorize(self, band):
        """(LU, order, perm_c) of the band's matrix, both orders the identity
        for SuperLU's first factorization at this size."""
        import scipy.sparse as sparse
        import scipy.sparse.linalg as spla

        nun = len(band)
        if nun not in _SKELETONS:
            lu = spla.splu(self.matrix(band).T.tocsc())
            _skeleton(nun, lu.perm_c)
            return lu, slice(None), slice(None)
        order, perm_c, take, indices, indptr = _SKELETONS[nun]
        if self._skel is None:
            self._skel = sparse.csc_matrix((np.empty(take.size), indices, indptr),
                                           shape=(nun, nun))
        np.take(band, take, out=self._skel.data)
        return spla.splu(self._skel, permc_spec="NATURAL"), order, perm_c

    def field(self, u, meta):
        # no RadialField checks of the grid's own nodes; u, which it may hold, is copied
        fld = object.__new__(RadialField)
        fld.__dict__.update(n=self.n, nodes=self.r, values=u.copy(), meta=meta)
        return fld

    def system(self, policy):
        """The band of a sweep with weights (wa, wb): row k is on unknowns k-1,
        k, k+1 (a ball's centre first)."""
        wa, wb = policy
        k = int(self.is_ball)
        band = -(wa[k:, None] * self.wa_rows + wb[k:, None] * self.wb_rows)
        if self.is_ball:
            w, c0 = wa[0] + wb[0], 2.0 / self.h ** 2
            band = np.vstack([(0.0, w * c0, -w * c0), band])
        return band

    @staticmethod
    def matrix(band):
        """The band as CSR with its explicit zeros: the sweep's matrix, whose
        transpose in CSC is what SuperLU factorizes."""
        import scipy.sparse as sparse

        nun = len(band)
        cols = np.arange(nun)[:, None] + np.array([-1, 0, 1])
        indptr = np.clip(3 * np.arange(nun + 1) - 1, 0, 3 * nun - 2)
        return sparse.csr_matrix((band.ravel()[1:-1], cols.ravel()[1:-1], indptr),
                                 shape=(nun, nun))


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
    hs, errs = [], []
    is_2d = isinstance(problem.domain, Rectangle)
    for cells in cell_counts:
        if is_2d:
            fld = solve_dirichlet_2d(f_op, problem, problem.domain.grid_step(cells))
            errs.append(max(abs(fld.values[ij] - problem.exact(*fld.xy(*ij)))
                            for ij in np.ndindex(fld.values.shape)))
        else:
            fld = solve_dirichlet_radial(f_op, problem.n, problem, cells)
            exact = np.array([problem.exact(ri) for ri in fld.nodes])
            errs.append(np.abs(fld.values - exact).max())
        hs.append(1.0 / cells)
    errs = np.asarray(errs)
    if np.all(errs < 1e-12):
        return "exact"
    slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# 2D kernel


def _control_families(f_op, angles=24):
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
    th = [k * math.pi / (2 * angles) for k in range(angles)]
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


def _at_nodes(fn, mask, x0, y0, h):
    """fn(x, y) at every node of ``mask``, in row-major order (see _data)."""
    i, j = np.nonzero(mask)
    return _data(fn, (x0 + i * h).tolist(), (y0 + j * h).tolist())


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
            bvals[~interior] = _at_nodes(problem.boundary, ~interior, x0, y0, h)
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
            bvals[ring] = _data(problem.boundary, rb[ring].tolist())
        else:
            raise ValueError("2D solver needs a rectangle or annulus domain")
        return cls(h=h, x0=x0, y0=y0, interior=interior, boundary_values=bvals)

    @classmethod
    def for_solve(cls, f_op, problem, h):
        """``build`` after the family check, with the stencil coefficients, the
        stencils' boundary terms and the solve interface."""
        fams = _control_families(f_op)
        _check_stencil_monotone(fams)
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
        grid.unknown, grid.h_min = grid.nodes, h
        grid.tol_terms, grid.meta = (bscale,), {"operator": f_op.kind, "h": h}
        return grid

    def rhs(self, problem):
        """f at the interior nodes."""
        return _at_nodes(problem.rhs, self.interior, self.x0, self.y0, self.h)

    def apply(self, u):
        """F_h u at the interior nodes and the policy (row, control) per node."""
        fu, row, ctl = _evaluate_2d(self.coef, u[self.nbr])
        return fu, (row, ctl)

    def step(self, policy, u, rhs):
        rows = self.brows                    # only they take boundary data
        rvec = rhs.copy()
        rvec[rows] -= (self.coef[policy[0][rows], policy[1][rows]]
                       * self.bterms).sum(axis=1)
        out = u.copy()
        out[self.unknown] = self._solve(policy, rvec)
        return out

    def system(self, policy):
        return self.coef[policy]             # the sweep's (nodes, 9) coefficient rows

    def _factorize(self, sel):
        """(LU, order, identity) of the sweep's matrix with coefficient rows
        ``sel``, factorized transposed in CSC: each column the unknowns'
        entries of a row in index order.

        The first matrix of a sparsity pattern (the grid and its kept entries,
        keyed by a 128-bit digest) gets SuperLU's COLAMD order, and
        ``_SKELETONS`` holds that order as int32 if every pivot was on the
        diagonal (perm_r == perm_c).  A later one is built with its columns
        alone in that order, its row indices still the unknowns', and
        factorized in its natural order: the elimination SuperLU runs after
        its own COLAMD, so the same bits.  In natural order SuperLU prefers
        row k as column k's pivot, which is not the true diagonal, so the LU
        is kept only if every pivot is still the true diagonal and SuperLU's
        postorder kept the order; otherwise the matrix gets COLAMD."""
        import scipy.sparse as sparse
        import scipy.sparse.linalg as spla

        sel, col = sel[:, self.by_index], self.col[:, self.by_index]
        keep = (col >= 0) & (sel != 0.0)
        nun = self.nodes.size
        key = hashlib.blake2b(digest_size=16)   # the pattern: grid and kept entries
        for part in (np.array(self.interior.shape), self.interior, keep):
            key.update(part.tobytes())
        key = key.digest()

        def factorize(rows, **options):
            kept = keep[rows]
            indptr = np.concatenate(([0], np.cumsum(kept.sum(axis=1))))
            return spla.splu(sparse.csc_matrix(
                (sel[rows][kept], col[rows][kept], indptr), shape=(nun, nun)), **options)

        if key in _SKELETONS:
            order, = _SKELETONS[key]
            lu = factorize(order, permc_spec="NATURAL")
            # every pivot the true diagonal, and SuperLU's postorder kept the order
            every = np.arange(nun)
            if (lu.perm_r[order] == every).all() and (lu.perm_c == every).all():
                return lu, order, slice(None)
        lu = factorize(slice(None))
        if (lu.perm_r == lu.perm_c).all():
            _remember(key, (np.argsort(lu.perm_c).astype(np.int32),))
        return lu, slice(None), slice(None)

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
    field: object
    fitted_alpha: float
    log_case: bool
    fit_report: dict


def _sphere_samples(fld, sig):
    """The field at 128 points of each sphere of radius sig, (spheres, samples);
    a radial field gives one sample per sphere, a 2D one NaN off its domain."""
    if isinstance(fld, RadialField):
        return fld(sig)[:, None]
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


def _brent_min(fun, lo, hi, xatol):
    """Brent's bounded minimization of ``fun`` on [lo, hi]: (x, fun(x), number
    of calls).  Golden-section steps, with a parabola through the three best
    points where it falls inside the bracket, until the bracket is within
    about xatol of the best point or after 500 calls.  It takes the steps of
    scipy's ``minimize_scalar(method="bounded")``: the same constants, tests,
    ties and update order, in numpy scalars, so the bits are the same."""
    sqrt_eps, golden = np.sqrt(2.2e-16), 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    xf = nfc = fulc = a + golden * (b - a)   # the best point, second and third
    fx = fnfc = ffulc = fun(xf)
    num, rat, e = 1, 0.0, 0.0
    while num < 500:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not np.abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if np.abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                parabolic = True
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if not parabolic:
            e = (a if xf >= xm else b) - xf
            rat = golden * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx, num


def fundamental_profile(f_op: EllipticOperator, n: int,
                        cells: int = 512) -> FundamentalProfile:
    """Estimate the scaling exponent from a numerical fundamental solution.

    Solves F(D^2 u) = 0 on annulus(1, 16), boundary 1 inside and 0 outside,
    then fits sphere minima m(s) over s in [2, 8] against A s^{-a} + B and
    against the logarithmic model A + B log s.
    """
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
    lo, hi = alpha_bracket(f_op, n)

    def power_fit(m):
        x, rms, _ = _brent_min(lambda a: _line_fit(sig ** (-a), m)[1],
                               1e-3, max(hi, 0.5) + 2.0, 1e-10)
        return float(x), float(rms)

    alpha_min, rss_power = power_fit(mins)
    rss_log = _line_fit(np.log(sig), mins)[1]
    log_case = rss_log <= rss_power * (1.0 + 1e-9) or alpha_min < 0.05
    alpha_fit = 0.0 if alpha_min < 0.05 else alpha_min

    # the max-based fit reports the spread over each sphere
    alpha_max = alpha_min if np.array_equal(maxs, mins) else power_fit(maxs)[0]
    report = {
        "rss_power": rss_power, "rss_log": rss_log,
        "alpha_min_fit": alpha_min, "alpha_max_fit": alpha_max,
        "bracket": (lo, hi), "sigma_window": (2.0, 8.0),
    }
    return FundamentalProfile(field=fld, fitted_alpha=alpha_fit,
                              log_case=log_case, fit_report=report)
