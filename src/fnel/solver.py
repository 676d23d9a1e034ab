"""Monotone finite-difference solvers for F(D^2 u) = f with Dirichlet data.

Both grids run one Howard policy-iteration loop, ``_howard``.  A sweep
evaluates F_h at the iterate, which gives the residual and the policy (the
controls chosen at every node), and solves the linear system with that
policy frozen.  The loop stops with success once the residual sup-norm is at
most 1e-10 times the data scale.  An iterate that selects the very policy
that produced it is the scheme's fixed point: the same policy gives the same
system and the same iterate again.  A residual still above tolerance there
is round-off, and the solve raises PolicyIterationDiverged at once, naming
the floor 4 eps |u| / h_min^2.  No step is damped; ITERATION_CAP only stops
a sup-inf family whose policies cycle.

Radial path: any dimension n <= 6, annuli and balls, grid uniform in log r
by default.  At every node the discrete Hessian has the eigenvalue pattern
diag(a, b, ..., b), and a frozen control reduces F to -(wa*a + wb*b).  One
array kernel, ``_pattern_weights``, picks the policy (wa, wb) at all interior
nodes (and a ball's centre) at once: closed-form sign tests for the Laplacian
and Pucci kinds, a loop over sup-rows of the (a11, tr A - a11) control table
for Isaacs families.  The residual, ``residual_norm`` and the tridiagonal
system (plus the centre row on a ball, one CSR matrix) all use it.

2D path: rectangles and annuli on a uniform Cartesian grid.  F is realized
as a sup over rows of an inf over control matrices A, each discretized by
the 9-point stencil of -tr(A D^2 u); the family is stored once per solve as
a (rows, controls, 9) coefficient array.  One array kernel, ``_evaluate_2d``,
takes the (9, nodes) neighbor values of every interior node and returns
F_h u with the policy (row, control) per node, looping over rows only.  The
frozen-policy matrix is one COO build from the chosen (nodes, 9) coefficient
rows.  ``residual_norm`` runs the same kernel on a Field2D.

Both paths take an optional ``start``, the first iterate at the unknown
nodes on the solve's own grid (the boundary data always come from the
problem), and a field-valued rhs: a RadialField is interpolated at all nodes
in one call, a Field2D on the solve's grid is read at its interior nodes.
Every sweep solves its sparse system through ``_spsolve``, which keeps the
last matrix and, when that matrix comes again right away, its LU
factorization: a warm start whose first sweep repeats the previous solve's
last policy reuses that factorization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .matcore import ISAACS, LAPLACIAN, PUCCI_MAX, PUCCI_MIN, EllipticOperator
from .scaling import alpha_bracket

RESIDUAL_TOL = 1e-10
ITERATION_CAP = 200


class PolicyIterationDiverged(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class NonMonotoneScheme(ValueError):
    pass


# ---------------------------------------------------------------------------
# Howard policy iteration


def _howard(evaluate, solve, u, tol, h_min):
    """Policy iteration from u, stopped as the module docstring says (h_min is
    the grid's smallest step); returns the solution and its residual.
    ``evaluate(u)`` gives the residual sup-norm and the policy (a tuple of
    arrays) at u, ``solve(policy)`` the iterate with that policy frozen."""
    res, policy = evaluate(u)
    history = [res]
    while not res <= tol:                # a NaN residual never passes
        if len(history) > ITERATION_CAP:
            raise PolicyIterationDiverged(
                f"policy iteration did not reach tolerance {tol:.2e} in "
                f"{ITERATION_CAP} sweeps (last residual {res:.2e})", history)
        u = solve(policy)
        res, new = evaluate(u)
        history.append(res)
        if not res <= tol and all(map(np.array_equal, new, policy)):
            floor = 4.0 * np.finfo(float).eps * np.abs(u).max() / h_min ** 2
            raise PolicyIterationDiverged(
                f"policy iteration reached its fixed point at residual "
                f"{res:.2e} above tolerance {tol:.2e}; the round-off floor "
                f"4*eps*|u|/h_min^2 is {floor:.2e}", history)
        policy = new
    return u, res


# ---------------------------------------------------------------------------
# the linear solve and warm starts


# the one-slot factorization cache of _spsolve: (the exact bytes of the last
# matrix solved, its LU once that matrix has come twice in a row, else None),
# replaced as one object so that a reader never pairs a key with another LU
_slot = (None, None)


def _spsolve(mat, rhs):
    """``spla.spsolve(mat, rhs)`` for a CSR matrix, reusing one factorization.

    For CSR input spsolve hands SuperLU the transpose in CSC form and solves
    the transposed system; ``splu(mat.T.tocsc())`` solved with ``trans="T"``
    runs the same factorization and triangular solves, so the bits agree.  A
    new matrix goes through spsolve and drops the held LU, so cold solves
    neither pay for ``splu`` nor keep an LU alive; a repeat is factorized
    once and every further repeat only runs the triangular solves.
    """
    global _slot
    key = (mat.shape, mat.indptr.tobytes(), mat.indices.tobytes(),
           mat.data.tobytes())
    last, lu = _slot
    if key != last:
        _slot = (key, None)
        return spla.spsolve(mat, rhs)
    if lu is None:
        lu = spla.splu(mat.T.tocsc())
        _slot = (key, lu)
    return lu.solve(rhs, trans="T")


def _checked_start(start, shape):
    """A solve's ``start`` as a float array of the grid's shape."""
    start = np.asarray(start, dtype=float)
    if start.shape != shape:
        raise ValueError(f"start has shape {start.shape}, the grid {shape}")
    return start


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


@dataclass(frozen=True)
class DirichletProblem:
    """F(D^2 u) = rhs in the domain, u = boundary on its boundary.

    rhs and boundary take a radius for radial domains and (x, y) for 2D.
    rhs may also be a field: a RadialField, read by interpolation, or a
    Field2D on the 2D solve's own grid, read at its nodes.  ``exact`` is an
    optional oracle used by convergence studies only.
    """

    domain: object
    n: int
    rhs: Optional[Callable] = None
    boundary: Optional[Callable] = None
    exact: Optional[Callable] = None
    spacing: str = "auto"  # 'log' | 'linear' | 'auto'

    def rhs_at(self, *args):
        return 0.0 if self.rhs is None else float(self.rhs(*args))

    def boundary_at(self, *args):
        return 0.0 if self.boundary is None else float(self.boundary(*args))

    def resolved_spacing(self):
        if self.spacing != "auto":
            return self.spacing
        return "linear" if isinstance(self.domain, Ball) else "log"


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class RadialField:
    n: int
    nodes: np.ndarray       # strictly increasing radii, boundaries included
    values: np.ndarray
    spacing: str            # 'log' or 'linear'
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
        buf = io.StringIO()
        meta = " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        buf.write(f"# {meta}\n")
        buf.write("r,u\n")
        for r, u in zip(self.nodes, self.values):
            buf.write(f"{float(r)!r},{float(u)!r}\n")
        return buf.getvalue()


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
        """Bilinear interpolation; points on the closed grid edge are allowed."""
        nx, ny = self.values.shape
        gi = (x - self.x0) / self.h
        gj = (y - self.y0) / self.h
        slack = 1e-9
        if not (-slack <= gi <= nx - 1 + slack and -slack <= gj <= ny - 1 + slack):
            raise ValueError(f"point ({x!r}, {y!r}) lies outside the grid")
        i = min(max(int(np.floor(gi)), 0), nx - 2)
        j = min(max(int(np.floor(gj)), 0), ny - 2)
        fx, fy = gi - i, gj - j
        v = self.values
        return ((1 - fx) * (1 - fy) * v[i, j] + fx * (1 - fy) * v[i + 1, j]
                + (1 - fx) * fy * v[i, j + 1] + fx * fy * v[i + 1, j + 1])

    def to_csv(self) -> str:
        buf = io.StringIO()
        meta = " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        buf.write(f"# {meta}\n")
        buf.write("x,y,u\n")
        nx, ny = self.values.shape
        for i in range(nx):
            for j in range(ny):
                v = self.values[i, j]
                if np.isnan(v):
                    continue
                x, y = self.xy(i, j)
                buf.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# radial kernel
#
# In log coordinates t = log r:  u'' = (U_tt - U_t)/r^2 and u'/r = U_t/r^2,
# so the Hessian eigenvalue pattern at a node is diag(a, b, ..., b)/r^2 with
# a = D2 U - D1 U and b = D1 U.  In linear coordinates a = D2 u, b = D1 u / r.


def _radial_entries(u, h, r, spacing, is_ball):
    """Pattern entries (a, b) at the interior nodes; a ball appends its centre.

    At the centre the Hessian is u''(0) I by symmetry; with the ghost value
    U[-1] = U[1] that is a = b = 2 (U[1] - U[0]) / h^2.
    """
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    d1 = (u[2:] - u[:-2]) / (2.0 * h)
    ri = r[1:-1]
    if spacing == "log":
        a, b = (d2 - d1) / ri ** 2, d1 / ri ** 2
    else:
        a, b = d2, d1 / ri
    if is_ball:
        a0 = 2.0 * (u[1] - u[0]) / h ** 2
        a, b = np.append(a, a0), np.append(b, a0)
    return a, b


def _isaacs_controls(f_op):
    """An Isaacs family's (rows, controls, n, n) padded control table."""
    n = f_op.dim
    return f_op._controls.reshape(f_op._controls.shape[:2] + (n, n))


def _radial_controls(f_op):
    """Per sup-row (a11, tr A - a11) arrays of an Isaacs family; () otherwise.

    Read from the operator's padded control table: a ragged row repeats its
    first control, which changes neither the row minimum nor its first argmin.
    """
    if f_op.kind != ISAACS:
        return ()
    dense = _isaacs_controls(f_op)                  # (rows, controls, n, n)
    a11 = dense[:, :, 0, 0]
    return tuple(zip(a11, np.trace(dense, axis1=2, axis2=3) - a11))


def _pattern_weights(f_op, n, a, b, controls):
    """Frozen-control coefficients (wa, wb) with F(diag(a, b, ..., b)) =
    -(wa*a + wb*b), at every node of the arrays a, b at once.

    ``controls`` is ``_radial_controls(f_op)``.  Isaacs ties go to the first
    minimum within a row and to the first row that is strictly larger.
    """
    if f_op.kind == LAPLACIAN:
        return np.ones_like(a), np.full_like(b, n - 1.0)
    if f_op.kind in (PUCCI_MAX, PUCCI_MIN):
        pos, neg = f_op.lam, f_op.Lam
        if f_op.kind == PUCCI_MIN:
            pos, neg = neg, pos
        return np.where(a > 0, pos, neg), (n - 1) * np.where(b > 0, pos, neg)
    best = np.full(a.shape, -np.inf)
    wa, wb = np.zeros(a.shape), np.zeros(b.shape)
    for a11, s in controls:
        vals = -(a11[:, None] * a + s[:, None] * b)     # (controls, nodes)
        k = vals.argmin(axis=0)
        worst = vals.min(axis=0)
        up = worst > best
        best[up], wa[up], wb[up] = worst[up], a11[k[up]], s[k[up]]
    return wa, wb


def _pattern_value(f_op, n, a, b, controls):
    """F(diag(a, b, ..., b)) at every node of the arrays a, b."""
    wa, wb = _pattern_weights(f_op, n, a, b, controls)
    return -(wa * a + wb * b)


def _check_radial_monotonicity(f_op, n, h, spacing):
    """Sufficient condition for the log-grid scheme to be monotone.

    The first-derivative term couples neighbors with the opposite sign of the
    second difference; (H1) controls the net effect when
    lam*(1/h^2 + 1/(2h)) >= Lam*(n-1)/(2h) and h <= 2.
    """
    if spacing != "log":
        return
    if h > 2.0:
        raise NonMonotoneScheme(f"log-grid step {h:.3g} > 2")
    if f_op.lam * (1.0 / h ** 2 + 1.0 / (2 * h)) < f_op.Lam * (n - 1) / (2 * h):
        raise NonMonotoneScheme(
            f"log-grid step {h:.3g} too coarse for ellipticity ratio "
            f"{f_op.Lam / f_op.lam:.3g} in dimension {n}"
        )


def _radial_grid(problem, cells):
    if cells < 2:
        raise ValueError("need at least 2 cells")
    dom = problem.domain
    spacing = problem.resolved_spacing()
    if isinstance(dom, Annulus):
        if spacing == "log":
            t = np.linspace(math.log(dom.r0), math.log(dom.r1), cells + 1)
            return np.exp(t), t[1] - t[0], spacing
        r = np.linspace(dom.r0, dom.r1, cells + 1)
        return r, r[1] - r[0], spacing
    if isinstance(dom, Ball):
        r = np.linspace(0.0, dom.r1, cells + 1)
        return r, r[1] - r[0], "linear"
    raise ValueError("radial solver needs an annulus or ball domain")


def _radial_rhs(problem, r):
    """f at the interior nodes; on a ball, f at the centre is appended.

    The centre value is taken just off r = 0, where f may be singular.  A
    RadialField rhs is interpolated in one call; at its own nodes that gives
    the node values.
    """
    pts = r[1:-1]
    if isinstance(problem.domain, Ball):
        pts = np.append(pts, r[1] * 1e-8 if r[0] == 0 else r[0])
    if isinstance(problem.rhs, RadialField):
        return problem.rhs(pts)
    return np.array([problem.rhs_at(ri) for ri in pts])


def _radial_residual(f_op, n, u, h, r, spacing, rhs, is_ball, controls):
    """Sup-norm of F_h u - f (interior nodes, a ball's centre) and (wa, wb)."""
    a, b = _radial_entries(u, h, r, spacing, is_ball)
    wa, wb = _pattern_weights(f_op, n, a, b, controls)
    return np.abs(-(wa * a + wb * b) - rhs).max(initial=0.0), (wa, wb)


def solve_dirichlet_radial(f_op: EllipticOperator, n: int,
                           problem: DirichletProblem, cells: int,
                           start=None) -> RadialField:
    """Solve F(D^2 u) = f(r) on a radial annulus or ball.

    Deterministic for fixed inputs; returns when the interior residual
    sup-norm is below 1e-10 relative to the data scale.  ``start``, an array
    of the cells + 1 node values, is the first iterate at the unknown nodes;
    its boundary entries are ignored.
    """
    if not f_op.rot_invariant:
        raise ValueError("radial solver needs a rotationally invariant operator")
    if n != f_op.dim:
        raise ValueError(f"n={n} does not match operator dim {f_op.dim}")
    if not 2 <= n <= 6:
        raise ValueError("radial solver supports 2 <= n <= 6")
    r, h, spacing = _radial_grid(problem, cells)
    is_ball = isinstance(problem.domain, Ball)
    _check_radial_monotonicity(f_op, n, h, spacing)
    controls = _radial_controls(f_op)

    rhs_all = _radial_rhs(problem, r)
    if is_ball:
        g1 = problem.boundary_at(r[-1])
        # unknowns: nodes 0..cells-1 (center included), fixed at outer boundary
        u = np.full(cells + 1, g1)
    else:
        g0 = problem.boundary_at(r[0])
        g1 = problem.boundary_at(r[-1])
        t = np.log(r) if spacing == "log" else r
        u = g0 + (g1 - g0) * (t - t[0]) / (t[-1] - t[0])

    scale = 1.0 + np.abs(rhs_all).max(initial=0.0) + abs(g1)
    if not is_ball:
        scale += abs(g0)
    tol = RESIDUAL_TOL * scale
    unknown = slice(0 if is_ball else 1, -1)
    if start is not None:
        u[unknown] = _checked_start(start, u.shape)[unknown]

    def evaluate(uu):
        return _radial_residual(f_op, n, uu, h, r, spacing, rhs_all, is_ball,
                                controls)

    def solve(policy):
        uu = u.copy()
        uu[unknown] = _spsolve(*_radial_system(*policy, u, h, r, spacing,
                                               rhs_all, is_ball))
        return uu

    u, res = _howard(evaluate, solve, u, tol, np.diff(r).min())
    meta = {"operator": f_op.kind, "n": n, "cells": cells,
            "spacing": spacing, "residual": res}
    return RadialField(n=n, nodes=r, values=u, spacing=spacing, meta=meta)


def _radial_system(wa, wb, u, h, r, spacing, rhs, is_ball):
    """One Howard sweep's linear system (matrix, rhs) for the frozen weights
    (wa, wb) of ``_pattern_weights``.

    Unknowns are the interior nodes, preceded on a ball by the centre; the
    boundary values held in u go into the rhs.  The matrix is tridiagonal,
    built as CSR with each row's entries in column order, the canonical
    order that ``spsolve`` hands to SuperLU.
    """
    m = len(u) - 2                       # interior nodes 1..m
    wa_i, wb_i = wa[:m], wb[:m]          # a ball's centre weights come last
    ri = r[1:-1]
    if spacing == "log":
        ca = 1.0 / (ri ** 2 * h ** 2)
        cb = 1.0 / (ri ** 2 * 2.0 * h)
        # a = d2 - d1, b = d1 (all already divided by r^2)
        cm = -(wa_i * (ca + cb) + wb_i * (-cb))   # coefficient of U_{i-1}
        cc = -(wa_i * (-2.0 * ca))                # coefficient of U_i
        cp = -(wa_i * (ca - cb) + wb_i * cb)      # coefficient of U_{i+1}
    else:
        ca = 1.0 / h ** 2
        cb = 1.0 / (2.0 * h * ri)
        cm = -(wa_i * ca - wb_i * cb)
        cc = -(wa_i * (-2.0 * ca))
        cp = -(wa_i * ca + wb_i * cb)
    band = np.stack([cm, cc, cp], axis=1)     # (rows, 3): U_{i-1}, U_i, U_{i+1}
    rvec = np.zeros(len(rhs))
    if is_ball:
        w = wa[m] + wb[m]
        c0 = 2.0 / h ** 2
        band = np.vstack([(0.0, w * c0, -w * c0), band])
        rvec += np.roll(rhs, 1)          # rhs[-1] holds f(0)
    else:
        rvec += rhs
        rvec[0] -= cm[0] * u[0]
    rvec[-1] -= cp[-1] * u[-1]
    # drop the first row's U_{i-1} and the last row's U_{i+1}
    nun = len(band)
    cols = np.arange(nun)[:, None] + np.array([-1, 0, 1])
    indptr = np.clip(3 * np.arange(nun + 1) - 1, 0, 3 * nun - 2)
    mat = sparse.csr_matrix((band.ravel()[1:-1], cols.ravel()[1:-1], indptr),
                            shape=(nun, nun))
    return mat, rvec


def residual_norm(f_op: EllipticOperator, fld, problem: DirichletProblem) -> float:
    """Sup-norm of the discrete residual F(D^2_h u) - f at interior nodes."""
    if isinstance(fld, RadialField):
        # the solver's step h (from its linspace, not from the nodes), on the
        # solver's grid up to rounding
        r = fld.nodes
        grid, h, spacing = _radial_grid(replace(problem, spacing=fld.spacing),
                                        len(r) - 1)
        if not np.allclose(r, grid, rtol=1e-12, atol=0.0):
            raise ValueError(f"field nodes are not the {len(r) - 1}-cell "
                             f"{spacing} grid of the problem's domain")
        res, _ = _radial_residual(f_op, fld.n, fld.values, h, r, spacing,
                                  _radial_rhs(problem, r),
                                  isinstance(problem.domain, Ball),
                                  _radial_controls(f_op))
        return float(res)
    if isinstance(fld, Field2D):
        grid = _Grid2D(h=fld.h, x0=fld.x0, y0=fld.y0, interior=fld.interior)
        coef = _stencil_coefficients(_control_families(f_op), fld.h)
        fu, _, _ = _evaluate_2d(coef, fld.values.ravel()[grid.nbr])
        return float(np.abs(fu - grid.rhs(problem)).max(initial=0.0))
    raise TypeError("unknown field type")


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
            dom = problem.domain
            h = min(dom.x1 - dom.x0, dom.y1 - dom.y0) / cells
            fld = solve_dirichlet_2d(f_op, problem, h)
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
    """Finite sup-inf control families realizing F on 2D grids.

    Pucci kinds are approximated by rotated extremal diagonal controls; the
    approximation is exact whenever the discrete Hessian's eigenframe hits a
    sampled angle (in particular for axis-aligned data).
    """
    if f_op.dim != 2:
        raise ValueError("2D solver needs a 2-dimensional operator")
    if f_op.kind == LAPLACIAN:
        return ((np.eye(2),),)
    if f_op.kind == ISAACS:
        return _isaacs_controls(f_op)
    lam, Lam = f_op.lam, f_op.Lam
    mats = []
    for k in range(angles):
        th = k * math.pi / (2 * angles)
        c, s = math.cos(th), math.sin(th)
        rot = np.array([[c, -s], [s, c]])
        for w in ((lam, lam), (lam, Lam), (Lam, lam), (Lam, Lam)):
            # lam*I and Lam*I are rotation-invariant: add them at angle 0 only
            if k == 0 or w[0] != w[1]:
                mats.append(rot @ np.diag(w) @ rot.T)
    if f_op.kind == PUCCI_MAX:
        return tuple((m,) for m in mats)     # sup over singleton-inf rows
    return ((tuple(mats)),)                  # single sup row, inf inside


def _check_stencil_monotone(a, h, label):
    a11, a12, a22 = a[0, 0], a[0, 1], a[1, 1]
    if a11 < abs(a12) - 1e-12 or a22 < abs(a12) - 1e-12:
        raise NonMonotoneScheme(
            f"control matrix {label} = [[{a11:.4g},{a12:.4g}],"
            f"[{a12:.4g},{a22:.4g}]] violates diagonal dominance; "
            "anisotropy too strong for the 9-point stencil")


# neighbor offsets (di, dj) of the 9-point stencil; every (..., 9) array below
# is in this order
_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0))


def _stencil_coefficients(fams, h):
    """(rows, controls, 9) coefficients of -tr(A D^2 .) for every control A.

    Ragged rows are padded with a repeat of the row's first control, which
    changes neither the row minimum nor its first argmin.
    """
    width = max(len(row) for row in fams)
    coef = np.empty((len(fams), width, 9))
    h2 = h * h
    for r, row in enumerate(fams):
        for c in range(width):
            a = row[c] if c < len(row) else row[0]
            m = abs(a[0, 1])
            ex, ey, d = -(a[0, 0] - m) / h2, -(a[1, 1] - m) / h2, -m / h2
            diag = (d, d, 0.0, 0.0) if a[0, 1] >= 0 else (0.0, 0.0, d, d)
            arms = (ex, ex, ey, ey) + diag
            coef[r, c] = arms + (-sum(arms),)
    return coef


def _evaluate_2d(coef, u9):
    """F_h u = sup over rows of inf over controls, at every node at once.

    ``u9`` is the (9, nodes) array of neighbor values.  Returns F_h u and the
    chosen row and control per node.  Ties go to the first minimum within a
    row and to the first row that is strictly larger.
    """
    nodes = np.arange(u9.shape[1])
    best = np.full(nodes.size, -np.inf)
    row = np.zeros(nodes.size, dtype=np.intp)
    ctl = np.zeros(nodes.size, dtype=np.intp)
    for r, block in enumerate(coef):
        vals = block @ u9                  # (controls, nodes)
        k = vals.argmin(axis=0)
        worst = vals[k, nodes]
        up = worst > best
        best[up], row[up], ctl[up] = worst[up], r, k[up]
    return best, row, ctl


def _window(mask):
    """The 9 shifted views mask[i + di, j + dj] over the inner nodes."""
    nx, ny = mask.shape
    return [mask[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj] for di, dj in _OFFSETS]


def _at_nodes(fn, mask, x0, y0, h):
    """fn(x, y) at every node of ``mask``, in row-major order."""
    return np.array([fn(x0 + i * h, y0 + j * h)
                     for i, j in np.argwhere(mask).tolist()], dtype=float)


@dataclass
class _Grid2D:
    h: float
    x0: float
    y0: float
    interior: np.ndarray                 # bool (nx, ny)
    boundary_values: Optional[np.ndarray] = None  # NaN where not boundary

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

    @classmethod
    def build(cls, problem, h):
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
            bvals[~interior] = _at_nodes(problem.boundary_at, ~interior, x0, y0, h)
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
            bvals[ring] = [problem.boundary_at(r) for r in rb[ring].tolist()]
        else:
            raise ValueError("2D solver needs a rectangle or annulus domain")
        return cls(h=h, x0=x0, y0=y0, interior=interior, boundary_values=bvals)

    def rhs(self, problem):
        """f at the interior nodes; a Field2D rhs must lie on this grid."""
        f = problem.rhs
        if isinstance(f, Field2D):
            if (f.h, f.x0, f.y0, f.values.shape) != (
                    self.h, self.x0, self.y0, self.interior.shape):
                raise ValueError("rhs field is not on the solve's grid")
            return f.values[self.interior]
        return _at_nodes(problem.rhs_at, self.interior, self.x0, self.y0, self.h)


def solve_dirichlet_2d(f_op: EllipticOperator, problem: DirichletProblem,
                       h: float, start=None) -> Field2D:
    """Solve F(D^2 u) = f on a 2D rectangle or annulus, 9-point stencil.

    Every control matrix is checked for diagonal dominance before assembly;
    a violating matrix raises NonMonotoneScheme naming it.  ``start``, an
    (nx, ny) array on the solve's grid, is the first iterate at the interior
    nodes; its other entries are ignored.
    """
    fams = _control_families(f_op)
    for i, row in enumerate(fams):
        for j, a in enumerate(row):
            _check_stencil_monotone(a, h, f"({i},{j})")
    coef = _stencil_coefficients(fams, h)
    grid = _Grid2D.build(problem, h)
    nun = grid.nodes.size
    if nun == 0:
        raise ValueError("no interior nodes at this resolution")
    rhs = grid.rhs(problem)
    bscale = np.nanmax(np.abs(grid.boundary_values), initial=0.0)
    tol = RESIDUAL_TOL * (1.0 + np.abs(rhs).max(initial=0.0) + bscale)

    # flat grid values; boundary nodes hold their data, others 0
    values = np.where(np.isnan(grid.boundary_values), 0.0, grid.boundary_values).ravel()
    if bscale > 0:
        values[grid.nodes] = float(np.nanmean(grid.boundary_values))
    if start is not None:
        start = _checked_start(start, grid.interior.shape)
        values[grid.nodes] = start.ravel()[grid.nodes]
    boundary = grid.col < 0
    bterms = np.where(boundary, values[grid.nbr.T], 0.0)    # (nodes, 9)
    node_of = np.broadcast_to(np.arange(nun)[:, None], boundary.shape)

    def evaluate(vals):
        fu, row, ctl = _evaluate_2d(coef, vals[grid.nbr])
        return float(np.abs(fu - rhs).max(initial=0.0)), (row, ctl)

    def solve(policy):
        sel = coef[policy]                                  # (nodes, 9)
        keep = ~boundary & (sel != 0.0)
        mat = sparse.csr_matrix((sel[keep], (node_of[keep], grid.col[keep])),
                                shape=(nun, nun))
        vals = values.copy()
        vals[grid.nodes] = _spsolve(mat, rhs - (sel * bterms).sum(axis=1))
        return vals

    values, res = _howard(evaluate, solve, values, tol, h)
    out = np.where(grid.interior, values.reshape(grid.interior.shape),
                   grid.boundary_values)
    meta = {"operator": f_op.kind, "h": h, "residual": res}
    return Field2D(h=h, x0=grid.x0, y0=grid.y0, values=out,
                   interior=grid.interior, meta=meta)


# ---------------------------------------------------------------------------
# fundamental profile


@dataclass(frozen=True)
class FundamentalProfile:
    field: object
    fitted_alpha: float
    log_case: bool
    fit_report: dict


def _sphere_extrema(fld, sigma):
    if isinstance(fld, RadialField):
        v = float(fld(sigma))
        return v, v
    vals = [fld.interp(sigma * math.cos(th), sigma * math.sin(th))
            for th in np.linspace(0, 2 * math.pi, 128, endpoint=False)]
    return float(min(vals)), float(max(vals))


def _power_fit(sig, m, alpha):
    basis = np.column_stack([sig ** (-alpha), np.ones_like(sig)])
    coef, *_ = np.linalg.lstsq(basis, m, rcond=None)
    resid = m - basis @ coef
    return coef, float(np.sqrt(np.mean(resid ** 2)))


def fundamental_profile(f_op: EllipticOperator, n: int, cells: int = 512,
                        outer_radius: float = 16.0) -> FundamentalProfile:
    """Estimate the scaling exponent from a numerical fundamental solution.

    Solves F(D^2 u) = 0 on annulus(1, R), boundary 1 inside and 0 outside,
    then fits sphere minima m(s) over s in [2, 8] against A s^{-a} + B and
    against the logarithmic model A + B log s.
    """
    if outer_radius < 16.0:
        raise ValueError("outer radius must be at least 16")
    dom = Annulus(1.0, outer_radius)
    problem = DirichletProblem(
        domain=dom, n=n, rhs=None,
        boundary=lambda r: 1.0 if abs(r - 1.0) < abs(r - outer_radius) else 0.0,
    )
    if f_op.rot_invariant:
        fld = solve_dirichlet_radial(f_op, n, problem, cells)
    else:
        if n != 2 or f_op.dim != 2:
            raise ValueError("grid path only available for n = 2")
        fld = solve_dirichlet_2d(f_op, problem, h=outer_radius / (cells / 4))

    sig = np.geomspace(2.0, 8.0, 33)
    mins, maxs = map(np.asarray, zip(*(_sphere_extrema(fld, s) for s in sig)))

    lo, hi = alpha_bracket(f_op, n)
    from scipy.optimize import minimize_scalar
    bound_lo, bound_hi = 1e-3, max(hi, 0.5) + 2.0

    def rss(alpha):
        return _power_fit(sig, mins, alpha)[1]

    opt = minimize_scalar(rss, bounds=(bound_lo, bound_hi), method="bounded",
                          options={"xatol": 1e-10})
    alpha_fit = float(opt.x)
    rss_power = float(opt.fun)

    basis_log = np.column_stack([np.ones_like(sig), np.log(sig)])
    coef_log, *_ = np.linalg.lstsq(basis_log, mins, rcond=None)
    rss_log = float(np.sqrt(np.mean((mins - basis_log @ coef_log) ** 2)))

    log_case = (rss_log <= rss_power * (1.0 + 1e-9)) or alpha_fit < 0.05
    if log_case:
        alpha_fit = 0.0 if alpha_fit < 0.05 else alpha_fit

    # max-based fit for the spread report (agrees with the min-based fit for
    # rotationally invariant operators; tolerance-checked by callers)
    opt_max = minimize_scalar(lambda a: _power_fit(sig, maxs, a)[1],
                              bounds=(bound_lo, bound_hi), method="bounded",
                              options={"xatol": 1e-10})
    report = {
        "rss_power": rss_power, "rss_log": rss_log,
        "alpha_min_fit": float(opt.x), "alpha_max_fit": float(opt_max.x),
        "bracket": (lo, hi), "sigma_window": (2.0, 8.0),
    }
    return FundamentalProfile(field=fld, fitted_alpha=alpha_fit,
                              log_case=log_case, fit_report=report)
