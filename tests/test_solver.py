"""Monotone finite-difference Dirichlet solvers and the profile fit."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from fnel import (
    Annulus, Ball, DirichletProblem, Rectangle, alpha_star, convergence_order,
    fundamental_profile, isaacs, laplacian, pucci_max, pucci_min,
    principal_eigenvalue, residual_norm, solve_dirichlet_2d, solve_dirichlet_radial,
)
from fnel import parse_operator_spec, solver
from fnel.liouville import _signed_min_residual
from fnel.matcore import ISAACS, LAPLACIAN, PUCCI_MAX, PUCCI_MIN, control_table
from fnel.solver import (
    Field2D, NonMonotoneScheme, RadialField, _control_families, _evaluate_2d,
    _Grid2D, _HeldLU, _line_fit, _pattern_weights,
    _radial_grid, _radial_rhs, _RadialGrid, _slope_fit,
    _stencil_coefficients,
)
from conftest import counted_solves

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def radial_problem(domain, n, exact, rhs=None):
    return DirichletProblem(domain=domain, n=n, rhs=rhs,
                            boundary=exact, exact=exact)


class TestRadialSolver:
    def test_harmonic_inverse_radius(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        fld = solve_dirichlet_radial(lap3, 3, prob, 512)
        err = np.abs(fld.values - 1.0 / fld.nodes).max()
        assert err <= 1e-3

    def test_pucci_xi3(self, pm3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: r ** -3)
        fld = solve_dirichlet_radial(pm3, 3, prob, 512)
        err = np.abs(fld.values - fld.nodes ** -3.0).max()
        assert err <= 1e-2

    def test_constants_exact(self, pm3, lap3, pmin3):
        for op in (pm3, lap3, pmin3):
            prob = radial_problem(Annulus(1.0, 4.0), 3, lambda r: 1.0)
            fld = solve_dirichlet_radial(op, 3, prob, 64)
            assert np.abs(fld.values - 1.0).max() <= 1e-14

    def test_ball_poisson_closed_form(self, lap3):
        # -Laplace(w) = 1 on the unit ball, w = (1 - r^2)/6
        prob = DirichletProblem(domain=Ball(1.0), n=3, rhs=lambda r: 1.0,
                                boundary=lambda r: 0.0)
        fld = solve_dirichlet_radial(lap3, 3, prob, 256)
        want = (1.0 - fld.nodes ** 2) / 6.0
        assert np.abs(fld.values - want).max() <= 1e-10

    def test_residual_contract(self, pm3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: r ** -3)
        fld = solve_dirichlet_radial(pm3, 3, prob, 128)
        assert residual_norm(pm3, fld, prob) <= 1e-10

    def test_deterministic(self, pm3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: r ** -3)
        a = solve_dirichlet_radial(pm3, 3, prob, 128)
        b = solve_dirichlet_radial(pm3, 3, prob, 128)
        assert np.array_equal(a.values, b.values)

    def test_discrete_comparison_boundary_data(self, pm3):
        lo = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        hi = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r + 0.3)
        u_lo = solve_dirichlet_radial(pm3, 3, lo, 128)
        u_hi = solve_dirichlet_radial(pm3, 3, hi, 128)
        assert np.all(u_lo.values <= u_hi.values + 1e-12)

    def test_operator_monotonicity(self):
        # pucci_max solve <= pucci_min solve for same nonnegative rhs,
        # zero boundary (larger operator value -> smaller solution)
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                rhs=lambda r: 1.0, boundary=lambda r: 0.0)
        u_max = solve_dirichlet_radial(pucci_max(1, 2, 3), 3, prob, 128)
        u_min = solve_dirichlet_radial(pucci_min(1, 2, 3), 3, prob, 128)
        assert np.all(u_max.values <= u_min.values + 1e-12)

    def test_scaling_covariance(self, pm3):
        # u_sigma(r) = u(sigma r) solves the rescaled annulus problem
        sigma = 2.0
        base = radial_problem(Annulus(1.0, 2.0), 3, lambda r: r ** -3)
        scaled = radial_problem(
            Annulus(sigma, 2 * sigma), 3, lambda r: (r / sigma) ** -3)
        u = solve_dirichlet_radial(pm3, 3, base, 256)
        v = solve_dirichlet_radial(pm3, 3, scaled, 256)
        assert np.abs(v.values - u.values).max() <= 1e-8

    def test_dimension_guard(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 7, lambda r: 1.0)
        with pytest.raises(ValueError):
            solve_dirichlet_radial(laplacian(7), 7, prob, 32)

    def test_problem_dimension_must_match(self, lap3):
        # a problem posed in n = 5 was solved in n = 3
        prob = radial_problem(Annulus(1.0, 2.0), 5, lambda r: 1.0)
        with pytest.raises(ValueError, match="problem n=5 does not match n=3"):
            solve_dirichlet_radial(lap3, 3, prob, 64)


class TestRadialField:
    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            RadialField(n=3, nodes=np.array([1.0, 2.0]),
                        values=np.array([0.0, 0.0]))

    def test_interpolation(self):
        fld = RadialField(n=3, nodes=np.array([1.0, 2.0, 3.0]),
                          values=np.array([1.0, 2.0, 3.0]))
        assert fld(1.5) == pytest.approx(1.5)

    def test_csv_format(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        fld = solve_dirichlet_radial(lap3, 3, prob, 16)
        lines = fld.to_csv().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "r,u"
        r0, u0 = lines[2].split(",")
        assert float(r0) == pytest.approx(1.0)


class TestResidualNorm:
    def test_locality_of_perturbation(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        fld = solve_dirichlet_radial(lap3, 3, prob, 64)
        values = fld.values.copy()
        delta = 1e-3
        values[30] += delta
        bumped = RadialField(n=3, nodes=fld.nodes, values=values)
        h = math.log(fld.nodes[1] / fld.nodes[0])
        assert residual_norm(lap3, bumped, prob) >= 0.1 * delta / h ** 2

    def test_ball_centre_matches_solver(self, lap3, pm3):
        # the oracle reproduces the solver's own residual: on a ball with f
        # singular at r = 0 it must use the solver's centre point, and on a
        # log grid the solver's step t[1] - t[0], not log(r[1]) - log(r[0])
        cases = [
            (lap3, DirichletProblem(domain=Ball(1.0), n=3, rhs=lambda r: r ** -0.5,
                                    boundary=lambda r: 0.0), 64),
            (pm3, DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                   rhs=lambda r: 0.1, boundary=lambda r: 1.0 / r), 256),
        ]
        for op, prob, cells in cases:
            fld = solve_dirichlet_radial(op, 3, prob, cells)
            assert residual_norm(op, fld, prob) == fld.meta["residual"]
            assert residual_norm(op, fld, prob) <= 1e-10

    def test_rejects_field_off_the_problem_grid(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        fld = solve_dirichlet_radial(lap3, 3, prob, 64)
        other = radial_problem(Annulus(1.0, 3.0), 3, lambda r: 1.0 / r)
        with pytest.raises(ValueError, match="grid"):
            residual_norm(lap3, fld, other)
        # an annulus grid is uniform in log r: nodes uniform in r are not it
        linear = RadialField(n=3, nodes=np.linspace(1.0, 2.0, 65), values=fld.values)
        with pytest.raises(ValueError, match="grid"):
            residual_norm(lap3, linear, prob)

    def test_exact_solution_second_order(self, pm3):
        # residual of the sampled exact solution u = 2 r^{-2} decays like h^2
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                rhs=lambda r: (2.0 * r ** -2) ** 2,
                                boundary=lambda r: 2.0 * r ** -2)
        errs = []
        for cells in (32, 64, 128):
            nodes = np.geomspace(1.0, 2.0, cells + 1)
            fld = RadialField(n=3, nodes=nodes, values=2.0 * nodes ** -2)
            errs.append(residual_norm(pm3, fld, prob))
        assert errs[1] <= 0.3 * errs[0] and errs[2] <= 0.3 * errs[1]


class TestConvergenceOrder:
    def test_second_order_harmonic(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        order = convergence_order(lap3, prob, [32, 64, 128, 256])
        assert order == pytest.approx(2.0, abs=0.3)

    def test_pucci_xi3_order(self, pm3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: r ** -3)
        order = convergence_order(pm3, prob, [32, 64, 128, 256])
        assert order >= 1.5

    def test_exact_flag_for_quadratics_2d(self, lap3):
        lap2 = laplacian(2)
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: -4.0,
            boundary=lambda x, y: x * x + y * y,
            exact=lambda x, y: x * x + y * y)
        order = convergence_order(lap2, prob, [8, 16, 32])
        assert order == "exact"

    def test_needs_three_levels(self, lap3):
        prob = radial_problem(Annulus(1.0, 2.0), 3, lambda r: 1.0 / r)
        with pytest.raises(ValueError):
            convergence_order(lap3, prob, [32, 64])

    def test_needs_exact_oracle(self, lap3):
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3)
        with pytest.raises(ValueError):
            convergence_order(lap3, prob, [32, 64, 128])


class TestSolver2D:
    def test_quadratic_exactness_laplacian(self):
        lap2 = laplacian(2)
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: -4.0, boundary=lambda x, y: x * x + y * y)
        fld = solve_dirichlet_2d(lap2, prob, h=1.0 / 16)
        nx, ny = fld.values.shape
        for i in range(nx):
            for j in range(ny):
                x, y = fld.xy(i, j)
                assert fld.values[i, j] == pytest.approx(x * x + y * y,
                                                         abs=1e-10)

    def test_quadratic_exactness_pucci(self, pm2):
        # u = x^2, D^2u = diag(2, 0), M+ = -1*2 = -2
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: -2.0, boundary=lambda x, y: x * x)
        fld = solve_dirichlet_2d(pm2, prob, h=1.0 / 16)
        nx, ny = fld.values.shape
        for i in range(nx):
            for j in range(ny):
                x, _ = fld.xy(i, j)
                assert fld.values[i, j] == pytest.approx(x * x, abs=1e-9)

    def test_mixed_quadratic_exactness(self):
        # u = xy needs the diagonal stencil arm; A = [[2, 1], [1, 2]]
        op = isaacs(1, 3, 2, [[np.array([[2.0, 1.0], [1.0, 2.0]])]])
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: -2.0, boundary=lambda x, y: x * y)
        fld = solve_dirichlet_2d(op, prob, h=1.0 / 8)
        nx, ny = fld.values.shape
        for i in range(nx):
            for j in range(ny):
                x, y = fld.xy(i, j)
                assert fld.values[i, j] == pytest.approx(x * y, abs=1e-10)

    def test_discrete_maximum_principle(self, pm2):
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: 0.0,
            boundary=lambda x, y: 1.0 + 0.5 * math.sin(3 * x + y))
        fld = solve_dirichlet_2d(pm2, prob, h=1.0 / 12)
        interior = fld.values[fld.interior]
        assert interior.min() >= 0.5 - 1e-12

    def test_non_monotone_rejected_with_matrix_named(self):
        # off-diagonal dominance fails: a12 > min(a11, a22)
        bad = np.array([[1.0, 1.4], [1.4, 2.5]])
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: 0.0, boundary=lambda x, y: 0.0)
        # the second family is ragged, its violating control in the longer row
        for fams, label in (([[bad]], "(0,0)"),
                            ([[np.eye(2)], [np.eye(2), np.eye(2), bad]], "(1,2)")):
            with pytest.raises(NonMonotoneScheme) as err:
                solve_dirichlet_2d(isaacs(0.1, 4.0, 2, fams), prob, h=1.0 / 8)
            assert str(err.value) == (
                f"control matrix {label} = [[1,1.4],[1.4,2.5]] violates diagonal "
                "dominance; anisotropy too strong for the 9-point stencil")

    @pytest.mark.parametrize("domain", [Rectangle(0.0, 1.0, 0.0, 1.0),
                                        Annulus(1.0, 2.0)])
    @pytest.mark.parametrize("h", [-0.125, 0.0, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, pm2, domain, h):
        prob = DirichletProblem(domain=domain, n=2, rhs=lambda x, y: 1.0)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            solve_dirichlet_2d(pm2, prob, h)

    def test_problem_must_be_2d(self, pm2):
        prob = DirichletProblem(domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=7,
                                rhs=lambda x, y: 1.0)
        with pytest.raises(ValueError, match="2D solver needs problem n=2, got n=7"):
            solve_dirichlet_2d(pm2, prob, 0.125)

    @pytest.mark.parametrize("cells", [-2, 0, 1])
    def test_rectangle_needs_two_cells(self, cells):
        with pytest.raises(ValueError, match="need at least 2 cells"):
            Rectangle(0.0, 2.0, 0.0, 1.0).grid_step(cells)
        assert Rectangle(0.0, 2.0, 0.0, 1.0).grid_step(8) == 0.125

    def test_annulus_grid_path(self, lap3):
        lap2 = laplacian(2)
        # annulus boundary data lives on the two circles: g = g(r)
        prob = DirichletProblem(
            domain=Annulus(1.0, 2.0), n=2,
            boundary=lambda r: 1.0 if r < 1.5 else 0.0)
        fld = solve_dirichlet_2d(lap2, prob, h=1.0 / 16)
        interior = fld.values[fld.interior]
        assert interior.min() >= -1e-12 and interior.max() <= 1.0 + 1e-12


def _stencil_coeffs_reference(a, h):
    """Per-node 9-point coefficients of -tr(A D^2 .), keyed by offset."""
    a11, a12, a22 = a[0, 0], a[0, 1], a[1, 1]
    h2 = h * h
    c = {}
    m = abs(a12)
    c[(1, 0)] = -(a11 - m) / h2
    c[(-1, 0)] = -(a11 - m) / h2
    c[(0, 1)] = -(a22 - m) / h2
    c[(0, -1)] = -(a22 - m) / h2
    if a12 >= 0:
        c[(1, 1)] = -m / h2
        c[(-1, -1)] = -m / h2
        c[(1, -1)] = 0.0
        c[(-1, 1)] = 0.0
    else:
        c[(1, -1)] = -m / h2
        c[(-1, 1)] = -m / h2
        c[(1, 1)] = 0.0
        c[(-1, -1)] = 0.0
    c[(0, 0)] = -sum(v for k, v in c.items() if k != (0, 0))
    return c


def _apply_stencil_reference(values, coeffs, i, j):
    total = 0.0
    for off, c in coeffs.items():
        if c == 0.0:
            continue
        total += c * values[i + off[0], j + off[1]]
    return total


def _reference_f_h(fams, h, values, interior):
    """sup-inf of the per-node stencil sums, with the chosen coefficients."""
    cache = [[_stencil_coeffs_reference(a, h) for a in row] for row in fams]
    out, chosen = [], []
    for i, j in np.argwhere(interior).tolist():
        best, arg = -math.inf, None
        for row in cache:
            worst, warg = math.inf, None
            for c in row:
                v = _apply_stencil_reference(values, c, i, j)
                if v < worst:
                    worst, warg = v, c
            if worst > best:
                best, arg = worst, warg
        out.append(best)
        chosen.append(arg)
    return np.array(out), chosen


def _annulus_reference(dom, h, boundary):
    """Per-node construction of the annulus grid: interior mask and ring data."""
    half = int(math.ceil(dom.r1 / h)) + 2
    nx = ny = 2 * half + 1
    x0 = y0 = -half * h
    rad = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            rad[i, j] = math.hypot(x0 + i * h, y0 + j * h)
    inside = (rad > dom.r0) & (rad < dom.r1)
    interior = np.zeros((nx, ny), dtype=bool)
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            if inside[i, j] and inside[i - 1:i + 2, j - 1:j + 2].all():
                interior[i, j] = True
    bvals = np.full((nx, ny), np.nan)
    for i in range(nx):
        for j in range(ny):
            if interior[i, j]:
                continue
            if interior[max(0, i - 1):i + 2, max(0, j - 1):j + 2].any():
                near_r0 = abs(rad[i, j] - dom.r0) < abs(rad[i, j] - dom.r1)
                bvals[i, j] = boundary(dom.r0 if near_r0 else dom.r1)
    return x0, interior, bvals


class TestKernel2D:
    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs_2d"])
    def test_matches_per_node_reference(self, name):
        if name == "isaacs_2d":
            op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
        else:
            op = {"laplacian": laplacian(2), "pucci_max": pucci_max(1.0, 2.0, 2),
                  "pucci_min": pucci_min(1.0, 2.0, 2)}[name]
        h = 1.0 / 8
        fams = _control_families(op)
        rng = np.random.default_rng(7)
        grid = _Grid2D.build(DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2), h)
        coef = _stencil_coefficients(fams, h)
        for _ in range(3):
            values = rng.standard_normal(grid.interior.shape)
            want, chosen = _reference_f_h(fams, h, values, grid.interior)
            got, row, ctl = _evaluate_2d(coef, values.ravel()[grid.nbr])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # the chosen control is the reference's: no two controls of a
            # family are equal up to rounding, so rounding decides no choice
            order = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                     (1, -1), (-1, 1), (0, 0)]
            want_coef = np.array([[c[o] for o in order] for c in chosen])
            assert np.array_equal(coef[row, ctl], want_coef)

    @pytest.mark.parametrize("sign,want_ctl,want_f", [(1.0, 0, -8.0),
                                                      (-1.0, 1, 4.0)])
    def test_tie_breaks(self, sign, want_ctl, want_f):
        # both rows hold {2I, I}, so their minima tie exactly: the first row
        # wins, and within it the first minimum
        two, one = 2.0 * np.eye(2), np.eye(2)
        # the short row padded with its first control, as matcore pads it
        coef = _stencil_coefficients(np.array([[two, one, two], [one, two, one]]),
                                     0.25)
        grid = _Grid2D.build(DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2), 0.25)
        xs = np.arange(5) * 0.25
        values = sign * (xs[:, None] ** 2 + xs[None, :] ** 2)
        got, row, ctl = _evaluate_2d(coef, values.ravel()[grid.nbr])
        assert np.all(row == 0) and np.all(ctl == want_ctl)
        assert np.allclose(got, want_f)

    @pytest.mark.parametrize("r0,r1", [(1.0, 2.0), (0.5, 3.0)])
    @pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16])
    def test_annulus_masks_match_per_node_construction(self, r0, r1, h):
        dom = Annulus(r0, r1)
        x0, interior, bvals = _annulus_reference(dom, h, lambda r: r)
        grid = _Grid2D.build(DirichletProblem(domain=dom, n=2,
                                              boundary=lambda r: r), h)
        assert grid.x0 == x0
        assert np.array_equal(grid.interior, interior)
        assert np.array_equal(grid.boundary_values, bvals, equal_nan=True)

    def test_rectangle_step_must_divide_sides(self):
        prob = DirichletProblem(domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2)
        with pytest.raises(ValueError, match="x side"):
            solve_dirichlet_2d(laplacian(2), prob, h=0.3)
        tall = DirichletProblem(domain=Rectangle(0.0, 1.0, 0.0, 1.3), n=2)
        with pytest.raises(ValueError, match="y side"):
            solve_dirichlet_2d(laplacian(2), tall, h=0.25)
        # 1 / (1/12) is not exactly 12 in floating point
        fld = solve_dirichlet_2d(laplacian(2), prob, h=1.0 / 12)
        assert fld.values.shape == (13, 13)

    @pytest.mark.parametrize("make", [pucci_max, pucci_min])
    def test_pucci_family_has_no_repeated_controls(self, make):
        # lam*I and Lam*I are rotation-invariant, so they appear once
        mats = np.array([a for row in _control_families(make(1.0, 2.0, 2))
                         for a in row])
        assert len(mats) == 50
        gap = np.abs(mats[:, None] - mats[None, :]).max(axis=(2, 3))
        assert np.all(gap[~np.eye(len(mats), dtype=bool)] > 1e-12)


class TestField2DInterp:
    def field(self):
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: -4.0, boundary=lambda x, y: x * x + y * y)
        return solve_dirichlet_2d(laplacian(2), prob, h=1.0 / 8)

    def test_closed_upper_edges(self):
        fld = self.field()
        assert fld.interp(1.0, 0.5) == pytest.approx(1.25, abs=1e-12)
        assert fld.interp(0.5, 1.0) == pytest.approx(1.25, abs=1e-12)
        assert fld.interp(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert fld.interp(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x,y", [(-0.05, 0.5), (0.5, -0.05), (1.05, 0.5),
                                     (0.5, 1.05)])
    def test_outside_rejected(self, x, y):
        with pytest.raises(ValueError, match="outside"):
            self.field().interp(x, y)

    def test_arrays_match_the_scalar_form(self):
        fld = self.field()
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, 1.0, (2, 200))
        edge = np.array([0.0, 1.0, 0.5, 0.125, 1.0 + 1e-10, -1e-10])
        x = np.concatenate([x, edge, np.full(6, 0.75), edge])
        y = np.concatenate([y, np.full(6, 0.25), edge, edge[::-1]])
        got = fld.interp(x, y)
        assert got.shape == x.shape
        want = [fld.interp(float(a), float(b)) for a, b in zip(x, y)]
        assert np.array_equal(got, want)
        assert np.array_equal(fld.interp(x[:, None], y[None, :5]),
                              [[fld.interp(float(a), float(b)) for b in y[:5]]
                               for a in x])

    def test_arrays_outside_rejected(self):
        x = np.array([[0.5, 0.25], [1.05, 0.0]])
        with pytest.raises(ValueError, match=r"point \(1.05, 0.5\) lies outside"):
            self.field().interp(x, np.full(x.shape, 0.5))


class TestFundamentalProfile:
    def test_pucci_max_n3(self, pm3):
        prof = fundamental_profile(pm3, 3, cells=512)
        assert not prof.log_case
        assert prof.fitted_alpha == pytest.approx(3.0, rel=0.01)

    def test_laplacian_n3(self):
        prof = fundamental_profile(laplacian(3), 3, cells=512)
        assert prof.fitted_alpha == pytest.approx(1.0, rel=0.01)

    def test_laplacian_n2_log_case(self):
        prof = fundamental_profile(laplacian(2), 2, cells=512)
        assert prof.log_case

    def test_pucci_min_log_case(self, pmin3):
        prof = fundamental_profile(pmin3, 3, cells=512)
        assert prof.log_case

    def test_min_max_fits_agree_for_rot_invariant(self, pm3):
        prof = fundamental_profile(pm3, 3, cells=512)
        rep = prof.fit_report
        assert rep["alpha_min_fit"] == rep["alpha_max_fit"]

    @pytest.mark.parametrize("make,n,want", [
        (lambda: pucci_max(1.0, 2.0, 3), 3, 3.0000659827929423),
        (lambda: laplacian(3), 3, 1.000002443721213),
    ], ids=["pucci_max", "laplacian"])
    def test_fitted_alpha_pinned(self, make, n, want):
        prof = fundamental_profile(make(), n, cells=512)
        assert prof.fitted_alpha == pytest.approx(want, rel=1e-12, abs=0.0)
        assert prof.fit_report["alpha_max_fit"] == prof.fit_report["alpha_min_fit"]

    def test_isaacs_2d_fits_pinned(self):
        op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
        rep = fundamental_profile(op, 2, cells=128).fit_report
        assert rep["alpha_min_fit"] == pytest.approx(0.3448206800134577, abs=1e-9)
        assert rep["alpha_max_fit"] == pytest.approx(0.16166052521976498, abs=1e-9)

    def test_isaacs_2d_partial_spheres_rejected(self):
        # at 64 cells 130 samples on 3 of the 33 spheres lie off the annulus
        # grid, and the min and max of part of a sphere are not the sphere's
        op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
        with pytest.raises(ValueError, match="130 of the 4224 sphere samples "
                                             "fell off the grid"):
            fundamental_profile(op, 2, cells=64)

    @pytest.mark.parametrize("cells", [-4, 0, 1])
    def test_isaacs_2d_needs_two_cells(self, cells):
        # 0 cells ended in a ZeroDivisionError on the 2D path
        op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
        with pytest.raises(ValueError, match="need at least 2 cells"):
            fundamental_profile(op, 2, cells=cells)

    @pytest.mark.parametrize("alpha", [None, 0.3, 1.7])
    def test_line_fit_matches_lstsq(self, alpha):
        sig = np.geomspace(2.0, 8.0, 33)
        x = np.log(sig) if alpha is None else sig ** (-alpha)
        noise = np.random.default_rng(11).standard_normal(sig.size)
        m = 0.7 - 1.3 * x + 1e-3 * noise
        basis = np.column_stack([x, np.ones_like(x)])
        want, *_ = np.linalg.lstsq(basis, m, rcond=None)
        want_rss = np.sqrt(np.mean((m - basis @ want) ** 2))
        coef, rss = _line_fit(x, m)
        assert np.allclose(coef, want, rtol=1e-12, atol=0.0)
        assert rss == pytest.approx(want_rss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("make,n,want", [
        (lambda: pucci_min(1.0, 4.0, 4), 4, -0.25),
        (lambda: pucci_min(1.0, 2.0, 2), 2, -0.5),
    ], ids=["pucci_min_1_4_4", "pucci_min_1_2_2"])
    def test_negative_exponent_is_signed(self, make, n, want):
        # alpha* < 0 is no log case: the fit reads the exponent's sign
        prof = fundamental_profile(make(), n, cells=512)
        assert not prof.log_case
        assert prof.fitted_alpha == pytest.approx(want, abs=1e-6)
        assert prof.fit_report["alpha_min_fit"] == prof.fitted_alpha

    @pytest.mark.parametrize("cells", [16, 100, 512])
    @pytest.mark.parametrize("shift", [1e-6, -1e-6, 0.0])
    def test_log_case_is_alpha_star_tie_rule(self, cells, shift):
        # pucci_min(1, 2/(1 + shift), 3) has alpha* = shift: only 0 is a log
        # case, at cell counts whose nodes miss the sample radii too
        op = pucci_min(1.0, 2.0 / (1.0 + shift), 3)
        prof = fundamental_profile(op, 3, cells=cells)
        assert prof.log_case == (shift == 0.0)
        if shift:
            assert prof.fitted_alpha == pytest.approx(shift, rel=1e-2)
        else:
            assert prof.fitted_alpha == 0.0
            assert abs(prof.fit_report["alpha_min_fit"]) < 1e-14

    @pytest.mark.parametrize("cells", [64, 512])
    @pytest.mark.parametrize("make,n", [
        (lambda: laplacian(2), 2), (lambda: laplacian(3), 3),
        (lambda: pucci_max(1.0, 2.0, 2), 2), (lambda: pucci_max(1.0, 2.0, 3), 3),
        (lambda: pucci_max(1.0, 3.0, 4), 4), (lambda: pucci_min(1.0, 2.0, 3), 3),
        (lambda: pucci_min(1.0, 4.0, 4), 4), (lambda: pucci_min(1.0, 2.0, 2), 2),
        (lambda: pucci_min(1.0, 2.0 / (1.0 + 1e-6), 3), 3),
        (lambda: pucci_min(1.0, 2.0 / (1.0 - 1e-6), 3), 3),
    ], ids=["lap2", "lap3", "pmax2", "pmax3", "pmax_1_3_4", "pmin3", "pmin_1_4_4",
            "pmin2", "alpha_1e-6", "alpha_-1e-6"])
    def test_error_within_stated_bound(self, make, n, cells):
        # fundamental_profile's docstring: |fitted - alpha*| <= |alpha*|
        # (1 + alpha*^2) h^2/6 + 1e-10, h = log(16)/cells, when |alpha*| h <= 1
        op = make()
        want = alpha_star(op, n).alpha_star
        h = math.log(16.0) / cells
        assert abs(want) * h <= 1.0
        got = fundamental_profile(op, n, cells=cells).fitted_alpha
        assert abs(got - want) <= abs(want) * (1 + want * want) * h * h / 6 + 1e-10

    def test_sign_change_raises_naming_the_radius(self):
        # m = -(log s - log 3)^2 has d(s) = m(s) - m(sqrt(2) s) < 0 up to
        # s = 3 2^(-1/4) and > 0 past it
        sig = np.geomspace(2.0, 8.0, 33)
        flip = sig[np.argmax(sig > 3.0 * 2.0 ** -0.25)]
        with pytest.raises(ValueError, match=rf"changes sign at s = {flip:.6g};"):
            _slope_fit(sig, -np.log(sig / 3.0) ** 2)
        with pytest.raises(ValueError, match=r"changes sign at s = 2;"):
            _slope_fit(sig, np.ones_like(sig))

    @pytest.mark.parametrize("cells", [128, 256])
    def test_isaacs_2d_fits_form_an_interval(self, cells):
        op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
        prof = fundamental_profile(op, 2, cells=cells)
        rep = prof.fit_report
        assert 0.0 < rep["alpha_max_fit"] < rep["alpha_min_fit"] < 1.0
        assert prof.fitted_alpha == rep["alpha_min_fit"] and not prof.log_case
        assert set(rep) == {"slope_rms", "alpha_min_fit", "alpha_max_fit",
                            "bracket", "sigma_window"}


def _pattern_weights_reference(f_op, n, a, b):
    """Per-node frozen-control coefficients (wa, wb), F = -(wa*a + wb*b)."""
    if f_op.kind == LAPLACIAN:
        return 1.0, float(n - 1)
    if f_op.kind in (PUCCI_MAX, PUCCI_MIN):
        lam, Lam = f_op.lam, f_op.Lam
        if f_op.kind == PUCCI_MAX:
            wa = lam if a > 0 else Lam
            wb = lam if b > 0 else Lam
        else:
            wa = Lam if a > 0 else lam
            wb = Lam if b > 0 else lam
        return wa, (n - 1) * wb
    best, arg = -math.inf, None
    for row in f_op.families:
        worst, warg = math.inf, None
        for amat in row:
            dense = amat.to_dense()
            a11 = dense[0, 0]
            s = float(np.trace(dense)) - a11
            v = -(a11 * a + s * b)
            if v < worst:
                worst, warg = v, (a11, s)
        if worst > best:
            best, arg = worst, warg
    return arg


def _pattern_value_reference(f_op, n, a, b):
    """Per-node F(diag(a, b, ..., b))."""
    if f_op.kind == LAPLACIAN:
        return -(a + (n - 1) * b)
    if f_op.kind in (PUCCI_MAX, PUCCI_MIN):
        wa, wb = _pattern_weights_reference(f_op, n, a, b)
        return -(wa * a + wb * b)
    best = -math.inf
    for row in f_op.families:
        worst = math.inf
        for amat in row:
            dense = amat.to_dense()
            a11 = dense[0, 0]
            s = float(np.trace(dense)) - a11
            worst = min(worst, -(a11 * a + s * b))
        best = max(best, worst)
    return best


def _radial_coefficients(h, ri, is_ball):
    """The second- and first-difference coefficients (ca, cb) of the stencil
    at the interior radius ri: a = D2 u, b = D1 u / r on a ball, and
    a = D2 U - D1 U, b = D1 U, each over r^2, on the log grid of an annulus."""
    if is_ball:
        return 1.0 / h ** 2, 1.0 / (2.0 * h * ri)
    return 1.0 / (ri ** 2 * h ** 2), 1.0 / (ri ** 2 * 2.0 * h)


def _radial_system_reference(f_op, n, u, h, r, rhs, is_ball):
    """Per-node assembly of one policy-iteration sweep: (CSR matrix, rhs);
    log grid on an annulus, uniform grid on a ball, whose centre comes first
    in the rhs and the unknowns."""
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    d1 = (u[2:] - u[:-2]) / (2.0 * h)
    ri_all = r[1:-1]
    if is_ball:
        a, b = d2, d1 / ri_all
    else:
        a, b = (d2 - d1) / ri_all ** 2, d1 / ri_all ** 2
    m = len(u) - 2
    nun = m + 1 if is_ball else m
    rows, cols, vals = [], [], []
    rvec = np.zeros(nun)
    for i in range(m):
        wa, wb = _pattern_weights_reference(f_op, n, a[i], b[i])
        ca, cb = _radial_coefficients(h, r[1 + i], is_ball)
        if is_ball:
            cm = -(wa * ca - wb * cb)
            cc = -(wa * (-2.0 * ca))
            cp = -(wa * ca + wb * cb)
        else:
            cm = -(wa * (ca + cb) + wb * (-cb))
            cc = -(wa * (-2.0 * ca))
            cp = -(wa * (ca - cb) + wb * cb)
        row = 1 + i if is_ball else i
        rows.append(row); cols.append(row); vals.append(cc)
        rvec[row] += rhs[row]
        for node, coef in ((i, cm), (i + 2, cp)):
            if node == len(u) - 1 or (not is_ball and node == 0):
                rvec[row] -= coef * u[node]
            else:
                rows.append(row); cols.append(node if is_ball else node - 1)
                vals.append(coef)
    if is_ball:
        a0 = 2.0 * (u[1] - u[0]) / h ** 2
        wa, wb = _pattern_weights_reference(f_op, n, a0, a0)
        w = wa + wb
        c0 = 2.0 / h ** 2
        rows += [0, 0]; cols += [0, 1]; vals += [w * c0, -w * c0]
        rvec[0] += rhs[0]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(nun, nun)), rvec


def _radial_table(op):
    """The (a11, s) table a radial grid hands ``_pattern_weights``."""
    return control_table(op)[1:] if op.kind == ISAACS else None


def _radial_ops(n):
    # ragged rotation-invariant Isaacs: rows of 2 and 1 multiples of I; the
    # 1.5 I in both rows makes the row minima tie exactly
    eye = np.eye(n)
    return {"laplacian": laplacian(n), "pucci_max": pucci_max(1.0, 2.0, n),
            "pucci_min": pucci_min(1.0, 2.0, n),
            "isaacs": isaacs(1.0, 2.0, n, [[2.0 * eye, 1.5 * eye], [1.5 * eye]],
                             rot_invariant=True)}


class TestRadialKernel:
    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_per_node_reference(self, name, n):
        op = _radial_ops(n)[name]
        rng = np.random.default_rng(11 + n)
        a, b = rng.standard_normal((2, 400))
        a[::7] = 0.0
        b[::5] = 0.0
        a[3::11] = -(n - 1) * b[3::11]       # every control gives F = 0
        wa, wb = _pattern_weights(op, n, a, b, _radial_table(op))
        value = -(wa * a + wb * b)           # F as _RadialGrid.apply forms it
        for i in range(a.size):
            assert (wa[i], wb[i]) == _pattern_weights_reference(op, n, a[i], b[i])
            assert value[i] == _pattern_value_reference(op, n, a[i], b[i])

    @pytest.mark.parametrize("name", ["pucci_max", "isaacs"])
    # the label is the grid the domain gives, as the solve's meta names it
    @pytest.mark.parametrize("domain,label", [(Annulus(1.0, 16.0), "log"),
                                              (Ball(1.0), "linear"),
                                              (Annulus(1.0, 3.0), "log")])
    def test_system_matches_per_node_assembly(self, name, domain, label):
        op = _radial_ops(3)[name]
        prob = DirichletProblem(domain=domain, n=3, rhs=lambda r: math.cos(r))
        grid = _RadialGrid.for_solve(op, 3, prob, 64)
        assert grid.meta["spacing"] == label
        r, h, is_ball = grid.r, _radial_grid(domain, 64)[1], isinstance(domain, Ball)
        rhs = _radial_rhs(prob, r)
        rng = np.random.default_rng(5)
        u = np.sin(3.0 * r) + 0.1 * rng.standard_normal(r.size)
        wa, wb = grid.apply(u)[1]
        # the sweep's rhs is what its step hands the linear solve; the step
        # reads the boundary data of ``first``, here u's
        rvecs = []
        grid._solve = lambda policy, rvec: rvecs.append(rvec) or rvec
        grid.first = u
        grid.step((wa, wb), rhs)
        band, (rvec,) = grid.system((wa, wb)), rvecs
        want_mat, want_rvec = _radial_system_reference(op, 3, u, h, r, rhs, is_ball)
        assert want_mat.nnz == 3 * len(band) - 2            # tridiagonal
        dense, want = _band_matrix(band), want_mat.toarray()
        assert np.abs(dense - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(rvec - want_rvec).max() <= 1e-15 * np.abs(want_rvec).max()

    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs"])
    def test_signed_min_residual_matches_reference(self, name):
        op = _radial_ops(3)[name]
        nodes = np.geomspace(1.0, 4.0, 65)
        rng = np.random.default_rng(3)
        fld = RadialField(n=3, nodes=nodes,
                          values=nodes ** -1.0 + 0.01 * rng.standard_normal(65))
        # the solver's step: that of the linspace in log r, not log(r1 / r0)
        t = np.linspace(math.log(1.0), math.log(4.0), 65)
        u, want = fld.values, math.inf
        for i in range(1, 64):
            # the stencil's terms, summed left to right as the kernel sums them
            ca, cb = _radial_coefficients(t[1] - t[0], nodes[i], False)
            a = (ca + cb) * u[i - 1] + -2.0 * ca * u[i] + (ca - cb) * u[i + 1]
            b = -cb * u[i - 1] + 0.0 * cb * u[i] + cb * u[i + 1]
            want = min(want, _pattern_value_reference(op, 3, a, b))
        assert _signed_min_residual(op, fld) == want

    @pytest.mark.parametrize("prob,cells", [
        (DirichletProblem(domain=Annulus(1.0, 16.0), n=3, rhs=lambda r: 1.0), 128),
        (DirichletProblem(domain=Ball(2.0), n=3, rhs=lambda r: 1.0 + r,
                          boundary=lambda r: 0.3), 64),
    ], ids=["annulus", "ball"])
    def test_signed_min_residual_is_the_solvers(self, prob, cells):
        # the minimum of F_h u on the solve's own grid, a ball's centre row
        # included
        op = pucci_max(1.0, 2.0, 3)
        fld = solve_dirichlet_radial(op, 3, prob, cells)
        fu = _RadialGrid.for_solve(op, 3, prob, cells).apply(fld.values)[0]
        assert _signed_min_residual(op, fld) == fu.min()
        if isinstance(prob.domain, Annulus):
            # pinned to the bit: a change to the kernel or the solve moves it
            assert _signed_min_residual(op, fld) == 0.9999999999979963
        else:
            assert fu.argmin() == 0                  # the centre row, first
            assert fu[1:].min() > fu.min()


# ---------------------------------------------------------------------------
# the linear solve, warm starts and field-valued rhs

SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)
SOLVE_CASES = ["log", "isaacs", "ball", "laplacian_2d", "pucci_2d", "isaacs_2d",
               "annulus_2d"]


def _case(name):
    """(operator, problem, radial cells or 2D step) of one solve per kind of
    system the linear solve sees."""
    if name == "log":
        prob = DirichletProblem(domain=Annulus(1.0, 16.0), n=3,
                                rhs=lambda r: math.cos(r),
                                boundary=lambda r: 1.0 / r)
        return pucci_max(1.0, 2.0, 3), prob, 128
    if name == "isaacs":
        prob = DirichletProblem(domain=Annulus(1.0, 3.0), n=3,
                                rhs=lambda r: math.sin(2.0 * r),
                                boundary=lambda r: r)
        return _radial_ops(3)["isaacs"], prob, 128
    if name == "ball":
        prob = DirichletProblem(domain=Ball(1.0), n=3, rhs=lambda r: 1.0 + r,
                                boundary=lambda r: 0.5)
        return pucci_min(1.0, 2.0, 3), prob, 128
    if name == "annulus_2d":
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=2,
                                rhs=lambda x, y: 0.5, boundary=lambda r: 1.0 / r)
        return laplacian(2), prob, 1.0 / 8
    op = {"laplacian_2d": laplacian(2), "pucci_2d": pucci_max(1.0, 2.0, 2),
          "isaacs_2d": parse_operator_spec(
              (SAMPLES / "isaacs_2d.json").read_text())}[name]
    prob = DirichletProblem(domain=SQUARE, n=2, rhs=lambda x, y: 1.0 + x * y,
                            boundary=lambda x, y: x * x + 0.5 * y)
    return op, prob, 1.0 / 8


def _solve_case(name):
    """The solve of ``_case(name)`` on a grid of its own."""
    op, prob, size = _case(name)
    if isinstance(size, int):            # radial cells; a 2D step is a float
        return solve_dirichlet_radial(op, 3, prob, size)
    return solve_dirichlet_2d(op, prob, size)


class TestResidualNormOfSolves:
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_matches_the_solver_residual(self, name):
        # the 2D entries read the solver's kernel on a Field2D
        op, prob, _ = _case(name)
        fld = _solve_case(name)
        assert residual_norm(op, fld, prob) == fld.meta["residual"]


def _band_matrix(band):
    """The dense matrix of a radial (unknowns, 3) band: row k on unknowns
    k-1, k, k+1."""
    return np.diag(band[1:, 0], -1) + np.diag(band[:, 1]) + np.diag(band[:-1, 2], 1)


def _tridiagonal_solve(band, rhs):
    """A fresh LAPACK solve with the band's matrix A by the LU of A^T: the
    radial grid's arithmetic, run here outside it."""
    *lu, info = lapack.dgttrf(band[:-1, 2], band[:, 1], band[1:, 0])
    assert info == 0
    return lapack.dgttrs(*lu, rhs, trans="T")[0]


# SuperLU's arguments for the LU of a 2D sweep's transposed matrix
SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
                 panel_size=1, options=dict(SymmetricMode=True))


def _fresh_solve(grid, system, mat, rhs):
    """The solution a sweep's solve must give bit for bit: a fresh LAPACK
    solve of a radial band, a fresh SuperLU solve in symmetric mode of a 2D
    matrix's transpose."""
    if isinstance(grid, _RadialGrid):
        return _tridiagonal_solve(system, rhs)
    return spla.splu(sparse.csc_matrix(mat.T), **SYMMETRIC).solve(rhs, trans="T")


def _matrix(grid, system):
    """The CSR matrix of a sweep's system: a radial band's, or that of 2D
    coefficient rows on the unknowns (a boundary neighbor's entry is data)."""
    if isinstance(grid, _RadialGrid):
        return sparse.csr_matrix(_band_matrix(system))
    i, k = np.nonzero((grid.col >= 0) & (system != 0.0))
    return sparse.csr_matrix((system[i, k], (i, grid.col[i, k])),
                             shape=(grid.nodes.size,) * 2)


def _systems(monkeypatch, name):
    """(grid, policy, system, matrix, rhs) of every sweep of a cold solve; the
    system is what ``_HeldLU._solve`` factorizes for a new policy, rebuilt
    from the policy by ``grid.system``: a radial sweep's band, a 2D sweep's
    coefficient rows."""
    seen = []
    inner = _HeldLU._solve

    def spy(grid, policy, rhs):
        system = grid.system(policy)
        seen.append((grid, policy, system, _matrix(grid, system), rhs.copy()))
        return inner(grid, policy, rhs)

    monkeypatch.setattr(_HeldLU, "_solve", spy)
    _solve_case(name)
    monkeypatch.setattr(_HeldLU, "_solve", inner)
    return seen


def _forbidden(*args, **kwargs):
    raise AssertionError("a held LU needs no matrix and no factorization")


def _splu_options(monkeypatch, skew=False):
    """Log the keyword arguments of every ``spla.splu`` call and return the
    log.  With ``skew`` each LU reports its row permutation rolled by one, as
    if its pivots had left the diagonal."""
    log = []
    splu = spla.splu

    class SkewedLU:
        def __init__(self, lu):
            self.lu, self.perm_c, self.perm_r = lu, lu.perm_c, np.roll(lu.perm_r, 1)

        def solve(self, *args, **kwargs):
            return self.lu.solve(*args, **kwargs)

    def logged_splu(*args, **kwargs):
        log.append(kwargs)
        lu = splu(*args, **kwargs)
        return SkewedLU(lu) if skew else lu

    monkeypatch.setattr(spla, "splu", logged_splu)
    return log


class TestFactorizationReuse:
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_matches_a_fresh_factorization(self, monkeypatch, name):
        # a sweep's solution has the bits of a fresh factorization of its
        # matrix's transpose, a radial one LAPACK's, a 2D one SuperLU's in
        # symmetric mode, and lies within rounding of spsolve's
        systems = _systems(monkeypatch, name)
        assert systems
        radial = isinstance(systems[0][0], _RadialGrid)
        others = [np.cos(np.arange(rhs.size, dtype=float)) for *_, rhs in systems]
        wants = [(_fresh_solve(grid, system, mat, rhs),
                  _fresh_solve(grid, system, mat, other))
                 for (grid, _, system, mat, rhs), other in zip(systems, others)]
        calls = counted_solves(monkeypatch)
        options = _splu_options(monkeypatch)
        for (grid, policy, system, mat, rhs), other, (want, other_want) in zip(
                systems, others, wants):
            # a new policy is factorized once, on either grid: a radial band
            # by LAPACK, a 2D matrix by SuperLU with the arguments above
            grid._held = (None, None)
            calls.clear()
            options.clear()
            assert np.array_equal(grid._solve(policy, rhs), want)
            assert calls == ["factorize", "solve"]
            assert options == ([] if radial else [SYMMETRIC])
            sp = spla.spsolve(mat, rhs)
            assert np.abs(want - sp).max() <= 1e-12 * np.abs(sp).max()
            # its repeats build no system and factorize nothing
            with monkeypatch.context() as m:
                for owner, attr in ((type(grid), "system"), (type(grid), "_factorize"),
                                    (spla, "splu"), (lapack, "dgttrf")):
                    m.setattr(owner, attr, _forbidden)
                for b, b_want in ((other, other_want), (rhs, want)):
                    assert np.array_equal(grid._solve(policy, b), b_want)

    @pytest.mark.parametrize("name", ["log", "pucci_2d"])
    def test_a_new_policy_is_factorized_once(self, monkeypatch, name):
        # a new policy is factorized once and held; a repeat only solves
        (grid, p0, s0, m0, rhs), (_, p1, s1, m1, _) = \
            _systems(monkeypatch, name)[:2]
        assert (m0 != m1).nnz
        steps = [(p0, s0, m0, rhs, 1), (p0, s0, m0, 2.0 * rhs, 1),
                 (p0, s0, m0, rhs + 1.0, 1), (p1, s1, m1, rhs, 2),
                 (p1, s1, m1, rhs, 2), (p0, s0, m0, rhs, 3)]
        wants = [_fresh_solve(grid, system, mat, b) for _, system, mat, b, _ in steps]
        calls = counted_solves(monkeypatch)
        grid._held = (None, None)
        for (p, *_, b, factorized), want in zip(steps, wants):
            assert np.array_equal(grid._solve(p, b), want)
            assert calls.count("factorize") == factorized
        assert calls.count("solve") == len(steps)

    def test_an_off_diagonal_pivot_raises(self, monkeypatch):
        # the 2D LU pivots on the diagonal: an LU that reports a pivot off it
        # raises, naming the first, and holds nothing
        grid, policy, _, _, rhs = _systems(monkeypatch, "pucci_2d")[0]
        _splu_options(monkeypatch, skew=True)
        grid._held = (None, None)
        with pytest.raises(RuntimeError, match=r"SuperLU pivoted off the diagonal: "
                                               r"unknown 0 of 49 has row position \d+ but "
                                               r"column position \d+$"):
            grid._solve(policy, rhs)
        assert grid._held == (None, None)


# c of the bound |b - A x| <= c eps (|A| |x| + |b|) on every radial solve.  For
# a tridiagonal M-matrix, Gaussian elimination without pivoting gives
# (A + dA) x = b with |dA| <= f(u) |A|, f(u) ~ 4u = 2 eps (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., Thm 9.12); the transposed LU
# is that elimination on A^T.  Where rounding breaks a tie of a ball's band
# and LAPACK swaps rows, the bound for diagonally dominant bands is at most 3
# times that, 6 eps; forming b - A x adds at most 2 eps more.
BACKWARD_C = 8.0


def _backward_error(mat, rhs, x):
    """max_i |b - A x|_i / (|A| |x| + |b|)_i in units of eps, for a dense or
    sparse matrix A: the componentwise backward error of x (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 7.1)."""
    err = np.abs(rhs - mat @ x) / (abs(mat) @ np.abs(x) + np.abs(rhs))
    return err.max() / np.finfo(float).eps


def _sweep_solves(monkeypatch, call):
    """(matrix, rhs, solution) of every ``_HeldLU._solve`` that ``call``
    makes: each sweep's, and each linear step's of the eigen loop."""
    seen, inner = [], _HeldLU._solve

    def spy(grid, policy, rhs):
        x = inner(grid, policy, rhs)
        seen.append((_matrix(grid, grid.system(policy)), rhs.copy(), x.copy()))
        return x

    monkeypatch.setattr(_HeldLU, "_solve", spy)
    call()
    monkeypatch.setattr(_HeldLU, "_solve", inner)
    return seen


class TestTridiagonalSolve:
    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs"])
    @pytest.mark.parametrize("domain", [Annulus(1.0, 16.0), Annulus(1.0, 2.0),
                                        Ball(1.0)], ids=["annulus16", "annulus2", "ball"])
    def test_every_sweep_is_backward_stable(self, monkeypatch, name, domain):
        # each solve's x meets |b - A x| <= BACKWARD_C eps (|A| |x| + |b|), A
        # the sweep's matrix, at every node; the eigen loop's steps as well
        op = _radial_ops(3)[name]
        prob = DirichletProblem(domain=domain, n=3, rhs=lambda r: 1.0 + math.cos(3.0 * r),
                                boundary=lambda r: 1.0 / (1.0 + r))
        seen = []
        for cells in (16, 128, 512):
            seen += _sweep_solves(monkeypatch, lambda: solve_dirichlet_radial(
                op, 3, prob, cells))
        seen += _sweep_solves(monkeypatch, lambda: principal_eigenvalue(op, domain, 256))
        assert len(seen) > 10
        for mat, rhs, x in seen:
            assert _backward_error(mat, rhs, x) <= BACKWARD_C

    @pytest.mark.parametrize("domain", [Annulus(1.0, 2.0), Ball(1.0)],
                             ids=["annulus", "ball"])
    @pytest.mark.parametrize("cells", [2, 3, 4])
    def test_fewer_than_three_unknowns(self, monkeypatch, domain, cells):
        # 1 or 2 unknowns, which scipy's gttrf does not take, solve as a
        # dense LU does, backward stable
        prob = DirichletProblem(domain=domain, n=3, rhs=lambda r: 1.0 + r,
                                boundary=lambda r: 0.5)
        seen = _sweep_solves(monkeypatch, lambda: solve_dirichlet_radial(
            pucci_max(1.0, 2.0, 3), 3, prob, cells))
        assert seen
        for mat, rhs, x in seen:
            assert _backward_error(mat, rhs, x) <= BACKWARD_C
            want = np.linalg.solve(mat.toarray(), rhs)
            assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("rows,pivot", [
        ([(0.0, 1.0, 1.0), (1.0, 1.0, 0.0)], 2),      # 1 - 1 * 1 = 0 exactly
        ([(0.0, 0.0, 0.0)] + [(-1.0, 3.0, -1.0)] * 7, 1),
        ([(-1.0, 3.0, -1.0)] * 3 + [(0.0, 0.0, 0.0)] + [(-1.0, 3.0, -1.0)] * 4, 4),
        ([(-1.0, 3.0, -1.0)] * 7 + [(0.0, 0.0, 0.0)], 8),
    ], ids=["cancelled", "first", "middle", "last"])
    def test_a_zero_pivot_raises(self, rows, pivot):
        # a singular band whose transposed LU meets an exactly zero pivot
        # raises, where the triangular solve would give inf or NaN
        band = np.array(rows)
        grid = _RadialGrid(laplacian(3), 3,
                           *_radial_grid(Annulus(1.0, 2.0), len(band) + 1), False)
        grid.system = lambda policy: band
        with pytest.raises(RuntimeError,
                           match=f"exactly singular: pivot {pivot} of {len(band)} is zero"):
            grid._solve((), np.ones(len(band)))

    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs"])
    # the label is the grid the domain gives, as the solve's meta names it
    @pytest.mark.parametrize("domain,label", [(Annulus(1.0, 4.0), "log"),
                                              (Ball(1.0), "linear"),
                                              (Annulus(1.0, 3.0), "log")])
    def test_annulus_lu_keeps_the_diagonal(self, monkeypatch, name, domain, label):
        # LAPACK factorizes the band's transpose in its natural order.  On an
        # annulus it pivots on the diagonal, as SuperLU's COLAMD run does; a
        # ball's centre row starts a chain of ties that rounding breaks, for
        # either one.  Either way the solution lies within rounding of
        # spsolve's
        seen = []
        inner = _RadialGrid._solve

        def spy(grid, policy, rvec):
            seen.append((grid, grid.system(policy)))
            return inner(grid, policy, rvec)

        monkeypatch.setattr(_RadialGrid, "_solve", spy)
        op = _radial_ops(3)[name]
        for cells in (8, 33, 128, 512):
            prob = DirichletProblem(domain=domain, n=3,
                                    rhs=lambda r: math.cos(3.0 * r),
                                    boundary=lambda r: 1.0 / (1.0 + r))
            assert solve_dirichlet_radial(op, 3, prob, cells).meta["spacing"] == label
        assert seen
        for grid, band in seen:
            mat = sparse.csc_matrix(_band_matrix(band))
            if label == "log":
                ipiv = lapack.dgttrf(band[:-1, 2], band[:, 1], band[1:, 0])[4]
                lu = spla.splu(mat.T.tocsc())
                assert np.array_equal(ipiv, np.arange(1, len(band) + 1))
                assert np.array_equal(lu.perm_r, lu.perm_c)
            rhs = np.cos(np.arange(len(band), dtype=float))
            want = spla.spsolve(mat, rhs)
            got = grid._factorize(band)(rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_ties_are_backward_stable(self):
        # tridiagonal M-matrices whose entries tie in size, a ball's centre
        # row among them: rounding breaks the ties, so LAPACK and SuperLU may
        # pivot apart, but the grid's solution is LAPACK's, backward stable,
        # and within rounding of spsolve's
        rng = np.random.default_rng(7)
        for nun in (7, 8, 16, 33):
            grid = _RadialGrid(laplacian(3), 3, *_radial_grid(Annulus(1.0, 2.0), nun + 1),
                               False)
            for k in range(200):
                off = -rng.choice([0.0, 0.5, 1.0, 2.0], size=(nun, 2))
                diag = -off.sum(axis=1) + rng.choice([0.0, 0.0, 0.25, 1.0], size=nun)
                diag[diag == 0.0] = 1.0
                band = np.stack([off[:, 0], diag, off[:, 1]], axis=1)
                if k % 2:
                    band[0] = (0.0, 2.0, -2.0)
                mat = sparse.csr_matrix(_band_matrix(band))
                try:
                    spla.splu(mat.T.tocsc())
                except RuntimeError:            # exactly singular
                    continue
                rhs = rng.standard_normal(nun)
                grid._held = (None, None)
                grid.system = lambda policy, band=band: band
                got, want = grid._solve((), rhs), spla.spsolve(mat, rhs)
                assert np.array_equal(got, _tridiagonal_solve(band, rhs))
                assert _backward_error(mat, rhs, got) <= BACKWARD_C
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    # the benchmark's four pinned cases: at these grids the round-off floor
    # of the residual lies above the tolerance 1e-10 * (1 + |f| + |g|)
    @pytest.mark.parametrize("make,domain,cells", [
        (lambda: pucci_min(1.0, 2.0, 3), Annulus(1.0, 2.0), 512),
        (lambda: pucci_max(1.0, 2.0, 3), Annulus(1.0, 2.0), 1024),
        (lambda: pucci_min(1.0, 2.0, 3), Ball(1.0), 2048),
        (lambda: laplacian(3), Annulus(1.0, 16.0), 4096),
    ], ids=["pucci_min_512", "pucci_max_1024", "pucci_min_ball_2048",
            "laplacian_4096"])
    def test_pinned_round_off_cases_still_raise(self, make, domain, cells):
        if isinstance(domain, Ball):
            prob = DirichletProblem(domain=domain, n=3, rhs=lambda r: 1.0)
        else:                                # 1 inside, 0 outside
            prob = DirichletProblem(domain=domain, n=3,
                                    boundary=lambda r: float(r == domain.r0))
        with pytest.raises(solver.PolicyIterationDiverged,
                           match="above tolerance 2.00e-10") as exc:
            solve_dirichlet_radial(make(), 3, prob, cells)
        assert exc.value.history[-1] > 2e-10


# c of the bound |b - A x| <= c eps (|A| |x| + |b|) on every 2D solve at h >=
# 1/64.  Forming b - A x from a row's at most 9 entries and b rounds by at most
# gamma_10 = 10u = 5 eps of (|A| |x| + |b|) (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., section 3.1).  The LU of A^T on its diagonal
# gives (A + dA) x = b with |dA| <= gamma_3m |L| |U| (Thm 9.4), m the longest
# inner product of the sparse factors; on these M-matrices the row sums of
# |L| |U| stay below 4 times those of |A| up to h = 1/128 (diagonal dominance
# bounds the growth, section 9.5).  That worst case says little here: m grows
# like 1/h, 319 terms at h = 1/64.  The rounding errors of an inner product's
# terms take both signs and add like sqrt(m) (Higham and Mary, SIAM J. Sci.
# Comput. 41, 2019), and the long ones run over fill entries that decay away
# from the diagonal.  The solve's share is taken as twice the residual's,
# 10 eps, which gives c = 16 with 1 eps to spare.
BACKWARD_C_2D = 16.0


class TestSparseSolve:
    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs_2d"])
    def test_every_sweep_is_backward_stable(self, monkeypatch, name):
        # each 2D solve's x meets |b - A x| <= BACKWARD_C_2D eps (|A| |x| +
        # |b|), A the sweep's matrix, at every node: on the unit square at
        # h = 1/8 to 1/64, on an annulus, and in the eigen loop's steps
        op = {"laplacian": laplacian(2), "pucci_max": pucci_max(1.0, 2.0, 2),
              "pucci_min": pucci_min(1.0, 3.0, 2),
              "isaacs_2d": parse_operator_spec(
                  (SAMPLES / "isaacs_2d.json").read_text())}[name]
        square = DirichletProblem(domain=SQUARE, n=2, rhs=lambda x, y: 1.0 + x * y,
                                  boundary=lambda x, y: x * x - y)
        annulus = DirichletProblem(domain=Annulus(1.0, 2.0), n=2,
                                   rhs=lambda x, y: 1.0 + x * y,
                                   boundary=lambda r: 1.0 / r)
        seen = []
        for prob, h in [(square, 1.0 / cells) for cells in (8, 16, 32, 64)] + [
                (annulus, 1.0 / 16)]:
            seen += _sweep_solves(monkeypatch, lambda: solve_dirichlet_2d(op, prob, h))
        seen += _sweep_solves(monkeypatch, lambda: principal_eigenvalue(op, SQUARE, 32))
        assert len(seen) > 10
        for mat, rhs, x in seen:
            assert _backward_error(mat, rhs, x) <= BACKWARD_C_2D


def _held_solves(name):
    """The grid of ``_case(name)``, the case's rhs at its rhs points, and a
    solve rhs -> field on that grid, held across the calls as the seed solve
    of ``principal_eigenvalue`` hands it over."""
    op, prob, size = _case(name)
    if isinstance(size, int):
        grid = _RadialGrid.for_solve(op, 3, prob, size)
        rhs = _radial_rhs(prob, grid.r)
        return grid, rhs, lambda f: solve_dirichlet_radial(
            op, 3, solver._OnGrid(domain=prob.domain, n=3, grid=grid, rhs=f), size)
    grid = _Grid2D.for_solve(op, prob, size)
    return grid, grid.rhs(prob), lambda f: solve_dirichlet_2d(
        op, solver._OnGrid(domain=prob.domain, n=2, grid=grid, rhs=f), size)


def _seen_iterates(monkeypatch, grid):
    """Log a copy of every iterate the grid's ``apply`` is given."""
    seen, apply = [], type(grid).apply
    monkeypatch.setattr(type(grid), "apply",
                        lambda g, u: seen.append(u.copy()) or apply(g, u))
    return seen


def _no_sweep(*args):
    raise AssertionError("a sweep ran")


class TestWarmStart:
    # Howard's loop started at a solution returns it; a solve on a held grid
    # still starts at the grid's first iterate, since the grid keeps only its
    # last sweep's LU
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_start_at_the_solution_returns_it(self, monkeypatch, name):
        # on a grid whose first iterate is a solve's solution, the driver
        # evaluates it once, finds it within tolerance and returns it with its
        # residual and no sweep
        grid, rhs, solve = _held_solves(name)
        fld = solve(rhs)
        grid.first = grid.first.copy()
        grid.first[grid.unknown] = fld.values.ravel()[grid.unknown]
        seen = _seen_iterates(monkeypatch, grid)
        monkeypatch.setattr(grid, "step", _no_sweep)
        got = solver._solve_on(grid, rhs, solver.SEED_TOL)
        assert np.array_equal(got.values, fld.values, equal_nan=True)
        assert got.meta == fld.meta
        assert len(seen) == 1

    @pytest.mark.parametrize("name", ["log", "ball", "pucci_2d"])
    def test_a_solve_after_another_rhs_meets_the_tolerance(self, name):
        # the held LU is another rhs's last sweep
        grid, rhs, solve = _held_solves(name)
        solve(rhs * 1.2 + 0.1)
        warm = solve(rhs)
        cold = _solve_case(name)
        assert warm.meta["residual"] <= 1e-10 * (1.0 + np.abs(rhs).max()
                                                 + sum(grid.tol_terms))
        assert np.nanmax(np.abs(warm.values - cold.values)) <= 1e-9


class TestHeldEvaluation:
    # a grid holds no evaluation between solves: each solve evaluates the
    # grid's first iterate, once, before its first sweep
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_each_solve_evaluates_the_first_iterate_once(self, monkeypatch, name):
        # the held LU is another rhs's last sweep; the next solve starts off
        # that sweep's iterate, at grid.first, and evaluates it once
        grid, rhs, solve = _held_solves(name)
        assert not hasattr(grid, "_evaluated")
        solve(rhs * 1.2 + 0.1)
        seen = _seen_iterates(monkeypatch, grid)
        solve(rhs)
        assert np.array_equal(seen[0], grid.first)
        assert sum(np.array_equal(u, grid.first) for u in seen) == 1

    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_a_field_changed_in_place_is_evaluated(self, monkeypatch, name):
        # a returned field is the caller's: changed in place, its residual
        # moves, while the grid's next solve gives the solution's bits again
        grid, rhs, solve = _held_solves(name)
        op, prob, _ = _case(name)
        fld = solve(rhs)
        want = fld.values.copy()
        fld.values.flat[np.arange(want.size)[grid.unknown][5]] += 1e-3
        assert residual_norm(op, fld, prob) > 1e-6
        again = solve(rhs)
        assert np.array_equal(again.values, want, equal_nan=True)
        assert again.meta == fld.meta

    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_a_cold_solve_after_a_warm_one(self, name):
        # a public solve builds its own grid: after solves on a held grid it
        # gives the bits of the held grid's first solve
        grid, rhs, solve = _held_solves(name)
        first = solve(rhs)
        solve(rhs * 1.2 + 0.1)
        cold = _solve_case(name)
        assert np.array_equal(cold.values, first.values, equal_nan=True)
        assert cold.meta == first.meta


class TestFieldRhs:
    @pytest.mark.parametrize("domain", [Annulus(1.0, 2.0), Ball(1.0)])
    @pytest.mark.parametrize("on_grid", [True, False])
    def test_radial_field_is_the_per_node_rhs(self, domain, on_grid):
        prob = DirichletProblem(domain=domain, n=3, boundary=lambda r: 0.25)
        r = _radial_grid(domain, 64)[0]
        nodes = r if on_grid else np.linspace(r[0], r[-1], 41)
        fld = RadialField(n=3, nodes=nodes, values=2.0 + np.sin(3.0 * nodes))
        per_node = replace(prob, rhs=lambda x: float(fld(x)))
        as_field = replace(prob, rhs=fld)
        assert np.array_equal(_radial_rhs(as_field, r), _radial_rhs(per_node, r))
        if on_grid:
            # the interior nodes follow a ball's centre
            start = int(isinstance(domain, Ball))
            assert np.array_equal(_radial_rhs(as_field, r)[start:], fld.values[1:-1])
        op = pucci_max(1.0, 2.0, 3)
        assert np.array_equal(solve_dirichlet_radial(op, 3, as_field, 64).values,
                              solve_dirichlet_radial(op, 3, per_node, 64).values)

    def _square(self):
        prob = DirichletProblem(domain=SQUARE, n=2, rhs=lambda x, y: 1.0 + x * y,
                                boundary=lambda x, y: x - y)
        grid = _Grid2D.build(prob, 1.0 / 8)
        xs = np.arange(9) / 8.0
        fld = Field2D(h=1.0 / 8, x0=0.0, y0=0.0, interior=grid.interior,
                      values=1.0 + xs[:, None] * xs[None, :])
        return prob, fld

    def test_field2d_on_the_grid_is_the_per_node_rhs(self):
        # a Field2D's bilinear ``interp`` reads its node values on its grid
        prob, fld = self._square()
        op = pucci_max(1.0, 2.0, 2)
        want = solve_dirichlet_2d(op, prob, 1.0 / 8)
        got = solve_dirichlet_2d(op, replace(prob, rhs=fld.interp), 1.0 / 8)
        assert np.array_equal(got.values, want.values)
        assert got.meta == want.meta


def _per_node_rhs(problem, r):
    """The radial rhs as one ``rhs_at`` call per node (a ball's centre first)."""
    pts = list(r[1:-1])
    if isinstance(problem.domain, Ball):
        pts.insert(0, r[1] * 1e-8)
    return np.array([problem.rhs_at(x) for x in pts])


def _per_node_2d(fn, mask, grid):
    return np.array([fn(grid.x0 + i * grid.h, grid.y0 + j * grid.h)
                     for i, j in np.argwhere(mask).tolist()])


class TestProblemData:
    """rhs and boundary values read in bulk equal the per-node wrappers."""

    # the label is the grid the domain gives: uniform in log r or in r
    @pytest.mark.parametrize("domain,label", [(Annulus(1.0, 16.0), "log"),
                                              (Ball(2.0), "linear"),
                                              (Annulus(0.5, 3.0), "log")])
    def test_radial_rhs_is_the_per_node_rhs(self, domain, label):
        seen = []

        def rhs(r):
            seen.append(type(r))
            return math.cos(3.0 * r) / (0.1 + r) + r ** 2

        prob = DirichletProblem(domain=domain, n=3, rhs=rhs)
        r, h = _radial_grid(domain, 97)
        steps = np.diff(np.log(r) if label == "log" else r)
        assert np.allclose(steps, h, rtol=1e-12, atol=0.0)
        got = _radial_rhs(prob, r)
        assert set(seen) == {float}
        assert np.array_equal(got, _per_node_rhs(prob, r))

    def test_rectangle_rhs_and_boundary_are_the_per_node_values(self):
        prob = DirichletProblem(
            domain=Rectangle(-1.0, 1.0, 0.0, 0.5), n=2,
            rhs=lambda x, y: math.sin(x) * math.exp(y) + x / 3.0,
            boundary=lambda x, y: x ** 2 - y / 7.0)
        grid = _Grid2D.build(prob, 1.0 / 16)
        assert np.array_equal(grid.rhs(prob),
                              _per_node_2d(prob.rhs_at, grid.interior, grid))
        edge = ~grid.interior
        assert np.array_equal(grid.boundary_values[edge],
                              _per_node_2d(prob.boundary_at, edge, grid))
        assert np.isnan(grid.boundary_values[grid.interior]).all()

    def test_annulus_2d_rhs_and_boundary_are_the_per_node_values(self):
        dom = Annulus(1.0, 2.0)
        prob = DirichletProblem(domain=dom, n=2,
                                rhs=lambda x, y: math.hypot(x, y) / 3.0 + x * y,
                                boundary=lambda r: 1.0 / r + 0.1)
        grid = _Grid2D.build(prob, 1.0 / 8)
        assert np.array_equal(grid.rhs(prob),
                              _per_node_2d(prob.rhs_at, grid.interior, grid))
        _, _, want = _annulus_reference(dom, 1.0 / 8, prob.boundary_at)
        assert np.array_equal(grid.boundary_values, want, equal_nan=True)

    def test_data_must_be_none_or_callable(self):
        # a constant or a Field2D fails at construction, naming the field and
        # the type it got; a RadialField is callable and stays a valid rhs
        fld = Field2D(h=0.5, x0=0.0, y0=0.0, values=np.ones((3, 3)),
                      interior=np.zeros((3, 3), dtype=bool))
        for kwargs, want in (({"rhs": 1.0}, "rhs must be None or callable, got float"),
                             ({"boundary": 1.0}, "boundary must be None or callable"),
                             ({"rhs": fld}, "rhs must be None or callable, got Field2D")):
            with pytest.raises(TypeError, match=want):
                DirichletProblem(domain=SQUARE, n=2, **kwargs)
        nodes = np.linspace(1.0, 2.0, 5)
        radial = RadialField(n=3, nodes=nodes, values=nodes)
        assert DirichletProblem(domain=Annulus(1.0, 2.0), n=3, rhs=radial).rhs is radial

    # a NaN rhs iterated to a NaN residual, and NaN boundary data on the 2D
    # grid read as "not a boundary node": a solve with zero data, exit 0
    @pytest.mark.parametrize("data,name", [
        ({"rhs": lambda *x: math.nan}, "rhs"),
        ({"boundary": lambda *x: math.inf}, "boundary"),
        ({"boundary": lambda *x: math.nan}, "boundary"),
    ], ids=["nan_rhs", "inf_boundary", "nan_boundary"])
    @pytest.mark.parametrize("domain", [Annulus(1.0, 2.0), Ball(1.0),
                                        Rectangle(0.0, 1.0, 0.0, 1.0)],
                             ids=["annulus", "ball", "rectangle"])
    def test_data_that_are_not_finite_are_refused(self, domain, data, name):
        prob = DirichletProblem(domain=domain, n=2, **data)
        with pytest.raises(ValueError, match=f"the {name} is (nan|inf) at"):
            if isinstance(domain, Rectangle):
                solve_dirichlet_2d(pucci_max(1.0, 2.0, 2), prob, 1.0 / 4)
            else:
                solve_dirichlet_radial(pucci_max(1.0, 2.0, 2), 2, prob, 16)

    @pytest.mark.parametrize("domain", [Annulus(1.0, 2.0), Ball(1.0),
                                        Rectangle(0.0, 1.0, 0.0, 1.0)])
    def test_none_data_are_zero_without_a_call(self, monkeypatch, domain):
        def boom(self, *args):
            raise AssertionError("per-node wrapper called")

        monkeypatch.setattr(DirichletProblem, "rhs_at", boom)
        prob = DirichletProblem(domain=domain, n=2)
        if isinstance(domain, Rectangle):
            monkeypatch.setattr(DirichletProblem, "boundary_at", boom)
            grid = _Grid2D.build(prob, 1.0 / 8)
            assert np.array_equal(grid.rhs(prob), np.zeros(grid.nodes.size))
            assert not grid.boundary_values[~grid.interior].any()
            return
        r = _radial_grid(domain, 64)[0]
        got = _radial_rhs(prob, r)
        assert np.array_equal(got, np.zeros(r.size - 1 - (not isinstance(domain, Ball))))
        if isinstance(domain, Annulus):
            monkeypatch.setattr(DirichletProblem, "boundary_at", boom)
            grid = _Grid2D.build(prob, 1.0 / 8)
            ring = ~np.isnan(grid.boundary_values)
            assert ring.any() and not grid.boundary_values[ring].any()


class TestDomains:
    # an infinite or NaN bound passed the order checks: a radial solve then
    # met an exactly singular factor, a rectangle's grid an OverflowError
    @pytest.mark.parametrize("r0,r1", [(1.0, math.inf), (0.5, math.inf)])
    def test_annulus_bounds_must_be_finite(self, r0, r1):
        with pytest.raises(ValueError, match=r"annulus needs 0 < r0 < r1 < inf"):
            Annulus(r0, r1)

    @pytest.mark.parametrize("r1", [math.nan, math.inf])
    def test_ball_radius_must_be_finite(self, r1):
        with pytest.raises(ValueError, match=r"ball needs 0 < r1 < inf"):
            Ball(r1)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.0, 1.0),
                                        (0.0, 1.0, -math.inf, 1.0),
                                        (-math.inf, math.inf, -math.inf, math.inf)])
    def test_rectangle_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match=r"rectangle needs finite x0 < x1, y0 < y1"):
            Rectangle(*bounds)


class TestHowardStop:
    # boundary data 1 inside, 0 outside: at these grids the round-off floor
    # of the residual lies above the 2e-10 tolerance
    @pytest.mark.parametrize("make", [lambda: laplacian(3),
                                      lambda: pucci_max(1.0, 2.0, 3)],
                             ids=["laplacian", "pucci_max"])
    @pytest.mark.parametrize("cells", [700, 1024, 4096])
    def test_round_off_floor_fails_after_one_solve(self, monkeypatch, make,
                                                   cells):
        calls = counted_solves(monkeypatch)
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                boundary=lambda r: 1.0 if r < 1.5 else 0.0)
        with pytest.raises(solver.PolicyIterationDiverged) as exc:
            solve_dirichlet_radial(make(), 3, prob, cells)
        assert calls == ["factorize", "solve"]
        history = exc.value.history
        assert len(history) == 2
        msg = str(exc.value)
        assert f"residual {history[-1]:.2e} above tolerance 2.00e-10" in msg
        floor = re.search(r"round-off floor k\*eps\*max\(\|A\|\|u\|\) is (\S+)$", msg)
        assert float(floor.group(1)) >= history[-1], msg

    @pytest.mark.parametrize("case", ["radial", "2d"])
    def test_cycle_guard(self, monkeypatch, case):
        # sup-inf families whose solves take more than one sweep
        if case == "radial":
            eye = np.eye(3)
            op = isaacs(1.0, 2.0, 3, [[2.0 * eye, eye], [1.5 * eye]],
                        rot_invariant=True)
            prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                    rhs=lambda r: math.sin(4.0 * r))

            def solve():
                return solve_dirichlet_radial(op, 3, prob, 64)
        else:
            op = parse_operator_spec((SAMPLES / "isaacs_2d.json").read_text())
            prob = DirichletProblem(domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
                                    rhs=lambda x, y: math.sin(3.0 * x) * y)

            def solve():
                return solve_dirichlet_2d(op, prob, 1.0 / 8)
        calls = counted_solves(monkeypatch)
        solve()
        assert calls.count("solve") >= 2
        monkeypatch.setattr(solver, "ITERATION_CAP", 1)
        calls.clear()
        with pytest.raises(solver.PolicyIterationDiverged,
                           match="in 1 sweeps") as exc:
            solve()
        assert calls == ["factorize", "solve"]
        assert len(exc.value.history) == 2
