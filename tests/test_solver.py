"""Monotone finite-difference Dirichlet solvers and the profile fit."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from fnel import (
    Annulus, Ball, DirichletProblem, Rectangle, convergence_order,
    fundamental_profile, isaacs, laplacian, pucci_max, pucci_min,
    residual_norm, solve_dirichlet_2d, solve_dirichlet_radial,
)
from fnel import parse_operator_spec, solver
from fnel.liouville import _signed_min_residual
from fnel.matcore import LAPLACIAN, PUCCI_MAX, PUCCI_MIN
from fnel.solver import (
    Field2D, NonMonotoneScheme, RadialField, _control_families, _evaluate_2d,
    _Grid2D, _pattern_value, _pattern_weights, _radial_controls,
    _radial_entries, _radial_grid, _radial_rhs, _radial_system, _spsolve,
    _stencil_coefficients,
)

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


class TestRadialField:
    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            RadialField(n=3, nodes=np.array([1.0, 2.0]),
                        values=np.array([0.0, 0.0]), spacing="log")

    def test_interpolation(self):
        fld = RadialField(n=3, nodes=np.array([1.0, 2.0, 3.0]),
                          values=np.array([1.0, 2.0, 3.0]), spacing="linear")
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
        bumped = RadialField(n=3, nodes=fld.nodes, values=values,
                             spacing=fld.spacing)
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
        linear = DirichletProblem(domain=Annulus(1.0, 2.0), n=3, spacing="linear")
        with pytest.raises(ValueError, match="grid"):
            residual_norm(lap3, RadialField(n=3, nodes=fld.nodes, values=fld.values,
                                            spacing="linear"), linear)

    def test_exact_solution_second_order(self, pm3):
        # residual of the sampled exact solution u = 2 r^{-2} decays like h^2
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                rhs=lambda r: (2.0 * r ** -2) ** 2,
                                boundary=lambda r: 2.0 * r ** -2)
        errs = []
        for cells in (32, 64, 128):
            nodes = np.geomspace(1.0, 2.0, cells + 1)
            fld = RadialField(n=3, nodes=nodes, values=2.0 * nodes ** -2,
                              spacing="log")
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
        op = isaacs(0.1, 4.0, 2, [[bad]])
        prob = DirichletProblem(
            domain=Rectangle(0.0, 1.0, 0.0, 1.0), n=2,
            rhs=lambda x, y: 0.0, boundary=lambda x, y: 0.0)
        with pytest.raises(NonMonotoneScheme) as err:
            solve_dirichlet_2d(op, prob, h=1.0 / 8)
        assert "1.4" in str(err.value)

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
        coef = _stencil_coefficients(((two, one, two), (one, two)), 0.25)
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
        assert rep["alpha_min_fit"] == pytest.approx(rep["alpha_max_fit"],
                                                     rel=1e-6)

    def test_outer_radius_guard(self, pm3):
        with pytest.raises(ValueError):
            fundamental_profile(pm3, 3, cells=64, outer_radius=8.0)


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


def _radial_system_reference(f_op, n, u, h, r, spacing, rhs, is_ball):
    """Per-node assembly of one policy-iteration sweep: (CSR matrix, rhs)."""
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    d1 = (u[2:] - u[:-2]) / (2.0 * h)
    ri_all = r[1:-1]
    if spacing == "log":
        a, b = (d2 - d1) / ri_all ** 2, d1 / ri_all ** 2
    else:
        a, b = d2, d1 / ri_all
    m = len(u) - 2
    nun = m + 1 if is_ball else m
    rows, cols, vals = [], [], []
    rvec = np.zeros(nun)
    for i in range(m):
        wa, wb = _pattern_weights_reference(f_op, n, a[i], b[i])
        ri = r[1 + i]
        if spacing == "log":
            ca = 1.0 / (ri ** 2 * h ** 2)
            cb = 1.0 / (ri ** 2 * 2.0 * h)
            cm = -(wa * (ca + cb) + wb * (-cb))
            cc = -(wa * (-2.0 * ca))
            cp = -(wa * (ca - cb) + wb * cb)
        else:
            ca = 1.0 / h ** 2
            cb = 1.0 / (2.0 * h * ri)
            cm = -(wa * ca - wb * cb)
            cc = -(wa * (-2.0 * ca))
            cp = -(wa * ca + wb * cb)
        row = 1 + i if is_ball else i
        rows.append(row); cols.append(row); vals.append(cc)
        rvec[row] += rhs[i]
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
        rvec[0] += rhs[-1]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(nun, nun)), rvec


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
        controls = _radial_controls(op)
        wa, wb = _pattern_weights(op, n, a, b, controls)
        value = _pattern_value(op, n, a, b, controls)
        for i in range(a.size):
            assert (wa[i], wb[i]) == _pattern_weights_reference(op, n, a[i], b[i])
            assert value[i] == _pattern_value_reference(op, n, a[i], b[i])

    @pytest.mark.parametrize("name", ["pucci_max", "isaacs"])
    @pytest.mark.parametrize("domain,spacing", [(Annulus(1.0, 16.0), "log"),
                                                (Annulus(1.0, 3.0), "linear"),
                                                (Ball(1.0), "auto")])
    def test_system_matches_per_node_assembly(self, name, domain, spacing):
        op = _radial_ops(3)[name]
        prob = DirichletProblem(domain=domain, n=3, rhs=lambda r: math.cos(r),
                                spacing=spacing)
        r, h, sp = _radial_grid(prob, 64)
        rhs = _radial_rhs(prob, r)
        rng = np.random.default_rng(5)
        u = np.sin(3.0 * r) + 0.1 * rng.standard_normal(r.size)
        is_ball = isinstance(domain, Ball)
        wa, wb = _pattern_weights(op, 3, *_radial_entries(u, h, r, sp, is_ball),
                                  _radial_controls(op))
        mat, rvec = _radial_system(wa, wb, u, h, r, sp, rhs, is_ball)
        want_mat, want_rvec = _radial_system_reference(op, 3, u, h, r, sp, rhs,
                                                       is_ball)
        assert mat.nnz == want_mat.nnz
        dense, want = mat.toarray(), want_mat.toarray()
        assert np.abs(dense - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(rvec - want_rvec).max() <= 1e-15 * np.abs(want_rvec).max()

    @pytest.mark.parametrize("name", ["laplacian", "pucci_max", "pucci_min",
                                      "isaacs"])
    def test_signed_min_residual_matches_reference(self, name):
        op = _radial_ops(3)[name]
        nodes = np.geomspace(1.0, 4.0, 65)
        rng = np.random.default_rng(3)
        fld = RadialField(n=3, nodes=nodes,
                          values=nodes ** -1.0 + 0.01 * rng.standard_normal(65),
                          spacing="log")
        h = math.log(nodes[1] / nodes[0])
        a, b = _radial_entries(fld.values, h, nodes, "log", is_ball=False)
        want = min(_pattern_value_reference(op, 3, a[i], b[i])
                   for i in range(a.size))
        assert _signed_min_residual(op, fld) == want


# ---------------------------------------------------------------------------
# the linear solve, warm starts and field-valued rhs

SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)
SOLVE_CASES = ["log", "linear", "ball", "laplacian_2d", "pucci_2d", "isaacs_2d",
               "annulus_2d"]


def _solve_case(name, start=None):
    """One solve per kind of system the linear solve sees, cold or warm."""
    if name == "log":
        prob = DirichletProblem(domain=Annulus(1.0, 16.0), n=3,
                                rhs=lambda r: math.cos(r),
                                boundary=lambda r: 1.0 / r)
        return solve_dirichlet_radial(pucci_max(1.0, 2.0, 3), 3, prob, 128, start)
    if name == "linear":
        prob = DirichletProblem(domain=Annulus(1.0, 3.0), n=3,
                                rhs=lambda r: math.sin(2.0 * r),
                                boundary=lambda r: r, spacing="linear")
        return solve_dirichlet_radial(_radial_ops(3)["isaacs"], 3, prob, 128,
                                      start)
    if name == "ball":
        prob = DirichletProblem(domain=Ball(1.0), n=3, rhs=lambda r: 1.0 + r,
                                boundary=lambda r: 0.5)
        return solve_dirichlet_radial(pucci_min(1.0, 2.0, 3), 3, prob, 128, start)
    if name == "annulus_2d":
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=2,
                                rhs=lambda x, y: 0.5, boundary=lambda r: 1.0 / r)
        return solve_dirichlet_2d(laplacian(2), prob, 1.0 / 8, start)
    op = {"laplacian_2d": laplacian(2), "pucci_2d": pucci_max(1.0, 2.0, 2),
          "isaacs_2d": parse_operator_spec(
              (SAMPLES / "isaacs_2d.json").read_text())}[name]
    prob = DirichletProblem(domain=SQUARE, n=2, rhs=lambda x, y: 1.0 + x * y,
                            boundary=lambda x, y: x * x + 0.5 * y)
    return solve_dirichlet_2d(op, prob, 1.0 / 8, start)


def _systems(monkeypatch, name):
    """The (matrix, rhs) pairs a cold solve hands to the linear solve."""
    seen = []
    inner = solver._spsolve
    monkeypatch.setattr(solver, "_spsolve", lambda mat, rhs: (
        seen.append((mat, rhs.copy())) or inner(mat, rhs)))
    _solve_case(name)
    monkeypatch.setattr(solver, "_spsolve", inner)
    return seen


class TestFactorizationReuse:
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_matches_spsolve_bit_for_bit(self, monkeypatch, name):
        systems = _systems(monkeypatch, name)
        assert systems
        for mat, rhs in systems:
            want = spla.spsolve(mat, rhs)
            other = np.cos(np.arange(rhs.size, dtype=float))
            monkeypatch.setattr(solver, "_slot", (None, None))
            # spsolve, then splu on the repeat, then the held LU
            for _ in range(3):
                assert np.array_equal(_spsolve(mat, rhs), want)
            assert np.array_equal(_spsolve(mat, other), spla.spsolve(mat, other))

    def test_only_a_repeated_matrix_is_factorized(self, monkeypatch):
        mat, rhs = _systems(monkeypatch, "log")[-1]
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        monkeypatch.setattr(solver, "_slot", (None, None))
        changed = mat.copy()
        changed.data[4] *= 1.0 + 1e-9
        steps = [(mat, rhs, 0), (mat, 2.0 * rhs, 1), (mat, rhs + 1.0, 1),
                 (changed, rhs, 1), (changed, rhs, 2), (mat, rhs, 2)]
        for m, b, want_calls in steps:
            assert np.array_equal(_spsolve(m, b), spla.spsolve(m, b))
            assert len(calls) == want_calls


def _boundary_entries(fld):
    """Mask of the entries a solve's ``start`` does not use."""
    if isinstance(fld, Field2D):
        return ~fld.interior
    mask = np.zeros(fld.values.shape, dtype=bool)
    mask[-1] = True
    mask[0] = fld.nodes[0] > 0          # a ball solves for its centre
    return mask


class TestWarmStart:
    @pytest.mark.parametrize("name", SOLVE_CASES)
    def test_start_at_the_solution_returns_it(self, name):
        cold = _solve_case(name)
        warm = _solve_case(name, cold.values)
        assert np.array_equal(warm.values, cold.values, equal_nan=True)
        assert warm.meta == cold.meta
        # the boundary data come from the problem, not from start
        start = cold.values.copy()
        start[_boundary_entries(cold)] = 7.0
        other = _solve_case(name, start)
        assert np.array_equal(other.values, cold.values, equal_nan=True)

    @pytest.mark.parametrize("name", ["log", "ball", "pucci_2d"])
    def test_perturbed_start_meets_the_tolerance(self, name):
        cold = _solve_case(name)
        start = cold.values * 1.2 + 0.1
        warm = _solve_case(name, start)
        assert np.nanmax(np.abs(warm.values - cold.values)) <= 1e-9

    @pytest.mark.parametrize("name", ["log", "ball", "laplacian_2d"])
    def test_wrong_shape_raises(self, name):
        cold = _solve_case(name)
        with pytest.raises(ValueError, match="start has shape"):
            _solve_case(name, cold.values[:-1])


class TestFieldRhs:
    @pytest.mark.parametrize("domain", [Annulus(1.0, 2.0), Ball(1.0)])
    @pytest.mark.parametrize("on_grid", [True, False])
    def test_radial_field_is_the_per_node_rhs(self, domain, on_grid):
        prob = DirichletProblem(domain=domain, n=3, boundary=lambda r: 0.25)
        r = _radial_grid(prob, 64)[0]
        nodes = r if on_grid else np.linspace(r[0], r[-1], 41)
        fld = RadialField(n=3, nodes=nodes, values=2.0 + np.sin(3.0 * nodes),
                          spacing="linear")
        per_node = replace(prob, rhs=lambda x: float(fld(x)))
        as_field = replace(prob, rhs=fld)
        assert np.array_equal(_radial_rhs(as_field, r), _radial_rhs(per_node, r))
        if on_grid:
            assert np.array_equal(_radial_rhs(as_field, r)[:63], fld.values[1:-1])
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
        prob, fld = self._square()
        op = pucci_max(1.0, 2.0, 2)
        want = solve_dirichlet_2d(op, prob, 1.0 / 8)
        got = solve_dirichlet_2d(op, replace(prob, rhs=fld), 1.0 / 8)
        assert np.array_equal(got.values, want.values)
        assert got.meta == want.meta

    @pytest.mark.parametrize("change", [
        {"h": 1.0 / 16}, {"x0": 0.125}, {"y0": -0.125},
        {"values": np.ones((9, 10)), "interior": np.zeros((9, 10), dtype=bool)},
    ])
    def test_field2d_on_another_grid_raises(self, change):
        prob, fld = self._square()
        with pytest.raises(ValueError, match="not on the solve's grid"):
            solve_dirichlet_2d(laplacian(2), replace(prob, rhs=replace(fld, **change)),
                               1.0 / 8)


def _counted_solves(monkeypatch):
    """Route ``_spsolve`` through a counter; returns the list it appends to."""
    calls = []
    inner = solver._spsolve
    monkeypatch.setattr(solver, "_spsolve",
                        lambda mat, rhs: calls.append(1) or inner(mat, rhs))
    return calls


class TestHowardStop:
    # boundary data 1 inside, 0 outside: at these grids the round-off floor
    # of the residual lies above the 2e-10 tolerance
    @pytest.mark.parametrize("make", [lambda: laplacian(3),
                                      lambda: pucci_max(1.0, 2.0, 3)],
                             ids=["laplacian", "pucci_max"])
    @pytest.mark.parametrize("cells", [700, 1024, 4096])
    def test_round_off_floor_fails_after_one_solve(self, monkeypatch, make,
                                                   cells):
        calls = _counted_solves(monkeypatch)
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                boundary=lambda r: 1.0 if r < 1.5 else 0.0)
        with pytest.raises(solver.PolicyIterationDiverged) as exc:
            solve_dirichlet_radial(make(), 3, prob, cells)
        assert len(calls) == 1
        history = exc.value.history
        assert len(history) == 2
        r, _, _ = _radial_grid(prob, cells)
        floor = 4.0 * np.finfo(float).eps / np.diff(r).min() ** 2  # |u| = 1
        msg = str(exc.value)
        assert f"residual {history[-1]:.2e} above tolerance 2.00e-10" in msg
        assert f"round-off floor 4*eps*|u|/h_min^2 is {floor:.2e}" in msg

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
        calls = _counted_solves(monkeypatch)
        solve()
        assert len(calls) >= 2
        monkeypatch.setattr(solver, "ITERATION_CAP", 1)
        calls.clear()
        with pytest.raises(solver.PolicyIterationDiverged,
                           match="in 1 sweeps") as exc:
            solve()
        assert len(calls) == 1
        assert len(exc.value.history) == 2
