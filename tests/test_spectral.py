"""Principal half-eigenvalue estimation and its scaling/sandwich properties."""

import math

import numpy as np
import pytest

from fnel import (
    Annulus, Ball, Rectangle, eigen_scaling_check, laplacian, principal_eigenvalue,
    pucci_max, pucci_min, solver, spectral,
)
from conftest import counted_solves, random_isaacs

PI2 = math.pi ** 2


class TestRadialEigenvalue:
    def test_laplacian_annulus_pi_squared(self, lap3):
        # oracle: u = v/r turns the radial problem into -v'' = lambda v
        res = principal_eigenvalue(lap3, Annulus(1.0, 2.0), 2048)
        assert res.lambda1 == pytest.approx(PI2, rel=0.01)

    def test_scaled_annulus(self, lap3):
        res = principal_eigenvalue(lap3, Annulus(2.0, 4.0), 1024)
        assert res.lambda1 == pytest.approx(PI2 / 4.0, rel=0.02)

    def test_pucci_positive_and_sandwiched(self):
        pm = principal_eigenvalue(pucci_max(1, 2, 3), Annulus(1.0, 2.0), 512)
        pmin = principal_eigenvalue(pucci_min(1, 2, 3), Annulus(1.0, 2.0), 512)
        assert 0 < pmin.lambda1 <= pm.lambda1

    def test_eigenfield_normalized_and_boundary_zero(self, lap3):
        res = principal_eigenvalue(lap3, Annulus(1.0, 2.0), 256)
        fld = res.eigenfield
        assert fld.values.max() == pytest.approx(1.0)
        assert fld.values[0] == 0.0 and fld.values[-1] == 0.0
        assert fld.values[1:-1].min() > 0

    def test_drift_below_tolerance(self, lap3):
        res = principal_eigenvalue(lap3, Annulus(1.0, 2.0), 256, tol=1e-9)
        assert res.drift <= 1e-9

    def test_residual_contract(self, lap3):
        # F(D^2 phi) ~ lambda1 * phi up to 10 * tol * lambda1
        from fnel import DirichletProblem, residual_norm, solve_dirichlet_radial
        tol = 1e-8
        res = principal_eigenvalue(lap3, Annulus(1.0, 2.0), 1024, tol=tol)
        fld = res.eigenfield

        def rhs(r, fld=fld):
            return res.lambda1 * float(fld(r))

        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3, rhs=rhs)
        sol = solve_dirichlet_radial(lap3, 3, prob, 1024)
        assert np.abs(sol.values - fld.values).max() <= 10 * tol * res.lambda1 + 1e-6

    def test_domain_monotonicity(self, lap3):
        inner = principal_eigenvalue(lap3, Annulus(1.0, 2.0), 256)
        outer = principal_eigenvalue(lap3, Annulus(0.9, 2.2), 256)
        assert outer.lambda1 < inner.lambda1

    def test_rejects_bad_tol(self, lap3):
        with pytest.raises(ValueError):
            principal_eigenvalue(lap3, Annulus(1.0, 2.0), 128, tol=0.0)

    def test_rejects_nan_tol_at_once(self, lap3, monkeypatch):
        # NaN fails every comparison: the stop test `drift <= tol` would never
        # hold, so the call must fail before it builds a grid or runs a step
        monkeypatch.setattr(spectral, "_radial_steps", None)
        with pytest.raises(ValueError, match="tol must be positive"):
            principal_eigenvalue(lap3, Annulus(1.0, 2.0), 64, tol=float("nan"))

    @pytest.mark.parametrize("cells", [0, 1])
    def test_rectangle_rejects_fewer_than_two_cells(self, cells):
        with pytest.raises(ValueError, match="need at least 2 cells"):
            principal_eigenvalue(laplacian(2), Rectangle(0.0, 1.0, 0.0, 1.0), cells)


class TestSolveCount:
    @pytest.mark.parametrize("domain,cells", [
        (Annulus(1.0, 2.0), 128), (Ball(1.0), 128), (Rectangle(0.0, 1.0, 0.0, 1.0), 8),
    ])
    def test_one_solve_per_iteration(self, monkeypatch, domain, cells):
        # one solver call and one policy iteration per step on the held
        # grid, and no throwaway solve to find the grid
        calls, howards = [], []
        for name in ("solve_dirichlet_radial", "solve_dirichlet_2d"):
            solve = getattr(spectral, name)
            monkeypatch.setattr(spectral, name,
                                lambda *a, solve=solve: calls.append(1) or solve(*a))
        howard = solver._howard
        monkeypatch.setattr(solver, "_howard",
                            lambda *a: howards.append(1) or howard(*a))
        op = pucci_max(1, 2, 2 if isinstance(domain, Rectangle) else 3)
        res = principal_eigenvalue(op, domain, cells)
        assert len(calls) == len(howards) == res.iterations

    @pytest.mark.parametrize("domain,cells", [
        (Annulus(1.0, 2.0), 128), (Ball(1.0), 128), (Rectangle(0.0, 1.0, 0.0, 1.0), 8),
    ])
    def test_one_apply_per_sweep(self, monkeypatch, domain, cells):
        # a warm step starts at the iterate its grid's last solve ended on and
        # reuses that evaluation: F_h runs once per sweep, and once more for
        # the first step's first iterate
        grid = solver._Grid2D if isinstance(domain, Rectangle) else solver._RadialGrid
        calls = []
        for name in ("apply", "step"):
            method = getattr(grid, name)
            monkeypatch.setattr(grid, name, lambda *a, name=name, method=method:
                                calls.append(name) or method(*a))
        op = pucci_max(1, 2, 2 if isinstance(domain, Rectangle) else 3)
        res = principal_eigenvalue(op, domain, cells)
        assert calls.count("step") >= res.iterations
        assert calls.count("apply") == calls.count("step") + 1

    @pytest.mark.parametrize("op,cells,most", [
        (laplacian(3), 512, 1),
        # a Pucci step repeats the previous step's last policy
        (pucci_max(1.0, 2.0, 3), 256, 6),
        # the 2D grid: an operator of dimension 2 runs on the unit square
        (laplacian(2), 16, 1),
        (pucci_max(1.0, 2.0, 2), 8, 5),
    ])
    def test_warm_steps_reuse_the_factorization(self, monkeypatch, op, cells,
                                                most):
        if op.dim == 2:
            grid, domain = solver._Grid2D, Rectangle(0.0, 1.0, 0.0, 1.0)
        else:
            grid, domain = solver._RadialGrid, Annulus(1.0, 2.0)
        sweeps = []
        step = grid.step
        monkeypatch.setattr(grid, "step", lambda *a: sweeps.append(1) or step(*a))
        calls = counted_solves(monkeypatch)
        res = principal_eigenvalue(op, domain, cells)
        assert res.iterations >= 12
        assert calls.count("factorize") <= most
        assert calls.count("solve") == len(sweeps)

    @pytest.mark.parametrize("call", [
        lambda: principal_eigenvalue(laplacian(3), Annulus(1.0, 2.0), 256),
        lambda: principal_eigenvalue(pucci_max(1.0, 2.0, 2),
                                     Rectangle(0.0, 1.0, 0.0, 1.0), 8),
        lambda: solver.solve_dirichlet_radial(
            laplacian(3), 3, solver.DirichletProblem(
                domain=Annulus(1.0, 2.0), n=3, rhs=lambda r: 1.0), 256),
    ], ids=["eigen_radial", "eigen_2d", "solve"])
    def test_back_to_back_calls_factorize_alike(self, monkeypatch, call):
        # every call builds its own grid, so no LU outlives the call that
        # made it: a second, identical call cannot reuse the first one's
        calls = counted_solves(monkeypatch)
        call()
        first = list(calls)
        call()
        assert "factorize" in first
        assert calls[len(first):] == first

    def test_invalid_input_raises_from_the_first_solve(self, lap3):
        with pytest.raises(ValueError, match="cells"):
            principal_eigenvalue(lap3, Annulus(1.0, 2.0), 1)
        with pytest.raises(ValueError, match="2-dimensional"):
            principal_eigenvalue(lap3, Rectangle(0.0, 1.0, 0.0, 1.0), 8)


class TestScalingCheck:
    def test_laplacian_sigma_2(self, lap3):
        rep = eigen_scaling_check(lap3, Annulus(1.0, 2.0), 2.0, cells=512)
        assert rep["ratio"] == pytest.approx(4.0, rel=0.02)

    def test_sigma_1_exact(self, lap3):
        rep = eigen_scaling_check(lap3, Annulus(1.0, 2.0), 1.0, cells=256)
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_pucci_sigma_3(self):
        rep = eigen_scaling_check(pucci_max(1, 2, 3), Annulus(1.0, 2.0), 3.0,
                                  cells=512)
        assert rep["ratio"] == pytest.approx(9.0, rel=0.02)


class TestIsaacsSandwich2D:
    def test_sampled_isaacs_between_pucci(self):
        # 2D rectangle; the same grid hosts all three operators
        dom = Rectangle(0.0, 1.0, 0.0, 1.0)
        cells = 12
        lam, Lam = 1.0, 2.0
        lo = principal_eigenvalue(pucci_min(lam, Lam, 2), dom, cells,
                                  tol=1e-7).lambda1
        hi = principal_eigenvalue(pucci_max(lam, Lam, 2), dom, cells,
                                  tol=1e-7).lambda1
        rng = np.random.default_rng(42)
        slack = 0.05 * (hi - lo) + 1e-9  # finite rotation family slack
        for _ in range(5):
            op = random_isaacs(rng, 2, lam, Lam)
            mid = principal_eigenvalue(op, dom, cells, tol=1e-7).lambda1
            assert lo - slack <= mid <= hi + slack
