"""Principal half-eigenvalue estimation and its scaling/sandwich properties."""

import math
from pathlib import Path

import numpy as np
import pytest

from fnel import (
    Annulus, Ball, Rectangle, eigen_scaling_check, laplacian, parse_operator_spec,
    principal_eigenvalue, pucci_max, pucci_min, solver, spectral,
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
        # hold, so the call must fail before it builds a grid or runs the seed
        monkeypatch.setattr(spectral, "_bump", None)
        with pytest.raises(ValueError, match="tol must be positive"):
            principal_eigenvalue(lap3, Annulus(1.0, 2.0), 64, tol=float("nan"))

    @pytest.mark.parametrize("cells", [0, 1])
    def test_rectangle_rejects_fewer_than_two_cells(self, cells):
        with pytest.raises(ValueError, match="need at least 2 cells"):
            principal_eigenvalue(laplacian(2), Rectangle(0.0, 1.0, 0.0, 1.0), cells)


def _seed_marked(monkeypatch, log):
    """Wrap the eigen loop's solver calls so that each appends "seed" to
    ``log`` as it returns; returns the list of those calls' arguments."""
    calls = []
    for name in ("solve_dirichlet_radial", "solve_dirichlet_2d"):
        solve = getattr(spectral, name)

        def marked(*a, solve=solve):
            calls.append(a)
            out = solve(*a)
            log.append("seed")
            return out

        monkeypatch.setattr(spectral, name, marked)
    return calls


def _held_policies(monkeypatch, log):
    """Log the policy of every ``_HeldLU._solve`` call into ``log``."""
    held = solver._HeldLU._solve
    monkeypatch.setattr(solver._HeldLU, "_solve", lambda grid, policy, rhs:
                        log.append(policy) or held(grid, policy, rhs))


def _runs(policies):
    """The number of runs of equal policies in a sequence of them."""
    return 1 + sum(not solver._same(a, b) for a, b in zip(policies, policies[1:]))


class TestSolveCount:
    @pytest.mark.parametrize("domain,cells", [
        (Annulus(1.0, 2.0), 128), (Ball(1.0), 128), (Rectangle(0.0, 1.0, 0.0, 1.0), 8),
    ])
    def test_one_solve_per_iteration(self, monkeypatch, domain, cells):
        # one solver call, the seed, with one policy iteration and no
        # throwaway solve to find the grid; after it one LU solve per linear
        # step, and the seed and the linear steps are the iterations
        log, howards = [], []
        calls = _seed_marked(monkeypatch, log)
        _held_policies(monkeypatch, log)
        howard = solver._howard
        monkeypatch.setattr(solver, "_howard",
                            lambda *a: howards.append(1) or howard(*a))
        op = pucci_max(1, 2, 2 if isinstance(domain, Rectangle) else 3)
        res = principal_eigenvalue(op, domain, cells)
        assert len(calls) == len(howards) == log.count("seed") == 1
        assert len(log) - log.index("seed") - 1 == res.iterations - 1

    @pytest.mark.parametrize("domain,cells", [
        (Annulus(1.0, 2.0), 128), (Ball(1.0), 128), (Rectangle(0.0, 1.0, 0.0, 1.0), 8),
    ])
    def test_one_apply_per_sweep(self, monkeypatch, domain, cells):
        # F_h runs once per sweep of the seed solve and once at its first
        # iterate; the linear steps run no sweep, and F_h only at the seed's
        # solution and at the policy checks, at most two per frozen policy
        grid = solver._Grid2D if isinstance(domain, Rectangle) else solver._RadialGrid
        log, policies = [], []
        for name in ("apply", "step"):
            method = getattr(grid, name)
            monkeypatch.setattr(grid, name, lambda *a, name=name, method=method:
                                log.append(name) or method(*a))
        _seed_marked(monkeypatch, log)
        _held_policies(monkeypatch, policies)
        op = pucci_max(1, 2, 2 if isinstance(domain, Rectangle) else 3)
        principal_eigenvalue(op, domain, cells)
        seed, after = log[:log.index("seed")], log[log.index("seed") + 1:]
        assert seed.count("apply") == seed.count("step") + 1
        assert set(after) == {"apply"}
        phases = _runs(policies[seed.count("step"):])
        assert 2 <= len(after) <= 1 + 2 * phases

    @pytest.mark.parametrize("op,cells,most", [
        (laplacian(3), 512, 1),
        # the seed's Pucci sweeps and its phases: one LU per policy
        (pucci_max(1.0, 2.0, 3), 256, 6),
        # the 2D grid: an operator of dimension 2 runs on the unit square
        (laplacian(2), 16, 1),
        (pucci_max(1.0, 2.0, 2), 8, 5),
    ])
    def test_warm_steps_reuse_the_factorization(self, monkeypatch, op, cells,
                                                most):
        # one LU solve per sweep of the seed and per linear step, and one
        # factorization per run of equal policies among them: a frozen
        # policy is factorized once, and its later steps solve with the LU
        if op.dim == 2:
            grid, domain = solver._Grid2D, Rectangle(0.0, 1.0, 0.0, 1.0)
        else:
            grid, domain = solver._RadialGrid, Annulus(1.0, 2.0)
        sweeps, policies = [], []
        step = grid.step
        monkeypatch.setattr(grid, "step", lambda *a: sweeps.append(1) or step(*a))
        _held_policies(monkeypatch, policies)
        calls = counted_solves(monkeypatch)
        res = principal_eigenvalue(op, domain, cells)
        assert res.iterations >= 12
        assert calls.count("factorize") == _runs(policies) <= most
        assert calls.count("solve") == len(policies) == len(sweeps) + res.iterations - 1

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


SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _spec(name):
    return parse_operator_spec((SAMPLES / name).read_text())


UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


class TestBracket:
    # the min and max of F_h u / u at the eigenvector: for a monotone,
    # positively homogeneous F_h they hold the discrete lambda1, here its
    # tol=1e-13 value
    @pytest.mark.parametrize("op,domain,cells", [
        # the five CLI goldens of samples/
        (_spec("pucci_max_n3.json"), Annulus(1.0, 2.0), 256),
        (_spec("laplacian_n4.json"), Ball(1.0), 128),
        (_spec("pucci_max_n3.json"), Ball(1.0), 256),
        (_spec("isaacs_2d.json"), UNIT_SQUARE, 8),
        (_spec("pucci_max_n2.json"), UNIT_SQUARE, 16),
        *((make(1.0, 2.5, n), domain, 128) for make in (pucci_max, pucci_min)
          for n in (2, 3, 4) for domain in (Annulus(1.0, 2.0), Ball(1.0))),
        (pucci_min(1.0, 3.0, 2), UNIT_SQUARE, 12),
        (pucci_max(1.0, 2.0, 2), UNIT_SQUARE, 24),
    ])
    def test_bracket_holds_the_converged_value(self, op, domain, cells):
        res = principal_eigenvalue(op, domain, cells, tol=1e-8)
        want = principal_eigenvalue(op, domain, cells, tol=1e-13).lambda1
        lo, hi = res.bracket
        assert lo <= want <= hi
        assert hi - lo <= 1e-7 * want
        meta = res.eigenfield.meta
        assert (meta["lambda_lo"], meta["lambda_hi"]) == res.bracket
        assert "residual" not in meta

    def test_a_tie_broken_by_round_off_stops(self, monkeypatch):
        # tied controls of isaacs_2d that round-off picks either way change
        # the policy at every check: the step after such a change moves lambda
        # by at most tol, and the loop stops there, far below the cap
        same, seen = spectral._same, []
        monkeypatch.setattr(spectral, "_same",
                            lambda a, b: seen.append(same(a, b)) or seen[-1])
        res = principal_eigenvalue(_spec("isaacs_2d.json"), UNIT_SQUARE, 16, tol=1e-12)
        assert seen[-2:] == [False, False] and True in seen
        assert res.iterations <= 40 and res.drift <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_isaacs_2d(self, seed):
        op = random_isaacs(np.random.default_rng(seed), 2, 1.0, 2.0)
        res = principal_eigenvalue(op, UNIT_SQUARE, 12, tol=1e-8)
        want = principal_eigenvalue(op, UNIT_SQUARE, 12, tol=1e-13).lambda1
        assert res.bracket[0] <= want <= res.bracket[1]


class TestFineGrids:
    # at 2048 cells on the unit ball a solve to RESIDUAL_TOL met its 2.0e-10
    # tolerance at 1.65e-10, by round-off, and at 4096 cells on A(1, 2) it
    # stalled at 6e-10 to 8e-10; the seed solve stops at SEED_TOL, far above
    # that floor, and the linear steps take no residual stop
    def test_laplacian_is_pi_squared(self, lap3):
        # lambda1 of the unit 3-ball is pi^2: u = sin(pi r) / r
        res = principal_eigenvalue(lap3, Ball(1.0), 2048)
        assert res.lambda1 == pytest.approx(PI2, rel=1e-6)

    @pytest.mark.parametrize("make", [pucci_max, pucci_min])
    def test_pucci_returns(self, make):
        # and agrees with 1024 cells to the O(h^2) of the scheme
        res = principal_eigenvalue(make(1.0, 2.0, 3), Ball(1.0), 2048)
        coarse = principal_eigenvalue(make(1.0, 2.0, 3), Ball(1.0), 1024)
        assert res.lambda1 == pytest.approx(coarse.lambda1, rel=2e-6)

    @pytest.mark.parametrize("make", [laplacian, pucci_max, pucci_min])
    def test_annulus_at_4096_cells_returns(self, make):
        op = make(3) if make is laplacian else make(1.0, 2.0, 3)
        res = principal_eigenvalue(op, Annulus(1.0, 2.0), 4096)
        coarse = principal_eigenvalue(op, Annulus(1.0, 2.0), 2048)
        assert res.lambda1 == pytest.approx(coarse.lambda1, rel=1e-6)
        if make is laplacian:                # u = sin(pi (r - 1)) / r
            assert res.lambda1 == pytest.approx(PI2, rel=1e-6)
