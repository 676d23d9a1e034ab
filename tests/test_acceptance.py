"""End-to-end acceptance suite: one test per shipped guarantee, with the
tolerance pinned next to the assertion."""

import math

import numpy as np
import pytest

from fnel import (
    Annulus, DirichletProblem, HomogeneousProfile, NONEXISTENCE_EXTERIOR,
    EXISTENCE_SUPERSOLUTION, bend_fundamental, beta_star,
    build_global_supersolution, classify, cone_map_A, critical_exponent,
    critical_log_check, eval_operator, explicit_constant, fixed_point,
    fundamental_profile, hadamard_check, laplacian, nonexistence_certificate,
    principal_eigenvalue, pucci_max, pucci_min, rescale,
    solve_dirichlet_radial, sphere_min_curve, xi_alpha,
)
from fnel.matcore import SymMatrix, radial_hessian
from fnel.scaling import alpha_star
from fnel.liouville import _signed_min_residual, inner_validity_radius
from fnel.solver import RadialField, convergence_order, residual_norm
from conftest import random_isaacs

PI2 = math.pi ** 2


def test_01_pucci_scaling_exponents():
    rep = alpha_star(pucci_max(1, 2, 3), 3)
    assert rep.alpha_star == pytest.approx(3.0, abs=1e-8)  # (Lam/lam)(n-1)-1
    assert not rep.log_case
    rep = alpha_star(pucci_min(1, 2, 3), 3)
    assert rep.log_case  # (lam/Lam)(n-1)-1 = 0
    assert abs(rep.alpha_star) <= 1e-8


def test_02_laplacian_scaling_exponents():
    for n in (3, 4, 5, 6):
        rep = alpha_star(laplacian(n), n)
        assert rep.alpha_star == pytest.approx(n - 2, abs=1e-8)
    assert alpha_star(laplacian(2), 2).log_case


def test_03_critical_exponents():
    assert abs(critical_exponent(laplacian(3), 3) - 3.0) <= 1e-12
    assert abs(critical_exponent(pucci_max(1, 2, 3), 3) - 5.0 / 3.0) <= 1e-12
    assert critical_exponent(pucci_min(1, 2, 3), 3) == math.inf


def test_04_classification_dichotomy_200_point_grid():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        lam = float(rng.uniform(0.2, 2.0))
        Lam = lam * float(rng.uniform(1.0, 3.0))
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.05, 6.0))
        op = pucci_max(lam, Lam, n) if rng.random() < 0.5 else \
            pucci_min(lam, Lam, n)
        v = classify(op, n, p)
        want = (NONEXISTENCE_EXTERIOR if v.alpha_star <= v.beta_star
                else EXISTENCE_SUPERSOLUTION)
        assert v.outcome == want
        count += 1
    # Laplacian column: p <= n/(n-2) rule, equality hit exactly at n=4
    for n in (3, 4, 5, 6):
        crit = n / (n - 2)
        probes = [1.2, crit * (1 - 1e-6), crit * (1 + 1e-6), 2.5, 5.0]
        if n == 4:
            probes.append(2.0)
        for p in probes:
            v = classify(laplacian(n), n, p)
            want = (NONEXISTENCE_EXTERIOR if p <= crit
                    else EXISTENCE_SUPERSOLUTION)
            assert v.outcome == want, (n, p)


def test_05_explicit_solutions_residuals():
    cases = [
        (pucci_max(1, 2, 3), 3, 2.0, 2.0),           # u = 2 r^{-2}
        (laplacian(3), 3, 5.0, 0.25 ** 0.25),        # u = 0.25^{1/4} r^{-1/2}
    ]
    for op, n, p, c_want in cases:
        c = explicit_constant(op, n, p, 0.0)
        assert c == pytest.approx(c_want, rel=1e-10)
        b = beta_star(p, 0.0)
        # symbolic radial residual at sampled radii
        for r in (0.5, 1.0, 2.0, 10.0):
            g1 = -c * b * r ** (-b - 1)
            g2 = c * b * (b + 1) * r ** (-b - 2)
            lhs = eval_operator(op, radial_hessian(n, g1, g2, r))
            assert abs(lhs - (c * r ** -b) ** p) <= 1e-10 * max(1.0, abs(lhs))
        # discrete residual decays like h^2 under refinement
        prob = DirichletProblem(
            domain=Annulus(1.0, 2.0), n=n,
            rhs=lambda r, c=c, b=b, p=p: float((c * r ** -b) ** p),
            boundary=lambda r, c=c, b=b: float(c * r ** -b))
        errs = []
        for cells in (64, 128, 256):
            nodes = np.geomspace(1.0, 2.0, cells + 1)
            fld = RadialField(n=n, nodes=nodes, values=c * nodes ** -b)
            errs.append(residual_norm(op, fld, prob))
        assert errs[2] <= errs[0] * (64 / 256) ** 2 * 1.5  # ~ C h^2


def test_06_radial_solver_oracles_and_order():
    prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                            boundary=lambda r: 1.0 / r)
    fld = solve_dirichlet_radial(laplacian(3), 3, prob, 512)
    assert np.abs(fld.values - 1.0 / fld.nodes).max() <= 1e-3

    prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                            boundary=lambda r: r ** -3)
    fld = solve_dirichlet_radial(pucci_max(1, 2, 3), 3, prob, 512)
    assert np.abs(fld.values - fld.nodes ** -3.0).max() <= 1e-2

    smooth = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                              boundary=lambda r: 1.0 / r,
                              exact=lambda r: 1.0 / r)
    order = convergence_order(laplacian(3), smooth, (64, 128, 256))
    assert order >= 1.8


def test_07_principal_eigenvalue():
    lam1 = principal_eigenvalue(laplacian(3), Annulus(1.0, 2.0), 2048).lambda1
    assert lam1 == pytest.approx(PI2, rel=0.01)
    scaled = principal_eigenvalue(laplacian(3), Annulus(2.0, 4.0), 1024).lambda1
    assert scaled == pytest.approx(PI2 / 4.0, rel=0.02)
    dom = Annulus(1.0, 2.0)
    lo = principal_eigenvalue(pucci_min(1, 2, 3), dom, 512).lambda1
    hi = principal_eigenvalue(pucci_max(1, 2, 3), dom, 512).lambda1
    rng = np.random.default_rng(11)
    for _ in range(5):
        op = random_isaacs(rng, 3, 1.0, 2.0)
        object.__setattr__(op, "rot_invariant", True)
        mid = principal_eigenvalue(op, dom, 512).lambda1
        assert lo - 1e-6 <= mid <= hi + 1e-6


def test_08_fundamental_profile_exponents():
    for op, want in ((pucci_max(1, 2, 3), 3.0), (laplacian(3), 1.0)):
        prof = fundamental_profile(op, 3, 512)
        assert prof.fitted_alpha == pytest.approx(want, rel=0.01)
        assert not prof.log_case
    assert fundamental_profile(pucci_min(1, 2, 3), 3, 512).log_case
    assert fundamental_profile(laplacian(2), 2, 512).log_case


def test_09_hadamard_monotonicity():
    op = pucci_max(1, 2, 3)
    prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                            boundary=lambda r: xi_alpha(3.0, r))
    fld = solve_dirichlet_radial(op, 3, prob, 512)
    rep = hadamard_check(op, fld)
    assert rep["passed"]
    assert rep["m_nonincreasing"] and rep["growth_nondecreasing"]
    # raw monotonicity within 1e-6 * ||u|| on the curve itself
    tol = 1e-6 * float(np.abs(fld.values).max())
    curve = sphere_min_curve(fld, fld.nodes)
    ms = np.array([m for _, m in curve])
    rs = np.array([r for r, _ in curve])
    assert (np.diff(ms) <= tol).all()
    assert (np.diff(rs ** 3 * ms) >= -tol).all()


def test_10_critical_log_check():
    rep = critical_log_check(laplacian(4), 4)
    assert rep["C"] == pytest.approx(2.0, abs=1e-8)


def test_11_nonexistence_certificates():
    rep = nonexistence_certificate(laplacian(3), 3, 2.0, 0.0, c=1.0)
    assert rep["growth_exponent"] == pytest.approx(1.0)  # (beta*-alpha)(p-1)
    assert rep["sigma_star"] == pytest.approx(rep["lambda1"], rel=1e-9)
    assert rep["lambda1"] == pytest.approx(PI2, rel=0.02)
    crit = nonexistence_certificate(laplacian(4), 4, 2.0, 0.0, c=1.0)
    assert crit["sigma_star"] == pytest.approx(
        math.exp(crit["lambda1"]), rel=0.05)
    # the n = 4 radial eigenvalue sits just above the n = 3 value pi^2
    assert PI2 <= crit["lambda1"] <= 1.1 * PI2


def test_12_bend_and_truncate():
    tau, c, _ = bend_fundamental(pucci_max(1, 2, 3), 3, 2.0, 0.0)
    assert tau == pytest.approx(2.0 / 3.0) and c == pytest.approx(2.0)
    tau, c, _ = bend_fundamental(laplacian(3), 3, 5.0, 0.0)
    assert tau == pytest.approx(0.5) and c == pytest.approx(0.25)
    for op, p in ((pucci_max(1, 2, 3), 2.0), (laplacian(3), 5.0)):
        patch = build_global_supersolution(op, 3, p, 0.0, cells=256)
        assert all(abs(j) <= 1e-8 for j in patch.continuity_jumps)
        assert patch.residual_report["inner_min_residual"] >= -1e-8
        assert patch.residual_report["tail_min_residual"] >= -1e-8


FIXED_POINT_REGIMES = [
    (pucci_max(1, 2, 3), 3, 2.0), (pucci_max(1, 2, 3), 3, 3.0),
    (pucci_max(1, 2, 3), 3, 6.0), (laplacian(3), 3, 4.0),
    (laplacian(3), 3, 5.0), (laplacian(3), 3, 8.0), (pucci_max(1, 3, 4), 4, 2.0),
]


def test_13_fixed_point():
    prof, r_bar, rep = fixed_point(pucci_max(1, 2, 3), 3, 2.0)
    assert prof.constant == pytest.approx(2.0, abs=1e-10)
    assert r_bar == pytest.approx(1.0)
    assert prof.norm() == pytest.approx(2.0) and r_bar < prof.norm()
    # the inner-radius bound holds on every shipped regime
    for f_op, n, p in FIXED_POINT_REGIMES:
        profile, rb, _ = fixed_point(f_op, n, p)
        assert profile.norm() > rb


@pytest.mark.parametrize("f_op,n,p", FIXED_POINT_REGIMES)
def test_13_fixed_point_is_the_explicit_constant(f_op, n, p):
    # the constant profile is the closed form c* = K^{1/(p-1)}, bit for bit
    assert fixed_point(f_op, n, p)[0].constant == explicit_constant(f_op, n, p)


class TestPropertySuites1000:
    """Randomized invariants, >= 1000 cases each, fixed seeds."""

    def test_ellipticity_sandwich(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            lam = float(rng.uniform(0.2, 2.0))
            Lam = lam * float(rng.uniform(1.0, 3.0))
            op = random_isaacs(rng, n, lam, Lam)
            a = rng.normal(size=(n, n))
            m = SymMatrix.from_dense((a + a.T) / 2)
            lo = eval_operator(pucci_min(lam, Lam, n), m)
            hi = eval_operator(pucci_max(lam, Lam, n), m)
            val = eval_operator(op, m)
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_duality(self):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            lam = float(rng.uniform(0.2, 2.0))
            Lam = lam * float(rng.uniform(1.0, 3.0))
            a = rng.normal(size=(n, n))
            m = SymMatrix.from_dense((a + a.T) / 2)
            neg = SymMatrix.from_dense(-m.to_dense())
            assert eval_operator(pucci_max(lam, Lam, n), m) == pytest.approx(
                -eval_operator(pucci_min(lam, Lam, n), neg), abs=1e-9)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            lam = float(rng.uniform(0.2, 2.0))
            Lam = lam * float(rng.uniform(1.0, 3.0))
            op = pucci_max(lam, Lam, n)
            a = rng.normal(size=(n, n))
            m = SymMatrix.from_dense((a + a.T) / 2)
            t = float(rng.uniform(0.01, 20.0))
            tm = SymMatrix.from_dense(t * m.to_dense())
            assert eval_operator(op, tm) == pytest.approx(
                t * eval_operator(op, m), rel=1e-9, abs=1e-9)

    def test_discrete_comparison(self):
        rng = np.random.default_rng(104)
        op = pucci_max(1.0, 2.0, 3)
        dom = Annulus(1.0, 2.0)
        cases = 0
        while cases < 1000:
            g0 = float(rng.uniform(0.0, 2.0))
            g1 = float(rng.uniform(0.0, 2.0))
            bump = float(rng.uniform(0.0, 1.0))
            rhs_c = float(rng.uniform(0.0, 1.0))

            def solve(rc, b0, b1):
                prob = DirichletProblem(
                    domain=dom, n=3, rhs=lambda r: rc,
                    boundary=lambda r: b0 if r < 1.5 else b1)
                return solve_dirichlet_radial(op, 3, prob, 24)

            lo = solve(rhs_c, g0, g1)
            hi = solve(rhs_c + bump, g0 + bump, g1 + bump)
            assert (hi.values - lo.values).min() >= -1e-9
            cases += 1

    def test_rescale_action(self):
        rng = np.random.default_rng(105)
        nodes = np.geomspace(1.0, 4.0, 33)
        for _ in range(1000):
            s1 = float(rng.uniform(0.2, 5.0))
            s2 = float(rng.uniform(0.2, 5.0))
            b = float(rng.uniform(0.1, 3.0))
            fld = RadialField(n=3, nodes=nodes,
                              values=1.0 + rng.uniform(0.0, 1.0)
                              * np.sin(nodes))
            once = rescale(rescale(fld, s1, b), s2, b)
            direct = rescale(fld, s1 * s2, b)
            assert np.allclose(once.nodes, direct.nodes, rtol=1e-10)
            assert np.allclose(once.values, direct.values, rtol=1e-10)
