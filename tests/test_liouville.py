"""Executable proof constructions: monotonicity, certificates, patches,
and the homogeneous-cone fixed point."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fnel import (
    Annulus, DirichletProblem, HomogeneousProfile, bend_fundamental,
    build_global_supersolution, cone_map_A, critical_log_check,
    fit_lower_bound, fixed_point, hadamard_check, isaacs, laplacian,
    nonexistence_certificate, pucci_max, pucci_min, rescale,
    solve_dirichlet_radial, sphere_min_curve,
)
from fnel.liouville import (
    NO_CROSSING, NotSuperharmonic, WrongRegime, _angular_residual,
    _signed_min_residual, angular_hessian_profile, inner_validity_radius,
)
from fnel.scaling import K_coefficient, beta_star
from fnel.solver import Field2D, RadialField

PI2 = math.pi ** 2


def harmonic_field(op, n, exact, cells=256, r0=1.0, r1=2.0, rhs=None):
    prob = DirichletProblem(domain=Annulus(r0, r1), n=n, rhs=rhs,
                            boundary=exact)
    return solve_dirichlet_radial(op, n, prob, cells)


class TestRescale:
    def test_identity_on_profiles(self):
        prof = HomogeneousProfile(beta=2.0, n=3, constant=1.5)
        assert rescale(prof, 3.0, 2.0) is prof

    def test_sigma_one_identity_on_fields(self, lap3):
        fld = harmonic_field(lap3, 3, lambda r: 1.0 / r)
        out = rescale(fld, 1.0, 1.0)
        assert np.allclose(out.nodes, fld.nodes)
        assert np.allclose(out.values, fld.values)

    def test_power_field_invariant(self, lap3):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=nodes ** -2.0)
        out = rescale(fld, 2.0, 2.0)
        # same function sampled on the shrunken grid
        assert np.allclose(out.values, out.nodes ** -2.0)

    def test_action_property(self, lap3):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=1.0 / nodes)
        once = rescale(rescale(fld, 2.0, 1.0), 3.0, 1.0)
        direct = rescale(fld, 6.0, 1.0)
        assert np.allclose(once.nodes, direct.nodes)
        assert np.allclose(once.values, direct.values)

    def test_supersolution_sign_preserved(self, pm3):
        fld = harmonic_field(pm3, 3, lambda r: r ** -0.5,
                             rhs=lambda r: None or 0.0, cells=256)
        # make it strictly superharmonic by solving with a positive rhs
        prob = DirichletProblem(domain=Annulus(1.0, 2.0), n=3,
                                rhs=lambda r: 0.1 * r ** -2.5,
                                boundary=lambda r: r ** -0.5)
        fld = solve_dirichlet_radial(pm3, 3, prob, 256)
        assert _signed_min_residual(pm3, fld) >= -1e-10
        out = rescale(fld, 2.0, 0.5)
        assert _signed_min_residual(pm3, out) >= -1e-6


class TestHadamard:
    def test_pucci_xi3_boundary_data(self, pm3):
        fld = harmonic_field(pm3, 3, lambda r: r ** -3, cells=512)
        rep = hadamard_check(pm3, fld)
        assert rep["passed"]
        assert rep["m_nonincreasing"] and rep["growth_nondecreasing"]

    def test_constant_field_degenerate(self, pm3):
        fld = harmonic_field(pm3, 3, lambda r: 1.0)
        assert hadamard_check(pm3, fld)["passed"]

    def test_laplacian_growth_exactly_constant(self, lap3):
        fld = harmonic_field(lap3, 3, lambda r: 1.0 / r, cells=512)
        curve = sphere_min_curve(fld, fld.nodes)
        prods = [r * m for r, m in curve]
        assert np.abs(np.asarray(prods) - 1.0).max() <= 1e-3

    def test_rejects_subharmonic_field(self, lap3):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=nodes.copy())
        with pytest.raises(NotSuperharmonic):
            hadamard_check(lap3, fld)

    def test_rejects_field_off_the_solver_grid(self, lap3):
        # an annulus grid is uniform in log r: the harmonic 1/r on nodes
        # uniform in r is not read as a (wrongly) subharmonic log-grid field
        nodes = np.linspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=1.0 / nodes)
        with pytest.raises(ValueError, match="64-cell grid of the annulus"):
            hadamard_check(lap3, fld)


class TestSphereMinCurve:
    """The sampled sphere minima against one scalar sample at a time."""

    def test_radial_field_matches_pointwise(self, lap3):
        fld = harmonic_field(lap3, 3, lambda r: 1.0 / r)
        radii = fld.nodes[::7]
        assert sphere_min_curve(fld, radii) == [(float(r), float(fld(r))) for r in radii]

    def test_field2d_matches_pointwise(self):
        rng = np.random.default_rng(3)
        fld = Field2D(h=0.25, x0=-2.0, y0=-2.0, values=rng.normal(size=(17, 17)),
                      interior=np.ones((17, 17), dtype=bool))
        radii = np.linspace(0.1, 1.9, 9)
        thetas = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        want = [(float(r), float(min(fld.interp(r * math.cos(t), r * math.sin(t))
                                     for t in thetas)))
                for r in radii]
        assert sphere_min_curve(fld, radii) == want


class TestFitLowerBound:
    def test_exact_power(self):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=1.0 / nodes)
        assert fit_lower_bound(fld, 1.0) == pytest.approx(1.0)

    def test_slower_decay(self):
        nodes = np.geomspace(1.0, 2.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=nodes ** -0.5)
        assert fit_lower_bound(fld, 1.0) == pytest.approx(1.0)

    def test_numeric_pucci_solve(self, pm3):
        fld = harmonic_field(pm3, 3, lambda r: r ** -3, cells=512)
        assert 0.9 <= fit_lower_bound(fld, 3.0) <= 1.1

    def test_scale_equivariance(self):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes,
                          values=nodes ** -1.3 * (1.1 + 0.1 * np.sin(nodes)))
        c0 = fit_lower_bound(fld, 1.3)
        c1 = fit_lower_bound(rescale(fld, 2.0, 1.3), 1.3)
        assert c1 == pytest.approx(c0, rel=1e-9)

    def test_rejects_nonpositive(self):
        nodes = np.geomspace(1.0, 4.0, 65)
        fld = RadialField(n=3, nodes=nodes, values=np.zeros_like(nodes))
        with pytest.raises(ValueError):
            fit_lower_bound(fld, 1.0)


class TestCertificate:
    def test_strict_case_laplacian_n3(self, lap3):
        rep = nonexistence_certificate(lap3, 3, 2.0, 0.0, c=1.0)
        assert rep["mode"] == "strict"
        assert rep["growth_exponent"] == pytest.approx(1.0)
        assert rep["sigma_star"] == pytest.approx(rep["lambda1"], rel=1e-6)
        assert rep["lambda1"] == pytest.approx(PI2, rel=0.02)

    def test_critical_log_case_laplacian_n4(self):
        lap4 = laplacian(4)
        rep = nonexistence_certificate(lap4, 4, 2.0, 0.0, c=1.0)
        assert rep["mode"] == "critical-log"
        assert rep["sigma_star"] == pytest.approx(
            math.exp(rep["lambda1"]), rel=1e-6)
        assert rep["sigma_star"] == pytest.approx(math.exp(PI2), rel=0.05 * PI2)

    def test_no_crossing_sentinel(self):
        lap4 = laplacian(4)
        rep = nonexistence_certificate(lap4, 4, 2.0, 0.0, c=0.5,
                                       use_log_improvement=False)
        assert rep["sigma_star"] == NO_CROSSING

    def test_existence_regime_rejected(self, pm3):
        with pytest.raises(WrongRegime):
            nonexistence_certificate(pm3, 3, 2.0, 0.0, c=1.0)

    def test_c_flagged_as_input(self, lap3):
        rep = nonexistence_certificate(lap3, 3, 2.0, 0.0, c=1.0)
        assert rep["c_is_input"] is True

    def test_curve_monotone_in_strict_case(self, lap3):
        rep = nonexistence_certificate(lap3, 3, 2.0, 0.0, c=1.0)
        mus = [m for _, m in rep["curve"]]
        assert all(a <= b + 1e-12 for a, b in zip(mus, mus[1:]))


class TestCriticalLogCheck:
    def test_laplacian_n4_exact_constant(self):
        rep = critical_log_check(laplacian(4), 4)
        assert rep["C"] == pytest.approx(2.0, abs=1e-8)

    def test_pucci_max_finite_positive(self, pm3):
        rep = critical_log_check(pm3, 3)
        assert 0 < rep["C"] < math.inf

    def test_w_decays(self):
        # alpha* > 0 dominates the log factor at r = 1e6
        a = 2.0
        r = 1e6
        assert r ** -a * math.log(r) < 1e-10

    def test_log_case_rejected(self, pmin3):
        with pytest.raises((WrongRegime, ValueError)):
            critical_log_check(pmin3, 3)


class TestBend:
    def test_pucci_max_example(self, pm3):
        tau, c, rep = bend_fundamental(pm3, 3, 2.0, 0.0)
        assert tau == pytest.approx(2.0 / 3.0)
        assert c == pytest.approx(2.0, rel=1e-9)

    def test_laplacian_example(self, lap3):
        tau, c, rep = bend_fundamental(lap3, 3, 5.0, 0.0)
        assert tau == pytest.approx(0.5)
        assert c == pytest.approx(0.25, rel=1e-9)

    def test_tau_in_unit_interval(self, pm3):
        for p in (1.8, 2.0, 3.0, 6.0):
            tau, _, _ = bend_fundamental(pm3, 3, p, 0.0)
            assert 0.0 < tau < 1.0

    def test_wrong_regime(self, lap3):
        with pytest.raises(WrongRegime):
            bend_fundamental(lap3, 3, 2.0, 0.0)

    def test_scalar_call_gives_floats(self, pm3):
        tau, c, rep = bend_fundamental(pm3, 3, 2.0, 0.0)
        assert all(type(v) is float for v in (tau, c, rep["beta_star"],
                                              rep["K_at_beta_star"], rep["ratio_spread"]))

    @pytest.mark.parametrize("op", [laplacian(5), pucci_max(1.0, 2.0, 3),
                                    pucci_min(1.0, 1.2, 6)], ids=lambda op: op.kind)
    def test_array_entries_match_scalar_calls(self, op):
        # p = 2, 3 and gamma = 1, -0.5 give exponents 2, -1 and 0.5, which
        # numpy's power takes by another path for a scalar than for an array
        ps = np.array([[2.0, 3.0, 4.0], [5.0, 6.5, 9.0]])
        gammas = np.array([0.0, 1.0, -0.5])
        tau, c, rep = bend_fundamental(op, op.dim, ps, gammas)
        assert tau.shape == c.shape == rep["ratio_spread"].shape == ps.shape
        for i, j in np.ndindex(ps.shape):
            t1, c1, rep1 = bend_fundamental(op, op.dim, float(ps[i, j]), float(gammas[j]))
            assert (tau[i, j], c[i, j]) == (t1, c1)
            for key in ("beta_star", "K_at_beta_star", "ratio_spread"):
                assert rep[key][i, j] == rep1[key]
            assert rep["alpha_star"] == rep1["alpha_star"]

    def test_array_wrong_regime_names_first_entry(self, lap3):
        with pytest.raises(WrongRegime, match=r"beta\*=2 < alpha\*=1$"):
            bend_fundamental(lap3, 3, np.array([5.0, 2.0, 1.5]), 0.0)
        with pytest.raises(ValueError, match="p must exceed 1"):
            bend_fundamental(lap3, 3, np.array([5.0, 0.5]), 0.0)


class TestGlobalSupersolution:
    def test_laplacian_truncation_closed_form(self, lap3):
        patch = build_global_supersolution(lap3, 3, 5.0, 0.0, cells=256)
        # inner solve with rhs a: w = a(1 - r^2)/6
        w = patch.inner
        want = patch.a * (1.0 - w.nodes ** 2) / 6.0
        assert np.abs(w.values - want).max() <= 1e-8 * patch.a
        assert patch.a >= (patch.a / 6.0) ** 5  # ABP-style sizing holds

    def test_continuity(self, pm3):
        patch = build_global_supersolution(pm3, 3, 2.0, 0.0, cells=256)
        assert all(abs(j) <= 1e-8 for j in patch.continuity_jumps)

    def test_residuals_nonnegative(self, pm3, lap3):
        for op, p in ((pm3, 2.0), (lap3, 5.0)):
            patch = build_global_supersolution(op, 3, p, 0.0, cells=256)
            rep = patch.residual_report
            assert rep["inner_min_residual"] >= -1e-8
            assert rep["tail_min_residual"] >= -1e-8

    def test_patch_evaluates_positively(self, pm3):
        patch = build_global_supersolution(pm3, 3, 2.0, 0.0, cells=256)
        for r in (0.01, 0.2, patch.match_radius, 1.0, 10.0, 1e3):
            assert patch(r) > 0


class TestAngularHessianOracle:
    """The rotating-frame Hessian formula is invented; validate it against
    an ambient finite-difference Hessian on non-radial profiles."""

    PROFILES = [
        (lambda t: 1.0 + 0.3 * math.cos(t), lambda t: -0.3 * math.sin(t),
         lambda t: -0.3 * math.cos(t)),
        (lambda t: 2.0 + math.sin(2 * t), lambda t: 2.0 * math.cos(2 * t),
         lambda t: -4.0 * math.sin(2 * t)),
        (lambda t: 1.5 + 0.2 * math.cos(3 * t) + 0.1 * math.sin(t),
         lambda t: -0.6 * math.sin(3 * t) + 0.1 * math.cos(t),
         lambda t: -1.8 * math.cos(3 * t) - 0.1 * math.sin(t)),
    ]

    @pytest.mark.parametrize("idx", range(3))
    @pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
    def test_matches_ambient_fd(self, idx, theta):
        beta = 1.3
        psi, dpsi, ddpsi = self.PROFILES[idx]

        def u(x, y):
            r = math.hypot(x, y)
            t = math.atan2(y, x)
            return r ** -beta * psi(t)

        r0 = 1.4
        x0, y0 = r0 * math.cos(theta), r0 * math.sin(theta)
        h = 1e-5
        fd = np.empty((2, 2))
        pts = [(x0, y0)]
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h
                fd[i, j] = (u(x0 + ei[0] + ej[0], y0 + ei[1] + ej[1])
                            - u(x0 + ei[0] - ej[0], y0 + ei[1] - ej[1])
                            - u(x0 - ei[0] + ej[0], y0 - ei[1] + ej[1])
                            + u(x0 - ei[0] - ej[0], y0 - ei[1] - ej[1])) / (4 * h * h)
        frame = angular_hessian_profile(psi(theta), dpsi(theta),
                                        ddpsi(theta), beta)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        want = rot @ frame @ rot.T * r0 ** (-beta - 2.0)
        assert np.allclose(fd, want, atol=5e-5)


class TestConeMap:
    def test_constant_example(self, pm3):
        v = HomogeneousProfile(beta=2.0, n=3, constant=3.0)
        assert cone_map_A(pm3, 3, 2.0, v).constant == pytest.approx(4.5)

    def test_zero_maps_to_zero(self, pm3):
        v = HomogeneousProfile(beta=2.0, n=3, constant=0.0)
        assert cone_map_A(pm3, 3, 2.0, v).constant == 0.0

    def test_fixed_point_constant(self, pm3):
        v = HomogeneousProfile(beta=2.0, n=3, constant=2.0)
        assert cone_map_A(pm3, 3, 2.0, v).constant == pytest.approx(2.0)

    def test_homogeneity_degree_p(self, pm3):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(0.1, 3.0))
            v = HomogeneousProfile(beta=2.0, n=3, constant=c)
            tv = HomogeneousProfile(beta=2.0, n=3, constant=t * c)
            a_v = cone_map_A(pm3, 3, 2.0, v).constant
            a_tv = cone_map_A(pm3, 3, 2.0, tv).constant
            assert a_tv == pytest.approx(t ** 2.0 * a_v, rel=1e-10)

    def test_angular_path_positive(self, pm2):
        b = beta_star(4.0, 0.0)
        theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        v = HomogeneousProfile(beta=b, n=2,
                               angular=0.6 + 0.1 * np.cos(theta))
        u = cone_map_A(pm2, 2, 4.0, v)
        assert u.angular.min() > 0
        res = _angular_residual(pm2, u.angular, b, v.angular ** 4.0)
        assert np.abs(res).max() <= 1e-9

    def test_wrong_regime(self, lap3):
        v = HomogeneousProfile(beta=2.0, n=3, constant=1.0)
        with pytest.raises(WrongRegime):
            cone_map_A(lap3, 3, 2.0, v)

    def test_degree_mismatch_rejected(self, pm3):
        v = HomogeneousProfile(beta=1.0, n=3, constant=1.0)
        with pytest.raises(ValueError):
            cone_map_A(pm3, 3, 2.0, v)


class TestScalarNewton:
    def test_inner_radius_example(self):
        assert inner_validity_radius(2.0, 2.0) == pytest.approx(1.0)


class TestFixedPoint:
    def test_pucci_max_closed_form(self, pm3):
        prof, r_bar, rep = fixed_point(pm3, 3, 2.0)
        assert prof.constant == pytest.approx(2.0, abs=1e-10)
        assert r_bar == pytest.approx(1.0)
        assert prof.norm() == pytest.approx(2.0) and prof.norm() > r_bar

    def test_laplacian_p5(self, lap3):
        prof, r_bar, rep = fixed_point(lap3, 3, 5.0)
        assert prof.constant == pytest.approx(0.25 ** 0.25, abs=1e-10)
        assert prof.norm() > r_bar

    def test_inner_radius_bound_across_regimes(self, pm3, lap3):
        cases = [(pm3, 3, 2.0), (pm3, 3, 3.0), (pm3, 3, 6.0),
                 (lap3, 3, 4.0), (lap3, 3, 5.0), (lap3, 3, 8.0)]
        for op, n, p in cases:
            prof, r_bar, _ = fixed_point(op, n, p)
            assert prof.norm() > r_bar

    def test_angular_path_converges_to_constant(self, pm2):
        prof, r_bar, rep = fixed_point(pm2, 2, 4.0, angular_points=32,
                                       perturb=0.3, seed=1)
        k = K_coefficient(pm2, 2, beta_star(4.0, 0.0))
        c_star = k ** (1.0 / 3.0)
        assert np.abs(prof.angular - c_star).max() <= 1e-6
        assert rep["residual"] <= 1e-6
        assert prof.norm() > r_bar

    def test_angular_path_seed_robust(self, pm2):
        for seed in (0, 2, 7):
            prof, _, rep = fixed_point(pm2, 2, 5.0, angular_points=24,
                                       perturb=0.25, seed=seed)
            spread = prof.angular.max() - prof.angular.min()
            assert spread <= 1e-8 and rep["residual"] <= 1e-6

    def test_overflowing_trial_points_reach_the_fallbacks(self):
        # hybr steps here reach w where exp(w) overflows; the attempt ends
        # there and the restarts and Levenberg-Marquardt run, instead of a
        # ValueError escaping from the matrix checks inside the residual
        op = isaacs(1.0, 2.0, 2, [[np.diag([1.0, 1.5])], [np.diag([1.5, 1.0])]])
        with pytest.raises(RuntimeError, match="Newton did not converge"):
            fixed_point(op, 2, 5.0, angular_points=12, perturb=0.05, seed=1)

    def test_wrong_regime(self, lap3):
        with pytest.raises(WrongRegime):
            fixed_point(lap3, 3, 2.0)

    def test_not_rotation_invariant_needs_the_angular_path(self):
        op = isaacs(1.0, 2.0, 2, [[np.diag([1.0, 2.0])], [np.diag([2.0, 1.0])]])
        with pytest.raises(ValueError, match="angular path"):
            fixed_point(op, 2, 2.0)

    def test_angular_points_need_n2(self, pm3):
        with pytest.raises(ValueError, match="n = 2"):
            fixed_point(pm3, 3, 2.0, angular_points=16)

    def test_dichotomy_wording(self, pm3):
        _, _, rep = fixed_point(pm3, 3, 2.0)
        assert "not excluded" in rep["dichotomy"]


class TestHomogeneousProfile:
    def test_norm_is_sphere_max(self):
        theta = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        prof = HomogeneousProfile(beta=1.0, n=2,
                                  angular=1.0 + 0.5 * np.cos(theta))
        assert prof.norm() == pytest.approx(1.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            HomogeneousProfile(beta=1.0, n=2, constant=-1.0)

    def test_evaluates_homogeneously(self):
        prof = HomogeneousProfile(beta=2.0, n=3, constant=1.5)
        x = np.array([1.0, 2.0, -0.5])
        assert prof(2.0 * x) == pytest.approx(prof(x) / 4.0)


class TestImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # import fnel loads no scipy: sparse LU comes in at the first
        # factorization, and only the Newton solve needs scipy.optimize; a
        # radial and a 2D profile fit run without it
        import fnel

        env = {**os.environ, "PYTHONPATH": str(Path(fnel.__file__).parents[1])}
        code = (
            "import sys, fnel\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "fnel.fundamental_profile(fnel.pucci_max(1.0, 2.0, 3), 3, cells=64)\n"
            "spec = open(sys.argv[1]).read()\n"
            "fnel.fundamental_profile(fnel.parse_operator_spec(spec), 2, cells=128)\n"
            "print('scipy.optimize' in sys.modules)\n")
        isaacs_2d = Path(__file__).resolve().parents[1] / "samples" / "isaacs_2d.json"
        out = subprocess.run([sys.executable, "-c", code, str(isaacs_2d)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.split("\n")[:2] == ["[]", "False"]
