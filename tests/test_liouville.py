"""Executable proof constructions: monotonicity, certificates, patches,
and the homogeneous-cone fixed point."""

import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fnel import (
    Annulus, DirichletProblem, HomogeneousProfile, bend_fundamental,
    build_global_supersolution, cone_map_A, critical_log_check,
    fit_lower_bound, fixed_point, hadamard_check, isaacs, laplacian,
    nonexistence_certificate, operator_digest, pucci_max, pucci_min, rescale,
    solve_dirichlet_radial, sphere_min_curve,
)
from fnel.liouville import (
    LM_DIFF_STEP, NotSuperharmonic, WrongRegime, _angular_residual,
    _signed_min_residual, _tridiagonal_jacobian, angular_hessian_profile,
    inner_validity_radius,
)
from fnel.scaling import (
    EXISTENCE_SUPERSOLUTION, NONEXISTENCE_EXTERIOR, K_coefficient, beta_star, classify,
)
from fnel.solver import Field2D, RadialField
from conftest import random_isaacs

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

    def test_profile_of_another_degree_is_scaled(self):
        # sigma^beta u(sigma x) at e1 is 2 * 1.5 * 2^-2 = 0.75
        prof = HomogeneousProfile(beta=2.0, n=3, constant=1.5)
        out = rescale(prof, 2.0, 1.0)
        assert out.beta == 2.0 and out([1.0, 0.0, 0.0]) == 0.75
        ang = HomogeneousProfile(beta=2.0, n=2, angular=np.array([1.0, 3.0, 2.0]))
        assert np.array_equal(rescale(ang, 4.0, 2.5).angular, [2.0, 6.0, 4.0])

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_sigma_not_positive_and_finite(self, sigma):
        prof = HomogeneousProfile(beta=2.0, n=3, constant=1.5)
        fld = RadialField(n=3, nodes=np.geomspace(1.0, 4.0, 9), values=np.ones(9))
        for obj in (prof, fld):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                rescale(obj, sigma, 1.0)

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

    def test_existence_regime_rejected(self, pm3):
        with pytest.raises(WrongRegime):
            nonexistence_certificate(pm3, 3, 2.0, 0.0, c=1.0)

    def test_nan_c_is_refused(self, lap3):
        # an infinite c gave sigma* 0.0
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError, match="c must be positive and finite"):
                nonexistence_certificate(lap3, 3, 2.0, 0.0, c=c, cells=64)

    # NaN gave nan,nan curve rows, inf an inf,inf row and 0.5 a curve that
    # ran backwards from its first point 1 + 1e-9
    @pytest.mark.parametrize("sigma_max", [math.nan, math.inf, 0.5, 1.0 + 1e-9])
    def test_sigma_max_must_be_finite_and_past_the_first_point(self, lap3, sigma_max):
        with pytest.raises(ValueError, match="sigma_max must be finite and above"):
            nonexistence_certificate(lap3, 3, 2.0, 0.0, c=1.0, sigma_max=sigma_max,
                                     cells=64)

    def test_curves_script_writes_the_inputs_and_the_curve(self, tmp_path):
        # --out-prefix wrote each curve with no '#' line naming its inputs
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_certificate_curves.py"
        mod = runpy.run_path(str(script))
        assert mod["main"](["--out-prefix", str(tmp_path / "cert")]) == 0
        for name, op, n, p in mod["CASES"]:
            rep = nonexistence_certificate(op, n, p, 0.0, c=1.0, cells=mod["CELLS"])
            lines = (tmp_path / f"cert-{name}.csv").read_text().splitlines()
            assert lines[0] == (f"# c=1.0 case={name} cells={mod['CELLS']} "
                                f"operator_digest={operator_digest(op)} p={p}")
            assert lines[1] == "sigma,mu"
            assert lines[2:] == [f"{float(s)!r},{float(m)!r}" for s, m in rep["curve"]]

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
        assert c == 2.0  # K(beta* = 2) exactly

    def test_laplacian_example(self, lap3):
        tau, c, rep = bend_fundamental(lap3, 3, 5.0, 0.0)
        assert tau == pytest.approx(0.5)
        assert c == 0.25  # K(beta* = 1/2) exactly

    def test_tau_in_unit_interval(self, pm3):
        for p in (1.8, 2.0, 3.0, 6.0):
            tau, _, _ = bend_fundamental(pm3, 3, p, 0.0)
            assert 0.0 < tau < 1.0

    def test_wrong_regime(self, lap3):
        with pytest.raises(WrongRegime):
            bend_fundamental(lap3, 3, 2.0, 0.0)

    def test_scalar_call_gives_floats(self, pm3):
        tau, c, rep = bend_fundamental(pm3, 3, 2.0, 0.0)
        assert all(type(v) is float for v in (tau, c, rep["beta_star"], rep["K_at_beta_star"]))

    @pytest.mark.parametrize("op", [
        laplacian(5), pucci_max(1.0, 2.0, 3), pucci_min(1.0, 1.2, 6),
        isaacs(1.0, 2.0, 5, [[np.eye(5), 2.0 * np.eye(5)], [1.5 * np.eye(5)]], rot_invariant=True),
    ], ids=lambda op: op.kind)
    def test_array_entries_match_scalar_calls(self, op):
        # c = K(beta*) bit for bit: F(D^2 r^{-b}) = K(b) r^{-b-2} and
        # r^{-gamma} (r^{-b})^p = r^{-b-2} at b = beta*
        ps = np.array([[2.0, 3.0, 4.0], [5.0, 6.5, 9.0]])
        gammas = np.array([0.0, 1.0, -0.5])
        tau, c, rep = bend_fundamental(op, op.dim, ps, gammas)
        assert tau.shape == c.shape == rep["K_at_beta_star"].shape == ps.shape
        for i, j in np.ndindex(ps.shape):
            p, gamma = float(ps[i, j]), float(gammas[j])
            t1, c1, rep1 = bend_fundamental(op, op.dim, p, gamma)
            assert (tau[i, j], c[i, j]) == (t1, c1)
            assert c1 == K_coefficient(op, op.dim, beta_star(p, gamma))
            for key in ("beta_star", "K_at_beta_star"):
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

    def test_patch_at_the_origin_is_the_inner_piece(self, pm3):
        patch = build_global_supersolution(pm3, 3, 2.0, 0.0, cells=256)
        assert patch(0.0) == patch.inner(0.0) > 0
        assert math.isfinite(patch(1e-300)) and patch(1e-300) > 0

    def test_pieces_are_closed_forms(self, pm3):
        # w1 = (1 - r^2)/q with q = 2 F(-I) = 2 Lambda n = 12; the tail meets
        # w at delta = (s q / a)^{1/b} / 2
        patch = build_global_supersolution(pm3, 3, 2.0, 0.0, cells=64)
        r = patch.inner.nodes
        assert np.array_equal(r, np.linspace(0.0, 1.0, 65))
        assert np.array_equal(patch.inner.values, patch.a * (1.0 - r * r) / 12.0)
        assert (patch.a, patch.tail_scale) == (1.0, 2.0 ** -8)
        assert patch.delta == pytest.approx(0.5 * (12.0 / 256.0) ** 0.5, rel=1e-15)

    def test_p_near_one_builds(self):
        # the shell bound s < (a/q) 4^{-b} 15/16 is about 1e-26 at b = 40,
        # below the 2^-39 a 40-level dyadic scan reaches
        op = pucci_max(1.0, 10.0, 6)
        patch = build_global_supersolution(op, 6, 1.05, 0.0, cells=256)
        assert patch.residual_report["passed"]
        assert max(patch.continuity_jumps) <= 1e-12
        assert 0 < patch.tail_scale < 2.0 ** -39

    def test_large_p_is_continuous_at_delta(self, lap3):
        # w < v only below r ~ 3e-9 here, far inside the first node
        patch = build_global_supersolution(lap3, 3, 41.0, 0.0, cells=256)
        assert max(patch.continuity_jumps) <= 1e-12
        assert 0 < patch.delta < patch.inner.nodes[1]
        assert patch(patch.delta) == patch.inner(patch.delta)

    @pytest.mark.parametrize("op, p, error, message", [
        # alpha* = 6999, so b = beta* = 3499.5 at p = 1 + 2/b and 4^{-b} underflows
        (pucci_max(1.0, 1000.0, 8), 1.0 + 4.0 / 6999.0, RuntimeError,
         "the shell bound on s underflows to 0"),
        # beta* one ulp below alpha* = 1: classify reads existence, but K(beta*)
        # rounds to 0, so the regime gate refuses it before any bound is taken
        (pucci_min(1.0, 1.5, 4), 3.0000000000000004, WrongRegime,
         "requires K(beta*) > 0; got K=0.0 at beta*=0.9999999999999998, alpha*=1.0"),
    ], ids=["shell", "K"])
    def test_underflowing_bound_raises(self, op, p, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build_global_supersolution(op, op.dim, p, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_existence_grid_builds_continuous_patches(self, seed):
        # a seeded slice of Laplacian and Pucci operators, n = 2..6,
        # Lambda in {1.5, 3, 5.5}, gamma in {0, -0.5, -2} and beta*/alpha*
        # in [0.05, 0.95]
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n, Lam = int(rng.integers(2, 7)), float(rng.choice([1.5, 3.0, 5.5]))
            op = (laplacian(n), pucci_max(1.0, Lam, n), pucci_min(1.0, Lam, n))[rng.integers(3)]
            a = classify(op, n, 2.0).alpha_star
            if a <= 0:
                continue
            gamma = float(rng.choice([0.0, -0.5, -2.0]))
            p = 1.0 + (2.0 - gamma) / (a * float(rng.choice(np.linspace(0.05, 0.95, 10))))
            patch = build_global_supersolution(op, n, p, gamma, cells=256)
            assert patch.residual_report["passed"], (op, p, gamma)
            assert max(patch.continuity_jumps) <= 1e-12, (op, p, gamma)
            assert 0 < patch.delta < 0.25, (op, p, gamma)


class TestExistenceGate:
    """The four existence constructions return when K(beta*) > 0 and raise
    WrongRegime when it rounds to 0 or below, as it can at a beta* just
    below alpha*, where classify still reads existence."""

    OPS = [op for op in [laplacian(n) for n in range(3, 7)] + [
        kind(1.0, lam, n) for kind in (pucci_max, pucci_min)
        for lam in (1.1, 1.5, 3.0, 5.5) for n in range(2, 7)]
        if classify(op, op.dim, 2.0).alpha_star > 0]

    @staticmethod
    def near_threshold(op, count=60):
        """The first count doubles above p* = 1 + 2/alpha* with an existence verdict."""
        p, ps = 1.0 + 2.0 / classify(op, op.dim, 2.0).alpha_star, []
        while len(ps) < count:
            p = math.nextafter(p, math.inf)
            if classify(op, op.dim, p).outcome == EXISTENCE_SUPERSOLUTION:
                ps.append(p)
        return ps

    def test_constructions_follow_the_sign_of_K_near_the_threshold(self):
        assert len(self.OPS) == 34
        flat = set()
        for op in self.OPS:
            n, ps = op.dim, self.near_threshold(op)
            ks = K_coefficient(op, n, [beta_star(p) for p in ps]).tolist()
            for p, k in zip(ps, ks):
                prof = HomogeneousProfile(beta=beta_star(p), n=n, constant=1.0)
                for call in (lambda: bend_fundamental(op, n, p),
                             lambda: build_global_supersolution(op, n, p, 0.0, cells=64),
                             lambda: cone_map_A(op, n, p, prof),
                             lambda: fixed_point(op, n, p)):
                    if k > 0:
                        call()
                        continue
                    flat.add((op.kind, n, p))
                    with pytest.raises(WrongRegime, match=re.escape(f"got K={k!r} at beta*=")):
                        call()
            # the stacked call refuses the stack at its first entry with K <= 0
            first = next((p for p, k in zip(ps, ks) if not k > 0), None)
            if first is None:
                assert bend_fundamental(op, n, np.array(ps))[1].tolist() == ks
            else:
                with pytest.raises(WrongRegime, match=re.escape(f"beta*={beta_star(first)!r},")):
                    bend_fundamental(op, n, np.array(ps))
        # the first double above p* in both cases
        assert {("pucci_max", 2, 5.000000000000001), ("pucci_min", 4, 3.0000000000000004)} <= flat


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trial_points_reach_the_fallbacks(self):
        # Levenberg-Marquardt trial steps here reach w where exp(w), the
        # residual or its squared norm overflows; each such point is a
        # rejected step that raises the damping, with no warning, and the
        # solve ends in the documented RuntimeError instead of a ValueError
        # from the matrix checks inside the residual
        op = isaacs(1.0, 2.0, 2, [[np.diag([1.0, 1.5])], [np.diag([1.5, 1.0])]])
        with pytest.raises(RuntimeError, match="Newton did not converge"):
            fixed_point(op, 2, 5.0, angular_points=12, perturb=0.05, seed=1)

    def test_angular_path_is_the_closed_form(self):
        # seeded draws of rotation-invariant operators in the existence
        # regime: the angular solve must land on c* = K^{1/(p-1)} at every
        # angle.  Grids of fewer than 24 points are left out: they admit
        # non-constant discrete solutions next to c*, which a start
        # perturbed by up to 30% can reach
        rng = np.random.default_rng(34)
        for _ in range(30):
            lam = float(rng.uniform(0.5, 2.0))
            op = pucci_max(lam, lam * float(rng.uniform(1.2, 6.0)), 2)
            a = op.Lam / op.lam - 1.0
            p = 1.0 + 2.0 / (a * float(rng.uniform(0.05, 0.95)))
            m, perturb = int(rng.integers(24, 129)), float(rng.uniform(0.0, 0.3))
            prof, _, rep = fixed_point(op, 2, p, angular_points=m, perturb=perturb,
                                       seed=int(rng.integers(1000)))
            c_star = K_coefficient(op, 2, beta_star(p)) ** (1.0 / (p - 1.0))
            assert np.abs(prof.angular / c_star - 1.0).max() <= 1e-8, (op, p, m)
            assert rep["residual"] <= 1e-9

    def test_rotation_invariant_isaacs_has_no_angular_existence_regime(self):
        # a rotation-invariant Isaacs family in 2D has scalar controls, so
        # alpha* = n - 2 = 0 and every p is on the nonexistence side
        rng = np.random.default_rng(35)
        for _ in range(10):
            rows = [[float(s) * np.eye(2) for s in rng.uniform(1.0, 2.0, 2)]
                    for _ in range(2)]
            op = isaacs(1.0, 2.0, 2, rows, rot_invariant=True)
            p = float(rng.uniform(1.1, 20.0))
            assert classify(op, 2, p).outcome == NONEXISTENCE_EXTERIOR
            with pytest.raises(WrongRegime):
                fixed_point(op, 2, p, angular_points=int(rng.integers(3, 129)))

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

    def test_constant_deviation_flags_a_non_constant_profile(self):
        # a 3-point grid holds a non-constant discrete solution, which this
        # start reaches with a residual near round-off
        op = pucci_max(1.0, 3.0, 2)
        prof, _, rep = fixed_point(op, 2, 4.0, angular_points=3, perturb=0.3, seed=0)
        c_star = K_coefficient(op, 2, beta_star(4.0)) ** (1.0 / 3.0)
        assert rep["residual"] <= 1e-9
        assert rep["constant_deviation"] == np.abs(prof.angular / c_star - 1.0).max() > 0.1
        _, _, rep = fixed_point(op, 2, 4.0, angular_points=32, perturb=0.1, seed=0)
        assert rep["constant_deviation"] <= 1e-8
        assert fixed_point(op, 2, 4.0)[2]["constant_deviation"] == 0.0

    def test_constant_deviation_is_none_without_c_star(self):
        # the sup over three rotations of diag(1, 2): not rotation-invariant
        rot = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
               for t in np.pi * np.arange(3) / 3]
        op = isaacs(1.0, 2.0, 2, [[q @ np.diag([1.0, 2.0]) @ q.T] for q in rot])
        _, _, rep = fixed_point(op, 2, 5.0, angular_points=16)
        assert rep["constant_deviation"] is None

    def test_dichotomy_wording(self, pm3):
        _, _, rep = fixed_point(pm3, 3, 2.0)
        assert "not excluded" in rep["dichotomy"]


_JACOBIAN_OPS = {
    "pucci_max": pucci_max(1.0, 2.0, 2),
    "isaacs_rot": isaacs(1.0, 2.0, 2, [[np.eye(2), 2.0 * np.eye(2)], [1.5 * np.eye(2)]],
                         rot_invariant=True),
    "isaacs_general": random_isaacs(np.random.default_rng(4), 2),
}


class TestNewtonJacobian:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 64])
    @pytest.mark.parametrize("kind", sorted(_JACOBIAN_OPS))
    def test_coloured_matches_one_column_at_a_time(self, kind, m):
        # the coloured Jacobian reads each column only on the rows j-1, j, j+1
        # of the periodic tridiagonal pattern; it must equal a dense forward
        # difference that moves one column per residual call
        op, p = _JACOBIAN_OPS[kind], 4.0
        b = beta_star(p)
        rng = np.random.default_rng(m)
        w = np.log(rng.uniform(0.5, 1.5, m))
        rhs = rng.uniform(0.1, 1.0, m)
        for fn in (lambda w: _angular_residual(op, np.exp(w), b, rhs),
                   lambda w: _angular_residual(op, np.exp(w), b, np.exp(w) ** p) / np.exp(w)):
            r = fn(w)
            dense = np.empty((m, m))
            for j in range(m):
                wt = w.copy()
                wt[j] += LM_DIFF_STEP
                dense[:, j] = (fn(wt) - r) / (wt[j] - w[j])
            assert np.array_equal(_tridiagonal_jacobian(fn, w, r), dense)

    def test_three_to_five_residual_calls(self):
        # a periodic tridiagonal linear map is its own Jacobian: a colour
        # holding two columns that touch one row would be off by O(1)
        for m in range(1, 131):
            rng = np.random.default_rng(m)
            band = rng.uniform(0.5, 1.5, (3, m))
            calls = []

            def fn(w):
                calls.append(1)
                return band[0] * np.roll(w, 1) + band[1] * w + band[2] * np.roll(w, -1)

            w = rng.uniform(-1.0, 1.0, m)
            jac = _tridiagonal_jacobian(fn, w, fn(w))
            want = np.zeros((m, m))
            for i in range(m):
                for k, d in enumerate((-1, 0, 1)):
                    want[i, (i + d) % m] += band[k, i]
            assert np.allclose(jac, want, rtol=1e-6, atol=1e-6), m
            assert min(m, 3) <= len(calls) - 1 <= 5, m


class TestHomogeneousProfile:
    def test_norm_is_sphere_max(self):
        theta = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        prof = HomogeneousProfile(beta=1.0, n=2,
                                  angular=1.0 + 0.5 * np.cos(theta))
        assert prof.norm() == pytest.approx(1.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            HomogeneousProfile(beta=1.0, n=2, constant=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        for kwargs in ({"beta": bad, "n": 3, "constant": 1.0},
                       {"beta": 1.0, "n": 3, "constant": bad},
                       {"beta": 1.0, "n": 2, "angular": [1.0, bad, 1.0]}):
            with pytest.raises(ValueError, match="finite"):
                HomogeneousProfile(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            cone_map_A(pucci_max(1.0, 2.0, 3), 3, 3.0,
                       HomogeneousProfile(beta=1.0, n=3, constant=bad))

    def test_evaluates_homogeneously(self):
        prof = HomogeneousProfile(beta=2.0, n=3, constant=1.5)
        x = np.array([1.0, 2.0, -0.5])
        assert prof(2.0 * x) == pytest.approx(prof(x) / 4.0)


class TestImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # import fnel loads no scipy, and the angular Newton solves of
        # fixed_point and cone_map_A run on numpy alone; an LU comes in at the
        # first factorization, and a radial and a 2D profile fit run without
        # scipy.optimize
        import fnel

        env = {**os.environ, "PYTHONPATH": str(Path(fnel.__file__).parents[1])}
        code = (
            "import sys, fnel\n"
            "import numpy as np\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "op = fnel.pucci_max(1.0, 2.0, 2)\n"
            "fnel.fixed_point(op, 2, 4.0, angular_points=16, perturb=0.1)\n"
            "theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)\n"
            "v = fnel.HomogeneousProfile(beta=fnel.beta_star(4.0), n=2,\n"
            "                            angular=0.6 + 0.1 * np.cos(theta))\n"
            "fnel.cone_map_A(op, 2, 4.0, v)\n"
            "print(scipy())\n"
            "fnel.fundamental_profile(fnel.pucci_max(1.0, 2.0, 3), 3, cells=64)\n"
            "spec = open(sys.argv[1]).read()\n"
            "fnel.fundamental_profile(fnel.parse_operator_spec(spec), 2, cells=128)\n"
            "print('scipy.optimize' in sys.modules)\n")
        isaacs_2d = Path(__file__).resolve().parents[1] / "samples" / "isaacs_2d.json"
        out = subprocess.run([sys.executable, "-c", code, str(isaacs_2d)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.split("\n")[:3] == ["[]", "[]", "False"]
