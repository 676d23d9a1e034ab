"""Scaling exponents, critical exponents, verdicts, and hypothesis sampling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fnel import (
    NONEXISTENCE_EXTERIOR, EXISTENCE_SUPERSOLUTION, K_coefficient,
    NonlinearitySpec, beta_star, classify, critical_exponent,
    explicit_constant, homogeneity_indicator, hypothesis_check, laplacian,
    pucci_max, pucci_min, xi_alpha,
)
from fnel import scaling
from fnel.matcore import eval_operator, isaacs, radial_hessian
from fnel.scaling import LOG_CASE_THRESHOLD, NotRotInvariant, alpha_star, sampled_verdict


class TestXiAlpha:
    def test_positive_branch(self):
        assert xi_alpha(1.0, 2.0) == pytest.approx(0.5)

    def test_log_branch(self):
        assert xi_alpha(0.0, math.e) == pytest.approx(-1.0)

    def test_negative_branch(self):
        assert xi_alpha(-0.5, 4.0) == pytest.approx(-2.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            xi_alpha(1.0, 0.0)


class TestHomogeneityIndicator:
    def test_pucci_max_root(self, pm3):
        assert homogeneity_indicator(pm3, 3, 3.0) == pytest.approx(0.0)

    def test_laplacian_root(self, lap3):
        assert homogeneity_indicator(lap3, 3, 1.0) == pytest.approx(0.0)

    def test_pucci_max_at_zero(self, pm3):
        # hand evaluation: -1*1 - 2*(-2) = 3
        assert homogeneity_indicator(pm3, 3, 0.0) == pytest.approx(3.0)

    def test_strictly_decreasing(self, pm3):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(-0.9, 4.0))
            d = float(rng.uniform(1e-3, 1.0))
            psi_a = homogeneity_indicator(pm3, 3, a)
            psi_ad = homogeneity_indicator(pm3, 3, a + d)
            assert psi_ad <= psi_a - pm3.lam * d + 1e-12

    def test_array_of_alpha(self, pm3, lap3):
        alphas = np.array([[-0.5, 0.0, 1.0], [2.5, 3.0, 4.75]])
        iso = isaacs(1, 2, 3, [[1.5 * np.eye(3), 2 * np.eye(3)], [np.eye(3)]],
                     rot_invariant=True)
        for op in (pm3, lap3, iso):
            psi = homogeneity_indicator(op, 3, alphas)
            assert psi.shape == alphas.shape
            assert psi.tolist() == [[homogeneity_indicator(op, 3, float(a))
                                     for a in row] for row in alphas]
        assert isinstance(homogeneity_indicator(pm3, 3, 1.0), float)

    def test_rejects_non_rot_invariant(self):
        op = isaacs(1, 2, 2, [[np.diag([1.0, 2.0])]])
        with pytest.raises(NotRotInvariant):
            homogeneity_indicator(op, 2, 1.0)

    def test_sign_matches_radial_residual(self, pm3):
        # sign(psi(alpha)) = sign(F(D^2 xi_alpha)) at any radius
        for alpha in (0.5, 2.0, 3.5):
            for r in (0.5, 1.0, 4.0):
                g1 = -alpha * r ** (-alpha - 1)
                g2 = alpha * (alpha + 1) * r ** (-alpha - 2)
                res = eval_operator(pm3, radial_hessian(3, g1, g2, r))
                psi = homogeneity_indicator(pm3, 3, alpha)
                assert np.sign(res) == np.sign(psi) or abs(psi) < 1e-12


class TestAlphaStar:
    def test_pucci_max_closed_form(self, pm3):
        rep = alpha_star(pm3, 3)
        assert rep.alpha_star == pytest.approx(3.0, abs=1e-8)
        assert not rep.log_case

    def test_pucci_min_log_case(self, pmin3):
        rep = alpha_star(pmin3, 3)
        assert rep.log_case
        assert abs(rep.alpha_star) < LOG_CASE_THRESHOLD

    def test_laplacian_all_dims(self):
        for n in (3, 4, 5, 6):
            rep = alpha_star(laplacian(n), n)
            assert rep.alpha_star == pytest.approx(n - 2, abs=1e-8)
        assert alpha_star(laplacian(2), 2).log_case

    def test_bracket_containment_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lam = float(rng.uniform(0.1, 3.0))
            Lam = lam * float(rng.uniform(1.0, 4.0))
            n = int(rng.integers(2, 7))
            rep = alpha_star(pucci_max(lam, Lam, n), n)
            lo = (lam / Lam) * (n - 1) - 1
            hi = (Lam / lam) * (n - 1) - 1
            assert lo - 1e-9 <= rep.alpha_star <= hi + 1e-9
            assert rep.alpha_star == pytest.approx(hi, abs=1e-8)

    def test_indicator_samples_recorded(self, monkeypatch, lap3, pm3, pmin3):
        # alpha* is a closed form: it samples the indicator nowhere
        calls = []
        real = scaling.homogeneity_indicator
        monkeypatch.setattr(scaling, "homogeneity_indicator",
                            lambda *args: calls.append(1) or real(*args))
        for op in (lap3, pm3, pmin3):
            alpha_star(op, 3)
        assert calls == []


def sequential_root(f, n, tol, below_root=None):
    """Reference root search of the indicator, bisecting one scalar indicator
    call per level.  Returns the root before the log-case snap.  Each level
    keeps the upper half when ``below_root(mid)``, by default when the
    indicator is positive at mid."""
    if below_root is None:
        below_root = lambda mid: homogeneity_indicator(f, n, mid) > 0
    a, b = scaling.alpha_bracket(f, n)
    scale = max(f.lam, 1.0)
    psi_lo, psi_hi = (homogeneity_indicator(f, n, x) for x in (a, b))
    if a == b or abs(psi_lo) <= tol * scale:
        return a
    if abs(psi_hi) <= tol * scale:
        return b
    while b - a > tol:
        mid = 0.5 * (a + b)
        if below_root(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def scalar_isaacs(rng, n):
    """Rotation-invariant Isaacs operator: ragged rows of multiples of I."""
    lam = float(rng.uniform(0.2, 2.0))
    Lam = lam * float(rng.uniform(1.01, 4.0))
    fams = [[float(rng.uniform(lam, Lam)) * np.eye(n)
             for _ in range(int(rng.integers(1, 4)))]
            for _ in range(int(rng.integers(1, 4)))]
    return isaacs(lam, Lam, n, fams, rot_invariant=True)


def alpha_star_in_child(cases):
    """alpha_star of each (kind, n, lam, Lam) Pucci case, computed in a child
    process with a timeout: a search that never ends fails the test instead
    of hanging the suite."""
    import fnel
    env = {**os.environ, "PYTHONPATH": str(Path(fnel.__file__).parents[1])}
    code = ("import json, sys\n"
            "from fnel import matcore, scaling\n"
            "ops = [(getattr(matcore, k)(lam, Lam, n), n)\n"
            "       for k, n, lam, Lam in json.load(sys.stdin)]\n"
            "print(json.dumps([scaling.alpha_star(op, n).alpha_star for op, n in ops]))\n")
    run = subprocess.run([sys.executable, "-c", code], input=json.dumps(cases), env=env,
                         timeout=60, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


# Pucci specs on which a bisection to 1e-12 fails: one ulp of the root
# exceeds 1e-12 (the loop never ends), or the rounding error of psi at the
# exact root has the wrong sign (no sign change is found)
WIDE_PUCCI = [("pucci_max", 6, 0.9075517090480139, 2382.2083523793704),
              ("pucci_max", 7, 9.243477587791476, 12006.681285706358)]


class TestStackedBisection:
    """A one-level-at-a-time bisection of the indicator and one that takes
    each level's side from the closed-form alpha_star make the same choices
    at every level, so they end on the same float."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-3, 0.3])
    def test_matches_sequential_loop_bit_for_bit(self, tol):
        rng = np.random.default_rng(2024)
        bisected = 0
        for i in range(60):
            n = 2 + i % 5
            op = scalar_isaacs(rng, n)
            assert op.rot_invariant
            root = alpha_star(op, n).alpha_star
            levels = []
            closed = sequential_root(op, n, tol,
                                     lambda mid: levels.append(mid) or mid < root)
            assert closed.hex() == sequential_root(op, n, tol).hex()
            bisected += bool(levels)
        assert bisected >= 40


class TestClosedForm:
    """alpha_star is the indicator's root in closed form: the exact bracket
    end for Pucci kinds and the Laplacian, and max_r min_c s/a11 - 1 for an
    Isaacs family; it calls the indicator nowhere."""

    def test_isaacs_matches_sequential_search(self, monkeypatch):
        calls = []
        real = scaling.homogeneity_indicator
        monkeypatch.setattr(scaling, "homogeneity_indicator",
                            lambda *args: calls.append(1) or real(*args))
        rng = np.random.default_rng(2024)
        interior = 0
        for i in range(60):
            n = 2 + i % 5
            op = scalar_isaacs(rng, n)
            assert op.rot_invariant
            root = sequential_root(op, n, 1e-12)
            calls.clear()
            rep = alpha_star(op, n)
            want = 0.0 if abs(root) < LOG_CASE_THRESHOLD else root
            assert abs(rep.alpha_star - want) <= 1e-12
            assert len(calls) == 0
            lo, hi = rep.bracket
            interior += lo < rep.alpha_star < hi
        assert interior >= 40

    def test_wide_ratio_pucci_is_the_exact_bracket_end(self):
        rng = np.random.default_rng(3)
        cases = list(WIDE_PUCCI)
        for i in range(400):
            lam = float(rng.uniform(0.01, 100.0))
            cases.append(("pucci_max" if i % 2 else "pucci_min", int(rng.integers(2, 9)),
                          lam, lam * float(10.0 ** rng.uniform(0.0, 5.0))))
        for (kind, n, lam, Lam), got in zip(cases, alpha_star_in_child(cases)):
            lo, hi = scaling.alpha_bracket(pucci_max(lam, Lam, n), n)
            want = hi if kind == "pucci_max" else lo
            want = 0.0 if abs(want) < LOG_CASE_THRESHOLD else want
            assert got == want, (kind, n, lam, Lam)

    def test_wide_ratio_classify(self):
        kind, n, lam, Lam = WIDE_PUCCI[1]
        v = classify(pucci_max(lam, Lam, n), n, 2.0)
        assert v.alpha_star == scaling.alpha_bracket(pucci_max(lam, Lam, n), n)[1]
        assert v.outcome == EXISTENCE_SUPERSOLUTION


class TestCriticalExponent:
    def test_laplacian_n3(self, lap3):
        assert critical_exponent(lap3, 3) == pytest.approx(3.0, abs=1e-12)

    def test_pucci_max(self, pm3):
        assert critical_exponent(pm3, 3) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_pucci_min_infinite(self, pmin3):
        assert critical_exponent(pmin3, 3) == math.inf


class TestBetaStar:
    def test_examples(self):
        assert beta_star(3.0, 0.0) == pytest.approx(1.0)
        assert beta_star(2.0, 1.0) == pytest.approx(1.0)
        assert beta_star(2.0, 0.0) == pytest.approx(2.0)

    def test_gamma_zero_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = float(rng.uniform(1.01, 9.0))
            assert beta_star(p, 0.0) == 2.0 / (p - 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            beta_star(1.0, 0.0)
        with pytest.raises(ValueError):
            beta_star(2.0, 2.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_must_be_finite(self, p):
        # p = inf gave beta* = 0, which every alpha* exceeds: an existence verdict
        with pytest.raises(ValueError, match="1 < p < inf"):
            beta_star(p, 0.0)


class TestKCoefficient:
    def test_laplacian_formula(self, lap3):
        assert K_coefficient(lap3, 3, 0.5) == pytest.approx(0.25)

    def test_pucci_max_formula(self, pm3):
        # K = Lam*(n-1)*beta - lam*beta*(beta+1) at beta = 2
        assert K_coefficient(pm3, 3, 2.0) == pytest.approx(2.0)

    def test_vanishes_at_alpha_star(self, pm3, lap3):
        assert K_coefficient(pm3, 3, 3.0) == pytest.approx(0.0, abs=1e-12)
        assert K_coefficient(lap3, 3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_switch_at_alpha_star(self, pm3):
        assert K_coefficient(pm3, 3, 2.9) > 0
        assert K_coefficient(pm3, 3, 3.1) < 0

    def test_array_of_beta_matches_scalars(self, pm3, pmin3, lap3):
        betas = np.random.default_rng(5).uniform(0.01, 8.0, 50)
        for op in (pm3, pmin3, lap3):
            ks = K_coefficient(op, 3, betas)
            assert ks.shape == betas.shape
            assert ks.tolist() == [K_coefficient(op, 3, b) for b in betas.tolist()]
        with pytest.raises(ValueError, match="positive"):
            K_coefficient(pm3, 3, np.array([1.0, 0.0]))


class TestExplicitConstant:
    def test_laplacian_p5(self, lap3):
        assert explicit_constant(lap3, 3, 5.0) == pytest.approx(0.25 ** 0.25)

    def test_pucci_max_p2(self, pm3):
        assert explicit_constant(pm3, 3, 2.0) == pytest.approx(2.0)

    def test_none_in_nonexistence_regime(self, lap3):
        assert explicit_constant(lap3, 3, 2.0) is None

    def test_residual_vanishes(self, pm3, lap3):
        # F(D^2 (c r^{-b})) - c^p r^{-gamma - b p} == 0 at several radii
        for op, n, p, gamma in ((pm3, 3, 2.0, 0.0), (lap3, 3, 5.0, 0.0),
                                (pm3, 3, 3.0, 0.5)):
            c = explicit_constant(op, n, p, gamma)
            if c is None:
                continue
            b = beta_star(p, gamma)
            for r in (0.5, 1.0, 2.0, 10.0):
                g1 = -c * b * r ** (-b - 1)
                g2 = c * b * (b + 1) * r ** (-b - 2)
                lhs = eval_operator(op, radial_hessian(n, g1, g2, r))
                rhs = r ** (-gamma) * (c * r ** -b) ** p
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestClassify:
    def test_laplacian_p2_nonexistence(self, lap3):
        v = classify(lap3, 3, 2.0)
        assert v.outcome == NONEXISTENCE_EXTERIOR
        assert v.alpha_star == pytest.approx(1.0)
        assert v.beta_star == pytest.approx(2.0)

    def test_pucci_max_p2_existence(self, pm3):
        assert classify(pm3, 3, 2.0).outcome == EXISTENCE_SUPERSOLUTION

    def test_equality_is_nonexistence(self):
        v = classify(laplacian(4), 4, 2.0)
        assert v.alpha_star == pytest.approx(v.beta_star)
        assert v.outcome == NONEXISTENCE_EXTERIOR

    def test_nan_exponents_are_refused(self, pm3):
        # NaN passed p <= 1 and gamma >= 2 and classified as existence
        with pytest.raises(ValueError, match="p must exceed 1"):
            classify(pm3, 3, math.nan)
        with pytest.raises(ValueError, match="gamma must be below 2"):
            classify(pm3, 3, 2.0, math.nan)
        # -inf made beta* infinite
        with pytest.raises(ValueError, match="gamma must be below 2 and finite"):
            classify(pm3, 3, 2.0, -math.inf)

    def test_margin_sign(self, lap3, pm3):
        assert classify(lap3, 3, 2.0).margin < 0
        assert classify(pm3, 3, 2.0).margin > 0

    def test_laplacian_column_matches_critical_exponent_rule(self):
        # generic p values stay clear of floating-point dust at the exact
        # boundary p = n/(n-2); n = 4 exercises the equality case exactly
        for n in (3, 4, 5, 6):
            crit = n / (n - 2)
            probes = [1.1, 1.5, crit * (1 - 1e-6), crit * (1 + 1e-6),
                      2.0, 3.0, 5.0]
            if n == 4:
                probes.append(2.0)  # p = crit exactly representable
            for p in probes:
                v = classify(laplacian(n), n, p)
                want = (NONEXISTENCE_EXTERIOR if p <= crit
                        else EXISTENCE_SUPERSOLUTION)
                assert v.outcome == want, (n, p)


class TestHypothesisCheck:
    def test_identity_power_case(self):
        spec = NonlinearitySpec.power(1.0, 1.0, 2.0)
        rep = hypothesis_check(spec, 2.0, 1.0)
        assert rep.all_passed
        for name in ("fx-nonexist1", "fx-nonexist2", "fx-exist"):
            assert rep.condition(name).fitted_constant == pytest.approx(1.0)

    def test_lower_bound_with_extra_term(self):
        # f = s^2 + s^3 >= s^2 on (0, 1]
        spec = NonlinearitySpec(
            evaluator=lambda r, s: s ** 2 + s ** 3, epsilon0=1.0, R0=1.0)
        rep = hypothesis_check(spec, 2.0, 0.0)
        cond = rep.condition("fx-nonexist1")
        assert cond.passed
        assert cond.fitted_constant == pytest.approx(1.0, rel=1e-6)

    def test_ratio_condition_divergence_detected(self):
        # f = sqrt(s): f(s)/s = s^{-1/2} blows up as s -> 0
        spec = NonlinearitySpec(
            evaluator=lambda r, s: math.sqrt(s), epsilon0=1.0, R0=1.0)
        rep = hypothesis_check(spec, 2.0, 0.0)
        assert not rep.condition("fx-nonexist2").passed

    def test_wording_fixed(self):
        spec = NonlinearitySpec.power(1.0, 0.0, 2.0)
        rep = hypothesis_check(spec, 2.0, 0.0)
        assert rep.wording == "sampled evidence, not certified"

    def test_one_evaluation_per_sample_point(self):
        # 24 radii x 48 values of s, plus f(r, t) at 6 radii x 8 values of t
        calls = []

        def counting(r, s):
            calls.append((float(r), float(s)))
            return r ** -1.0 * s ** 2

        hypothesis_check(NonlinearitySpec(evaluator=counting), 2.0, 1.0)
        assert len(calls) == len(set(calls)) == 1200

    def test_power_case_constants_and_witnesses_pinned(self):
        rep = hypothesis_check(NonlinearitySpec.power(1.0, 0.5, 2.0), 2.0, 0.5)
        got = [(c.name, c.fitted_constant, c.passed, tuple(map(float, c.witness)))
               for c in rep.conditions]
        assert got == [
            ("fx-nonexist1", 0.9999999999999998, True,
             (2.7213387683753076, 0.00019855111964445807)),
            ("fx-nonexist2", 1.0, True, (1.0, 1e-06, 1e-06)),
            ("fx-exist", 1.0000000000000002, True,
             (1.4924955450518294, 1.3417128354799116e-06)),
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["epsilon0", "R0"])
    def test_spec_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            NonlinearitySpec(evaluator=lambda r, s: s ** 2, **{name: bad})
        with pytest.raises(ValueError, match="finite"):
            NonlinearitySpec.power(1.0, 0.0, 2.0, **{name: bad})

    @pytest.mark.parametrize("c,gamma,p", [
        (math.nan, 0.0, 2.0), (math.inf, 0.0, 2.0), (1.0, math.nan, 2.0),
        (1.0, -math.inf, 2.0), (1.0, 0.0, math.nan), (1.0, 0.0, math.inf)])
    def test_power_rejects_non_finite(self, c, gamma, p):
        with pytest.raises(ValueError, match="finite"):
            NonlinearitySpec.power(c, gamma, p)

    def test_sampled_verdict_combines(self, pm3):
        spec = NonlinearitySpec.power(1.0, 0.0, 1.4)
        rep = sampled_verdict(pm3, 3, spec, 1.4, 0.0)
        assert rep["outcome"] == NONEXISTENCE_EXTERIOR
        assert rep["wording"] == "sampled evidence, not certified"
