"""Property-based invariants checked with hypothesis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnel import (
    Annulus, DirichletProblem, HomogeneousProfile, beta_star, cone_map_A,
    eval_operator, fit_lower_bound, homogeneity_indicator, pucci_max,
    pucci_min, rescale, solve_dirichlet_radial,
)
from fnel.matcore import SymMatrix
from fnel.scaling import alpha_star
from fnel.solver import RadialField
from conftest import random_isaacs

finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def sym_matrices(draw, n_max=4):
    n = draw(st.integers(min_value=2, max_value=n_max))
    vals = draw(st.lists(finite, min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2))
    m = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = vals[k]
            k += 1
    return SymMatrix.from_dense(m)


@st.composite
def ellipticity_pairs(draw):
    lam = draw(st.floats(min_value=0.1, max_value=2.0))
    ratio = draw(st.floats(min_value=1.0, max_value=4.0))
    return lam, lam * ratio


class TestOperatorAlgebra:
    @given(sym_matrices(), ellipticity_pairs(), st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_isaacs_between_pucci(self, m, pair, seed):
        lam, Lam = pair
        n = m.to_dense().shape[0]
        op = random_isaacs(np.random.default_rng(seed), n, lam, Lam)
        lo = eval_operator(pucci_min(lam, Lam, n), m)
        hi = eval_operator(pucci_max(lam, Lam, n), m)
        mid = eval_operator(op, m)
        assert lo - 1e-9 <= mid <= hi + 1e-9

    @given(sym_matrices(), ellipticity_pairs())
    @settings(max_examples=150, deadline=None)
    def test_pucci_duality(self, m, pair):
        lam, Lam = pair
        n = m.to_dense().shape[0]
        neg = SymMatrix.from_dense(-m.to_dense())
        a = eval_operator(pucci_max(lam, Lam, n), m)
        b = -eval_operator(pucci_min(lam, Lam, n), neg)
        assert a == pytest.approx(b, abs=1e-9)

    @given(sym_matrices(), ellipticity_pairs(),
           st.floats(min_value=0.01, max_value=50.0))
    # entries whose squares underflow: F(5m) read 4.99833 before they were
    # flushed to zero ahead of LAPACK
    @example(SymMatrix.from_dense(np.array([[8.60565279e-162, 0.0, 1.0],
                                            [0.0, 0.0, 8.60565279e-162],
                                            [1.0, 8.60565279e-162, 0.0]])),
             (1.0, 2.0), 5.0)
    @settings(max_examples=150, deadline=None)
    def test_positive_homogeneity(self, m, pair, t):
        lam, Lam = pair
        n = m.to_dense().shape[0]
        op = pucci_max(lam, Lam, n)
        scaled = SymMatrix.from_dense(t * m.to_dense())
        assert eval_operator(op, scaled) == pytest.approx(
            t * eval_operator(op, m), rel=1e-9, abs=1e-9)

    @given(sym_matrices(), sym_matrices(), ellipticity_pairs())
    @settings(max_examples=100, deadline=None)
    def test_subadditivity_of_max(self, a, b, pair):
        lam, Lam = pair
        na = a.to_dense().shape[0]
        if b.to_dense().shape[0] != na:
            return
        op = pucci_max(lam, Lam, na)
        s = SymMatrix.from_dense(a.to_dense() + b.to_dense())
        assert eval_operator(op, s) <= (
            eval_operator(op, a) + eval_operator(op, b) + 1e-9)


class TestScalingInvariants:
    @given(ellipticity_pairs(), st.integers(2, 6),
           st.floats(min_value=-0.9, max_value=4.0),
           st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_indicator_strictly_decreasing(self, pair, n, a, d):
        lam, Lam = pair
        op = pucci_max(lam, Lam, n)
        psi_a = homogeneity_indicator(op, n, a)
        psi_ad = homogeneity_indicator(op, n, a + d)
        assert psi_ad <= psi_a - lam * d + 1e-10

    @given(ellipticity_pairs(), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_alpha_star_bracket(self, pair, n):
        lam, Lam = pair
        rep = alpha_star(pucci_max(lam, Lam, n), n)
        lo = (lam / Lam) * (n - 1) - 1
        hi = (Lam / lam) * (n - 1) - 1
        assert lo - 1e-8 <= rep.alpha_star <= hi + 1e-8

    @given(st.floats(min_value=1.01, max_value=20.0))
    @settings(max_examples=200)
    def test_beta_star_gamma_zero(self, p):
        assert beta_star(p, 0.0) == 2.0 / (p - 1.0)

    @given(st.floats(min_value=1.01, max_value=20.0),
           st.floats(min_value=0.0, max_value=1.9))
    @settings(max_examples=200)
    def test_beta_star_monotone_in_p(self, p, gamma):
        assert beta_star(p + 0.1, gamma) < beta_star(p, gamma)


class TestRescaleAction:
    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=100)
    def test_group_action(self, s1, s2, b):
        nodes = np.geomspace(1.0, 4.0, 33)
        fld = RadialField(n=3, nodes=nodes,
                          values=1.0 + 0.2 * np.sin(nodes))
        once = rescale(rescale(fld, s1, b), s2, b)
        direct = rescale(fld, s1 * s2, b)
        assert np.allclose(once.nodes, direct.nodes, rtol=1e-10)
        assert np.allclose(once.values, direct.values, rtol=1e-10)

    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.2, max_value=2.5))
    @settings(max_examples=100)
    def test_fit_lower_bound_equivariance(self, sigma, a):
        nodes = np.geomspace(1.0, 4.0, 33)
        fld = RadialField(n=3, nodes=nodes,
                          values=nodes ** -a * (1.0 + 0.1 * np.cos(nodes)))
        c0 = fit_lower_bound(fld, a)
        c1 = fit_lower_bound(rescale(fld, sigma, a), a)
        assert c1 == pytest.approx(c0, rel=1e-8)


class TestConeMapHomogeneity:
    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=0.05, max_value=4.0),
           st.floats(min_value=1.6, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_degree_p(self, c, t, p):
        op = pucci_max(1.0, 2.0, 3)
        b = beta_star(p, 0.0)
        if b >= 3.0:  # stay in the existence regime alpha* = 3
            return
        v = HomogeneousProfile(beta=b, n=3, constant=c)
        tv = HomogeneousProfile(beta=b, n=3, constant=t * c)
        a_v = cone_map_A(op, 3, p, v).constant
        a_tv = cone_map_A(op, 3, p, tv).constant
        assert a_tv == pytest.approx(t ** p * a_v, rel=1e-9, abs=1e-12)


class TestDiscreteComparison:
    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_ordered_data_gives_ordered_solutions(self, g0, g1, bump):
        op = pucci_max(1.0, 2.0, 3)
        dom = Annulus(1.0, 2.0)

        def solve(rhs_c, b0, b1):
            prob = DirichletProblem(
                domain=dom, n=3, rhs=lambda r: rhs_c,
                boundary=lambda r: b0 if abs(r - 1.0) < abs(r - 2.0) else b1)
            return solve_dirichlet_radial(op, 3, prob, 48)

        lo = solve(0.0, g0, g1)
        hi = solve(bump, g0 + bump, g1 + bump)
        assert (hi.values - lo.values).min() >= -1e-9
