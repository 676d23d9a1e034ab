"""Executable versions of the proof constructions.

Lower bounds and Hadamard-type monotonicity, the eigenvalue-growth
certificate behind the nonexistence argument, the critical-case logarithmic
improvement, bent/truncated supersolutions, and the homogeneous-cone fixed
point with its inner-radius bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matcore import EllipticOperator, eval_diagonal, eval_operator, radial_diagonal
from .scaling import (
    EXISTENCE_SUPERSOLUTION, NONEXISTENCE_EXTERIOR,
    K_coefficient, _c_star, alpha_star, beta_star, classify,
)
from .solver import (
    Annulus, Ball, DirichletProblem, Field2D, RadialField, _RadialGrid,
    _sphere_samples, solve_dirichlet_radial,
)
from .spectral import principal_eigenvalue

LOG_GRID = np.geomspace(1.5, 100.0, 256)
NO_CROSSING = "NO_CROSSING"


class WrongRegime(ValueError):
    pass


class NotSuperharmonic(ValueError):
    pass


# ---------------------------------------------------------------------------
# homogeneous profiles


@dataclass(frozen=True)
class HomogeneousProfile:
    """u(x) = |x|^{-beta} psi(x/|x|), an element of the cone of nonnegative
    (-beta)-homogeneous functions.

    psi is either a constant (any n) or a periodic sample on the unit circle
    (n = 2 only).  The cone norm is max of psi over the sphere.
    """

    beta: float
    n: int
    constant: Optional[float] = None
    angular: Optional[np.ndarray] = None   # values at 2*pi*j/m, j=0..m-1

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if (self.constant is None) == (self.angular is None):
            raise ValueError("exactly one of constant/angular must be set")
        if self.constant is not None and self.constant < 0:
            raise ValueError("profile must be nonnegative")
        if self.angular is not None:
            if self.n != 2:
                raise ValueError("angular profiles only supported for n = 2")
            arr = np.asarray(self.angular, dtype=float)
            if arr.min() < 0:
                raise ValueError("profile must be nonnegative")
            object.__setattr__(self, "angular", arr)

    @property
    def is_constant(self):
        return self.constant is not None

    def norm(self) -> float:
        if self.is_constant:
            return float(self.constant)
        return float(self.angular.max())

    def psi(self, theta):
        if self.is_constant:
            return float(self.constant)
        m = len(self.angular)
        grid = np.linspace(0.0, 2 * math.pi, m + 1)
        vals = np.append(self.angular, self.angular[0])
        return float(np.interp(theta % (2 * math.pi), grid, vals))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0:
            raise ValueError("profile undefined at the origin")
        if self.is_constant:
            return self.constant * r ** (-self.beta)
        theta = math.atan2(x[1], x[0])
        return self.psi(theta) * r ** (-self.beta)


def rescale(obj, sigma: float, beta: float):
    """sigma^beta u(sigma x); the identity on homogeneous profiles."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if isinstance(obj, HomogeneousProfile):
        return obj
    if isinstance(obj, RadialField):
        return RadialField(
            n=obj.n, nodes=obj.nodes / sigma,
            values=sigma ** beta * obj.values,
            meta={**obj.meta, "rescaled_by": sigma},
        )
    if isinstance(obj, Field2D):
        return Field2D(
            h=obj.h / sigma, x0=obj.x0 / sigma, y0=obj.y0 / sigma,
            values=sigma ** beta * obj.values, interior=obj.interior,
            meta={**obj.meta, "rescaled_by": sigma},
        )
    raise TypeError("rescale expects a field or a homogeneous profile")


# ---------------------------------------------------------------------------
# Hadamard-type monotonicity


def sphere_min_curve(fld, radii):
    """Samples (r, m(r)) of m(r) = min over the sphere of radius r; on a
    Field2D, sphere samples off the computational domain (NaN) are skipped."""
    radii = np.asarray(radii, dtype=float)
    mins = np.nanmin(_sphere_samples(fld, radii), axis=1)
    return list(zip(radii.tolist(), mins.tolist()))


def hadamard_check(f_op: EllipticOperator, fld: RadialField) -> dict:
    """Monotonicity of m(r) and r^{a*} m(r) for an F-superharmonic field.

    The field must be numerically superharmonic (discrete residual of
    F(D^2 u) >= 0 up to tolerance); the growth check runs on an interior
    window, a tenth of the nodes in from each end, to stay away from
    boundary layers.
    """
    scale = 1.0 + float(np.abs(fld.values).max())
    res = _signed_min_residual(f_op, fld)
    if res < -1e-6 * scale:
        raise NotSuperharmonic(
            f"field is not numerically F-superharmonic (min residual {res:.2e})")

    a_star = alpha_star(f_op, fld.n).alpha_star
    tol = 1e-6 * float(np.abs(fld.values).max())
    r = fld.nodes
    m = fld.values
    dec_viol = float(np.max(np.diff(m), initial=-np.inf))
    m_nonincreasing = dec_viol <= tol

    k0 = int(0.1 * len(r))
    k1 = len(r) - k0
    rw, mw = r[k0:k1], m[k0:k1]
    grw = rw ** a_star * mw
    inc_viol = float(np.max(-np.diff(grw), initial=-np.inf))
    growth_nondecreasing = inc_viol <= tol

    return {
        "alpha_star": a_star,
        "m_nonincreasing": m_nonincreasing,
        "growth_nondecreasing": growth_nondecreasing,
        "max_increase_of_m": dec_viol,
        "max_decrease_of_growth": inc_viol,
        "tolerance": tol,
        "passed": m_nonincreasing and growth_nondecreasing,
    }


def _signed_min_residual(f_op, fld):
    """Minimum of the discrete residual F(D^2_h u) over interior nodes and, on
    a ball (r[0] = 0), its centre; h is the solver's step for the end radii."""
    r = fld.nodes
    domain = Ball(r[-1]) if r[0] == 0 else Annulus(r[0], r[-1])
    grid = _RadialGrid.for_field(f_op, fld, domain)
    return float(grid.apply(fld.values)[0].min())


def fit_lower_bound(fld, alpha: float) -> float:
    """Largest c with u >= c r^{-alpha} at every node."""
    if isinstance(fld, RadialField):
        pairs = list(zip(fld.nodes, fld.values))
    else:
        pairs = [(math.hypot(*fld.xy(i, j)), fld.values[i, j])
                 for i, j in zip(*np.nonzero(fld.interior))]
    if min(v for _, v in pairs) <= 0:
        raise ValueError("field must be positive")
    return float(min(v * r ** alpha for r, v in pairs))


# ---------------------------------------------------------------------------
# the eigenvalue-growth certificate


def nonexistence_certificate(f_op: EllipticOperator, n: int, p: float,
                             gamma: float, c: float, sigma_max: float = 1e6,
                             cells: int = 1024,
                             use_log_improvement: bool = True) -> dict:
    """Quantitative contradiction scale of the nonexistence proof.

    In the nonexistence regime the rescaled supersolutions force the first
    eigenvalue on the reference annulus above mu(sigma); the certificate
    reports the crossing scale sigma* where mu exceeds the computed
    lambda1.  c plays the lower-bound constant and is an input, not derived
    (it aggregates unnamed ellipticity constants).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    verdict = classify(f_op, n, p, gamma)
    if verdict.outcome != NONEXISTENCE_EXTERIOR:
        raise WrongRegime("certificate only applies in the nonexistence regime")
    b_star = verdict.beta_star
    alpha = max(0.0, verdict.alpha_star)
    lam1 = principal_eigenvalue(f_op, Annulus(1.0, 2.0), cells).lambda1
    prefactor = min(1.0, 2.0 ** (-gamma)) * c ** (p - 1.0)
    critical = abs(alpha - b_star) < 1e-12

    sigmas = np.geomspace(1.0 + 1e-9, sigma_max, 64)
    if critical and use_log_improvement:
        mu = c * np.log(sigmas) ** (p - 1.0)
        lg = (lam1 / c) ** (1.0 / (p - 1.0))
        sigma_star = math.exp(lg)
        mode = "critical-log"
    elif critical:
        mu = np.full_like(sigmas, prefactor)
        sigma_star = NO_CROSSING if prefactor <= lam1 else 1.0
        mode = "critical-flat"
    else:
        expo = (b_star - alpha) * (p - 1.0)
        mu = prefactor * sigmas ** expo
        sigma_star = (lam1 / prefactor) ** (1.0 / expo)
        mode = "strict"
    report = {
        "mode": mode,
        "lambda1": lam1,
        "alpha": alpha,
        "beta_star": b_star,
        "growth_exponent": None if critical else (b_star - alpha) * (p - 1.0),
        "sigma_star": sigma_star,
        "curve": list(zip(sigmas.tolist(), np.asarray(mu).tolist())),
        "c_is_input": True,
    }
    return report


def critical_log_check(f_op: EllipticOperator, n: int) -> dict:
    """Radial residual of w = r^{-a*} log r, fitted C with F(D^2 w) <= C r^{-a*-2}."""
    rep = alpha_star(f_op, n)
    a = rep.alpha_star
    if a <= 0:
        raise ValueError("requires a positive scaling exponent")
    r = LOG_GRID
    lg = np.log(r)
    g1 = r ** (-a - 1.0) * (1.0 - a * lg)
    g2 = r ** (-a - 2.0) * (a * (a + 1.0) * lg - (2.0 * a + 1.0))
    vals = eval_diagonal(f_op, radial_diagonal(n, g1, g2, r)) * r ** (a + 2.0)
    c_fit = float(vals.max())
    r_far = 1e6
    return {
        "alpha_star": a,
        "C": c_fit,
        "C_min_on_grid": float(vals.min()),
        "finite": math.isfinite(c_fit),
        "w_at_1e6": r_far ** (-a) * math.log(r_far),
    }


# ---------------------------------------------------------------------------
# bending and truncation


def _bend_samples(b, p, gamma):
    """g', g'' and r^{-gamma} g^p of g = r^{-b} on the log grid, from scalar
    exponents: numpy's ``r ** e`` takes another path for an array of e."""
    r = LOG_GRID
    return -b * r ** (-b - 1.0), b * (b + 1.0) * r ** (-b - 2.0), r ** (-gamma) * (r ** (-b)) ** p


def bend_regime_error(b, a) -> WrongRegime:
    """What ``bend_fundamental`` raises for beta* = b outside (0, alpha* = a)."""
    return WrongRegime(f"requires 0 < beta*={b:.4g} < alpha*={a:.4g}")


def bend_fundamental(f_op: EllipticOperator, n: int, p, gamma=0.0) -> tuple:
    """Power of the fundamental solution as an explicit supersolution.

    Returns (tau, c, report): tau = beta*/alpha* in (0,1), v = r^{-beta*},
    and the largest c with F(D^2 v) >= c r^{-gamma} v^p on the log grid.
    Arrays of p and gamma broadcast: alpha* is found once, one stacked
    operator call covers every entry, and tau, c and the report's beta_star,
    K_at_beta_star and ratio_spread hold each entry's scalar-call value.
    """
    if not f_op.rot_invariant:
        raise ValueError("bending needs a rotationally invariant operator")
    a = alpha_star(f_op, n).alpha_star
    shape = np.broadcast_shapes(np.shape(p), np.shape(gamma))
    entries = list(zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (p, gamma))))
    bs = [beta_star(*e) for e in entries]
    b = np.reshape(bs, shape)
    outside = ~((0.0 < b) & (b < a))
    if outside.any():  # names the first entry outside the regime
        raise bend_regime_error(b[outside][0], a)
    samples = [_bend_samples(bi, pi, gi) for bi, (pi, gi) in zip(bs, entries)]
    g1, g2, rhs = np.moveaxis(np.reshape(samples, shape + (3, LOG_GRID.size)), -2, 0)
    ratios = eval_diagonal(f_op, radial_diagonal(n, g1, g2, LOG_GRID)) / rhs
    tau, c, spread = b / a, ratios.min(axis=-1), np.ptp(ratios, axis=-1)
    if not b.ndim:
        b, tau, c, spread = float(b), float(tau), float(c), float(spread)
    report = {
        "tau": tau, "c": c, "beta_star": b, "alpha_star": a,
        "K_at_beta_star": K_coefficient(f_op, n, b),
        "grid": (float(LOG_GRID[0]), float(LOG_GRID[-1]), len(LOG_GRID)),
        "ratio_spread": spread,
    }
    return tau, c, report


@dataclass(frozen=True)
class PatchedSupersolution:
    """Three-piece global supersolution: Dirichlet truncation near the
    origin, pointwise min on a matching shell, scaled power tail outside."""

    inner: RadialField          # solve of F(D^2 w) = a on the unit ball
    a: float                    # right-hand side of the truncation solve
    delta: float                # inner interface radius
    match_radius: float         # outer interface radius
    tail_scale: float           # s in v(r) = s * r^{-beta}
    beta: float
    continuity_jumps: tuple
    residual_report: dict

    def __call__(self, r):
        w = float(self.inner(r)) if r <= self.inner.nodes[-1] else math.inf
        v = self.tail_scale * r ** (-self.beta)
        if r < self.delta:
            return w
        if r < self.match_radius:
            return min(v, w)
        return v


def build_global_supersolution(f_op: EllipticOperator, n: int, p: float,
                               gamma: float = 0.0, cells: int = 512) -> PatchedSupersolution:
    """Truncate the bent fundamental solution into a whole-space supersolution.

    Only valid with gamma <= 0 in the existence regime.  The truncation
    constant a and the tail scale are found by dyadic scans, mirroring the
    'small constant' selections of the construction.
    """
    if gamma > 0:
        raise ValueError("construction requires gamma <= 0")
    verdict = classify(f_op, n, p, gamma)
    if verdict.outcome != EXISTENCE_SUPERSOLUTION:
        raise WrongRegime("existence regime required")
    b = verdict.beta_star
    k = K_coefficient(f_op, n, b)

    # unit-ball Dirichlet solve with unit source; w scales linearly in a
    problem = DirichletProblem(domain=Ball(1.0), n=n, rhs=lambda r: 1.0)
    w1 = solve_dirichlet_radial(f_op, n, problem, cells)
    nodes = w1.nodes
    vals1 = w1.values
    interior = slice(0, len(nodes) - 1)
    # need a >= r^{-gamma} (a w1)^p on the ball, i.e. a^{p-1} <= 1/max(...)
    weight = np.where(nodes > 0, nodes ** (-gamma), 0.0 if gamma < 0 else 1.0)
    cap = float((weight * np.maximum(vals1, 0.0) ** p).max())
    a_val = None
    for lvl in range(40):
        cand = 2.0 ** (-lvl)
        if cand ** (p - 1.0) * cap <= 1.0:
            a_val = cand
            break
    if a_val is None:
        raise WrongRegime("no admissible truncation constant in 40 dyadic levels")
    w_vals = a_val * vals1
    w_field = RadialField(n=n, nodes=nodes, values=w_vals, meta={**w1.meta, "a": a_val})

    # tail scale s: supersolution needs s^{p-1} <= K; matching needs
    # s r^{-beta} < w on the shell [1/4, 1/2]
    shell = (nodes >= 0.25) & (nodes <= 0.5)
    s_val = None
    for lvl in range(40):
        cand = 2.0 ** (-lvl)
        if cand ** (p - 1.0) > k:
            continue
        if np.all(cand * nodes[shell] ** (-b) < w_vals[shell]):
            s_val = cand
            break
    if s_val is None:
        raise WrongRegime("no admissible tail scale in 40 dyadic levels")

    # first radius where w crosses below v; w < v near 0 since v blows up
    below = w_vals[1:] < s_val * nodes[1:] ** (-b)
    cross_idx = int(np.argmin(below)) if not below.all() else len(below) - 1
    delta = 0.5 * nodes[1 + cross_idx]
    match_radius = 1.0 / 3.0

    def v_at(r):
        return s_val * r ** (-b)

    jump_inner = abs(min(v_at(delta), float(w_field(delta))) - float(w_field(delta)))
    jump_outer = abs(min(v_at(match_radius), float(w_field(match_radius)))
                     - v_at(match_radius))

    # per-piece residuals of F(D^2 u) - |x|^{-gamma} u^p
    inner_res = float(np.min(
        a_val - weight[interior] * np.maximum(w_vals[interior], 0.0) ** p))
    r = LOG_GRID
    lhs = eval_diagonal(f_op, radial_diagonal(n, -b * s_val * r ** (-b - 1.0),
                                              b * (b + 1.0) * s_val * r ** (-b - 2.0), r))
    tail_res_min = float((lhs - r ** (-gamma) * v_at(r) ** p).min())
    residual_report = {
        "inner_min_residual": inner_res,
        "tail_min_residual": tail_res_min,
        "passed": inner_res >= -1e-8 and tail_res_min >= -1e-8,
    }
    return PatchedSupersolution(
        inner=w_field, a=a_val, delta=delta, match_radius=match_radius,
        tail_scale=s_val, beta=b,
        continuity_jumps=(jump_inner, jump_outer),
        residual_report=residual_report,
    )


# ---------------------------------------------------------------------------
# the homogeneous-cone map and its fixed point


def angular_hessian_profile(psi, dpsi, ddpsi, beta):
    """Rotating-frame Hessian factor of u = r^{-beta} psi(theta) at r = 1.

    In the orthonormal polar frame (e_r, e_theta) the Hessian of u equals
    r^{-beta-2} times this matrix; validated against an ambient
    finite-difference Hessian in the test suite.
    """
    return np.array([
        [beta * (beta + 1.0) * psi, -(beta + 1.0) * dpsi],
        [-(beta + 1.0) * dpsi, ddpsi - beta * psi],
    ])


def _angular_residual(f_op, psi_vals, beta, rhs_vals):
    m = len(psi_vals)
    dth = 2.0 * math.pi / m
    pp, pm = np.roll(psi_vals, -1), np.roll(psi_vals, 1)
    dpsi = (pp - pm) / (2.0 * dth)
    ddpsi = (pp - 2.0 * psi_vals + pm) / dth ** 2
    th = np.arange(m) * dth
    c, s = np.cos(th), np.sin(th)
    rot = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)              # (m, 2, 2)
    hmat = np.moveaxis(angular_hessian_profile(psi_vals, dpsi, ddpsi, beta), -1, 0)
    return eval_operator(f_op, rot @ hmat @ rot.swapaxes(1, 2)) - rhs_vals


def _newton_solve(residual_fn, x0):
    """Solve residual_fn(x) = 0 for a positive vector x, to sup-norm 1e-10.

    Works in w = log(x), which enforces positivity without constraints.
    F is only piecewise smooth (eigenvalue crossings), so the Powell hybrid
    method can stall on a bad trust region; restarting from the stalled
    iterate (up to five attempts) usually escapes, and Levenberg-Marquardt is
    the last resort.  A trial point where exp(w) or the residual overflows
    ends its attempt, and the next attempt starts from the best trial point
    seen so far.
    """
    from scipy.optimize import root
    w = np.log(np.asarray(x0, dtype=float))
    best = {"nrm": math.inf, "w": w}

    def wrapped(w):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            res = residual_fn(np.exp(w))
        nrm = float(np.abs(res).max())
        if nrm < best["nrm"]:
            best["nrm"], best["w"] = nrm, w.copy()
        return res

    for method, opts in [("hybr", {"tol": 1e-12})] * 5 + [("lm", {})]:
        try:
            w = root(wrapped, w, method=method, **opts).x
            nrm = float(np.abs(wrapped(w)).max())
        except FloatingPointError:
            w, nrm = best["w"], best["nrm"]
        if nrm <= 1e-10:
            return np.exp(w)
    raise RuntimeError(f"Newton did not converge (residual {nrm:.2e})")


def _existence_K(f_op, n, p, message):
    """K(beta*(p)) if classify puts F in the existence regime, else WrongRegime
    with message formatted by b = beta*, a = alpha*.  None, unchecked, for an
    F that is not rotation-invariant (its regime needs an angular alpha*)."""
    if not f_op.rot_invariant:
        return None
    verdict = classify(f_op, n, p)
    if verdict.outcome != EXISTENCE_SUPERSOLUTION:
        raise WrongRegime(message.format(b=verdict.beta_star, a=verdict.alpha_star))
    return K_coefficient(f_op, n, verdict.beta_star)


def cone_map_A(f_op: EllipticOperator, n: int, p: float,
               v: HomogeneousProfile) -> HomogeneousProfile:
    """The solution map A(v) = u with F(D^2 u) = v^p, u in the same cone.

    Constant profiles reduce to the closed-form scalar c^p / K; angular
    profiles (n = 2) are solved on the periodic angular grid by
    ``_newton_solve`` (Powell hybrid with restarts, Levenberg-Marquardt last).
    """
    b = beta_star(p, 0.0)
    if abs(v.beta - b) > 1e-12:
        raise ValueError(f"profile degree {v.beta} != beta*(p) = {b}")
    k = _existence_K(f_op, n, p, "needs beta* < alpha*; got {b} >= {a}")
    if v.is_constant:
        if k is None:
            raise ValueError("constant-profile path needs rotational invariance")
        if v.constant == 0.0:
            return HomogeneousProfile(beta=b, n=n, constant=0.0)
        return HomogeneousProfile(beta=b, n=n, constant=v.constant ** p / k)
    if n != 2:
        raise ValueError("angular path only available for n = 2")
    rhs_vals = v.angular ** p
    if np.all(rhs_vals == 0.0):
        return HomogeneousProfile(beta=b, n=n,
                                  angular=np.zeros_like(v.angular))
    start = np.full(len(v.angular), max(v.norm(), 1e-3))
    psi = _newton_solve(lambda vals: _angular_residual(f_op, vals, b, rhs_vals), start)
    if psi.min() <= 0 and rhs_vals.max() > 0:
        raise RuntimeError("cone map left the positive cone")
    return HomogeneousProfile(beta=b, n=n, angular=np.maximum(psi, 0.0))


def inner_validity_radius(k: float, p: float) -> float:
    """Inner-radius bound from the radial small-supersolution construction."""
    return k ** (1.0 / (p - 1.0)) * 2.0 ** (-1.0 / (p - 1.0))


def fixed_point(f_op: EllipticOperator, n: int, p: float,
                angular_points: int = 0, perturb: float = 0.0,
                seed: int = 0) -> tuple:
    """Homogeneous positive solution of F(D^2 u) = u^p off the origin.

    Returns (profile, r_bar, report).  The constant profile is the closed
    form c* = K^{1/(p-1)} of ``explicit_constant``.  With angular_points > 0
    (n = 2; the only path for an F that is not rotation-invariant) the
    angular profile is solved by ``_newton_solve`` from a perturbed constant
    profile, since naive iteration of the cone map is repelling (p > 1).
    """
    b = beta_star(p, 0.0)
    if angular_points and n != 2:
        raise ValueError("angular path only available for n = 2")
    if not (angular_points or f_op.rot_invariant):
        raise ValueError("an operator that is not rotation-invariant needs the "
                         "angular path (angular_points > 0, n = 2)")
    k = _existence_K(f_op, n, p, "needs beta*(p) = {b} < alpha* = {a}")
    c_star = None if k is None else _c_star(k, p)

    if angular_points:
        rng = np.random.default_rng(seed)
        base = 1.0 if c_star is None else c_star
        psi = base * (1.0 + perturb * rng.uniform(-1, 1, angular_points))

        # Newton on the residual divided pointwise by psi: the trivial
        # solution psi = 0 also satisfies F(D^2 u) = u^p and its basin can
        # capture perturbed starts, so it is removed by solving the
        # analogue of c^{p-1} = K instead of c = c^p / K.
        def full_residual(vals):
            raw = _angular_residual(f_op, vals, b, vals ** p)
            return raw / vals

        psi = _newton_solve(full_residual, psi)
        profile = HomogeneousProfile(beta=b, n=n, angular=psi)
        resid = float(np.abs(_angular_residual(f_op, psi, b, psi ** p)).max())
    else:
        profile = HomogeneousProfile(beta=b, n=n, constant=c_star)
        # symbolic radial residual of F(D^2(c r^{-b})) - (c r^{-b})^p
        resid = abs(c_star * k - c_star ** p)

    r_bar = 0.0 if k is None else inner_validity_radius(k, p)
    if profile.norm() <= r_bar:
        raise RuntimeError(
            f"fixed point violates the inner-radius bound: "
            f"norm {profile.norm():.4g} <= r_bar {r_bar:.4g}")
    report = {
        "beta_star": b,
        "r_bar": r_bar,
        "norm": profile.norm(),
        "residual": resid,
        "dichotomy": ("either a bounded positive solution exists in the "
                      "whole space, or a (-beta*)-homogeneous positive "
                      "solution exists off the origin; the homogeneous "
                      "branch was realized here, the bounded branch is "
                      "not excluded"),
    }
    return profile, r_bar, report
