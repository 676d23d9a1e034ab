"""Executable versions of the proof constructions.

Lower bounds and Hadamard-type monotonicity, the eigenvalue-growth
certificate behind the nonexistence argument, the critical-case logarithmic
improvement, the bent fundamental solution and the whole-space supersolution
truncated from it (both in closed form, with no solve or search), and the
homogeneous-cone fixed point with its inner-radius bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .matcore import EllipticOperator, eval_diagonal, eval_operator, radial_diagonal
from .scaling import (
    EXISTENCE_SUPERSOLUTION, NONEXISTENCE_EXTERIOR,
    K_coefficient, _c_star, alpha_star, beta_star, classify,
)
from .solver import (
    Annulus, Ball, Field2D, RadialField, _RadialGrid, _radial_grid, _sphere_samples,
)
from .spectral import principal_eigenvalue

LOG_GRID = np.geomspace(1.5, 100.0, 256)
SIGMA_START = 1.0 + 1e-9                 # the first scale of a certificate's curve
NEWTON_TOL = 1e-10                       # sup-norm stop of ``_newton_solve``
LM_MU0 = 1e-3                            # first damping, relative to diag(J^T J)
LM_DIFF_STEP = 2.0 ** -26                # forward-difference step in w = log(x)
LM_MAX_ITER = 200                        # trial steps per phase, accepted or rejected
LM_SCALE_STEP = 1e-2                     # the scale phase ends at a shift below this


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
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if (self.constant is None) == (self.angular is None):
            raise ValueError("exactly one of constant/angular must be set")
        if self.constant is not None and not 0 <= self.constant < math.inf:
            raise ValueError("profile must be nonnegative and finite")
        if self.angular is not None:
            if self.n != 2:
                raise ValueError("angular profiles only supported for n = 2")
            arr = np.asarray(self.angular, dtype=float)
            if not 0 <= arr.min() <= arr.max() < math.inf:
                raise ValueError("profile must be nonnegative and finite")
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
    """sigma^beta u(sigma x).  A (-b)-homogeneous profile comes back scaled by
    sigma^{beta-b}: the same profile (``is``) when beta = b."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if isinstance(obj, HomogeneousProfile):
        if beta == obj.beta:
            return obj
        psi = "constant" if obj.is_constant else "angular"
        return replace(obj, **{psi: sigma ** (beta - obj.beta) * getattr(obj, psi)})
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
                             cells: int = 1024) -> dict:
    """Quantitative contradiction scale of the nonexistence proof.

    In the nonexistence regime the rescaled supersolutions force the first
    eigenvalue on the reference annulus above mu(sigma); the certificate
    reports the crossing scale sigma* where mu exceeds the computed
    lambda1.  c plays the lower-bound constant and is an input, not derived
    (it aggregates unnamed ellipticity constants).  Two modes: ``strict``,
    mu = min(1, 2^{-gamma}) c^{p-1} sigma^{(beta*-alpha)(p-1)} for beta* >
    alpha; ``critical-log``, mu = c (log sigma)^{p-1} from the logarithmic
    lower bound c r^{-alpha} log r, for |beta* - alpha| < 1e-12.
    """
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    if not SIGMA_START < sigma_max < math.inf:
        raise ValueError(f"sigma_max must be finite and above {SIGMA_START!r}")
    verdict = classify(f_op, n, p, gamma)
    if verdict.outcome != NONEXISTENCE_EXTERIOR:
        raise WrongRegime("certificate only applies in the nonexistence regime")
    b_star = verdict.beta_star
    alpha = max(0.0, verdict.alpha_star)
    lam1 = principal_eigenvalue(f_op, Annulus(1.0, 2.0), cells).lambda1
    critical = abs(alpha - b_star) < 1e-12

    sigmas = np.geomspace(SIGMA_START, sigma_max, 64)
    if critical:
        mu = c * np.log(sigmas) ** (p - 1.0)
        sigma_star = math.exp((lam1 / c) ** (1.0 / (p - 1.0)))
        mode = "critical-log"
    else:
        prefactor = min(1.0, 2.0 ** (-gamma)) * c ** (p - 1.0)
        expo = (b_star - alpha) * (p - 1.0)
        mu = prefactor * sigmas ** expo
        sigma_star = (lam1 / prefactor) ** (1.0 / expo)
        mode = "strict"
    return {
        "mode": mode,
        "lambda1": lam1,
        "alpha": alpha,
        "beta_star": b_star,
        "growth_exponent": None if critical else expo,
        "sigma_star": sigma_star,
        "curve": list(zip(sigmas.tolist(), np.asarray(mu).tolist())),
        "c_is_input": True,
    }


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


def bend_regime_error(b, a, k=None) -> WrongRegime:
    """What an existence construction raises for beta* = b outside (0, alpha*
    = a) or, given k, for K(b) = k <= 0 at a b within rounding below a."""
    return WrongRegime(f"requires 0 < beta*={b:.4g} < alpha*={a:.4g}" if k is None else
                       f"requires K(beta*) > 0; got K={k} at beta*={b}, alpha*={a}")


def _existence_K(f_op, n, p, gamma=0.0):
    """(beta*, K(beta*)) if classify reads existence and K(beta*) > 0, the one
    gate of the existence constructions; else ``bend_regime_error``."""
    verdict = classify(f_op, n, p, gamma)
    b, a = verdict.beta_star, verdict.alpha_star
    if verdict.outcome != EXISTENCE_SUPERSOLUTION:
        raise bend_regime_error(b, a)
    k = K_coefficient(f_op, n, b)
    if not k > 0:
        raise bend_regime_error(b, a, k)
    return b, k


def bend_fundamental(f_op: EllipticOperator, n: int, p, gamma=0.0) -> tuple:
    """Power of the fundamental solution as an explicit supersolution.

    Returns (tau, c, report): tau = beta*/alpha* in (0,1), v = r^{-beta*},
    and the largest c with F(D^2 v) >= c r^{-gamma} v^p.  Positive
    homogeneity gives F(D^2 v) = K(beta*) r^{-beta*-2}, and beta*(p-1) =
    2-gamma makes r^{-gamma} v^p = r^{-beta*-2} too, so c = K(beta*) at every
    r.  Arrays of p and gamma broadcast: alpha* is found once, one
    ``K_coefficient`` call covers every entry, and tau, c and the report's
    beta_star and K_at_beta_star hold each entry's scalar-call value.  An
    entry outside 0 < beta* < alpha*, or with K(beta*) <= 0, raises
    WrongRegime (``bend_regime_error``), the first such entry named.
    """
    if not f_op.rot_invariant:
        raise ValueError("bending needs a rotationally invariant operator")
    a = alpha_star(f_op, n).alpha_star
    shape = np.broadcast_shapes(np.shape(p), np.shape(gamma))
    entries = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (p, gamma)))
    b = np.reshape([beta_star(*e) for e in entries], shape)
    outside = ~((0.0 < b) & (b < a))
    if outside.any():  # names the first entry outside the regime
        raise bend_regime_error(b[outside][0], a)
    c, tau = K_coefficient(f_op, n, b), b / a
    flat = ~(np.asarray(c) > 0)
    if flat.any():
        raise bend_regime_error(b[flat][0], a, np.asarray(c)[flat][0])
    if not b.ndim:
        b, tau = float(b), float(tau)
    report = {"tau": tau, "c": c, "beta_star": b, "alpha_star": a, "K_at_beta_star": c}
    return tau, c, report


@dataclass(frozen=True)
class PatchedSupersolution:
    """u = w on [0, delta), min(v, w) up to match_radius = 1/3, v beyond: the
    truncation w and tail v of ``build_global_supersolution``.  A min of two
    supersolutions is one, and u is continuous: w < v on (0, 2 delta) and
    v < w on [1/4, 1/2]."""

    inner: RadialField          # w = a (1 - r^2) / q on the unit ball's nodes
    a: float                    # F(D^2 w) = a
    delta: float                # inner interface radius
    match_radius: float         # outer interface radius
    tail_scale: float           # s in v(r) = s * r^{-beta}
    beta: float
    continuity_jumps: tuple
    residual_report: dict

    def __call__(self, r):
        w = float(self.inner(r)) if r <= self.inner.nodes[-1] else math.inf
        if r < self.delta:
            return w
        v = self.tail_scale * r ** (-self.beta)
        return min(v, w) if r < self.match_radius else v


def _dyadic_floor(x, bound, strict=False):
    """Largest power of two <= x (< x if strict) for 0 <= x <= 1, read off
    x's exponent; RuntimeError naming the bound if it underflows to 0."""
    mant, expo = math.frexp(x)
    y = math.ldexp(0.25 if strict and mant == 0.5 else 0.5, expo)
    if not (x > 0.0 and y > 0.0):
        raise RuntimeError(f"{bound} underflows to 0")
    return y


def build_global_supersolution(f_op: EllipticOperator, n: int, p: float,
                               gamma: float = 0.0, cells: int = 512) -> PatchedSupersolution:
    """Truncate the bent fundamental solution into a whole-space supersolution.

    Only valid with gamma <= 0 in the existence regime; every piece is a
    closed form.  w1 = (1 - r^2)/q, q = 2 F(-I), has D^2 w1 = -(2/q) I, so
    w = a w1 has F(D^2 w) = a >= r^{-gamma} w^p on the unit ball for a <=
    cap^{-1/(p-1)}, cap = max r^{-gamma} w1^p (at r^2 = -gamma/(2p - gamma)).
    The tail v = s r^{-b}, b = beta*, has F(D^2 v) - r^{-gamma} v^p =
    r^{-b-2} (s K(b) - s^p) (see ``bend_fundamental``), >= 0 for s <=
    K^{1/(p-1)}, and v < w on [1/4, 1/2] for s < (a/q) min(4^{-b} 15/16,
    2^{-b} 3/4), the min there of r^b w.  a and s are the largest powers of
    two <= 1 within their bounds.  delta = (s q/a)^{1/b}/2 gives v > a/q >= w
    on (0, 2 delta).  The report's residuals are on w's nodes and LOG_GRID;
    its jumps use the exact w.  Outside the existence regime, or with
    K(beta*) <= 0, it raises WrongRegime (``_existence_K``); only a bound
    that underflows raises RuntimeError.
    """
    if gamma > 0:
        raise ValueError("construction requires gamma <= 0")
    b, k = _existence_K(f_op, n, p, gamma)
    nodes, _ = _radial_grid(Ball(1.0), cells)
    q = 2.0 * float(eval_diagonal(f_op, -np.ones(n)))

    # cap = t^{-gamma/2} (1 - t)^p / q^p at t = r^2; the bounds on a and
    # s^{p-1} <= K go through logs, where a power 1/(p-1) overflows for p near 1
    t = -gamma / (2.0 * p - gamma)
    log_cap = (-0.5 * gamma * math.log(t) if t > 0 else 0.0) + p * (math.log1p(-t) - math.log(q))
    a_val = _dyadic_floor(math.exp(min(0.0, -log_cap / (p - 1.0))), "the bound on a")
    s_val = min(_dyadic_floor(math.exp(min(0.0, math.log(k) / (p - 1.0))),
                              "the bound K^{1/(p-1)} on s"),
                _dyadic_floor(a_val / q * min(0.25 ** b * 0.9375, 0.5 ** b * 0.75),
                              "the shell bound on s", strict=True))
    delta = 0.5 * (s_val * q / a_val) ** (1.0 / b)
    if not delta > 0.0:
        raise RuntimeError("the inner interface radius delta underflows to 0")
    match_radius = 1.0 / 3.0

    def w_at(r):
        return a_val * (1.0 - r * r) / q

    def v_at(r):
        return s_val * r ** (-b)

    inner = RadialField(n=n, nodes=nodes, values=w_at(nodes), meta={"a": a_val, "q": q})
    jump_inner = abs(min(v_at(delta), w_at(delta)) - w_at(delta))
    jump_outer = abs(min(v_at(match_radius), w_at(match_radius)) - v_at(match_radius))

    # per-piece residuals of F(D^2 u) - |x|^{-gamma} u^p
    inner_res = float(np.min(a_val - nodes ** (-gamma) * inner.values ** p))
    tail_res_min = float((LOG_GRID ** (-b - 2.0) * (s_val * k - s_val ** p)).min())
    residual_report = {
        "inner_min_residual": inner_res,
        "tail_min_residual": tail_res_min,
        "passed": inner_res >= -1e-8 and tail_res_min >= -1e-8,
    }
    return PatchedSupersolution(
        inner=inner, a=a_val, delta=delta, match_radius=match_radius, tail_scale=s_val, beta=b,
        continuity_jumps=(jump_inner, jump_outer), residual_report=residual_report)


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


def _tridiagonal_jacobian(fn, w, r):
    """Forward-difference Jacobian of fn at w, where fn(w) = r, for an fn
    whose entry i depends only on w[i - 1], w[i] and w[i + 1] (periodic).
    Columns j = 0, 1, 2 mod 3 below m - m % 3 form three colours and the rest
    one each, so columns of one colour lie 3 or more apart and touch no
    common row: one call of fn per colour, 3 to 5 calls for m >= 3."""
    m = len(w)
    j, q = np.arange(m), m - m % 3
    colour = np.where(j < q, j % 3, 3 + j - q)
    jac = np.zeros((m, m))
    for c in np.unique(colour):
        cols = np.flatnonzero(colour == c)
        wt = w.copy()
        wt[cols] += LM_DIFF_STEP
        rows = (cols[:, None] + np.array([-1, 0, 1])) % m
        jac[rows, cols[:, None]] = (fn(wt) - r)[rows] / (wt - w)[cols, None]
    return jac


def _levenberg_marquardt(resid, z, jacobian, step_tol):
    """Levenberg-Marquardt on 1/2 |resid(z)|^2 from z, to sup-norm NEWTON_TOL.

    Marquardt's diagonal scaling, with the damping mu updated by the gain
    ratio of each trial step (Nielsen's rule); jacobian(z, r) is recomputed
    after every accepted step.  A trial point where resid raises
    FloatingPointError is a rejected step.  Returns (z, r) at the first point
    that meets the tolerance or that an accepted step shorter than step_tol
    (sup-norm) reaches, else at the last point once LM_MAX_ITER trial steps
    are spent or a step no longer moves z; r is None if resid fails at z.
    """
    def merit(z):
        try:
            r = resid(z)
            return r, 0.5 * float(r @ r)
        except FloatingPointError:
            return None, math.inf

    r, f = merit(z)
    mu, nu, jac = LM_MU0, 2.0, None
    for _ in range(LM_MAX_ITER):
        if r is None or np.abs(r).max() <= NEWTON_TOL:
            break
        try:
            if jac is None:
                jac = jacobian(z, r)
                a, g = jac.T @ jac, jac.T @ r
                d = np.maximum(np.diag(a), np.finfo(float).tiny)
            step = np.linalg.solve(a + np.diag(mu * d), -g)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        if np.array_equal(z + step, z):
            break
        rt, ft = merit(z + step)
        predicted = 0.5 * float(step @ (mu * d * step - g))
        if ft < f and predicted > 0:
            gain = min((f - ft) / predicted, 1.0)
            z, r, f, jac = z + step, rt, ft, None
            if np.abs(step).max() < step_tol:
                break
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return z, r


def _newton_solve(residual_fn, x0):
    """Solve residual_fn(x) = 0 for a positive vector x, to sup-norm 1e-10.

    ``_levenberg_marquardt`` in w = log(x), which keeps x positive, in two
    phases: first over the uniform shifts w + s alone, until a shift is
    shorter than LM_SCALE_STEP, then over all of w.  From a start far off in
    scale (``cone_map_A``'s constant start when the solution is many times
    larger) the full iteration can otherwise run into a valley where some
    x[i] tends to 0.  Entry i of residual_fn may depend only on x[i] and its
    periodic neighbours x[i - 1] and x[i + 1] (``_tridiagonal_jacobian``).
    A trial point where exp(w) underflows or overflows, or the residual or
    its squared norm overflows or turns invalid, is a rejected step.
    """
    def fn(w):
        with np.errstate(under="raise"):
            x = np.exp(w)
        return residual_fn(x)

    def shift_column(s, r):
        st = s + LM_DIFF_STEP
        return ((fn(w + st) - r) / (st - s))[:, None]

    w = np.log(np.asarray(x0, dtype=float))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s, _ = _levenberg_marquardt(lambda s: fn(w + s), np.zeros(1), shift_column,
                                    LM_SCALE_STEP)
        w, r = _levenberg_marquardt(
            fn, w + s, lambda w, r: _tridiagonal_jacobian(fn, w, r), 0.0)
    nrm = math.inf if r is None else float(np.abs(r).max())
    if nrm <= NEWTON_TOL:
        return np.exp(w)
    raise RuntimeError(f"Newton did not converge (residual {nrm:.2e})")


def cone_map_A(f_op: EllipticOperator, n: int, p: float,
               v: HomogeneousProfile) -> HomogeneousProfile:
    """The solution map A(v) = u with F(D^2 u) = v^p, u in the same cone.

    Constant profiles reduce to the closed-form scalar c^p / K; angular
    profiles (n = 2) are solved on the periodic angular grid by
    ``_newton_solve`` (Levenberg-Marquardt in log psi, first on the scale,
    from the constant max(|v|, 1e-3)).
    """
    b = beta_star(p, 0.0)
    if abs(v.beta - b) > 1e-12:
        raise ValueError(f"profile degree {v.beta} != beta*(p) = {b}")
    k = _existence_K(f_op, n, p)[1] if f_op.rot_invariant else None
    if v.is_constant:
        if k is None:
            raise ValueError("constant-profile path needs rotational invariance")
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
    angular profile is solved by ``_newton_solve`` (Levenberg-Marquardt in
    log psi) from a perturbed constant profile, since naive iteration of the
    cone map is repelling (p > 1).  On coarse grids the discrete angular
    system can have non-constant solutions besides c*, which a strongly
    perturbed start may reach; the report's constant_deviation,
    max |psi/c* - 1| (None for an F without c*), shows how far it landed.
    """
    b = beta_star(p, 0.0)
    if angular_points and n != 2:
        raise ValueError("angular path only available for n = 2")
    if not (angular_points or f_op.rot_invariant):
        raise ValueError("an operator that is not rotation-invariant needs the "
                         "angular path (angular_points > 0, n = 2)")
    k = _existence_K(f_op, n, p)[1] if f_op.rot_invariant else None
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
        deviation = None if c_star is None else float(np.abs(psi / c_star - 1.0).max())
    else:
        profile = HomogeneousProfile(beta=b, n=n, constant=c_star)
        # symbolic radial residual of F(D^2(c r^{-b})) - (c r^{-b})^p
        resid = abs(c_star * k - c_star ** p)
        deviation = 0.0

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
        "constant_deviation": deviation,
        "dichotomy": ("either a bounded positive solution exists in the "
                      "whole space, or a (-beta*)-homogeneous positive "
                      "solution exists off the origin; the homogeneous "
                      "branch was realized here, the bounded branch is "
                      "not excluded"),
    }
    return profile, r_bar, report
