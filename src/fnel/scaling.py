"""Scaling exponents, critical exponents, and existence/nonexistence verdicts.

The analytic path only applies to rotationally invariant operators: there the
fundamental solution is radial and its homogeneity degree is the root of a
one-dimensional strictly decreasing indicator, which ``alpha_star`` gives in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .matcore import ISAACS, PUCCI_MAX, EllipticOperator, control_table, eval_diagonal

LOG_CASE_THRESHOLD = 1e-9

NONEXISTENCE_EXTERIOR = "NONEXISTENCE_EXTERIOR"
EXISTENCE_SUPERSOLUTION = "EXISTENCE_SUPERSOLUTION"


class NotRotInvariant(ValueError):
    pass


def xi_alpha(alpha: float, r: float) -> float:
    """Radial profile r^{-a} / -log r / -r^{-a} for a >, =, < 0."""
    if r <= 0:
        raise ValueError("r must be positive")
    if alpha > 0:
        return r ** (-alpha)
    if alpha == 0:
        return -math.log(r)
    return -(r ** (-alpha))


def alpha_bracket(f: EllipticOperator, n: int) -> tuple:
    """Admissible range of the scaling exponent for ellipticity (lam, Lam)."""
    return ((f.lam / f.Lam) * (n - 1) - 1.0, (f.Lam / f.lam) * (n - 1) - 1.0)


def homogeneity_indicator(f: EllipticOperator, n: int, alpha):
    """Normalized radial residual psi(a) = F(diag(a+1, -1, ..., -1)).

    sign(psi(a)) = sign(F(D^2 xi_a)) for every r > 0, and psi is strictly
    decreasing in a, so its unique root is the scaling exponent.  A float
    alpha gives a float; an array of alpha gives psi at each entry, from one
    ``eval_diagonal`` call on the diagonals.
    """
    if not f.rot_invariant:
        raise NotRotInvariant("indicator requires a rotationally invariant operator")
    if n != f.dim:
        raise ValueError(f"n={n} does not match operator dim {f.dim}")
    alpha = np.asarray(alpha, dtype=float)
    diag = np.full(alpha.shape + (n,), -1.0)
    diag[..., 0] = alpha + 1.0
    psi = eval_diagonal(f, diag)
    return psi if alpha.ndim else float(psi)


@dataclass(frozen=True)
class ScalingReport:
    alpha_star: float
    log_case: bool
    bracket: tuple
    indicator_samples: tuple
    critical_exponent: float  # math.inf when alpha_star <= 0

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo - 1e-9 <= self.alpha_star <= hi + 1e-9):
            raise ValueError("alpha_star outside the admissible bracket")
        if self.alpha_star <= -1.0:
            raise ValueError("alpha_star must exceed -1")


def alpha_star(f: EllipticOperator, n: int) -> ScalingReport:
    """Scaling exponent of F in dimension n: the root of the indicator, in
    closed form.  It is the bracket's lower end for the Laplacian and
    pucci_min and its upper end for pucci_max (Cutri-Leoni); for an Isaacs
    family psi(a) = max_r min_c (s - (a+1) a11) over the (a11, s) table,
    each line falls with slope -a11 < 0, so a row minimum crosses zero at
    the row's smallest line root and the maximum at the largest row root."""
    lo, hi = alpha_bracket(f, n)
    alphas = np.linspace(lo, hi, 9)           # the endpoints are exactly lo, hi
    psi = homogeneity_indicator(f, n, alphas)
    if f.kind == ISAACS:
        _, a11, s = control_table(f)
        root = float((s / a11).min(axis=1).max()) - 1.0
    else:
        root = hi if f.kind == PUCCI_MAX else lo
    log_case = abs(root) < LOG_CASE_THRESHOLD
    if log_case:
        root = 0.0
    samples = tuple(zip(alphas.tolist(), psi.tolist()))
    crit = (root + 2.0) / root if root > 0 else math.inf
    return ScalingReport(
        alpha_star=root, log_case=log_case, bracket=(lo, hi),
        indicator_samples=samples, critical_exponent=crit,
    )


def critical_exponent(f: EllipticOperator, n: int) -> float:
    """(a*+2)/a* when a* > 0, else +inf."""
    return alpha_star(f, n).critical_exponent


def beta_star(p: float, gamma: float = 0.0) -> float:
    """Scaling exponent (2 - gamma)/(p - 1) of F(D^2 u) = |x|^{-gamma} u^p."""
    if p <= 1:
        raise ValueError("p must exceed 1 (standing assumption p > 1)")
    if gamma >= 2:
        raise ValueError("gamma must be below 2 (standing assumption gamma < 2)")
    return (2.0 - gamma) / (p - 1.0)


def K_coefficient(f: EllipticOperator, n: int, beta):
    """Constant K with F(D^2(r^{-beta})) = K r^{-beta-2}.

    Positive exactly when beta < alpha_star, zero at beta = alpha_star.  A
    float beta gives a float; an array of beta gives K at each entry, from
    one ``eval_diagonal`` call on the diagonals (beta(beta+1), -beta, ...).
    """
    beta = np.asarray(beta, dtype=float)
    if (beta <= 0).any():
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):  # an infinite entry fails the finiteness check
        diag = np.stack([beta * (beta + 1.0)] + [-beta] * (n - 1), axis=-1)
    k = eval_diagonal(f, diag)
    return k if beta.ndim else float(k)


def _c_star(k, p):
    """c* = K^{1/(p-1)} of ``explicit_constant``, or None for K <= 0."""
    return k ** (1.0 / (p - 1.0)) if k > 0 else None


def explicit_constant(f: EllipticOperator, n: int, p: float, gamma: float = 0.0) -> Optional[float]:
    """Constant c making u = c r^{-beta*} an exact solution of F(D^2u) = |x|^{-gamma} u^p.

    Returns None when K <= 0, i.e. in the nonexistence regime.
    """
    b = beta_star(p, gamma)
    if not f.rot_invariant:
        raise NotRotInvariant("explicit constants need a rotationally invariant operator")
    return _c_star(K_coefficient(f, n, b), p)


@dataclass(frozen=True)
class Verdict:
    alpha_star: float
    beta_star: float
    outcome: str
    theorem_cited: str

    def __post_init__(self):
        want = NONEXISTENCE_EXTERIOR if self.alpha_star <= self.beta_star \
            else EXISTENCE_SUPERSOLUTION
        if self.outcome != want:
            raise ValueError("outcome inconsistent with exponent comparison")

    @property
    def margin(self) -> float:
        return self.alpha_star - self.beta_star


def classify(f: EllipticOperator, n: int, p: float, gamma: float = 0.0) -> Verdict:
    """Existence/nonexistence dichotomy for F(D^2 u) = |x|^{-gamma} u^p.

    The comparison alpha* <= beta* is closed: equality classifies as
    nonexistence, with no tolerance band.
    """
    b = beta_star(p, gamma)
    a = alpha_star(f, n).alpha_star
    if a <= b:
        return Verdict(a, b, NONEXISTENCE_EXTERIOR,
                       "no nontrivial nonnegative supersolution in any exterior domain")
    return Verdict(a, b, EXISTENCE_SUPERSOLUTION,
                   "positive supersolution exists (whole space when gamma <= 0)")


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f(x, s) = f(|x|, s), given as an evaluator.

    ``power(c, gamma, p)`` builds the reference family c |x|^{-gamma} s^p.
    """

    evaluator: Callable[[float, float], float]
    epsilon0: float = 1.0
    R0: float = 1.0

    def __post_init__(self):
        if not (0 < self.epsilon0 < math.inf and 0 < self.R0 < math.inf):
            raise ValueError("epsilon0 and R0 must be positive and finite")

    @classmethod
    def power(cls, c: float, gamma: float, p: float, epsilon0: float = 1.0,
              R0: float = 1.0) -> "NonlinearitySpec":
        if not (0 < c < math.inf and 1 < p < math.inf and -math.inf < gamma < 2):
            raise ValueError("power form needs finite c > 0, p > 1, gamma < 2")
        return cls(
            evaluator=lambda r, s: c * r ** (-gamma) * s ** p,
            epsilon0=epsilon0, R0=R0,
        )


@dataclass
class ConditionReport:
    name: str
    fitted_constant: float
    passed: bool
    witness: tuple  # sample point realizing the fitted constant


@dataclass
class HypothesisReport:
    conditions: list
    wording: str = "sampled evidence, not certified"

    def condition(self, name):
        return next(c for c in self.conditions if c.name == name)

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions)


def _trend_diverges(blocks):
    """True when the running sup keeps growing as the scale shrinks; each
    block holds (value, point...) samples of one scale, smallest first."""
    sups = [max(w[0] for w in b) for b in blocks if b]
    if len(sups) < 2:
        return False
    return sups[0] > 10.0 * sups[-1]


def hypothesis_check(spec: NonlinearitySpec, p: float, gamma: float) -> HypothesisReport:
    """Sample the three structural conditions on f against |x|^{-gamma} s^p.

    A sampler, never a certifier: the underlying conditions quantify over
    continua, so PASS means "no violation found on the grid".  The grid is
    log-spaced: 24 radii in [R0, 100], 48 values of s in [1e-6 eps0, eps0],
    and for the ratio condition every fourth radius and 8 values of t in
    [1e-5, 10].  f is evaluated once per grid point.  Each fitted constant
    is the first extreme sample in scan order, and its point is the witness.
    """
    radii = np.geomspace(spec.R0, 100.0, 24)
    svals = np.geomspace(1e-6 * spec.epsilon0, spec.epsilon0, 48)
    f = spec.evaluator
    fs = [[f(r, s) for s in svals] for r in radii]
    q = [[(v * r ** gamma / s ** p, r, s) for v, s in zip(row, svals)]
         for row, r in zip(fs, radii)]          # (f |x|^gamma / s^p, r, s)
    decades = np.array_split(np.arange(len(svals)), 6)  # smallest s first
    first = itemgetter(0)

    # lower bound f >= c0 |x|^{-gamma} s^p on small s
    c0, *lower_wit = min(chain(*q), key=first)
    cond1 = ConditionReport("fx-nonexist1", c0, c0 > 1e-12, tuple(lower_wit))

    # monotone ratio f(x,s)/s <= C0 f(x,t)/t for s <= min(t, eps0); a t
    # below every s is never compared, so f is not evaluated there
    ts = [t for t in np.geomspace(1e-6 * 10.0, 10.0, 48)[::6] if t >= svals[0]]
    rows = range(0, len(radii), 4)
    ft = {i: [f(radii[i], t) for t in ts] for i in rows}
    ratios = [[((fs[i][j] / s) / (g / t), radii[i], s, t)
               for i in rows for j in block for s in [svals[j]]
               for t, g in zip(ts + [s], ft[i] + [fs[i][j]])
               if not s > min(t, spec.epsilon0)] for block in decades]
    C0_ratio, *ratio_wit = max(chain([(0.0, None, None, None)], *ratios), key=first)
    cond2 = ConditionReport("fx-nonexist2", C0_ratio, not _trend_diverges(ratios),
                            tuple(ratio_wit))

    # upper bound f <= C0 |x|^{-gamma} s^p on small s
    uppers = [[row[j] for row in q for j in block] for block in decades]
    C0_upper, *upper_wit = max(chain([(0.0, None, None)], *uppers), key=first)
    cond3 = ConditionReport("fx-exist", C0_upper, not _trend_diverges(uppers),
                            tuple(upper_wit))

    return HypothesisReport(conditions=[cond1, cond2, cond3])


def sampled_verdict(f_op: EllipticOperator, n: int, spec: NonlinearitySpec,
                    p: float, gamma: float) -> dict:
    """Combine the exponent comparison with the sampled structural checks."""
    verdict = classify(f_op, n, p, gamma)
    report = hypothesis_check(spec, p, gamma)
    if verdict.outcome == NONEXISTENCE_EXTERIOR:
        needed = ["fx-nonexist1", "fx-nonexist2"]
    else:
        needed = ["fx-exist"]
    supported = all(report.condition(name).passed for name in needed)
    return {
        "outcome": verdict.outcome,
        "alpha_star": verdict.alpha_star,
        "beta_star": verdict.beta_star,
        "conditions_required": needed,
        "supported": supported,
        "wording": "sampled evidence, not certified",
        "report": report,
    }
