"""Small symmetric matrices and the elliptic operator kernel.

Everything downstream evaluates operators F through this module.  The sign
convention is fixed once and for all: F(M) = -trace(M) for the Laplacian,
so "u is a supersolution of F(D^2 u) = f" means F(D^2 u) >= f.

A matrix is a dense float array: one ``SymMatrix``, or an (..., n, n) stack
that ``eval_operator`` evaluates in one call, with LAPACK eigenvalues.  Where
every matrix is diagonal (the radial Hessians and the indicator matrices of
a rotation-invariant F), ``eval_diagonal`` takes the (..., n) diagonals and
returns the same bits without building, checking or diagonalizing matrices.

An Isaacs family's controls are built as one (k, n, n) float stack, checked
and symmetrized once (``control_matrices``); an operator bounds its controls
with one ``eigvalsh`` of their padded stack and keeps that stack as its
control table.  The rotation samples behind a ``rot_invariant`` claim are
stored symmetrized, so building an operator symmetrizes no matrix twice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_DIM = 8
ROTATION_SAMPLES = 64  # random (M, rotated M) pairs behind an Isaacs rot_invariant claim
ROTATION_SEED = 0
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
_HALF_MAX = 0.5 * np.finfo(float).max

LAPLACIAN = "laplacian"
PUCCI_MAX = "pucci_max"
PUCCI_MIN = "pucci_min"
ISAACS = "isaacs"

KINDS = (LAPLACIAN, PUCCI_MAX, PUCCI_MIN, ISAACS)


class DimensionMismatch(ValueError):
    pass


class InvalidOperator(ValueError):
    pass


def _symmetrized(a):
    """Finite, nearly symmetric (..., n, n) stack -> exactly symmetric copy.

    Each matrix may differ from its transpose as ``np.allclose`` allows
    (relative 1e-5), with absolute slack 1e-12 times its largest entry plus one.
    Each is scaled on its own, so a stack gets the bits of one matrix at a
    time.  A failing stack raises a ``ValueError`` whose ``index`` is the
    row-major position of its first failing matrix.
    """
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), keepdims=True, initial=0.0)
    finite = np.isfinite(scale)  # max passes NaN and inf on
    if not finite.all():
        k = int(np.argmin(finite))
        _symmetrized(a.reshape((-1,) + a.shape[-2:])[:k])  # an earlier asymmetric one first
        raise _failure("entries must be finite", k)
    at = a.swapaxes(-1, -2)
    off = np.abs(a - at) > 1e-12 * scale + 1e-5 * np.abs(at)
    if off.any():
        raise _failure("matrix is not symmetric", int(np.argmax(off.any(axis=(-2, -1)))))
    if scale.max(initial=0.0) > _HALF_MAX:   # a + at may overflow
        with np.errstate(over="ignore"):
            out = 0.5 * (a + at)
        return np.where(np.isinf(out), 0.5 * a + 0.5 * at, out)
    return 0.5 * (a + at)


def _failure(problem, index):
    """ValueError(problem) naming the failing matrix by its ``index``."""
    exc = ValueError(problem)
    exc.index = index
    return exc


def diag_matrices(values) -> np.ndarray:
    """(..., n, n) stack of diagonal matrices with the (..., n) diagonals given."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    out = np.zeros(values.shape + (n,))
    out[..., range(n), range(n)] = values
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix, stored as a read-only (dim, dim) array.

    Immutable; dim <= 8 by construction (desk-scale guard).  The input may
    be asymmetric by rounding; it is stored symmetrized.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not 1 <= len(a) <= MAX_DIM:
            raise ValueError(f"need a square array of dim 1..{MAX_DIM}, got shape {a.shape}")
        a = _symmetrized(a)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(tuple(self.entries.ravel().tolist()))

    @classmethod
    def from_dense(cls, a) -> "SymMatrix":
        return cls(a)

    @classmethod
    def _checked(cls, a) -> "SymMatrix":
        """Wrap a read-only, exactly symmetric (dim, dim) array as it is."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", a)
        return m

    @classmethod
    def diag(cls, *values) -> "SymMatrix":
        return cls(diag_matrices(values))

    @classmethod
    def identity(cls, dim) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def zero(cls, dim) -> "SymMatrix":
        return cls(np.zeros((dim, dim)))

    def to_dense(self) -> np.ndarray:
        """The stored (read-only) array."""
        return self.entries

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __add__(self, other):
        self._check_dim(other)
        return SymMatrix(self.entries + other.entries)

    def __sub__(self, other):
        self._check_dim(other)
        return SymMatrix(self.entries - other.entries)

    def __mul__(self, t):
        return SymMatrix(float(t) * self.entries)

    __rmul__ = __mul__

    def __neg__(self):
        return SymMatrix(-self.entries)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def _eigvalsh(a):
    """Ascending eigenvalues of each matrix of the (..., n, n) stack a, from
    LAPACK (``np.linalg.eigvalsh``), the module's one caller of it.  First each
    nonzero entry below sqrt(tiny) times its matrix's largest is flushed to
    zero: its square underflows and can cost LAPACK digits of the largest
    eigenvalues, while flushing it moves each eigenvalue by less than its size
    (Weyl); a stack with nothing to flush goes as it is.  Every other entry,
    -0.0 and NaN included, keeps its bits."""
    mag = np.abs(a)
    big = mag.max(axis=(-2, -1), keepdims=True, initial=0.0)
    flush = (mag < _SQRT_TINY * big) & (mag > 0)
    return np.linalg.eigvalsh(np.where(flush, 0.0, a) if flush.any() else a)


def eigenvalues_sym(m: SymMatrix) -> list:
    """Ascending eigenvalues of m, from ``_eigvalsh``."""
    return _eigvalsh(m.entries).tolist()


@dataclass(frozen=True)
class EllipticOperator:
    """Positively homogeneous uniformly elliptic operator.

    Built-in kinds: laplacian, pucci_max, pucci_min; or a finite sup-inf
    (Isaacs) family of control matrices A with lam*I <= A <= Lam*I.
    ``families`` is a list over the sup index of lists over the inf index, of
    SymMatrix taken as stored: ``isaacs`` and spec parsing symmetrize every
    control once, as one stack (``control_matrices``).  A ``rot_invariant``
    claim is checked by ``_isaacs_value`` at the cached rotation samples,
    stored symmetrized, and dropped if a rotation moves F.
    """

    dim: int
    kind: str
    lam: float = 1.0
    Lam: float = 1.0
    families: tuple = ()
    rot_invariant: bool = True
    # isaacs: the controls as (rows, controls, 1, dim*dim), ragged rows padded
    # with their first control, which leaves every row minimum unchanged
    _controls: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidOperator(f"unknown kind {self.kind!r}")
        if not (1 <= self.dim <= MAX_DIM):
            raise InvalidOperator(f"dim must be in [1, {MAX_DIM}]")
        if self.kind == LAPLACIAN:
            object.__setattr__(self, "lam", 1.0)
            object.__setattr__(self, "Lam", 1.0)
            object.__setattr__(self, "rot_invariant", True)
        if not (0.0 < self.lam <= self.Lam):
            raise InvalidOperator(f"need 0 < lambda <= Lambda, got ({self.lam}, {self.Lam})")
        if self.kind in (PUCCI_MAX, PUCCI_MIN):
            object.__setattr__(self, "rot_invariant", True)
        if self.kind == ISAACS:
            if not self.families:
                raise InvalidOperator("isaacs kind needs a nonempty family")
            fams, n = tuple(tuple(row) for row in self.families), self.dim
            # the first empty row (at j = 0), non-SymMatrix or wrong-dim control
            i, j = next(((i, j) for i, row in enumerate(fams) for j, a in enumerate(row or (None,))
                         if not (isinstance(a, SymMatrix) and a.dim == n)), (len(fams), 0))
            rows = fams[:i] + ((fams[i][:j],) if j else ())  # the controls before it
            width = max(map(len, rows), default=1)
            stack = np.array([[a.entries for a in row + row[:1] * (width - len(row))]
                              for row in rows]).reshape(len(rows), width, n, n)
            eigs = _eigvalsh(stack)
            out = (eigs[..., 0] < self.lam - 1e-12) | (eigs[..., -1] > self.Lam + 1e-12)
            if out.any():  # a padding copy repeats an earlier control, so is never first
                k = divmod(int(out.argmax()), width)
                raise InvalidOperator(
                    f"control matrix ({k[0]},{k[1]}) has eigenvalues [{eigs[k][0]:.6g}, "
                    f"{eigs[k][-1]:.6g}] outside [{self.lam}, {self.Lam}]")
            if i < len(fams):
                raise InvalidOperator(
                    f"sup family {i} is empty" if not fams[i] else
                    "control matrices must be SymMatrix" if not isinstance(fams[i][j], SymMatrix)
                    else f"control matrix ({i},{j}) has dim {fams[i][j].dim}, operator dim {n}")
            object.__setattr__(self, "families", fams)
            object.__setattr__(self, "_controls", stack.reshape(len(fams), width, 1, n * n))
            if self.rot_invariant:  # a rotated sample that moves F downgrades the claim
                a, b = _isaacs_value(self, _rotation_pairs(n).reshape(2, -1, 1, 1, n * n, 1))
                if not (np.abs(a - b) <= 1e-8 * (1.0 + np.abs(a))).all():
                    object.__setattr__(self, "rot_invariant", False)
        elif self.families:
            raise InvalidOperator("families only valid for isaacs kind")


@functools.lru_cache(maxsize=MAX_DIM)  # one entry per dimension
def _rotation_pairs(n):
    """Read-only (2, ROTATION_SAMPLES, n, n) stack of random symmetric m and
    q m q^T, q orthogonal, drawn at the first Isaacs construction in dim n and
    stored symmetrized, as ``eval_operator`` would read them."""
    draws = np.random.default_rng(ROTATION_SEED).standard_normal((ROTATION_SAMPLES, 2, n, n))
    m = 0.5 * (draws[:, 0] + draws[:, 0].swapaxes(1, 2))
    q = np.linalg.qr(draws[:, 1])[0]
    pairs = _symmetrized(np.stack([m, q @ m @ q.swapaxes(1, 2)]))
    pairs.flags.writeable = False
    return pairs


def laplacian(dim) -> EllipticOperator:
    return EllipticOperator(dim=dim, kind=LAPLACIAN)


def pucci_max(lam, Lam, dim) -> EllipticOperator:
    return EllipticOperator(dim=dim, kind=PUCCI_MAX, lam=lam, Lam=Lam)


def pucci_min(lam, Lam, dim) -> EllipticOperator:
    return EllipticOperator(dim=dim, kind=PUCCI_MIN, lam=lam, Lam=Lam)


def isaacs(lam, Lam, dim, families, rot_invariant=False) -> EllipticOperator:
    """Sup-inf operator of ``families``, rows of dim x dim control matrices
    (arrays or SymMatrix), symmetrized by ``control_matrices``."""
    return EllipticOperator(dim=dim, kind=ISAACS, lam=lam, Lam=Lam,
                            families=control_matrices(families, dim), rot_invariant=rot_invariant)


def control_matrices(families, dim, name="control matrix ({i},{j})") -> tuple:
    """Rows of dim x dim control matrices (arrays or SymMatrix) -> rows of
    read-only SymMatrix: the rows of one (k, dim, dim) float stack, built by
    one ``np.array`` call and checked and symmetrized by ``_symmetrized``, with
    the bits ``SymMatrix`` gives one matrix at a time.  The first control in
    row-major order of the wrong shape, not finite or not symmetric raises
    ``InvalidOperator``, naming it by ``name``."""
    if not 1 <= dim <= MAX_DIM:
        raise InvalidOperator(f"dim must be in [1, {MAX_DIM}]")
    rows = [tuple(row) for row in families]
    where = [name.format(i=i, j=j) for i, row in enumerate(rows) for j in range(len(row))]
    flat = [a.entries if isinstance(a, SymMatrix) else a for row in rows for a in row]
    try:
        stack = np.array(flat, dtype=float)
    except (ValueError, OverflowError):
        stack = None
    if stack is None or stack.shape != (len(flat), dim, dim):
        for control, a in zip(where, flat):  # only to name the first misfit; ragged raises
            try:
                a = np.asarray(a, dtype=float)
            except OverflowError:  # an int beyond the float range
                raise InvalidOperator(f"{control}: entries must be finite") from None
            if a.shape != (dim, dim):
                raise InvalidOperator(f"{control} has shape {a.shape}, not ({dim}, {dim})")
        stack = np.array(flat, dtype=float).reshape(0, dim, dim)  # no control at all
    try:
        stack = _symmetrized(stack)
    except ValueError as exc:
        raise InvalidOperator(f"{where[exc.index]}: {exc}") from None
    stack.flags.writeable = False
    out = iter([SymMatrix._checked(a) for a in stack])
    return tuple(tuple(itertools.islice(out, len(row))) for row in rows)


def control_table(f: EllipticOperator):
    """An Isaacs family's padded controls: the (rows, controls, n, n) matrices
    A, and the radial table a11 = A[0, 0] and s = tr A - a11, each (rows,
    controls).  A ragged row repeats its first control, which changes neither
    a row minimum nor its first argmin."""
    if f.kind != ISAACS:
        raise InvalidOperator(f"a {f.kind} operator has no control table")
    mats = f._controls.reshape(f._controls.shape[:2] + (f.dim, f.dim))
    a11 = mats[:, :, 0, 0]
    return mats, a11, np.trace(mats, axis1=2, axis2=3) - a11


def pucci_max_value(lam, Lam, eigs):
    """-lam * (sum of eigs > 0) - Lam * (sum of eigs < 0) along the last axis.

    ``cumsum`` adds left to right, so a stack gets the same bits as one
    ascending eigenvalue list at a time.
    """
    e = np.asarray(eigs, dtype=float)
    pos = np.cumsum(np.where(e > 0, e, 0.0), axis=-1)[..., -1]
    neg = np.cumsum(np.where(e < 0, e, 0.0), axis=-1)[..., -1]
    return -lam * pos - Lam * neg


def pucci_min_value(lam, Lam, eigs):
    return pucci_max_value(Lam, lam, eigs)


def eval_operator(f: EllipticOperator, m):
    """Evaluate F(M) for a SymMatrix, or F at each matrix of an (..., n, n) stack.

    laplacian -> -tr(M); pucci kinds -> weighted eigenvalue sums; isaacs ->
    max over sup families of min over the family of -tr(A M).  A SymMatrix
    gives a float; a stack gives an array of shape (...), after the checks
    ``SymMatrix`` applies to one matrix.
    """
    single = isinstance(m, SymMatrix)
    a = m.entries if single else np.asarray(m, dtype=float)
    if a.shape[-2:] != (f.dim, f.dim):
        raise DimensionMismatch(
            f"operator dim {f.dim}, matrices of shape {a.shape[-2:]}")
    if not single:
        a = _symmetrized(a)
    if f.kind == LAPLACIAN:
        val = -np.trace(a, axis1=-2, axis2=-1)
    elif f.kind == PUCCI_MAX:
        val = pucci_max_value(f.lam, f.Lam, _eigvalsh(a))
    elif f.kind == PUCCI_MIN:
        val = pucci_min_value(f.lam, f.Lam, _eigvalsh(a))
    else:
        val = _isaacs_value(f, a.reshape(a.shape[:-2] + (1, 1, f.dim ** 2, 1)))
    return float(val) if single else val


def _isaacs_value(f, flat):
    """Isaacs F at (..., 1, 1, n*n, 1) rows: one BLAS dot per (matrix, control)
    pair, so a matrix gets the same bits alone as inside a stack, then the min
    over controls and the max over rows as elementwise left-to-right folds."""
    vals = -(f._controls @ flat)[..., 0, 0]        # (..., rows, controls)
    low = functools.reduce(np.minimum, [vals[..., j] for j in range(vals.shape[-1])])
    return functools.reduce(np.maximum, [low[..., i] for i in range(low.shape[-1])])


def eval_diagonal(f: EllipticOperator, d):
    """F(diag(d)) at each (..., n) diagonal d: the bits and the errors of
    ``eval_operator(f, diag_matrices(d))`` without the matrices, where LAPACK
    does not rescale (1e-146 < max |d| < 1e146; outside, it rounds and
    ``np.sort`` does not)."""
    d = np.asarray(d, dtype=float)
    if d.shape[-1:] != (f.dim,):
        raise DimensionMismatch(f"operator dim {f.dim}, matrices of shape {d.shape[-1:] * 2}")
    if not np.isfinite(d).all():
        raise ValueError("entries must be finite")
    if f.kind == LAPLACIAN:
        return -d.sum(axis=-1)
    if f.kind != ISAACS:  # a sorted diagonal is its eigenvalues
        value = pucci_max_value if f.kind == PUCCI_MAX else pucci_min_value
        return value(f.lam, f.Lam, np.sort(d, axis=-1))
    flat = np.zeros(d.shape[:-1] + (1, 1, f.dim ** 2, 1))
    flat[..., 0, 0, ::f.dim + 1, 0] = d        # the rows of the diagonal matrices
    return _isaacs_value(f, flat)


def radial_diagonal(n: int, g1, g2, r):
    """(..., n) diagonal (g'', g'/r, ..., g'/r) of the Hessian of x -> g(|x|)."""
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise ValueError("r must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    g2, g1r = np.broadcast_arrays(np.asarray(g2, dtype=float), g1 / r)
    return np.stack([g2] + [g1r] * (n - 1), axis=-1)


def radial_hessian(n: int, g1, g2, r):
    """Hessian of x -> g(|x|) in the frame with first axis radial.

    Eigenvalues: g'' once and g'/r with multiplicity n - 1.  Scalars give a
    SymMatrix; arrays broadcast and give an (..., n, n) stack.
    """
    hess = diag_matrices(radial_diagonal(n, g1, g2, r))
    return SymMatrix(hess) if hess.ndim == 2 else hess


def hessian_xi(beta: float, z, n: int) -> SymMatrix:
    """Ambient Hessian of |x|^{-beta} at z != 0.

    Closed form beta(beta+2)|z|^{-beta-4} z (x) z - beta |z|^{-beta-2} I;
    spectrum matches radial_hessian of r^{-beta} at r = |z|.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"z must be a length-{n} vector")
    r = float(np.linalg.norm(z))
    if r == 0.0:
        raise ValueError("z must be nonzero")
    a = beta * (beta + 2.0) * r ** (-beta - 4.0) * np.outer(z, z)
    a -= beta * r ** (-beta - 2.0) * np.eye(n)
    return SymMatrix.from_dense(a)


@dataclass
class EllipticityReport:
    samples: int
    violations: list
    lam: float
    Lam: float

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_ellipticity(f: EllipticOperator, samples: int, seed: int) -> EllipticityReport:
    """Sample-check (H1)-(H2) and the Pucci sandwich.

    Violations are collected with their witnesses; they are report content,
    not exceptions.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = f.dim
    # drawn per sample (M and N in one call, then t), so a seed keeps its samples
    draws = [(rng.standard_normal((2, n, n)), rng.uniform(0.0, 4.0)) for _ in range(samples)]
    mn, t = (np.array(x) for x in zip(*draws))
    a, b = mn.swapaxes(0, 1)
    m = a + a.swapaxes(1, 2)                     # random symmetric: sym(2 M), exactly
    nn = _symmetrized(b @ b.swapaxes(1, 2) / n)  # random positive semidefinite
    fm, fmn, ftm = eval_operator(f, np.stack([m, m - nn, t[:, None, None] * m]))
    trn = np.trace(nn, axis1=1, axis2=2)
    lo, hi = f.lam * trn, f.Lam * trn
    slack = 1e-9 * (1.0 + np.abs(fm) + trn)
    h1 = ~((lo - slack <= fmn - fm) & (fmn - fm <= hi + slack))
    h2 = np.abs(ftm - t * fm) > 1e-10 * (1.0 + np.abs(t * fm))
    eigs = _eigvalsh(m)
    pmin = pucci_min_value(f.lam, f.Lam, eigs)
    pmax = pucci_max_value(f.lam, f.Lam, eigs)
    sandwich = ~((pmin - slack <= fm) & (fm <= pmax + slack))
    violations = []
    for k in np.flatnonzero(h1 | h2 | sandwich).tolist():
        mk = SymMatrix(m[k])
        if h1[k]:
            violations.append(("H1", k, mk, SymMatrix(nn[k]), float(fmn[k] - fm[k]),
                               (float(lo[k]), float(hi[k]))))
        if h2[k]:
            violations.append(("H2", k, mk, float(t[k]), float(ftm[k]), float(t[k] * fm[k])))
        if sandwich[k]:
            violations.append(("sandwich", k, mk, float(fm[k]), (float(pmin[k]), float(pmax[k]))))
    return EllipticityReport(samples=samples, violations=violations, lam=f.lam, Lam=f.Lam)
