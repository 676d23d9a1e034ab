"""Symmetric-matrix kernel, operator evaluation, and ellipticity checks."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest

from fnel import (
    EllipticOperator, SymMatrix, eigenvalues_sym, eval_diagonal, eval_operator,
    hessian_xi, isaacs, laplacian, pucci_max, pucci_min, radial_diagonal,
    radial_hessian, verify_ellipticity,
)
from fnel import matcore
from fnel.matcore import (
    ISAACS, LAPLACIAN, PUCCI_MAX, PUCCI_MIN, DimensionMismatch, InvalidOperator,
    control_table, diag_matrices, pucci_max_value, pucci_min_value,
)
from fnel.opspec import SpecError, parse_operator_spec


# ---------------------------------------------------------------------------
# reference: the per-matrix evaluator that the stacked one replaced


def _jacobi_eigenvalues(a):
    """Ascending eigenvalues of a dense symmetric matrix, cyclic Jacobi."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return [float(a[0, 0])]
    scale = 1.0 + np.abs(a).max()
    for _ in range(100):
        off = math.sqrt(max(0.0, (a * a).sum() - (np.diag(a) ** 2).sum()))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return sorted(float(v) for v in np.diag(a))


def _eval_reference(f, a):
    """F at one dense matrix, one Python call per matrix."""
    if f.kind == LAPLACIAN:
        return -float(np.trace(a))
    if f.kind in (PUCCI_MAX, PUCCI_MIN):
        eigs = _jacobi_eigenvalues(a)
        pos = sum(e for e in eigs if e > 0)
        neg = sum(e for e in eigs if e < 0)
        if f.kind == PUCCI_MAX:
            return float(-f.lam * pos - f.Lam * neg)
        return float(-f.Lam * pos - f.lam * neg)
    return max(min(-float(np.tensordot(c.to_dense(), a)) for c in row)
               for row in f.families)


def _verify_ellipticity_reference(f, samples, seed):
    """(kind, index) of every violation, checking one sample at a time."""
    rng = np.random.default_rng(seed)
    n = f.dim
    out = []
    for k in range(samples):
        a = rng.standard_normal((n, n)) * 2.0
        m = SymMatrix.from_dense(0.5 * (a + a.T)).to_dense()
        b = rng.standard_normal((n, n))
        nn = SymMatrix.from_dense(b @ b.T / n).to_dense()
        fm = _eval_reference(f, m)
        fmn = _eval_reference(f, SymMatrix.from_dense(m - nn).to_dense())
        trn = float(np.trace(nn))
        slack = 1e-9 * (1.0 + abs(fm) + trn)
        if not (f.lam * trn - slack <= fmn - fm <= f.Lam * trn + slack):
            out.append(("H1", k))
        t = float(rng.uniform(0.0, 4.0))
        ftm = _eval_reference(f, t * m)
        if abs(ftm - t * fm) > 1e-10 * (1.0 + abs(t * fm)):
            out.append(("H2", k))
        eigs = _jacobi_eigenvalues(m)
        pmin = pucci_min_value(f.lam, f.Lam, eigs)
        pmax = pucci_max_value(f.lam, f.Lam, eigs)
        if not (pmin - slack <= fm <= pmax + slack):
            out.append(("sandwich", k))
    return out


def _ragged_isaacs(rng, n):
    """Isaacs operator with sup-rows of 3 and 1 controls in [I, 2I]."""
    def control():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q @ np.diag(rng.uniform(1.0, 2.0, n)) @ q.T
    return isaacs(1.0, 2.0, n, [[control(), control(), control()], [control()]])


def _stack(rng, shape, n, diagonal):
    """Random symmetric (*shape, n, n) stack; in a diagonal stack about a
    quarter of the eigenvalues are exactly 0."""
    if diagonal:
        d = rng.standard_normal(shape + (n,)) * 3.0
        d[rng.random(d.shape) < 0.25] = 0.0
        out = np.zeros(shape + (n, n))
        out[..., range(n), range(n)] = d
        return out
    a = rng.standard_normal(shape + (n, n)) * 3.0
    return 0.5 * (a + a.swapaxes(-1, -2))


class TestSymMatrix:
    def test_round_trip_dense(self):
        a = np.array([[2.0, 1.0, 0.5], [1.0, -1.0, 0.0], [0.5, 0.0, 3.0]])
        m = SymMatrix.from_dense(a)
        assert np.allclose(m.to_dense(), a)
        assert m.trace() == pytest.approx(4.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_large_dim(self):
        with pytest.raises(ValueError):
            SymMatrix.identity(9)

    def test_arithmetic(self):
        a = SymMatrix.diag(1.0, 2.0)
        b = SymMatrix.identity(2)
        assert np.allclose((a + b).to_dense(), np.diag([2.0, 3.0]))
        assert np.allclose((a - b).to_dense(), np.diag([0.0, 1.0]))
        assert np.allclose((a * 2.0).to_dense(), np.diag([2.0, 4.0]))
        assert np.allclose((-a).to_dense(), np.diag([-1.0, -2.0]))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix.identity(2) + SymMatrix.identity(3)

    def test_storage_is_read_only(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix.from_dense(a)
        a[0, 0] = 7.0                     # the matrix keeps its own copy
        assert m.to_dense()[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.to_dense()[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.entries = np.eye(2)

    def test_equal_matrices_compare_and_hash_equal(self):
        a = np.array([[1.0, 0.5], [0.5, -2.0]])
        m1, m2 = SymMatrix.from_dense(a), SymMatrix.from_dense(a.copy())
        assert m1 == m2 and hash(m1) == hash(m2) and len({m1, m2}) == 1
        zero, neg_zero = SymMatrix.zero(2), SymMatrix.from_dense(-np.zeros((2, 2)))
        assert zero == neg_zero and hash(zero) == hash(neg_zero)
        assert SymMatrix.diag(1.0, 2.0) != SymMatrix.diag(1.0, 3.0)
        assert SymMatrix.identity(2) != SymMatrix.identity(3)
        c = np.array([[1.5, 0.2], [0.2, 1.5]])
        op1, op2 = isaacs(1, 2, 2, [[c]]), isaacs(1, 2, 2, [[c.copy()]])
        assert op1 == op2 and hash(op1) == hash(op2)


class TestEigenvaluesSym:
    def test_2x2_closed_form(self):
        m = SymMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert eigenvalues_sym(m) == pytest.approx([1.0, 3.0])

    def test_identity(self):
        assert eigenvalues_sym(SymMatrix.identity(3)) == pytest.approx([1, 1, 1])

    def test_diagonal_passthrough(self):
        m = SymMatrix.diag(-1.0, 0.0, 5.0)
        assert eigenvalues_sym(m) == pytest.approx([-1.0, 0.0, 5.0])

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n)) * 3.0
            a = 0.5 * (a + a.T)
            got = eigenvalues_sym(SymMatrix.from_dense(a))
            want = np.linalg.eigvalsh(a)
            assert np.allclose(got, want, atol=1e-10 * (1 + np.abs(a).max()))

    def test_ascending(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            eigs = eigenvalues_sym(SymMatrix.from_dense(0.5 * (a + a.T)))
            assert all(x <= y for x, y in zip(eigs, eigs[1:]))


class TestTinyEntries:
    # _eigvalsh, the one caller of LAPACK's eigvalsh, flushes each nonzero
    # entry below sqrt(tiny) times its matrix's largest to zero first
    E = 8.60565279e-162

    def test_underflowing_entries_are_flushed(self):
        # unflushed, LAPACK read the eigenvalues of 5m as +-4.99833
        m = np.array([[self.E, 0.0, 1.0], [0.0, 0.0, self.E], [1.0, self.E, 0.0]])
        assert eigenvalues_sym(SymMatrix.from_dense(5.0 * m)) == [-5.0, 0.0, 5.0]
        assert eval_operator(pucci_max(1.0, 2.0, 3), SymMatrix.from_dense(5.0 * m)) == 5.0
        assert eval_operator(pucci_max(1.0, 2.0, 3), (5.0 * m)[None]).tolist() == [5.0]

    def test_other_inputs_keep_their_bits(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((200, 4, 4))
        a = 0.5 * (a + a.swapaxes(1, 2))
        a[::3, 0, 1] = a[::3, 1, 0] = -0.0
        a[1::3] *= 1e-200               # tiny matrices are scaled by their own largest
        assert np.array_equal(matcore._eigvalsh(a), np.linalg.eigvalsh(a))
        assert np.array_equal(matcore._eigvalsh(a)[1], np.linalg.eigvalsh(a[1]))
        assert matcore._eigvalsh(np.zeros((0, 3, 3))).shape == (0, 3)

    def test_flushed_per_matrix(self):
        m = np.array([[self.E, 1.0], [1.0, 0.0]])
        got = matcore._eigvalsh(np.stack([m, m * 1e-200]))
        assert np.array_equal(got[0], np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.array_equal(got[1], np.linalg.eigvalsh(m * 1e-200))


class TestOperatorConstruction:
    def test_laplacian_forces_unit_constants(self):
        op = laplacian(3)
        assert op.lam == op.Lam == 1.0 and op.rot_invariant

    def test_pucci_rot_invariant(self):
        assert pucci_max(1, 2, 3).rot_invariant
        assert pucci_min(1, 2, 3).rot_invariant

    def test_bad_constants(self):
        with pytest.raises(InvalidOperator):
            pucci_max(2.0, 1.0, 3)
        with pytest.raises(InvalidOperator):
            pucci_max(0.0, 1.0, 3)

    def test_isaacs_control_bound_violation(self):
        # control matrix with eigenvalue 3 under Lambda = 2
        with pytest.raises(InvalidOperator):
            isaacs(1, 2, 2, [[np.diag([1.0, 3.0])]])

    def test_isaacs_rot_claim_downgraded(self):
        # a single anisotropic control cannot be rotationally invariant
        op = isaacs(1, 2, 2, [[np.diag([1.0, 2.0])]], rot_invariant=True)
        assert not op.rot_invariant

    def test_isaacs_rot_claim_kept_for_isotropic(self):
        op = isaacs(1, 2, 2, [[1.5 * np.eye(2)]], rot_invariant=True)
        assert op.rot_invariant


class TestControlBounds:
    """One stacked eigvalsh checks every control; the first offender in
    row-major order raises, with the text of the per-control loop."""

    BAD_LOW, BAD_HIGH = np.diag([0.5, 1.0, 1.0]), np.diag([1.0, 1.0, 3.0])

    def test_first_of_two_offenders_through_isaacs(self):
        with pytest.raises(InvalidOperator) as exc:
            isaacs(1.0, 2.0, 3, [[np.eye(3), self.BAD_LOW], [self.BAD_HIGH]])
        assert str(exc.value) == \
            "control matrix (0,1) has eigenvalues [0.5, 1] outside [1.0, 2.0]"
        with pytest.raises(InvalidOperator) as exc:
            isaacs(1, 2, 3, [[np.eye(3)], [self.BAD_HIGH, self.BAD_LOW]])
        assert str(exc.value) == "control matrix (1,0) has eigenvalues [1, 3] outside [1, 2]"

    def test_first_of_two_offenders_through_a_spec(self):
        doc = {"kind": "isaacs", "n": 3, "lambda": 1, "Lambda": 2,
               "families": [[np.eye(3).tolist(), self.BAD_LOW.tolist()],
                            [self.BAD_HIGH.tolist()]]}
        with pytest.raises(SpecError) as exc:
            parse_operator_spec(json.dumps(doc))
        assert str(exc.value) == \
            "control matrix (0,1) has eigenvalues [0.5, 1] outside [1.0, 2.0]"

    def test_bound_offender_before_a_structural_one_wins(self):
        bad, ok = SymMatrix(np.diag([3.0, 1.0])), SymMatrix(np.eye(2))
        cases = [
            (((bad, SymMatrix(np.eye(3))),), "control matrix (0,0) has eigenvalues"),
            (((ok, SymMatrix(np.eye(3))),), "control matrix (0,1) has dim 3, operator dim 2"),
            (((bad,), ()), "control matrix (0,0) has eigenvalues"),
            (((ok,), ()), "sup family 1 is empty"),
            (((bad, np.eye(2)),), "control matrix (0,0) has eigenvalues"),
            (((np.eye(2), bad),), "control matrices must be SymMatrix"),
        ]
        for families, message in cases:
            with pytest.raises(InvalidOperator) as exc:
                EllipticOperator(dim=2, kind=ISAACS, lam=1.0, Lam=2.0, families=families)
            assert str(exc.value).startswith(message)


class TestRaggedOffenders:
    """The first offender of a ragged family is named from the flat index of
    the padded stack, never as a padding copy."""

    OK, LOW, HIGH = np.eye(2), np.diag([0.5, 1.0]), np.diag([1.0, 3.0])

    def test_bounds_offender_in_a_ragged_row(self):
        cases = [([[self.OK], [self.OK, self.OK, self.HIGH], [self.LOW]], (1, 2), "[1, 3]"),
                 ([[self.OK, self.OK, self.OK], [self.LOW]], (1, 0), "[0.5, 1]"),
                 ([[self.OK, self.OK], [self.OK], [self.OK, self.LOW, self.HIGH]], (2, 1),
                  "[0.5, 1]")]
        for families, (i, j), eigs in cases:
            message = f"control matrix ({i},{j}) has eigenvalues {eigs} outside [1.0, 2.0]"
            with pytest.raises(InvalidOperator) as exc:
                isaacs(1.0, 2.0, 2, families)
            assert str(exc.value) == message
            doc = {"kind": "isaacs", "n": 2, "lambda": 1.0, "Lambda": 2.0,
                   "families": [[a.tolist() for a in row] for row in families]}
            with pytest.raises(SpecError) as exc:
                parse_operator_spec(json.dumps(doc))
            assert str(exc.value) == message

    def test_structural_offender_after_a_ragged_row(self):
        ok, low = SymMatrix(self.OK), SymMatrix(self.LOW)
        cases = [(((ok,), (ok, ok, low), (ok, "x")), "control matrix (1,2) has eigenvalues"),
                 (((ok, ok, ok), (ok,), (ok, "x", low)), "control matrices must be SymMatrix"),
                 (((ok, ok, ok), (ok,), ()), "sup family 2 is empty"),
                 (((ok, ok, ok), (ok, low), ()), "control matrix (1,1) has eigenvalues"),
                 (((ok,), (ok, ok, SymMatrix(np.eye(3)))), "control matrix (1,2) has dim 3")]
        for families, message in cases:
            with pytest.raises(InvalidOperator) as exc:
                EllipticOperator(dim=2, kind=ISAACS, lam=1.0, Lam=2.0, families=families)
            assert str(exc.value).startswith(message)

    def test_controls_are_the_padded_stack(self):
        a, b, c = np.diag([1.0, 2.0]), 1.5 * np.eye(2), np.diag([2.0, 1.0])
        op = isaacs(1.0, 2.0, 2, [[a], [b, c, a]])
        assert op._controls.shape == (2, 3, 1, 4)
        assert _same_bits(op._controls.reshape(2, 3, 2, 2), np.array([[a, a, a], [b, c, a]]))


class TestIsaacsFolds:
    """_isaacs_value's elementwise min over controls and max over rows give
    the bits of the axis reductions they replaced."""

    class _Values:
        """A control stack whose product with any rows reads -vals."""

        def __init__(self, vals):
            self.neg = -vals[..., None, None]

        def __matmul__(self, flat):
            return self.neg

    def _check(self, vals, signs):
        f = types.SimpleNamespace(_controls=self._Values(vals))
        got = matcore._isaacs_value(f, None)
        want = vals.min(axis=-1).max(axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        if signs:
            assert _same_bits(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_signed_zero_ties_and_nan(self):
        # up to two rows and two controls an axis reduction is a scalar left
        # fold on every numpy build, so the bits agree, the sign of a zero
        # tie included; on longer axes numpy's SIMD reduction settles a
        # signed-zero tie in a CPU-dependent order, so values are compared
        rng = np.random.default_rng(11)
        for lead in [(), (7,), (2, 64)]:
            for rows in range(1, 6):
                for width in range(1, 6):
                    vals = rng.choice([-0.0, 0.0, -1.0, 1.0, np.nan], p=[.35, .35, .1, .1, .1],
                                      size=lead + (rows, width))
                    self._check(vals, signs=rows <= 2 and width <= 2)

    def test_real_families_keep_their_bits(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 4):
            op = _ragged_isaacs(rng, n)
            flat = _stack(rng, (50,), n, diagonal=False).reshape(50, 1, 1, n * n, 1)
            vals = -(op._controls @ flat)[..., 0, 0]
            self._check(vals, signs=True)


class TestControlTable:
    def test_padded_matrices_and_radial_table(self):
        a, b, c = np.diag([1.0, 2.0, 1.5]), np.diag([2.0, 1.0, 1.0]), 1.5 * np.eye(3)
        op = isaacs(1.0, 2.0, 3, [[a, b], [c]])
        mats, a11, s = control_table(op)
        assert mats.shape == (2, 2, 3, 3)        # the ragged row repeats c
        assert np.array_equal(mats, np.array([[a, b], [c, c]]))
        assert a11.tolist() == [[1.0, 2.0], [1.5, 1.5]]
        assert s.tolist() == [[3.5, 2.0], [3.0, 3.0]]

    @pytest.mark.parametrize("make", [laplacian, lambda n: pucci_max(1.0, 2.0, n)])
    def test_only_isaacs_has_one(self, make):
        with pytest.raises(InvalidOperator, match="no control table"):
            control_table(make(3))


class TestRotationSamples:
    """The rotation-invariance samples are drawn once per dimension."""

    SCALAR = {"kind": "isaacs", "lambda": 1.0, "Lambda": 2.0, "rot_invariant": True}

    def test_one_qr_per_dimension(self, monkeypatch):
        dims = []
        real_qr = np.linalg.qr

        def qr(a, *args, **kwargs):
            dims.append(a.shape[-1])
            return real_qr(a, *args, **kwargs)

        matcore._rotation_pairs.cache_clear()
        monkeypatch.setattr(np.linalg, "qr", qr)
        for _ in range(3):
            for n in (2, 3, 5):
                doc = {**self.SCALAR, "n": n, "families": [[(1.5 * np.eye(n)).tolist()]]}
                assert parse_operator_spec(json.dumps(doc)).rot_invariant
        assert sorted(dims) == [2, 3, 5]

    def test_cache_fills_at_the_first_construction(self):
        matcore._rotation_pairs.cache_clear()
        pucci_max(1, 2, 4)
        assert matcore._rotation_pairs.cache_info().currsize == 0
        isaacs(1, 2, 4, [[np.eye(4)]], rot_invariant=True)
        assert matcore._rotation_pairs.cache_info().currsize == 1

    def test_cached_stack_is_read_only(self):
        pairs = matcore._rotation_pairs(3)
        assert pairs.shape == (2, matcore.ROTATION_SAMPLES, 3, 3)
        assert matcore._rotation_pairs(3) is pairs
        with pytest.raises(ValueError):
            pairs[0, 0, 0, 0] = 1.0
        assert _same_bits(pairs, pairs.swapaxes(-1, -2))  # stored symmetrized

    @staticmethod
    def _fresh_pairs(n):
        """The draw behind _rotation_pairs, left as drawn: q m q^T unsymmetrized."""
        draws = np.random.default_rng(matcore.ROTATION_SEED).standard_normal(
            (matcore.ROTATION_SAMPLES, 2, n, n))
        m = 0.5 * (draws[:, 0] + draws[:, 0].swapaxes(1, 2))
        q = np.linalg.qr(draws[:, 1])[0]
        return np.stack([m, q @ m @ q.swapaxes(1, 2)])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_pairs_give_eval_operator_bits(self, n):
        rng = np.random.default_rng(50 + n)
        fresh = self._fresh_pairs(n)
        assert not _same_bits(fresh, fresh.swapaxes(-1, -2)) or n == 1
        ops = [isaacs(1, 2, n, [[1.5 * np.eye(n), 1.2 * np.eye(n)], [1.8 * np.eye(n)]],
                      rot_invariant=True),
               _ragged_isaacs(rng, n)]
        assert ops[0].rot_invariant and (n == 1 or not ops[1].rot_invariant)
        flat = matcore._rotation_pairs(n).reshape(2, -1, 1, 1, n * n, 1)
        for op in ops:
            assert _same_bits(matcore._isaacs_value(op, flat), eval_operator(op, fresh))

    def test_non_invariant_spec_is_still_downgraded(self):
        controls = [[[1.0, 0.0], [0.0, 2.0]], [[1.5, 0.3], [0.3, 1.5]]]
        for _ in range(2):  # the second parse reads the cached samples
            doc = {**self.SCALAR, "n": 2, "families": [controls]}
            assert not parse_operator_spec(json.dumps(doc)).rot_invariant
            assert not isaacs(1, 2, 2, [[np.diag([1.0, 2.0])]], rot_invariant=True).rot_invariant


class TestControlMatrices:
    """One stack symmetrizes every control, with the bits of one SymMatrix at
    a time, and names the first control that fails."""

    @staticmethod
    def _families(rng, n, sizes):
        def control():
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300)
            return a + a.T * (1.0 + 1e-9)
        return [[control() for _ in range(k)] for k in sizes]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_matches_one_matrix_at_a_time(self, n):
        rng = np.random.default_rng(70 + n)
        special = [np.diag([1e308] + [-1.0] * (n - 1)), -np.zeros((n, n)),
                   np.full((n, n), 5e-324), np.full((n, n), -1e308)]
        if n > 1:  # TestSymmetrizedOverflow's matrices, padded to dim n
            off = np.zeros((n, n))
            off[0, 1] = off[1, 0] = 1e308
            tiny = np.eye(n)
            tiny[0, 0], tiny[0, 1], tiny[1, 0] = 1e308, 5e-324, 5e-324
            special += [off, tiny]
        for sizes in ((1,), (3, 1, 2), (2, 2)):
            fams = self._families(rng, n, sizes)
            fams[-1][-1] = special[len(sizes) % len(special)]
            fams.append(special)
            got = matcore.control_matrices(fams, n)
            assert [len(row) for row in got] == [len(row) for row in fams]
            for row, want in zip(got, fams):
                for a, b in zip(row, want):
                    assert _same_bits(a.entries, SymMatrix(b).entries)
                    assert not a.entries.flags.writeable

    def test_dimension_is_checked_first(self):
        for dim in (0, 9):
            with pytest.raises(InvalidOperator, match=r"dim must be in \[1, 8\]"):
                isaacs(1.0, 2.0, dim, [[np.eye(dim)]])

    def test_symmetric_controls_are_kept_as_given(self):
        a = SymMatrix(np.array([[1.0, -0.0], [-0.0, 2.0]]))
        (got,), = matcore.control_matrices([[a]], 2)
        assert got == a and _same_bits(got.entries, a.entries)

    def test_first_bad_control_is_named(self):
        asym, inf = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]])
        ok = np.eye(2)
        cases = [([[ok], [ok, asym]], "(1,1): matrix is not symmetric"),
                 ([[ok, inf], [asym]], "(0,1): entries must be finite"),
                 ([[ok, asym], [inf]], "(0,1): matrix is not symmetric"),
                 ([[ok], [], [ok, ok, inf]], "(2,2): entries must be finite"),
                 ([[ok, np.eye(3)]], "(0,1) has shape (3, 3), not (2, 2)")]
        for families, message in cases:
            with pytest.raises(InvalidOperator) as exc:
                isaacs(1.0, 2.0, 2, families)
            assert str(exc.value) == "control matrix " + message
            i, j = message[1], message[3]
            doc = {"kind": "isaacs", "n": 2, "families":
                   [[np.asarray(a).tolist() for a in row] for row in families]}
            with pytest.raises(SpecError) as exc:
                parse_operator_spec(json.dumps(doc).replace("Infinity", "1e999"))
            if "shape" not in message:
                assert str(exc.value) == f"families[{i}][{j}]" + message[5:]


class TestSymmetrizedOverflow:
    # above half the largest float the sum M + M^T overflows; the mean is
    # then taken as M/2 + M^T/2, and everywhere else as (M + M^T)/2
    def test_stored_entry_stays_finite(self):
        assert SymMatrix(np.diag([1e308, -1.0, -1.0])).entries[0, 0] == 1e308
        off = np.array([[0.0, 1e308, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(SymMatrix(off).entries, off)
        # beside a huge entry a finite sum keeps (M + M^T)/2: M/2 + M^T/2
        # would round the smallest subnormal to 0
        tiny = np.array([[1e308, 5e-324], [5e-324, 1.0]])
        assert np.array_equal(SymMatrix(tiny).entries, tiny)

    @pytest.mark.parametrize("make", [lambda: pucci_max(1.0, 2.0, 3),
                                      lambda: laplacian(3)],
                             ids=["pucci_max", "laplacian"])
    def test_eval_operator_matches_eval_diagonal(self, make):
        op = make()
        for d in ([1e308, -1.0, -1.0], [1.5e308, 0.5, -3.0], [-8e307, 1e308, 1.0]):
            d = np.array(d)
            got, want = eval_operator(op, np.diag(d)), eval_diagonal(op, d)
            assert np.isfinite(got)
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_finite_sums_keep_their_bits(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((200, 4, 4)) * 10.0 ** rng.integers(-300, 300, (200, 1, 1))
        a = a + a.swapaxes(1, 2) * (1.0 + 1e-9)
        assert np.array_equal(matcore._symmetrized(a), 0.5 * (a + a.swapaxes(1, 2)))


class TestEvalOperator:
    def test_laplacian_negative_trace(self):
        assert eval_operator(laplacian(3), SymMatrix.diag(1, 2, 3)) == -6.0

    def test_pucci_max_hand_value(self):
        assert eval_operator(pucci_max(1, 2, 2), SymMatrix.diag(1, -1)) == 1.0

    def test_pucci_min_hand_value(self):
        assert eval_operator(pucci_min(1, 2, 2), SymMatrix.diag(1, -1)) == -1.0

    def test_isaacs_sup_inf(self):
        a1 = np.eye(2)
        a2 = np.diag([1.0, 2.0])
        op = isaacs(1, 2, 2, [[a1], [a2]])
        m = SymMatrix.diag(1.0, -1.0)
        # sup over rows of inf over the row: max(-tr(a1 m), -tr(a2 m))
        assert eval_operator(op, m) == pytest.approx(max(0.0, 1.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_operator(laplacian(3), SymMatrix.identity(2))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_stack_matches_per_matrix_reference(self, n, shape):
        rng = np.random.default_rng(100 + n)
        ops = [laplacian(n), pucci_max(0.5, 3.0, n), pucci_min(0.5, 3.0, n),
               _ragged_isaacs(rng, n)]
        for diagonal in (True, False):
            mats = _stack(rng, shape, n, diagonal)
            scale = 1.0 + np.abs(mats).max(axis=(-2, -1))
            for op in ops:
                got = eval_operator(op, mats)
                assert got.shape == shape
                ref = np.array([_eval_reference(op, a) for a in
                                mats.reshape(-1, n, n)]).reshape(shape)
                if diagonal:
                    assert np.array_equal(got, ref), op.kind
                else:
                    assert np.all(np.abs(got - ref) <= 1e-12 * scale), op.kind
                single = [eval_operator(op, SymMatrix.from_dense(a))
                          for a in mats.reshape(-1, n, n)]
                assert np.array_equal(np.reshape(single, shape), got)

    def test_stack_shape_and_entries_checked(self):
        op = pucci_max(1, 2, 3)
        for bad in (np.zeros((4, 3, 2)), np.zeros((4, 2, 2)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                eval_operator(op, bad)
        asym = np.zeros((2, 3, 3))
        asym[1, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            eval_operator(op, asym)
        for v in (np.nan, np.inf):
            bad = np.zeros((2, 3, 3))
            bad[0, 1, 1] = v
            with pytest.raises(ValueError, match="finite"):
                eval_operator(op, bad)

    def test_pucci_agrees_with_eigenvalue_sums(self):
        rng = np.random.default_rng(2)
        pm = pucci_max(0.5, 3.0, 4)
        pmin = pucci_min(0.5, 3.0, 4)
        for _ in range(100):
            a = rng.standard_normal((4, 4))
            m = SymMatrix.from_dense(0.5 * (a + a.T))
            eigs = np.linalg.eigvalsh(m.to_dense())
            assert eval_operator(pm, m) == pytest.approx(
                pucci_max_value(0.5, 3.0, eigs), abs=1e-10)
            assert eval_operator(pmin, m) == pytest.approx(
                pucci_min_value(0.5, 3.0, eigs), abs=1e-10)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestEvalDiagonal:
    """eval_diagonal gives the bits of eval_operator on the diagonal matrices."""

    @staticmethod
    def _ops(rng, n):
        def control():
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            return q @ np.diag(rng.uniform(1.0, 2.0, n)) @ q.T
        rows = [[control() for _ in range(k)] for k in (3, 1, 2)]
        return [laplacian(n), pucci_max(0.5, 3.0, n), pucci_min(0.5, 3.0, n),
                _ragged_isaacs(rng, n), isaacs(1.0, 2.0, n, rows)]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4), (2, 256)])
    def test_bits_match_the_matrix_path(self, n, shape):
        rng = np.random.default_rng(300 + n)
        d = rng.standard_normal(shape + (n,)) * 10.0 ** rng.uniform(-3, 3, shape + (n,))
        d[rng.random(d.shape) < 0.2] = 0.0
        d[rng.random(d.shape) < 0.2] = -0.0
        for op in self._ops(rng, n):
            got, want = eval_diagonal(op, d), eval_operator(op, diag_matrices(d))
            assert np.array_equal(got, want) and _same_bits(got, want), (op.kind, n)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_isaacs_with_off_diagonal_controls(self, n):
        # ragged rows of rotated (non-diagonal) controls, many diagonals
        rng = np.random.default_rng(n)
        d = rng.standard_normal((4000, n)) * 3.0
        for op in self._ops(rng, n)[3:]:
            assert op.kind == ISAACS and np.any(control_table(op)[0][..., 0, 1] != 0.0)
            got, want = eval_diagonal(op, d), eval_operator(op, diag_matrices(d))
            assert np.array_equal(got, want) and _same_bits(got, want)

    def test_signed_zeros(self):
        for n in (1, 3, 8):
            for d in (np.zeros(n), -np.zeros(n), np.array([-0.0, 0.0] * 4)[:n]):
                for op in self._ops(np.random.default_rng(n), n):
                    assert _same_bits(eval_diagonal(op, d), eval_operator(op, diag_matrices(d)))

    def test_errors_match_the_matrix_path(self):
        for op in self._ops(np.random.default_rng(0), 3):
            for v in (np.inf, -np.inf, np.nan):
                d = np.ones((2, 3))
                d[1, 2] = v
                with pytest.raises(ValueError, match="entries must be finite"):
                    eval_diagonal(op, d)
            for d in (np.ones(2), np.ones((5, 4)), np.float64(1.0)):
                with pytest.raises(DimensionMismatch) as got:
                    eval_diagonal(op, d)
                if np.ndim(d):
                    with pytest.raises(DimensionMismatch) as want:
                        eval_operator(op, diag_matrices(d))
                    assert str(got.value) == str(want.value)

    def test_no_symmetrization_overflow(self):
        # eval_operator's (M + M^T)/2 overflows above half the largest float
        d = np.array([1e308, -1.0, -1.0])
        assert eval_diagonal(pucci_max(1.0, 2.0, 3), d) == -1e308
        assert eval_diagonal(laplacian(3), d) == -1e308


class TestRadialDiagonal:
    def test_is_the_diagonal_of_radial_hessian(self):
        r = np.geomspace(0.5, 4.0, 6)
        g1, g2 = -1.3 * r ** -2.3, 2.9
        for n in (2, 3, 6):
            d = radial_diagonal(n, g1, g2, r)
            assert d.shape == (6, n)
            assert np.array_equal(diag_matrices(d), radial_hessian(n, g1, g2, r))
        assert np.array_equal(radial_diagonal(3, -0.25, 0.25, 2.0), [0.25, -0.125, -0.125])

    def test_rejects_nonpositive_radius_and_dimension_one(self):
        with pytest.raises(ValueError, match="r must be positive"):
            radial_diagonal(3, 1.0, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="n must be >= 2"):
            radial_diagonal(1, 1.0, 1.0, 2.0)


class TestRadialHessian:
    def test_inverse_radius_eigenvalues(self):
        # g = r^{-1} at r = 2: g' = -0.25, g'' = 0.25
        m = radial_hessian(3, -0.25, 0.25, 2.0)
        assert sorted(np.linalg.eigvalsh(m.to_dense())) == pytest.approx(
            [-0.125, -0.125, 0.25])

    def test_matches_fd_hessian_of_radial_function(self):
        # oracle: ambient finite-difference Hessian of g(|x|) = |x|^{-beta}
        beta, n = 1.7, 3
        x = np.array([0.8, -0.5, 1.1])
        r = float(np.linalg.norm(x))
        h = 1e-5

        def g(y):
            return float(np.linalg.norm(y)) ** -beta

        fd = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                e_i = np.eye(n)[i] * h
                e_j = np.eye(n)[j] * h
                fd[i, j] = (g(x + e_i + e_j) - g(x + e_i - e_j)
                            - g(x - e_i + e_j) + g(x - e_i - e_j)) / (4 * h * h)
        g1 = -beta * r ** (-beta - 1)
        g2 = beta * (beta + 1) * r ** (-beta - 2)
        want = sorted(np.linalg.eigvalsh(
            radial_hessian(n, g1, g2, r).to_dense()))
        got = sorted(np.linalg.eigvalsh(fd))
        assert np.allclose(got, want, atol=1e-5)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            radial_hessian(3, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            radial_hessian(3, 1.0, 1.0, np.array([1.0, -2.0]))

    def test_broadcasts_over_arrays(self):
        r = np.geomspace(0.5, 4.0, 6)
        g1, g2 = -1.3 * r ** -2.3, 2.9
        stack = radial_hessian(4, g1, g2, r)
        assert stack.shape == (6, 4, 4)
        for k in range(6):
            assert np.array_equal(
                stack[k], radial_hessian(4, float(g1[k]), g2, float(r[k])).to_dense())


class TestHessianXi:
    def test_closed_form_matches_radial_pattern(self):
        # D^2(|z|^{-beta}) at z = r*e1 equals the radial pattern
        beta, n, r = 2.0, 3, 1.5
        z = np.array([r, 0.0, 0.0])
        m = hessian_xi(beta, z, n).to_dense()
        g1 = -beta * r ** (-beta - 1)
        g2 = beta * (beta + 1) * r ** (-beta - 2)
        want = radial_hessian(n, g1, g2, r).to_dense()
        assert np.allclose(m, want, atol=1e-12)


class TestVerifyEllipticity:
    def test_pucci_max_clean(self):
        rep = verify_ellipticity(pucci_max(1, 2, 3), samples=1000, seed=0)
        assert rep.passed and rep.samples == 1000

    def test_laplacian_clean(self):
        rep = verify_ellipticity(laplacian(4), samples=1000, seed=0)
        assert rep.passed

    def test_isaacs_clean(self):
        op = isaacs(1, 2, 2, [[np.eye(2)], [np.diag([1.0, 2.0])]])
        assert verify_ellipticity(op, samples=500, seed=1).passed

    def test_violations_are_content_not_exceptions(self):
        # an operator violating its declared constants must report witnesses
        # rather than raise; understate Lambda post hoc so the evaluation
        # (driven by the control family) disagrees with the declared bounds
        base = pucci_max(1.0, 3.0, 2)
        lying = isaacs(1.0, 3.0, 2, [[np.diag([1.0, 3.0])]])
        object.__setattr__(lying, "Lam", 1.2)
        rep = verify_ellipticity(lying, samples=200, seed=0)
        assert not rep.passed
        assert any(v[0] in ("H1", "sandwich") for v in rep.violations)
        assert verify_ellipticity(base, samples=200, seed=0).passed

    def test_violations_match_per_sample_reference(self):
        lying = isaacs(1.0, 3.0, 2, [[np.diag([1.0, 3.0])]])
        object.__setattr__(lying, "Lam", 1.2)
        rep = verify_ellipticity(lying, samples=200, seed=0)
        got = [(v[0], v[1]) for v in rep.violations]
        assert got and got == _verify_ellipticity_reference(lying, 200, 0)
        for kind, k, m, *_ in rep.violations:
            assert isinstance(k, int) and isinstance(m, SymMatrix)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            verify_ellipticity(laplacian(2), samples=0, seed=0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_samples_keep_the_three_call_draw_order(self, n, monkeypatch):
        # M, then N, then t, each drawn by its own call, as before M and N
        # came from one (2, n, n) draw
        rng = np.random.default_rng(7)
        a, b, t = [], [], []
        for _ in range(200):
            a.append(rng.standard_normal((n, n)) * 2.0)
            b.append(rng.standard_normal((n, n)))
            t.append(rng.uniform(0.0, 4.0))
        a, b, t = np.array(a), np.array(b), np.array(t)
        m = 0.5 * (a + a.swapaxes(1, 2))
        nn = matcore._symmetrized(b @ b.swapaxes(1, 2) / n)
        want = np.stack([m, m - nn, t[:, None, None] * m])
        seen = []

        def spy(f, stack):
            seen.append(np.array(stack))
            return eval_operator(f, stack)

        monkeypatch.setattr(matcore, "eval_operator", spy)
        verify_ellipticity(pucci_max(1.0, 2.0, n), samples=200, seed=7)
        assert len(seen) == 1 and _same_bits(seen[0], want)
