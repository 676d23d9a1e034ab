"""JSON operator specs: parsing, validation, serialization, digests."""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from .matcore import (
    ISAACS, KINDS, LAPLACIAN, EllipticOperator, InvalidOperator, control_matrices,
)

_NUMBERS = {int, float}


class SpecError(ValueError):
    """Malformed operator spec; the message names the offending field."""


def _finite(doc, name, default):
    """Field ``name`` of a spec as a float: a finite JSON number, not a bool."""
    value = doc.get(name, default)
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise SpecError(f"field '{name}' must be a finite number")
    return float(value)


def parse_operator_spec(text: str) -> EllipticOperator:
    """Parse a JSON operator spec document into a validated operator."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    if "n" not in doc:
        raise SpecError("missing field 'n'")
    try:
        n = int(doc["n"])  # 3 and 3.0 pass; 3.5 and true do not
        if isinstance(doc["n"], bool) or n != float(doc["n"]):
            raise ValueError(doc["n"])
    except (TypeError, ValueError, OverflowError):
        raise SpecError("field 'n' must be an integer")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    lam = _finite(doc, "lambda", 1.0)
    Lam = _finite(doc, "Lambda", lam)
    if kind == LAPLACIAN:
        lam = Lam = 1.0
    if lam <= 0:
        raise SpecError("field 'lambda' must be positive")
    if Lam < lam:
        raise SpecError("field 'Lambda' must be >= 'lambda'")
    rot = doc.get("rot_invariant", kind != ISAACS)
    if type(rot) is not bool:
        raise SpecError("field 'rot_invariant' must be true or false")
    try:
        families = _families(doc, n) if kind == ISAACS else ()
        return EllipticOperator(dim=n, kind=kind, lam=lam, Lam=Lam,
                                families=families, rot_invariant=rot)
    except InvalidOperator as exc:
        raise SpecError(str(exc)) from exc


def _families(doc, n):
    """The 'families' field as rows of SymMatrix: JSON lists of n x n
    matrices of numbers (not bools), symmetrized in one stack.  The first
    bad matrix in row-major order is named families[i][j]."""
    raw = doc.get("families")
    if not raw:
        raise SpecError("isaacs kind needs a nonempty 'families' field")
    if type(raw) is not list:
        raise SpecError("field 'families' must be a list of rows of matrices")
    name = "families[{i}][{j}]"
    for i, row in enumerate(raw):
        if type(row) is not list:
            raise SpecError(f"families[{i}] must be a list of matrices")
        for j, mat in enumerate(row):
            if not (type(mat) is list and len(mat) == n
                    and all(type(r) is list and len(r) == n for r in mat)
                    and set(map(type, itertools.chain.from_iterable(mat))) <= _NUMBERS):
                control_matrices(raw[:i] + [row[:j]], n, name)  # an earlier bad one first
                raise SpecError(f"families[{i}][{j}] is not a list of {n} rows of {n} numbers")
    return control_matrices(raw, n, name)


def serialize_operator(op: EllipticOperator) -> str:
    doc = {"n": op.dim, "kind": op.kind, "lambda": op.lam, "Lambda": op.Lam}
    if op.kind == ISAACS:
        doc["rot_invariant"] = op.rot_invariant
        doc["families"] = [
            [a.to_dense().tolist() for a in row] for row in op.families
        ]
    return json.dumps(doc, sort_keys=True)


def operator_digest(op: EllipticOperator) -> str:
    return hashlib.sha256(serialize_operator(op).encode()).hexdigest()[:16]


def load_operator(path: str) -> EllipticOperator:
    with open(path, encoding="utf-8") as fh:
        return parse_operator_spec(fh.read())
