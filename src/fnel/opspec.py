"""JSON operator specs: parsing, validation, serialization, digests."""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .matcore import (
    ISAACS, KINDS, LAPLACIAN, EllipticOperator, InvalidOperator, SymMatrix,
)


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
    families = ()
    rot = bool(doc.get("rot_invariant", kind != ISAACS))
    if kind == ISAACS:
        raw = doc.get("families")
        if not raw:
            raise SpecError("isaacs kind needs a nonempty 'families' field")
        fams = []
        for i, row in enumerate(raw):
            fam_row = []
            for j, mat in enumerate(row):
                arr = np.asarray(mat, dtype=float)
                if arr.shape != (n, n):
                    raise SpecError(
                        f"families[{i}][{j}] must be an {n}x{n} matrix")
                try:
                    fam_row.append(SymMatrix.from_dense(arr))
                except ValueError as exc:
                    raise SpecError(f"families[{i}][{j}]: {exc}") from exc
            fams.append(tuple(fam_row))
        families = tuple(fams)
    try:
        return EllipticOperator(dim=n, kind=kind, lam=lam, Lam=Lam,
                                families=families, rot_invariant=rot)
    except InvalidOperator as exc:
        raise SpecError(str(exc)) from exc


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
