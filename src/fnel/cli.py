"""Command-line interface: subcommand dispatch, serialization, sweeps.

Exit codes: 0 success, 1 usage error, 2 numerical failure (report still
written when possible), 3 invalid operator spec.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import sys

import numpy as np

from . import liouville, scaling, solver, spectral
from .matcore import EllipticOperator
from .opspec import SpecError, load_operator, operator_digest, parse_operator_spec
from .scaling import NonlinearitySpec
from .solver import Annulus, Ball, DirichletProblem, Rectangle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BAD_SPEC = 3

SWEEP_ROW_CAP = 10 ** 6
BEND_BLOCK = 32  # in-regime bend rows per stacked call: bounds the matrix stack


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_domain(text):
    parts = text.split(":")
    try:
        if parts[0] == "annulus":
            return Annulus(float(parts[1]), float(parts[2]))
        if parts[0] == "ball":
            return Ball(float(parts[1]))
        if parts[0] == "rectangle":
            return Rectangle(*(float(v) for v in parts[1:5]))
    except (IndexError, ValueError) as exc:
        raise _UsageError(f"bad domain {text!r}: {exc}")
    raise _UsageError(f"unknown domain kind {parts[0]!r}")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return str(obj)


def _emit(args, payload, csv_text=None):
    if args.format == "csv" and csv_text is not None:
        out = csv_text
    else:
        out = json.dumps(payload, indent=2, sort_keys=True,
                         default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _echo(args, op):
    echo = {"operator_digest": operator_digest(op)}
    for name in ("n", "p", "gamma", "cells", "tol", "seed"):
        if hasattr(args, name) and getattr(args, name) is not None:
            echo[name] = getattr(args, name)
    return echo


def build_parser():
    parser = _Parser(prog="fnel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_op=True):
        if need_op:
            p.add_argument("--op", required=True, help="operator spec JSON file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--cells", type=int, default=512)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        return p

    common(sub.add_parser("alpha-star"))
    common(sub.add_parser("critical-exponent"))
    common(sub.add_parser("classify"))
    common(sub.add_parser("constant"))

    p_solve = common(sub.add_parser("solve"))
    p_solve.add_argument("--domain", required=True)
    p_solve.add_argument("--rhs-const", type=float, default=0.0)
    p_solve.add_argument("--g0", type=float, default=0.0)
    p_solve.add_argument("--g1", type=float, default=0.0)

    p_eigen = common(sub.add_parser("eigen"))
    p_eigen.add_argument("--domain", required=True)

    common(sub.add_parser("fundamental"))
    common(sub.add_parser("hadamard"))

    p_cert = common(sub.add_parser("certificate"))
    p_cert.add_argument("--c", type=float, default=1.0)
    p_cert.add_argument("--sigma-max", type=float, default=1e6)

    common(sub.add_parser("bend"))
    common(sub.add_parser("truncate"))
    common(sub.add_parser("fixed-point"))

    p_hyp = common(sub.add_parser("hypothesis"))
    p_hyp.add_argument("--power", required=True,
                       help="c:gamma:p describing f = c |x|^-gamma s^p")

    p_sweep = common(sub.add_parser("sweep"), need_op=False)
    p_sweep.add_argument("--config", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_alpha_star(args, op, n):
    rep = scaling.alpha_star(op, n, args.tol if args.tol else 1e-12)
    return {
        **_echo(args, op),
        "alpha_star": rep.alpha_star,
        "log_case": rep.log_case,
        "bracket": list(rep.bracket),
        "critical_exponent": rep.critical_exponent,
    }, None


def _cmd_critical_exponent(args, op, n):
    rep = scaling.alpha_star(op, n)
    return {**_echo(args, op), "critical_exponent": rep.critical_exponent}, None


def _cmd_classify(args, op, n):
    v = scaling.classify(op, n, args.p, args.gamma)
    return {
        **_echo(args, op),
        "outcome": v.outcome,
        "alpha_star": v.alpha_star,
        "beta_star": v.beta_star,
        "margin": v.margin,
        "theorem_cited": v.theorem_cited,
    }, None


def _cmd_constant(args, op, n):
    c = scaling.explicit_constant(op, n, args.p, args.gamma)
    return {
        **_echo(args, op),
        "constant": c if c is not None else "NONE",
        "beta_star": scaling.beta_star(args.p, args.gamma),
    }, None


def _cmd_solve(args, op, n):
    dom = _parse_domain(args.domain)
    g0, g1, rc = args.g0, args.g1, args.rhs_const
    if isinstance(dom, (Annulus, Ball)):
        if isinstance(dom, Annulus):
            bc = lambda r: g0 if abs(r - dom.r0) < abs(r - dom.r1) else g1
        else:
            bc = lambda r: g1
        problem = DirichletProblem(domain=dom, n=n, rhs=lambda r: rc, boundary=bc)
        fld = solver.solve_dirichlet_radial(op, n, problem, args.cells)
    else:
        problem = DirichletProblem(domain=dom, n=2, rhs=lambda x, y: rc,
                                   boundary=lambda x, y: g1)
        h = min(dom.x1 - dom.x0, dom.y1 - dom.y0) / args.cells
        fld = solver.solve_dirichlet_2d(op, problem, h)
    fld.meta.update(_echo(args, op))
    payload = {**_echo(args, op), "residual": fld.meta.get("residual")}
    return payload, fld.to_csv()


def _cmd_eigen(args, op, n):
    dom = _parse_domain(args.domain)
    tol = args.tol if args.tol and args.tol < 1e-2 else 1e-8
    res = spectral.principal_eigenvalue(op, dom, args.cells, max(tol, 1e-12))
    payload = {
        **_echo(args, op),
        "lambda1": res.lambda1,
        "iterations": res.iterations,
        "drift": res.drift,
    }
    res.eigenfield.meta.update(_echo(args, op))
    return payload, res.eigenfield.to_csv()


def _cmd_fundamental(args, op, n):
    prof = solver.fundamental_profile(op, n, args.cells)
    payload = {
        **_echo(args, op),
        "fitted_alpha": prof.fitted_alpha,
        "log_case": prof.log_case,
        "fit_report": prof.fit_report,
    }
    return payload, prof.field.to_csv()


def _curve_csv(comment, header, curve):
    """A '# ...' comment line, the header and one ``repr`` row per (x, y) pair."""
    return f"# {comment}\n{header}\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in curve)


def _cmd_hadamard(args, op, n):
    a = scaling.alpha_star(op, n).alpha_star
    problem = DirichletProblem(domain=Annulus(1.0, 2.0), n=n,
                               boundary=lambda r: scaling.xi_alpha(a, r))
    fld = solver.solve_dirichlet_radial(op, n, problem, args.cells)
    report = liouville.hadamard_check(op, fld)
    curve = liouville.sphere_min_curve(fld, fld.nodes[:: max(1, args.cells // 64)])
    return {**_echo(args, op), **report}, _curve_csv(
        f"operator_digest={operator_digest(op)} alpha_star={a!r}", "r,m", curve)


def _cmd_certificate(args, op, n):
    rep = liouville.nonexistence_certificate(
        op, n, args.p, args.gamma, args.c, args.sigma_max, cells=args.cells)
    curve = rep.pop("curve")
    return {**_echo(args, op), **rep}, _curve_csv(
        f"operator_digest={operator_digest(op)}", "sigma,mu", curve)


def _cmd_bend(args, op, n):
    tau, c, rep = liouville.bend_fundamental(op, n, args.p, args.gamma)
    return {**_echo(args, op), "tau": tau, "c": c, **rep}, None


def _cmd_truncate(args, op, n):
    patch = liouville.build_global_supersolution(op, n, args.p, args.gamma,
                                                 cells=args.cells)
    return {
        **_echo(args, op),
        "a": patch.a,
        "delta": patch.delta,
        "match_radius": patch.match_radius,
        "tail_scale": patch.tail_scale,
        "beta": patch.beta,
        "continuity_jumps": list(patch.continuity_jumps),
        "residuals": patch.residual_report,
    }, None


def _cmd_fixed_point(args, op, n):
    profile, r_bar, rep = liouville.fixed_point(op, n, args.p)
    return {
        **_echo(args, op),
        "beta": profile.beta,
        "norm": profile.norm(),
        "constant": profile.constant,
        "r_bar": r_bar,
        **{k: v for k, v in rep.items() if k != "norm"},
    }, None


def _cmd_hypothesis(args, op, n):
    try:
        c0, g, pw = (float(v) for v in args.power.split(":"))
    except ValueError as exc:
        raise _UsageError(f"bad --power {args.power!r}: {exc}")
    spec = NonlinearitySpec.power(c0, g, pw)
    rep = scaling.sampled_verdict(op, n, spec, args.p, args.gamma)
    conditions = [
        {"name": c.name, "fitted_constant": c.fitted_constant,
         "passed": c.passed}
        for c in rep["report"].conditions
    ]
    payload = {k: v for k, v in rep.items() if k != "report"}
    payload["conditions"] = conditions
    return {**_echo(args, op), **payload}, None


_HANDLERS = {
    "alpha-star": _cmd_alpha_star,
    "critical-exponent": _cmd_critical_exponent,
    "classify": _cmd_classify,
    "constant": _cmd_constant,
    "solve": _cmd_solve,
    "eigen": _cmd_eigen,
    "fundamental": _cmd_fundamental,
    "hadamard": _cmd_hadamard,
    "certificate": _cmd_certificate,
    "bend": _cmd_bend,
    "truncate": _cmd_truncate,
    "fixed-point": _cmd_fixed_point,
    "hypothesis": _cmd_hypothesis,
}

_NEEDS_P = {"classify", "constant", "certificate", "bend", "truncate", "fixed-point", "hypothesis"}


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("p", "gamma", "lambda", "Lambda", "n")
SWEEP_COLUMNS = {
    "classify": ("outcome", "alpha_star", "beta_star", "margin"),
    "alpha-star": ("alpha_star", "log_case", "critical_exponent"),
    "critical-exponent": ("critical_exponent",),
    "constant": ("constant", "beta_star"),
    "bend": ("tau", "c"),
}
_OUTCOMES = {True: scaling.NONEXISTENCE_EXTERIOR, False: scaling.EXISTENCE_SUPERSOLUTION}


class _RowError(str):
    """A per-row failure, recorded not raised: "<ExceptionType>: <message>"."""


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # per-row failure, recorded not raised
        return _RowError(f"{type(exc).__name__}: {exc}")


def _bend_rows(op, exps, rep):
    """``bend`` columns: rows with 0 < beta* < alpha* from stacked calls of
    BEND_BLOCK rows; the other rows, and those of a block that raises, take
    the scalar path, which names each row's own error."""
    inside = [] if isinstance(rep, _RowError) else [
        i for i, e in enumerate(exps) if not isinstance(e[3], _RowError) and 0.0 < e[3] < rep.alpha_star]
    done = {}
    for k in range(0, len(inside), BEND_BLOCK):
        block = inside[k:k + BEND_BLOCK]
        ps, gammas = np.array([exps[i][1:3] for i in block], dtype=float).T
        out = _attempt(liouville.bend_fundamental, op, op.dim, ps, gammas)
        if not isinstance(out, _RowError):
            done.update(zip(block, zip(out[0].tolist(), out[1].tolist())))
    rows = [done.get(i) or _attempt(liouville.bend_fundamental, op, op.dim, p, gamma)
            for i, (_, p, gamma, _, _) in enumerate(exps)]
    return [r if isinstance(r, _RowError) else f"{r[0]},{r[1]}" for r in rows]


def _operator_rows(command, op, exps):
    """Result columns of one operator's rows as CSV text, or a _RowError; one
    per ``exps`` entry (axis text, p, gamma, beta* or its _RowError, str(beta*))."""
    if isinstance(op, _RowError):
        return [op] * len(exps)
    if command == "constant":
        # K at every beta* in one stacked call; rows it misses take the scalar path
        betas = [e[3] for e in exps if not isinstance(e[3], _RowError)]
        ks = _attempt(scaling.K_coefficient, op, op.dim, betas) if op.rot_invariant else None
        ks = dict(zip(betas, ks.tolist())) if isinstance(ks, np.ndarray) else {}
        rows = []
        for _, p, gamma, b, b_text in exps:
            if b in ks:
                c = ks[b] ** (1.0 / (p - 1.0)) if ks[b] > 0 else None
            else:
                c = _attempt(scaling.explicit_constant, op, op.dim, p, gamma)
            rows.append(c if isinstance(c, _RowError) else f"{'NONE' if c is None else c},{b_text}")
        return rows
    rep = _attempt(scaling.alpha_star, op, op.dim)
    if command == "bend":
        return _bend_rows(op, exps, rep)
    if command == "classify":  # operator error > beta_star error > alpha_star error
        a = rep if isinstance(rep, _RowError) else rep.alpha_star
        a_text = str(a)
        return [b if isinstance(b, _RowError) else a if isinstance(a, _RowError) else
                f"{_OUTCOMES[a <= b]},{a_text},{b_text},{a - b}" for _, _, _, b, b_text in exps]
    if not isinstance(rep, _RowError):
        rep = (f"{rep.alpha_star},{rep.log_case},{rep.critical_exponent}"
               if command == "alpha-star" else f"{rep.critical_exponent}")
    return [rep] * len(exps)


def run_sweep(config: dict, jobs: int = 1) -> tuple:
    """Execute a sweep in this process; returns (csv_text, any_row_failed).

    Rows run over the axis product in ``SWEEP_AXES`` order.  Each distinct
    operator (lambda, Lambda, n) is built and its alpha* found once, beta* once
    per (p, gamma); ``constant`` takes an operator's K values from one stacked
    call, and ``bend`` its in-regime rows from stacked blocks.  ``jobs`` is
    ignored: the benchmark harness (perfbench/workloads.py) still passes it,
    and the keyword goes with the next change to that harness.
    """
    if not isinstance(config, dict):
        raise _UsageError("sweep config must be a JSON object")
    command = config.get("command")
    if command not in SWEEP_COLUMNS:
        raise _UsageError(f"sweep command must be one of {sorted(SWEEP_COLUMNS)}")
    kind = config.get("kind", "pucci_max")
    axes = config.get("axes", {})
    if not isinstance(axes, dict):
        raise _UsageError("sweep 'axes' must map axis names to lists of values")
    for a in SWEEP_AXES:
        if a in axes and not isinstance(axes[a], (list, tuple)):
            raise _UsageError(f"sweep axis {a!r} must be a list of values")
    total = math.prod(len(axes[a]) for a in SWEEP_AXES if a in axes)
    if total > SWEEP_ROW_CAP:
        raise _UsageError(f"axis product {total} exceeds the {SWEEP_ROW_CAP} row cap")

    def product(keys):  # (axis text, axis values) over the product of keys
        present = [k for k in keys if k in axes]
        for combo in itertools.product(*(axes[k] for k in present)):
            prm = dict(zip(present, combo))
            yield ",".join(str(prm.get(k, "")) for k in keys), prm

    exps = []
    for text, prm in product(SWEEP_AXES[:2]):
        p, gamma = prm.get("p", 2.0), prm.get("gamma", 0.0)
        b = _attempt(scaling.beta_star, p, gamma)
        exps.append((text, p, gamma, b, str(b)))
    built, ops, failed = {}, [], False
    for text, prm in product(SWEEP_AXES[2:]):
        lam = prm.get("lambda", 1.0)
        spec = json.dumps({"n": prm.get("n", 3), "kind": kind, "lambda": lam,
                           "Lambda": prm.get("Lambda", lam)}, default=_json_default)
        if spec not in built:
            rows = _operator_rows(command, _attempt(parse_operator_spec, spec), exps)
            failed = failed or any(isinstance(v, _RowError) for v in rows)
            built[spec] = ["," * len(SWEEP_COLUMNS[command]) + v
                           if isinstance(v, _RowError) else v + ","
                           for v in rows]
        ops.append((text, built[spec]))
    buf = io.StringIO()
    buf.write(",".join(SWEEP_AXES + SWEEP_COLUMNS[command] + ("error",)) + "\n")
    for i, (text, *_) in enumerate(exps):
        for op_text, cells in ops:
            buf.write(f"{text},{op_text},{cells[i]}\n")
    return buf.getvalue(), failed


def _cmd_sweep(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read sweep config: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed sweep config: {exc}")
    csv_text, failed = run_sweep(config)
    out_path = args.out or config.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_NUMERICAL if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        try:
            op = load_operator(args.op)
        except (SpecError, OSError) as exc:
            print(f"invalid operator spec: {exc}", file=sys.stderr)
            return EXIT_BAD_SPEC
        n = args.n if args.n is not None else op.dim
        if n != op.dim:
            print(f"usage error: --n {n} does not match operator dim {op.dim}",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.command in _NEEDS_P and args.p is None:
            raise _UsageError(f"{args.command} needs --p")
        payload, csv_text = _HANDLERS[args.command](args, op, n)
        _emit(args, payload, csv_text)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (solver.PolicyIterationDiverged, spectral.IterationFailure,
            liouville.WrongRegime, scaling.OperatorInvalid,
            RuntimeError) as exc:
        report = {"error": f"{type(exc).__name__}: {exc}"}
        try:
            _emit(args, report)
        except Exception:
            pass
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
