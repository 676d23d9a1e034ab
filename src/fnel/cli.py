"""Command-line interface: subcommand dispatch, serialization, sweeps.

Exit codes: 0 success, 1 usage error (an unwritable --out included),
2 numerical failure (the error report, with the echo, is still written),
3 invalid operator spec.
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
    if text.split() != [text]:  # the echo writes it into a CSV's space-separated '#' line
        raise _UsageError(f"bad domain {text!r}: empty or with whitespace")
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


def _emit(args, text):
    """Write ``text`` to --out or stdout; an unwritable --out is a usage error."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out: {exc}")


def _echo(args, op):
    """The operator's digest and every parsed input that played a part: a
    subcommand declares only the options it reads (``COMMANDS``).  ``main``
    puts it in every report: under the JSON payload, in a field's ``meta``,
    in a curve's '#' line, and beside the error of an exit-2 report."""
    echo = {k: v for k, v in vars(args).items()
            if k not in ("command", "op", "out", "format") and v is not None}
    return {"operator_digest": operator_digest(op), **echo}


# every option a subcommand may declare: name -> add_argument keywords
_OPTIONS = {
    "op": dict(required=True, help="operator spec JSON file"),
    "n": dict(type=int, help="space dimension; must match the spec's"),
    "p": dict(type=float, required=True),
    "gamma": dict(type=float, default=0.0),
    "domain": dict(required=True,
                   help="annulus:r0:r1, ball:r or rectangle:x0:x1:y0:y1"),
    "cells": dict(type=int, default=512),
    "tol": dict(type=float, default=1e-12,
                help="in (0, 0.01): stop when lambda1 moves by at most tol "
                     "(relative) in a step"),
    "rhs-const": dict(type=float, default=0.0),
    "g0": dict(type=float, help="inner boundary value of an annulus (default 0)"),
    "g1": dict(type=float, default=0.0),
    "c": dict(type=float, default=1.0),
    "sigma-max": dict(type=float, default=1e6),
    "power": dict(required=True, help="c:gamma:p describing f = c |x|^-gamma s^p"),
    "config": dict(required=True, help="sweep config JSON file"),
    "out": dict(help="output file; stdout if absent"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def build_parser():
    parser = _Parser(prog="fnel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        cmd = sub.add_parser(name)
        for opt in options.split():
            cmd.add_argument(f"--{opt}", **_OPTIONS[opt])
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_alpha_star(args, op, n):
    rep = scaling.alpha_star(op, n)
    return {
        "alpha_star": rep.alpha_star,
        "log_case": rep.log_case,
        "bracket": list(rep.bracket),
        "critical_exponent": rep.critical_exponent,
    }, None


def _cmd_critical_exponent(args, op, n):
    rep = scaling.alpha_star(op, n)
    return {"critical_exponent": rep.critical_exponent}, None


def _cmd_classify(args, op, n):
    v = scaling.classify(op, n, args.p, args.gamma)
    return {
        "outcome": v.outcome,
        "alpha_star": v.alpha_star,
        "beta_star": v.beta_star,
        "margin": v.margin,
        "theorem_cited": v.theorem_cited,
    }, None


def _cmd_constant(args, op, n):
    c = scaling.explicit_constant(op, n, args.p, args.gamma)
    return {
        "constant": c if c is not None else "NONE",
        "beta_star": scaling.beta_star(args.p, args.gamma),
    }, None


def _cmd_solve(args, op, n):
    dom = _parse_domain(args.domain)
    if not isinstance(dom, Annulus):
        if args.g0 is not None:
            raise _UsageError("--g0 sets an annulus's inner boundary; "
                              f"{args.domain} takes --g1 on its whole boundary")
    elif args.g0 is None:
        args.g0 = 0.0                    # filled in before the echo
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
        fld = solver.solve_dirichlet_2d(op, problem, dom.grid_step(args.cells))
    return {"residual": fld.meta.get("residual")}, fld


def _cmd_eigen(args, op, n):
    if not 0.0 < args.tol < 1e-2:
        raise _UsageError(f"--tol {args.tol} is not in (0, 0.01)")
    dom = _parse_domain(args.domain)
    res = spectral.principal_eigenvalue(op, dom, args.cells, args.tol)
    return {
        "lambda1": res.lambda1,
        "iterations": res.iterations,
        "drift": res.drift,
        "bracket": list(res.bracket),
    }, res.eigenfield


def _cmd_fundamental(args, op, n):
    prof = solver.fundamental_profile(op, n, args.cells)
    return {
        "fitted_alpha": prof.fitted_alpha,
        "log_case": prof.log_case,
        "fit_report": prof.fit_report,
    }, prof.field


def _cmd_hadamard(args, op, n):
    a = scaling.alpha_star(op, n).alpha_star
    problem = DirichletProblem(domain=Annulus(1.0, 2.0), n=n,
                               boundary=lambda r: scaling.xi_alpha(a, r))
    fld = solver.solve_dirichlet_radial(op, n, problem, args.cells)
    curve = liouville.sphere_min_curve(fld, fld.nodes[:: max(1, args.cells // 64)])
    return liouville.hadamard_check(op, fld), ("r,m", curve)


def _cmd_certificate(args, op, n):
    rep = liouville.nonexistence_certificate(
        op, n, args.p, args.gamma, args.c, args.sigma_max, cells=args.cells)
    curve = rep.pop("curve")
    return rep, ("sigma,mu", curve)


def _cmd_bend(args, op, n):
    tau, c, rep = liouville.bend_fundamental(op, n, args.p, args.gamma)
    return {"tau": tau, "c": c, **rep}, None


def _cmd_truncate(args, op, n):
    patch = liouville.build_global_supersolution(op, n, args.p, args.gamma,
                                                 cells=args.cells)
    return {
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
    return payload, None


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


def _row_error(exc):
    return _RowError(f"{type(exc).__name__}: {exc}")


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # per-row failure, recorded not raised
        return _row_error(exc)


def _bend_rows(op, exps, rep):
    """``bend`` columns: rows with 0 < beta* < alpha* from stacked calls of
    BEND_BLOCK rows, the WrongRegime of the other rows from the sweep's alpha*;
    rows whose alpha* or beta* failed, and those of a block that raises, take
    the scalar path, which names each row's own error."""
    betas = {} if isinstance(rep, _RowError) else {
        i: e[3] for i, e in enumerate(exps) if not isinstance(e[3], _RowError)}
    inside = [i for i, b in betas.items() if 0.0 < b < rep.alpha_star]
    done = {i: _row_error(liouville.bend_regime_error(b, rep.alpha_star))
            for i, b in betas.items() if not 0.0 < b < rep.alpha_star}
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
                c = scaling._c_star(ks[b], p)
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
    if isinstance(config, dict) and "output" in config:
        raise _UsageError("sweep config key 'output' is not read: write the CSV "
                          "to a file with --out")
    csv_text, failed = run_sweep(config)
    _emit(args, csv_text)
    return EXIT_NUMERICAL if failed else EXIT_OK


# subcommand -> (handler, the options it reads)
COMMANDS = {
    "alpha-star": (_cmd_alpha_star, "op n out"),
    "critical-exponent": (_cmd_critical_exponent, "op n out"),
    "classify": (_cmd_classify, "op n p gamma out"),
    "constant": (_cmd_constant, "op n p gamma out"),
    "solve": (_cmd_solve, "op n domain cells rhs-const g0 g1 out format"),
    "eigen": (_cmd_eigen, "op n domain cells tol out format"),
    "fundamental": (_cmd_fundamental, "op n cells out format"),
    "hadamard": (_cmd_hadamard, "op n cells out format"),
    "certificate": (_cmd_certificate, "op n p gamma c sigma-max cells out format"),
    "bend": (_cmd_bend, "op n p gamma out"),
    "truncate": (_cmd_truncate, "op n p gamma cells out"),
    "fixed-point": (_cmd_fixed_point, "op n p out"),
    "hypothesis": (_cmd_hypothesis, "op n p gamma power out"),
    "sweep": (_cmd_sweep, "config out"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, _ = COMMANDS[args.command]
        if args.command == "sweep":
            return handler(args)
        try:
            op = load_operator(args.op)
        except (SpecError, OSError) as exc:
            print(f"invalid operator spec: {exc}", file=sys.stderr)
            return EXIT_BAD_SPEC
        n = args.n if args.n is not None else op.dim
        if n != op.dim:
            raise _UsageError(f"--n {n} does not match operator dim {op.dim}")
        try:  # a handler returns its payload and None, a field or a (header, curve)
            payload, result = handler(args, op, n)
            code = EXIT_OK
        except (solver.PolicyIterationDiverged, spectral.IterationFailure,
                liouville.WrongRegime, RuntimeError) as exc:
            payload, result = {"error": f"{type(exc).__name__}: {exc}"}, None
            code = EXIT_NUMERICAL
        echo = _echo(args, op)  # after the handler, which may fill in a default
        if result is None or args.format == "json":
            text = json.dumps({**echo, **payload}, indent=2, sort_keys=True,
                              default=_json_default) + "\n"
        elif isinstance(result, tuple):
            header, curve = result
            text = solver._csv(echo, header, *zip(*curve))
        else:
            result.meta.update(echo)
            text = result.to_csv()
        _emit(args, text)
        return code
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
