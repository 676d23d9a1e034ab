"""Command-line interface: subcommand dispatch, serialization, sweeps.

Exit codes: 0 success, 1 usage error (an unwritable --out included),
2 numerical failure (the error report, with the echo, is still written),
3 invalid operator spec.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import liouville, scaling, solver, spectral
from .matcore import EllipticOperator
from .opspec import SpecError, build_operator, load_operator, operator_digest
from .scaling import NonlinearitySpec
from .solver import Annulus, Ball, DirichletProblem, Rectangle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BAD_SPEC = 3

SWEEP_ROW_CAP = 10 ** 6


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


def _json_value(value):
    """``value`` as ``json.loads(json.dumps(value, default=_json_default))``
    gives it back; a plain None, bool, int, str or non-NaN float skips the text."""
    if value is None or type(value) in (bool, int, str) or type(value) is float and value == value:
        return value
    return json.loads(json.dumps(value, default=_json_default))


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


def _cmd_alpha_star(args, op):
    rep = scaling.alpha_star(op, op.dim)
    return {
        "alpha_star": rep.alpha_star,
        "log_case": rep.log_case,
        "bracket": list(rep.bracket),
        "critical_exponent": rep.critical_exponent,
    }, None


def _cmd_critical_exponent(args, op):
    rep = scaling.alpha_star(op, op.dim)
    return {"critical_exponent": rep.critical_exponent}, None


def _cmd_classify(args, op):
    v = scaling.classify(op, op.dim, args.p, args.gamma)
    return {
        "outcome": v.outcome,
        "alpha_star": v.alpha_star,
        "beta_star": v.beta_star,
        "margin": v.margin,
        "theorem_cited": v.theorem_cited,
    }, None


def _cmd_constant(args, op):
    c = scaling.explicit_constant(op, op.dim, args.p, args.gamma)
    return {
        "constant": c if c is not None else "NONE",
        "beta_star": scaling.beta_star(args.p, args.gamma),
    }, None


def _cmd_solve(args, op):
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
        problem = DirichletProblem(domain=dom, n=op.dim, rhs=lambda r: rc, boundary=bc)
        fld = solver.solve_dirichlet_radial(op, op.dim, problem, args.cells)
    else:
        problem = DirichletProblem(domain=dom, n=2, rhs=lambda x, y: rc,
                                   boundary=lambda x, y: g1)
        fld = solver.solve_dirichlet_2d(op, problem, dom.grid_step(args.cells))
    return {"residual": fld.meta.get("residual")}, fld


def _cmd_eigen(args, op):
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


def _cmd_fundamental(args, op):
    prof = solver.fundamental_profile(op, op.dim, args.cells)
    return {
        "fitted_alpha": prof.fitted_alpha,
        "log_case": prof.log_case,
        "fit_report": prof.fit_report,
    }, prof.field


def _cmd_hadamard(args, op):
    a = scaling.alpha_star(op, op.dim).alpha_star
    problem = DirichletProblem(domain=Annulus(1.0, 2.0), n=op.dim,
                               boundary=lambda r: scaling.xi_alpha(a, r))
    fld = solver.solve_dirichlet_radial(op, op.dim, problem, args.cells)
    curve = liouville.sphere_min_curve(fld, fld.nodes[:: max(1, args.cells // 64)])
    return liouville.hadamard_check(op, fld), ("r,m", curve)


def _cmd_certificate(args, op):
    rep = liouville.nonexistence_certificate(
        op, op.dim, args.p, args.gamma, args.c, args.sigma_max, cells=args.cells)
    curve = rep.pop("curve")
    return rep, ("sigma,mu", curve)


def _cmd_bend(args, op):
    return liouville.bend_fundamental(op, op.dim, args.p, args.gamma)[2], None


def _cmd_truncate(args, op):
    patch = liouville.build_global_supersolution(op, op.dim, args.p, args.gamma,
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


def _cmd_fixed_point(args, op):
    profile, r_bar, rep = liouville.fixed_point(op, op.dim, args.p)
    return {
        "beta": profile.beta,
        "norm": profile.norm(),
        "constant": profile.constant,
        "r_bar": r_bar,
        **{k: v for k, v in rep.items() if k != "norm"},
    }, None


def _cmd_hypothesis(args, op):
    try:
        c0, g, pw = (float(v) for v in args.power.split(":"))
    except ValueError as exc:
        raise _UsageError(f"bad --power {args.power!r}: {exc}")
    spec = NonlinearitySpec.power(c0, g, pw)
    rep = scaling.sampled_verdict(op, op.dim, spec, args.p, args.gamma)
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
    """``bend`` columns: rows with 0 < beta* < alpha* from one stacked call,
    the WrongRegime of the other rows from the sweep's alpha*; rows whose
    alpha* or beta* failed, and all in-regime rows if the stacked call raises,
    take the scalar path, which names each row's own error."""
    betas = {} if isinstance(rep, _RowError) else {
        i: e[3] for i, e in enumerate(exps) if not isinstance(e[3], _RowError)}
    inside = [i for i, b in betas.items() if 0.0 < b < rep.alpha_star]
    done = {i: _row_error(liouville.bend_regime_error(b, rep.alpha_star))
            for i, b in betas.items() if not 0.0 < b < rep.alpha_star}
    if inside:
        ps, gammas = np.array([exps[i][1:3] for i in inside], dtype=float).T
        out = _attempt(liouville.bend_fundamental, op, op.dim, ps, gammas)
        if not isinstance(out, _RowError):
            done.update(zip(inside, zip(out[0].tolist(), out[1].tolist())))
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
        cs = [scaling._c_star(ks[b], p) if b in ks
              else _attempt(scaling.explicit_constant, op, op.dim, p, gamma)
              for _, p, gamma, b, _ in exps]
        return [c if isinstance(c, _RowError) else f"{'NONE' if c is None else c},{e[4]}"
                for c, e in zip(cs, exps)]
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
    operator (lambda, Lambda, n), its values read as JSON would read them and
    told apart by their reprs, is built by ``build_operator`` and its alpha*
    found once, beta* once per (p, gamma); ``constant`` takes an operator's K
    values from one stacked call, and ``bend`` its in-regime rows from one
    stacked call.  ``jobs`` is ignored: the benchmark harness
    (perfbench/workloads.py) still passes it, and the keyword goes with the
    next change to that harness.
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

    def product(keys, defaults):  # (axis text, axis values) over the product of keys
        texts = itertools.product(*([str(v) for v in axes[k]] if k in axes else [""] for k in keys))
        values = itertools.product(*(axes.get(k, [d]) for k, d in zip(keys, defaults)))
        return zip(map(",".join, texts), values)

    exps = []
    for text, (p, gamma) in product(SWEEP_AXES[:2], (2.0, 0.0)):
        b = _attempt(scaling.beta_star, p, gamma)
        exps.append((text, p, gamma, b, str(b)))
    built, ops, failed = {}, [], False
    for text, (lam, Lam, n) in product(SWEEP_AXES[2:], (1.0, None, 3)):
        values = [_json_value(v) for v in (n, lam, Lam if "Lambda" in axes else lam)]
        key = tuple(map(repr, values))
        if key not in built:
            doc = dict(zip(("n", "lambda", "Lambda"), values), kind=_json_value(kind))
            rows = _operator_rows(command, _attempt(build_operator, doc), exps)
            failed = failed or any(isinstance(v, _RowError) for v in rows)
            built[key] = ["," * len(SWEEP_COLUMNS[command]) + v
                          if isinstance(v, _RowError) else v + ","
                          for v in rows]
        ops.append((text, built[key]))
    head = ",".join(SWEEP_AXES + SWEEP_COLUMNS[command] + ("error",))
    lines = [f"{e[0]},{op_text},{cells[i]}" for i, e in enumerate(exps) for op_text, cells in ops]
    return "\n".join([head, *lines, ""]), failed


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
    "alpha-star": (_cmd_alpha_star, "op out"),
    "critical-exponent": (_cmd_critical_exponent, "op out"),
    "classify": (_cmd_classify, "op p gamma out"),
    "constant": (_cmd_constant, "op p gamma out"),
    "solve": (_cmd_solve, "op domain cells rhs-const g0 g1 out format"),
    "eigen": (_cmd_eigen, "op domain cells tol out format"),
    "fundamental": (_cmd_fundamental, "op cells out format"),
    "hadamard": (_cmd_hadamard, "op cells out format"),
    "certificate": (_cmd_certificate, "op p gamma c sigma-max cells out format"),
    "bend": (_cmd_bend, "op p gamma out"),
    "truncate": (_cmd_truncate, "op p gamma cells out"),
    "fixed-point": (_cmd_fixed_point, "op p out"),
    "hypothesis": (_cmd_hypothesis, "op p gamma power out"),
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
        try:  # a handler returns its payload and None, a field or a (header, curve)
            payload, result = handler(args, op)
            code = EXIT_OK
        except (liouville.WrongRegime, RuntimeError) as exc:
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
