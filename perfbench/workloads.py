"""The four benchmark workloads: seeded job lists, warm-up calls and oracles.

A workload is a fixed, seeded list of jobs, each one public fnel call.  The
seed draws parameter values (exponents, ellipticity ratios, control
matrices, quadratic data, dimensions); the structure of the list (how many
jobs of each kind, at which grid sizes) is the same for every seed, so that
runs with different seeds do comparable work.

Every oracle is independent of the code it checks: closed-form exponents and
constants, pi^2 on the annulus, exact quadratics, the Pucci sandwich and the
recomputed discrete residual.  Oracles run after each call, untimed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("verdicts", "radial", "eigen", "grid2d")
PI2 = math.pi ** 2
ROW_TOL = 1e-9        # closed-form exponents/constants vs bisection (tol 1e-12)


@dataclass
class Job:
    """One public API call.

    ``call`` receives the run's store (outputs of earlier jobs saved
    under their ``key``).  ``check`` returns a list of oracle failures, one
    per failed work item.  ``items`` is the number of work items the call
    attempts (rows for a sweep, else 1).  ``defect`` marks a pinned case that
    reproduces the known false divergence of the radial solver: there,
    PolicyIterationDiverged is the outcome expected at the baseline.
    ``once`` marks a call too long to repeat within a run (about 0.3 s or
    more): it is made and checked once per run and left out of the timing.
    """

    kind: str
    desc: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], list]
    items: int = 1
    key: Optional[str] = None
    defect: bool = False
    once: bool = False


def _ok(out, store):
    return []


# ---------------------------------------------------------------------------
# closed forms (independent of fnel)


def alpha_closed(kind, n, lam=1.0, Lam=1.0):
    """Scaling exponent: n-2, (Lam/lam)(n-1)-1, (lam/Lam)(n-1)-1.

    Isaacs operators built here use scalar multiples of I as controls, for
    which the exponent is n-2 like the Laplacian.
    """
    if kind in ("laplacian", "isaacs"):
        return float(n - 2)
    if kind == "pucci_max":
        return (Lam / lam) * (n - 1) - 1.0
    return (lam / Lam) * (n - 1) - 1.0


def k_closed(kind, n, beta, lam=1.0, Lam=1.0):
    """K with F(D^2 r^-beta) = K r^(-beta-2); eigenvalues b(b+1) once, -b (n-1) times."""
    a, b = beta * (beta + 1.0), beta
    if kind == "laplacian":
        lam = Lam = 1.0
    if kind in ("laplacian", "pucci_max"):
        return -lam * a + Lam * (n - 1) * b
    return -Lam * a + lam * (n - 1) * b


def beta_closed(p, gamma):
    return (2.0 - gamma) / (p - 1.0)


def xi(alpha, r):
    """F-harmonic radial profile r^-a, -log r or -r^-a for a >, =, < 0."""
    if alpha > 0:
        return r ** (-alpha)
    if alpha == 0:
        return -math.log(r)
    return -(r ** (-alpha))


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def scalar_families(rng, n, lam, Lam, rows=2, cols=2):
    """Sup-inf control family of scalar multiples of I (rotation invariant)."""
    return [[(float(rng.uniform(lam, Lam)) * np.eye(n)).tolist()
             for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# verdicts


def _sweep_check(command, kind):
    """Oracle for every row of a sweep CSV; one message per bad row."""

    def check(out, store):
        csv_text, _ = out
        lines = csv_text.splitlines()
        head = lines[0].split(",")
        bad = []
        for line in lines[1:]:
            row = dict(zip(head, line.split(",")))
            msg = _check_row(command, kind, row)
            if msg:
                bad.append(f"{command}/{kind} row {line!r}: {msg}")
        return bad

    return check


def _check_row(command, kind, row):
    if row["error"]:
        return row["error"]
    n = int(row["n"])
    p, gamma = float(row["p"]), float(row["gamma"])
    lam, Lam = float(row["lambda"]), float(row["Lambda"])
    want_a = alpha_closed(kind, n, lam, Lam)
    want_b = beta_closed(p, gamma)
    if command in ("classify", "alpha-star"):
        a = float(row["alpha_star"])
        if abs(a - want_a) > ROW_TOL:
            return f"alpha* {a!r} != closed form {want_a!r}"
    if command == "classify":
        b = float(row["beta_star"])
        if _rel(b, want_b) > 1e-12:
            return f"beta* {b!r} != {want_b!r}"
        want = "NONEXISTENCE_EXTERIOR" if a <= b else "EXISTENCE_SUPERSOLUTION"
        if row["outcome"] != want:
            return f"outcome {row['outcome']} disagrees with alpha*={a}, beta*={b}"
    elif command == "alpha-star":
        if (row["log_case"] == "True") != (a == 0.0):
            return "log_case flag disagrees with alpha*"
        crit = float(row["critical_exponent"])
        want_c = (a + 2.0) / a if a > 0 else math.inf
        if not (crit == want_c or _rel(crit, want_c) <= 1e-12):
            return f"critical exponent {crit!r} != {want_c!r}"
    elif command == "constant":
        k = k_closed(kind, n, want_b, lam, Lam)
        if k <= 0:
            if row["constant"] != "NONE":
                return f"constant {row['constant']} where K={k} <= 0"
        elif _rel(float(row["constant"]), k ** (1.0 / (p - 1.0))) > ROW_TOL:
            return f"constant {row['constant']} != K^(1/(p-1))"
    elif command == "bend":
        tau, c = float(row["tau"]), float(row["c"])
        if _rel(tau, want_b / want_a) > ROW_TOL:
            return f"tau {tau!r} != beta*/alpha*"
        if _rel(c, k_closed(kind, n, want_b, lam, Lam)) > ROW_TOL:
            return f"c {c!r} != K(beta*)"
    return None


def _bend_axes(rng, kind):
    """Axes inside the existence regime 0 < beta* < alpha* for every row."""
    if kind == "pucci_min":
        ns, lams, ratios = [4, 5, 6], [1.0], [float(rng.uniform(1.0, 1.5))]
    else:
        ns, lams, ratios = [3, 4, 5, 6], [1.0], [float(rng.uniform(1.0, 4.0))]
    Lams = [lams[0] * r for r in ratios]
    amin = min(alpha_closed(kind, n, lams[0], L) for n in ns for L in Lams)
    gammas = sorted(float(g) for g in rng.uniform(0.0, 1.0, 2))
    pmin = 1.0 + (2.0 - gammas[0]) / (0.8 * amin)
    ps = sorted(float(v) for v in rng.uniform(pmin, pmin + 2.0,
                                              12 // len(ns)))
    return {"p": ps, "gamma": gammas, "lambda": lams, "Lambda": Lams, "n": ns}


def build_verdicts(rng):
    import fnel
    from fnel import cli

    jobs = []
    kinds = ("laplacian", "pucci_max", "pucci_min")
    for command in ("classify", "alpha-star", "constant"):
        for kind in kinds:
            lam0 = float(rng.uniform(0.5, 2.0))
            axes = {
                "p": sorted(float(v) for v in rng.uniform(1.05, 8.0, 4)),
                "gamma": sorted(float(v) for v in rng.uniform(-1.0, 2.0, 2)),
                "lambda": [lam0],
                "Lambda": sorted(lam0 * float(r) for r in rng.uniform(1.0, 4.0, 5)),
                "n": [2, 3, 4, 5, 6],
            }
            cfg = {"command": command, "kind": kind, "axes": axes}
            jobs.append(Job(
                "verdicts.sweep", json.dumps(cfg, sort_keys=True),
                lambda store, cfg=cfg: cli.run_sweep(cfg, jobs=1),
                _sweep_check(command, kind), items=200,
                key=f"sweep/{command}/{kind}"))
    for kind in kinds:
        cfg = {"command": "bend", "kind": kind, "axes": _bend_axes(rng, kind)}
        jobs.append(Job(
            "verdicts.sweep", json.dumps(cfg, sort_keys=True),
            lambda store, cfg=cfg: cli.run_sweep(cfg, jobs=1),
            _sweep_check("bend", kind), items=24, once=True))
    # the one multi-process call: the pucci_min classify sweep again, jobs=2
    twin = json.loads(jobs[2].desc)
    twin_key = jobs[2].key

    def same_csv(out, store):
        bad = _sweep_check("classify", "pucci_min")(out, store)
        if out[0] != store[twin_key][0]:
            bad.append("jobs=2 CSV differs from the jobs=1 CSV")
        return bad

    jobs.append(Job("verdicts.sweep_jobs2", json.dumps(twin, sort_keys=True),
                    lambda store: cli.run_sweep(twin, jobs=2), same_csv,
                    items=200, once=True))

    # direct API: parse a rotation-invariant Isaacs spec, then classify
    for i in range(40):
        n = 2 + i % 5
        Lam = float(rng.uniform(1.5, 3.0))
        spec = json.dumps({"n": n, "kind": "isaacs", "lambda": 1.0,
                           "Lambda": Lam, "rot_invariant": True,
                           "families": scalar_families(rng, n, 1.0, Lam)})
        p = float(rng.uniform(1.05, 8.0))
        gamma = float(rng.uniform(-1.0, 2.0))
        key = f"isaacs/{i}"

        def parsed(out, store, n=n):
            if out.dim != n or not out.rot_invariant:
                return [f"parsed spec: dim {out.dim}, rot_invariant {out.rot_invariant}"]
            return []

        def verdict(out, store, n=n, p=p, gamma=gamma):
            b = beta_closed(p, gamma)
            if abs(out.alpha_star - (n - 2)) > ROW_TOL:
                return [f"isaacs alpha* {out.alpha_star!r} != n-2 = {n - 2}"]
            want = ("NONEXISTENCE_EXTERIOR" if out.alpha_star <= out.beta_star
                    else "EXISTENCE_SUPERSOLUTION")
            if _rel(out.beta_star, b) > 1e-12 or out.outcome != want:
                return [f"isaacs verdict {out.outcome} at beta*={out.beta_star}"]
            return []

        jobs.append(Job("verdicts.parse_spec", spec,
                        lambda store, spec=spec: fnel.parse_operator_spec(spec),
                        parsed, key=key))
        jobs.append(Job("verdicts.classify", f"{key} n={n} p={p!r} gamma={gamma!r}",
                        lambda store, key=key, n=n, p=p, gamma=gamma:
                        fnel.classify(store[key], n, p, gamma), verdict))

    def ellipticity_ok(out, store):
        return [] if out.passed else [f"{len(out.violations)} ellipticity violations"]

    Lam = float(rng.uniform(1.5, 3.0))
    vseed = int(rng.integers(0, 2 ** 31))
    pm = fnel.pucci_max(1.0, Lam, 4)
    jobs.append(Job("verdicts.verify_ellipticity", f"pucci_max(1,{Lam!r},4) seed={vseed}",
                    lambda store: fnel.verify_ellipticity(pm, 200, vseed),
                    ellipticity_ok, once=True))
    jobs.append(Job("verdicts.verify_ellipticity", f"isaacs/2 seed={vseed + 1}",
                    lambda store: fnel.verify_ellipticity(store["isaacs/2"], 200,
                                                          vseed + 1),
                    ellipticity_ok))

    # w = r^(2-n) log r: -Laplacian(w) = (n-2) r^-n exactly, so C = n - 2
    for n in (3, 4, 5, 6):
        def log_ok(out, store, n=n):
            if abs(out["C"] - (n - 2)) > 1e-8:
                return [f"critical log constant {out['C']!r} != n-2 = {n - 2}"]
            return []

        jobs.append(Job("verdicts.critical_log_check", f"laplacian({n})",
                        lambda store, op=fnel.laplacian(n), n=n:
                        fnel.critical_log_check(op, n), log_ok))

    fp_op = fnel.pucci_max(1.0, 2.0, 2)
    # u = c r^(-2/3): K = -(2/3)(5/3) + 2(2/3) = 2/9, c = K^(1/(p-1))
    c_star = (2.0 / 9.0) ** (1.0 / 3.0)

    def fixed_ok(out, store):
        profile, r_bar, report = out
        err = float(np.abs(profile.angular - c_star).max()) / c_star
        if err > 1e-8 or report["residual"] > 1e-9:
            return [f"angular fixed point off the constant profile by {err:.2e}"]
        return []

    jobs.append(Job("verdicts.fixed_point", "pucci_max(1,2,2) p=4 angular_points=64",
                    lambda store: fnel.fixed_point(fp_op, 2, 4.0, angular_points=64),
                    fixed_ok, once=True))
    return jobs


def warmup_verdicts():
    import fnel
    from fnel import cli

    for command in ("classify", "alpha-star", "constant", "bend"):
        cli.run_sweep({"command": command, "kind": "pucci_max",
                       "axes": {"p": [5.0], "n": [3], "Lambda": [2.0]}}, jobs=1)
    spec = json.dumps({"n": 2, "kind": "isaacs", "lambda": 1.0, "Lambda": 2.0,
                       "rot_invariant": True,
                       "families": [[np.eye(2).tolist()]]})
    op = fnel.parse_operator_spec(spec)
    fnel.classify(op, 2, 2.0)
    fnel.verify_ellipticity(op, 5, 0)
    fnel.critical_log_check(fnel.laplacian(3), 3)
    fnel.fixed_point(fnel.pucci_max(1.0, 2.0, 2), 2, 4.0, angular_points=8)


# ---------------------------------------------------------------------------
# radial


def _radial_op(fnel, kind, n, Lam, rng):
    if kind == "laplacian":
        return fnel.laplacian(n)
    if kind == "pucci_max":
        return fnel.pucci_max(1.0, Lam, n)
    if kind == "pucci_min":
        return fnel.pucci_min(1.0, Lam, n)
    return fnel.isaacs(1.0, Lam, n, scalar_families(rng, n, 1.0, Lam),
                       rot_invariant=True)


def _radial_problem(fnel, dom, n, data, alpha):
    """(1, 0) boundary data, exact F-harmonic xi_alpha data, or unit rhs on a ball."""
    if data == "unit":
        return fnel.DirichletProblem(domain=dom, n=n, rhs=lambda r: 1.0)
    if data == "step":
        return fnel.DirichletProblem(
            domain=dom, n=n,
            boundary=lambda r: 1.0 if abs(r - dom.r0) < abs(r - dom.r1) else 0.0)
    return fnel.DirichletProblem(domain=dom, n=n,
                                 boundary=lambda r: xi(alpha, r),
                                 exact=lambda r: xi(alpha, r))


def _residual_check(op, problem, exact_tol=None):
    """Recomputed residual within the solver's stated 1e-10 * scale."""
    import fnel

    def check(fld, store):
        r = fld.nodes
        rhs = max(abs(problem.rhs_at(x)) for x in r[1:])
        scale = 1.0 + rhs + abs(problem.boundary_at(r[-1]))
        if r[0] > 0:
            scale += abs(problem.boundary_at(r[0]))
        res = fnel.residual_norm(op, fld, problem)
        bad = []
        if not res <= 1e-10 * scale:
            bad.append(f"residual {res:.3e} above 1e-10 * {scale:.3g}")
        if exact_tol is not None:
            err = float(np.abs(fld.values - [problem.exact(x) for x in r]).max())
            if err > exact_tol:
                bad.append(f"error against the exact solution {err:.2e} > {exact_tol}")
        return bad

    return check


def _solve_job(fnel, kind, op, n, dom, cells, data, alpha, defect=False,
               exact_tol=None, key=None, once=False):
    problem = _radial_problem(fnel, dom, n, data, alpha)
    desc = f"{kind} n={n} {dom} cells={cells} data={data}"
    return Job("radial.solve", desc,
               lambda store: fnel.solve_dirichlet_radial(op, n, problem, cells),
               _residual_check(op, problem, exact_tol), defect=defect, key=key,
               once=once)


def build_radial(rng):
    import fnel

    A12, A116, B1 = fnel.Annulus(1.0, 2.0), fnel.Annulus(1.0, 16.0), fnel.Ball(1.0)
    jobs = []
    # Pinned known-defect cases: the residual floor eps*|u|/h^2 exceeds the
    # fixed 1e-10 tolerance, so policy iteration runs its 200-sweep cap and
    # raises PolicyIterationDiverged.  Kept in every run, never re-seeded.
    pinned = (("pucci_min", A12, 512, "step"), ("pucci_max", A12, 1024, "step"),
              ("pucci_min", B1, 2048, "unit"), ("laplacian", A116, 4096, "step"))
    for kind, dom, cells, data in pinned:
        op = _radial_op(fnel, kind, 3, 2.0, rng)
        jobs.append(_solve_job(fnel, kind, op, 3, dom, cells, data,
                               alpha_closed(kind, 3, 1.0, 2.0), defect=True,
                               once=True))
    # tests/test_acceptance.py oracles: 1/r and r^-3 on annulus(1,2), 512 cells
    # and the Hadamard monotonicity check on the same two fields (test_09)
    accept = (("laplacian", fnel.laplacian(3), 1.0, 1e-3),
              ("pucci_max", fnel.pucci_max(1.0, 2.0, 3), 3.0, 1e-2))
    for kind, op, alpha, tol in accept:
        jobs.append(_solve_job(fnel, kind, op, 3, A12, 512, "harmonic", alpha,
                               exact_tol=tol, key=f"accept/{kind}"))
    # Seeded cold solves.  On these grids the residual floor stays below
    # half the tolerance (checked over 1400 draws), so they converge at this
    # commit whatever the seed; larger grids live in the pinned cases.
    # The slot fixes operator kind, domain, grid and data; the seed draws n
    # and Lambda.  The cost of an Isaacs solve depends on n, Lambda and the
    # controls, so each Isaacs slot is pinned: its own n, Lambda = 1.6 and
    # controls from a fixed stream.  The 24 Pucci solves at 512 cells hold
    # the median call.
    kinds = ("laplacian", "pucci_max", "pucci_min")
    for i in range(40):
        dom = (A116, B1)[(i + i // 10) % 2]
        kind, cells = (kinds[i % 3], 512) if i % 10 else ("isaacs", 256)
        data = "unit" if dom is B1 else ("step", "harmonic")[i // 2 % 2]
        if kind == "isaacs":
            n, Lam, draw = 2 + i // 10, 1.6, np.random.default_rng(i)
        else:
            n, Lam, draw = int(rng.integers(2, 7)), float(rng.uniform(1.2, 2.0)), rng
        op = _radial_op(fnel, kind, n, Lam, draw)
        jobs.append(_solve_job(fnel, kind, op, n, dom, cells, data,
                               alpha_closed(kind, n, 1.0, Lam)))
    # Pipelines built on these solves.
    for kind, op, _, _ in accept:
        key = f"accept/{kind}"
        jobs.append(Job(
            "radial.hadamard_check", f"{kind} n=3 on {key}",
            lambda store, op=op, key=key: fnel.hadamard_check(op, store[key]),
            lambda out, store: [] if out["passed"] else ["Hadamard monotonicity failed"]))
    # tests/test_acceptance.py oracles: fitted exponent within 1%, or log case
    for op, n, want in ((fnel.pucci_max(1.0, 2.0, 3), 3, 3.0), (fnel.laplacian(3), 3, 1.0),
                        (fnel.pucci_min(1.0, 2.0, 3), 3, None), (fnel.laplacian(2), 2, None)):

        def profile_ok(out, store, want=want):
            if want is None:
                return [] if out.log_case else ["expected the logarithmic case"]
            if out.log_case or abs(out.fitted_alpha - want) > 0.01 * want:
                return [f"fitted alpha {out.fitted_alpha} not within 1% of {want}"]
            return []

        jobs.append(Job("radial.fundamental_profile", f"{op.kind} n={n} cells=512",
                        lambda store, op=op, n=n: fnel.fundamental_profile(op, n, 512),
                        profile_ok))
    # n and Lambda set the cost of the patched supersolution, so they are
    # pinned; the seed draws gamma and p
    for kind in ("laplacian", "pucci_max"):
        n, Lam = 4, 1.6
        op = _radial_op(fnel, kind, n, Lam, rng)
        gamma = float(rng.uniform(-1.0, 0.0))
        a = alpha_closed(kind, n, 1.0, Lam)
        p = 1.0 + (2.0 - gamma) / (a * float(rng.uniform(0.3, 0.8)))

        def patch_ok(out, store):
            bad = []
            if not out.residual_report["passed"]:
                bad.append(f"patched supersolution residuals {out.residual_report}")
            if max(out.continuity_jumps) > 1e-8:
                bad.append(f"continuity jumps {out.continuity_jumps}")
            return bad

        jobs.append(Job("radial.build_global_supersolution",
                        f"{kind} n={n} Lambda={Lam!r} p={p!r} gamma={gamma!r}",
                        lambda store, op=op, n=n, p=p, gamma=gamma:
                        fnel.build_global_supersolution(op, n, p, gamma, cells=512),
                        patch_ok))
    return jobs


def warmup_radial():
    import fnel

    rng = np.random.default_rng(0)
    for kind in ("laplacian", "pucci_max", "pucci_min", "isaacs"):
        op = _radial_op(fnel, kind, 3, 2.0, rng)
        for dom, data in ((fnel.Annulus(1.0, 2.0), "step"), (fnel.Ball(1.0), "unit")):
            problem = _radial_problem(fnel, dom, 3, data, 1.0)
            fld = fnel.solve_dirichlet_radial(op, 3, problem, 16)
            fnel.residual_norm(op, fld, problem)
    op = fnel.laplacian(3)
    prob = _radial_problem(fnel, fnel.Annulus(1.0, 2.0), 3, "harmonic", 1.0)
    fnel.hadamard_check(op, fnel.solve_dirichlet_radial(op, 3, prob, 32))
    fnel.fundamental_profile(op, 3, 64)
    fnel.build_global_supersolution(op, 3, 5.0, 0.0, cells=32)


# ---------------------------------------------------------------------------
# eigen


def _lambda_near(want, rel):
    def check(out, store):
        if abs(out.lambda1 - want) > rel * want:
            return [f"lambda1 {out.lambda1!r} not within {rel:.0%} of {want!r}"]
        return []
    return check


def build_eigen(rng):
    import fnel
    from fnel import Rectangle

    A12, A24, B1 = fnel.Annulus(1.0, 2.0), fnel.Annulus(2.0, 4.0), fnel.Ball(1.0)
    lap3 = fnel.laplacian(3)
    jobs = []
    for cells in (256, 512, 1024, 2048):
        jobs.append(Job("eigen.radial", f"laplacian(3) {A12} cells={cells}",
                        lambda store, cells=cells:
                        fnel.principal_eigenvalue(lap3, A12, cells),
                        _lambda_near(PI2, 0.01), once=cells > 512))
    jobs.append(Job("eigen.radial", f"laplacian(3) {A24} cells=1024",
                    lambda store: fnel.principal_eigenvalue(lap3, A24, 1024),
                    _lambda_near(PI2 / 4.0, 0.02), once=True))
    # Pucci sandwich: lambda1(pucci_min) <= lambda1(F) <= lambda1(pucci_max)
    for g, (dom, cells, mid) in enumerate(((A12, 256, "isaacs"), (A24, 512, "laplacian"),
                                           (B1, 1024, "laplacian"))):
        Lam = float(rng.uniform(1.5, 2.5))
        ops = {"pucci_min": fnel.pucci_min(1.0, Lam, 3),
               "pucci_max": fnel.pucci_max(1.0, Lam, 3),
               "mid": _radial_op(fnel, mid, 3, Lam, rng)}
        keys = {name: f"sandwich/{g}/{name}" for name in ops}

        def sandwich(out, store, keys=keys):
            lo, hi = store[keys["pucci_min"]].lambda1, store[keys["pucci_max"]].lambda1
            if not lo - 1e-6 <= out.lambda1 <= hi + 1e-6:
                return [f"lambda1 {out.lambda1!r} outside the Pucci sandwich [{lo}, {hi}]"]
            return []

        for name in ("pucci_min", "pucci_max", "mid"):
            jobs.append(Job(
                "eigen.radial", f"{name}={mid if name == 'mid' else name} "
                f"Lambda={Lam!r} {dom} cells={cells}",
                lambda store, op=ops[name], dom=dom, cells=cells:
                fnel.principal_eigenvalue(op, dom, cells),
                sandwich if name == "mid" else _ok, key=keys[name],
                once=cells > 512 or (mid == "isaacs" and name == "mid")))
    # 2-homogeneity on a block of like calls that holds the median: the log
    # grid scales exactly, so lambda1 * a^2 on annulus(a, 2a) must not depend
    # on the seeded a
    for i in range(12):
        kind = ("pucci_max", "pucci_min")[i % 2]
        a = float(rng.uniform(0.5, 2.0))
        op = _radial_op(fnel, kind, 3, 2.0, rng)
        key = f"homogeneity/{kind}"

        def homogeneous(out, store, a=a, key=key):
            ref = store.setdefault(key, out.lambda1 * a * a)
            if abs(out.lambda1 * a * a - ref) > 1e-6 * ref:
                return [f"lambda1 * a^2 = {out.lambda1 * a * a!r} != {ref!r}"]
            return []

        jobs.append(Job("eigen.radial", f"{kind}(1,2,3) annulus({a!r}, {2 * a!r}) cells=256",
                        lambda store, op=op, a=a:
                        fnel.principal_eigenvalue(op, fnel.Annulus(a, 2.0 * a), 256),
                        homogeneous))
    for kind in ("pucci_max", "pucci_min"):
        Lam = float(rng.uniform(1.5, 2.5))
        op = _radial_op(fnel, kind, 3, Lam, rng)

        def scaling_ok(out, store):
            if out["relative_error"] > 0.02:
                return [f"eigen scaling ratio {out['ratio']!r} not within 2% of 4"]
            return []

        jobs.append(Job("eigen.scaling_check", f"{kind}(1,{Lam!r},3) {A12} sigma=2",
                        lambda store, op=op: fnel.eigen_scaling_check(op, A12, 2.0,
                                                                      cells=512),
                        scaling_ok, once=True))
    square = Rectangle(0.0, 1.0, 0.0, 1.0)
    lap2 = fnel.laplacian(2)
    pm2 = fnel.pucci_max(1.0, float(rng.uniform(1.5, 2.5)), 2)
    jobs.append(Job("eigen.grid2d", "laplacian(2) unit square cells=16",
                    lambda store: fnel.principal_eigenvalue(lap2, square, 16),
                    _lambda_near(2.0 * PI2, 0.01)))
    jobs.append(Job("eigen.grid2d", "laplacian(2) unit square cells=8",
                    lambda store: fnel.principal_eigenvalue(lap2, square, 8),
                    _ok, key="lap2/8"))

    def above_laplacian(out, store):
        lo = store["lap2/8"].lambda1
        if out.lambda1 < lo - 1e-6:
            return [f"pucci_max lambda1 {out.lambda1!r} below the Laplacian's {lo!r}"]
        return []

    jobs.append(Job("eigen.grid2d", f"pucci_max(1,{pm2.Lam!r},2) unit square cells=8",
                    lambda store: fnel.principal_eigenvalue(pm2, square, 8),
                    above_laplacian, once=True))
    # the three cases of scripts/run_certificate_curves.py, default 1024 cells
    for name, op, n, p in (("laplacian-n3-p2-strict", lap3, 3, 2.0),
                           ("laplacian-n4-p2-critical", fnel.laplacian(4), 4, 2.0),
                           ("pucci_min-n3-p3", fnel.pucci_min(1.0, 2.0, 3), 3, 3.0)):
        jobs.append(Job("eigen.certificate", name,
                        lambda store, op=op, n=n, p=p:
                        fnel.nonexistence_certificate(op, n, p, 0.0, c=1.0),
                        _certificate_check(name)))
    return jobs


def _certificate_check(name):
    def check(rep, store):
        lam1 = rep["lambda1"]
        if name.startswith("laplacian-n3"):
            ok = (abs(rep["growth_exponent"] - 1.0) <= 1e-12
                  and _rel(rep["sigma_star"], lam1) <= 1e-9
                  and abs(lam1 - PI2) <= 0.02 * PI2)
        elif name.startswith("laplacian-n4"):
            ok = (rep["mode"] == "critical-log"
                  and abs(rep["sigma_star"] - math.exp(lam1)) <= 0.05 * math.exp(lam1)
                  and PI2 <= lam1 <= 1.1 * PI2)
        else:  # alpha* = 0 < beta* = 1: strict, growth exponent 2
            ok = (rep["mode"] == "strict"
                  and _rel(rep["sigma_star"], math.sqrt(lam1)) <= 1e-9)
        return [] if ok else [f"certificate {name}: {rep['mode']} sigma*={rep['sigma_star']}"]
    return check


def warmup_eigen():
    import fnel
    from fnel import Rectangle

    rng = np.random.default_rng(0)
    for kind in ("laplacian", "pucci_max", "pucci_min", "isaacs"):
        fnel.principal_eigenvalue(_radial_op(fnel, kind, 3, 2.0, rng),
                                  fnel.Annulus(1.0, 2.0), 32)
    fnel.principal_eigenvalue(fnel.laplacian(3), fnel.Ball(1.0), 32)
    fnel.eigen_scaling_check(fnel.laplacian(3), fnel.Annulus(1.0, 2.0), 2.0, cells=32)
    fnel.principal_eigenvalue(fnel.pucci_max(1.0, 2.0, 2), Rectangle(0, 1, 0, 1), 4)
    fnel.nonexistence_certificate(fnel.laplacian(3), 3, 2.0, 0.0, c=1.0, cells=32)


# ---------------------------------------------------------------------------
# grid2d


def _load_isaacs_2d(fnel, root):
    with open(f"{root}/samples/isaacs_2d.json", encoding="utf-8") as fh:
        text = fh.read()
    return fnel.parse_operator_spec(text), json.loads(text)


def _grid_quadratic(rng):
    a, b = (float(v) for v in rng.uniform(0.5, 2.0, 2))
    c, d, e = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
    return (a, b, c, d, e)


def _quad_value(q, x, y):
    a, b, c, d, e = q
    return a * x * x + b * y * y + c * x + d * y + e


def _f_of_hessian(kind, q, lam, Lam, families=None):
    """F(D^2 u) for the quadratic u: Hessian diag(2a, 2b), positive definite."""
    a, b = q[0], q[1]
    if kind == "laplacian":
        return -2.0 * (a + b)
    if kind == "pucci_max":
        return -2.0 * lam * (a + b)
    if kind == "pucci_min":
        return -2.0 * Lam * (a + b)
    hess = np.diag([2.0 * a, 2.0 * b])
    return max(min(-float(np.tensordot(np.asarray(m), hess)) for m in row)
               for row in families)


def _quad_check(q):
    def check(fld, store):
        nx, ny = fld.values.shape
        xs = fld.x0 + fld.h * np.arange(nx)
        ys = fld.y0 + fld.h * np.arange(ny)
        exact = _quad_value(q, xs[:, None], ys[None, :])
        err = float(np.nanmax(np.abs(fld.values - exact)))
        if not err <= 1e-9 * float(np.abs(exact).max()):
            return [f"quadratic reproduced with relative error {err:.2e}"]
        return []
    return check


def _unit_check(op, problem):
    import fnel

    def check(fld, store):
        bad = []
        res = fnel.residual_norm(op, fld, problem)
        if not res <= 2e-10:
            bad.append(f"residual {res:.3e} above 1e-10 * 2")
        if np.nanmin(fld.values) < -1e-12:
            bad.append("unit source with zero boundary data went negative")
        return bad
    return check


def build_grid2d(rng, root):
    import fnel
    from fnel import Rectangle

    square = Rectangle(0.0, 1.0, 0.0, 1.0)
    iso_op, iso_doc = _load_isaacs_2d(fnel, root)
    # Lambda and the data fix the sweep count of a 96-control solve, so the
    # Pucci operators and data are pinned and only cheap solves are seeded
    ops = {"laplacian": fnel.laplacian(2), "isaacs_2d": iso_op,
           "pucci_max": fnel.pucci_max(1.0, 2.0, 2),
           "pucci_min": fnel.pucci_min(1.0, 2.0, 2)}
    jobs = []

    def add(kind, h, data, once=False):
        op = ops[kind]
        if data == "quadratic":
            q = (1.0, 1.0, 0.0, 0.0, 0.0) if kind.startswith("pucci") \
                else _grid_quadratic(rng)
            f = _f_of_hessian("isaacs" if kind == "isaacs_2d" else kind, q,
                              op.lam, op.Lam, iso_doc["families"])
            problem = fnel.DirichletProblem(
                domain=square, n=2, rhs=lambda x, y: f,
                boundary=lambda x, y: _quad_value(q, x, y))
            check = _quad_check(q)
            desc = f"{kind} h=1/{round(1 / h)} quadratic {q!r}"
        else:
            problem = fnel.DirichletProblem(domain=square, n=2, rhs=lambda x, y: 1.0)
            check = _unit_check(op, problem)
            desc = f"{kind} h=1/{round(1 / h)} unit rhs"
        jobs.append(Job("grid2d.solve", desc,
                        lambda store: fnel.solve_dirichlet_2d(op, problem, h), check,
                        once=once))

    for kind in ("laplacian", "isaacs_2d"):
        for h in (1 / 32, 1 / 64):
            add(kind, h, "quadratic", once=kind == "isaacs_2d" and h < 1 / 32)
            add(kind, h, "unit", once=kind == "isaacs_2d" and h < 1 / 32)
    for _ in range(12):
        add("isaacs_2d", 1 / 32, "quadratic")
    # 96-control solves: the small ones are timed, so that per-control cost
    # shows next to the per-node cost of the laplacian; from h=1/16 on a
    # Pucci solve is run once
    for kind in ("pucci_max", "pucci_min"):
        add(kind, 1 / 8, "quadratic")
        add(kind, 1 / 8, "quadratic")
        add(kind, 1 / 8, "unit")
    for kind in ("pucci_max", "pucci_min"):
        add(kind, 1 / 16, "quadratic", once=True)
        add(kind, 1 / 16, "unit", once=True)
    add("pucci_max", 1 / 32, "quadratic", once=True)
    add("pucci_min", 1 / 32, "unit", once=True)
    Lam = float(rng.uniform(1.5, 2.5))
    iso_rot = fnel.isaacs(1.0, Lam, 2, scalar_families(rng, 2, 1.0, Lam),
                          rot_invariant=True)
    ring = fnel.DirichletProblem(domain=fnel.Annulus(1.0, 2.0), n=2,
                                 rhs=lambda x, y: 1.0)
    jobs.append(Job("grid2d.solve", f"isaacs(1,{Lam!r}) rot-invariant annulus(1,2) "
                    "h=1/16 unit rhs",
                    lambda store: fnel.solve_dirichlet_2d(iso_rot, ring, 1 / 16),
                    _unit_check(iso_rot, ring)))
    add("pucci_max", 1 / 64, "quadratic", once=True)
    return jobs


def warmup_grid2d(root):
    import fnel
    from fnel import Rectangle

    square = Rectangle(0.0, 1.0, 0.0, 1.0)
    iso_op, _ = _load_isaacs_2d(fnel, root)
    problem = fnel.DirichletProblem(domain=square, n=2, rhs=lambda x, y: 1.0)
    for op in (fnel.laplacian(2), iso_op, fnel.pucci_max(1.0, 2.0, 2),
               fnel.pucci_min(1.0, 2.0, 2)):
        fld = fnel.solve_dirichlet_2d(op, problem, 1 / 4)
        fnel.residual_norm(op, fld, problem)
    ring = fnel.DirichletProblem(domain=fnel.Annulus(1.0, 2.0), n=2,
                                 rhs=lambda x, y: 1.0)
    fnel.solve_dirichlet_2d(fnel.laplacian(2), ring, 1 / 4)


# ---------------------------------------------------------------------------


def build(workload, seed, root):
    """The seeded job list of a workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verdicts":
        return build_verdicts(rng)
    if workload == "radial":
        return build_radial(rng)
    if workload == "eigen":
        return build_eigen(rng)
    return build_grid2d(rng, root)


def warmup(workload, root):
    """One small, untimed call per job kind."""
    if workload == "verdicts":
        warmup_verdicts()
    elif workload == "radial":
        warmup_radial()
    elif workload == "eigen":
        warmup_eigen()
    else:
        warmup_grid2d(root)
