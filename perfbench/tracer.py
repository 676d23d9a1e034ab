"""In-memory span tracer that wraps fnel's public functions from outside.

Every wrapped function records one span per call: name, start, end, parent
span and job id.  Spans live in flat arrays while the run lasts; self time
(span time minus the time covered by child spans) and the per-layer metrics
are computed once at the end.  No fnel source file is touched: the wrappers
replace the module attributes, including the copies of a name that other
fnel modules imported (``fnel.spectral.solve_dirichlet_radial`` is the same
object as ``fnel.solver.solve_dirichlet_radial`` until it is wrapped).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the tracer.  The span name is
# "<module>.<function>".
TRACED = {
    "matcore": ("eval_operator", "eigenvalues_sym", "verify_ellipticity"),
    "opspec": ("parse_operator_spec",),
    "scaling": ("alpha_star", "homogeneity_indicator", "classify",
                "explicit_constant"),
    "cli": ("run_sweep",),
    "solver": ("solve_dirichlet_radial", "solve_dirichlet_2d",
               "residual_norm", "fundamental_profile"),
    "spectral": ("principal_eigenvalue", "eigen_scaling_check"),
    "liouville": ("bend_fundamental", "critical_log_check", "fixed_point",
                  "hadamard_check", "build_global_supersolution",
                  "nonexistence_certificate"),
}
# Every operator construction (the laplacian/pucci_*/isaacs constructors and
# spec parsing alike) runs EllipticOperator.__post_init__; its span is
# reported as matcore.operator_build.
OPERATOR_BUILD = "matcore.operator_build"
SOLVER_SPANS = ("solver.solve_dirichlet_radial", "solver.solve_dirichlet_2d")

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "matcore.eval_operator.calls": "count",
    "matcore.eval_operator.self_s": "s",
    "matcore.eigenvalues_sym.calls": "count",
    "matcore.eigenvalues_sym.self_s": "s",
    "matcore.verify_ellipticity.self_s": "s",
    "matcore.operator_build.calls": "count",
    "matcore.operator_build.self_s": "s",
    "opspec.parse_operator_spec.calls": "count",
    "opspec.parse_operator_spec.self_s": "s",
    "scaling.alpha_star.calls": "count",
    "scaling.alpha_star.self_s": "s",
    "scaling.homogeneity_indicator.calls": "count",
    "scaling.indicator_calls_per_alpha_star": "ratio",
    "scaling.classify.self_s": "s",
    "scaling.explicit_constant.self_s": "s",
    "cli.run_sweep.calls": "count",
    "cli.run_sweep.self_s": "s",
    "cli.sweep_rows": "count",
    "cli.sweep_error_rows": "count",
    "solver.solve_dirichlet_radial.calls": "count",
    "solver.solve_dirichlet_radial.self_s": "s",
    "solver.solve_dirichlet_radial.failed": "count",
    "solver.solve_dirichlet_radial.sweeps_at_failure": "count",
    "solver.radial_unknowns": "count",
    "solver.solve_dirichlet_2d.calls": "count",
    "solver.solve_dirichlet_2d.self_s": "s",
    "solver.solve_dirichlet_2d.failed": "count",
    "solver.interior_nodes_2d": "count",
    "solver.residual_norm.calls": "count",
    "solver.residual_norm.self_s": "s",
    "solver.fundamental_profile.self_s": "s",
    "spectral.principal_eigenvalue.calls": "count",
    "spectral.principal_eigenvalue.self_s": "s",
    "spectral.iterations": "count",
    "spectral.inner_solves": "count",
    "spectral.inner_solves_per_eigen": "ratio",
    "liouville.bend_fundamental.self_s": "s",
    "liouville.critical_log_check.self_s": "s",
    "liouville.fixed_point.self_s": "s",
    "liouville.hadamard_check.self_s": "s",
    "liouville.build_global_supersolution.self_s": "s",
    "liouville.nonexistence_certificate.self_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = {}          # span name -> id
        self.job = -1
        self._stack = []
        self.name_id = array("h")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = {"solver.solve_dirichlet_radial.failed": 0,
                         "solver.sweeps_at_failure_total": 0,
                         "solver.radial_unknowns": 0,
                         "solver.solve_dirichlet_2d.failed": 0,
                         "solver.interior_nodes_2d": 0,
                         "spectral.iterations": 0,
                         "cli.sweep_rows": 0,
                         "cli.sweep_error_rows": 0}
        self._installed = []

    def _id(self, name):
        if name not in self.names:
            self.names[name] = len(self.names)
        return self.names[name]

    # -- recording ---------------------------------------------------------

    def span(self, name):
        """Context manager recording one span (used for harness roots)."""
        return _Span(self, self._id(name))

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self.job)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None, on_error=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace fnel's public functions, and every imported copy, by wrappers."""
        for modname in TRACED:
            importlib.import_module(f"fnel.{modname}")
        from fnel import matcore, solver

        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "fnel" or k.startswith("fnel."))]
        hooks = self._hooks(solver)
        for modname, funcs in TRACED.items():
            module = sys.modules[f"fnel.{modname}"]
            for fname in funcs:
                orig = getattr(module, fname)
                name = f"{modname}.{fname}"
                ok, err = hooks.get(name, (None, None))
                wrapped = self.wrap(name, orig, ok, err)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._installed.append((mod, attr, orig))
        cls = matcore.EllipticOperator
        orig_post = cls.__post_init__
        cls.__post_init__ = self.wrap(OPERATOR_BUILD, orig_post)
        self._installed.append((cls, "__post_init__", orig_post))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def _hooks(self, solver):
        c = self.counters
        diverged = solver.PolicyIterationDiverged

        def radial_ok(out, args, kwargs):
            problem = args[2] if len(args) > 2 else kwargs["problem"]
            cells = args[3] if len(args) > 3 else kwargs["cells"]
            ball = isinstance(problem.domain, solver.Ball)
            c["solver.radial_unknowns"] += cells if ball else cells - 1

        def radial_err(exc, args, kwargs):
            radial_ok(None, args, kwargs)
            if isinstance(exc, diverged):
                c["solver.solve_dirichlet_radial.failed"] += 1
                c["solver.sweeps_at_failure_total"] += len(exc.history)

        def grid_ok(out, args, kwargs):
            c["solver.interior_nodes_2d"] += int(out.interior.sum())

        def grid_err(exc, args, kwargs):
            c["solver.solve_dirichlet_2d.failed"] += 1

        def eigen_ok(out, args, kwargs):
            c["spectral.iterations"] += out.iterations

        def sweep_ok(out, args, kwargs):
            rows = out[0].splitlines()[1:]
            c["cli.sweep_rows"] += len(rows)
            c["cli.sweep_error_rows"] += sum(1 for r in rows if not r.endswith(","))

        return {
            "solver.solve_dirichlet_radial": (radial_ok, radial_err),
            "solver.solve_dirichlet_2d": (grid_ok, grid_err),
            "spectral.principal_eigenvalue": (eigen_ok, None),
            "cli.run_sweep": (sweep_ok, None),
        }

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job_id": np.frombuffer(self.job_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self):
        """Per span name: calls and self seconds; plus derived counts."""
        a = self.arrays()
        nid, parent = a["name_id"].astype(np.int64), a["parent"]
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_ns, minlength=k) / 1e9
        by_name = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                   for name, i in self.names.items()}
        # solver spans with a spectral.principal_eigenvalue ancestor
        under = np.zeros(len(dur), dtype=bool)
        eig = self.names.get("spectral.principal_eigenvalue", -1)
        is_eig = nid == eig
        idx = np.flatnonzero(has_parent)
        for _ in range(64):  # propagate down the span tree, depth by depth
            new = under.copy()
            p = parent[idx]
            new[idx] = is_eig[p] | under[p]
            if np.array_equal(new, under):
                break
            under = new
        solver_ids = [self.names[s] for s in SOLVER_SPANS if s in self.names]
        inner = int((under & np.isin(nid, solver_ids)).sum())
        return by_name, inner

    def layer_metrics(self, overhead):
        by_name, inner = self.summary()
        c = self.counters

        def st(name, stat):
            return by_name.get(name, {"calls": 0, "self_s": 0.0})[stat]

        out = {}
        for metric in LAYER_METRICS:
            head, _, stat = metric.rpartition(".")
            if stat in ("calls", "self_s") and head.count(".") == 1:
                out[metric] = st(head, stat)
        n_alpha = st("scaling.alpha_star", "calls")
        n_eig = st("spectral.principal_eigenvalue", "calls")
        failed = c["solver.solve_dirichlet_radial.failed"]
        out.update({
            "scaling.indicator_calls_per_alpha_star":
                st("scaling.homogeneity_indicator", "calls") / n_alpha
                if n_alpha else 0.0,
            "cli.sweep_rows": c["cli.sweep_rows"],
            "cli.sweep_error_rows": c["cli.sweep_error_rows"],
            "solver.solve_dirichlet_radial.failed": failed,
            "solver.solve_dirichlet_radial.sweeps_at_failure":
                c["solver.sweeps_at_failure_total"] / failed if failed else 0,
            "solver.radial_unknowns": c["solver.radial_unknowns"],
            "solver.solve_dirichlet_2d.failed":
                c["solver.solve_dirichlet_2d.failed"],
            "solver.interior_nodes_2d": c["solver.interior_nodes_2d"],
            "spectral.iterations": c["spectral.iterations"],
            "spectral.inner_solves": inner,
            "spectral.inner_solves_per_eigen": inner / n_eig if n_eig else 0.0,
            "trace.overhead": overhead,
        })
        return {m: out[m] for m in LAYER_METRICS}


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
