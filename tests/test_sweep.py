"""Grouped sweeps against the row-at-a-time reference they replaced."""

import io
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from fnel import cli, liouville, scaling
from fnel.cli import SWEEP_AXES, SWEEP_COLUMNS, run_sweep
from fnel.opspec import parse_operator_spec

KINDS = ("laplacian", "pucci_max", "pucci_min", "isaacs")


def reference_row(command, kind, params):
    """One sweep row computed on its own: parse, build, then the scaling call."""
    p = params.get("p", 2.0)
    gamma = params.get("gamma", 0.0)
    lam = params.get("lambda", 1.0)
    Lam = params.get("Lambda", lam)
    n = int(params.get("n", 3))
    row = {k: params.get(k, "") for k in SWEEP_AXES}
    try:
        op = parse_operator_spec(json.dumps(
            {"n": n, "kind": kind, "lambda": lam, "Lambda": Lam}))
        if command == "classify":
            v = scaling.classify(op, n, p, gamma)
            vals = (v.outcome, v.alpha_star, v.beta_star, v.margin)
        elif command == "alpha-star":
            rep = scaling.alpha_star(op, n)
            vals = (rep.alpha_star, rep.log_case, rep.critical_exponent)
        elif command == "critical-exponent":
            vals = (scaling.alpha_star(op, n).critical_exponent,)
        elif command == "constant":
            c = scaling.explicit_constant(op, n, p, gamma)
            vals = (c if c is not None else "NONE", scaling.beta_star(p, gamma))
        else:
            tau, c, _ = liouville.bend_fundamental(op, n, p, gamma)
            vals = (tau, c)
        row.update(dict(zip(SWEEP_COLUMNS[command], vals)))
        row["error"] = ""
    except Exception as exc:
        row.update({k: "" for k in SWEEP_COLUMNS[command]})
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def reference_sweep(config):
    command, kind = config["command"], config.get("kind", "pucci_max")
    axes = config.get("axes", {})
    names = [a for a in SWEEP_AXES if a in axes]
    rows = [reference_row(command, kind, dict(zip(names, combo)))
            for combo in itertools.product(*(axes[a] for a in names))]
    columns = list(SWEEP_AXES) + list(SWEEP_COLUMNS[command]) + ["error"]
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    return buf.getvalue(), any(row["error"] for row in rows)


# error rows: p <= 1, gamma >= 2, lambda <= 0, Lambda < lambda, n = 1; plus
# duplicate values and 1 next to 1.0
ERROR_AXES = {
    "p": [0.5, 1, 2, 2.0, 4.5],
    "gamma": [-1.0, 0.5, 2.0],
    "lambda": [1.0, 1.0, 0.0, 1.5],
    "Lambda": [0.5, 2.0, 3],
    "n": [1, 3, 3.0, 5],
}


def seeded_axes(seed):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.5, 2.0))
    return {
        "p": sorted(float(v) for v in rng.uniform(1.05, 8.0, 4)),
        "gamma": sorted(float(v) for v in rng.uniform(-1.0, 2.0, 2)),
        "lambda": [lam],
        "Lambda": sorted(lam * float(r) for r in rng.uniform(1.0, 4.0, 3)),
        "n": [2, 3, 4, 5, 6],
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("command", sorted(SWEEP_COLUMNS))
@pytest.mark.parametrize("axes", [ERROR_AXES, seeded_axes(1), seeded_axes(2)],
                         ids=["errors", "seed1", "seed2"])
def test_grouped_sweep_matches_reference(command, kind, axes):
    config = {"command": command, "kind": kind, "axes": axes}
    assert run_sweep(config) == reference_sweep(config)


@pytest.mark.parametrize("axes", [
    {},
    {"p": [3.0]},
    {"gamma": [0.5], "n": [4]},
    {"lambda": [0.5, 0.5], "Lambda": [2.0]},
    {"p": []},
    {"p": [1.5, 3.0], "n": [2, 6]},
])
@pytest.mark.parametrize("command", sorted(SWEEP_COLUMNS))
def test_missing_axes_match_reference(command, axes):
    config = {"command": command, "axes": axes}
    assert run_sweep(config) == reference_sweep(config)


def test_constant_edge_betas_match_reference():
    # p = inf refused, beta* = 0 by underflow at p = 1e308, and beta*(beta*+1)
    # overflowing, take the scalar path
    config = {"command": "constant", "kind": "pucci_max",
              "axes": {"p": [math.inf, 1e308, 2.0, 1 + 1e-12],
                       "gamma": [-1e300, 0.0, 1.9, 2.0 - 2.0 ** -52]}}
    csv_text, failed = run_sweep(config)
    assert failed and "ValueError: p must exceed 1 and be finite" in csv_text
    assert "ValueError: beta must be positive" in csv_text
    assert "ValueError: entries must be finite" in csv_text
    assert (csv_text, failed) == reference_sweep(config)


class TestNonIntegerN:
    def test_truncation_is_a_row_error(self):
        csv_text, failed = run_sweep({"command": "alpha-star",
                                      "axes": {"n": [3, 3.5, 3.9, 4.0, True]}})
        assert failed
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        assert [r[5] for r in rows] == ["1.0", "", "", "2.0", ""]
        msg = "SpecError: field 'n' must be an integer"
        assert [r[-1] for r in rows] == ["", msg, msg, "", msg]


class TestJsonCoercion:
    """Sweep operators built from their values read what a JSON round trip of
    each spec reads: the oracle writes every spec as JSON text and parses it."""

    ODD = [np.float64(2.0), np.int64(3), np.bool_(True), True, "3", None,
           math.nan, math.inf, -0.0, [3], object()]

    @staticmethod
    def _round_trip(monkeypatch):
        """Make run_sweep build each operator from its spec's JSON text."""
        monkeypatch.setattr(cli, "_json_value", lambda value: value)
        monkeypatch.setattr(cli, "build_operator", lambda doc: parse_operator_spec(
            json.dumps(doc, default=cli._json_default)))

    @pytest.mark.parametrize("kind", ["pucci_max", "laplacian", np.str_("pucci_min"), 7])
    @pytest.mark.parametrize("command", ["classify", "alpha-star"])
    def test_csv_matches_the_round_trip(self, kind, command, monkeypatch):
        axes = {"p": [2.0], "lambda": [1.0, 0.0, *self.ODD],
                "Lambda": [2.5, 0.0, *self.ODD], "n": [3, 3.0, 0.0, *self.ODD]}
        config = {"command": command, "kind": kind, "axes": axes}
        got = run_sweep(config)
        self._round_trip(monkeypatch)
        want = run_sweep(config)
        assert got == want
        assert got[1] and got[0].count("\n") == 1 + 13 * 13 * 14
        assert "SpecError: field 'n' must be an integer" in got[0]

    def test_odd_values_pass_and_fail_as_json_reads_them(self):
        axes = {"lambda": [np.float64(1.0), np.int64(1), np.bool_(True), "1"],
                "Lambda": [np.float32(2.0)], "n": [np.int64(3), "3", np.bool_(True)]}
        csv_text, failed = run_sweep({"command": "alpha-star", "axes": axes})
        errors = [line.split(",")[-1] for line in csv_text.splitlines()[1:]]
        ok, n_err, lam_err = "", "SpecError: field 'n' must be an integer", \
            "SpecError: field 'lambda' must be a finite number"
        assert failed and errors == [ok, ok, n_err] * 2 + [lam_err, lam_err, n_err] * 2


class TestWorkCounts:
    @pytest.mark.parametrize("command", ["classify", "alpha-star"])
    @pytest.mark.parametrize("n_p,n_gamma", [(1, 1), (9, 3)])
    def test_once_per_distinct_operator(self, command, n_p, n_gamma, monkeypatch):
        counts = {"build": 0, "alpha": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cli, "build_operator", counted("build", cli.build_operator))
        monkeypatch.setattr(scaling, "alpha_star", counted("alpha", scaling.alpha_star))
        axes = {"p": list(np.linspace(1.5, 6.0, n_p)),
                "gamma": list(np.linspace(-1.0, 1.0, n_gamma)),
                "lambda": [1.0, 1.0, 0.5], "Lambda": [2.0, 3.0], "n": [3, 4, 3]}
        _, failed = run_sweep({"command": command, "axes": axes})
        assert not failed
        assert counts == {"build": 2 * 2 * 2, "alpha": 2 * 2 * 2}

    def test_constant_stacks_k_per_operator(self, monkeypatch):
        calls = {"K": 0, "scalar": 0}
        real_k = scaling.K_coefficient

        def k_coefficient(*args):
            calls["K"] += 1
            return real_k(*args)

        def scalar(*args):
            calls["scalar"] += 1
            return None

        monkeypatch.setattr(scaling, "K_coefficient", k_coefficient)
        monkeypatch.setattr(scaling, "explicit_constant", scalar)
        _, failed = run_sweep({"command": "constant", "axes": {
            "p": [1.5, 2.0, 4.0], "gamma": [0.0, 1.0], "Lambda": [1.0, 2.0], "n": [3, 4]}})
        assert not failed
        assert calls == {"K": 4, "scalar": 0}

    def test_bend_stacks_in_regime_rows_per_block(self, monkeypatch):
        counts = {"sweep_alpha": 0, "bend_alpha": 0, "bend": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(scaling, "alpha_star", counted("sweep_alpha", scaling.alpha_star))
        monkeypatch.setattr(liouville, "alpha_star", counted("bend_alpha", liouville.alpha_star))
        monkeypatch.setattr(liouville, "bend_fundamental",
                            counted("bend", liouville.bend_fundamental))
        # beta* <= 1 < alpha* on all 4 operators: one stacked call each
        axes = {"p": list(np.linspace(3.0, 8.0, 33)), "Lambda": [2.0, 3.0], "n": [3, 4]}
        _, failed = run_sweep({"command": "bend", "axes": axes})
        assert not failed
        assert counts == {"sweep_alpha": 4, "bend_alpha": 4, "bend": 4}

    def test_bend_rows_outside_the_regime_reuse_the_sweeps_alpha(self, monkeypatch):
        counts = {"sweep_alpha": 0, "bend_alpha": 0, "bend": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(scaling, "alpha_star", counted("sweep_alpha", scaling.alpha_star))
        monkeypatch.setattr(liouville, "alpha_star", counted("bend_alpha", liouville.alpha_star))
        monkeypatch.setattr(liouville, "bend_fundamental",
                            counted("bend", liouville.bend_fundamental))
        # beta* >= 4 > alpha* on all 4 operators, and p = 0.5 errs in beta*
        axes = {"p": [0.5] + list(np.linspace(1.1, 1.5, 9)), "Lambda": [1.0, 1.2], "n": [3, 4]}
        csv_text, failed = run_sweep({"command": "bend", "axes": axes})
        assert failed and csv_text.count("WrongRegime: requires 0 < beta*=") == 4 * 9
        assert counts == {"sweep_alpha": 4, "bend_alpha": 4, "bend": 4}


class TestBendBlocks:
    """In-regime bend rows come from one stacked call per operator."""

    @pytest.mark.parametrize("kind", ["laplacian", "pucci_max", "pucci_min"])
    def test_several_blocks_match_reference(self, kind):
        # many in-regime rows per operator, with rows outside the regime
        # (p = 0.5, 1.5) between them
        ps = list(np.linspace(1.8, 8.0, 69))
        config = {"command": "bend", "kind": kind,
                  "axes": {"p": [0.5] + ps[:40] + [1.5] + ps[40:], "gamma": [0.0, 1.0],
                           "Lambda": [1.2, 3.0], "n": [4, 6]}}
        csv_text, failed = run_sweep(config)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        in_regime = Counter((r[3], r[4]) for r in rows if not r[-1])  # per (Lambda, n)
        assert max(in_regime.values()) > 64
        assert (csv_text, failed) == reference_sweep(config)

    def test_wrong_regime_rows_match_reference(self):
        config = {"command": "bend", "kind": "pucci_max",
                  "axes": {"p": [3.0, 1.5, 0.5], "Lambda": [2.0, 3.0], "n": [3, 4]}}
        csv_text, failed = run_sweep(config)
        assert failed and "WrongRegime" in csv_text
        assert (csv_text, failed) == reference_sweep(config)

    @pytest.mark.parametrize("kind", ["laplacian", "pucci_max", "pucci_min"])
    def test_all_out_of_regime_sweep_matches_reference(self, kind):
        # 2000 rows, none in 0 < beta* < alpha*: at gamma = 0, beta* >= 2 > alpha*;
        # at gamma = nan, beta* refuses the NaN, and at p = inf the p
        config = {"command": "bend", "kind": kind,
                  "axes": {"p": list(np.linspace(1.05, 1.9, 497)) + [math.inf] * 3,
                           "gamma": [0.0, math.nan], "Lambda": [1.0, 1.2], "n": [3]}}
        csv_text, failed = run_sweep(config)
        rows = csv_text.splitlines()[1:]
        assert failed and len(rows) == 2000
        infinite = [row for row in rows if row.startswith("inf,")]
        assert len(infinite) == 12
        assert all(",ValueError: p must exceed 1 and be finite" in row for row in infinite)
        by_gamma = {g: [row for row in rows if row.split(",")[1] == g and row not in infinite]
                    for g in ("0.0", "nan")}
        assert len(by_gamma["0.0"]) == len(by_gamma["nan"]) == 994
        assert all(",WrongRegime: requires 0 < beta*=" in row for row in by_gamma["0.0"])
        assert all(",ValueError: gamma must be below 2" in row for row in by_gamma["nan"])
        assert (csv_text, failed) == reference_sweep(config)

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_block_that_raises_takes_the_scalar_path(self):
        # alpha* = 2e160; at gamma = -1e157, beta* = 5e156 lies in the regime
        # but beta*(beta*+1) overflows, so that row's Hessian is not finite and
        # its block raises; the other rows of the block still get their values
        config = {"command": "bend", "kind": "pucci_max",
                  "axes": {"p": [3.0, 4.0], "gamma": [0.0, -1e157, 0.5],
                           "lambda": [1e-160], "Lambda": [1.0], "n": [3]}}
        csv_text, failed = run_sweep(config)
        errors = [line.split(",")[-1] for line in csv_text.splitlines()[1:]]
        assert errors == ["", "ValueError: entries must be finite", ""] * 2
        assert (csv_text, failed) == reference_sweep(config)
