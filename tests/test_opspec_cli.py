"""Operator spec files and the command-line interface."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fnel import cli, spectral
from fnel.cli import (
    EXIT_BAD_SPEC, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main, run_sweep,
)
from fnel.matcore import ISAACS, eval_operator, pucci_max
from fnel.matcore import SymMatrix
from fnel.opspec import (
    SpecError, load_operator, operator_digest, parse_operator_spec,
    serialize_operator,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
PM3 = str(SAMPLES / "pucci_max_n3.json")
PM_DOC = {"n": 3, "kind": "pucci_max", "lambda": 1.0, "Lambda": 2.0}
ISAACS_DOC = {
    "n": 2, "kind": "isaacs", "lambda": 1.0, "Lambda": 2.0,
    "families": [[[[1.0, 0.0], [0.0, 2.0]]], [[[2.0, 0.0], [0.0, 1.0]]]],
}


def write_spec(tmp_path, doc, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpecParsing:
    def test_pucci_round_trip(self):
        op = parse_operator_spec(json.dumps(PM_DOC))
        again = parse_operator_spec(serialize_operator(op))
        assert operator_digest(op) == operator_digest(again)
        ref = pucci_max(1.0, 2.0, 3)
        m = SymMatrix.from_dense(np.diag([1.0, -1.0, 0.5]))
        assert eval_operator(op, m) == eval_operator(ref, m)

    def test_isaacs_round_trip(self):
        op = parse_operator_spec(json.dumps(ISAACS_DOC))
        assert op.kind == ISAACS and len(op.families) == 2
        again = parse_operator_spec(serialize_operator(op))
        assert operator_digest(op) == operator_digest(again)
        m = SymMatrix.from_dense(np.array([[1.0, 0.3], [0.3, -0.5]]))
        assert eval_operator(op, m) == eval_operator(again, m)

    def test_digest_is_content_addressed(self):
        a = parse_operator_spec(json.dumps(PM_DOC))
        b = parse_operator_spec(json.dumps({**PM_DOC, "Lambda": 2.5}))
        assert operator_digest(a) != operator_digest(b)
        assert len(operator_digest(a)) == 16

    @pytest.mark.parametrize("doc,field", [
        ("not json at all", "JSON"),
        (json.dumps([1, 2]), "object"),
        (json.dumps({"kind": "pucci_max"}), "'n'"),
        (json.dumps({**PM_DOC, "n": 3.5}), "'n'"),
        (json.dumps({**PM_DOC, "n": True}), "'n'"),
        (json.dumps({**PM_DOC, "n": [3]}), "'n'"),
        ('{"n": Infinity, "kind": "pucci_max"}', "'n'"),
        (json.dumps({**PM_DOC, "kind": "mystery"}), "'kind'"),
        (json.dumps({**PM_DOC, "lambda": -1.0}), "'lambda'"),
        (json.dumps({**PM_DOC, "lambda": 3.0}), "'Lambda'"),
        (json.dumps({**PM_DOC, "Lambda": math.inf}), "'Lambda' must be a finite"),
        (json.dumps({**PM_DOC, "lambda": -math.inf}), "'lambda' must be a finite"),
        (json.dumps({**PM_DOC, "Lambda": math.nan}), "'Lambda' must be a finite"),
        (json.dumps({**PM_DOC, "lambda": "x"}), "'lambda' must be a finite"),
        (json.dumps({**PM_DOC, "lambda": "2.0"}), "'lambda' must be a finite"),
        (json.dumps({**PM_DOC, "Lambda": None}), "'Lambda' must be a finite"),
        (json.dumps({**PM_DOC, "lambda": True}), "'lambda' must be a finite"),
        (json.dumps({**PM_DOC, "Lambda": [2.0]}), "'Lambda' must be a finite"),
        (json.dumps({**PM_DOC, "Lambda": 10 ** 400}), "'Lambda' must be a finite"),
        (json.dumps({"n": 2, "kind": "isaacs"}), "families"),
        (json.dumps({"n": 2, "kind": "isaacs",
                     "families": [[[[1.0]]]]}), "families[0][0]"),
        (json.dumps({**ISAACS_DOC, "families": [5]}), "families[0] must be a list"),
        (json.dumps({**ISAACS_DOC, "families": 5}), "'families' must be a list"),
        (json.dumps({**ISAACS_DOC, "families": "ab"}), "'families' must be a list"),
        (json.dumps({**ISAACS_DOC, "families": ["ab"]}), "families[0] must be a list"),
        (json.dumps({**ISAACS_DOC, "families": [[[["x", 0.0], [0.0, 1.0]]]]}),
         "families[0][0] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[["1.0", 0.0], [0.0, 1.0]]]]}),
         "families[0][0] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[[True, 0.0], [0.0, 1.0]]]]}),
         "families[0][0] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[[None, 0.0], [0.0, 1.0]]]]}),
         "families[0][0] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[1.0, 0.0], [0.0, 1.0]]]}),
         "families[0][0] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[[1.0, 0.0], [0.0, 1.0]], "ab"]]}),
         "families[0][1] is not a list of 2 rows of 2 numbers"),
        (json.dumps({**ISAACS_DOC, "families": [[[[10 ** 400, 0], [0, 1]]]]}),
         "families[0][0]: entries must be finite"),
        (json.dumps({**ISAACS_DOC, "families": [[[[1.0, 0.0], [0.0, 1.0]]],
                                                 [[[1.5, 0.0], [0.0, 1.5]],
                                                  [[1.0, 0.5], [0.0, 1.0]]]]}),
         "families[1][1]: matrix is not symmetric"),
        (json.dumps({**ISAACS_DOC, "rot_invariant": "false"}), "'rot_invariant'"),
        (json.dumps({**ISAACS_DOC, "rot_invariant": 1}), "'rot_invariant'"),
        (json.dumps({**ISAACS_DOC, "rot_invariant": None}), "'rot_invariant'"),
        (json.dumps({**PM_DOC, "rot_invariant": "true"}), "'rot_invariant'"),
    ])
    def test_error_names_offending_field(self, doc, field):
        with pytest.raises(SpecError) as exc:
            parse_operator_spec(doc)
        assert field in str(exc.value)

    def test_rot_invariant_is_read_as_a_json_boolean(self):
        assert parse_operator_spec(json.dumps(ISAACS_DOC)).rot_invariant is False
        doc = {**ISAACS_DOC, "families": [[[[1.5, 0.0], [0.0, 1.5]]]]}
        for flag in (True, False):
            op = parse_operator_spec(json.dumps({**doc, "rot_invariant": flag}))
            assert op.rot_invariant is flag
        assert parse_operator_spec(json.dumps({**PM_DOC, "rot_invariant": False})).rot_invariant

    def test_an_earlier_bad_matrix_is_named_before_a_later_malformed_one(self):
        asym = [[1.0, 0.5], [0.0, 1.0]]
        doc = {**ISAACS_DOC, "families": [[np.eye(2).tolist(), asym], [[[1.0]]]]}
        with pytest.raises(SpecError) as exc:
            parse_operator_spec(json.dumps(doc))
        assert str(exc.value) == "families[0][1]: matrix is not symmetric"
        doc = {**ISAACS_DOC, "families": [[np.eye(2).tolist(), [[1.0]]], [asym]]}
        with pytest.raises(SpecError) as exc:
            parse_operator_spec(json.dumps(doc))
        assert str(exc.value) == "families[0][1] is not a list of 2 rows of 2 numbers"

    def test_integral_float_n_accepted(self):
        assert parse_operator_spec(json.dumps({**PM_DOC, "n": 3.0})).dim == 3

    def test_load_operator(self, tmp_path):
        path = write_spec(tmp_path, PM_DOC)
        assert load_operator(path).kind == "pucci_max"


class TestCliExitCodes:
    def test_ok(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["alpha-star", "--op", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_star"] == pytest.approx(3.0, abs=1e-8)
        assert payload["critical_exponent"] == pytest.approx(5.0 / 3.0)

    def test_usage_error_missing_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["classify", "--op", path]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, {**PM_DOC, "lambda": -2.0})
        assert main(["alpha-star", "--op", path]) == EXIT_BAD_SPEC
        assert "invalid operator spec" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["Infinity", '"x"', "null"])
    def test_non_finite_constant_is_bad_spec(self, tmp_path, capsys, text):
        path = tmp_path / "op.json"
        path.write_text(f'{{"n": 3, "kind": "pucci_max", "Lambda": {text}}}')
        assert main(["classify", "--op", str(path), "--p", "2.0"]) \
            == EXIT_BAD_SPEC
        assert "'Lambda' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("families", ['[5]', '["ab"]', '[[[["x", 0], [0, 1]]]]',
                                          '[[[[true, 0], [0, 1]]]]'])
    def test_malformed_families_is_bad_spec(self, tmp_path, capsys, families):
        path = tmp_path / "op.json"
        path.write_text(f'{{"n": 2, "kind": "isaacs", "families": {families}}}')
        assert main(["classify", "--op", str(path), "--p", "2.0"]) == EXIT_BAD_SPEC
        err = capsys.readouterr().err
        assert err.startswith("invalid operator spec: families[0]") and "Traceback" not in err

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["alpha-star", "--op", str(tmp_path / "nope.json")]) \
            == EXIT_BAD_SPEC

    def test_numerical_failure_writes_report(self, tmp_path, capsys):
        # fixed-point in the nonexistence regime is a numerical/regime failure
        path = write_spec(tmp_path, {"n": 3, "kind": "laplacian"})
        code = main(["fixed-point", "--op", path, "--p", "2.0"])
        assert code == EXIT_NUMERICAL
        payload = json.loads(capsys.readouterr().out)
        assert "WrongRegime" in payload["error"]

    def test_truncate_underflow_writes_report(self, tmp_path, capsys):
        # alpha* = 6999 puts beta* = 3499.5 at tau = 1/2: 4^{-beta*} underflows
        path = write_spec(tmp_path, {"n": 8, "kind": "pucci_max", "Lambda": 1000.0})
        code = main(["truncate", "--op", path, "--p", repr(1.0 + 4.0 / 6999.0)])
        assert code == EXIT_NUMERICAL
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "RuntimeError: the shell bound on s underflows to 0"

    # beta* one ulp below alpha* = 1: classify reads existence, but K(beta*)
    # rounds to 0; bend gave c = 0.0 with exit 0, truncate a RuntimeError on
    # its s bound and fixed-point a usage error on a None constant
    @pytest.mark.parametrize("command, echo", [
        ("bend", {"gamma": 0.0}),
        ("truncate", {"gamma": 0.0, "cells": 512}),
        ("fixed-point", {}),
    ])
    def test_k_rounding_to_zero_is_wrong_regime(self, command, echo, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 4, "kind": "pucci_min", "lambda": 1.0,
                                     "Lambda": 1.5})
        assert main([command, "--op", path, "--p", "3.0000000000000004"]) == EXIT_NUMERICAL
        report = json.loads(capsys.readouterr().out)
        assert report.pop("error").startswith("WrongRegime: requires K(beta*) > 0; got K=0.0")
        assert report == {"operator_digest": operator_digest(load_operator(path)),
                          "p": 3.0000000000000004, **echo}

    def test_dim_mismatch_is_usage(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["alpha-star", "--op", path, "--n", "4"]) == EXIT_USAGE


class TestCliCommands:
    def test_classify_payload(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["classify", "--op", path, "--p", "2.0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "EXISTENCE_SUPERSOLUTION"
        assert payload["p"] == 2.0

    def test_constant_payload(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["constant", "--op", path, "--p", "2.0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["constant"] == pytest.approx(2.0)

    def test_solve_csv_output(self, tmp_path):
        path = write_spec(tmp_path, PM_DOC)
        out = tmp_path / "field.csv"
        code = main(["solve", "--op", path, "--domain", "annulus:1:2",
                     "--g0", "1.0", "--cells", "64",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#") and "operator_digest=" in lines[0]
        assert lines[1] == "r,u"
        r, u = (float(v) for v in lines[2].split(","))
        assert r == pytest.approx(1.0) and u == pytest.approx(1.0)
        assert len(lines) == 2 + 65

    def test_eigen_json(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 3, "kind": "laplacian"})
        code = main(["eigen", "--op", path, "--domain", "annulus:1:2",
                     "--cells", "512"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda1"] == pytest.approx(math.pi ** 2, rel=0.02)
        lo, hi = payload["bracket"]
        assert lo <= hi
        assert (lo, hi) == pytest.approx((payload["lambda1"],) * 2, rel=1e-9)

    def test_certificate_csv_curve(self, tmp_path):
        path = write_spec(tmp_path, {"n": 3, "kind": "laplacian"})
        out = tmp_path / "curve.csv"
        code = main(["certificate", "--op", path, "--p", "2.0", "--c", "1.0",
                     "--cells", "256", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "sigma,mu"
        assert len(lines) > 3

    def test_hypothesis_command(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        code = main(["hypothesis", "--op", path, "--p", "1.4",
                     "--power", "1:0:1.4"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["wording"] == "sampled evidence, not certified"
        assert all(c["passed"] for c in payload["conditions"])

    def test_bend_command(self, tmp_path, capsys):
        path = write_spec(tmp_path, PM_DOC)
        assert main(["bend", "--op", path, "--p", "2.0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau"] == pytest.approx(2.0 / 3.0)


class TestGoldenSamples:
    """The checked-in sample files stay parseable and reproducible."""

    SAMPLES = SAMPLES

    @pytest.mark.parametrize("name", ["pucci_max_n3.json", "laplacian_n4.json",
                                      "isaacs_2d.json", "isaacs_rot_n3.json",
                                      "pucci_max_wide_n6.json"])
    def test_operator_specs_parse(self, name):
        load_operator(str(self.SAMPLES / name))

    def test_isaacs_rot_sample_keeps_its_claim(self):
        op = load_operator(str(self.SAMPLES / "isaacs_rot_n3.json"))
        assert op.kind == ISAACS and op.rot_invariant and len(op.families) == 2

    @pytest.mark.parametrize("spec,golden", [
        ("pucci_max_n3.json", "classify_output.json"),
        ("isaacs_rot_n3.json", "isaacs_rot_classify_output.json"),
    ])
    def test_classify_stdout_is_the_golden(self, spec, golden, capsys):
        # the bytes the CI golden step diffs
        assert main(["classify", "--op", str(self.SAMPLES / spec), "--p", "2.0"]) == EXIT_OK
        assert capsys.readouterr().out == (self.SAMPLES / golden).read_text()

    @pytest.mark.parametrize("spec,domain,cells,golden", [
        ("pucci_max_n3.json", "annulus:1:2", "256", "eigen_pucci_max_n3.csv"),
        ("laplacian_n4.json", "ball:1", "128", "eigen_laplacian_n4_ball.csv"),
        ("pucci_max_n3.json", "ball:1", "256", "eigen_pucci_max_n3_ball.csv"),
        ("isaacs_2d.json", "rectangle:0:1:0:1", "8", "eigen_isaacs_2d.csv"),
        ("pucci_max_n2.json", "rectangle:0:1:0:1", "16", "eigen_pucci_max_2d.csv"),
    ])
    def test_eigen_stdout_is_the_golden(self, spec, domain, cells, golden, capsys):
        # a log grid, a ball's centre row (under a fixed and a changing
        # policy) and the 2D grid (an Isaacs family, and a Pucci family whose
        # steps change policy), as CI diffs them
        assert main(["eigen", "--op", str(self.SAMPLES / spec), "--domain", domain,
                     "--cells", cells, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == (self.SAMPLES / golden).read_text()

    def test_fixed_point_stdout_is_the_golden(self, capsys):
        assert main(["fixed-point", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--p", "2.0"]) == EXIT_OK
        assert capsys.readouterr().out == \
            (self.SAMPLES / "fixed_point_output.json").read_text()

    def test_bend_stdout_is_the_golden(self, capsys):
        # c is K(beta*) = 2 exactly, with no sampling keys
        assert main(["bend", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--p", "2.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (self.SAMPLES / "bend_output.json").read_text()
        assert json.loads(out)["c"] == 2.0

    def test_truncate_stdout_is_the_golden(self, capsys):
        # the closed-form patch: a = 1, s = 2^-8, delta = (12/256)^{1/2}/2
        # whatever the cells, and both continuity jumps 0
        assert main(["truncate", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--p", "2.0", "--cells", "64"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (self.SAMPLES / "truncate_output.json").read_text()
        assert json.loads(out)["continuity_jumps"] == [0.0, 0.0]

    def test_fixed_point_without_rotation_invariance_is_usage(self):
        # the constant profile needs a rotation-invariant F; the CLI has no
        # angular path, so it reports a usage error instead of a traceback
        import fnel
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(fnel.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "fnel.cli", "fixed-point", "--op",
             str(self.SAMPLES / "isaacs_2d.json"), "--p", "2.0"],
            env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_USAGE
        assert "usage error" in run.stderr and "angular path" in run.stderr
        assert "Traceback" not in run.stderr + run.stdout

    @pytest.mark.parametrize("command", [["solve", "--rhs-const", "1.0"], ["eigen"]])
    def test_rectangle_with_no_cells_is_usage(self, command, capsys):
        # the rectangle's grid step h = side / cells needs cells >= 2
        assert main([command[0], "--op", str(self.SAMPLES / "pucci_max_n2.json"),
                     "--domain", "rectangle:0:1:0:1", *command[1:],
                     "--cells", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: need at least 2 cells\n"

    def test_alpha_star_of_the_wide_spec_is_the_bracket_end(self):
        # Lambda/lambda ~ 2600: one ulp of alpha* exceeds 1e-12, so a root
        # search to that tolerance never ends; a child with a timeout fails
        # instead of hanging the suite
        import fnel
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(fnel.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "fnel.cli", "alpha-star", "--op",
             str(self.SAMPLES / "pucci_max_wide_n6.json")],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == EXIT_OK
        out = json.loads(run.stdout)
        assert out["alpha_star"] == out["bracket"][1]

    def test_sweep_output_reproduces(self):
        config = json.loads((self.SAMPLES / "sweep_classify.json").read_text())
        csv_text, failed = run_sweep(config)
        assert not failed
        assert csv_text == (self.SAMPLES / "sweep_output.csv").read_text()

    def test_bend_sweep_output_reproduces(self):
        config = json.loads((self.SAMPLES / "sweep_bend.json").read_text())
        csv_text, failed = run_sweep(config)
        assert not failed
        assert csv_text == (self.SAMPLES / "sweep_bend_output.csv").read_text()

    def test_solve_output_reproduces(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--domain", "annulus:1:2", "--g0", "1.0", "--cells", "16",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == (self.SAMPLES / "solve_output.csv").read_text()

    def test_solve_2d_output_reproduces(self, tmp_path):
        # the 2D grid with the rotated Pucci control family
        out = tmp_path / "solve.csv"
        code = main(["solve", "--op", str(self.SAMPLES / "pucci_max_n2.json"),
                     "--domain", "rectangle:0:1:0:1", "--rhs-const", "1.0",
                     "--cells", "16", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == (self.SAMPLES / "solve_pucci_max_2d.csv").read_text()

    def test_solve_annulus4_output_reproduces(self, tmp_path):
        # four sweeps on 511 unknowns, each a new tridiagonal LU
        out = tmp_path / "solve.csv"
        code = main(["solve", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--domain", "annulus:1:4", "--rhs-const", "1.0",
                     "--cells", "512", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == (
            self.SAMPLES / "solve_pucci_max_annulus4.csv").read_text()

    def test_solve_ball_output_reproduces(self, tmp_path):
        # a ball's solve: the centre row first in the band, the rhs and the
        # unknowns, as CI diffs it
        out = tmp_path / "solve.csv"
        code = main(["solve", "--op", str(self.SAMPLES / "pucci_max_n3.json"),
                     "--domain", "ball:1", "--rhs-const", "1.0",
                     "--cells", "64", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == (self.SAMPLES / "solve_pucci_max_ball.csv").read_text()

    def test_classify_output_reproduces(self, tmp_path):
        out = tmp_path / "classify.json"
        code = main(["classify", "--op",
                     str(self.SAMPLES / "pucci_max_n3.json"),
                     "--p", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == json.loads(
            (self.SAMPLES / "classify_output.json").read_text())


class TestCommandTable:
    """Each subcommand declares only the options it reads, and its report
    echoes exactly those."""

    # subcommand -> (its arguments besides --op, the inputs it echoes)
    COMMANDS = {
        "alpha-star": ([], set()),
        "critical-exponent": ([], set()),
        "classify": (["--p", "2.0"], {"p", "gamma"}),
        "constant": (["--p", "2.0"], {"p", "gamma"}),
        "solve": (["--domain", "annulus:1:2", "--cells", "16"],
                  {"domain", "cells", "rhs_const", "g0", "g1"}),
        "eigen": (["--domain", "annulus:1:2", "--cells", "32"],
                  {"domain", "cells", "tol"}),
        "fundamental": (["--cells", "64"], {"cells"}),
        "hadamard": (["--cells", "64"], {"cells"}),
        "certificate": (["--p", "1.4", "--cells", "64"],
                        {"p", "gamma", "c", "sigma_max", "cells"}),
        "bend": (["--p", "2.0"], {"p", "gamma"}),
        "truncate": (["--p", "2.0", "--cells", "64"], {"p", "gamma", "cells"}),
        "fixed-point": (["--p", "2.0"], {"p"}),
        "hypothesis": (["--p", "1.4", "--power", "1:0:1.4"], {"p", "gamma", "power"}),
        "sweep": (["--config", str(SAMPLES / "sweep_classify.json")], {"config"}),
    }

    @classmethod
    def argv(cls, command):
        args = cls.COMMANDS[command][0]
        return [command, *args] if command == "sweep" else [command, "--op", PM3, *args]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_echo_is_the_declared_inputs(self, command, monkeypatch, capsys):
        inputs = self.COMMANDS[command][1]
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        assert {a.dest for a in sub._actions} - {"help", "op", "out", "format"} == inputs
        echoes, echo = [], cli._echo
        monkeypatch.setattr(cli, "_echo", lambda args, op: echoes.append(echo(args, op)) or echoes[-1])
        assert main(self.argv(command)) == EXIT_OK
        out = capsys.readouterr().out
        if command == "sweep":                  # CSV rows, no report
            assert not echoes
        else:
            assert set(echoes[0]) == inputs | {"operator_digest"}
            assert json.loads(out).items() >= echoes[0].items()
        assert main([*self.argv(command), "--seed", "0"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # gamma plays no part in the fixed point: it echoed gamma=1 beside beta*(p, 0)
        ["fixed-point", "--op", PM3, "--p", "2.0", "--gamma", "1.0"],
        # eigen ran each at 1e-8 and echoed the value given
        ["eigen", "--op", PM3, "--domain", "ball:1", "--tol", "0.5"],
        ["eigen", "--op", PM3, "--domain", "ball:1", "--tol", "0"],
        ["eigen", "--op", PM3, "--domain", "ball:1", "--tol", "nan"],
        # classify has no CSV form: it printed JSON
        ["classify", "--op", PM3, "--p", "2.0", "--format", "csv"],
        # the echo writes the domain into the '#' line of a CSV field, whose
        # key=value pairs are separated by spaces
        ["solve", "--op", PM3, "--domain", "ball: 1", "--format", "csv"],
        # a ball and a rectangle take --g1 on their whole boundary: --g0 was
        # echoed beside a solve it played no part in
        ["solve", "--op", PM3, "--domain", "ball:1", "--g0", "1.0"],
        ["solve", "--op", str(SAMPLES / "pucci_max_n2.json"),
         "--domain", "rectangle:0:1:0:1", "--g0", "5", "--cells", "4"],
        # a sweep's settings all come from its config: both were ignored
        ["sweep", "--config", str(SAMPLES / "sweep_classify.json"), "--p", "9", "--tol", "5"],
        # the spec fixes the dimension: a matching --n was accepted
        ["classify", "--op", PM3, "--p", "2.0", "--n", "3"],
        # NaN passed p <= 1, gamma >= 2 and c <= 0: an existence verdict, a NaN sigma*
        ["classify", "--op", PM3, "--p", "nan"],
        # p = inf gave beta* 0: an existence verdict (exit 0)
        ["classify", "--op", PM3, "--p", "inf"],
        ["classify", "--op", PM3, "--p", "2.0", "--gamma", "nan"],
        ["certificate", "--op", str(SAMPLES / "laplacian_n4.json"), "--p", "1.5",
         "--c", "nan", "--cells", "64"],
        # a NaN or infinite sigma_max wrote nan or inf curve rows
        ["certificate", "--op", str(SAMPLES / "laplacian_n4.json"), "--p", "1.5",
         "--sigma-max", "nan", "--cells", "64"],
        ["certificate", "--op", str(SAMPLES / "laplacian_n4.json"), "--p", "1.5",
         "--sigma-max", "inf", "--cells", "64"],
        # NaN solve data: a NaN rhs iterated to a NaN residual (exit 2), and
        # NaN boundary data on a rectangle solved with zero data (exit 0)
        ["solve", "--op", PM3, "--domain", "annulus:1:2", "--rhs-const", "nan",
         "--cells", "16"],
        ["solve", "--op", str(SAMPLES / "pucci_max_n2.json"),
         "--domain", "rectangle:0:1:0:1", "--g1", "nan", "--rhs-const", "1.0",
         "--cells", "4"],
        # 0 cells ended in a ZeroDivisionError traceback on the 2D path
        ["fundamental", "--op", str(SAMPLES / "isaacs_2d.json"), "--cells", "0"],
        # non-finite domain bounds: a NaN or infinite radius ended in a
        # singular factor (exit 2), an infinite side in an OverflowError
        # traceback
        ["solve", "--op", PM3, "--domain", "ball:nan"],
        ["eigen", "--op", PM3, "--domain", "ball:inf"],
        ["solve", "--op", PM3, "--domain", "annulus:1:inf"],
        ["eigen", "--op", str(SAMPLES / "pucci_max_n2.json"),
         "--domain", "rectangle:0:inf:0:1"],
        # an infinite c gave sigma* 0.0 (exit 0)
        ["certificate", "--op", str(SAMPLES / "laplacian_n4.json"), "--p", "1.5",
         "--c", "inf", "--cells", "64"],
        # gamma = -inf made beta* infinite: classify printed Infinity, bend
        # and truncate exited 2
        ["classify", "--op", PM3, "--p", "2.0", "--gamma=-inf"],
        ["bend", "--op", PM3, "--p", "2.0", "--gamma=-inf"],
        ["truncate", "--op", PM3, "--p", "2.0", "--gamma=-inf"],
    ])
    def test_unread_or_bad_setting_is_usage(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err.startswith("usage error: ") and "Traceback" not in out.err
        assert out.out == ""

    def test_grid_too_coarse_for_alpha_star_is_usage(self, tmp_path, capsys):
        # pucci_max(1, 5.5, 6) has alpha* = 26.5; at 40 cells the fit read
        # 45.58 with exit 0
        doc = {"kind": "pucci_max", "n": 6, "lambda": 1.0, "Lambda": 5.5}
        path = write_spec(tmp_path, doc)
        assert main(["fundamental", "--op", str(path), "--cells", "40"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err.startswith("usage error: 40 cells are too coarse")
        assert "at least 74 cells" in out.err and out.out == ""

    @pytest.mark.parametrize("command", ["solve", "eigen", "fundamental", "hadamard",
                                         "certificate"])
    def test_csv_header_holds_the_echo(self, command, capsys):
        # the '#' line of a field or a curve names every input the JSON report
        # echoes, with the same values: a curve carried only the digest, and a
        # fundamental field no digest
        assert main(self.argv(command)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert main([*self.argv(command), "--format", "csv"]) == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("# ")
        header = dict(kv.split("=", 1) for kv in first[2:].split(" "))
        echo = self.COMMANDS[command][1] | {"operator_digest"}
        assert {k: header.get(k) for k in echo} == {k: str(report[k]) for k in echo}

    def test_error_report_echoes_the_inputs(self, capsys):
        # the round-off failure of a 4096-cell solve: exit 2, and the report
        # names its inputs, the filled-in g0 included, beside the error
        argv = ["solve", "--op", PM3, "--domain", "annulus:1:2", "--g0", "1.0",
                "--cells", "4096"]
        assert main(argv) == EXIT_NUMERICAL
        report = json.loads(capsys.readouterr().out)
        assert "round-off floor" in report.pop("error")
        assert report == {"operator_digest": operator_digest(load_operator(PM3)),
                          "domain": "annulus:1:2", "cells": 4096, "rhs_const": 0.0,
                          "g0": 1.0, "g1": 0.0}

    @pytest.mark.parametrize("argv", [
        ["classify", "--op", PM3, "--p", "2.0"],
        ["sweep", "--config", str(SAMPLES / "sweep_classify.json")],
    ], ids=["classify", "sweep"])
    def test_unwritable_out_is_usage(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "missing" / "x")]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err.startswith("usage error: ") and "Traceback" not in out.err
        assert out.out == ""

    @pytest.mark.parametrize("tol", ["3e-9", "1e-13"])
    def test_eigen_tol_reaches_the_iteration_as_given(self, tol, monkeypatch, capsys):
        tols, real = [], spectral.principal_eigenvalue
        monkeypatch.setattr(spectral, "principal_eigenvalue",
                            lambda *a: tols.append(a[3]) or real(*a))
        assert main(["eigen", "--op", PM3, "--domain", "ball:1", "--cells", "32",
                     "--tol", tol]) == EXIT_OK
        assert tols == [float(tol)]
        assert json.loads(capsys.readouterr().out)["tol"] == float(tol)


    def test_radial_commands_run_no_superlu(self, monkeypatch, capsys):
        # a radial sweep factorizes its tridiagonal band with LAPACK alone:
        # the radial commands call gttrf and neither splu nor spsolve
        import scipy.sparse.linalg as spla
        from scipy.linalg import lapack

        calls, gttrf = [], lapack.dgttrf
        for name in ("splu", "spsolve"):
            monkeypatch.setattr(spla, name, lambda *a, name=name, **k: calls.append(name))
        monkeypatch.setattr(lapack, "dgttrf",
                            lambda *a, **k: calls.append("gttrf") or gttrf(*a, **k))
        for argv in (["solve", "--domain", "annulus:1:4", "--rhs-const", "1.0",
                      "--cells", "64"],
                     ["eigen", "--domain", "annulus:1:2", "--cells", "64"],
                     ["eigen", "--domain", "ball:1", "--cells", "64"],
                     ["fundamental", "--cells", "64"],
                     ["hadamard", "--cells", "64"]):
            calls.clear()
            assert main([*argv, "--op", PM3]) == EXIT_OK, argv
            assert set(calls) == {"gttrf"}, (argv, calls)
        capsys.readouterr()


class TestSweep:
    CONFIG = {
        "command": "classify",
        "kind": "pucci_max",
        "axes": {
            "p": [1.2, 1.4, 2.0, 3.0],
            "lambda": [1.0],
            "Lambda": [1.0, 2.0],
            "n": [3, 4],
        },
    }

    def test_one_row_per_axis_combination(self):
        csv_text, failed = run_sweep(self.CONFIG)
        assert not failed
        assert len(csv_text.splitlines()) == 1 + 4 * 2 * 2

    def test_row_content(self):
        csv_text, _ = run_sweep(self.CONFIG)
        rows = [dict(zip(csv_text.splitlines()[0].split(","), line.split(",")))
                for line in csv_text.splitlines()[1:]]
        for row in rows:
            if row["Lambda"] == "1.0" and row["n"] == "3":
                want = ("NONEXISTENCE_EXTERIOR" if float(row["p"]) <= 3.0
                        else "EXISTENCE_SUPERSOLUTION")
                assert row["outcome"] == want

    def test_per_row_errors_recorded(self):
        cfg = {"command": "constant", "kind": "pucci_max",
               "axes": {"p": [0.5, 2.0], "n": [3]}}
        csv_text, failed = run_sweep(cfg)
        assert failed
        lines = csv_text.splitlines()
        assert "ValueError" in lines[1]  # p = 0.5 rejected, row kept
        assert lines[2].endswith(",")  # p = 2.0 succeeded, empty error

    def test_cli_sweep_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["sweep", "--config", str(tmp_path / "missing.json")]) \
            == EXIT_USAGE
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--config", str(bad)]) == EXIT_USAGE
        for cfg, msg in (
                ({"command": "classify", "axes": {"p": 2.0, "n": [3]}},
                 "sweep axis 'p' must be a list"),
                ({"command": "classify", "axes": 5}, "'axes' must map"),
                (["classify"], "must be a JSON object")):
            capsys.readouterr()
            bad.write_text(json.dumps(cfg))
            assert main(["sweep", "--config", str(bad)]) == EXIT_USAGE
            assert msg in capsys.readouterr().err

    def test_output_key_is_gone(self, tmp_path, capsys):
        # --out alone sets where a sweep's CSV goes
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({**self.CONFIG, "output": str(tmp_path / "x.csv")}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err.startswith("usage error: ") and "--out" in out.err
        assert out.out == "" and not (tmp_path / "x.csv").exists()

    def test_jobs_option_is_gone(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        assert main(["sweep", "--config", str(cfg_path), "--jobs", "2"]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    def test_row_cap_enforced(self):
        cfg = {"command": "classify", "kind": "pucci_max",
               "axes": {"p": list(np.linspace(1.1, 5, 1001)),
                        "lambda": [1.0] * 1000,
                        "n": [3, 4]}}
        one, _ = None, None
        with pytest.raises(Exception) as exc:
            run_sweep(cfg)
        assert "row cap" in str(exc.value)
