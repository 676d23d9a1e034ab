"""Operator spec files and the command-line interface."""

import json
import math

import numpy as np
import pytest

from fnel.cli import (
    EXIT_BAD_SPEC, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, run_sweep,
)
from fnel.matcore import ISAACS, eval_operator, pucci_max
from fnel.matcore import SymMatrix
from fnel.opspec import (
    SpecError, load_operator, operator_digest, parse_operator_spec,
    serialize_operator,
)

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
    ])
    def test_error_names_offending_field(self, doc, field):
        with pytest.raises(SpecError) as exc:
            parse_operator_spec(doc)
        assert field in str(exc.value)

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

    import pathlib
    SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

    @pytest.mark.parametrize("name", ["pucci_max_n3.json", "laplacian_n4.json",
                                      "isaacs_2d.json"])
    def test_operator_specs_parse(self, name):
        load_operator(str(self.SAMPLES / name))

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

    def test_classify_output_reproduces(self, tmp_path):
        out = tmp_path / "classify.json"
        code = main(["classify", "--op",
                     str(self.SAMPLES / "pucci_max_n3.json"),
                     "--p", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == json.loads(
            (self.SAMPLES / "classify_output.json").read_text())


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
