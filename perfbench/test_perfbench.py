"""Tests of the benchmark itself (not part of the fnel test suite).

    python3 -m pytest -q perfbench

The traced and untraced runs below run the real command with ``--seconds 1``,
so the whole file takes a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name),
              encoding="utf-8") as fh:
        return json.load(fh)


def bench_run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(jobs):
    return [(j.kind, j.desc, j.items, j.defect, j.once) for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = describe(workloads.build(workload, 7, ROOT))
    again = describe(workloads.build(workload, 7, ROOT))
    other = describe(workloads.build(workload, 8, ROOT))
    assert first == again
    assert first != other
    # the seed draws values; the kinds of job, their order and which of
    # them are timed stay fixed
    assert [(d[0], d[4]) for d in first] == [(d[0], d[4]) for d in other]


def test_radial_keeps_the_known_defect_cases():
    jobs = workloads.build("radial", 7, ROOT)
    pinned = [j.desc for j in jobs if j.defect]
    assert len(pinned) == 4
    assert all(j.once for j in jobs if j.defect)
    assert any("pucci_min" in d and "cells=512" in d for d in pinned)
    for cells in (1024, 2048, 4096):
        assert any(f"cells={cells}" in d for d in pinned)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_jobs_leave_ten_beyond_the_tail(workload):
    timed = [j for j in workloads.build(workload, 7, ROOT) if not j.once]
    assert len(timed) >= 2 * run.TAIL_BEYOND
    assert run.tail_percentile(len(timed)) > 50.0


def test_reference_loop_does_not_use_fnel():
    code = ("import sys, calibrate; calibrate.reference_work(); "
            "print([m for m in sys.modules if m.split('.')[0] == 'fnel'])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_benchmark_json_matches_the_code():
    bench = load("BENCHMARK.json")
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.LAYER_METRICS
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_layer_map_covers_every_layer_metric():
    bench = load("BENCHMARK.json")
    entries = load("layer_map.json")["entries"]
    mapped = [name for e in entries for name in e["layers"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    e2e = {m["name"] for m in bench["end_to_end"]}
    for e in entries:
        for metric, workload in e["moves"]:
            assert metric in e2e and workload in workloads.WORKLOADS
        assert set(e["no_change"]) <= set(workloads.WORKLOADS)


def test_baseline_lists_every_workload_and_metric():
    bench = load("BENCHMARK.json")
    base = load("baseline.json")["end_to_end"]
    for workload in workloads.WORKLOADS:
        assert set(base[workload]) == {m["name"] for m in bench["end_to_end"]}
        solved = base[workload]["solved_rate"]["median"]
        # the known false divergence makes radial the only workload that fails
        assert (solved < 1.0) if workload == "radial" else (solved == 1.0)


def test_untraced_run_prints_the_end_to_end_metrics():
    res = last_json(bench_run("verdicts", 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


EXPECT_SPANS = {
    "verdicts": ["matcore.eval_operator.calls", "opspec.parse_operator_spec.calls",
                 "scaling.alpha_star.calls", "cli.run_sweep.calls",
                 "matcore.operator_build.calls"],
    "radial": ["solver.solve_dirichlet_radial.calls", "solver.residual_norm.calls",
               "solver.radial_unknowns"],
    "eigen": ["spectral.principal_eigenvalue.calls", "spectral.inner_solves",
              "spectral.iterations", "solver.solve_dirichlet_2d.calls"],
    "grid2d": ["solver.solve_dirichlet_2d.calls", "solver.interior_nodes_2d",
               "solver.residual_norm.calls"],
}
EXPECT_NONE = {
    "verdicts": ["solver.solve_dirichlet_radial.calls", "solver.solve_dirichlet_2d.calls",
                 "solver.residual_norm.calls", "spectral.principal_eigenvalue.calls"],
    "radial": ["solver.solve_dirichlet_2d.calls", "spectral.principal_eigenvalue.calls"],
    "eigen": ["cli.run_sweep.calls"],
    "grid2d": ["matcore.eval_operator.calls", "solver.solve_dirichlet_radial.calls",
               "spectral.principal_eigenvalue.calls"],
}
EXPECT_SELF = {
    "verdicts": ["liouville.bend_fundamental.self_s", "liouville.critical_log_check.self_s",
                 "liouville.fixed_point.self_s", "matcore.verify_ellipticity.self_s"],
    "radial": ["liouville.hadamard_check.self_s",
               "liouville.build_global_supersolution.self_s",
               "solver.fundamental_profile.self_s"],
    "eigen": ["liouville.nonexistence_certificate.self_s"],
    "grid2d": [],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_the_layers_it_stresses(workload):
    res = last_json(bench_run(workload, 1))
    assert res["correct"], res
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == tracer.LAYER_METRICS
    for name in EXPECT_SPANS[workload] + EXPECT_SELF[workload]:
        assert metrics[name] > 0, name
    for name in EXPECT_NONE[workload]:
        assert metrics[name] == 0, name
    assert metrics["trace.overhead"] > 0
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed3.npz")
    assert os.path.getsize(spans) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench_run("verdicts", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
