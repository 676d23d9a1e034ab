#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/collect.py --workloads radial eigen --seeds 1-10

For each workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  A spread
under a third of the bound is marked ok.  ``--write-baseline`` stores the
medians and quartiles in perfbench/baseline.json.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    summary = {}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            wall = time.perf_counter() - t0
            runs.append({"seed": seed, "wall_s": wall, **res})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"wall={wall:.1f}s {vals}",
                  flush=True)
        raw[workload] = runs
        if len(runs) < 2:
            continue
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if sp < bound / 3 else "WIDE")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": sp,
                                       "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload:8s} {name:24s} median={med:.5g} q1={q1:.5g} "
                  f"q3={q3:.5g} spread={sp:.4f} bound={bound} {flag}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(HERE, "out", f"collect-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "trace": args.trace, "runs": raw,
                   "summary": summary}, fh, indent=1)
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        base = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                base = json.load(fh)
        key = "per_layer" if args.trace else "end_to_end"
        base.setdefault(key, {}).update(summary)
        base.setdefault("seeds", {})[key] = args.seeds
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(base, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
