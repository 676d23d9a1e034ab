#!/usr/bin/env python3
"""fnel benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout and imports fnel from ``src/``.
One client calls fnel's public API in a closed loop: each call starts when
the previous one has returned.  A run calls every job of the workload's
seeded job list once, then calls the timed jobs round-robin for
``--seconds`` seconds and keeps each job's fastest call.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the job
list untraced (repeats for half of ``--seconds``), then once more with every
traced fnel function wrapped, and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The full result, with the environment, goes to ``perfbench/out/``.
"""

import os

# Pin the BLAS thread pools before numpy is imported, here and in the set-up
# subprocesses, which inherit the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5         # set-ups timed, each in a fresh interpreter
TAIL_BEYOND = 10
# Call times are reported as multiples of the reference loop run just before
# each call (calibrate.py), and set-up times as multiples of the run's median
# reference loop; both are converted to seconds by taking the loop as 1 ms.
# It took 0.7-1.5 ms on the 2-CPU Xeon VM the baseline was recorded on.
REFERENCE_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "solved_rate": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verdicts", "radial", "eigen", "grid2d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it as JSON (internal)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def setup(workload, seed):
    """Import fnel, build the job list's operators/specs/problems, warm up.

    Returns (seconds, jobs).
    """
    t0 = time.perf_counter()
    import fnel  # noqa: F401
    import workloads
    jobs = workloads.build(workload, seed, ROOT)
    workloads.warmup(workload, ROOT)
    return time.perf_counter() - t0, jobs


def setup_in_fresh_processes(args):
    """Set-up times, each from a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Outcome of every call of one phase, job by job."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.calls = [[] for _ in jobs]     # wall time of each call of job j
        self.reference = [[] for _ in jobs] # reference loop just before each
        self.bad = [0] * len(jobs)          # items of job j that ever failed
        self.diverged = [False] * len(jobs) # job j hit the pinned known defect
        self.attempted = self.failed = 0
        self.messages = []

    def fail(self, idx, items, msg):
        self.failed += items
        self.bad[idx] = max(self.bad[idx], items)
        job = self.jobs[idx]
        if len(self.messages) < 20:
            self.messages.append(f"{job.kind} [{job.desc[:120]}]: {msg}")

    @property
    def durations(self):
        return [d for times in self.calls for d in times]

    @property
    def timed(self):
        """Indices of the jobs whose calls are repeated and timed."""
        return [j for j, job in enumerate(self.jobs) if not job.once]

    def call_s(self, idx):
        """Job idx's median call time in seconds at reference speed: each
        call's wall time over that of the reference loop run just before
        it, times REFERENCE_S."""
        return REFERENCE_S * statistics.median(
            t / r for t, r in zip(self.calls[idx], self.reference[idx]))

    def wall_s(self, idx):
        return statistics.median(self.calls[idx])

    @property
    def reference_median(self):
        return statistics.median(r for times in self.reference for r in times)

    @property
    def list_items(self):
        return sum(job.items for job in self.jobs)

    def solved_items(self, idx):
        """Items of job idx solved by every call made of it."""
        return 0 if self.diverged[idx] else self.jobs[idx].items - self.bad[idx]

    @property
    def solved(self):
        return sum(self.solved_items(j) for j in range(len(self.jobs)))

    @property
    def diverged_items(self):
        return sum(job.items for job, div in zip(self.jobs, self.diverged) if div)

    def items_per_s(self, per_job):
        """Solved items of the timed jobs per second of one call of each,
        timed by ``per_job(idx)``."""
        return (sum(self.solved_items(j) for j in self.timed)
                / sum(per_job(j) for j in self.timed))


def run_job(idx, job, store, tally, tracer, diverged_exc):
    traced = tracer is not None
    if traced:
        tracer.job = idx
    root = tracer.span("bench.call") if traced else contextlib.nullcontext()
    tally.attempted += job.items
    times = tally.calls[idx]
    t0 = time.perf_counter()
    try:
        with root:
            out = job.call(store)
    except diverged_exc as exc:
        times.append(time.perf_counter() - t0)
        if job.defect:
            tally.diverged[idx] = True
        else:
            tally.fail(idx, job.items, f"{type(exc).__name__}: {exc}")
        return
    except Exception as exc:  # a failed call is recorded, the run goes on
        times.append(time.perf_counter() - t0)
        tally.fail(idx, job.items, f"{type(exc).__name__}: {exc}")
        return
    times.append(time.perf_counter() - t0)
    if job.key:
        store[job.key] = out
    with tracer.span("bench.oracle") if traced else contextlib.nullcontext():
        bad = job.check(out, store)
    nbad = min(len(bad), job.items)
    if nbad:
        tally.fail(idx, nbad, "; ".join(bad[:3]))


def run_timed(jobs, budget_s, tally, tracer=None):
    """Call every job once, in order; then call the timed jobs round-robin
    for ``budget_s`` seconds.

    Before each call of a timed job the reference loop runs once, so that
    every call time can be set against the speed the machine had at that
    moment.  Jobs marked ``once`` (single calls too long to repeat) are
    called in the first round only.
    """
    from calibrate import timed_reference
    from fnel.solver import PolicyIterationDiverged

    def call(idx):
        if not jobs[idx].once:
            tally.reference[idx].append(timed_reference())
        run_job(idx, jobs[idx], store, tally, tracer, PolicyIterationDiverged)

    store = {}
    for idx in range(len(jobs)):
        call(idx)
    t_start = time.perf_counter()
    timed = tally.timed
    while timed:
        for idx in timed:
            if time.perf_counter() - t_start + min(tally.calls[idx]) > budget_s:
                return
            call(idx)


def tail_percentile(n_jobs):
    """Highest percentile (0.1 steps) with TAIL_BEYOND of the n_jobs
    per-job times beyond it, and never below the median.

    Fixed by the job list, so it does not move with the number of calls a
    run fits in.
    """
    q = math.floor(1000.0 * (n_jobs - TAIL_BEYOND) / n_jobs) / 10.0
    return max(50.0, q)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fnel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fnel", "__init__.py")):
        print(f"error: no fnel sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setups = [] if args.trace else setup_in_fresh_processes(args)
    main_setup, jobs = setup(args.workload, args.seed)
    import fnel
    if not os.path.abspath(fnel.__file__).startswith(SRC + os.sep):
        print(f"error: fnel imported from {fnel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    sys.stdout.flush()  # the jobs=2 sweep forks; nothing may sit in the buffer

    tally = Tally(jobs)
    run_timed(jobs, args.seconds / 2.0 if args.trace else float(args.seconds),
              tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = tally.timed
    per_job = [tally.call_s(j) for j in timed]
    q = tail_percentile(len(timed))
    tail = nearest_rank(per_job, q)
    wall = [tally.wall_s(j) for j in timed]
    tallies = [tally]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "client": "closed loop, 1 client, 1 process (the jobs=2 sweep forks 2 workers)",
        "reference_loop_s": REFERENCE_S,
        "jobs": len(jobs), "timed_jobs": len(timed),
        "calls": len(tally.durations), "tail_percentile": q,
        "calls_beyond_tail": sum(d > tail for d in per_job),
        "setup_s_samples": setups,
        "setup_s_main_process": main_setup,
        "attempted": tally.attempted, "failed": tally.failed,
        "job_list_items": tally.list_items, "solved": tally.solved,
        "diverged_known_defect": tally.diverged_items,
        "fail_rate": 1.0 - tally.solved / tally.list_items,
        "timed_s": sum(tally.durations),
        "wall_clock": {"setup_s": statistics.median(setups) if setups else None,
                       "items_per_s": tally.items_per_s(tally.wall_s),
                       "call_s_p50": nearest_rank(wall, 50.0),
                       "call_s_tail": nearest_rank(wall, q)},
        "jobs_detail": [{"desc": job.desc, "once": job.once,
                         "wall_s": tally.calls[j],
                         "reference_s": tally.reference[j]}
                        for j, job in enumerate(jobs)],
    }

    if args.trace:
        import numpy as np
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        traced = Tally(jobs)
        try:
            run_timed(jobs, 0.0, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced)

        def first_call(t):
            return t.items_per_s(lambda j: t.calls[j][0])

        overhead = first_call(traced) / first_call(tally)
        metrics = {name: metric(value, tracing.LAYER_METRICS[name])
                   for name, value in tracer.layer_metrics(overhead).items()}
        os.makedirs(OUT, exist_ok=True)
        spans = tracer.arrays()
        names = sorted(tracer.names, key=tracer.names.get)
        np.savez(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"),
                 names=np.array(names), **spans)
        detail["traced_round"] = {"spans": len(spans["start_ns"]),
                                  "items_per_s": first_call(traced),
                                  "solved": traced.solved, "failed": traced.failed}
    else:
        values = {
            "setup_s": (statistics.median(setups) * REFERENCE_S
                        / tally.reference_median),
            "items_per_s": tally.items_per_s(tally.call_s),
            "call_s_p50": nearest_rank(per_job, 50.0),
            "call_s_tail": tail,
            "solved_rate": tally.solved / tally.list_items,
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: metric(v, END_TO_END[name]) for name, v in values.items()}

    failed = sum(t.failed for t in tallies)
    result = {"correct": failed == 0,
              "attempted": sum(t.attempted for t in tallies),
              "failed": failed, "metrics": metrics}
    detail["failures"] = [m for t in tallies for m in t.messages]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} env={json.dumps(detail['env'])}")
    print(f"# {len(tally.durations)} calls of {len(jobs)} jobs; tail = p{q} of "
          f"the {len(timed)} timed jobs' median call times "
          f"({detail['calls_beyond_tail']} beyond); fail_rate "
          f"{detail['fail_rate']:.4f} = ({tally.diverged_items} items of pinned "
          f"defect cases that raised PolicyIterationDiverged + "
          f"{tally.list_items - tally.solved - tally.diverged_items} failed) / "
          f"{tally.list_items} items of the job list; {tally.failed} of "
          f"{tally.attempted} items attempted failed")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("# unnormalized wall clock: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in detail["wall_clock"].items()))
    for msg in detail["failures"]:
        print(f"# FAILED {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
