"""Benchmark of the twofluid solver: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a child process
(`bench/worker.py`) with the BLAS thread count fixed to 1.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same workload runs once untraced
and once traced, and the JSON holds the per-layer metrics plus the
tracing overhead.  Workloads, metrics and checks: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 170.0          # keeps one invocation under three minutes
TRACED_REPS = 3             # the traced run repeats the first reps only
# One BLAS thread: on a 2-vCPU host a second thread gave no speed-up on
# paper_mesh, and one thread makes results independent of nproc.
BLAS_THREADS = 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(args, trace, reps, env, deadline):
    out = os.path.join(
        WORK, f"result-{args.workload}-seed{args.seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    # the worker's own output goes to stderr: stdout ends with our JSON
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def verdict(result):
    """(attempted reps, failed reps, problems) of one worker's result."""
    problems, failed = [], 0
    for k, rep in enumerate(result["results"]):
        if rep["failure"] or rep["problems"]:
            failed += 1
            problems += [f"rep {k}: {p}" for p in
                         ([rep["failure"]] if rep["failure"] else [])
                         + rep["problems"]]
    return len(result["results"]), failed, problems


def same_program(untraced, traced):
    """Problems if tracing changed what the solver did."""
    problems = []
    for k, (a, b) in enumerate(zip(untraced["results"], traced["results"])):
        for key in ("attempted", "rejected", "final_holdup"):
            if a.get(key) != b.get(key):
                problems.append(f"rep {k}: traced {key} {b.get(key)!r} != "
                                f"untraced {a.get(key)!r}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="twofluid benchmark")
    parser.add_argument("--workload", required=True,
                        help="startup_coarse, bubbly_vi or paper_mesh")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twofluid", "ipcs.py")):
        print(f"bench: no solver sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    os.makedirs(WORK, exist_ok=True)

    try:
        untraced = run_worker(args, 0, None, env, deadline)
        attempted, failed, problems = verdict(untraced)
        if args.trace:
            traced = run_worker(args, 1, TRACED_REPS, env, deadline)
            n, f, p = verdict(traced)
            attempted, failed = attempted + n, failed + f
            problems += [f"traced {x}" for x in p] + same_program(untraced,
                                                                   traced)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if "metrics" not in untraced or (args.trace and "layers" not in traced):
        print("bench: no metrics: every rep failed, or a traced rep did",
              file=sys.stderr)
        for p in problems:
            print(f"bench: {p}", file=sys.stderr)
        return 1

    metrics = untraced["metrics"]
    info = untraced["info"]
    env_line = (f"nproc={nproc} cpu={cpu_model()!r} blas={untraced['blas']!r}"
                f" blas_threads={BLAS_THREADS} python={untraced['python']}"
                f" numpy={untraced['numpy']}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{untraced['reps']} reps, {env_line}")
    print("end to end (untraced):")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  step_ms_p50 = {info['step_ms_p50']:.6g} ms")
    print(f"  holdup_rel_err = {info['holdup_rel_err']:.3g} 1")
    print(f"  alpha_bound_violation = {info['alpha_bound_violation']:.3g} 1")
    print(f"  fail_ratio = {failed / attempted:.3g} 1")
    print(f"  (step times and sim_rate from the faster {info['reps_used']} "
          f"reps; step_ms_tail is p{info['step_tail_level']:g} of "
          f"{info['step_samples']} accepted steps, "
          f"{info['step_tail_beyond']} beyond it)")
    if args.trace:
        metrics = dict(traced["layers"])
        # 1 - traced sim_rate / untraced sim_rate over the same reps, which
        # simulate the same time: 1 - untraced wall / traced wall
        walls = [sum(r["window_s"] for r in run["results"][:TRACED_REPS])
                 for run in (untraced, traced)]
        metrics["trace.overhead"] = (1.0 - walls[0] / walls[1], "1")
        print("per layer (traced):")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(f"output checks: {'pass' if not problems else 'FAIL'}")
    for p in problems:
        print(f"    {p}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
