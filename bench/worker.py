"""One benchmark process: runs a workload for a time window and writes its
measurements as JSON.  `bench/run.py` starts it with the BLAS thread count
fixed; see `bench/README.md` for the workloads and metrics.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out FILE [--reps K]
    python3 bench/worker.py --record        # re-record reference.json

Work is repeated in identical repetitions ("reps") until the window has
elapsed and at least the workload's `min_reps` are done.  The reps do the
same work, so the spread of their times is the host's: the window metrics
come from the faster half of them.  A rep is one `ipcs.run` call
(the two run workloads) or a fixed number of `ipcs.step` calls from a
seeded state (`bubbly_vi`).  Its set-up lasts from the config to the end
of the first attempted step; its timed window is everything after that.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from twofluid import caseio, ipcs
from twofluid.errors import StagnationError, StepFailureError

import bubbly
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Final holdup may differ from the recorded reference by this share of it:
# far above the last-digit changes that another BLAS thread count gives,
# far below what a wrong step gives.
HOLDUP_RTOL = 1e-6
BUBBLY_STATES = 16          # the seed picks one of these recorded states
BUBBLY_ATTEMPTS = 40


def run_config(name, out_dir):
    cfg = caseio.CaseConfig()
    if name == "startup_coarse":
        cfg.nx, cfg.ny = 10, 20
        cfg.t_end, cfg.output_every = 0.0125, 0.00125
    else:                                       # paper_mesh: 50x100
        cfg.t_end, cfg.output_every = 2e-6, 1e-6
    cfg.output_dir = out_dir
    return cfg


# tail: the step-time percentile reported as step_ms_tail, the highest
# that leaves at least ten accepted steps beyond it in the faster half of
# min_reps reps.
WORKLOADS = {
    "startup_coarse": {"kind": "run", "min_reps": 4, "tail": 98.0},
    "paper_mesh": {"kind": "run", "min_reps": 6, "tail": 75.0},
    "bubbly_vi": {"kind": "steps", "min_reps": 6, "tail": 90.0},
}


class StepClock:
    """Wraps `ipcs.step`: timestamps each attempt and checks every accepted
    state.  Time spent in the checks is taken off the clock."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.paused = 0.0
        self.first_end = None
        self.t_first = None
        self.ends = []
        self.attempted = 0
        self.rejected = 0
        self.mass_max = 0.0
        self.bound_violation = 0.0
        self.identity_error = 0.0
        self.finite = True

    def now(self):
        return time.perf_counter() - self.paused

    def wrap(self, step):
        def clocked(*args, **kwargs):
            new_state, report = step(*args, **kwargs)
            end = self.now()
            check_start = time.perf_counter()
            self._record(new_state, report, end)
            self.paused += time.perf_counter() - check_start
            return new_state, report
        return clocked

    def _record(self, state, report, end):
        self.attempted += 1
        if self.first_end is None:
            self.first_end = end
            self.t_first = state.t_tilde
            if self.tracer is not None:
                self.tracer.phase = "window"
        elif report.accepted:
            self.ends.append(end)
        if not report.accepted:
            self.rejected += 1
            return
        a_g = state.alpha_g.coefficients
        a_l = state.alpha_l.coefficients
        self.mass_max = max(self.mass_max, report.mass_balance_residual)
        self.bound_violation = max(self.bound_violation, -float(a_g.min()),
                                   float(a_g.max()) - 1.0)
        self.identity_error = max(self.identity_error,
                                  float(np.max(np.abs(a_l - (1.0 - a_g)))))
        self.finite &= all(bool(np.all(np.isfinite(f.coefficients)))
                           for f in (state.alpha_g, state.alpha_l, state.v_g,
                                     state.v_l, state.p_l))

    def intervals(self):
        """Wall seconds per accepted step: from the end of the previous
        accepted step (or of the first attempt) to the end of this one."""
        marks = [self.first_end] + self.ends
        return [b - a for a, b in zip(marks, marks[1:])]


def _expected_snapshots(cfg):
    ratio = cfg.t_end / cfg.output_every
    whole = math.floor(ratio + 1e-9)
    return 1 + whole + (0 if abs(ratio - whole) < 1e-9 else 1)


def _check_run_outputs(cfg, result, clock):
    """Problems with the files a run wrote; empty when all is well."""
    problems = []
    with open(result.series_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    accepted = clock.attempted - clock.rejected
    if len(rows) != accepted + 1:
        problems.append(f"series.csv has {len(rows)} rows for "
                        f"{accepted} accepted steps")
    col = {name: k for k, name in enumerate(header)}
    if any(r[col["accepted"]] != "1" for r in rows):
        problems.append("series.csv holds a rejected row")
    if float(rows[-1][col["holdup"]]) != float(result.holdup[-1]):
        problems.append("series.csv final holdup differs from the result")
    want = _expected_snapshots(cfg)
    on_disk = len(glob.glob(os.path.join(cfg.output_dir, "snap_*.vtk")))
    if on_disk != want or len(result.snapshots) != want:
        problems.append(f"{on_disk} snapshots on disk, "
                        f"{len(result.snapshots)} reported, {want} expected")
    return problems


def run_rep(name, seed, rep, clock, reference):
    """One repetition; returns its measurements and check results."""
    t0 = clock.now()
    if WORKLOADS[name]["kind"] == "run":
        out_dir = os.path.join(WORK, f"{name}-seed{seed}-rep{rep}")
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = run_config(name, out_dir)
        result = ipcs.run(cfg)
        end = clock.now()
        state = result.state
        initial_holdup = float(result.holdup[0])
        problems = _check_run_outputs(cfg, result, clock)
        final_holdup = float(result.holdup[-1])
        want = reference[name]["holdup"]
        shutil.rmtree(out_dir, ignore_errors=True)
    else:
        cfg = bubbly.config()
        mesh = cfg.build_mesh()
        spaces = caseio.build_spaces(mesh)
        state = bubbly.state(cfg, spaces, seed % BUBBLY_STATES)
        initial_holdup = bubbly.holdup(state.alpha_g, mesh)
        dt, warm = min(cfg.dt_init, cfg.dt_max), {}
        for _ in range(BUBBLY_ATTEMPTS):
            new_state, report = ipcs.step(state, dt, cfg, warm=warm)
            if report.accepted:
                state = new_state
            dt = report.dt_next
        end = clock.now()
        problems = []
        final_holdup = bubbly.holdup(state.alpha_g, mesh)
        want = reference[name]["holdup"][seed % BUBBLY_STATES]
    t_s = cfg.scales().t_s
    rel_err = abs(final_holdup - want) / abs(want)
    if clock.bound_violation > 0.0:
        problems.append(f"alpha_g leaves [0, 1] by {clock.bound_violation:g}")
    if clock.identity_error > 1e-14:
        problems.append(f"alpha_l != 1 - alpha_g by {clock.identity_error:g}")
    if not clock.finite:
        problems.append("a field holds a non-finite value")
    if rel_err > HOLDUP_RTOL:
        problems.append(f"final holdup {final_holdup!r} is {rel_err:.2e} "
                        f"from the reference {want!r}")
    return {
        "setup_s": clock.first_end - t0,
        "window_s": end - clock.first_end,
        "sim_s": (state.t_tilde - clock.t_first) * t_s,
        "intervals_s": clock.intervals(),
        "attempted": clock.attempted,
        "rejected": clock.rejected,
        "initial_holdup": initial_holdup,
        "final_holdup": final_holdup,
        "holdup_rel_err": rel_err,
        "mass_defect_max": clock.mass_max,
        "alpha_bound_violation": max(clock.bound_violation, 0.0),
        "problems": problems,
        "failure": None,
    }


def run_reps(name, seed, seconds, reps, tracer, reference):
    """Repeat the workload until the window has elapsed (or `reps` times)."""
    original = ipcs.step
    results = []
    start = time.perf_counter()
    min_reps = WORKLOADS[name]["min_reps"] if reps is None else reps
    try:
        while len(results) < min_reps or (
                reps is None and time.perf_counter() - start < seconds):
            clock = StepClock(tracer)
            if tracer is not None:
                tracer.rep, tracer.phase = len(results), "setup"
            ipcs.step = clock.wrap(original)
            try:
                results.append(run_rep(name, seed, len(results), clock,
                                       reference))
            except (StepFailureError, StagnationError) as exc:
                results.append({"failure": f"{type(exc).__name__}: {exc}",
                                "problems": []})
            finally:
                ipcs.step = original
    finally:
        ipcs.step = original
    return results


def end_to_end(name, results):
    ok = [r for r in results if r["failure"] is None]
    fast = sorted(ok, key=lambda r: r["window_s"])[:(len(ok) + 1) // 2]
    intervals = [t for r in fast for t in r["intervals_s"]]
    level = WORKLOADS[name]["tail"]
    tail = float(np.percentile(intervals, level))
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "sim_rate": (sum(r["sim_s"] for r in fast)
                     / sum(r["window_s"] for r in fast), "1/s"),
        "step_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "MB"),
        "mass_defect_max": (max(r["mass_defect_max"] for r in ok), "1"),
    }, {
        "step_ms_p50": 1e3 * statistics.median(intervals),
        "step_tail_level": level,
        "step_tail_beyond": sum(1 for t in intervals if t > tail),
        "step_samples": len(intervals),
        "reps_used": len(fast),
        "holdup_rel_err": max(r["holdup_rel_err"] for r in ok),
        "alpha_bound_violation": max(r["alpha_bound_violation"] for r in ok),
    }


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference():
    """Re-record every workload's final holdup with one rep each."""
    reference = {"startup_coarse": {"holdup": 1.0},
                 "paper_mesh": {"holdup": 1.0},
                 "bubbly_vi": {"holdup": [1.0] * BUBBLY_STATES}}
    found = {}
    for name in ("startup_coarse", "paper_mesh"):
        (r,) = run_reps(name, 0, 0, 1, None, reference)
        found[name] = {"holdup": r["final_holdup"]}
    runs = [run_reps("bubbly_vi", seed, 0, 1, None, reference)[0]
            for seed in range(BUBBLY_STATES)]
    found["bubbly_vi"] = {"initial": [r["initial_holdup"] for r in runs],
                          "holdup": [r["final_holdup"] for r in runs]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--out")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    if args.record:
        record_reference()
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        results = run_reps(args.workload, args.seed, args.seconds,
                           args.reps, tracer, load_reference())
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "reps": len(results), "python": platform.python_version(),
           "numpy": np.__version__, "blas": blas_info(),
           "results": results}
    if any(r["failure"] is None for r in results):
        out["metrics"], out["info"] = end_to_end(args.workload, results)
    if tracer is not None:
        # spans of a failed rep would skew the split, so none is given then
        if all(r["failure"] is None for r in results):
            cfg = (bubbly.config() if args.workload == "bubbly_vi"
                   else run_config(args.workload, WORK))
            out["layers"] = tracing.layer_metrics(
                tracer.spans, len(results),
                sum(r["window_s"] for r in results),
                (cfg.nx + 1) * (cfg.ny + 1))
        tracer.write(os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
