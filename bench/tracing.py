"""Span tracing of the solver's layers, installed from outside the package.

`Tracer.install()` replaces the public functions of `ipcs`, `fem`,
`linalg`, `vi`, `caseio` and `post` by wrappers, at the module attributes
through which the solver calls them, and `uninstall()` puts the originals
back.  Each call records a span (id, parent id, name, rep, phase, start, end,
attributes); spans stay in memory until `write()` dumps them as JSON
lines.  Nothing under `src/` is changed, and the wrappers pass every
argument through untouched, so a traced run computes the same numbers.

`layer_metrics()` turns the spans of the timed window into the per-layer
metrics listed in `bench/README.md`.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from twofluid import caseio, fem, ipcs, post, vi

# (owner, attribute, span name): the call sites the solver goes through.
# Solvers are imported by name into `ipcs` and `vi`, so they are wrapped
# there; the same `linalg.solve_bicgstab` is a tentative/Heun/update solve
# when `ipcs` calls it and a reduced VI solve when `vi` calls it.
WRAPPED = (
    (ipcs, "step", "ipcs.step"),
    (fem, "tentative_velocity_system", "fem.tentative_velocity_system"),
    (fem, "velocity_dependent_load", "fem.velocity_dependent_load"),
    (fem, "assemble_pressure_poisson", "fem.assemble_pressure_poisson"),
    (fem, "assemble_velocity_update", "fem.assemble_velocity_update"),
    (fem, "assemble_alpha_system", "fem.assemble_alpha_system"),
    (ipcs, "solve_bicgstab", "linalg.bicgstab"),
    (ipcs, "solve_cg", "linalg.cg"),
    (ipcs, "solve_box_vi", "vi.solve_box_vi"),
    (vi, "lu_solve_dense", "vi.reduced.lu"),
    (vi, "solve_bicgstab", "vi.reduced.bicgstab"),
    (caseio.SeriesWriter, "write_row", "caseio.write_row"),
    (caseio, "write_snapshot", "caseio.write_snapshot"),
    (post, "gas_holdup", "post.gas_holdup"),
    (post, "slip_and_reynolds", "post.slip_and_reynolds"),
    (caseio.CaseConfig, "build_mesh", "setup.mesh"),
    (caseio, "build_spaces", "setup.spaces"),
    (caseio, "initial_state", "setup.initial_state"),
)

ID, PARENT, NAME, REP, PHASE, START, END, ATTRS = range(8)


def _attrs(name, args, kwargs, out):
    """Counts recorded at the boundary, read from arguments and results."""
    if name in ("linalg.bicgstab", "linalg.cg", "vi.solve_box_vi"):
        attrs = {"iters": kwargs.get("stats", {}).get("iterations", 0)}
        if name != "vi.solve_box_vi":
            attrs["nnz"] = int(args[0].indptr[-1])
        return attrs
    if name in ("vi.reduced.lu", "vi.reduced.bicgstab"):
        return {"size": len(args[1])}
    if name == "caseio.write_snapshot":
        return {"bytes": os.path.getsize(out)}
    if name == "ipcs.step":
        report = out[1]
        return {"accepted": report.accepted, "dt": report.dt_used,
                "dt_next": report.dt_next,
                "mass": report.mass_balance_residual,
                "linear": dict(report.linear_iterations)}
    return None


class Tracer:
    """In-memory span recorder.  `phase` labels new spans ("setup" or
    "window"); `rep` numbers the repetition they belong to."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.rep = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, self.rep,
                    self.phase, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[ATTRS] = _attrs(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "rep": s[REP], "phase": s[PHASE],
                    "start": s[START], "end": s[END], "attrs": s[ATTRS]}))
                fh.write("\n")


def _label_solves(spans, children):
    """Give each Krylov solve called by `ipcs.step` the sub-step key that
    `StepReport.linear_iterations` uses for it.  The step makes its solves
    in the order of that dict's keys; the iteration counts must agree."""
    for s in spans:
        if s[NAME] != "ipcs.step" or s[ATTRS] is None:
            continue
        solves = [c for c in children.get(s[ID], ())
                  if c[NAME] in ("linalg.bicgstab", "linalg.cg")]
        linear = s[ATTRS]["linear"]
        if len(solves) != len(linear):
            raise RuntimeError(
                f"step span {s[ID]}: {len(solves)} solves for "
                f"{len(linear)} sub-step keys")
        for solve, (key, iters) in zip(solves, linear.items()):
            if solve[ATTRS]["iters"] != iters:
                raise RuntimeError(
                    f"step span {s[ID]}: solve iterations "
                    f"{solve[ATTRS]['iters']} do not match {key}={iters}")
            solve[ATTRS]["substep"] = key.split("_")[0]


def layer_metrics(spans, reps, window_wall_s, p1_nodes):
    """Per-layer metrics over the timed window of `reps` repetitions.
    Times are ms per accepted step unless the name ends in `.share` (% of
    the window's wall time) or `_s` (median set-up seconds per rep)."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    _label_solves(spans, children)

    def dur(s):
        return s[END] - s[START]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s[ID], ()))

    window = [s for s in spans if s[PHASE] == "window"]
    steps = [s for s in spans if s[NAME] == "ipcs.step"]
    win_steps = [s for s in window if s[NAME] == "ipcs.step"]
    accepted = [s for s in win_steps if s[ATTRS]["accepted"]]
    n_acc = len(accepted)
    by_name = {}
    for s in window:
        by_name.setdefault(s[NAME], []).append(s)

    def named(name, substep=None):
        return [s for s in by_name.get(name, ())
                if substep is None or s[ATTRS]["substep"] == substep]

    def ms(items, timer=dur):
        return 1e3 * sum(timer(s) for s in items) / n_acc

    def per_step(items, key=None):
        if key is None:
            return len(items) / n_acc
        return sum(s[ATTRS][key] for s in items) / n_acc

    def share(items):
        return 100.0 * sum(dur(s) for s in items) / window_wall_s

    def setup_s(name):
        per_rep = {}
        for s in spans:
            if s[NAME] == name and s[PHASE] == "setup":
                per_rep[s[REP]] = per_rep.get(s[REP], 0.0) + dur(s)
        return statistics.median(per_rep.values())

    attempted = len(steps) / reps
    rejected = sum(1 for s in steps if not s[ATTRS]["accepted"]) / reps
    first_steps = {}
    for s in steps:
        first_steps.setdefault(s[REP], s)
    last_accepted = {}
    for s in steps:
        if s[ATTRS]["accepted"]:
            last_accepted[s[REP]] = s

    vi_calls = named("vi.solve_box_vi")
    inactive = []
    for s in vi_calls:
        reduced = [c for c in children.get(s[ID], ())
                   if c[NAME].startswith("vi.reduced.")]
        inactive.append(reduced[-1][ATTRS]["size"] if reduced else 0)
    reduced_all = named("vi.reduced.lu") + named("vi.reduced.bicgstab")
    diagnostics = named("post.gas_holdup") + named("post.slip_and_reynolds")
    snaps = named("caseio.write_snapshot")
    snap_bytes = sum(s[ATTRS]["bytes"] for s in spans
                     if s[NAME] == "caseio.write_snapshot")

    m = {
        "ipcs.step.attempted": (attempted, "count"),
        "ipcs.step.rejected": (rejected, "count"),
        "ipcs.step.accept_ratio": (1.0 - rejected / attempted, "1"),
        "ipcs.step.rejected_share":
            (share([s for s in win_steps if not s[ATTRS]["accepted"]]), "%"),
        "ipcs.dt.p50":
            (statistics.median(s[ATTRS]["dt"] for s in steps
                               if s[ATTRS]["accepted"]), "1"),
        "ipcs.dt.final":
            (statistics.median(s[ATTRS]["dt_next"]
                               for s in last_accepted.values()), "1"),
        "ipcs.step.self_ms": (ms(win_steps, self_time), "ms"),
        "ipcs.mass_defect.p50":
            (statistics.median(s[ATTRS]["mass"] for s in accepted), "1"),
        "fem.tentative_velocity_system.self_ms":
            (ms(named("fem.tentative_velocity_system"), self_time), "ms"),
        "fem.velocity_dependent_load.ms":
            (ms(named("fem.velocity_dependent_load")), "ms"),
        "fem.velocity_dependent_load.calls":
            (per_step(named("fem.velocity_dependent_load")), "count"),
        "fem.assemble_pressure_poisson.ms":
            (ms(named("fem.assemble_pressure_poisson")), "ms"),
        "fem.assemble_velocity_update.ms":
            (ms(named("fem.assemble_velocity_update")), "ms"),
        "fem.assemble_alpha_system.ms":
            (ms(named("fem.assemble_alpha_system")), "ms"),
    }
    for sub in ("tentative", "heun", "update"):
        solves = named("linalg.bicgstab", sub)
        m[f"linalg.bicgstab.{sub}.ms"] = (ms(solves), "ms")
        m[f"linalg.bicgstab.{sub}.iters"] = (per_step(solves, "iters"),
                                             "count")
    m["linalg.bicgstab.tentative.nnz"] = (
        statistics.median(s[ATTRS]["nnz"]
                          for s in named("linalg.bicgstab", "tentative")),
        "count")
    cg = named("linalg.cg", "pressure")
    m["linalg.cg.pressure.ms"] = (ms(cg), "ms")
    m["linalg.cg.pressure.iters"] = (per_step(cg, "iters"), "count")
    m["linalg.cg.pressure.nnz"] = (
        statistics.median(s[ATTRS]["nnz"] for s in cg), "count")
    m["vi.solve_box_vi.self_ms"] = (ms(vi_calls, self_time), "ms")
    m["vi.solve_box_vi.iters"] = (
        sum(s[ATTRS]["iters"] for s in vi_calls) / len(vi_calls), "count")
    m["vi.inactive.p50"] = (statistics.median(inactive), "count")
    m["vi.inactive.p50_share"] = (
        100.0 * statistics.median(inactive) / p1_nodes, "%")
    m["vi.reduced.ms"] = (ms(reduced_all), "ms")
    for branch in ("lu", "bicgstab"):
        m[f"vi.reduced.{branch}.calls"] = (
            per_step(named(f"vi.reduced.{branch}")), "count")
    m["caseio.write_row.share"] = (share(named("caseio.write_row")), "%")
    m["caseio.write_row.calls"] = (per_step(named("caseio.write_row")),
                                   "count")
    m["caseio.write_snapshot.share"] = (share(snaps), "%")
    m["caseio.write_snapshot.bytes"] = (snap_bytes / reps, "B")
    m["post.diagnostics.share"] = (share(diagnostics), "%")
    m["post.diagnostics.calls"] = (per_step(diagnostics), "count")
    m["setup.mesh_s"] = (setup_s("setup.mesh"), "s")
    m["setup.spaces_s"] = (setup_s("setup.spaces"), "s")
    m["setup.first_step_s"] = (
        statistics.median(dur(s) for s in first_steps.values()), "s")
    return m
