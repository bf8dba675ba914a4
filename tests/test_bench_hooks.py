"""The span tracer of `bench/tracing.py` wraps solver functions by module
attribute name and matches each step's Krylov solves, in call order, to
the keys of `StepReport.linear_iterations`.  A rename or reorder under
`src/` breaks `bench/run.py --trace 1`; this catches it in tier-1."""

import dataclasses
import os
import sys

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from tracing import ATTRS, ID, NAME, PARENT  # noqa: E402
from twofluid import caseio, ipcs  # noqa: E402
from twofluid.mesh import BoundaryTag  # noqa: E402

KRYLOV = ("linalg.bicgstab", "linalg.cg")


def _attempts(cfg, n):
    """n chained step attempts on 4x8 from rest, with gas on the interior
    nodes: the VI holds the boundary data, so only interior gas gives it
    reduced solves to make."""
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    p1 = state.alpha_g.space
    alpha = np.full(p1.dof_count, 0.02)
    alpha[p1.boundary_nodes(*BoundaryTag)] = 0.0
    state = dataclasses.replace(state, alpha_g=p1.field(alpha),
                                alpha_l=p1.field(1.0 - alpha))
    dt, warm, reports = cfg.dt_init, {}, []
    for _ in range(n):
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        reports.append(report)
        if report.accepted:
            state = new
        dt = report.dt_next
    return reports


def test_tracer_wraps_every_hook_and_matches_step_reports():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in tracing.WRAPPED]
    assert all(callable(fn) for _, _, fn in originals)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = (_attempts(caseio.CaseConfig(nx=4, ny=8), 6)
                   + _attempts(caseio.CaseConfig(nx=4, ny=8,
                                                 alpha_scheme="linear"), 6))
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn

    spans = tracer.spans
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    tracing._label_solves(spans, children)    # raises on any mismatch

    steps = [s for s in spans if s[NAME] == "ipcs.step"]
    assert len(steps) == len(reports)
    assert any(r.accepted for r in reports)
    assert any(not r.accepted for r in reports)
    # both schemes update alpha by the VI, with no Krylov solve of its own
    assert not any("alpha" in r.linear_iterations for r in reports)
    for span, report in zip(steps, reports):
        below = children.get(span[ID], [])
        solves = [c for c in below if c[NAME] in KRYLOV]
        assert [c[ATTRS]["substep"] for c in solves] == [
            key.split("_")[0] for key in report.linear_iterations]
        vi = [c[ATTRS]["iters"] for c in below
              if c[NAME] == "vi.solve_box_vi"]
        assert vi == ([report.vi_iterations] if report.accepted else [])
    assert any(s[NAME] == "vi.reduced.lu" for s in spans)
