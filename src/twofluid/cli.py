"""Command-line entry point.

Subcommands:
  run                advance the configured case, writing series + snapshots
  analyze            spectral pipeline on one snapshot file
  terminal-velocity  print the correlation and force-balance terminal speeds
  convergence        repeat the run over a mesh list and compare holdups

Exit codes: 0 success, 1 usage, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import caseio, fem, ipcs, mesh as meshmod, physics, post
from .errors import ConfigError, SolverFailureError, TwoFluidError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twofluid",
        description="Phase-bounded two-fluid column solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance a case to t_end")
    run_p.add_argument("--config", help="path to a case.cfg file")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="K=V", help="config override (repeatable)")
    run_p.add_argument("--t-end", type=float, dest="t_end",
                       help="end time in seconds")
    run_p.add_argument("--unbounded", action="store_true",
                       help="replace the VI update with a plain linear solve")
    run_p.add_argument("--quiet", action="store_true")

    an_p = sub.add_parser("analyze", help="spectral analysis of a snapshot")
    an_p.add_argument("snapshot", help="snap_XXXXXX.vtk file")
    an_p.add_argument("--grid", default="64x128", metavar="NXxNY",
                      help="resampling grid (default 64x128)")
    an_p.add_argument("--out", default=".", help="output directory")

    tv_p = sub.add_parser("terminal-velocity",
                          help="correlation vs force-balance rise speed")
    tv_p.add_argument("--config", help="path to a case.cfg file")
    tv_p.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="K=V")

    cv_p = sub.add_parser("convergence", help="holdup comparison over meshes")
    cv_p.add_argument("--config", help="path to a case.cfg file")
    cv_p.add_argument("--meshes", default="25,50",
                      help="comma list of cell counts across the width")
    cv_p.add_argument("--t-end", type=float, dest="t_end", default=None)
    cv_p.add_argument("--out", help="output directory override")
    cv_p.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="K=V")
    return parser


def _load(args):
    if getattr(args, "config", None):
        cfg = caseio.load_config(args.config)
    else:
        cfg = caseio.CaseConfig()
    caseio.apply_overrides(cfg, getattr(args, "overrides", []))
    if getattr(args, "t_end", None) is not None:
        cfg.t_end = args.t_end
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "unbounded", False):
        cfg.bounded = False
    return cfg.validate()


def _cmd_run(args):
    cfg = _load(args)
    result = ipcs.run(cfg, quiet=args.quiet)
    accepted = sum(report.accepted for report in result.reports)
    print(f"finished t = {result.t_seconds[-1]:.4f} s after "
          f"{accepted} accepted steps")
    print(f"final holdup = {result.holdup[-1]:.6f}")
    print(f"min(alpha_g) over run = {result.min_alpha_g.min():.3e}")
    print(f"series: {result.series_path}")
    return 0


def _cmd_analyze(args):
    try:
        nx, ny = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        print(f"bad --grid '{args.grid}', expected NXxNY", file=sys.stderr)
        return 1
    verts, cells, data, meta = caseio.read_snapshot(args.snapshot)
    grid_nx, grid_ny = int(meta.get("nx", 0)), int(meta.get("ny", 0))
    if grid_nx < 1 or grid_ny < 1 or len(cells) != 2 * grid_nx * grid_ny:
        print(f"snapshot '{args.snapshot}': header grid nx={grid_nx} "
              f"ny={grid_ny} does not describe its {len(cells)} cells",
              file=sys.stderr)
        return 2
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    m = meshmod.Mesh(verts, cells, {"nx": grid_nx, "ny": grid_ny,
                                    "width": x1 - x0, "height": y1 - y0})
    p1 = fem.FunctionSpace.scalar_p1(m)
    alpha = p1.field(data["alpha_g"])
    grid = post.sample_to_grid(alpha, nx, ny)
    psd = post.power_spectrum_2d(grid)
    radii, power, counts = post.radial_average(psd)
    edges, hist = post.psd_histogram(psd)
    os.makedirs(args.out, exist_ok=True)
    radial_path = os.path.join(args.out, "spectrum_radial.csv")
    with open(radial_path, "w", encoding="utf-8") as fh:
        fh.write("k_bin,power\n")
        for k, p in zip(radii, power):
            fh.write(f"{k},{p:.17g}\n")
    hist_path = os.path.join(args.out, "spectrum_hist.csv")
    with open(hist_path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], hist):
            fh.write(f"{lo:.17g},{hi:.17g},{c}\n")
    print(f"holdup on grid = {grid.values.mean():.6f}")
    print(f"wrote {radial_path} and {hist_path}")
    return 0


def _cmd_terminal_velocity(args):
    cfg = _load(args)
    props = cfg.props()
    re_t, v_clift = physics.clift_terminal_reynolds(props)
    v_balance = physics.terminal_velocity_balance(props)
    print(f"Clift correlation:          Re_T = {re_t:.3f}, "
          f"v_T = {v_clift:.4f} m/s")
    print(f"Schiller-Naumann balance:   v_T = {v_balance:.4f} m/s")
    print(f"relative difference:        "
          f"{abs(v_balance - v_clift) / v_clift * 100:.2f}%")
    return 0


def _cmd_convergence(args):
    cfg = _load(args)
    try:
        nxs = [int(v) for v in args.meshes.split(",") if v]
    except ValueError:
        print(f"bad --meshes '{args.meshes}'", file=sys.stderr)
        return 1
    aspect = cfg.height / cfg.width
    base_out = cfg.output_dir
    curves = []
    for nx in nxs:
        run_cfg = _load(args)
        run_cfg.nx = nx
        run_cfg.ny = max(1, round(nx * aspect))
        cells = 2 * run_cfg.nx * run_cfg.ny
        run_cfg.output_dir = os.path.join(base_out, f"mesh_{cells}")
        run_cfg.validate()
        print(f"running {run_cfg.nx} x {run_cfg.ny} ({cells} cells) ...")
        result = ipcs.run(run_cfg)
        path = os.path.join(base_out, f"holdup_{cells}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_seconds,holdup\n")
            for t, h in zip(result.t_seconds, result.holdup):
                fh.write(f"{t:.17g},{h:.17g}\n")
        curves.append((cells, result.t_seconds, result.holdup))
        print(f"  wrote {path}")
    if len(curves) > 1:
        t_common = np.linspace(0.0, cfg.t_end, 201)
        interps = [np.interp(t_common, t, h) for _, t, h in curves]
        peak = max(h.max() for _, _, h in curves)
        worst = 0.0
        for i in range(len(interps)):
            for j in range(i + 1, len(interps)):
                worst = max(worst,
                            float(np.abs(interps[i] - interps[j]).max()))
        print(f"peak holdup = {peak:.6g}")
        print(f"max pairwise holdup deviation = {worst:.6g} "
              f"({worst / peak * 100 if peak else 0:.2f}% of peak)")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "terminal-velocity": _cmd_terminal_velocity,
        "convergence": _cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"solver failure in step attempt {exc.attempt} from "
              f"t = {exc.t_seconds:.6g} s: {exc}", file=sys.stderr)
        return 3
    except TwoFluidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
