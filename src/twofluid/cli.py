"""Command-line entry point.

Subcommands:
  run                advance the configured case, writing series + snapshots
  analyze            spectral pipeline on one snapshot file
  terminal-velocity  print the correlation and force-balance terminal speeds
  convergence        repeat the run over a mesh list and compare holdups

run, terminal-velocity and convergence take the case from --config and
--set K=V alone (`--set t_end=0.5`); `caseio.parse_config` validates it
once, after the file and every --set (a later one wins).  argparse
reports every usage error, --grid and --meshes included.

Exit codes: 0 success; 1 usage error; 2 configuration or input error:
an invalid case, a missing config file, an unreadable snapshot or any
other OSError; 3 solver failure, or any other TwoFluidError.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import caseio, fem, ipcs, mesh as meshmod, physics, post
from .errors import ConfigError, SolverFailureError, TwoFluidError


def _build_parser():
    # argparse reports a ValueError from a type converter as a usage error
    def grid(text):
        nx, ny = (int(v) for v in text.lower().split("x"))
        if nx < 2 or ny < 2:
            raise ValueError(text)
        return nx, ny

    def meshes(text):
        nxs = [int(v) for v in text.split(",") if v]
        if not nxs or min(nxs) < 1:
            raise ValueError(text)
        return nxs

    parser = argparse.ArgumentParser(
        prog="twofluid",
        description="Phase-bounded two-fluid column solver")
    sub = parser.add_subparsers(dest="command", required=True)
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--config", help="path to a case.cfg file")
    case.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="K=V",
                      help="config override (repeatable), e.g. t_end=0.5")

    run_p = sub.add_parser("run", parents=[case],
                           help="advance a case to t_end")
    run_p.add_argument("--quiet", action="store_true")

    an_p = sub.add_parser("analyze", help="spectral analysis of a snapshot")
    an_p.add_argument("snapshot", help="snap_XXXXXX.vtk file")
    an_p.add_argument("--grid", type=grid, default="64x128", metavar="NXxNY",
                      help="resampling grid, NX, NY >= 2 (default 64x128)")
    an_p.add_argument("--out", default=".", help="output directory")

    sub.add_parser("terminal-velocity", parents=[case],
                   help="correlation vs force-balance rise speed")

    cv_p = sub.add_parser("convergence", parents=[case],
                          help="holdup comparison over meshes")
    cv_p.add_argument("--meshes", type=meshes, default="25,50",
                      help="comma list of cell counts across the width")
    return parser


def _load(args):
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    return caseio.parse_config(text, args.overrides)


def _cmd_run(args):
    cfg = _load(args)
    result = ipcs.run(cfg, quiet=args.quiet)
    accepted = sum(report.accepted for report in result.reports)
    print(f"finished t = {result.t_seconds[-1]:.4f} s after "
          f"{accepted} accepted steps")
    print(f"final holdup = {result.holdup[-1]:.6g}")
    print(f"min(alpha_g) over run = {result.min_alpha_g.min():.3e}")
    print(f"series: {result.series_path}")
    return 0


def _cmd_analyze(args):
    try:
        verts, cells, data, meta = caseio.read_snapshot(args.snapshot)
        m = _grid_mesh(args.snapshot, verts, cells, meta)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    alpha = fem.FunctionSpace.scalar_p1(m).field(data["alpha_g"])
    grid = post.sample_to_grid(alpha, *args.grid)
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
    print(f"holdup on grid = {grid.mean():.6g}")
    print(f"wrote {radial_path} and {hist_path}")
    return 0


def _grid_mesh(path, verts, cells, meta):
    """Mesh of snapshot `path`, whose points and cells must be those of
    generate_rect_mesh on its header's grid, which point location needs."""
    nx, ny = meta.get("nx", 0), meta.get("ny", 0)
    if nx >= 1 and ny >= 1 and verts.shape == ((nx + 1) * (ny + 1), 2):
        (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
        for rule in meshmod.DIAGONALS if x1 > x0 and y1 > y0 else ():
            ref = meshmod.generate_rect_mesh(x1 - x0, y1 - y0, nx, ny, rule)
            if np.array_equal(cells, ref.cells) and np.allclose(
                    verts - ((x0 + x1) / 2, y0), ref.vertices, rtol=0.0,
                    atol=1e-9 * max(x1 - x0, y1 - y0)):
                return meshmod.Mesh(verts, cells, ref.grid)
    raise ValueError(f"snapshot '{path}': header grid nx={nx} ny={ny} does "
                     f"not describe its {len(verts)} points and "
                     f"{len(cells)} cells")


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
    aspect = cfg.height / cfg.width
    curves = []
    for nx in args.meshes:
        ny = max(1, round(nx * aspect))
        cells = 2 * nx * ny
        run_cfg = dataclasses.replace(
            cfg, nx=nx, ny=ny,
            output_dir=os.path.join(cfg.output_dir, f"mesh_{cells}"))
        print(f"running {nx} x {ny} ({cells} cells) ...")
        result = ipcs.run(run_cfg)
        path = os.path.join(cfg.output_dir, f"holdup_{cells}.csv")
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
        # the widest pair at each time is the highest curve and the lowest
        worst = float(np.ptp(interps, axis=0).max())
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
