"""Command-line driver: parameter sweeps, field maps, benchmarks, validation.

Subcommands
-----------
sweep-k      cross section / conductance / renormalization data vs kd
sweep-geom   sigma(a, y0) grid at fixed kd, with the free-space column
field-map    mirror-wave or Green's function samples on a grid
greens-bench terms-vs-error convergence table
validate     run the full identity suite; exit 1 on any failure

Exit codes: 0 success, 1 validation failure, 2 usage or domain error.
Grid points falling inside the guard band of a mode opening are emitted as
flagged gap rows carrying the one-sided asymptote columns instead of being
dropped.  Outputs are deterministic: rerunning a command produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import __version__, greens, mirror, renorm, scattering
from .errors import DegenerateMode, WireError
from .output import fmt, svg_heatmap, svg_line_plot, table, write_table_csv, write_table_json
from .validate import CHECK_GROUPS, run_checks
from .waveguide import DEFAULT_MODE_GUARD, WireConfig, _check_span, _interior, mode_opening_gaps

SWEEP_COLUMNS = [
    "kd", "n_open", "sigma", "conductance", "conductance_empty", "sigma_free",
    "g_r_re", "g_r_im", "rs_re", "rs_im", "delta0", "gap",
    "sigma_asym_below", "sigma_limit_above", "gr_asym_below_re", "gr_asym_above_im",
]

NAN = float("nan")


def _edge_limits(kd: float, n: int, y0: float) -> list[float]:
    """sigma_asym_below, sigma_limit_above, gr_asym_below_re and gr_asym_above_im
    of a gap row at kd, next to the opening n pi."""
    eps = max(abs(kd - n * np.pi), DEFAULT_MODE_GUARD)
    try:
        return [scattering.sigma_edge_asymptote(n, eps, y0) if n >= 2 else NAN, 1.0,
                renorm.gr_edge_asymptote(n, eps, y0, "below").real,
                renorm.gr_edge_asymptote(n, eps, y0, "above").imag]
    except DegenerateMode:
        return [NAN] * 4


def run_sweep_k(args) -> int:
    cfg = WireConfig(y0=args.y0, a=args.a, x0=args.x0)
    _check_span("kd", args.kd_min, args.kd_max)
    kds = np.linspace(args.kd_min, args.kd_max, args.points)
    # gap rows carry the one-sided limits; every other row is an element of one renorm_state
    n_near, gap = mode_opening_gaps(kds)
    st = renorm.renorm_state(kds[~gap], cfg, args.tol)
    col = {name: np.full(len(kds), NAN) for name in SWEEP_COLUMNS}
    col["kd"], col["gap"] = kds, gap.astype(int)
    col["n_open"], col["conductance_empty"] = n_near.astype(int), n_near.astype(int)  # gap rows: the nearest opening
    for name, value in (("n_open", st.n_open), ("conductance_empty", st.n_open), ("sigma", st.cross_section),
                        ("conductance", st.conductance), ("sigma_free", st.free_cross_section),
                        ("g_r_re", st.g_r.real), ("g_r_im", st.g_r.imag), ("rs_re", st.rs.real),
                        ("rs_im", st.rs_imag), ("delta0", st.phase_shift.delta0)):
        col[name][~gap] = value
    for i in np.flatnonzero(gap):
        for name, value in zip(SWEEP_COLUMNS[-4:], _edge_limits(kds[i], int(n_near[i]), cfg.y0)):
            col[name][i] = value
    _write(args, table(col), {
        "y0": fmt(args.y0), "a": fmt(args.a), "x0": fmt(args.x0),
        "kd_min": fmt(args.kd_min), "kd_max": fmt(args.kd_max),
        "points": args.points, "mode_guard": fmt(DEFAULT_MODE_GUARD),
        "tolerance": fmt(args.tol),
    })
    if args.svg:
        svg_line_plot(args.svg, col["kd"].tolist(),
                      {"sigma": col["sigma"].tolist(),
                       "conductance": col["conductance"].tolist(),
                       "N (empty wire)": col["conductance_empty"].astype(float).tolist()},
                      f"impurity at y0={fmt(args.y0)}, a={fmt(args.a)}", "kd")
    return 0


def run_sweep_geom(args) -> int:
    kd = args.kd
    _check_span("a", args.a_min, args.a_max)
    _check_span("y0", args.y0_min, args.y0_max)
    a_grid = np.linspace(args.a_min, args.a_max, args.a_points)
    y0_grid = np.linspace(args.y0_min, args.y0_max, args.y0_points)
    a_list, y0_list = a_grid.tolist(), y0_grid.tolist()
    # WireConfig's range checks on the first a with every y0, then on every a with the first
    # y0, raise the error of the first bad (a, y0) row: that of the first pair, else of the
    # first bad y0, else of the first bad a (argmin: the first False, or 0 where none is)
    i, j = np.argmin(_interior(y0_grid)), np.argmin(abs(a_grid) < 0.5)
    for y0, a in ((y0_list[0], a_list[0]), (y0_list[i], a_list[0]), (y0_list[0], a_list[j])):
        WireConfig(y0=y0, a=a)
    # one array s over the a grid, whose check refuses kd <= 0 and NaN first, serves both columns
    tm = renorm.t_matrix_grid(kd, a_grid)
    sigma = renorm._cross_section_at(kd, y0_grid, tm.s[:, None], args.tol)
    # one run of y0 per a
    rows = table({"a": a_grid[:, None], "y0": y0_grid, "sigma": sigma,
                  "sigma_free": tm.cross_section[:, None], "gap": np.zeros(sigma.shape, int)})
    _write(args, rows, {
        "kd": fmt(kd),
        "a_min": fmt(args.a_min), "a_max": fmt(args.a_max), "a_points": args.a_points,
        "y0_min": fmt(args.y0_min), "y0_max": fmt(args.y0_max), "y0_points": args.y0_points,
        "tolerance": fmt(args.tol),
    })
    if args.svg:
        svg_heatmap(args.svg, a_list, y0_list, sigma.tolist(),
                    f"sigma(a, y0) at kd={fmt(kd)}")
    return 0


def run_field_map(args) -> int:
    cfg = WireConfig(y0=args.y0, a=args.a, x0=args.x0)
    spec = mirror.GridSpec(args.x_min, args.x_max, args.y_min, args.y_max,
                           args.nx, args.ny)
    grid = mirror.field_map(args.kind, args.kd, cfg, spec, tol=args.tol)
    # one run of y per x
    rows = table({"x": grid.xs[:, None], "y": grid.ys,
                  "value_re": grid.values.real, "value_im": grid.values.imag})
    _write(args, rows, {
        "kind": grid.kind, "kd": fmt(args.kd),
        "y0": fmt(args.y0), "a": fmt(args.a), "x0": fmt(args.x0),
        "nx": args.nx, "ny": args.ny,
        "x_min": fmt(args.x_min), "x_max": fmt(args.x_max),
        "y_min": fmt(args.y_min), "y_max": fmt(args.y_max),
    })
    if args.svg:
        svg_heatmap(args.svg, list(grid.xs), list(grid.ys), grid.values.real.tolist(),
                    f"{grid.kind} at kd={fmt(args.kd)}, y0={fmt(args.y0)}")
    return 0


def run_greens_bench(args) -> int:
    r = (args.x, args.y)
    r0 = (args.x0, args.y0)
    reps = tuple(args.representations.split(","))
    term_grid = tuple(int(t) for t in args.terms.split(","))
    bench = greens.convergence_benchmark(r, r0, args.kd, reps, term_grid)
    rows = table({name: [getattr(b, name) for b in bench]
                  for name in ("representation", "terms", "error")})
    _write(args, rows, {
        "kd": fmt(args.kd),
        "x": fmt(args.x), "y": fmt(args.y), "x0": fmt(args.x0), "y0": fmt(args.y0),
        "representations": args.representations,
    })
    return 0


def run_validate(args) -> int:
    results = run_checks(fast=args.fast, groups=args.groups)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"{status}  {r.name:<{width}}  residual={fmt(r.residual)}"
                     f"  threshold={fmt(r.threshold)}{note}")
    print("\n".join(lines))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        rows = table({"check": [r.name for r in results],
                      "residual": [r.residual for r in results],
                      "threshold": [r.threshold for r in results],
                      "passed": [int(r.passed) for r in results]})
        _write(args, rows, {"fast": int(args.fast)})
    return 1 if n_fail else 0


def _write(args, rows, meta) -> None:
    """Write a table with the generator and command ahead of its metadata."""
    meta = {"generator": f"wirescat {__version__}", "command": args.command, **meta}
    if args.format == "json":
        write_table_json(args.out, rows, meta)
    else:
        write_table_csv(args.out, rows, meta)


def _check_groups(value: str) -> list[str]:
    """--groups as CHECK_GROUPS names (empty: every group); an unknown name is a usage error."""
    names = value.split(",") if value else []
    if not set(names) <= CHECK_GROUPS.keys():
        raise argparse.ArgumentTypeError(f"unknown group in {value!r}; choose from {', '.join(CHECK_GROUPS)}")
    return names


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not key=value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the subparsers it makes, that read a negative number in
    exponent notation given as its own token (``--a -5e-3``) as a value, as they read
    -0.005 (argparse's pattern ``^-\\d+$|^-\\d*\\.\\d+$`` has no exponent)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wirescat",
        description="Scattering and transport observables for a point impurity "
                    "in a hard-walled 2D waveguide (nondimensional units, d = 1).")
    parser.add_argument("--version", action="version", version=f"wirescat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_impurity=True, with_svg_and_tol=True):
        # required values may come from --config, so requiredness is checked
        # after the merge rather than by argparse
        p.add_argument("--config", help="key=value file; command-line flags win")
        p.add_argument("--out", help="output file path (required)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if with_svg_and_tol:
            p.add_argument("--svg", help="optional SVG rendering path")
            p.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
        if with_impurity:
            p.add_argument("--y0", type=float, help="impurity height, 0<y0<1 (required)")
            p.add_argument("--a", type=float, default=0.1, help="scattering length, |a|<1/2")
            p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("sweep-k", help="observables vs kd at fixed impurity")
    common(p)
    p.add_argument("--kd-min", type=float, default=0.5 * np.pi)
    p.add_argument("--kd-max", type=float, default=12.5 * np.pi)
    p.add_argument("--points", type=int, default=2000)
    p.set_defaults(func="run_sweep_k")

    p = sub.add_parser("sweep-geom", help="sigma over (a, y0) at fixed kd")
    common(p, with_impurity=False)
    p.add_argument("--kd", type=float, default=12.5 * np.pi)
    p.add_argument("--a-min", type=float, default=-0.1)
    p.add_argument("--a-max", type=float, default=0.1)
    p.add_argument("--a-points", type=int, default=101)
    p.add_argument("--y0-min", type=float, default=0.05)
    p.add_argument("--y0-max", type=float, default=0.5)
    p.add_argument("--y0-points", type=int, default=51)
    p.set_defaults(func="run_sweep_geom")

    p = sub.add_parser("field-map", help="sample a mirror wave or G_w on a grid")
    common(p)
    p.add_argument("--kind", default="s",
                   choices=("s", "s_plus", "px", "dxy", "f", "greens"))
    p.add_argument("--kd", type=float, default=40.0)
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--y-min", type=float, default=0.0)
    p.add_argument("--y-max", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=400)
    p.add_argument("--ny", type=int, default=100)
    p.set_defaults(func="run_field_map")

    p = sub.add_parser("greens-bench", help="convergence benchmark at one point pair")
    common(p, with_impurity=False, with_svg_and_tol=False)
    p.add_argument("--kd", type=float, default=2.5 * np.pi)
    p.add_argument("--x", type=float, default=0.37)
    p.add_argument("--y", type=float, default=0.61)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.3)
    p.add_argument("--representations", default="spectral,image,kummer,kummer_raw")
    p.add_argument("--terms", default="10,30,100,300,1000,3000,10000")
    p.set_defaults(func="run_greens_bench")

    p = sub.add_parser("validate", help="run the identity suite")
    p.add_argument("--fast", action="store_true", help="shrink grids for a smoke run")
    p.add_argument("--groups", type=_check_groups,
                   help="comma-separated subset of: " + ",".join(CHECK_GROUPS))
    p.add_argument("--out", help="optional machine-readable report path")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func="run_validate")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built at the first main call and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # file values become flags ahead of the command line's, which win by coming later
        at = argv.index(args.command) + 1
        argv[at:at] = [f"--{key.replace('_', '-')}={val}" for key, val in overrides.items()
                       if hasattr(args, key)]
        args = parser.parse_args(argv)
    required = ("out", "y0") if args.command != "validate" else ()
    missing = [name for name in required
               if hasattr(args, name) and getattr(args, name) is None]
    if missing:
        print("error: missing required value(s): " + ", ".join(f"--{m}" for m in missing),
              file=sys.stderr)
        return 2
    if getattr(args, "points", 2) < 2 or getattr(args, "a_points", 2) < 2 \
            or getattr(args, "y0_points", 2) < 2:
        print("error: sweeps need at least 2 grid points", file=sys.stderr)
        return 2
    try:
        # func names the run_* function, looked up now, so a replacement installed later is called
        return globals()[args.func](args)
    except (WireError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
