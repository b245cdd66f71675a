"""Command-line surface: reproducible runs of the library pipelines.

Subcommands:

* ``lagrange``   equilibria and the first critical energy for a mass ratio
* ``scan``       axis shooting sweep, chord refinement, catalog output
* ``integrate``  one trajectory (physical or regularized) as CSV
* ``starshape``  fiberwise star-shapedness certificate
* ``orbit-svg``  rotating-frame picture of a cataloged chord

Exit codes: 0 success with findings, 2 usage/input error (a malformed
catalog and a file that cannot be read or written included), 3 clean run
with an empty result, 4 numerical failure.
Each command builds its own settings and embeds in its output only the
fields that change the result, plus the artifact version; so tolerances
appear only for ``scan``, ``integrate`` and ``orbit-svg``.  Every float
is written as its ``repr``, the shortest text that reads back as the same
double, so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

from ._version import __version__
from .diagnostics import (
    ChordCatalog,
    _dumps,
    _zvc_radius_along,
    catalog_insert,
    starshape_scan,
)
from .dynamics import (
    PhaseState,
    SystemParams,
    first_critical_value,
    hamiltonian,
    hill_component_interval,
    lagrange_points,
)
from .errors import (
    CcorbError,
    EnergyAboveCriticalError,
    IntegrityError,
    NumericalError,
    UsageError,
)
from .integrator import (
    Flow,
    IntegrationSettings,
    _is_finite_number,
    export_csv,
    integrate,
)
from .regularization import RegularizedLevel, chart_position, collision_point
# scan_and_bracket is not called here; perfbench/op.py wraps this name
from .shooting import (  # noqa: F401
    Branch,
    ShotSpec,
    _shoot,
    grid_specs,
    refine_chord,
    scan_and_bracket,
    scan_grids,
)


def _config(command: str, settings: IntegrationSettings | None = None,
            **fields) -> dict:
    """The run configuration an output embeds.

    The fields given, in order and without those that are None, then the
    tolerances and horizon of ``settings``, then the artifact version.
    Neither ``--jobs`` (which has no effect) nor ``--out`` changes a
    result, so neither is recorded: the same run gives the same bytes
    anywhere.
    """
    cfg = {"command": command}
    cfg.update((k, v) for k, v in fields.items() if v is not None)
    if settings is not None:
        cfg.update(rel_tol=settings.rel_tol, abs_tol=settings.abs_tol,
                   t_max=settings.t_max)
    cfg["artifact_version"] = __version__
    return cfg


def _settings(args: argparse.Namespace) -> IntegrationSettings:
    return IntegrationSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                               t_max=args.tmax)


def _check_out_dir(out: str | None) -> None:
    """Refuse an ``--out`` that is empty, is a directory, or whose directory
    does not exist; :func:`main` calls it before any command's work."""
    if out == "":
        raise UsageError("--out is empty")
    if out is not None and os.path.isdir(out):
        raise UsageError(f"--out {out!r} is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"directory of --out {out!r} does not exist")


def _report(args: argparse.Namespace, payload: dict, lines: list[str]) -> int:
    """Write the report of ``lagrange`` or ``starshape``.

    ``--out`` gets the JSON of ``payload``; stdout gets it with ``--json``
    and the text ``lines`` otherwise.  The JSON is formed before the file
    is opened, so a report that cannot become JSON leaves ``--out`` as it
    was.
    """
    text = _dumps(payload) if args.json or args.out else ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text if args.json else "\n".join(lines))
    return 0


def _resolve_jacobi(spec: str | None, params: SystemParams) -> float | None:
    """Parse --jacobi: a float, or auto-X meaning first critical - X."""
    if spec is None:
        return None
    if not spec.isprintable():  # headers record it as jacobi_spec
        raise UsageError(f"--jacobi must be printable text, got {spec!r}")
    text = spec.strip()
    if text.startswith("auto-"):
        try:
            offset = float(text[5:])
        except ValueError as exc:
            raise UsageError(f"bad --jacobi offset in {spec!r}") from exc
        value = first_critical_value(params) - offset
    else:
        try:
            value = float(text)
        except ValueError as exc:
            raise UsageError(
                f"--jacobi must be a number or auto-X, got {spec!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"--jacobi must be finite, got {spec!r}")
    return value


def _parse_srange(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(
            f"--s-range must look like lo:hi, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--s-range ends must be finite, got {text!r}")
    if not lo < hi:
        raise UsageError(f"--s-range needs lo < hi, got {text!r}")
    return lo, hi


def _parse_state(text: str) -> PhaseState:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --state {text!r}") from exc
    if len(vals) != 4:
        raise UsageError("--state needs q1,q2,p1,p2")
    return PhaseState(q=(vals[0], vals[1]), p=(vals[2], vals[3]))


# ---------------------------------------------------------------------------
# lagrange


def cmd_lagrange(args: argparse.Namespace) -> int:
    cfg = lagrange_points(SystemParams(args.mu))
    lines = [f"{label}: ({x!r}, {y!r})  U = {cfg.values[label]!r}"
             for label, (x, y) in cfg.points.items()]  # L1 to L5
    lines.append(f"first critical value: {cfg.first_critical_value!r}")
    if cfg.degenerate:
        lines.append("note: mu = 0 is degenerate (critical set is the unit "
                     "circle)")
    payload = {**asdict(cfg), "run_config": _config("lagrange", mu=args.mu)}
    return _report(args, payload, lines)


# ---------------------------------------------------------------------------
# scan


def _scan_ranges(args_range, level: RegularizedLevel
                 ) -> list[tuple[float, float]]:
    """Explicit --s-range, or both Hill axis segments with 2% margins.

    An explicit range must have both ends inside the Hill axis interval of
    ``level`` at its own mass ratio, where every start exists.
    """
    hill = hill_component_interval(level.params, level)
    if args_range is not None:
        lo, hi = args_range
        if not (hill.contains(lo) and hill.contains(hi)):
            raise UsageError(
                f"--s-range {lo!r}:{hi!r} is not inside the Hill axis "
                f"interval ({hill.s_min!r}, {hill.s_max!r})")
        return [(lo, hi)]
    if math.isinf(hill.s_min) or math.isinf(hill.s_max):
        raise UsageError(
            "unbounded Hill interval: give an explicit --s-range")
    pad_p = 0.02 * hill.s_max
    pad_n = 0.02 * abs(hill.s_min)
    return [(0.02 * hill.s_max, hill.s_max - pad_p),
            (hill.s_min + pad_n, -0.02 * abs(hill.s_min))]


def cmd_scan(args: argparse.Namespace) -> int:
    params = SystemParams(args.mu)
    c = _resolve_jacobi(args.jacobi, params)
    s_range = _parse_srange(args.s_range) if args.s_range else None
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.kmax < 1:
        raise UsageError(f"--kmax must be at least 1, got {args.kmax}")
    settings = _settings(args)
    level = RegularizedLevel(params, f=-c)
    crit = first_critical_value(params)
    if c >= crit:
        if params.mu != 0.0:
            # hill_component_interval and every axis start refuse the level
            raise EnergyAboveCriticalError(
                f"jacobi {c} is not below the first critical value "
                f"{crit:.12g}; the Hill component around O is not bounded "
                "(--force applies only at mu = 0)")
        if not args.force:
            raise EnergyAboveCriticalError(
                f"jacobi {c} is not below the first critical value "
                f"{crit:.12g}; pass --force to scan anyway")
        print(f"warning: jacobi {c} at or above the first critical value "
              f"{crit:.12g}; star-shape guarantees do not apply",
              file=sys.stderr)
    branches = ([Branch.PLUS, Branch.MINUS] if args.branch == "both"
                else [Branch(args.branch)])

    catalog = ChordCatalog(run_config=_config(
        "scan", settings, mu=args.mu, jacobi=c, jacobi_spec=args.jacobi,
        branch=args.branch, s_range=s_range, grid=args.grid,
        k_max=args.kmax))
    grids = [grid_specs(r, args.grid, branch, level)
             for r in _scan_ranges(s_range, level) for branch in branches]
    found = scan_grids(grids, settings, args.kmax)
    rows = []
    warnings = []
    for specs, brackets in zip(grids, found):
        side, branch = specs[0].side, specs[0].branch
        for bracket in brackets:
            if bracket.kind != "sign_change":
                warnings.append(
                    f"tangential candidate at s = {bracket.s_lo!r} "
                    f"(k={bracket.pericenter_index}, {side}/"
                    f"{branch.value}); no sign change to refine")
                continue
            try:
                chord = refine_chord(bracket, level, settings)
            except NumericalError as exc:
                warnings.append(
                    f"refinement failed on [{bracket.s_lo!r}, "
                    f"{bracket.s_hi!r}] (k="
                    f"{bracket.pericenter_index}): {exc}")
                continue
            if catalog_insert(catalog, chord):
                rows.append((side, branch.value, chord.pericenter_index,
                             chord.spec.s, chord.tau_reeb,
                             chord.flight_time, chord.conditioning))

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    catalog.save(args.out)
    if not rows:
        print("no chords found")
        return 3
    rows.sort(key=lambda r: r[4])
    print(f"{len(rows)} chord(s) -> {args.out}")
    print("side branch k  s*                       tau_reeb"
          "                 flight_time              |dm/ds|")
    for side, branch, k, s, tau, flight, cond in rows:
        print(f"{side:4s} {branch:6s} {k:d}  {s!r:24s} {tau!r:24s} "
              f"{flight!r:24s} {cond:.3g}")
    return 0


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args: argparse.Namespace) -> int:
    params = SystemParams(args.mu)
    jacobi = _resolve_jacobi(args.jacobi, params)
    state = _parse_state(args.state) if args.state else None
    eject = args.eject
    regularized = args.regularized or eject is not None
    if eject is not None:
        if not math.isfinite(eject):
            raise UsageError(f"--eject must be finite, got {eject!r}")
        if jacobi is None:
            raise UsageError("--eject needs --jacobi")
        level = RegularizedLevel(params, f=-jacobi)
        initial = collision_point((math.cos(eject), math.sin(eject)), level)
    elif state is not None:
        h = hamiltonian(state, params)
        if jacobi is not None and abs(jacobi - h) > 1e-9:
            raise UsageError(
                f"--jacobi {jacobi} conflicts with H(state) = {h!r}")
        jacobi = h
        level = RegularizedLevel(params, f=-h)
        r = math.hypot(state.q[0], state.q[1])
        if not regularized and r < 1e-2:
            raise UsageError(
                f"start radius {r:.3e} is near collision: use the "
                "regularized flow (--regularized)")
        initial = state
    else:
        raise UsageError("give --state q1,q2,p1,p2 or --eject ANGLE")

    settings = _settings(args)
    flow = Flow.REGULARIZED if regularized else Flow.PHYSICAL
    traj = integrate(flow, initial, level, settings)
    comments = _config("integrate", settings, mu=args.mu, jacobi=jacobi,
                       jacobi_spec=args.jacobi)
    comments["flow"] = flow.value
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            export_csv(traj, fh, header_comments=comments)
        print(f"{len(traj)} steps -> {args.out}")
    else:
        export_csv(traj, sys.stdout, header_comments=comments)
    return 0


# ---------------------------------------------------------------------------
# starshape


def cmd_starshape(args: argparse.Namespace) -> int:
    params = SystemParams(args.mu)
    c = _resolve_jacobi(args.jacobi, params)
    level = RegularizedLevel(params, f=-c)
    report = starshape_scan(params, level, args.base_grid, args.ray_grid)
    payload = {"ok": report.ok, **asdict(report),
               "run_config": _config("starshape", mu=args.mu, jacobi=c,
                                     jacobi_spec=args.jacobi,
                                     base_grid=args.base_grid,
                                     ray_grid=args.ray_grid)}
    verdict = "PASS" if report.ok else "FAIL"
    lines = [
        f"star-shapedness {verdict}: mu={report.mu!r} "
        f"jacobi={report.jacobi!r}",
        f"  rays checked: {report.rays_checked} ({report.base_grid} bases "
        f"x {report.ray_grid} rays x 2 charts)",
        f"  min margin: {report.min_margin!r} on chart {report.worst_chart} "
        f"base ({report.worst_base[0]!r}, {report.worst_base[1]!r}) angle "
        f"{report.worst_angle!r}"]
    lines += [f"  violation: {v}" for v in report.violations[:10]]
    lines += [f"  note: {n}" for n in report.notes[:10]]
    return _report(args, payload, lines)


# ---------------------------------------------------------------------------
# orbit SVG


#: flow-time samples of a chord's forward half, and angles of the
#: zero-velocity curve, in an orbit SVG
SVG_CHORD_SAMPLES = 400
SVG_ZVC_ANGLES = 720


def _chord_path_points(entry: dict, settings: IntegrationSettings
                       ) -> list[tuple[float, float]]:
    """Rotating-frame positions of a cataloged chord, mirror-completed."""
    params = SystemParams(entry["mu"])
    level = RegularizedLevel(params, f=-entry["jacobi"])
    spec = ShotSpec(s=entry["s0"], branch=Branch(entry["branch"]),
                    params=params, level=level)
    traj, hits = _shoot(spec, settings, entry["pericenter_index"])
    if len(hits) < entry["pericenter_index"]:
        raise NumericalError("cataloged chord did not reproduce")
    sigma_end = hits[entry["pericenter_index"] - 1].t
    fwd = []
    for j in range(SVG_CHORD_SAMPLES + 1):
        sigma = sigma_end * j / SVG_CHORD_SAMPLES
        chart, y = traj.eval(sigma)
        fwd.append(chart_position(chart, y[0], y[1], y[2], y[3]))
    return [(q1, -q2) for q1, q2 in reversed(fwd)] + fwd


def _zvc_polyline(mu: float, f: float) -> list[tuple[float, float]]:
    try:
        if first_critical_value(SystemParams(mu)) <= -f:
            return []
    except CcorbError:
        return []
    ths = [2.0 * math.pi * i / SVG_ZVC_ANGLES
           for i in range(SVG_ZVC_ANGLES + 1)]
    radii = _zvc_radius_along(list(map(math.cos, ths)), mu, f)
    return [(r * math.cos(th), r * math.sin(th))
            for r, th in zip(radii, ths) if not math.isnan(r)]


#: each row field orbit-svg reads, and the test its JSON value must pass
_ROW_FIELDS = {
    "mu": _is_finite_number,
    "jacobi": _is_finite_number,
    "branch": lambda v: v in [b.value for b in Branch],
    "s0": _is_finite_number,
    "pericenter_index": lambda v: type(v) is int,
    "tau_reeb": _is_finite_number,
}


def cmd_orbit_svg(args: argparse.Namespace) -> int:
    catalog_path, index, out = args.catalog, args.index, args.out
    try:
        catalog = ChordCatalog.load(catalog_path)
    except IntegrityError as exc:
        raise UsageError(str(exc)) from exc
    if not catalog.entries:
        raise UsageError(f"catalog {catalog_path!r} holds no chords")
    if not 0 <= index < len(catalog.entries):
        raise UsageError(
            f"catalog index {index} out of range 0..{len(catalog.entries)-1}")
    if "t_max" not in catalog.run_config:
        raise UsageError(
            f"catalog {catalog_path!r} header has no t_max; cannot re-shoot "
            "the chord")
    entry = catalog.entries[index]
    missing = [k for k in _ROW_FIELDS if k not in entry]
    if missing:
        raise UsageError(f"catalog {catalog_path!r} entry {index} lacks "
                         f"{', '.join(missing)}")
    tols = entry.get("integrator_tolerances", {})
    bad = [f"{k} {entry[k]!r}" for k, ok in _ROW_FIELDS.items()
           if not ok(entry[k])]
    if not isinstance(tols, dict):
        bad.append(f"integrator_tolerances {tols!r}")
    if bad:
        raise UsageError(f"catalog {catalog_path!r} entry {index} has a "
                         f"malformed {', '.join(bad)}")
    settings = IntegrationSettings(
        rel_tol=tols.get("rel_tol", IntegrationSettings.rel_tol),
        abs_tol=tols.get("abs_tol", IntegrationSettings.abs_tol),
        t_max=catalog.run_config["t_max"])
    orbit = _chord_path_points(entry, settings)
    zvc = _zvc_polyline(entry["mu"], -entry["jacobi"])

    xs = [p[0] for p in orbit + zvc] + [0.0, 1.0]
    ys = [p[1] for p in orbit + zvc] + [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.08 * max(x1 - x0, y1 - y0, 1e-6)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    width = 640.0
    scale = width / (x1 - x0)
    height = (y1 - y0) * scale

    def pix(p: tuple[float, float]) -> str:
        return f"{(p[0]-x0)*scale:.2f},{(y1-p[1])*scale:.2f}"

    cfg = _config("orbit-svg", settings, mu=entry["mu"],
                  jacobi=entry["jacobi"])
    cfg["index"] = index
    cfg["entry_s0"] = entry["s0"]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f"<!-- run_config: {_dumps(cfg)} -->",
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="white"/>',
    ]
    if zvc:
        lines.append(
            '<polyline fill="none" stroke="#999999" stroke-width="1.2" '
            f'points="{" ".join(pix(p) for p in zvc)}"/>')
    lines.append(
        '<polyline fill="none" stroke="#1f4e9c" stroke-width="1.5" '
        f'points="{" ".join(pix(p) for p in orbit)}"/>')
    # primaries: O at the origin (collision target), E at (1, 0)
    lines.append(f'<circle cx="{(0.0-x0)*scale:.2f}" cy="{(y1-0.0)*scale:.2f}"'
                 f' r="5" fill="black"/>')
    if 0.0 < entry["mu"] < 1.0:
        lines.append(
            f'<circle cx="{(1.0-x0)*scale:.2f}" cy="{(y1-0.0)*scale:.2f}" '
            f'r="3.5" fill="#c96a11"/>')
    # collision marker at O
    ox, oy = (0.0 - x0) * scale, (y1 - 0.0) * scale
    lines.append(
        f'<path d="M {ox-7:.2f} {oy-7:.2f} L {ox+7:.2f} {oy+7:.2f} '
        f'M {ox-7:.2f} {oy+7:.2f} L {ox+7:.2f} {oy-7:.2f}" '
        'stroke="#c21807" stroke-width="1.5"/>')
    lines.append("</svg>")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"chord {index} (tau={entry['tau_reeb']!r}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccorb",
        description="consecutive collision orbits of the planar restricted "
                    "three-body problem")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jacobi_required=True, out=None):
        p.add_argument("--mu", type=float, required=True,
                       help="mass ratio of the primary at (1,0)")
        p.add_argument("--jacobi", required=jacobi_required,
                       help="Jacobi energy, a number or auto-X "
                            "(first critical value minus X)")
        p.add_argument("--out", default=out)

    def add_settings(p):
        p.add_argument("--rel-tol", type=float,
                       default=IntegrationSettings.rel_tol)
        p.add_argument("--abs-tol", type=float,
                       default=IntegrationSettings.abs_tol)
        p.add_argument("--tmax", type=float,
                       default=IntegrationSettings.t_max)

    p = sub.add_parser("lagrange", help="Lagrange points and critical value")
    p.set_defaults(run=cmd_lagrange)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="shooting sweep producing a catalog")
    p.set_defaults(run=cmd_scan)
    add_common(p, out="catalog.jsonl")
    add_settings(p)
    p.add_argument("--branch", choices=["plus", "minus", "both"],
                   default="both")
    p.add_argument("--s-range", default=None,
                   help="lo:hi axis window (default: both Hill segments)")
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted (at least 1) and ignored: the grid runs "
                        "as one lockstep batch in this process")
    p.add_argument("--force", action="store_true",
                   help="at mu = 0, scan even at/above the first critical "
                        "value")

    p = sub.add_parser("integrate", help="one trajectory as CSV")
    p.set_defaults(run=cmd_integrate)
    add_common(p, jacobi_required=False)
    add_settings(p)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--state", default=None, help="q1,q2,p1,p2")
    start.add_argument("--eject", type=float, default=None,
                       help="start at collision, ejecting at this angle "
                            "(radians; implies --regularized)")
    p.add_argument("--regularized", action="store_true")

    p = sub.add_parser("starshape", help="fiberwise star-shape certificate")
    p.set_defaults(run=cmd_starshape)
    add_common(p)
    p.add_argument("--base-grid", type=int, default=60)
    p.add_argument("--ray-grid", type=int, default=60)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orbit-svg", help="draw a cataloged chord")
    p.set_defaults(run=cmd_orbit_svg)
    p.add_argument("--catalog", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out)
        return args.run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (CcorbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
