"""Command-line surface: reproducible runs of the library pipelines.

Subcommands:

* ``lagrange``   equilibria and the first critical energy for a mass ratio
* ``scan``       axis shooting sweep, chord refinement, catalog output
* ``integrate``  one trajectory (physical or regularized) as CSV
* ``starshape``  fiberwise star-shapedness certificate
* ``orbit-svg``  rotating-frame picture of a cataloged chord
* ``oberth``     kinetic-energy gain of a burn at speed

Exit codes: 0 success with findings, 2 usage/input error, 3 clean run
with an empty result, 4 numerical failure.  Output files embed the run
configuration and the artifact version; floats are printed with 17
significant digits so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, field

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
    oberth_energy_gain,
)
from .errors import (
    CcorbError,
    EnergyAboveCriticalError,
    NumericalError,
    TangentialRootError,
    UsageError,
)
from .integrator import Flow, IntegrationSettings, _fmt, export_csv, integrate
from .regularization import (
    Chart,
    MoserChartPoint,
    RegularizedLevel,
    collision_point,
    fiber_image,
    phase_to_chart,
)
from .shooting import Branch, ShotSpec, _shoot, refine_chord, scan_and_bracket


@dataclass
class RunConfig:
    """Everything needed to reproduce a run.

    Outputs embed :meth:`to_dict`: only the fields that change the result,
    so neither ``jobs`` nor ``out`` (same bytes on any machine and path).
    """

    command: str
    mu: float
    jacobi: float | None = None
    jacobi_spec: str | None = None
    branch: str | None = None
    s_range: tuple[float, float] | None = None
    grid: int | None = None
    k_max: int | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 50.0
    jobs: int = 1
    out: str | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items()
             if v is not None and k not in ("jobs", "out")}
        extra = d.pop("extra", {})
        d.update(extra)
        d["artifact_version"] = __version__
        return d

    def settings(self) -> IntegrationSettings:
        return IntegrationSettings(rel_tol=self.rel_tol,
                                   abs_tol=self.abs_tol, t_max=self.t_max)


def _resolve_jacobi(spec: str, params: SystemParams) -> float:
    """Parse --jacobi: a float, or auto-X meaning first critical - X."""
    text = spec.strip()
    if text.startswith("auto-"):
        try:
            offset = float(text[5:])
        except ValueError as exc:
            raise UsageError(f"bad --jacobi offset in {spec!r}") from exc
        return first_critical_value(params) - offset
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(
            f"--jacobi must be a number or auto-X, got {spec!r}") from exc


def _parse_srange(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(
            f"--s-range must look like lo:hi, got {text!r}") from exc
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


def cmd_lagrange(mu: float, json_out: bool = False,
                 out: str | None = None) -> int:
    params = SystemParams(mu)
    cfg = lagrange_points(params)
    run = RunConfig(command="lagrange", mu=mu, out=out)
    if json_out or out:
        payload = {
            "points": {k: list(v) for k, v in cfg.points.items()},
            "values": dict(cfg.values),
            "first_critical_value": cfg.first_critical_value,
            "degenerate": cfg.degenerate,
            "run_config": run.to_dict(),
        }
        text = _dumps(payload)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        if json_out or not out:
            print(text)
        return 0
    for label in ("L1", "L2", "L3", "L4", "L5"):
        x, y = cfg.points[label]
        print(f"{label}: ({_fmt(x)}, {_fmt(y)})  U = {_fmt(cfg.values[label])}")
    print(f"first critical value: {_fmt(cfg.first_critical_value)}")
    if cfg.degenerate:
        print("note: mu = 0 is degenerate (critical set is the unit circle)")
    return 0


# ---------------------------------------------------------------------------
# scan


def _scan_ranges(args_range, params: SystemParams, level: RegularizedLevel
                 ) -> list[tuple[float, float, str]]:
    """Explicit --s-range, or both Hill axis segments with 2% margins."""
    if args_range is not None:
        lo, hi = args_range
        side = "pos" if lo > 0 else "neg"
        return [(lo, hi, side)]
    hill = hill_component_interval(params, level)
    if math.isinf(hill.s_min) or math.isinf(hill.s_max):
        raise UsageError(
            "unbounded Hill interval: give an explicit --s-range")
    out = []
    pad_p = 0.02 * hill.s_max
    pad_n = 0.02 * abs(hill.s_min)
    out.append((0.02 * hill.s_max, hill.s_max - pad_p, "pos"))
    out.append((hill.s_min + pad_n, -0.02 * abs(hill.s_min), "neg"))
    return out


def cmd_scan(run: RunConfig, force: bool = False) -> int:
    params = SystemParams(run.mu)
    c = run.jacobi
    level = RegularizedLevel(params, f=-c)
    crit = first_critical_value(params)
    if c >= crit:
        if not force:
            raise EnergyAboveCriticalError(
                f"jacobi {c} is not below the first critical value "
                f"{crit:.12g}; pass --force to scan anyway")
        print(f"warning: jacobi {c} at or above the first critical value "
              f"{crit:.12g}; star-shape guarantees do not apply",
              file=sys.stderr)
    settings = run.settings()
    branches = ([Branch.PLUS, Branch.MINUS] if run.branch == "both"
                else [Branch(run.branch)])
    ranges = _scan_ranges(run.s_range, params, level)

    catalog = ChordCatalog(run_config=run.to_dict())
    rows = []
    warnings = []
    for lo, hi, side in ranges:
        for branch in branches:
            brackets = scan_and_bracket((lo, hi), run.grid, branch, params,
                                        level, settings, k_max=run.k_max,
                                        jobs=run.jobs)
            for bracket in brackets:
                if bracket.kind != "sign_change":
                    warnings.append(
                        f"tangential candidate at s = {_fmt(bracket.s_lo)} "
                        f"(k={bracket.pericenter_index}, {side}/"
                        f"{branch.value}); not refinable by bisection")
                    continue
                try:
                    chord = refine_chord(bracket, branch, params, level,
                                         settings)
                except (TangentialRootError, NumericalError) as exc:
                    warnings.append(
                        f"refinement failed on [{_fmt(bracket.s_lo)}, "
                        f"{_fmt(bracket.s_hi)}] (k="
                        f"{bracket.pericenter_index}): {exc}")
                    continue
                if catalog_insert(catalog, chord, settings):
                    rows.append((side, branch.value, chord.pericenter_index,
                                 chord.spec.s, chord.tau_reeb,
                                 chord.flight_time, chord.conditioning))

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = run.out or "catalog.jsonl"
    catalog.save(out)
    if not rows:
        print("no chords found")
        return 3
    rows.sort(key=lambda r: r[4])
    print(f"{len(rows)} chord(s) -> {out}")
    print("side branch k  s*                       tau_reeb"
          "                 flight_time              |dm/ds|")
    for side, branch, k, s, tau, flight, cond in rows:
        print(f"{side:4s} {branch:6s} {k:d}  {_fmt(s):24s} {_fmt(tau):24s} "
              f"{_fmt(flight):24s} {cond:.3g}")
    return 0


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(run: RunConfig, state: PhaseState | None,
                  eject: float | None, regularized: bool) -> int:
    params = SystemParams(run.mu)
    if eject is not None:
        if not regularized:
            raise UsageError("--eject starts at collision: needs "
                             "--regularized")
        if run.jacobi is None:
            raise UsageError("--eject needs --jacobi")
        level = RegularizedLevel(params, f=-run.jacobi)
        initial: PhaseState | MoserChartPoint = collision_point(
            (math.cos(eject), math.sin(eject)), level)
    elif state is not None:
        h = hamiltonian(state, params)
        if run.jacobi is not None and abs(run.jacobi - h) > 1e-9:
            raise UsageError(
                f"--jacobi {run.jacobi} conflicts with H(state) = {h!r}")
        run.jacobi = h
        level = RegularizedLevel(params, f=-h)
        r = math.hypot(state.q[0], state.q[1])
        if not regularized and r < 1e-2:
            raise UsageError(
                f"start radius {r:.3e} is near collision: use the "
                "regularized flow (--regularized)")
        initial = phase_to_chart(state) if regularized else state
    else:
        raise UsageError("give --state q1,q2,p1,p2 or --eject ANGLE")

    settings = run.settings()
    flow = Flow.REGULARIZED if regularized else Flow.PHYSICAL
    traj = integrate(flow, initial, level, settings)
    comments = run.to_dict()
    comments["flow"] = flow.value
    if run.out:
        with open(run.out, "w", encoding="utf-8", newline="") as fh:
            export_csv(traj, fh, header_comments=comments)
        print(f"{len(traj)} steps -> {run.out}")
    else:
        export_csv(traj, sys.stdout, header_comments=comments)
    return 0


# ---------------------------------------------------------------------------
# starshape


def cmd_starshape(run: RunConfig, base_grid: int, ray_grid: int,
                  json_out: bool = False) -> int:
    params = SystemParams(run.mu)
    level = RegularizedLevel(params, f=-run.jacobi)
    report = starshape_scan(params, level, base_grid, ray_grid)
    payload = {
        "ok": report.ok,
        "mu": report.mu,
        "jacobi": report.jacobi,
        "base_grid": report.base_count,
        "ray_grid": report.ray_count,
        "rays_checked": report.rays_checked,
        "min_margin": report.min_margin,
        "worst_chart": report.worst_chart,
        "worst_base": list(report.worst_base),
        "worst_angle": report.worst_angle,
        "violations": report.violations,
        "notes": report.notes,
        "run_config": run.to_dict(),
    }
    if run.out:
        with open(run.out, "w", encoding="utf-8") as fh:
            fh.write(_dumps(payload) + "\n")
    if json_out:
        print(_dumps(payload))
    else:
        verdict = "PASS" if report.ok else "FAIL"
        print(f"star-shapedness {verdict}: mu={_fmt(report.mu)} "
              f"jacobi={_fmt(report.jacobi)}")
        print(f"  rays checked: {report.rays_checked} "
              f"({report.base_count} bases x {report.ray_count} rays x "
              f"2 charts)")
        print(f"  min margin: {_fmt(report.min_margin)} on chart "
              f"{report.worst_chart} base ({_fmt(report.worst_base[0])}, "
              f"{_fmt(report.worst_base[1])}) angle "
              f"{_fmt(report.worst_angle)}")
        for v in report.violations[:10]:
            print(f"  violation: {v}")
        for n in report.notes[:10]:
            print(f"  note: {n}")
    return 0


# ---------------------------------------------------------------------------
# orbit SVG


def _chord_path_points(entry: dict, settings: IntegrationSettings,
                       n_samples: int = 400) -> list[tuple[float, float]]:
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
    for j in range(n_samples + 1):
        sigma = sigma_end * j / n_samples
        chart, y = traj.eval(sigma)
        if chart is Chart.NORTH:
            fwd.append((y[2], y[3]))
        else:
            fwd.append(fiber_image(y[0], y[1], y[2], y[3]))
    back = [(q1, -q2) for q1, q2 in reversed(fwd)]
    return back + fwd


def _zvc_polyline(mu: float, f: float, n_angles: int = 720
                  ) -> list[tuple[float, float]]:
    pts = []
    params = SystemParams(mu)
    try:
        if first_critical_value(params) <= -f:
            return []
    except CcorbError:
        return []
    for i in range(n_angles + 1):
        th = 2.0 * math.pi * i / n_angles
        r = _zvc_radius_along(math.cos(th), math.sin(th), mu, f)
        if not math.isnan(r):
            pts.append((r * math.cos(th), r * math.sin(th)))
    return pts


def cmd_orbit_svg(catalog_path: str, index: int, out: str) -> int:
    if not os.path.exists(catalog_path):
        raise UsageError(f"catalog {catalog_path!r} does not exist")
    catalog = ChordCatalog.load(catalog_path)
    if not 0 <= index < len(catalog.entries):
        raise UsageError(
            f"catalog index {index} out of range 0..{len(catalog.entries)-1}")
    if "t_max" not in catalog.run_config:
        raise UsageError(
            f"catalog {catalog_path!r} header has no t_max; cannot re-shoot "
            "the chord")
    entry = catalog.entries[index]
    tols = entry.get("integrator_tolerances", {})
    run = RunConfig(command="orbit-svg", mu=entry["mu"],
                    jacobi=entry["jacobi"],
                    rel_tol=tols.get("rel_tol", 1e-10),
                    abs_tol=tols.get("abs_tol", 1e-12),
                    t_max=catalog.run_config["t_max"])
    orbit = _chord_path_points(entry, run.settings())
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

    cfg = run.to_dict()
    cfg["catalog"] = catalog_path
    cfg["index"] = index
    cfg["entry_s0"] = entry["s0"]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f"<!-- run_config: {_dumps(cfg)} -->",
        f"<!-- artifact_version: {__version__} -->",
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
    data = "\n".join(lines) + "\n"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    print(f"chord {index} (tau={_fmt(entry['tau_reeb'])}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# oberth


def cmd_oberth(speed: float, dv: float, json_out: bool = False) -> int:
    gain = oberth_energy_gain(speed, dv)
    if json_out:
        print(_dumps({"speed": speed, "dv": dv, "energy_gain": gain,
                      "artifact_version": __version__}))
    else:
        print(f"energy gain: {_fmt(gain)}")
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

    def add_common(p, jacobi_required=True):
        p.add_argument("--mu", type=float, required=True,
                       help="mass ratio of the primary at (1,0)")
        p.add_argument("--jacobi", required=jacobi_required,
                       help="Jacobi energy, a number or auto-X "
                            "(first critical value minus X)")
        p.add_argument("--rel-tol", type=float, default=1e-10)
        p.add_argument("--abs-tol", type=float, default=1e-12)
        p.add_argument("--tmax", type=float, default=50.0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("lagrange", help="Lagrange points and critical value")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="shooting sweep producing a catalog")
    add_common(p)
    p.add_argument("--branch", choices=["plus", "minus", "both"],
                   default="both")
    p.add_argument("--s-range", default=None,
                   help="lo:hi axis window (default: both Hill segments)")
    p.add_argument("--grid", type=int, default=40)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--force", action="store_true",
                   help="scan even at/above the first critical value")

    p = sub.add_parser("integrate", help="one trajectory as CSV")
    add_common(p, jacobi_required=False)
    p.add_argument("--state", default=None, help="q1,q2,p1,p2")
    p.add_argument("--eject", type=float, default=None,
                   help="start at collision, ejecting at this angle "
                        "(radians; needs --regularized)")
    p.add_argument("--regularized", action="store_true")

    p = sub.add_parser("starshape", help="fiberwise star-shape certificate")
    add_common(p)
    p.add_argument("--base-grid", type=int, default=60)
    p.add_argument("--ray-grid", type=int, default=60)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orbit-svg", help="draw a cataloged chord")
    p.add_argument("--catalog", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oberth", help="energy gain of a burn at speed")
    p.add_argument("--speed", type=float, required=True)
    p.add_argument("--dv", type=float, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lagrange":
        return cmd_lagrange(args.mu, json_out=args.json, out=args.out)
    if args.command == "oberth":
        return cmd_oberth(args.speed, args.dv, json_out=args.json)
    if args.command == "orbit-svg":
        return cmd_orbit_svg(args.catalog, args.index, args.out)

    params = SystemParams(args.mu)
    jacobi = (_resolve_jacobi(args.jacobi, params)
              if args.jacobi is not None else None)
    run = RunConfig(command=args.command, mu=args.mu, jacobi=jacobi,
                    jacobi_spec=args.jacobi, rel_tol=args.rel_tol,
                    abs_tol=args.abs_tol, t_max=args.tmax, out=args.out)
    if args.command == "scan":
        run.branch = args.branch
        run.s_range = (_parse_srange(args.s_range)
                       if args.s_range else None)
        run.grid = args.grid
        run.k_max = args.kmax
        run.jobs = args.jobs
        return cmd_scan(run, force=args.force)
    if args.command == "integrate":
        state = _parse_state(args.state) if args.state else None
        return cmd_integrate(run, state, args.eject, args.regularized)
    if args.command == "starshape":
        run.extra = {"base_grid": args.base_grid, "ray_grid": args.ray_grid}
        return cmd_starshape(run, args.base_grid, args.ray_grid,
                             json_out=args.json)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CcorbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
