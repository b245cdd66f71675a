"""Geometric diagnostics: action quadrature, star-shapedness, catalog.

Three independent checks back the shooting results:

* ``chord_action`` recomputes the Reeb action of a chord by composite
  Simpson quadrature of -b . da/ds on the dense output, independently of
  the clock carried by the integrator; the two must agree.
* ``starshape_scan`` samples fibers of the regularized level and certifies
  that each ray from the fiber origin crosses the level exactly once and
  transversally, i.e. the level is fiberwise star-shaped.  This is the
  geometric hypothesis behind reading chords as Reeb orbits.
* ``ChordCatalog`` collects refined chords with invariant checks and
  near-duplicate rejection, and persists them as self-describing JSON
  lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .dynamics import SystemParams, _bisect_with_secant, first_critical_value
from .errors import EnergyAboveCriticalError, IntegrityError, UsageError
from .integrator import (
    Flow,
    IntegrationSettings,
    _rhs_regularized,
    _transition_state,
    integrate,
)
from .regularization import (
    Chart,
    MoserChartPoint,
    RegularizedLevel,
    fiber_image,
)
from .shooting import Chord

#: chords closer than this in both Reeb time and endpoint are duplicates
DEDUPE_TAU_TOL = 1e-6
DEDUPE_ENDPOINT_TOL = 1e-6
#: quadrature action must match the integrated Reeb clock this closely
ACTION_AGREEMENT_TOL = 1e-6
#: interior times at which ``symmetry_defect`` compares the mirror halves
SYMMETRY_SAMPLES = 100
#: star-shape scan: base-disk radius in either chart, grid points per
#: fiber ray, radial samples locating the zero-velocity curve
STAR_CHART_RADIUS = 1.25
RAY_SAMPLES = 256
ZVC_SAMPLES = 1024


# ---------------------------------------------------------------------------
# action quadrature


def chord_action(chord: Chord, refinement: int = 2,
                 half: bool = False) -> float:
    """Reeb action of a chord by Simpson quadrature on the dense output.

    Integrates -b . da/ds over the forward half and doubles (the mirror
    half contributes equally); ``half`` skips the doubling.  The
    quadrature runs at two resolutions with one Richardson sweep; it
    shares only the accepted step polynomials with the integrator, not
    its clock accumulation, so agreement with ``tau_reeb`` is a real
    cross-check of the action = Reeb period identity.
    """
    if refinement < 0:
        raise UsageError("refinement must be >= 0")
    level = chord.spec.level
    rhs = _rhs_regularized(level.params.mu, level.f)
    sigma = chord.t_reg_collision

    def quad(nseg: int) -> float:
        total = 0.0
        for st in chord.samples.steps:
            t0 = st.t0
            if t0 >= sigma:
                break
            t1 = min(st.t0 + st.h, sigma)
            h = (t1 - t0) / nseg
            acc = 0.0
            for j in range(nseg + 1):
                t = t0 + j * h
                y = st.y0 if j == 0 else st.eval(t)
                w = 1.0 if j in (0, nseg) else (4.0 if j % 2 else 2.0)
                acc += w * rhs(st.chart, y)[5]
            total += acc * h / 3.0
        return total

    nseg = 2 * 2 ** refinement
    coarse = quad(nseg)
    fine = quad(2 * nseg)
    value = fine + (fine - coarse) / 15.0
    if not half:
        value *= 2.0
    if value <= 0.0:
        raise IntegrityError(
            f"non-positive action {value!r}: wrong branch or orientation")
    return value


def _sigma_at_phys(traj, t_phys: float) -> float:
    """Flow parameter at which the carried physical clock reads t_phys.

    The clock component y[4] is nondecreasing along the regularized flow,
    so a bisection over the dense output suffices.
    """
    lo, hi = 0.0, traj.t_end
    if t_phys <= 0.0:
        return 0.0
    end_clock = traj.eval(hi)[1][4]
    if t_phys >= end_clock:
        raise UsageError(
            f"physical time {t_phys} beyond the trajectory clock "
            f"{end_clock}")
    for _ in range(200):
        if hi - lo < 1e-13 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if traj.eval(mid)[1][4] < t_phys:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def symmetry_defect(chord: Chord, settings: IntegrationSettings) -> float:
    """Largest mirror-symmetry violation of a chord, by re-integration.

    Integrates the chord independently from its reconstructed start on the
    collision fiber and compares states at physical times t and T - t
    under the reflection (a1, a2, b1, b2) -> (-a1, a2, b1, -b2), aligning
    charts where the two sides disagree.  Sampling runs over interior
    times (5..95 percent of the flight) where neither endpoint fiber
    blow-up nor the terminal event tolerance contributes.
    """
    level = chord.spec.level
    total = chord.flight_time
    start = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                            b=chord.endpoint_start_b)

    def past_flight(traj) -> bool:
        return traj.steps[-1].y1[4] >= total

    run = replace(settings, t_max=chord.samples.t_end * 2.5 + 1.0)
    traj = integrate(Flow.REGULARIZED, start, level, run, until=past_flight)
    if traj.eval(traj.t_end)[1][4] < total:
        raise UsageError("re-integration fell short of the flight time")

    worst = 0.0
    for j in range(1, SYMMETRY_SAMPLES + 1):
        t = total * (0.05 + 0.9 * j / (SYMMETRY_SAMPLES + 1))
        sa = _sigma_at_phys(traj, t)
        sb = _sigma_at_phys(traj, total - t)
        chart_a, ya = traj.eval(sa)
        chart_b, yb = traj.eval(sb)
        mb = (-yb[0], yb[1], yb[2], -yb[3])
        if chart_b is not chart_a:
            chart_b, mb = _transition_state(chart_b, mb)
        if chart_b is not chart_a:
            raise UsageError("chart alignment failed in symmetry check")
        defect = max(abs(ya[i] - mb[i]) for i in range(4))
        worst = max(worst, defect)
    return worst


# ---------------------------------------------------------------------------
# fiberwise star-shapedness


@dataclass
class StarshapeReport:
    """Outcome of a fiberwise star-shapedness scan.

    ``margin`` for a ray is the directional derivative of the squared
    level function along the fiber-scaling field b d/db at the crossing,
    i.e. t* G(t*) G'(t*): positive iff the ray exits the level outward.
    ``ok`` requires every sampled ray to cross exactly once with positive
    margin.
    """

    mu: float
    jacobi: float
    base_count: int
    ray_count: int
    rays_checked: int = 0
    ok: bool = True
    min_margin: float = math.inf
    worst_chart: str = ""
    worst_base: tuple[float, float] = (0.0, 0.0)
    worst_angle: float = math.nan
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, chart: Chart, base, angle: float, margin: float,
               crossings: int) -> None:
        self.rays_checked += 1
        if crossings != 1 or margin <= 0.0:
            self.ok = False
            self.violations.append({
                "chart": chart.value, "base": (base[0], base[1]),
                "angle": angle, "crossings": crossings, "margin": margin,
            })
        if margin < self.min_margin:
            self.min_margin = margin
            self.worst_chart = chart.value
            self.worst_base = (base[0], base[1])
            self.worst_angle = angle


def _base_disk(n: int, radius: float) -> list[tuple[float, float]]:
    """Golden-angle disk sample with the origin prepended."""
    pts = [(0.0, 0.0)]
    ga = math.pi * (3.0 - math.sqrt(5.0))
    for j in range(n - 1):
        r = radius * math.sqrt((j + 0.5) / max(1, n - 1))
        pts.append((r * math.cos(ga * j), r * math.sin(ga * j)))
    return pts


def _zvc_radius_along(wh1: float, wh2: float, mu: float, f: float) -> float:
    """First zero-velocity radius along the unit position direction."""
    rd = np.linspace(1e-4, 2.0, ZVC_SAMPLES)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist_e = np.sqrt(rd * rd - 2.0 * rd * wh1 + 1.0)
        u = (-0.5 * (rd * rd - 2.0 * rd * mu * wh1 + mu * mu)
             - (1.0 - mu) / rd - mu / dist_e + f)
    sign = u > 0.0
    idx = np.flatnonzero(sign[1:] != sign[:-1])
    if idx.size == 0:
        return math.nan

    def u_scalar(r: float) -> float:
        de = math.sqrt(r * r - 2.0 * r * wh1 + 1.0)
        return (-0.5 * (r * r - 2.0 * r * mu * wh1 + mu * mu)
                - (1.0 - mu) / r - mu / de + f)

    i = int(idx[0])
    return _bisect_with_secant(u_scalar, float(rd[i]), float(rd[i + 1]),
                               width=1e-12)


def _check_ray(report: StarshapeReport, chart: Chart, a0, v, c1: float,
               mu: float, f: float, target: float) -> None:
    """Certify one fiber ray b = t v, t > 0.

    Along the ray G(t) = c1 t + c2 t^2 - mu rho t / d(t) with d the
    distance of the pulled-back position t w to the primary E.  The ray is
    capped where the position meets the zero-velocity curve; there G >=
    target, so an even crossing count on (0, cap] is impossible and a
    miscount would be detected.
    """
    a1, a2 = a0
    v1, v2 = v
    alpha = a1 * a1 + a2 * a2
    if chart is Chart.NORTH:
        rho = 1.0
        w1, w2 = v1, v2
    else:
        rho = alpha
        w1, w2 = fiber_image(a1, a2, v1, v2)
    c2 = rho * (a1 * v2 - a2 * v1)

    if rho < 1e-9:
        # collision fiber (and its immediate neighbours): the position ray
        # degenerates, G is essentially linear; a fixed cap covers the
        # crossing near t = 2 target with room to spare.
        t_cap = 6.0
    else:
        rd = _zvc_radius_along(w1 / rho, w2 / rho, mu, f)
        if math.isnan(rd):
            report.notes.append(
                f"no zero-velocity cap on chart {chart.value} ray; "
                "capping at |q| = 2")
            rd = 2.0
        t_cap = (rd / rho) * (1.0 + 1e-6)

    def g(t: float) -> float:
        if mu == 0.0:
            return c1 * t + c2 * t * t
        d = math.sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
        return c1 * t + c2 * t * t - mu * rho * t / d

    def gp(t: float) -> float:
        if mu == 0.0:
            return c1 + 2.0 * c2 * t
        d = math.sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
        return c1 + 2.0 * c2 * t - mu * rho * (1.0 - t * w1) / d ** 3

    t_grid = np.linspace(0.0, t_cap, RAY_SAMPLES + 1)
    if mu == 0.0:
        g_arr = c1 * t_grid + c2 * t_grid * t_grid
    else:
        d_arr = np.sqrt(rho * rho * t_grid * t_grid - 2.0 * t_grid * w1 + 1.0)
        g_arr = (c1 * t_grid + c2 * t_grid * t_grid
                 - mu * rho * t_grid / d_arr)
    below = g_arr < target
    if not below[0]:
        raise IntegrityError("ray starts on or above the level at t = 0")
    change = np.flatnonzero(below[1:] != below[:-1])
    crossings = int(change.size)
    angle = math.atan2(v2, v1)

    if g_arr[-1] < target:
        # cap value below the level contradicts the zero-velocity bound;
        # report as a violation rather than trusting the parity argument.
        report.record(chart, a0, angle, -math.inf, crossings)
        return

    margin = math.inf
    if crossings >= 1:
        i = int(change[0])
        t_star = _bisect_with_secant(lambda t: g(t) - target,
                                     float(t_grid[i]), float(t_grid[i + 1]),
                                     width=1e-12 * max(1.0, t_cap))
        margin = t_star * target * gp(t_star)

    if crossings == 1 and mu > 0.0 and rho >= 1e-9:
        # sub-grid dip guard: locate critical points of G and make sure no
        # local extremum beyond the crossing sits below the level.
        gp_arr = (c1 + 2.0 * c2 * t_grid
                  - mu * rho * (1.0 - t_grid * w1)
                  / np.sqrt(rho * rho * t_grid * t_grid
                            - 2.0 * t_grid * w1 + 1.0) ** 3)
        sign_p = gp_arr > 0.0
        flips = np.flatnonzero(sign_p[1:] != sign_p[:-1])
        for j in map(int, flips):
            t_c = _bisect_with_secant(gp, float(t_grid[j]),
                                      float(t_grid[j + 1]),
                                      width=1e-10 * max(1.0, t_cap))
            if t_c > t_star and g(t_c) < target:
                crossings = 3  # at least; the dip re-enters the level
                break

    report.record(chart, a0, angle, margin, crossings)


def starshape_scan(params: SystemParams, level: RegularizedLevel,
                   base_grid: int = 24, ray_grid: int = 48) -> StarshapeReport:
    """Sample fiberwise star-shapedness of the regularized level.

    Scans both charts over a golden-angle disk of base points (the origin,
    i.e. the collision fiber of the South chart, is always included) and
    ``ray_grid`` uniformly spread fiber rays per base point.  Requires the
    energy to lie below the first critical value so that the component
    around O is compact.
    """
    if params.mu != level.params.mu:
        raise UsageError("params and level disagree about mu")
    if base_grid < 1 or ray_grid < 3:
        raise UsageError("need at least 1 base point and 3 rays")
    mu, f = params.mu, level.f
    c = level.c
    if c >= first_critical_value(params):
        raise EnergyAboveCriticalError(
            f"star-shapedness scan needs c below the first critical value; "
            f"got c = {c}")
    target = 1.0 - mu
    report = StarshapeReport(mu=mu, jacobi=c, base_count=base_grid,
                             ray_count=ray_grid)
    bases = _base_disk(base_grid, STAR_CHART_RADIUS)
    angles = [2.0 * math.pi * i / ray_grid for i in range(ray_grid)]
    rays = [(math.cos(t), math.sin(t)) for t in angles]
    for chart in (Chart.NORTH, Chart.SOUTH):
        for a0 in bases:
            alpha = a0[0] * a0[0] + a0[1] * a0[1]
            rho = 1.0 if chart is Chart.NORTH else alpha
            c1 = 0.5 * (1.0 + alpha) + mu * a0[1] + (f - 0.5) * rho
            for v in rays:
                _check_ray(report, chart, a0, v, c1, mu, f, target)
    return report


# ---------------------------------------------------------------------------
# catalog


def _format_float(x: float) -> str:
    out = format(x, ".17g")
    if not any(ch in out for ch in ".eE") and out.strip("-").isdigit():
        out += ".0"
    return out


def _dumps(obj) -> str:
    """JSON text with floats rendered as %.17g (bit-exact round trips)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise IntegrityError("non-finite float in catalog output")
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def entry_from_chord(chord: Chord, settings: IntegrationSettings) -> dict:
    """Catalog row for a refined chord (field order is the file order)."""
    spec = chord.spec
    return {
        "mu": spec.params.mu,
        "jacobi": spec.level.c,
        "branch": spec.branch.value,
        "side": chord.side,
        "pericenter_index": chord.pericenter_index,
        "s0": spec.s,
        "tau_reeb": chord.tau_reeb,
        "action": chord.action,
        "flight_time": chord.flight_time,
        "r_peri": chord.r_peri,
        "endpoint_start_b": list(chord.endpoint_start_b),
        "endpoint_end_b": list(chord.endpoint_end_b),
        "symmetric": chord.symmetric,
        "periodic_candidate": chord.periodic_candidate,
        "integrator_tolerances": {
            "rel_tol": settings.rel_tol,
            "abs_tol": settings.abs_tol,
            "event_tol": settings.event_tol,
        },
        "artifact_version": __version__,
    }


@dataclass
class ChordCatalog:
    """Ordered, de-duplicated collection of certified chords."""

    run_config: dict = field(default_factory=dict)
    entries: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {"run_config": self.run_config,
                      "artifact_version": __version__}
            fh.write(_dumps(header) + "\n")
            for entry in self.entries:
                fh.write(_dumps(entry) + "\n")

    @classmethod
    def load(cls, path) -> "ChordCatalog":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise IntegrityError(f"catalog file {path} is empty")
        header = json.loads(lines[0])
        if "run_config" not in header:
            raise IntegrityError(f"catalog file {path} lacks a header line")
        return cls(run_config=header["run_config"],
                   entries=[json.loads(ln) for ln in lines[1:]])


def catalog_insert(catalog: ChordCatalog, chord: Chord,
                   settings: IntegrationSettings) -> bool:
    """Verify a chord's invariants and insert it unless it is a duplicate.

    Checks: positive Reeb time, collision-grade pericenter distance,
    symmetry, mirror-consistent endpoints on the collision fiber radius
    2(1 - mu), and agreement of the quadrature action with the Reeb clock.
    Near-duplicates (both Reeb time and collision endpoint within 1e-6)
    are skipped; returns True iff the chord was added.  Entries stay
    sorted by Reeb time.
    """
    if chord.action is None:
        chord.action = chord_action(chord)
    if not chord.tau_reeb > 0.0:
        raise IntegrityError(f"non-positive Reeb time {chord.tau_reeb}")
    if not chord.symmetric:
        raise IntegrityError("catalog only holds symmetric chords")
    if not chord.r_peri < 1e-9:
        raise IntegrityError(
            f"pericenter distance {chord.r_peri:.3e} is not collision-grade")
    if abs(chord.action - chord.tau_reeb) >= ACTION_AGREEMENT_TOL:
        raise IntegrityError(
            f"action {chord.action!r} disagrees with Reeb time "
            f"{chord.tau_reeb!r}")
    bs, be = chord.endpoint_start_b, chord.endpoint_end_b
    if abs(bs[0] - be[0]) > 1e-12 or abs(bs[1] + be[1]) > 1e-12:
        raise IntegrityError("endpoints are not mirror images")
    radius = math.hypot(be[0], be[1])
    target = 2.0 * (1.0 - chord.spec.params.mu)
    if abs(radius - target) > 1e-6:
        raise IntegrityError(
            f"collision endpoint radius {radius!r} is off the Legendrian "
            f"({target!r})")
    entry = entry_from_chord(chord, settings)
    for other in catalog.entries:
        if (abs(other["tau_reeb"] - entry["tau_reeb"]) < DEDUPE_TAU_TOL
                and math.hypot(other["endpoint_end_b"][0] - be[0],
                               other["endpoint_end_b"][1] - be[1])
                < DEDUPE_ENDPOINT_TOL):
            return False
    catalog.entries.append(entry)
    catalog.entries.sort(key=lambda e: (e["tau_reeb"], e["s0"]))
    _mark_chains(catalog)
    return True


def _mark_chains(catalog: ChordCatalog, tol: float = 1e-8) -> None:
    """Flag chords whose collision endpoint continues another chord.

    If the end fiber of one entry matches the start fiber of another (or
    its own), the pair concatenates into a candidate periodic collision
    orbit; this is a heuristic marker, not a certification.
    """
    ends = [e["endpoint_end_b"] for e in catalog.entries]
    starts = [e["endpoint_start_b"] for e in catalog.entries]
    for i, e_i in enumerate(ends):
        for j, s_j in enumerate(starts):
            if math.hypot(e_i[0] - s_j[0], e_i[1] - s_j[1]) < tol:
                catalog.entries[i]["periodic_candidate"] = True
                catalog.entries[j]["periodic_candidate"] = True
