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
from .dynamics import (
    SystemParams,
    _first_roots,
    _root_in,
    _roots_in,
    _sign_changes,
    first_critical_value,
)
from .errors import EnergyAboveCriticalError, IntegrityError, UsageError
from .integrator import (
    EVENT_TOL,
    Flow,
    _transition_state,
    integrate,
)
from .regularization import (
    Chart,
    MoserChartPoint,
    RegularizedLevel,
    fiber_ray,
    ray_g,
    ray_gp,
)
from .shooting import R_PERI_COLLISION, Chord

#: chords closer than this in both Reeb time and endpoint are duplicates
DEDUPE_TAU_TOL = 1e-6
DEDUPE_ENDPOINT_TOL = 1e-6
#: quadrature action must match the integrated Reeb clock this closely
ACTION_AGREEMENT_TOL = 1e-6
#: endpoint closure threshold for the periodic-orbit heuristic
PERIODIC_CANDIDATE_TOL = 1e-8
#: interior times at which ``symmetry_defect`` compares the mirror halves
SYMMETRY_SAMPLES = 100
#: star-shape scan: base-disk radius in either chart, grid points per
#: fiber ray, radial samples locating the zero-velocity curve (searched
#: RAY_SAMPLES at a time), and rays per numpy pass: 32, as at 64 or 128
#: a block's grids pass glibc's 128 kB heap-trim threshold and each pass
#: faults the freed pages in again (BENCH_roots.json); and base points
#: whose cap and t* solves go as one column: 8, 480 lanes at 60 rays, as
#: 20 or 60 run about 5% faster but raise the operation's own peak by
#: 0.14 and 1.4 MB (BENCH_columns.json)
STAR_CHART_RADIUS = 1.25
RAY_SAMPLES = 256
ZVC_SAMPLES = 1024
RAY_BLOCK = 32
BASE_GROUP = 8
_ZVC_GRID = np.linspace(1e-4, 2.0, ZVC_SAMPLES)


# ---------------------------------------------------------------------------
# action quadrature


def _simpson(values: list[float], h: float) -> float:
    """Composite Simpson sum of equally spaced ``values``, added in order."""
    n = len(values) - 1
    acc = values[0]
    for j in range(1, n + 1):
        acc += (1.0 if j == n else (4.0 if j % 2 else 2.0)) * values[j]
    return acc * h / 3.0


def chord_action(chord: Chord, refinement: int = 2) -> float:
    """Reeb action of a chord by Simpson quadrature on the dense output.

    Integrates -b . da/ds over the forward half and doubles (the mirror
    half contributes equally).  The quadrature runs at two resolutions
    with one Richardson sweep; each node is evaluated once, and the coarse
    nodes are every other fine node (``nseg`` is a power of two, so they
    agree bit for bit).  It shares only the accepted steps (dense
    polynomials, and the rate ``f0`` at each step start) with the
    integrator, not its clock accumulation, so agreement with
    ``tau_reeb`` is a real cross-check of the action = Reeb period
    identity.
    """
    if refinement < 0:
        raise UsageError("refinement must be >= 0")
    rhs = chord.samples.rhs
    sigma = chord.t_reg_collision
    nseg = 2 * 2 ** refinement
    coarse = fine = 0.0
    for st in chord.samples.steps:
        t0 = st.t0
        if t0 >= sigma:
            break
        t1 = min(st.t0 + st.h, sigma)
        h = (t1 - t0) / (2 * nseg)
        values = [st.f0[5]] + [rhs(st.chart, st.eval(t0 + j * h))[5]
                                 for j in range(1, 2 * nseg + 1)]
        coarse += _simpson(values[::2], (t1 - t0) / nseg)
        fine += _simpson(values, h)
    value = 2.0 * (fine + (fine - coarse) / 15.0)
    if value <= 0.0:
        raise IntegrityError(
            f"non-positive action {value!r}: wrong branch or orientation")
    return value


def symmetry_defect(chord: Chord) -> float:
    """Largest mirror-symmetry violation of a chord, by re-integration.

    The reflection (a1, a2, b1, b2) -> (-a1, a2, b1, -b2) conjugates the
    regularized flow to its time reversal, so a chord of flow length
    S = 2 ``t_reg_collision`` has mirror states at flow times s and S - s.
    Integrates the chord independently from its reconstructed start on the
    collision fiber to S, at the tolerances of the chord's own run, and
    compares those pairs, aligning charts where the two sides disagree.
    Sampling runs over interior times (5..95 percent of S) where neither
    endpoint fiber blow-up nor the terminal event tolerance contributes.
    """
    total = 2.0 * chord.t_reg_collision
    start = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                            b=chord.endpoint_start_b)
    traj = integrate(Flow.REGULARIZED, start, chord.spec.level,
                     replace(chord.samples.settings, t_max=total))
    worst = 0.0
    for j in range(1, SYMMETRY_SAMPLES + 1):
        s = total * (0.05 + 0.9 * j / (SYMMETRY_SAMPLES + 1))
        chart_a, ya = traj.eval(s)
        chart_b, yb = traj.eval(total - s)
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
    A ray whose cap sits below the level has as margin the cap's signed
    shortfall G(t_cap) - target, finite and negative, so a failing report
    is still valid JSON.  ``ok`` requires every sampled ray to cross
    exactly once with positive margin, i.e. no violation.
    """

    mu: float
    jacobi: float
    base_grid: int
    ray_grid: int
    rays_checked: int = 0
    min_margin: float = math.inf
    worst_chart: str = ""
    worst_base: tuple[float, float] = (0.0, 0.0)
    worst_angle: float = math.nan
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, chart: Chart, base, angle: float, margin: float,
               crossings: int) -> None:
        self.rays_checked += 1
        if crossings != 1 or not margin > 0.0:
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


def _zvc_radius_along(wh1, mu: float, f: float) -> np.ndarray:
    """First zero-velocity radius along each unit position direction.

    A direction enters u(r) = U(r w) + f only through ``wh1``, its
    component along the primaries' axis.  The search runs on
    ``_ZVC_GRID`` in chunks of ``RAY_SAMPLES`` radii for ``RAY_BLOCK``
    directions a pass (15 passes for a group of 8 base points at the CLI's
    60 rays), and stops for a direction at the chunk holding its first
    sign change; the cells found are refined as one column
    (:func:`~ccorb.dynamics._first_roots`).  NaN where a row has none.
    """
    def u(r, w1, sqrt=math.sqrt):
        de = sqrt(r * r - 2.0 * r * w1 + 1.0)
        return (-0.5 * (r * r - 2.0 * r * mu * w1 + mu * mu)
                - (1.0 - mu) / r - mu / de + f)

    return _first_roots(u, _ZVC_GRID, wh1, 1e-12, RAY_BLOCK, RAY_SAMPLES)


def _check_rays(report: StarshapeReport, chart: Chart, group, rays,
                north_caps, mu: float, f: float) -> None:
    """Certify the fiber rays b = t v, t > 0, of a group of base points.

    Along a ray G is :func:`~ccorb.regularization.ray_g`.  The ray is
    capped where the position meets the zero-velocity curve (in the North
    chart at ``north_caps``, the radii along v; in the South chart at the
    radii that one :func:`_zvc_radius_along` call finds for all the
    group's rays); there G >= target, so an even crossing count on
    (0, cap] is impossible and a miscount would be detected.  G is
    evaluated on numpy grids of ``RAY_BLOCK`` rays of one base point, and
    G' (the dip guard's) only from the block's first once-crossing cell on;
    each grid's sign changes are read block-wide
    (:func:`~ccorb.dynamics._sign_changes`).  The t* brackets take their end
    values from the G grid, bit for bit its float values, and the group's
    are solved as one column (:func:`~ccorb.dynamics._roots_in`); the
    margins, dip solves and records then go ray by ray, in order.
    """
    target = 1.0 - mu
    angles = [math.atan2(b, a) for a, b in rays.T.tolist()]
    fibers = [(a0, fiber_ray(chart, *a0, *rays, mu, f)) for a0 in group]
    # collision fiber (and its immediate neighbours): the position ray
    # degenerates, G is essentially linear; a fixed cap covers the
    # crossing near t = 2 target with room to spare.
    wh1 = [w1 / rho for _, (_, _, rho, w1) in fibers if rho >= 1e-9]
    rds = iter(_zvc_radius_along(np.ravel(wh1), mu, f).reshape(len(wh1), -1)
               if wh1 and chart is Chart.SOUTH else ())
    rows, blocks = [], []  # per ray, for its record; per block, t* brackets
    for a0, (c1, c2s, rho, w1s) in fibers:
        t_caps = np.full(len(c2s), 6.0)
        if rho >= 1e-9:
            rd = north_caps if chart is Chart.NORTH else next(rds)
            note = (f"no zero-velocity cap on chart {chart.value} ray; "
                    "capping at |q| = 2")
            if np.isnan(rd).any() and note not in report.notes:
                report.notes.append(note)
            t_caps = (np.where(np.isnan(rd), 2.0, rd) / rho) * (1.0 + 1e-6)
        guard = mu > 0.0 and rho >= 1e-9
        for k in range(0, len(c2s), RAY_BLOCK):
            c2, w1, caps = (x[k:k + RAY_BLOCK] for x in (c2s, w1s, t_caps))
            block = c1, c2[:, None], rho, w1[:, None], mu, np.sqrt
            # np.linspace's arithmetic: i * (t_cap / RAY_SAMPLES), the last
            # column t_cap
            t_grid = np.arange(RAY_SAMPLES + 1.0) * (caps[:, None]
                                                     / RAY_SAMPLES)
            t_grid[:, -1] = caps
            gs = ray_g(t_grid, *block)
            below = gs < target
            if not below[:, 0].all():
                raise IntegrityError(
                    "ray starts on or above the level at t = 0")
            # G(0) < target <= G(t_cap), or else the zero-velocity bound fails
            # and the cap's shortfall is the margin: a violation, not parity
            ok = ~below[:, -1]
            changes, crosses = _sign_changes(below), ok.tolist()
            first = [c[0] for c, x in zip(changes, crosses) if x]
            # sub-grid dip guard of a once-crossing ray: G' from the block's
            # first such crossing cell i0 on, as a G' root in a cell j before
            # the ray's crossing cell i lies at t <= t[j + 1] <= t[i] <= t*
            i0 = min([c[0] for c in changes if guard and len(c) == 1],
                     default=RAY_SAMPLES)
            ts = t_grid[:, i0:]
            turns = _sign_changes(ray_gp(ts, *block) > 0.0)
            for r, (c, x, shortfall) in enumerate(zip(
                    changes, crosses, (gs[:, -1] - target).tolist())):
                dips = ([ts[r, j:j + 2].tolist() for j in turns[r]]
                        if len(c) == 1 else ())
                rows.append((a0, angles[k + r], len(c),
                             None if x else shortfall, dips))
            blocks.append(np.array([
                t_grid[ok, first], gs[ok, first] - target,
                t_grid[:, 1:][ok, first], gs[:, 1:][ok, first] - target,
                np.full(len(first), c1), c2[ok], np.full(len(first), rho),
                w1[ok], caps[ok]]))

    lo, flo, hi, fhi, *cols, t_cap = np.concatenate(blocks, axis=1)
    lanes = zip(_roots_in(
        lambda t, k: ray_g(t, *(x[k] for x in cols), mu, np.sqrt) - target,
        lo, flo, hi, fhi, 1e-12 * np.where(t_cap > 1.0, t_cap, 1.0)
    ).tolist(), *(x.tolist() for x in cols), t_cap.tolist())
    for a0, angle, crossings, margin, dips in rows:
        if margin is None:
            t_star, *fiber, t_cap = next(lanes)
            margin = t_star * target * ray_gp(t_star, *fiber, mu)
            for t_lo, t_hi in dips:
                t_c = _root_in(lambda t: ray_gp(t, *fiber, mu), t_lo, t_hi,
                               width=1e-10 * max(1.0, t_cap))
                if t_c > t_star and ray_g(t_c, *fiber, mu) < target:
                    crossings = 3  # at least; the dip re-enters
                    break
        report.record(chart, a0, angle, margin, crossings)


def starshape_scan(params: SystemParams, level: RegularizedLevel,
                   base_grid: int = 24, ray_grid: int = 48) -> StarshapeReport:
    """Sample fiberwise star-shapedness of the regularized level.

    Scans both charts over a golden-angle disk of base points (the origin,
    i.e. the collision fiber of the South chart, is always included) and
    ``ray_grid`` uniformly spread fiber rays per base point, ``RAY_BLOCK``
    rays to a numpy pass (the CLI's 60 take two), ``BASE_GROUP`` base
    points of a chart to a column of root solves.  The North caps are
    searched once for the whole scan, the South ones once per group, and
    each group's t* solves are one column; a pass reads G' only from its
    first crossing on.
    Requires the energy to lie below the first critical value so that the
    component around O is compact.
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
    report = StarshapeReport(mu=mu, jacobi=c, base_grid=base_grid,
                             ray_grid=ray_grid)
    bases = _base_disk(base_grid, STAR_CHART_RADIUS)
    angles = [2.0 * math.pi * i / ray_grid for i in range(ray_grid)]
    rays = np.array([(math.cos(t), math.sin(t)) for t in angles]).T
    north_caps = _zvc_radius_along(rays[0], mu, f)
    for chart in (Chart.NORTH, Chart.SOUTH):
        for k in range(0, len(bases), BASE_GROUP):
            _check_rays(report, chart, bases[k:k + BASE_GROUP], rays,
                        north_caps, mu, f)
    return report


# ---------------------------------------------------------------------------
# catalog


def _dumps(obj) -> str:
    """JSON text whose floats are their shortest round-trip ``repr``."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:  # NaN or infinity
        raise IntegrityError(f"non-finite float in output: {exc}") from exc


def entry_from_chord(chord: Chord) -> dict:
    """Catalog row for a refined chord (field order is the file order).

    The row records the tolerances of the chord's own run.
    ``periodic_candidate`` starts False; :func:`_mark_chains` sets it once
    the row is in a catalog.
    """
    spec, settings = chord.spec, chord.samples.settings
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
        "periodic_candidate": False,
        "integrator_tolerances": {
            "rel_tol": settings.rel_tol,
            "abs_tol": settings.abs_tol,
            "event_tol": EVENT_TOL,
        },
        "artifact_version": __version__,
    }


@dataclass
class ChordCatalog:
    """Ordered, de-duplicated collection of certified chords."""

    run_config: dict = field(default_factory=dict)
    entries: list[dict] = field(default_factory=list)

    def save(self, path) -> None:
        """Write the catalog as JSON lines, header first; all the text is
        formed first, so a non-finite float leaves ``path`` as it was."""
        header = {"run_config": self.run_config,
                  "artifact_version": __version__}
        text = "".join(_dumps(row) + "\n" for row in [header, *self.entries])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "ChordCatalog":
        """Read a saved catalog, which may come from anywhere.

        Raises :class:`IntegrityError` for any line that is not a JSON
        object (or not UTF-8), and for a first line without a
        ``run_config`` object.
        """
        try:  # ValueError: text that is not UTF-8, or a line not JSON
            with open(path, "r", encoding="utf-8") as fh:
                rows = [json.loads(ln) for ln in fh.read().splitlines()
                        if ln.strip()]
        except ValueError as exc:
            raise IntegrityError(f"catalog file {path}: {exc}") from exc
        if not rows:
            raise IntegrityError(f"catalog file {path} is empty")
        if not all(isinstance(row, dict) for row in rows):
            raise IntegrityError(
                f"catalog file {path} holds a line that is not an object")
        if not isinstance(rows[0].get("run_config"), dict):
            raise IntegrityError(f"catalog file {path} lacks a header line")
        return cls(run_config=rows[0]["run_config"], entries=rows[1:])


def catalog_insert(catalog: ChordCatalog, chord: Chord) -> bool:
    """Verify a chord's invariants and insert it unless it is a duplicate.

    Checks: positive Reeb time, collision-grade pericenter distance,
    mirror-consistent endpoints on the collision fiber radius 2(1 - mu),
    and agreement of the quadrature action with the Reeb clock.
    Near-duplicates (both Reeb time and collision endpoint within 1e-6)
    are skipped; returns True iff the chord was added.  Entries stay
    sorted by Reeb time, and record the tolerances of the chord's own run.
    """
    if chord.action is None:
        chord.action = chord_action(chord)
    if not chord.tau_reeb > 0.0:
        raise IntegrityError(f"non-positive Reeb time {chord.tau_reeb}")
    if not chord.r_peri < R_PERI_COLLISION:
        raise IntegrityError(
            f"pericenter distance {chord.r_peri:.3e} is not collision-grade")
    if not abs(chord.action - chord.tau_reeb) < ACTION_AGREEMENT_TOL:
        raise IntegrityError(
            f"action {chord.action!r} disagrees with Reeb time "
            f"{chord.tau_reeb!r}")
    bs, be = chord.endpoint_start_b, chord.endpoint_end_b
    if not (abs(bs[0] - be[0]) <= 1e-12 and abs(bs[1] + be[1]) <= 1e-12):
        raise IntegrityError("endpoints are not mirror images")
    radius = math.hypot(be[0], be[1])
    target = 2.0 * (1.0 - chord.spec.params.mu)
    if not abs(radius - target) <= 1e-6:
        raise IntegrityError(
            f"collision endpoint radius {radius!r} is off the Legendrian "
            f"({target!r})")
    entry = entry_from_chord(chord)
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


def _mark_chains(catalog: ChordCatalog) -> None:
    """Flag chords whose collision endpoint continues another chord.

    If the end fiber of one entry matches the start fiber of another (or
    its own), the pair concatenates into a candidate periodic collision
    orbit; this is a heuristic marker, not a certification.
    """
    ends = [e["endpoint_end_b"] for e in catalog.entries]
    starts = [e["endpoint_start_b"] for e in catalog.entries]
    for i, e_i in enumerate(ends):
        for j, s_j in enumerate(starts):
            if (math.hypot(e_i[0] - s_j[0], e_i[1] - s_j[1])
                    < PERIODIC_CANDIDATE_TOL):
                catalog.entries[i]["periodic_candidate"] = True
                catalog.entries[j]["periodic_candidate"] = True
