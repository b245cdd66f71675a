"""Symmetric shooting search for consecutive collision orbits.

Shots start on the axis of the primaries, q = (s, 0), with velocity
perpendicular to the axis (p1 = 0 there, p2 fixed by the energy).  Such a
shot is fixed by the reversing reflection rho(q1,q2,p1,p2) =
(q1,-q2,-p1,p2); if its forward flow reaches a collision, the reflected
backward flow reaches one too, so a single forward integration certifies a
full collision-to-collision orbit.

The signed miss of a shot is the chart-invariant cross product
a1 b2 - a2 b1 (the physical p1 q2 - p2 q1) evaluated at the k-th pericenter
passage with respect to O.  It vanishes exactly on collision orbits, is
smooth through collision in the South chart, and changes sign across a
collision root, so a safeguarded superlinear bracket solver in s
(:func:`~ccorb.dynamics.solve_bracket`) refines brackets found by a grid
scan.  A shot's outcome is its list of located passes
(:class:`~ccorb.integrator.EventHit`); every miss, probe and chord reads
its values straight off the k-th one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .dynamics import (
    PhaseState,
    SystemParams,
    effective_potential,
    hamiltonian_values,
    hill_component_interval,
    solve_bracket,
)
from .errors import (
    BisectionStagnationError,
    CcorbError,
    EnergeticallyForbiddenError,
    SingularInputError,
    TangentialRootError,
    UsageError,
)
from .integrator import (
    Flow,
    IntegrationSettings,
    Trajectory,
    _initial_step,
    integrate,
    locate_event,
    prepare_initial,
    step_roots,
)
from .lanes import integrate_lanes
from .regularization import Chart, RegularizedLevel

#: pericenter minima with |q| above this radius are not near passes (D12)
R_NEAR = 0.2
_R_NEAR_SQ = R_NEAR * R_NEAR
#: refinement stops when the s-interval is below this width
S_INTERVAL_TOL = 1e-13
#: probes closer than this give no slope, only roundoff, in |dm/ds|
SLOPE_MIN_SEPARATION = 1e-9
#: grid points with |m| below this but no sign change flag tangential roots
GRAZING_TOL = 1e-4
#: (rel_tol, abs_tol) of a scan grid's shots, which decide signs only,
#: when the run's own tolerances are tighter in both (see :func:`scan_grids`)
GRID_TOL = (1e-7, 1e-9)
#: the sign certificate's margin in |m| and in |q| at a pass, as a multiple
#: of the grid's rel_tol, and in the time of a pass, as a multiple of that
#: rel_tol times t_max: over 100 times the largest gap between a loose and
#: a full-tolerance shot on the reference grids
CERT_MARGIN = 3000.0
#: refined shots must come at least this close to O to count as collisions
R_PERI_COLLISION = 1e-9


class Branch(Enum):
    """Sign choice in p2 = (s - mu) +- sqrt(discriminant)."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class ShotSpec:
    """One axis shot: start coordinate, branch, and the energy data."""

    s: float
    branch: Branch
    params: SystemParams
    level: RegularizedLevel

    @property
    def side(self) -> str:
        return "pos" if self.s > 0 else "neg"


@dataclass(frozen=True)
class Bracket:
    """A sign change (or suspected tangency) between adjacent grid shots."""

    s_lo: float
    s_hi: float
    m_lo: float
    m_hi: float
    pericenter_index: int
    branch: Branch
    kind: str = "sign_change"  # or "tangential"


@dataclass
class Chord:
    """A refined consecutive collision orbit.

    The stored trajectory is the forward half (axis to collision); the
    backward half is its exact rho-mirror.  ``tau_reeb`` and
    ``flight_time`` are twice the forward clock readings; ``action`` is
    filled in by the quadrature diagnostic and must agree with
    ``tau_reeb``.  Endpoints are the South-chart fiber coordinates of the
    collision states; the start endpoint is the rho-mirror of the end.
    """

    spec: ShotSpec
    pericenter_index: int
    tau_reeb: float
    flight_time: float
    endpoint_start_b: tuple[float, float]
    endpoint_end_b: tuple[float, float]
    r_peri: float
    samples: Trajectory
    t_reg_collision: float
    action: float | None = None
    conditioning: float = math.nan

    @property
    def side(self) -> str:
        return self.spec.side


_hill_cached = lru_cache(maxsize=64)(hill_component_interval)


def axis_initial_state(spec: ShotSpec) -> PhaseState:
    """Perpendicular axis start with H = c.

    q = (s, 0), p = (0, p2) with p2 = (s - mu) +- sqrt(disc) and disc =
    2 (c - U(s, 0)) from :func:`~ccorb.dynamics.effective_potential`, the
    formula whose roots are the ends of the Hill interval; the axis
    velocity component q1' = p1 + q2 vanishes identically.  Raises when
    disc is negative (outside the zero-velocity oval) or when s leaves the
    admissible axis segment around O.
    """
    s = spec.s
    mu = spec.params.mu
    c = spec.level.c
    hill = _hill_cached(spec.params, spec.level)
    if not hill.contains(s):
        raise UsageError(
            f"shot start s={s} outside the Hill axis interval "
            f"({hill.s_min:.6g}, {hill.s_max:.6g})")
    disc = 2.0 * (c - effective_potential((s, 0.0), spec.params))
    if disc < 0.0:
        raise EnergeticallyForbiddenError(
            f"axis shot at s={s} is energetically forbidden "
            f"(discriminant {disc:.3e} < 0)")
    root = math.sqrt(disc)
    p2 = (s - mu) + root if spec.branch is Branch.PLUS else (s - mu) - root
    state = PhaseState(q=(s, 0.0), p=(0.0, p2))
    h = hamiltonian_values(s, 0.0, 0.0, p2, mu)
    if abs(h - c) > 1e-12 * max(1.0, abs(c)):
        raise UsageError(
            f"axis state misses the energy level: H - c = {h - c:.3e}")
    return state


def _pericenter_rate(t, chart, y, dy) -> float:
    """Event function with the sign of d|q|^2/dt, evaluated chart-smoothly:
    in the South chart, where |q|^2 = |a|^4 |b|^2, that rate over |a|^2 > 0,
    so a pass through a = 0 (collision) is a simple zero, not a near-triple
    one.  Also runs on the rows of a chart slice of lanes (numpy arrays)."""
    bdot = y[2] * dy[2] + y[3] * dy[3]
    if chart is Chart.NORTH:
        return 2.0 * bdot
    alpha = y[0] * y[0] + y[1] * y[1]
    beta2 = y[2] * y[2] + y[3] * y[3]
    adot = y[0] * dy[0] + y[1] * dy[1]
    return 2.0 * (2.0 * beta2 * adot + alpha * bdot)


def _radius_sq(chart: Chart, y) -> float:
    beta2 = y[2] * y[2] + y[3] * y[3]
    if chart is Chart.NORTH:
        return beta2
    alpha = y[0] * y[0] + y[1] * y[1]
    return alpha * alpha * beta2


def _near_passes(hits):
    """The pericenter hits closer to O than :data:`R_NEAR`."""
    return [h for h in hits if _radius_sq(h.chart, h.y) < _R_NEAR_SQ]


def _passes(st, rhs):
    """The near passes located in one accepted step."""
    return _near_passes(step_roots(st, rhs, _pericenter_rate))


def pericenter_hits(traj: Trajectory):
    """Ordered near-pass pericenters of a regularized trajectory.

    Minima of the smooth |q|^2 surrogate located on the dense output;
    shallow minima with |q| >= :data:`R_NEAR` are ignored.
    """
    return _near_passes(locate_event(traj, _pericenter_rate))


def _shoot(spec: ShotSpec, settings: IntegrationSettings, k: int):
    """Integrate a shot until its k-th near pass; returns (traj, hits).

    The passes are located step by step as the run goes, and the run
    stops at the step that holds the k-th one.  k counts from 1.
    """
    if k < 1:
        raise UsageError(f"pericenter index must be at least 1, got {k}")
    hits = []

    def until(traj: Trajectory) -> bool:
        hits.extend(_passes(traj.steps[-1], traj.rhs))
        return len(hits) >= k

    traj = integrate(Flow.REGULARIZED, axis_initial_state(spec), spec.level,
                     settings, until=until)
    return traj, hits


def _miss(hit) -> float:
    """The signed miss a1 b2 - a2 b1 at a located pass."""
    y = hit.y
    return y[0] * y[3] - y[1] * y[2]


def miss_function(spec: ShotSpec, settings: IntegrationSettings,
                  pericenter_index: int = 1) -> float:
    """Signed miss of one shot at its k-th pericenter.

    The miss is the conserved-through-collision cross product
    a1 b2 - a2 b1 at the pericenter event; it is continuous in s along a
    branch and vanishes iff the shot collides at that passage.  NaN when
    the shot makes fewer than k near passes within t_max.
    """
    _, hits = _shoot(spec, settings, pericenter_index)
    if len(hits) < pericenter_index:
        return math.nan
    return _miss(hits[pericenter_index - 1])


def _shoot_lanes(specs: list[ShotSpec], settings: IntegrationSettings,
                 k_max: int, lane_settings: IntegrationSettings
                 ) -> list[tuple[list, CcorbError | None]]:
    """Every shot of ``specs`` in one lockstep batch, to its k_max-th pass.

    Per spec, the (t, |q|^2, m) of its pericenter passes, near or not, and
    the error that ended its lane; ([], None) when it cannot start.  The
    lanes run at ``lane_settings``: ``settings`` itself in
    :func:`shoot_grid`, the loose grid tolerances in :func:`scan_grids`.
    ``settings`` must be able to start every lane, as it must for the
    scalar shot.  All specs share one level.
    """
    if k_max < 1:
        raise UsageError(f"k_max must be at least 1, got {k_max}")
    if not specs:
        return []
    level = specs[0].level
    if any(spec.level != level for spec in specs):
        raise UsageError("one lockstep batch takes one energy level")
    starts, spec_of = [], []
    for i, spec in enumerate(specs):
        try:
            starts.append(prepare_initial(
                Flow.REGULARIZED, axis_initial_state(spec), level))
        except UsageError:
            continue
        spec_of.append(i)
    rhs = Trajectory(Flow.REGULARIZED, level, settings, None, ()).rhs
    if lane_settings != settings:  # refuse what the scalar shot refuses
        for chart, y in starts:
            try:
                _initial_step(rhs, chart, y, rhs(chart, y),
                              settings.abs_tol, settings.rel_tol)
            except SingularInputError:
                continue
    passes = [[] for _ in starts]
    near = [0] * len(starts)

    def on_step(lane: int, st) -> bool:
        for hit in step_roots(st, rhs, _pericenter_rate):
            r2 = _radius_sq(hit.chart, hit.y)
            passes[lane].append((hit.t, r2, _miss(hit)))
            near[lane] += r2 < _R_NEAR_SQ
        return near[lane] >= k_max

    errors = integrate_lanes(starts, level, lane_settings, _pericenter_rate,
                             on_step)
    shots = [([], None)] * len(specs)
    for lane, i in enumerate(spec_of):
        shots[i] = (passes[lane], errors[lane])
    return shots


def _near_misses(passes, k_max: int) -> list[float]:
    """The misses of the first k_max near passes of :func:`_shoot_lanes`."""
    return [m for _, r2, m in passes if r2 < _R_NEAR_SQ][:k_max]


def shoot_grid(specs: list[ShotSpec], settings: IntegrationSettings,
               k_max: int) -> list[list[float]]:
    """The misses of passes 1..k_max of every shot, in one lockstep batch.

    Each list holds, bit for bit, the misses that :func:`_shoot` gives for
    its spec (:mod:`~ccorb.lanes` integrates all shots together).  It is
    shorter when t_max comes first, and empty when the shot cannot start
    or meets a singular point on its way.  A numerical failure of any shot
    is raised, the first in spec order.  All specs share one level.  A
    scan shoots its grids through :func:`scan_grids`, and every shot it
    takes at the run's settings comes through here.
    """
    misses: list[list[float]] = []
    for passes, error in _shoot_lanes(specs, settings, k_max, settings):
        if error is not None and not isinstance(error, UsageError):
            raise error
        misses.append([] if error is not None
                      else _near_misses(passes, k_max))
    return misses


def grid_specs(s_range: tuple[float, float], n: int, branch: Branch,
               level: RegularizedLevel) -> list[ShotSpec]:
    """The shots of a uniform n-point s-grid over ``s_range``, at the mass
    ratio of ``level``."""
    lo, hi = s_range
    if not (lo < hi) or n < 2:
        raise UsageError("need s_lo < s_hi and a grid of at least 2 points")
    if lo <= 0.0 <= hi:
        raise UsageError("s-range must not contain the primary at s = 0")
    return [ShotSpec(s=lo + (hi - lo) * i / (n - 1), branch=branch,
                     params=level.params, level=level) for i in range(n)]


def bracket_grid(specs: list[ShotSpec], misses: list[list[float]],
                 k_max: int) -> list[Bracket]:
    """Bracket the miss-function sign changes of one grid.

    ``misses`` are :func:`shoot_grid`'s lists for ``specs``, one branch
    in s order; passes 1..k_max define the k-indexed miss families.
    Adjacent finite misses of opposite sign become refinable brackets (a
    shot with fewer than k passes has no k-th miss); isolated grid points
    with |m| < :data:`GRAZING_TOL` but no sign change are flagged as
    tangential candidates.
    """
    branch = specs[0].branch
    brackets: list[Bracket] = []
    for k in range(1, k_max + 1):
        row = [(spec.s, shot[k - 1] if k <= len(shot) else math.nan)
               for spec, shot in zip(specs, misses)]
        for (sa, ma), (sb, mb) in zip(row, row[1:]):
            if (math.isfinite(ma) and math.isfinite(mb)
                    and (ma < 0.0) != (mb < 0.0)):
                brackets.append(Bracket(s_lo=sa, s_hi=sb, m_lo=ma, m_hi=mb,
                                        pericenter_index=k, branch=branch))
        for s, m in row:
            if not abs(m) < GRAZING_TOL:  # NaN, no k-th pass, fails too
                continue
            near_change = any(
                b.pericenter_index == k and b.s_lo <= s <= b.s_hi
                for b in brackets)
            if not near_change:
                brackets.append(Bracket(
                    s_lo=s, s_hi=s, m_lo=m, m_hi=m, pericenter_index=k,
                    branch=branch, kind="tangential"))
    brackets.sort(key=lambda b: (b.pericenter_index, b.s_lo))
    return brackets


def _certain(passes, failed: bool, t_max: float) -> bool:
    """The sign certificate: whether a shot at :data:`GRID_TOL` has the
    near-pass count, signs and grazing flags of the same shot at any
    tighter tolerance.

    ``passes`` are the (t, r, m) of the pericenter passes of its run, near
    or not, and ``failed`` says that an error ended it.  Errors scale with
    the tolerance (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4),
    so a value farther than :data:`CERT_MARGIN` times the grid's rel_tol
    from an edge stays on its side: r from :data:`R_NEAR` at every pass,
    m from 0 and from :data:`GRAZING_TOL` at a near pass, and t (by that
    margin times t_max) from t_max.
    """
    margin = CERT_MARGIN * GRID_TOL[0]
    return not failed and all(
        abs(r - R_NEAR) > margin
        and abs(t - t_max) > margin * t_max
        and (r > R_NEAR or (abs(m) > margin
                            and abs(abs(m) - GRAZING_TOL) > margin))
        for t, r, m in passes)


def scan_grids(grids: list[list[ShotSpec]], settings: IntegrationSettings,
               k_max: int) -> list[list[Bracket]]:
    """The brackets of each grid (:func:`bracket_grid`), from one batch.

    The grids share one level.  Signs are all a grid needs, so when both
    tolerances of ``settings`` are tighter than :data:`GRID_TOL`, its
    shots run at :data:`GRID_TOL`, to t_max plus the certificate's time
    margin, so that a pass just past t_max is seen.  Every shot at
    ``settings`` then goes through :func:`shoot_grid`: first each lane
    whose pass count, signs or grazing flags the sign certificate
    (:func:`_certain`) cannot vouch for, to k_max; then, once, each other
    grid point at a bracket end, to the largest k its ends there need.
    The grids are then bracketed again: the certificate vouches that the
    other lanes keep their pass counts, signs and grazing flags, and no
    bracket ends at a pass beyond the one a point was shot to, so the
    brackets are those of :func:`shoot_grid` at ``settings``, and each
    end's miss, the point of a tangential one included, is that shot's
    value.  Otherwise every shot runs at ``settings``.
    """
    specs = [spec for grid in grids for spec in grid]

    def brackets() -> list[list[Bracket]]:
        shots = iter(misses)
        return [bracket_grid(grid, [next(shots) for _ in grid], k_max)
                for grid in grids]

    def shoot_again(reach: dict[int, int]) -> None:
        """Shoot ``specs[i]`` to pass ``reach[i]``, a batch per k."""
        for k in sorted(set(reach.values())):
            again = [i for i in sorted(reach) if reach[i] == k]
            for i, shot in zip(again, shoot_grid([specs[i] for i in again],
                                                 settings, k)):
                misses[i] = shot

    if not (settings.rel_tol < GRID_TOL[0]
            and settings.abs_tol < GRID_TOL[1]):
        misses = shoot_grid(specs, settings, k_max)
        return brackets()
    t_max = settings.t_max
    loose = replace(settings, rel_tol=GRID_TOL[0], abs_tol=GRID_TOL[1],
                    t_max=t_max + CERT_MARGIN * GRID_TOL[0] * t_max)
    misses, unsure = [], {}  # unsure: spec index -> k_max
    for i, (passes, error) in enumerate(_shoot_lanes(specs, settings, k_max,
                                                     loose)):
        misses.append(_near_misses(passes, k_max))
        if not _certain([(t, math.sqrt(r2), m) for t, r2, m in passes],
                        error is not None, t_max):
            unsure[i] = k_max
    shoot_again(unsure)
    ends, start = {}, 0  # ends: spec index -> the largest k its ends need
    for grid, found in zip(grids, brackets()):
        at = {spec.s: i for i, spec in enumerate(grid, start)}
        start += len(grid)
        for b in found:
            for i in {at[b.s_lo], at[b.s_hi]} - unsure.keys():
                ends[i] = max(ends.get(i, 0), b.pericenter_index)
    shoot_again(ends)
    return brackets()


def scan_and_bracket(s_range: tuple[float, float], n: int, branch: Branch,
                     params: SystemParams, level: RegularizedLevel,
                     settings: IntegrationSettings, k_max: int = 3,
                     jobs: int = 1) -> list[Bracket]:
    """Sweep a uniform s-grid and bracket miss-function sign changes.

    The one-grid case of :func:`scan_grids`, on the grid of
    :func:`grid_specs`; every bracket end's miss is the shot's at
    ``settings``.  ``params`` and ``jobs`` are accepted for callers that
    pass them and have no effect: the shots take mu from ``level``, and the
    grid runs as one lockstep batch.
    """
    return scan_grids([grid_specs(s_range, n, branch, level)], settings,
                      k_max)[0]


def _slope_across(probes, negative_lo: bool) -> float:
    """|dm/ds| from the narrowest pair of probes that straddle the root.

    ``probes`` are (s, m) pairs; a pair counts when its two misses lie on
    opposite sides of zero (zero counts as positive) and its ends are at
    least :data:`SLOPE_MIN_SEPARATION` apart, so that the quotient is a
    slope and not roundoff.  NaN when no pair qualifies.
    """
    lows = [p for p in probes if (p[1] < 0.0) == negative_lo]
    highs = [p for p in probes if (p[1] < 0.0) != negative_lo]
    pairs = [(abs(sb - sa), abs(mb - ma)) for sa, ma in lows
             for sb, mb in highs if abs(sb - sa) >= SLOPE_MIN_SEPARATION]
    if not pairs:
        return math.nan
    ds, dm = min(pairs)
    return dm / ds


def refine_chord(bracket: Bracket, level: RegularizedLevel,
                 settings: IntegrationSettings) -> Chord:
    """Solve a miss bracket down to a certified collision chord.

    :func:`~ccorb.dynamics.solve_bracket` shrinks the s-interval below
    :data:`S_INTERVAL_TOL` (the graded miss moves roughly linearly in s,
    so this also drives the pericenter distance far below the 1e-9
    collision threshold; that threshold is verified on the chosen shot
    rather than used as a stop rule, which would leave s* orders of
    magnitude short of its certified accuracy).  The chord is the final
    bracket end with the smaller |m|; its probe shot is reused, and only a
    grid end is shot again.  The full chord is the forward trajectory to
    the collision passage plus its rho-mirror as the backward half:
    flight time and Reeb time are twice the forward clocks, and the start
    endpoint is the mirror of the collision fiber coordinate.  The
    reported |dm/ds| comes from :func:`_slope_across` over every evaluated
    miss, the grid ends included.  The shots run on ``bracket.branch`` at
    the mass ratio of ``level``.
    """
    if bracket.kind != "sign_change":
        raise TangentialRootError(
            f"bracket at s={bracket.s_lo} has no sign change; refine by "
            "minimization manually")
    k = bracket.pericenter_index
    branch, params = bracket.branch, level.params
    negative_lo = bracket.m_lo < 0.0
    probes = [(bracket.s_lo, bracket.m_lo), (bracket.s_hi, bracket.m_hi)]
    last = {}  # the last probe shot on each side: True for the lo side

    def shoot(s: float):
        spec = ShotSpec(s=s, branch=branch, params=params, level=level)
        traj, hits = _shoot(spec, settings, k)
        if len(hits) < k:
            raise BisectionStagnationError(
                f"pericenter {k} lost during refinement at s={s}",
                interval=(bracket.s_lo, bracket.s_hi))
        return spec, traj, hits[k - 1]

    def miss(s: float) -> float:
        shot = shoot(s)
        m = _miss(shot[2])
        probes.append((s, m))
        last[(m < 0.0) == negative_lo] = shot
        return m

    s_lo, m_lo, s_hi, m_hi = solve_bracket(
        miss, bracket.s_lo, bracket.m_lo, bracket.s_hi, bracket.m_hi,
        S_INTERVAL_TOL)
    on_lo = abs(m_lo) <= abs(m_hi)
    s_star = s_lo if on_lo else s_hi
    shot = last.get(on_lo)
    if shot is None or shot[0].s != s_star:
        shot = shoot(s_star)
    spec, traj, hit = shot
    r_peri = math.sqrt(_radius_sq(hit.chart, hit.y))
    if r_peri >= R_PERI_COLLISION:
        raise BisectionStagnationError(
            f"refinement converged in s but the pericenter distance "
            f"{r_peri:.3e} is not a collision (tangential root?)",
            interval=(s_lo, s_hi))
    if hit.chart is not Chart.SOUTH:
        raise BisectionStagnationError(
            "collision passage not in the South chart; cannot read the "
            "Legendrian endpoint", interval=(s_lo, s_hi))
    y = hit.y
    return Chord(
        spec=spec,
        pericenter_index=k,
        tau_reeb=2.0 * y[5],
        flight_time=2.0 * y[4],
        endpoint_start_b=(y[2], -y[3]),
        endpoint_end_b=(y[2], y[3]),
        r_peri=r_peri,
        samples=traj,
        t_reg_collision=hit.t,
        conditioning=_slope_across(probes, negative_lo),
    )


def kepler_oracle_return_time(c: float) -> float:
    """Collision-to-collision time of the mu = 0 radial family.

    Radial ejection-collision orbits have zero angular momentum, so the
    Jacobi energy equals the Kepler energy -1/(2a) and the return time is
    the full radial period T = 2 pi (-2c)^(-3/2).
    """
    if c >= 0.0:
        raise UsageError("the radial collision family needs c < 0")
    return 2.0 * math.pi * (-2.0 * c) ** -1.5
