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
collision root, so plain bisection in s refines brackets found by a grid
scan.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

from .dynamics import (
    PhaseState,
    SystemParams,
    hamiltonian_values,
    hill_component_interval,
)
from .errors import (
    BisectionStagnationError,
    EnergeticallyForbiddenError,
    TangentialRootError,
    UsageError,
)
from .integrator import (
    Flow,
    IntegrationSettings,
    Trajectory,
    integrate,
    locate_event,
    _rhs_regularized,
)
from .regularization import Chart, RegularizedLevel, phase_to_chart

#: pericenter minima with |q| above this radius are not near passes (D12)
R_NEAR = 0.2
_R_NEAR_SQ = R_NEAR * R_NEAR
#: bisection stops when the s-interval is below this width
S_INTERVAL_TOL = 1e-13
#: grid points with |m| below this but no sign change flag tangential roots
GRAZING_TOL = 1e-4
#: refined shots must come at least this close to O to count as collisions
R_PERI_COLLISION = 1e-9
#: endpoint closure threshold for the periodic-orbit heuristic
PERIODIC_CANDIDATE_TOL = 1e-8


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
class MissSample:
    """Graded outcome of one shot.

    ``m`` is the signed miss at the k-th pericenter, ``r_peri`` the
    pericenter distance to O, ``t_peri`` the physical flight time to it
    and ``t_reg`` the regularized flow time (the integration variable).
    ``b_end`` is the fiber coordinate there.  ``valid`` is False when
    fewer than k near passes occur within t_max, or when the shot cannot
    start; that is an answer, not an error.
    """

    s: float
    branch: Branch
    pericenter_index: int
    m: float
    r_peri: float
    t_peri: float
    t_reg: float
    valid: bool
    b_end: tuple[float, float] | None = None


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
    symmetric: bool = True
    periodic_candidate: bool = False
    action: float | None = None
    conditioning: float = math.nan

    @property
    def side(self) -> str:
        return self.spec.side


_hill_cached = lru_cache(maxsize=64)(hill_component_interval)


def axis_discriminant(s: float, branch: Branch, mu: float, c: float) -> float:
    """Discriminant (s-mu)^2 + 2(c + (1-mu)/|s| + mu/|s-1|) of the p2 solve."""
    if s == 0.0 or s == 1.0:
        raise UsageError("axis shot cannot start on a primary")
    return (s - mu) ** 2 + 2.0 * (c + (1.0 - mu) / abs(s) + mu / abs(s - 1.0))


def axis_initial_state(spec: ShotSpec) -> PhaseState:
    """Perpendicular axis start with H = c.

    q = (s, 0), p = (0, p2) with p2 = (s - mu) +- sqrt(discriminant); the
    axis velocity component q1' = p1 + q2 vanishes identically.  Raises
    when the discriminant is negative (outside the zero-velocity oval) or
    when s leaves the admissible axis segment around O.
    """
    s = spec.s
    mu = spec.params.mu
    c = spec.level.c
    hill = _hill_cached(spec.params, spec.level)
    if not hill.contains(s):
        raise UsageError(
            f"shot start s={s} outside the Hill axis interval "
            f"({hill.s_min:.6g}, {hill.s_max:.6g})")
    disc = axis_discriminant(s, spec.branch, mu, c)
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


def _pericenter_rate(level: RegularizedLevel):
    """Event function d|q|^2/dt evaluated chart-smoothly."""
    rhs = _rhs_regularized(level.params.mu, level.f)

    def rate(t, chart, y):
        f = rhs(chart, y)
        bdot = y[2] * f[2] + y[3] * f[3]
        if chart is Chart.NORTH:
            return 2.0 * bdot
        alpha = y[0] * y[0] + y[1] * y[1]
        beta2 = y[2] * y[2] + y[3] * y[3]
        adot = y[0] * f[0] + y[1] * f[1]
        return 2.0 * alpha * (2.0 * beta2 * adot + alpha * bdot)
    return rate


def _radius_sq(chart: Chart, y) -> float:
    beta2 = y[2] * y[2] + y[3] * y[3]
    if chart is Chart.NORTH:
        return beta2
    alpha = y[0] * y[0] + y[1] * y[1]
    return alpha * alpha * beta2


class _PericenterCounter:
    """Early-stop predicate: counts near-pass minima step by step.

    Node sampling may undercount (never overcount) qualifying minima, so
    integration can only stop late, never before the k-th pericenter.
    """

    def __init__(self, level: RegularizedLevel, k: int):
        self.rate = _pericenter_rate(level)
        self.k = k
        self.count = 0

    def __call__(self, traj: Trajectory) -> bool:
        st = traj.steps[-1]
        t_mid = st.t0 + 0.5 * st.h
        nodes = ((st.t0, st.y0), (t_mid, st.eval(t_mid)),
                 (st.t0 + st.h, st.y1))
        vals = [self.rate(t, st.chart, y) for t, y in nodes]
        for j in range(2):
            if vals[j] < 0.0 <= vals[j + 1]:
                if min(_radius_sq(st.chart, nodes[j][1]),
                       _radius_sq(st.chart, nodes[j + 1][1])) < _R_NEAR_SQ:
                    self.count += 1
        return self.count >= self.k


def pericenter_hits(traj: Trajectory):
    """Ordered near-pass pericenters of a regularized trajectory.

    Minima of the smooth |q|^2 surrogate located on the dense output;
    shallow minima with |q| >= :data:`R_NEAR` are ignored.
    """
    rate = _pericenter_rate(traj.level)
    hits = locate_event(traj, rate, direction=+1)
    return [h for h in hits if _radius_sq(h.chart, h.y) < _R_NEAR_SQ]


def _shoot(spec: ShotSpec, settings: IntegrationSettings, k: int):
    """Integrate a shot until its k-th near pass; returns (traj, hits)."""
    state = axis_initial_state(spec)
    counter = _PericenterCounter(spec.level, k)
    traj = integrate(Flow.REGULARIZED, phase_to_chart(state), spec.level,
                     settings, until=counter)
    return traj, pericenter_hits(traj)


def _miss_sample(spec: ShotSpec, k: int, hits) -> MissSample:
    """Grade a shot at its k-th near pass (invalid when it has none).

    The miss is the cross product a1 b2 - a2 b1 at the pass, read with
    the pericenter distance and both clocks from the located event.
    """
    if len(hits) < k:
        return MissSample(s=spec.s, branch=spec.branch, pericenter_index=k,
                          m=math.nan, r_peri=math.nan, t_peri=math.nan,
                          t_reg=math.nan, valid=False)
    hit = hits[k - 1]
    y = hit.y
    return MissSample(
        s=spec.s, branch=spec.branch, pericenter_index=k,
        m=y[0] * y[3] - y[1] * y[2],
        r_peri=math.sqrt(_radius_sq(hit.chart, y)), t_peri=y[4],
        t_reg=hit.t, valid=True, b_end=(y[2], y[3]))


def miss_function(spec: ShotSpec, settings: IntegrationSettings,
                  pericenter_index: int = 1) -> MissSample:
    """Signed miss of one shot at its k-th pericenter.

    The miss is the conserved-through-collision cross product
    a1 b2 - a2 b1 at the pericenter event; it is continuous in s along a
    branch and vanishes iff the shot collides at that passage.
    """
    _, hits = _shoot(spec, settings, pericenter_index)
    return _miss_sample(spec, pericenter_index, hits)


def _eval_shot_worker(spec: ShotSpec, settings: IntegrationSettings,
                      k_max: int) -> list[MissSample]:
    """Top-level grid worker (picklable): all k misses of one shot.

    A shot that cannot start yields k_max invalid samples.
    """
    try:
        _, hits = _shoot(spec, settings, k_max)
    except (UsageError, EnergeticallyForbiddenError):
        hits = []
    return [_miss_sample(spec, k, hits) for k in range(1, k_max + 1)]


def scan_and_bracket(s_range: tuple[float, float], n: int, branch: Branch,
                     params: SystemParams, level: RegularizedLevel,
                     settings: IntegrationSettings, k_max: int = 3,
                     jobs: int = 1) -> list[Bracket]:
    """Sweep a uniform s-grid and bracket miss-function sign changes.

    Each shot is integrated once; its pericenter passes 1..k_max define
    the k-indexed miss families.  Adjacent valid samples with opposite
    signs of m become refinable brackets; isolated grid points with
    |m| < :data:`GRAZING_TOL` but no sign change are flagged as tangential
    candidates.  With ``jobs`` > 1 the grid fans out over a process pool;
    results are merged in grid order, so the output is identical to a
    serial run.
    """
    lo, hi = s_range
    if not (lo < hi) or n < 2:
        raise UsageError("need s_lo < s_hi and a grid of at least 2 points")
    if lo <= 0.0 <= hi:
        raise UsageError("s-range must not contain the primary at s = 0")
    specs = [ShotSpec(s=lo + (hi - lo) * i / (n - 1), branch=branch,
                      params=params, level=level) for i in range(n)]
    worker = partial(_eval_shot_worker, settings=settings, k_max=k_max)
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(worker, specs, chunksize=1))
        except (OSError, PermissionError):
            results = [worker(spec) for spec in specs]
    else:
        results = [worker(spec) for spec in specs]

    brackets: list[Bracket] = []
    for k in range(1, k_max + 1):
        row = [shot[k - 1] for shot in results]
        for a, b in zip(row, row[1:]):
            if not (a.valid and b.valid):
                continue
            if (a.m < 0.0) != (b.m < 0.0):
                brackets.append(Bracket(s_lo=a.s, s_hi=b.s, m_lo=a.m,
                                        m_hi=b.m, pericenter_index=k,
                                        branch=branch))
        for sample in row:
            if not sample.valid or abs(sample.m) >= GRAZING_TOL:
                continue
            near_change = any(
                b.pericenter_index == k and b.s_lo <= sample.s <= b.s_hi
                for b in brackets)
            if not near_change:
                brackets.append(Bracket(
                    s_lo=sample.s, s_hi=sample.s, m_lo=sample.m,
                    m_hi=sample.m, pericenter_index=k, branch=branch,
                    kind="tangential"))
    brackets.sort(key=lambda b: (b.pericenter_index, b.s_lo))
    return brackets


def refine_chord(bracket: Bracket, branch: Branch, params: SystemParams,
                 level: RegularizedLevel, settings: IntegrationSettings
                 ) -> Chord:
    """Bisect a miss bracket down to a certified collision chord.

    Bisection proceeds until the s-interval is below 1e-13 (the graded
    miss moves roughly linearly in s, so this also drives the pericenter
    distance far below the 1e-9 collision threshold; that threshold is
    verified on the final shot rather than used as a stop rule, which
    would leave s* orders of magnitude short of its certified accuracy).
    The full chord is the forward trajectory to the collision passage plus
    its rho-mirror as the backward half: flight time and Reeb time are
    twice the forward clocks, and the start endpoint is the mirror of the
    collision fiber coordinate.
    """
    if bracket.kind != "sign_change":
        raise TangentialRootError(
            f"bracket at s={bracket.s_lo} has no sign change; refine by "
            "minimization manually")
    k = bracket.pericenter_index
    s_lo, s_hi = bracket.s_lo, bracket.s_hi
    m_lo, m_hi = bracket.m_lo, bracket.m_hi
    history = [(s_lo, m_lo), (s_hi, m_hi)]
    while s_hi - s_lo > S_INTERVAL_TOL:
        mid = 0.5 * (s_lo + s_hi)
        if mid == s_lo or mid == s_hi:
            break
        sample = miss_function(ShotSpec(s=mid, branch=branch, params=params,
                                        level=level), settings, k)
        if not sample.valid:
            raise BisectionStagnationError(
                f"pericenter {k} lost during bisection at s={mid}",
                interval=(s_lo, s_hi))
        history.append((mid, sample.m))
        if sample.m == 0.0:
            s_lo = s_hi = mid
            break
        if (sample.m < 0.0) == (m_lo < 0.0):
            s_lo, m_lo = mid, sample.m
        else:
            s_hi, m_hi = mid, sample.m

    s_star = 0.5 * (s_lo + s_hi)
    spec = ShotSpec(s=s_star, branch=branch, params=params, level=level)
    traj, hits = _shoot(spec, settings, k)
    sample = _miss_sample(spec, k, hits)
    if not sample.valid:
        raise BisectionStagnationError(
            f"refined shot lost its pericenter {k}", interval=(s_lo, s_hi))
    if sample.r_peri >= R_PERI_COLLISION:
        raise BisectionStagnationError(
            f"bisection converged in s but the pericenter distance "
            f"{sample.r_peri:.3e} is not a collision (tangential root?)",
            interval=(s_lo, s_hi))
    hit = hits[k - 1]
    if hit.chart is not Chart.SOUTH:
        raise BisectionStagnationError(
            "collision passage not in the South chart; cannot read the "
            "Legendrian endpoint", interval=(s_lo, s_hi))
    b_end = sample.b_end
    b_start = (b_end[0], -b_end[1])
    closure = math.hypot(b_end[0] - b_start[0], b_end[1] - b_start[1])
    return Chord(
        spec=spec,
        pericenter_index=k,
        tau_reeb=2.0 * hit.y[5],
        flight_time=2.0 * sample.t_peri,
        endpoint_start_b=b_start,
        endpoint_end_b=b_end,
        r_peri=sample.r_peri,
        samples=traj,
        t_reg_collision=sample.t_reg,
        symmetric=True,
        periodic_candidate=closure < PERIODIC_CANDIDATE_TOL,
        conditioning=_conditioning(history),
    )


def _conditioning(history: list[tuple[float, float]]) -> float:
    """|dm/ds| proxy from bisection history, read at a robust width.

    Slopes from the final, nearly degenerate brackets are dominated by
    integration noise; the estimate uses the opposite-sign pair whose
    width is closest to 1e-6.
    """
    best = math.nan
    best_score = math.inf
    pts = sorted(p for p in history if not math.isnan(p[1]))
    for (s_a, m_a), (s_b, m_b) in zip(pts, pts[1:]):
        if s_b - s_a <= 0.0 or (m_a < 0.0) == (m_b < 0.0):
            continue
        score = abs(math.log10((s_b - s_a) / 1e-6))
        if score < best_score:
            best_score = score
            best = abs((m_b - m_a) / (s_b - s_a))
    return best


def kepler_oracle_return_time(c: float) -> float:
    """Collision-to-collision time of the mu = 0 radial family.

    Radial ejection-collision orbits have zero angular momentum, so the
    Jacobi energy equals the Kepler energy -1/(2a) and the return time is
    the full radial period T = 2 pi (-2c)^(-3/2).
    """
    if c >= 0.0:
        raise UsageError("the radial collision family needs c < 0")
    return 2.0 * math.pi * (-2.0 * c) ** -1.5
