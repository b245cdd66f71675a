"""Adaptive Runge-Kutta driver for the physical and regularized flows.

Characteristics
---------------
* Dormand-Prince embedded pair of orders 5(4), FSAL
* proportional step control with safety factor and growth clamps
* quartic dense-output interpolant on every accepted step
* event location step by step, by a bracket solve on the interpolant and
  never by step clipping, so the step sequence is independent of event
  queries
* automatic stereographic chart switching for the regularized flow with a
  hysteresis band (switch out at |a| > 1.25, re-entry happens below 0.8)
* bitwise-deterministic: no randomness, no wall-clock dependence
* one unrolled step for both state sizes: each stage input, the error
  vector and the dense output is one expression per state component over
  ``zip`` of the stages.  Every sum keeps the tableau order and the zero
  its plain loop over ``_A``, ``_E`` or ``_P`` starts from (0.0, or for
  the error the int 0 of ``sum``), so the results are bit-identical to
  those loops; only the zero weights ``_A[6][1]``, ``_E[1]`` and
  ``_P[1]`` are left out.  Each vector is ``tuple([...])``: the list gives
  the tuple its exact size, which ran faster and with a lower peak memory
  than ``tuple()`` of a generator

The regularized state vector is (a1, a2, b1, b2, t_phys, tau): alongside
the chart coordinates the physical clock dt_phys/ds = G r and the contact
clock dtau/ds = -b . da/ds are integrated, so each trajectory carries its
own physical flight time and Reeb (action) time.  The physical state
vector is plain (q1, q2, p1, p2).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from . import dynamics, regularization
from .dynamics import PhaseState
from .errors import (
    NumericalError,
    SingularInputError,
    SingularityApproachError,
    StepUnderflowError,
    UsageError,
)
from .regularization import Chart, MoserChartPoint, RegularizedLevel

# ----------------------------------------------------------------------
# Dormand-Prince 5(4) tableau
# ----------------------------------------------------------------------
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

# dense-output polynomial: y(t0 + theta h) = y0 + h sum_i k_i P_i(theta),
# P_i(theta) = theta (P[i][0] + theta (P[i][1] + theta (P[i][2] + theta P[i][3])));
# each row sums to the fifth-order weight b5_i, so the interpolant matches
# the accepted endpoint exactly (asserted in the test suite).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
#: hysteresis band of the chart switch (D5): leave a chart only above the
#: upper edge; the image lands at 1/|a| below the lower edge.
SWITCH_UPPER = 1.25
SWITCH_LOWER = 0.8
#: physical-flow guard radius around O
PHYSICAL_GUARD_RADIUS = 1e-6
#: accepted-step budget of one integration run
MAX_STEPS = 2_000_000
#: largest step the adaptive controller may take
MAX_STEP = 1.0


class Flow(Enum):
    """Which vector field is integrated."""

    PHYSICAL = "physical"
    REGULARIZED = "regularized"


@dataclass(frozen=True)
class IntegrationSettings:
    """Error control and horizon knobs.

    ``fixed_step`` disables the adaptive controller and forces a constant
    step (used by the convergence-order study); ``event_tol`` is the time
    resolution of event location in :func:`step_roots`.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 50.0
    event_tol: float = 1e-12
    fixed_step: float | None = None

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max", "event_tol",
                     "fixed_step"):
            value = getattr(self, name)
            if value is None and name == "fixed_step":
                continue
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise UsageError(
                    f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True, slots=True)
class Step:
    """One accepted step with everything dense output needs."""

    t0: float
    h: float
    chart: Chart | None
    y0: tuple[float, ...]
    y1: tuple[float, ...]
    k: tuple[tuple[float, ...], ...]

    def eval(self, t: float) -> tuple[float, ...]:
        """Dense-output state at t0 <= t <= t0 + h."""
        theta = (t - self.t0) / self.h
        h = self.h
        w0, _, w2, w3, w4, w5, w6 = [
            theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))
            for p0, p1, p2, p3 in _P]
        k0, _, k2, k3, k4, k5, k6 = self.k
        return tuple([
            y + h * (0.0 + c0 * w0 + c2 * w2 + c3 * w3 + c4 * w4 + c5 * w5
                     + c6 * w6)
            for y, c0, c2, c3, c4, c5, c6 in zip(self.y0, k0, k2, k3, k4, k5,
                                                 k6)])


@dataclass
class EventHit:
    """A located event: time, chart tag (None for the physical flow), state."""

    t: float
    chart: Chart | None
    y: tuple[float, ...]


class Trajectory:
    """Immutable-after-construction record of one integration run.

    Samples are the accepted step endpoints; dense output is available on
    every step through :meth:`eval`.  The conserved quantity (H for the
    physical flow, KCheck for the regularized flow) is read at all samples
    by :meth:`conserved_drift`, the energy certificate.  ``settings`` are
    the ones the run used, and ``rhs(chart, y)`` is the vector field it
    integrated; a step's ``k[0]`` and ``k[6]`` are that field at its
    ``y0`` and ``y1``.
    """

    def __init__(self, flow: Flow, level: RegularizedLevel,
                 settings: IntegrationSettings, chart0: Chart | None,
                 y0: tuple[float, ...]) -> None:
        self.flow = flow
        self.level = level
        self.settings = settings
        if flow is Flow.PHYSICAL:
            self.rhs = _rhs_physical(level.params.mu)
        else:
            self.rhs = _rhs_regularized(level.params.mu, level.f)
        self._chart0 = chart0
        self._y0 = y0
        self.steps: list[Step] = []

    # -- basic geometry ------------------------------------------------
    @property
    def t_end(self) -> float:
        if not self.steps:
            return 0.0
        last = self.steps[-1]
        return last.t0 + last.h

    def samples(self):
        """Yield (t, chart, y) at the initial point and each step end."""
        yield 0.0, self._chart0, self._y0
        for st in self.steps:
            yield st.t0 + st.h, st.chart, st.y1

    def __len__(self) -> int:
        return len(self.steps)

    def eval(self, t: float) -> tuple[Chart | None, tuple[float, ...]]:
        """Dense-output state at any 0 <= t <= t_end.

        The state is reported in the chart the containing step was taken
        in; chart changes happen only at step boundaries.
        """
        if t <= 0.0:
            return self._chart0, self._y0
        if t > self.t_end:
            raise UsageError(f"time {t} beyond trajectory end {self.t_end}")
        i = bisect_left(self.steps, t, key=lambda st: st.t0 + st.h)
        st = self.steps[min(i, len(self.steps) - 1)]
        return st.chart, st.eval(t)

    # -- conserved quantity --------------------------------------------
    def conserved_value(self, chart: Chart | None,
                        y: tuple[float, ...]) -> float:
        mu = self.level.params.mu
        if self.flow is Flow.PHYSICAL:
            return dynamics.hamiltonian_values(y[0], y[1], y[2], y[3], mu)
        return 0.5 * regularization.g_value(
            chart, y[0], y[1], y[2], y[3], mu, self.level.f) ** 2

    def conserved_drift(self) -> float:
        """Maximum deviation of the conserved quantity from its start."""
        values = [self.conserved_value(chart, y)
                  for _, chart, y in self.samples()]
        return max(abs(v - values[0]) for v in values)


def _rhs_physical(mu: float):
    def rhs(chart: Chart | None, y: tuple[float, ...]) -> tuple[float, ...]:
        return dynamics.vector_field_values(y[0], y[1], y[2], y[3], mu)
    return rhs


def _rhs_regularized(mu: float, f: float):
    """Vector field of KCheck = G^2/2 with both clocks appended.

    With canonical pairs (a, -b), da/ds = -G dG/db and db/ds = G dG/da,
    smooth across a = 0 in the South chart; then dt_phys/ds = G r and
    dtau/ds = -b . da/ds.
    """
    g_and_gradient = regularization.g_and_gradient

    def rhs(chart: Chart, y: tuple[float, ...]) -> tuple[float, ...]:
        a1, a2, b1, b2 = y[0], y[1], y[2], y[3]
        g, ga1, ga2, gb1, gb2 = g_and_gradient(chart, a1, a2, b1, b2, mu, f)
        da1 = -g * gb1
        da2 = -g * gb2
        beta = math.hypot(b1, b2)
        if chart is Chart.NORTH:
            r = beta
        else:
            r = (a1 * a1 + a2 * a2) * beta
        return (da1, da2, g * ga1, g * ga2, g * r,
                -(b1 * da1 + b2 * da2))
    return rhs


def _scaled_error(e: tuple[float, ...], y0: tuple[float, ...],
                  y1: tuple[float, ...], atol: float, rtol: float) -> float:
    acc = 0.0
    for ei, a, b in zip(e, y0, y1):
        r = ei / (atol + rtol * max(abs(a), abs(b)))
        acc += r * r
    return math.sqrt(acc / len(e))


def _initial_step(rhs, chart, y0, f0, atol, rtol) -> float:
    """Deterministic starting-step heuristic (scaled Euler probe)."""
    n = len(y0)
    sc = [atol + rtol * abs(y0[i]) for i in range(n)]
    d0 = d1 = d2 = 0  # plain loops: sum() is compensated from Python 3.12
    for i in range(n):
        d0 += (y0[i] / sc[i]) ** 2
        d1 += (f0[i] / sc[i]) ** 2
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(n))
    try:
        f1 = rhs(chart, y1)
    except SingularInputError:
        return min(h0, MAX_STEP)
    for i in range(n):
        d2 += ((f1[i] - f0[i]) / sc[i]) ** 2
    d2 = math.sqrt(d2 / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, MAX_STEP)


def _transition_state(chart: Chart, y: tuple[float, ...]
                      ) -> tuple[Chart, tuple[float, ...]]:
    """Apply the chart transition to the leading four state components."""
    pt = regularization.chart_transition(
        MoserChartPoint(chart=chart, a=(y[0], y[1]), b=(y[2], y[3])))
    return pt.chart, (pt.a[0], pt.a[1], pt.b[0], pt.b[1]) + tuple(y[4:])


def prepare_initial(flow: Flow, initial, level: RegularizedLevel
                    ) -> tuple[Chart | None, tuple[float, ...]]:
    """Normalize an initial condition for :func:`integrate`.

    The physical flow takes a :class:`PhaseState`.  The regularized flow
    takes either a :class:`MoserChartPoint` or a :class:`PhaseState`
    (embedded into the momentum-appropriate chart); the two clock
    components start at zero.  A non-finite component is a usage error,
    and so is a regularized start off the energy level.
    """
    if flow is Flow.PHYSICAL:
        if not isinstance(initial, PhaseState):
            raise UsageError("physical flow requires a PhaseState initial")
        if not all(math.isfinite(v) for v in initial.as_tuple()):
            raise UsageError(f"initial state is not finite: {initial}")
        return None, initial.as_tuple()
    if isinstance(initial, PhaseState):
        initial = regularization.phase_to_chart(initial)
    if not isinstance(initial, MoserChartPoint):
        raise UsageError(
            "regularized flow requires a MoserChartPoint or PhaseState")
    y0 = (initial.a[0], initial.a[1], initial.b[0], initial.b[1], 0.0, 0.0)
    kc = regularization.kcheck_value(initial, level)
    if not abs(kc - level.target) <= 1e-10:  # a non-finite start fails too
        raise UsageError(
            f"initial condition is off the energy level: |KCheck - target| "
            f"= {abs(kc - level.target):.3e} > 1e-10")
    return initial.chart, y0


def integrate(flow: Flow, initial, level: RegularizedLevel,
              settings: IntegrationSettings, until=None) -> Trajectory:
    """Integrate one of the two flows up to settings.t_max.

    Parameters
    ----------
    flow : Flow
        Physical H-flow or regularized KCheck-flow.
    initial : PhaseState or MoserChartPoint
        Starting state (see :func:`prepare_initial`).
    level : RegularizedLevel
        Mass ratio and energy offset; for the physical flow only the
        parameters (and the conserved-H drift) use it.
    settings : IntegrationSettings
    until : callable, optional
        Predicate on the partial trajectory, checked after every accepted
        step; returning True stops the run early.  Termination never
        alters the step sequence up to that point.

    Raises
    ------
    SingularityApproachError
        Physical flow within :data:`PHYSICAL_GUARD_RADIUS` of O - switch
        to the regularized flow instead.
    StepUnderflowError
        Required step below floating-point resolution.
    """
    chart, y = prepare_initial(flow, initial, level)
    traj = Trajectory(flow, level, settings, chart, y)
    rhs = traj.rhs

    atol, rtol = settings.abs_tol, settings.rel_tol
    t = 0.0
    t_max = settings.t_max
    try:
        f_now = rhs(chart, y)
    except SingularInputError as exc:
        raise UsageError(f"singular initial condition: {exc}") from exc
    if settings.fixed_step is not None:
        h = settings.fixed_step
    else:
        h = _initial_step(rhs, chart, y, f_now, atol, rtol)
    rejected = False
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, _, a62, a63, a64, a65)) = _A
    e0, _, e2, e3, e4, e5, e6 = _E

    while t < t_max - 1e-15 * max(1.0, abs(t_max)):
        if len(traj.steps) >= MAX_STEPS:
            raise NumericalError(
                f"step budget {MAX_STEPS} exhausted at t={t}")
        h = min(h, MAX_STEP, t_max - t)
        if h < 1e-15 * max(1.0, abs(t)):
            raise StepUnderflowError(
                f"step size underflow ({h:.3e}) at t={t}", t=t)
        # stages; the input of the last one is the fifth-order solution y1
        k0 = f_now
        try:
            ys = tuple([a + h * (0.0 + a10 * c0) for a, c0 in zip(y, k0)])
            k1 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a20 * c0 + a21 * c1)
                        for a, c0, c1 in zip(y, k0, k1)])
            k2 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a30 * c0 + a31 * c1 + a32 * c2)
                        for a, c0, c1, c2 in zip(y, k0, k1, k2)])
            k3 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a40 * c0 + a41 * c1 + a42 * c2
                                 + a43 * c3)
                        for a, c0, c1, c2, c3 in zip(y, k0, k1, k2, k3)])
            k4 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a50 * c0 + a51 * c1 + a52 * c2
                                 + a53 * c3 + a54 * c4)
                        for a, c0, c1, c2, c3, c4 in zip(y, k0, k1, k2, k3,
                                                         k4)])
            k5 = rhs(chart, ys)
            y1 = tuple([a + h * (0.0 + a60 * c0 + a62 * c2 + a63 * c3
                                 + a64 * c4 + a65 * c5)
                        for a, c0, c2, c3, c4, c5 in zip(y, k0, k2, k3, k4,
                                                         k5)])
            k6 = rhs(chart, y1)
        except SingularInputError as exc:
            if flow is Flow.PHYSICAL:
                raise SingularityApproachError(
                    f"physical flow hit a singularity near t={t}: {exc}; "
                    "use regularized flow") from exc
            # retreat and try a smaller step through the delicate region
            rejected = True
            h *= 0.25
            continue
        if settings.fixed_step is not None:
            err = 0.0
        else:
            err_vec = tuple([h * (0 + e0 * c0 + e2 * c2 + e3 * c3 + e4 * c4
                                  + e5 * c5 + e6 * c6)
                             for c0, c2, c3, c4, c5, c6 in zip(k0, k2, k3, k4,
                                                               k5, k6)])
            err = _scaled_error(err_vec, y, y1, atol, rtol)
        if err <= 1.0:
            traj.steps.append(Step(t0=t, h=h, chart=chart, y0=y, y1=y1,
                                   k=(k0, k1, k2, k3, k4, k5, k6)))
            t += h
            y = y1
            f_now = k6  # FSAL
            if flow is Flow.PHYSICAL:
                if math.hypot(y[0], y[1]) < PHYSICAL_GUARD_RADIUS:
                    raise SingularityApproachError(
                        f"physical trajectory entered |q| < "
                        f"{PHYSICAL_GUARD_RADIUS} at t={t}; use regularized "
                        "flow")
            else:
                if math.hypot(y[0], y[1]) > SWITCH_UPPER:
                    chart, y = _transition_state(chart, y)
                    f_now = rhs(chart, y)
            if settings.fixed_step is None:
                factor = _SAFETY * err ** -0.2 if err > 0.0 else _MAX_FACTOR
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                if rejected:
                    factor = min(1.0, factor)
                h *= factor
            rejected = False
            if until is not None and until(traj):
                break
        else:
            rejected = True
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            h *= min(1.0, factor)
    return traj


def _crosses(direction: int, va: float, vb: float) -> bool:
    """Whether va -> vb is a root crossing kept by ``direction``."""
    return ((direction >= 0 and va < 0.0 <= vb)
            or (direction <= 0 and va > 0.0 >= vb))


def step_roots(st: Step, rhs, event, direction: int, tol: float
               ) -> list[EventHit]:
    """Roots of ``event`` within one accepted step, in time order.

    Brackets are the step's start, midpoint and end (roots less than h/2
    apart may merge); each that crosses zero as ``direction`` asks is
    shrunk on the dense output by :func:`~ccorb.dynamics.solve_bracket`
    to ``tol`` or to adjacent floats, and the hit is its midpoint.  The
    vector field at the step's ends is its own first and last stage,
    ``st.k[0]`` and ``st.k[6]``; ``rhs`` is called only at the midpoint
    and at the solver's probes.
    """
    chart = st.chart

    def value(t: float) -> float:
        y = st.eval(t)
        return event(t, chart, y, rhs(chart, y))

    t1 = st.t0 + st.h
    ts = (st.t0, st.t0 + 0.5 * st.h, t1)
    vs = (event(st.t0, chart, st.y0, st.k[0]), value(ts[1]),
          event(t1, chart, st.y1, st.k[6]))
    hits: list[EventHit] = []
    for j in range(2):
        if not _crosses(direction, vs[j], vs[j + 1]):
            continue
        lo, _, hi, _ = dynamics.solve_bracket(
            value, ts[j], vs[j], ts[j + 1], vs[j + 1], tol)
        t_star = 0.5 * (lo + hi)
        hits.append(EventHit(t=t_star, chart=chart, y=st.eval(t_star)))
    return hits


def locate_event(traj: Trajectory, event, direction: int = 0
                 ) -> list[EventHit]:
    """All roots of a scalar event function along a trajectory.

    Parameters
    ----------
    traj : Trajectory
    event : callable
        ``event(t, chart, y, dy) -> float``, where ``dy`` is the vector
        field ``traj.rhs(chart, y)``; piecewise smooth along the
        trajectory.  For minimum-type events pass the time derivative of
        the monitored quantity (e.g. the radial rate for pericenters) and
        ``direction=+1`` to keep only minima.
    direction : {-1, 0, +1}
        +1 keeps only - to + crossings, -1 only + to -, 0 both.

    Each step goes through :func:`step_roots` at the trajectory's
    ``settings.event_tol``.

    Returns
    -------
    list of EventHit
        In increasing time order; empty when no crossing exists.
    """
    tol = traj.settings.event_tol
    hits: list[EventHit] = []
    for st in traj.steps:
        hits += step_roots(st, traj.rhs, event, direction, tol)
    return hits


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
#: South-chart |a| below which a sample counts as an actual collision (the
#: physical pullback would be garbage there)
COLLISION_RADIUS = 1e-9

CSV_HEADER = "t,chart,q1,q2,p1,p2,H,Kcheck,a1,a2,b1,b2"


def _csv_row(traj: Trajectory, t: float, chart: Chart | None,
             y: tuple[float, ...]) -> str:
    mu = traj.level.params.mu
    if traj.flow is Flow.PHYSICAL:
        h_val = dynamics.hamiltonian_values(y[0], y[1], y[2], y[3], mu)
        k = regularization.k_value(
            PhaseState(q=(y[0], y[1]), p=(y[2], y[3])), traj.level)
        kcheck = 0.5 * (k + (1.0 - mu)) ** 2
        nums = ",".join(map(repr, (*y, h_val, kcheck)))
        return f"{t!r},phys,{nums},,,,"
    kcheck = traj.conserved_value(chart, y)
    if chart is Chart.SOUTH and math.hypot(y[0], y[1]) < COLLISION_RADIUS:
        phys = ",,,,"  # at collision: q, p and H are empty
    else:
        state = regularization.physical_state(
            MoserChartPoint(chart=chart, a=(y[0], y[1]), b=(y[2], y[3])))
        h_val = dynamics.hamiltonian_values(*state.q, *state.p, mu)
        phys = ",".join(map(repr, (*state.q, *state.p, h_val)))
    return (f"{t!r},{chart.value},{phys},"
            + ",".join(map(repr, (kcheck, *y[:4]))))


def export_csv(traj: Trajectory, stream, header_comments: dict | None = None
               ) -> None:
    """Write the trajectory as CSV.

    One row per sample (initial point and each accepted step end).  For
    regularized trajectories, collision passages (minima of |a|^2 dipping
    below :data:`COLLISION_RADIUS`) are additionally located on the dense
    output and inserted as rows of their own; such at-collision rows carry
    empty q/p/H fields and the chart coordinates in the a/b columns.

    ``header_comments`` (e.g. the run configuration) is embedded as
    ``# key: value`` lines above the header.
    """
    if header_comments:
        for key, value in header_comments.items():
            stream.write(f"# {key}: {value}\n")
    stream.write(CSV_HEADER + "\n")
    rows = list(traj.samples())
    if traj.flow is Flow.REGULARIZED:
        def radial_rate(t, chart, y, dy):
            # d|a|^2/dt via the chart vector field
            return 2.0 * (y[0] * dy[0] + y[1] * dy[1])
        for hit in locate_event(traj, radial_rate, direction=+1):
            if (hit.chart is Chart.SOUTH
                    and math.hypot(hit.y[0], hit.y[1]) < COLLISION_RADIUS):
                rows.append((hit.t, hit.chart, hit.y))
    rows.sort(key=lambda r: r[0])
    for t, chart, y in rows:
        stream.write(_csv_row(traj, t, chart, y) + "\n")
