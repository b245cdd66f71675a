"""Lockstep DOP853 over many regularized-flow starts at once.

Every live start is a lane: one column of numpy arrays holding its own
``t``, ``h``, chart, rejection flag and step count.  Each iteration takes
one attempt in every lane with whole-column array operations, so the
Python overhead of a step is paid once for all lanes.

Every lane takes the steps of the scalar loop
(:func:`~ccorb.integrator.advance`) bit for bit:

* the attempt is the scalar one: :func:`~ccorb.integrator._flow_source`
  writes both from one text, here with the whole (6, n) block as the one
  state component and ``_error_norms`` summing its six rows in order;
* so is the vector field: ``_field`` runs the flow's generated ``rhs``
  on each chart slice, North lanes first, with the scalar chart kernels
  (:func:`~ccorb.regularization.north_field`,
  :func:`~ccorb.regularization.south_field`), which also return |q|;
* arrays see only + - * /, sqrt, abs, where and comparisons, which IEEE
  754 rounds correctly on every machine;
* what differs per lane stays scalar: the starting step, the step-size
  factor (:func:`~ccorb.integrator._factor` on Python floats, never
  ``np.power``), the chart switch and the root solve;
* a stage at a singular point (b = 0, or q = E) marks its lane, and that
  lane retreats with ``h *= 0.25`` as the scalar loop does.

Events are read as :func:`~ccorb.integrator.step_roots` reads them, on
whole columns: the caller's event function at each step's ends and at
its midpoint on the cubic Hermite through them
(:func:`~ccorb.integrator._hermite_midpoint`).  No dense output is formed
for the block.  The crossing rule is the integrator's own
(:func:`~ccorb.integrator._upward`), run on the columns: each lane whose
ends or screened midpoint show an upward crossing goes to the caller as
a scalar :class:`~ccorb.integrator.Step`, whose rows the flow's own
dense-output function forms from the lane's stage-rate columns when
they are read; a dense-output stage at a singular point then ends the
lane with :class:`~ccorb.errors.SingularInputError`, as an event probe
does.

A lane leaves when the caller's ``on_step`` says it is done, when it
reaches ``t_max``, or when the scalar loop's step guard refuses its next
attempt (a spent step budget or a step underflow) and so ends it with the
guard's error; such a lane takes that attempt marked as a singular one,
so it is never accepted, handed over or switched, and all leave through
one compaction of the columns.  Once fewer than :data:`TAIL_WIDTH` lanes
are left, each resumes the scalar loop from its exact state and keeps
none of its steps: on a 2-vCPU VM one numpy iteration costs about 2 to
3 ms at 20 to 160 lanes, as much as 25 to 40 scalar steps.
"""

from __future__ import annotations

import math

import numpy as np

from . import regularization
from .dynamics import SINGULAR_DISTANCE
from .errors import CcorbError, NumericalError, SingularInputError, UsageError
from .integrator import (
    MAX_STEP,
    MAX_STEPS,
    SWITCH_UPPER,
    Flow,
    IntegrationSettings,
    Step,
    Trajectory,
    _factor,
    _flow_code,
    _guard_step,
    _hermite_midpoint,
    _initial_step,
    _transition_state,
    _upward,
    advance,
)
from .regularization import Chart, RegularizedLevel, north_field, south_field

#: below this many live lanes, the rest finish on the scalar step loop;
#: of 12, 16, 20 and 24, the width with the least CPU time over both scan
#: workloads of the benchmark
TAIL_WIDTH = 20
#: |a|^2 above which a lane may leave its chart; the exact test is scalar
_SWITCH_CANDIDATE = 0.96 * SWITCH_UPPER * SWITCH_UPPER
#: the kernels' singular thresholds, as 0-d arrays (faster to compare)
_TINY_B = np.array(regularization.SINGULAR_FIBER)
_TINY_D = np.array(SINGULAR_DISTANCE)


def _lane_kernel(bad):
    """``g_and_gradient`` on lanes: the chart kernels with ``np.sqrt``,
    setting the lanes that meet b = 0 or q = E in ``bad``."""
    def seen(beta, d=None):
        np.logical_or(bad, beta < _TINY_B, out=bad)
        if d is not None:
            np.logical_or(bad, d < _TINY_D, out=bad)

    def kernel(chart, a1, a2, b1, b2, mu, f):
        field = north_field if chart is Chart.NORTH else south_field
        return field(a1, a2, b1, b2, mu, f, np.sqrt, seen)
    return kernel


def _field(ys, n_north: int, mu: float, f: float, bad):
    """The regularized vector field on every lane, North lanes first: the
    flow's own generated ``rhs`` on the rows of each chart slice, fed the
    kernel of :func:`_lane_kernel`."""
    out = np.empty_like(ys)
    for lo, hi, chart in ((0, n_north, Chart.NORTH),
                          (n_north, ys.shape[1], Chart.SOUTH)):
        if lo < hi:
            rhs = _flow_code("regularized")["field_of"](
                _lane_kernel(bad[lo:hi]), mu, f)
            out[:, lo:hi] = rhs(chart, ys[:, lo:hi])
    return out


def _error_norms(e5, e3, y0, y1, h, atol: float, rtol: float):
    """``integrator._error_norm`` of every lane (rows are components)."""
    a0, a1 = np.abs(y0), np.abs(y1)
    sk = atol + rtol * np.where(a1 > a0, a1, a0)  # max(a0, a1) per lane
    r5 = e5 / sk
    r3 = e3 / sk
    sq5 = r5 * r5
    sq3 = r3 * r3
    n5 = n3 = 0.0
    for row5, row3 in zip(sq5, sq3):
        n5 = n5 + row5
        n3 = n3 + row3
    deno = n5 + 0.01 * n3
    return np.where(deno <= 0.0, 0.0,
                    h * n5 * np.sqrt(1.0 / (len(e5) * deno)))


def _event_values(event, t, ys, dys, n_north: int):
    """``event`` on every lane, one call per chart slice."""
    parts = [event(t[lo:hi], chart, ys[:, lo:hi], dys[:, lo:hi])
             for lo, hi, chart in ((0, n_north, Chart.NORTH),
                                   (n_north, ys.shape[1], Chart.SOUTH))
             if lo < hi]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def integrate_lanes(starts, level: RegularizedLevel,
                    settings: IntegrationSettings, event, on_step
                    ) -> list[CcorbError | None]:
    """Integrate regularized-flow starts in lockstep.

    Parameters
    ----------
    starts : list of (Chart, tuple of float)
        Normalized starts, as :func:`~ccorb.integrator.prepare_initial`
        returns them.
    event : callable
        ``event(t, chart, y, dy)``, written so that it also runs on the
        rows of a chart slice of lanes.
    on_step : callable
        ``on_step(i, step)`` is called, in step order, with each accepted
        step of lane i whose ends or screened midpoint show an upward
        crossing of ``event`` (the steps where
        :func:`~ccorb.integrator.step_roots` may find a hit); True ends
        the lane.

    Returns
    -------
    list
        Per lane, None or the :class:`~ccorb.errors.CcorbError` that ended
        it: a singular start, a singular point met by a chart switch, an
        event probe or a dense-output stage
        (:class:`~ccorb.errors.UsageError`), or a step
        underflow or spent step budget
        (:class:`~ccorb.errors.NumericalError`).  The lanes' steps are not
        kept.

    Raises
    ------
    UsageError
        When the tolerances cannot start a step (see
        :func:`~ccorb.integrator._initial_step`).
    """
    # the field and dense output of a scalar run, which also runs the tail
    run = Trajectory(Flow.REGULARIZED, level, settings, None, ())
    rhs, dense = run.rhs, run.dense
    mu, f = np.array(level.params.mu), np.array(level.f)  # as 0-d arrays
    errors: list[CcorbError | None] = [None] * len(starts)
    atol, rtol = settings.abs_tol, settings.rel_tol
    lanes = []  # (lane, chart, y, f, h)
    for i, (chart, y) in enumerate(starts):
        try:
            f0 = rhs(chart, y)
        except SingularInputError as exc:
            errors[i] = UsageError(f"singular initial condition: {exc}")
        else:
            lanes.append((i, chart, y, f0,
                          _initial_step(rhs, chart, y, f0, atol, rtol)))
    t_max = settings.t_max
    t_end = t_max - 1e-15 * max(1.0, abs(t_max))
    if not 0.0 < t_end:
        return errors
    lanes.sort(key=lambda lane: lane[1] is not Chart.NORTH)
    ids = [lane[0] for lane in lanes]
    north = np.array([lane[1] is Chart.NORTH for lane in lanes], dtype=bool)
    y = np.array([lane[2] for lane in lanes], dtype=float).T.copy()
    fy = np.array([lane[3] for lane in lanes], dtype=float).T.copy()
    h = np.array([lane[4] for lane in lanes], dtype=float)
    t = np.zeros(len(lanes))
    taken = np.zeros(len(lanes), dtype=np.int64)
    rejected = np.zeros(len(lanes), dtype=bool)
    if len(ids) >= TAIL_WIDTH:  # a batch on the scalar loop compiles nothing
        attempt = _flow_code("lanes")["bind"](_field, mu, f, atol, rtol,
                                              _error_norms)
    with np.errstate(all="ignore"):
        while len(ids) >= TAIL_WIDTH:
            n_north = int(np.count_nonzero(north))
            h = np.minimum(np.minimum(h, MAX_STEP), t_max - t)
            # a lane the step guard refuses gets the scalar loop's error
            # and leaves with the lanes that end this attempt, which it
            # enters marked bad: never accepted, handed over or switched
            refused = (taken >= MAX_STEPS) | (
                h < 1e-15 * np.maximum(1.0, np.abs(t)))
            for j in np.flatnonzero(refused).tolist():
                try:
                    _guard_step(float(t[j]), float(h[j]), int(taken[j]))
                except NumericalError as exc:
                    errors[ids[j]] = exc

            # one DOP853 attempt in every lane (see integrator.advance);
            # a lane that meets a singular stage retreats
            bad = refused.copy()
            err, y1, f1, ks = attempt((n_north, bad), y, fy, h)
            accept = (err <= 1.0) & ~bad

            # step_roots' test on one "component", the whole block: the
            # ends, and the midpoint on the cubic Hermite through them
            v0 = _event_values(event, t, y, fy, n_north)
            v1 = _event_values(event, t + h, y1, f1, n_north)
            (ym,), (fm,) = _hermite_midpoint((y,), (y1,), (fy,), (f1,), h)
            vm = _event_values(event, t + 0.5 * h, ym, fm, n_north)
            crossing = accept & (_upward(v0, v1) | _upward(v0, vm)
                                 | _upward(vm, v1))

            t_next = np.where(accept, t + h, t)
            h_next = h * np.array([
                0.25 if back else _factor(e, a, r) for e, a, back, r in zip(
                    err.tolist(), accept.tolist(), bad.tolist(),
                    rejected.tolist())])
            y_next = np.where(accept, y1, y)
            f_next = np.where(accept, f1, fy)

            alive = (t_next < t_end) & ~refused
            moved = False
            alpha = y_next[0] * y_next[0] + y_next[1] * y_next[1]
            for j in np.flatnonzero(accept & (alpha > _SWITCH_CANDIDATE)
                                    ).tolist():
                col = tuple(y_next[:, j].tolist())
                if math.hypot(col[0], col[1]) > SWITCH_UPPER:
                    chart, col = _transition_state(
                        Chart.NORTH if north[j] else Chart.SOUTH, col)
                    try:
                        f_next[:, j] = rhs(chart, col)
                    except SingularInputError as exc:
                        errors[ids[j]] = exc
                        alive[j] = crossing[j] = False
                    else:
                        y_next[:, j] = col
                        north[j] = chart is Chart.NORTH
                        moved = True
            for j in np.flatnonzero(crossing).tolist():
                st = Step(float(t[j]), float(h[j]),
                          Chart.NORTH if j < n_north else Chart.SOUTH,
                          tuple(y[:, j].tolist()), tuple(y1[:, j].tolist()),
                          tuple(fy[:, j].tolist()), tuple(f1[:, j].tolist()),
                          tuple(v for k in ks for v in k[:, j].tolist()),
                          dense)
                try:
                    if on_step(ids[j], st):
                        alive[j] = False
                except CcorbError as exc:
                    errors[ids[j]] = exc
                    alive[j] = False

            t, h, y, fy = t_next, h_next, y_next, f_next
            taken = taken + accept
            rejected = ~accept
            if moved or not alive.all():
                keep = np.concatenate((np.flatnonzero(alive & north),
                                       np.flatnonzero(alive & ~north)))
                ids = [ids[j] for j in keep.tolist()]
                t, h, taken, rejected, north = (
                    t[keep], h[keep], taken[keep], rejected[keep],
                    north[keep])
                y, fy = y[:, keep], fy[:, keep]

    for j, i in enumerate(ids):  # one run for all: on_step pops each step
        try:
            advance(run, float(t[j]), float(h[j]),
                    Chart.NORTH if north[j] else Chart.SOUTH,
                    tuple(y[:, j].tolist()), tuple(fy[:, j].tolist()),
                    bool(rejected[j]),
                    until=lambda tr, i=i: on_step(i, tr.steps.pop()),
                    taken=int(taken[j]))
        except CcorbError as exc:
            errors[i] = exc
    return errors
