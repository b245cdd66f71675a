"""Adaptive embedded Runge-Kutta core: accuracy, events, chart handoffs, CSV."""

from __future__ import annotations

import io
import math
import random
import traceback
from types import SimpleNamespace

import numpy as np
import pytest

from ccorb import (
    Chart,
    Flow,
    IntegrationSettings,
    MoserChartPoint,
    NumericalError,
    PhaseState,
    RegularizedLevel,
    SingularInputError,
    SingularityApproachError,
    StepUnderflowError,
    SystemParams,
    UsageError,
    collision_point,
    effective_potential,
    export_csv,
    integrate,
    locate_event,
    physical_state,
)
from ccorb import hamiltonian, integrator, lanes, regularization
from ccorb.integrator import (
    _A, _BHH, _C, _D, _E5, SWITCH_LOWER, SWITCH_UPPER)

KEPLER = RegularizedLevel(params=SystemParams(mu=0.0), f=2.0)


def _loop_state(c: float = -2.0) -> PhaseState:
    """A collision-free arc: tangential launch well away from both primaries."""
    q = (0.3, 0.15)
    u = effective_potential(q, KEPLER.params)
    speed = math.sqrt(2.0 * (c - u))
    r = math.hypot(*q)
    tangent = (-q[1] / r, q[0] / r)
    # p = v_rot + (-q2, q1 - mu) converts rotating velocity to momentum.
    return PhaseState(q=q, p=(speed * tangent[0] - q[1],
                              speed * tangent[1] + q[0]))


# ------------------------------------------------------------- the tableau


def test_tableau_consistency():
    """Order conditions that are pure arithmetic on the coefficients."""
    assert len(_A) == len(_C) == 16
    for row, c in zip(_A, _C):
        assert sum(row) == pytest.approx(c, abs=1e-14)
    assert sum(_A[12]) == pytest.approx(1.0, abs=1e-15)
    assert sum(_E5) == pytest.approx(0.0, abs=1e-15)
    assert sum(_BHH) == pytest.approx(1.0, abs=1e-15)


def test_tableau_matches_scipy_to_one_ulp():
    """The transcribed DOP853 coefficients against SciPy's copy of
    Hairer's tables, which the package itself never imports."""
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

    def close(got, want):
        assert abs(got - want) <= math.ulp(want)
    for i, (row, c) in enumerate(zip(_A, _C)):
        close(c, dop853.C[i])
        for j in range(16):
            close(row[j] if j < i else 0.0, dop853.A[i, j])
    for i, e in enumerate(_E5 + (0.0,)):
        close(e, dop853.E5[i])
    e3 = list(_A[12]) + [0.0]
    for i, bhh in zip((0, 8, 11), _BHH):
        e3[i] -= bhh
    for got, want in zip(e3, dop853.E3):
        close(got, want)
    for row, want in zip(_D, dop853.D):
        for got, w in zip(row, want):
            close(got, w)


def test_interpolant_endpoints_match_the_step_sequence():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=2.0))
    for st in traj.steps[:40]:
        left = st.eval(st.t0)
        right = st.eval(st.t0 + st.h)
        for got, want in zip(left, st.y0):
            assert got == pytest.approx(want, abs=1e-14)
        for got, want in zip(right, st.y1):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _dense_rate(st, t):
    """Time derivative of the dense output of ``st`` at t0 <= t <= t0 + h.

    Expanded, the nested form is y0 + sum_j d_j phi_j(x) with phi_j = x,
    xu, x^2 u, x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3 and u = 1 - x; the
    weights w_j are the derivatives phi_j'(x) (w_0 = 1).
    """
    x = (t - st.t0) / st.h
    u = 1.0 - x
    xu = x * u
    w1 = u - x
    w2 = x * (u + w1)
    w3 = 2.0 * xu * w1
    w4 = x * xu * (3.0 * u - 2.0 * x)
    w5 = 3.0 * xu * xu * w1
    w6 = x * xu * xu * (4.0 * u - 3.0 * x)
    return tuple(
        (d0 + w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4 + w5 * d5 + w6 * d6)
        / st.h for d0, d1, d2, d3, d4, d5, d6 in zip(*st.rows))


def test_interpolant_rate_matches_the_end_rates():
    """The derivative of the dense output is the vector field at both ends
    of every step, and close to it inside."""
    traj = integrate(Flow.REGULARIZED, collision_point((1.0, 0.0), KEPLER),
                     KEPLER, IntegrationSettings(t_max=3.0))
    assert len({st.chart for st in traj.steps}) == 2
    for st in traj.steps:
        for t, want in ((st.t0, st.f0), (st.t0 + st.h, st.f1),
                        (st.t0 + 0.5 * st.h,
                         traj.rhs(st.chart, st.eval(st.t0 + 0.5 * st.h)))):
            for got, w in zip(_dense_rate(st, t), want):
                assert got == pytest.approx(w, rel=1e-9, abs=1e-9)


def _dot(weights, k, m):
    """sum_i weights[i] k[i][m] by a plain loop from 0.0."""
    acc = 0.0
    for w, ki in zip(weights, k):
        acc += w * ki[m]
    return acc


def _tableau_step(rhs, chart, y, h):
    """Stages, eighth-order solution, both error estimates and dense rows
    of the step h from y in ``chart`` by plain loops over the tableau
    rows."""
    n = len(y)
    k = [rhs(chart, y)]
    for s in range(1, 16):
        ys = tuple(y[m] + h * _dot(_A[s], k, m) for m in range(n))
        k.append(rhs(chart, ys))
        if s == 12:
            y1 = ys
    err5 = [_dot(_E5, k, m) for m in range(n)]
    err3 = [_dot(_A[12], k, m) - _BHH[0] * k[0][m] - _BHH[1] * k[8][m]
            - _BHH[2] * k[11][m] for m in range(n)]
    d0 = [b - a for a, b in zip(y, y1)]
    d1 = [h * f - d for f, d in zip(k[0], d0)]
    d2 = [d - h * f - e for d, f, e in zip(d0, k[12], d1)]
    rows = [d0, d1, d2] + [[h * _dot(row, k, m) for m in range(n)]
                           for row in _D]
    return k, y1, err5, err3, rows


def _error_norm_by_loop(e5, e3, y0, y1, h, atol, rtol):
    n5 = n3 = 0.0
    for m in range(len(e5)):
        sk = atol + rtol * max(abs(y0[m]), abs(y1[m]))
        r5, r3 = e5[m] / sk, e3[m] / sk
        n5 += r5 * r5
        n3 += r3 * r3
    deno = n5 + 0.01 * n3
    return 0.0 if deno <= 0.0 else h * n5 * math.sqrt(1.0 / (len(e5) * deno))


def _nested_eval(st, t):
    """Dense output of ``st`` at t, the nested form by a loop over rows."""
    x = (t - st.t0) / st.h
    out = []
    for m in range(len(st.y0)):
        acc = st.rows[6][m]
        for j in range(5, -1, -1):
            acc = st.rows[j][m] + (x if j % 2 else 1.0 - x) * acc
        out.append(st.y0[m] + x * acc)
    return out


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("flow", [Flow.REGULARIZED, Flow.PHYSICAL])
def test_unrolled_step_is_bit_identical_to_the_tableau_loops(flow,
                                                             monkeypatch):
    """Stages, y1, both error estimates, the error norm, the dense rows,
    formed when first read, and the dense output of every accepted step
    equal the plain tableau loops bit for bit (signed zeros included), on
    a mu = 0.1 regularized run through chart switches and a physical
    run."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    if flow is Flow.REGULARIZED:
        start = collision_point((1.0, 0.0), level)
    else:
        start = PhaseState(q=(0.3, 0.2), p=(0.1, 0.9))
    errors = []
    error_norm = integrator._error_norm

    def recorded(e5, e3, y0, y1, h, atol, rtol):
        err = error_norm(e5, e3, y0, y1, h, atol, rtol)
        # keeps y1 alive, so its id stays unique
        errors.append((e5, e3, y1, err, (y0, y1, h, atol, rtol)))
        return err
    monkeypatch.setattr(integrator, "_error_norm", recorded)
    # the regularized run needs a longer horizon for as many steps
    t_max = 12.0 if flow is Flow.REGULARIZED else 3.0
    traj = integrate(flow, start, level, IntegrationSettings(t_max=t_max))
    error_of = {id(rec[2]): rec for rec in errors}
    if flow is Flow.REGULARIZED:
        assert len({st.chart for st in traj.steps}) == 2
    assert len(traj.steps) > 100
    for st in traj.steps:
        k, y1, err5, err3, rows = _tableau_step(traj.rhs, st.chart, st.y0,
                                                st.h)
        assert _bits(k[0]) == _bits(st.f0)
        assert _bits(k[12]) == _bits(st.f1)
        assert _bits(y1) == _bits(st.y1)
        e5, e3, _, err, args = error_of[id(st.y1)]
        assert _bits(err5) == _bits(e5)
        assert _bits(err3) == _bits(e3)
        assert err.hex() == _error_norm_by_loop(e5, e3, *args).hex()
        assert [_bits(r) for r in rows] == [_bits(r) for r in st.rows]
        for theta in (0.25, 0.5, 0.75):
            t = st.t0 + theta * st.h
            assert _bits(_nested_eval(st, t)) == _bits(st.eval(t))


def _start(flow, level):
    """A regularized start through both charts, or a physical one."""
    if flow is Flow.REGULARIZED:
        return collision_point((1.0, 0.0), level)
    return PhaseState(q=(0.3, 0.2), p=(0.1, 0.9))


@pytest.mark.parametrize("mu", [0.1, 0.0])
@pytest.mark.parametrize("flow", [Flow.REGULARIZED, Flow.PHYSICAL])
def test_every_attempt_is_bit_identical_to_the_tableau_loops(flow, mu,
                                                             monkeypatch):
    """Each attempt of a run, the rejected ones too, takes the y1 and both
    error estimates of the plain tableau loops from its y0, h and chart,
    bit for bit, in both charts and at mu = 0.1 and 0."""
    level = RegularizedLevel(params=SystemParams(mu=mu), f=1.8)
    chart_of = [None]
    kernel = regularization.g_and_gradient

    def seen(chart, *args):
        chart_of[0] = chart
        return kernel(chart, *args)
    attempts = []
    error_norm = integrator._error_norm

    def recorded(e5, e3, y0, y1, h, atol, rtol):
        attempts.append((chart_of[0], y0, h, e5, e3, y1))
        return error_norm(e5, e3, y0, y1, h, atol, rtol)
    monkeypatch.setattr(regularization, "g_and_gradient", seen)
    monkeypatch.setattr(integrator, "_error_norm", recorded)
    t_max = 12.0 if flow is Flow.REGULARIZED else 3.0
    traj = integrate(flow, _start(flow, level), level,
                     IntegrationSettings(t_max=t_max))
    monkeypatch.undo()
    if flow is Flow.REGULARIZED:
        assert {a[0] for a in attempts} == {Chart.NORTH, Chart.SOUTH}
    assert len(attempts) > len(traj.steps) > 100
    for chart, y0, h, e5, e3, y1 in attempts:
        _, want_y1, err5, err3, _ = _tableau_step(traj.rhs, chart, y0, h)
        assert _bits(y1) == _bits(want_y1)
        assert _bits(e5) == _bits(err5)
        assert _bits(e3) == _bits(err3)


def _first_step_from(h, kernel=None, monkeypatch=None):
    """The first step of a regularized run on the mu = 0.1 level that
    starts with step ``h``, its kernel replaced by ``kernel`` before the
    run is made; the start rate comes from the real kernel."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    chart, y = integrator.prepare_initial(
        Flow.REGULARIZED, collision_point((1.0, 0.0), level), level)

    def run():
        return integrator.Trajectory(Flow.REGULARIZED, level,
                                     IntegrationSettings(), chart, y)
    f0 = run().rhs(chart, y)
    if kernel is not None:
        monkeypatch.setattr(regularization, "g_and_gradient", kernel)
    traj = run()
    integrator.advance(traj, 0.0, h, chart, y, f0, False,
                       until=lambda tr: True)
    return traj.steps[0]


def test_a_singular_stage_retreats_by_a_quarter_step(monkeypatch):
    """A kernel that meets a singular point at one stage of an attempt
    sends the loop back with a quarter of the step, whose step is the one
    a run started at that step takes."""
    kernel = regularization.g_and_gradient
    calls = []

    def singular_once(*args):
        calls.append(args)
        if len(calls) == 5:
            raise SingularInputError("fiber coordinate b = 0 is singular")
        return kernel(*args)
    got = _first_step_from(0.01, singular_once, monkeypatch)
    monkeypatch.undo()
    want = _first_step_from(0.0025)
    assert got.h == want.h == 0.0025
    assert _bits(got.y1) == _bits(want.y1)
    assert [_bits(r) for r in got.rows] == [_bits(r) for r in want.rows]


def test_tracebacks_show_the_generated_attempt(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken kernel")
    with pytest.raises(RuntimeError) as info:
        _first_step_from(0.01, broken, monkeypatch)
    frame = traceback.extract_tb(info.value.__traceback__)[-2]
    assert frame.filename.startswith("<ccorb.integrator: DOP853")
    assert frame.line == (
        "g, ga1, ga2, gb1, gb2, r = field(chart, x0, x1, x2, x3, mu, f)")


def test_a_run_forms_dense_rows_only_when_read(monkeypatch):
    """A run whose rows nobody reads calls the kernel 12 times an attempt
    (stages 1-12), besides its start and the starting-step probe; reading
    every step's rows adds the 3 dense-output stages a step, once: a step
    forms its rows at most once, whatever reads them."""
    kernel = integrator.dynamics.vector_field_values
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)
    attempts = [0]
    error_norm = integrator._error_norm

    def recorded(*args):
        attempts[0] += 1
        return error_norm(*args)
    monkeypatch.setattr(integrator.dynamics, "vector_field_values", counted)
    monkeypatch.setattr(integrator, "_error_norm", recorded)
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=3.0))
    assert attempts[0] > len(traj.steps) > 50
    assert calls[0] == 2 + 12 * attempts[0]
    for st in traj.steps:
        assert len(st.rows) == 7
    assert calls[0] == 2 + 12 * attempts[0] + 3 * len(traj.steps)
    for st in traj.steps:
        t = st.t0 + 0.5 * st.h
        st.rows, st.eval(t)
    assert calls[0] == 2 + 12 * attempts[0] + 3 * len(traj.steps)


def _singular_when(kernel, armed):
    """``kernel``, singular whenever ``armed[0]`` is set."""
    def singular(*args):
        if armed[0]:
            raise SingularInputError("fiber coordinate b = 0 is singular")
        return kernel(*args)
    return singular


def test_a_singular_dense_stage_raises_where_the_rows_are_read(monkeypatch):
    """The step loop never runs a dense-output stage, so one at a singular
    point cannot send it back: a kernel singular only while step 5's rows
    are read lets the run take the plain run's steps, and the
    SingularInputError leaves the loop from ``until``, as one from an
    event probe does.  The rows of a step whose forming failed are formed
    at the next read."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    settings = IntegrationSettings(t_max=2.0)
    plain = integrate(Flow.REGULARIZED, _start(Flow.REGULARIZED, level),
                      level, settings)
    armed = [False]
    monkeypatch.setattr(regularization, "g_and_gradient",
                        _singular_when(regularization.g_and_gradient, armed))
    taken = []

    def until(traj):
        taken[:] = traj.steps
        if len(traj.steps) == 5:
            armed[0] = True
            try:
                traj.steps[-1].rows
            finally:
                armed[0] = False
        return False
    with pytest.raises(SingularInputError):
        integrate(Flow.REGULARIZED, _start(Flow.REGULARIZED, level), level,
                  settings, until=until)
    assert len(taken) == 5
    for got, want in zip(taken, plain.steps):
        assert (got.t0, got.h) == (want.t0, want.h)
        assert _bits(got.y1) == _bits(want.y1)
    assert [_bits(r) for r in taken[-1].rows] == [
        _bits(r) for r in plain.steps[4].rows]


def _lockstep_attempts(monkeypatch, level, n_lanes=6, width=2, t_max=6.0,
                       event=None, on_step=None):
    """Every lockstep attempt of ``n_lanes`` regularized runs from collision
    points around the circle, with the hand-over width ``width``, and the
    lanes' errors.

    Each record holds the lanes' North count, singular marks, y, k0, h,
    the attempt's (err, y1, f1, ks), the rates of stages 1-12 and both
    error estimates.  ``event`` defaults to one that never crosses, and
    ``on_step`` to one that never ends a lane; ``on_step`` learns, as a
    third argument, whether the lockstep loop (not the scalar tail) hands
    the step over.
    """
    field, error_norms = lanes._field, lanes._error_norms
    flow_code, advance = integrator._flow_code, lanes.advance
    attempts = []
    tail = [False]

    def recorded_field(ys, n_north, mu, f, bad):
        attempts[-1].ks.append(field(ys, n_north, mu, f, bad))
        return attempts[-1].ks[-1]

    def recorded_norms(e5, e3, *args):
        attempts[-1].e5, attempts[-1].e3 = e5, e3
        return error_norms(e5, e3, *args)

    def recorded_code(name):
        code = flow_code(name)
        bind = code["bind"]

        def recorded_bind(*args):
            attempt = bind(*args)

            def recorded(chart, y, k0, h):
                attempts.append(SimpleNamespace(n_north=chart[0], y=y, k0=k0,
                                                h=h, ks=[]))
                attempts[-1].out = attempt(chart, y, k0, h)
                attempts[-1].marks = chart[1].copy()
                return attempts[-1].out
            return recorded
        return dict(code, bind=recorded_bind)

    def recorded_advance(*args, **kwargs):
        tail[0] = True
        return advance(*args, **kwargs)
    starts = [integrator.prepare_initial(
        Flow.REGULARIZED, collision_point(
            (math.cos(a), math.sin(a)), level), level)
        for a in (2.0 * math.pi * i / n_lanes for i in range(n_lanes))]
    with monkeypatch.context() as patch:
        patch.setattr(lanes, "TAIL_WIDTH", width)
        patch.setattr(lanes, "_field", recorded_field)
        patch.setattr(lanes, "_error_norms", recorded_norms)
        patch.setattr(lanes, "_flow_code", recorded_code)
        patch.setattr(lanes, "advance", recorded_advance)
        errors = lanes.integrate_lanes(
            starts, level, IntegrationSettings(t_max=t_max),
            event or (lambda t, chart, y, dy: t - 1e9),
            lambda i, st: on_step is not None and on_step(i, st,
                                                          not tail[0]))
    return attempts, errors


@pytest.mark.parametrize("mu", [0.1, 0.0])
def test_every_lockstep_attempt_is_the_tableau_loops_in_each_lane(
        mu, monkeypatch):
    """In every lane column of every lockstep attempt, the rejected ones
    too, the rates of stages 1-12, y1, both error estimates and the stage
    rates kept for the dense output are those of the plain tableau loops
    from the lane's y, h and chart, bit for bit, in both charts and at
    mu = 0.1 and 0; so are the ends and the dense rows of every step the
    lockstep loop hands over, formed from the lane's columns."""
    level = RegularizedLevel(params=SystemParams(mu=mu), f=1.8)
    rhs = integrator.Trajectory(Flow.REGULARIZED, level,
                                IntegrationSettings(), None, ()).rhs
    handed = []
    attempts, errors = _lockstep_attempts(
        monkeypatch, level, event=lambda t, chart, y, dy: y[1],
        on_step=lambda i, st, lockstep: lockstep and handed.append(st))
    assert errors == [None] * 6
    seen = set()
    for at in attempts:
        err, y1, f1, ks = at.out
        assert not at.marks.any() and len(at.ks) == 12
        for j in range(at.y.shape[1]):
            chart = Chart.NORTH if j < at.n_north else Chart.SOUTH
            k, want_y1, err5, err3, _ = _tableau_step(
                rhs, chart, tuple(at.y[:, j].tolist()), float(at.h[j]))
            assert [_bits(ks) for ks in k[:13]] == [
                _bits(ks[:, j].tolist()) for ks in [at.k0] + at.ks]
            assert [_bits(k[s]) for s in integrator._DENSE_READS] == [
                _bits(kept[:, j].tolist()) for kept in ks]
            assert _bits(k[12]) == _bits(f1[:, j].tolist())
            assert _bits(want_y1) == _bits(y1[:, j].tolist())
            assert _bits(err5) == _bits(at.e5[:, j].tolist())
            assert _bits(err3) == _bits(at.e3[:, j].tolist())
            seen.add((chart, bool(err[j] <= 1.0)))
    assert seen == {(chart, ok) for chart in Chart for ok in (True, False)}
    assert {st.chart for st in handed} == set(Chart) and len(handed) >= 10
    for st in handed:
        k, y1, _, _, rows = _tableau_step(rhs, st.chart, st.y0, st.h)
        assert _bits(k[0]) == _bits(st.f0)
        assert _bits(k[12]) == _bits(st.f1)
        assert _bits(y1) == _bits(st.y1)
        assert [_bits(r) for r in rows] == [_bits(r) for r in st.rows]


def test_the_lanes_hand_over_the_steps_the_scalar_screen_keeps(
        monkeypatch):
    """The lockstep loop hands over exactly the accepted lane steps where
    ``step_roots`` goes past its screen: an upward crossing at the ends or
    at the midpoint of the cubic Hermite through them.  The event has two
    roots 0.02 apart in a2, so that some steps cross only at the
    screened midpoint."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)

    def event(t, chart, y, dy):
        return (y[1] - 0.3) * (y[1] - 0.32)
    handed = []
    attempts, errors = _lockstep_attempts(
        monkeypatch, level, event=event,
        on_step=lambda i, st, lockstep: lockstep and handed.append(st))
    assert errors == [None] * 6
    want, screened = set(), 0
    for at in attempts:
        err, y1, f1, _ = at.out
        for j in range(at.y.shape[1]):
            if not err[j] <= 1.0:
                continue
            chart = Chart.NORTH if j < at.n_north else Chart.SOUTH
            y0, f0 = tuple(at.y[:, j].tolist()), tuple(at.k0[:, j].tolist())
            end, f_end = tuple(y1[:, j].tolist()), tuple(f1[:, j].tolist())
            ym, fm = integrator._hermite_midpoint(y0, end, f0, f_end,
                                                  float(at.h[j]))
            v0, vm = event(0.0, chart, y0, f0), event(0.0, chart, ym, fm)
            v1 = event(0.0, chart, end, f_end)
            ends = v0 < 0.0 <= v1
            if ends or v0 < 0.0 <= vm or vm < 0.0 <= v1:
                want.add((float(at.h[j]), y0))
                screened += not ends
    assert screened > 0
    assert {(st.h, st.y0) for st in handed} == want


def test_a_singular_dense_stage_ends_only_its_lane(monkeypatch):
    """A dense-output stage runs only when a handed-over step's rows are
    read, so no lane retreats from one: a kernel singular while lane 0's
    first crossing step forms its rows ends lane 0 with the
    SingularInputError, as an event probe does, and every other lane
    takes the steps of the plain batch."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)

    def event(t, chart, y, dy):
        return y[1]

    def handed(steps):
        def on_step(i, st, lockstep):
            steps.append((i, st.t0, st.h, _bits(st.y1), lockstep))
            return False
        return on_step
    plain = []
    _lockstep_attempts(monkeypatch, level, event=event,
                       on_step=handed(plain))
    armed = [False]
    monkeypatch.setattr(regularization, "g_and_gradient",
                        _singular_when(regularization.g_and_gradient, armed))
    tampered = []
    record = handed(tampered)

    def on_step(i, st, lockstep):
        record(i, st, lockstep)
        if i == 0:
            armed[0] = True
            try:
                st.rows
            finally:
                armed[0] = False
        return False
    attempts, errors = _lockstep_attempts(monkeypatch, level, event=event,
                                          on_step=on_step)
    assert isinstance(errors[0], SingularInputError)
    assert errors[1:] == [None] * 5
    assert not any(at.marks.any() for at in attempts)
    lane0 = [step for step in plain if step[0] == 0]
    assert lane0[0][-1] and len(lane0) > 1  # handed over by the lockstep
    assert [step for step in tampered if step[0] == 0] == lane0[:1]
    assert [step for step in tampered if step[0] != 0] == [
        step for step in plain if step[0] != 0]


@pytest.mark.parametrize("mu", [0.1, 0.0])
def test_the_lanes_field_is_the_scalar_field_in_each_column(mu):
    """``lanes._field`` on a mixed North/South block gives, in each
    column, the scalar field's floats, and marks exactly the columns where
    the scalar field raises: b = 0, and the pull-backs of E when mu > 0.
    The kernel's r is |q|."""
    f = 1.8
    rng = random.Random(7)
    columns = {chart: [tuple(rng.uniform(-1.2, 1.2) for _ in range(2))
                       + tuple(rng.uniform(-3.0, 3.0) for _ in range(4))
                       for _ in range(60)] for chart in Chart}
    columns[Chart.NORTH] += [(0.3, -0.2, 0.0, 0.0, 0.5, 0.1),
                             (0.2, 0.4, 1.0, 0.0, 0.0, 0.0)]
    columns[Chart.SOUTH] += [(0.3, -0.2, 0.0, 0.0, 0.5, 0.1),
                             (1.0, 0.0, -1.0, 0.0, 0.0, 0.0),
                             (0.0, 0.0, -1.8, 0.0, 0.0, 0.0)]
    charts = ([Chart.NORTH] * len(columns[Chart.NORTH])
              + [Chart.SOUTH] * len(columns[Chart.SOUTH]))
    ys = np.array(columns[Chart.NORTH] + columns[Chart.SOUTH]).T.copy()
    bad = np.zeros(ys.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        got = lanes._field(ys, len(columns[Chart.NORTH]), np.array(mu),
                           np.array(f), bad)
    rhs = integrator.Trajectory(
        Flow.REGULARIZED, RegularizedLevel(params=SystemParams(mu=mu), f=f),
        IntegrationSettings(), None, ()).rhs
    raised = []
    for j, chart in enumerate(charts):
        col = tuple(ys[:, j].tolist())
        try:
            want = rhs(chart, col)
        except SingularInputError:
            raised.append(j)
            continue
        assert _bits(want) == _bits(got[:, j].tolist())
        r = regularization.g_and_gradient(chart, *col[:4], mu, f)[5]
        assert r == pytest.approx(math.hypot(
            *regularization.chart_position(chart, *col[:4])), rel=1e-15)
    assert np.flatnonzero(bad).tolist() == raised
    assert len(raised) == (4 if mu else 2)


def test_a_lockstep_lane_spends_the_scalar_step_budget(monkeypatch):
    """A lane that spends the step budget inside the lockstep loop ends
    with the error of its own scalar run, message and all."""
    monkeypatch.setattr(lanes, "MAX_STEPS", 40)
    monkeypatch.setattr(integrator, "MAX_STEPS", 40)
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    _, errors = _lockstep_attempts(monkeypatch, level, n_lanes=3, width=1)
    for i, error in enumerate(errors):
        a = 2.0 * math.pi * i / 3
        with pytest.raises(NumericalError) as scalar:
            integrate(Flow.REGULARIZED,
                      collision_point((math.cos(a), math.sin(a)), level),
                      level, IntegrationSettings(t_max=6.0))
        assert type(error) is type(scalar.value)
        assert str(error) == str(scalar.value)
        assert "step budget 40 exhausted" in str(error)


def test_a_lockstep_lane_whose_step_underflows_ends_as_its_scalar_run(
        monkeypatch):
    """A controller that shrinks every accepted step a thousandfold drives
    each lane into a step underflow inside the lockstep loop; the lane ends
    with the error of its own scalar run, message and all, and no step it
    would take from there reaches ``on_step``, though the event crosses on
    it, as it does on every lane's first step."""
    def shrinking(err, accepted, rejected):
        return 1e-3 if accepted else 0.2
    monkeypatch.setattr(integrator, "_factor", shrinking)
    monkeypatch.setattr(lanes, "_factor", shrinking)
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    scalar = []
    for i in range(3):
        a = 2.0 * math.pi * i / 3
        with pytest.raises(StepUnderflowError) as info:
            integrate(Flow.REGULARIZED,
                      collision_point((math.cos(a), math.sin(a)), level),
                      level, IntegrationSettings(t_max=6.0))
        scalar.append(info.value)
    times = np.array([0.0] + [error.t for error in scalar])

    def event(t, chart, y, dy):  # upward from each lane's start and stop
        return np.where(np.isin(t, times), -1.0, 1.0)
    handed = []
    _, errors = _lockstep_attempts(
        monkeypatch, level, n_lanes=3, width=1, event=event,
        on_step=lambda i, st, lockstep: handed.append((i, st.t0, lockstep)))
    for error, want in zip(errors, scalar):
        assert type(error) is StepUnderflowError
        assert str(error) == str(want) and error.t == want.t
    assert sorted(handed) == [(i, 0.0, True) for i in range(3)]


def test_step_factor():
    """Growth 5 at a zero error, never above 1 right after a rejection;
    a rejection shrinks by the controller's factor, and by 0.2 when its
    error is NaN or infinite."""
    factor = integrator._factor
    assert factor(0.0, True, False) == 5.0
    assert factor(0.0, True, True) == 1.0
    assert factor(1e-4, True, False) == 0.9 * 1e-4 ** -0.125
    assert factor(1e-4, True, True) == 1.0
    assert factor(0.5, True, False) == 0.9 * 0.5 ** -0.125
    assert factor(1e-12, True, False) == 5.0
    assert factor(2.0, False, False) == factor(2.0, False, True) == (
        0.9 * 2.0 ** -0.125)
    for err in (math.nan, math.inf, 1e30):
        for rejected in (False, True):
            assert factor(err, False, rejected) == 0.2


def test_a_lockstep_batch_takes_its_step_factors_from_the_controller(
        monkeypatch):
    """A batch of TAIL_WIDTH lanes asks ``_factor`` once for each lane of
    each lockstep attempt."""
    calls = []

    def counted(err, accepted, rejected):
        calls.append((err, accepted))
        return integrator._factor(err, accepted, rejected)
    monkeypatch.setattr(lanes, "_factor", counted)
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    attempts, errors = _lockstep_attempts(monkeypatch, level,
                                          n_lanes=lanes.TAIL_WIDTH,
                                          width=lanes.TAIL_WIDTH, t_max=1.0)
    assert attempts and errors == [None] * lanes.TAIL_WIDTH
    assert calls == [(err, err <= 1.0) for at in attempts
                     for err in at.out[0].tolist()]


def _initial_step_by_loops(rhs, chart, y0, f0, atol, rtol, compensated=False):
    """The starting-step heuristic with each scaled norm summed by a
    plain left-to-right loop from the int 0 (or, if ``compensated``, by
    ``math.fsum``), and the step-size exponent 1/8 of an eighth-order
    method."""
    n = len(y0)
    sc = [atol + rtol * abs(v) for v in y0]

    def rms(xs):
        if compensated:
            return math.sqrt(math.fsum((x / s) ** 2 for x, s in zip(xs, sc))
                             / n)
        acc = 0
        for x, s in zip(xs, sc):
            acc += (x / s) ** 2
        return math.sqrt(acc / n)

    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = rhs(chart, tuple(y + h0 * f for y, f in zip(y0, f0)))
    d2 = rms([b - a for a, b in zip(f0, f1)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, integrator.MAX_STEP)


@pytest.mark.parametrize("flow, q, p", [
    (Flow.PHYSICAL, (0.3, -0.15), (0.9, -0.5)),
    (Flow.REGULARIZED, (0.05, 0.1), (0.0, 0.1)),
])
def test_first_step_does_not_depend_on_how_python_sums(flow, q, p):
    """``sum()`` of floats is compensated from Python 3.12 on; the first
    step adds its norms by plain loops, so it is the same on every
    version: bit for bit the test-local loops, and the integrator's own
    first step.  On both states a compensated sum gives another step."""
    state = PhaseState(q=q, p=p)
    params = SystemParams(mu=0.1)
    level = RegularizedLevel(params, f=-hamiltonian(state, params))
    settings = IntegrationSettings()
    traj = integrate(flow, state, level, settings, until=lambda tr: True)
    chart, y0 = integrator.prepare_initial(flow, state, level)
    f0 = traj.rhs(chart, y0)
    args = (traj.rhs, chart, y0, f0, settings.abs_tol, settings.rel_tol)
    h = integrator._initial_step(*args)
    assert h.hex() == _initial_step_by_loops(*args).hex()
    assert h != _initial_step_by_loops(*args, compensated=True)
    assert traj.steps[0].h == h


# ----------------------------------------------------------- conservation


def test_equilibrium_stays_put():
    """The circular-orbit equilibrium of the Kepler limit is exactly fixed."""
    state = PhaseState(q=(1.0, 0.0), p=(0.0, 1.0))
    traj = integrate(Flow.PHYSICAL, state, RegularizedLevel(KEPLER.params, 1.5),
                     IntegrationSettings(t_max=5.0))
    for _, _, y in traj.samples():
        assert math.hypot(y[0] - 1.0, y[1]) < 1e-9
        assert math.hypot(y[2], y[3] - 1.0) < 1e-9


def test_physical_energy_drift_stays_below_certificate():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=10.0))
    assert traj.t_end == pytest.approx(10.0)
    assert traj.conserved_drift() < 1e-9


def test_regularized_energy_drift_stays_below_certificate():
    start = collision_point((1.0, 0.0), KEPLER)
    traj = integrate(Flow.REGULARIZED, start, KEPLER,
                     IntegrationSettings(t_max=10.0))
    assert traj.conserved_drift() < 1e-9


def test_tighter_tolerances_do_not_worsen_drift():
    loose = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                      IntegrationSettings(rel_tol=1e-8, abs_tol=1e-10,
                                          t_max=5.0))
    tight = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                      IntegrationSettings(rel_tol=1e-12, abs_tol=1e-14,
                                          t_max=5.0))
    assert tight.conserved_drift() < loose.conserved_drift()


# ------------------------------------------------------------ convergence


def test_constant_step_convergence_is_above_seventh_order(constant_step):
    """Halving the step must shrink the error by more than 2^7.  The steps
    are powers of two, so they land exactly on the horizon, and long
    enough that the error is not yet at roundoff."""
    state = _loop_state()
    horizon = 2.0
    ref = integrate(Flow.PHYSICAL, state, KEPLER,
                    IntegrationSettings(rel_tol=1e-13, abs_tol=1e-14,
                                        t_max=horizon))
    _, y_ref = ref.eval(horizon)

    errors = []
    for h in (0.125, 0.0625, 0.03125):
        y = constant_step(state, KEPLER.params.mu, h, horizon)
        errors.append(max(abs(a - b) for a, b in zip(y, y_ref[:4])))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) > 7.0, f"observed orders {orders}"


def test_bitwise_deterministic_repeats():
    runs = []
    for _ in range(2):
        traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                         IntegrationSettings(t_max=3.0))
        runs.append(list(traj.samples()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------- chart handoff


def test_chart_switches_respect_the_hysteresis_band():
    start = collision_point((1.0, 0.0), KEPLER)
    traj = integrate(Flow.REGULARIZED, start, KEPLER,
                     IntegrationSettings(t_max=6.0))
    charts = {st.chart for st in traj.steps}
    assert charts == {Chart.NORTH, Chart.SOUTH}

    switches = 0
    prev = traj.steps[0]
    for st in traj.steps[1:]:
        if st.chart is not prev.chart:
            switches += 1
            # The step that triggered the change ended beyond the leave
            # radius; after the swap the base radius drops below 1/1.25.
            left = math.hypot(prev.y1[0], prev.y1[1])
            entered = math.hypot(st.y0[0], st.y0[1])
            assert left > SWITCH_UPPER
            assert entered < SWITCH_LOWER + 1e-12
            assert entered == pytest.approx(1.0 / left, rel=1e-12)
        prev = st
    assert switches >= 2


def test_physical_position_is_continuous_across_switches():
    start = collision_point((0.6, 0.8), KEPLER)
    traj = integrate(Flow.REGULARIZED, start, KEPLER,
                     IntegrationSettings(t_max=6.0))
    prev = traj.steps[0]
    checked = 0
    for st in traj.steps[1:]:
        if st.chart is not prev.chart:
            before = physical_state(MoserChartPoint(
                chart=prev.chart, a=(prev.y1[0], prev.y1[1]),
                b=(prev.y1[2], prev.y1[3])))
            after = physical_state(MoserChartPoint(
                chart=st.chart, a=(st.y0[0], st.y0[1]),
                b=(st.y0[2], st.y0[3])))
            for got, want in zip(after.as_tuple(), before.as_tuple()):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
            h_before = hamiltonian(before, KEPLER.params)
            h_after = hamiltonian(after, KEPLER.params)
            assert h_after == pytest.approx(h_before, abs=1e-10)
            checked += 1
        prev = st
    assert checked >= 1


def test_both_clock_components_are_monotone():
    """Physical time and the action clock only accumulate."""
    start = collision_point((1.0, 0.0), KEPLER)
    traj = integrate(Flow.REGULARIZED, start, KEPLER,
                     IntegrationSettings(t_max=4.0))
    times = [y[4] for _, _, y in traj.samples()]
    taus = [y[5] for _, _, y in traj.samples()]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(b >= a for a, b in zip(taus, taus[1:]))


# ----------------------------------------------------------------- events


def test_event_location_finds_axis_crossings():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=10.0))
    hits = locate_event(traj, lambda t, chart, y, dy: y[1])
    assert hits
    assert all(b.t > a.t for a, b in zip(hits, hits[1:]))
    for hit in hits:
        assert abs(hit.y[1]) < 1e-9
        _, y = traj.eval(min(hit.t + 1e-5, traj.t_end))
        assert y[1] > 0.0


def test_event_on_signless_function_is_empty():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=2.0))
    assert locate_event(traj, lambda t, chart, y, dy: 1.0 + y[0] ** 2) == []


def test_one_upward_crossing_rule_in_which_nan_never_crosses():
    """Both step loops read crossings through ``integrator._upward``: the
    lanes define no rule of their own.  It keeps - to + crossings only,
    and a NaN at either end is no crossing, on floats and on columns."""
    assert lanes._upward is integrator._upward
    nan = math.nan
    pairs = [(-1.0, 0.0), (-1.0, 2.0), (1.0, -1.0), (0.0, 1.0),
             (-1.0, -0.5), (nan, 1.0), (-1.0, nan), (nan, nan)]
    want = [True, True, False, False, False, False, False, False]
    assert [bool(integrator._upward(va, vb)) for va, vb in pairs] == want
    va, vb = np.array(pairs).T
    assert integrator._upward(va, vb).tolist() == want


def _switching_run():
    """A mu = 0 collision run that switches charts several times."""
    start = collision_point((1.0, 0.0), KEPLER)
    traj = integrate(Flow.REGULARIZED, start, KEPLER,
                     IntegrationSettings(t_max=6.0))
    switches = [(prev.t0 + prev.h, prev.chart, st.chart)
                for prev, st in zip(traj.steps, traj.steps[1:])
                if st.chart is not prev.chart]
    assert switches
    return traj, switches


def test_step_stages_are_the_vector_field_at_the_step_ends():
    """FSAL: the rates a step keeps are the field at y0 and y1, bit for
    bit, also where the chart switched at the step start."""
    traj, _ = _switching_run()
    for st in traj.steps:
        assert st.f0 == traj.rhs(st.chart, st.y0)
        assert st.f1 == traj.rhs(st.chart, st.y1)


def test_event_location_reads_step_end_rates_from_the_stages():
    """The event gets the field at a step's ends from the step's own rates,
    and where the ends show no crossing, at the midpoint of the cubic
    Hermite through them.  A step whose ends or that screen show a
    crossing reads its midpoint as it reads every probe: on the dense
    output, with one field call there.  So no field call lands on a y0, a
    y1 or a Hermite midpoint, each such step makes one at its dense
    midpoint, and every event value past the ends and the screen costs
    one call.  A chart-switch boundary is read in both charts."""
    traj, switches = _switching_run()
    rhs = traj.rhs
    field_args = []

    def counted_rhs(chart, y):
        field_args.append(y)
        return rhs(chart, y)
    traj.rhs = counted_rhs
    calls = []

    def event(t, chart, y, dy):
        calls.append((t, chart))
        return y[1]
    assert locate_event(traj, event)
    reads = screened = 0
    dense_mids = []
    for st in traj.steps:
        v0, v1 = st.y0[1], st.y1[1]
        ends = v0 < 0.0 <= v1
        vm = integrator._hermite_midpoint(st.y0, st.y1, st.f0, st.f1,
                                          st.h)[0][1]
        mid = v0 < 0.0 <= vm or vm < 0.0 <= v1
        screened += not ends
        reads += 2 + (not ends)
        if ends or mid:
            dense_mids.append(st.eval(st.t0 + 0.5 * st.h))
    assert 0 < screened < len(traj.steps)
    assert dense_mids and set(dense_mids) <= set(field_args)
    probes = ({st.y0 for st in traj.steps} | {st.y1 for st in traj.steps}
              | {integrator._hermite_midpoint(st.y0, st.y1, st.f0, st.f1,
                                              st.h)[0]
                 for st in traj.steps})
    assert not probes.intersection(field_args)
    assert len(field_args) == len(calls) - reads
    for t, before, after in switches:
        assert (t, before) in calls and (t, after) in calls


def test_the_screen_is_the_cubic_hermite_through_the_step_ends():
    """The screen's midpoint state and rate are those of the cubic through
    a step's end states and rates: exact on cubics."""
    t0, h = 0.25, 0.5
    cubics = [(1.0, -2.0, 0.5, 3.0), (0.0, 0.0, 0.0, 1.0),
              (-0.3, 1.5, -4.0, 0.0), (2.0, 0.0, 0.0, 0.0)]

    def value(c, t):
        return c[0] + t * (c[1] + t * (c[2] + t * c[3]))

    def rate(c, t):
        return c[1] + t * (2.0 * c[2] + t * 3.0 * c[3])
    ym, fm = integrator._hermite_midpoint(
        *[tuple(fn(c, t) for c in cubics)
          for fn, t in ((value, t0), (value, t0 + h), (rate, t0),
                        (rate, t0 + h))], h)
    tm = t0 + 0.5 * h
    assert ym == pytest.approx([value(c, tm) for c in cubics], abs=1e-14)
    assert fm == pytest.approx([rate(c, tm) for c in cubics], abs=1e-14)


def test_step_roots_splits_two_roots_at_the_midpoint(monkeypatch):
    """Of two roots in one step, one on each side of its midpoint, the
    event goes down through the first and up through the second, and
    only the second is found, from the half right of the midpoint; the
    ends alone see no sign change."""
    monkeypatch.setattr(integrator, "EVENT_TOL", 1e-14)
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=2.0))
    for st in traj.steps[:10]:
        r1, r2 = st.t0 + 0.3 * st.h, st.t0 + 0.7 * st.h
        hits = integrator.step_roots(
            st, traj.rhs, lambda t, chart, y, dy: (t - r1) * (t - r2))
        assert [h.t for h in hits] == [pytest.approx(r2, abs=1e-13)]
        assert hits[0].t > st.t0 + 0.5 * st.h


def test_early_stop_predicate_truncates_the_run():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=10.0),
                     until=lambda tr: tr.t_end >= 1.0)
    assert 1.0 <= traj.t_end < 10.0


# ------------------------------------------------------------- guard rails


def test_physical_flow_refuses_the_collision_neighborhood():
    falling = PhaseState(q=(0.1, 0.0), p=(0.0, 0.0))
    with pytest.raises(SingularityApproachError):
        integrate(Flow.PHYSICAL, falling, KEPLER,
                  IntegrationSettings(t_max=5.0))


def test_off_level_regularized_start_is_rejected():
    good = collision_point((1.0, 0.0), KEPLER)
    bad = MoserChartPoint(chart=good.chart, a=good.a,
                          b=(good.b[0] * 1.01, good.b[1]))
    with pytest.raises(UsageError):
        integrate(Flow.REGULARIZED, bad, KEPLER, IntegrationSettings())


@pytest.mark.parametrize("flow, initial", [
    (Flow.PHYSICAL, PhaseState(q=(math.nan, 0.1), p=(0.2, 0.3))),
    (Flow.REGULARIZED, PhaseState(q=(math.nan, 0.1), p=(0.2, 0.3))),
    (Flow.REGULARIZED, collision_point((math.nan, math.nan), KEPLER)),
])
def test_non_finite_start_is_rejected(flow, initial):
    """A NaN start used to give a NaN first step, which no rejection ever
    advanced past, so the step loop never ended."""
    with pytest.raises(UsageError):
        integrate(flow, initial, KEPLER, IntegrationSettings(t_max=5.0))


def test_eval_outside_domain_is_an_error():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=1.0))
    with pytest.raises(UsageError):
        traj.eval(1.5)


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0}, {"abs_tol": -1e-12}, {"t_max": 0.0},
    {"rel_tol": 1.0}, {"abs_tol": 1e3},
], ids=["rel_tol-zero", "abs_tol-negative", "t_max-zero", "rel_tol-one",
        "abs_tol-above-one"])
def test_settings_validation(kwargs):
    with pytest.raises(UsageError):
        IntegrationSettings(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "ten",
                                   True])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "t_max"])
def test_settings_must_be_finite(name, value):
    with pytest.raises(UsageError, match=name):
        IntegrationSettings(**{name: value})

# -------------------------------------------------------------------- CSV


def test_csv_export_layout_and_determinism():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=1.0))
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        export_csv(traj, buf, header_comments={"run": "loop"})
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]

    lines = outputs[0].splitlines()
    assert lines[0].startswith("#")
    header = next(l for l in lines if not l.startswith("#"))
    cols = header.split(",")
    assert cols[:8] == ["t", "chart", "q1", "q2", "p1", "p2", "H", "Kcheck"]
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == sum(1 for _ in traj.samples())
    t0, chart0, *rest = rows[0].split(",")
    assert float(t0) == 0.0
    for value in (rest[0], rest[1], rest[2], rest[3], rest[4]):
        float(value)  # parseable


def test_csv_marks_collision_rows():
    """At the collision fiber there is no physical state to print."""
    traj = integrate(Flow.REGULARIZED, collision_point((1.0, 0.0), KEPLER),
                     KEPLER, IntegrationSettings(t_max=1.0))
    buf = io.StringIO()
    export_csv(traj, buf)
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][1:]
    first = rows[0].split(",")
    # q1, q2, p1, p2, H empty; Kcheck still defined and on target.
    assert first[2] == first[3] == first[4] == first[5] == first[6] == ""
    assert float(first[7]) == pytest.approx(KEPLER.target, abs=1e-12)
    later = rows[-1].split(",")
    assert later[2] != ""
