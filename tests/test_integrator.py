"""Adaptive embedded Runge-Kutta core: accuracy, events, chart handoffs, CSV."""

from __future__ import annotations

import io
import math

import pytest

from ccorb import (
    Chart,
    Flow,
    IntegrationSettings,
    MoserChartPoint,
    PhaseState,
    RegularizedLevel,
    SingularityApproachError,
    SystemParams,
    UsageError,
    collision_point,
    effective_potential,
    export_csv,
    integrate,
    locate_event,
    physical_state,
)
from ccorb import hamiltonian, integrator
from ccorb.integrator import _A, _B4, _B5, _C, _E, _P, SWITCH_LOWER, SWITCH_UPPER

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
    assert sum(_B5) == pytest.approx(1.0, abs=1e-15)
    assert sum(_B4) == pytest.approx(1.0, abs=1e-15)
    for row, c in zip(_A, _C):
        assert sum(row) == pytest.approx(c, abs=1e-15)
    for e, b5, b4 in zip(_E, _B5, _B4):
        assert e == b5 - b4


def test_dense_output_weights_reduce_to_the_step_weights():
    """At the right endpoint the interpolant must reproduce the step."""
    for i, (p0, p1, p2, p3) in enumerate(_P):
        assert p0 + p1 + p2 + p3 == pytest.approx(_B5[i], abs=1e-14)


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


def _tableau_step(rhs, st):
    """Stages, fifth-order solution and error vector of ``st`` by plain
    loops over the tableau rows."""
    y, h, n = st.y0, st.h, len(st.y0)
    k = [rhs(st.chart, y)]
    for s in range(1, 7):
        ys = []
        for m in range(n):
            acc = 0.0
            for j in range(s):
                acc += _A[s][j] * k[j][m]
            ys.append(y[m] + h * acc)
        k.append(rhs(st.chart, tuple(ys)))
    err = []
    for m in range(n):
        acc = 0  # the start of sum(), which from Python 3.12 compensates
        for i in range(7):
            acc += _E[i] * k[i][m]
        err.append(h * acc)
    return k, ys, err


def _tableau_eval(st, t):
    """Dense output of ``st`` at t by plain loops over the rows of _P."""
    theta = (t - st.t0) / st.h
    w = [theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))
         for p0, p1, p2, p3 in _P]
    out = []
    for m in range(len(st.y0)):
        acc = 0.0
        for i in range(7):
            acc += st.k[i][m] * w[i]
        out.append(st.y0[m] + st.h * acc)
    return out


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("flow", [Flow.REGULARIZED, Flow.PHYSICAL])
def test_unrolled_step_is_bit_identical_to_the_tableau_loops(flow,
                                                             monkeypatch):
    """Stages, y1, error vector and dense output of every accepted step
    equal the plain tableau loops bit for bit (signed zeros included), on
    a mu = 0.1 regularized run through chart switches and a physical run."""
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    if flow is Flow.REGULARIZED:
        start = collision_point((1.0, 0.0), level)
    else:
        start = PhaseState(q=(0.3, 0.2), p=(0.1, 0.9))
    errors = []
    scaled_error = integrator._scaled_error

    def recorded(e, y0, y1, atol, rtol):
        errors.append((e, y1))  # keeps y1 alive, so its id stays unique
        return scaled_error(e, y0, y1, atol, rtol)
    monkeypatch.setattr(integrator, "_scaled_error", recorded)
    traj = integrate(flow, start, level, IntegrationSettings(t_max=3.0))
    error_of = {id(y1): e for e, y1 in errors}
    if flow is Flow.REGULARIZED:
        assert len({st.chart for st in traj.steps}) == 2
    assert len(traj.steps) > 100
    for st in traj.steps:
        k, y1, err = _tableau_step(traj.rhs, st)
        assert [_bits(ki) for ki in k] == [_bits(ki) for ki in st.k]
        assert _bits(y1) == _bits(st.y1)
        assert _bits(err) == _bits(error_of[id(st.y1)])
        for theta in (0.25, 0.5, 0.75):
            t = st.t0 + theta * st.h
            assert _bits(_tableau_eval(st, t)) == _bits(st.eval(t))


def _initial_step_by_loops(rhs, chart, y0, f0, atol, rtol):
    """The starting-step heuristic with each scaled norm summed by a
    plain left-to-right loop from the int 0."""
    n = len(y0)
    sc = [atol + rtol * abs(v) for v in y0]

    def rms(xs):
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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, integrator.MAX_STEP)


@pytest.mark.parametrize("flow, q, p", [
    (Flow.PHYSICAL, (0.3, -0.15), (0.1, 0.9)),
    (Flow.REGULARIZED, (0.05, 0.1), (0.0, -0.9)),
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


def test_fixed_step_convergence_is_at_least_fourth_order():
    """Halving the step must shrink the error by at least 2^4."""
    state = _loop_state()
    horizon = 2.0
    ref = integrate(Flow.PHYSICAL, state, KEPLER,
                    IntegrationSettings(rel_tol=1e-13, abs_tol=1e-14,
                                        t_max=horizon))
    _, y_ref = ref.eval(horizon)

    errors = []
    for h in (0.01, 0.005, 0.0025):
        traj = integrate(Flow.PHYSICAL, state, KEPLER,
                         IntegrationSettings(t_max=horizon, fixed_step=h))
        _, y = traj.eval(horizon)
        errors.append(max(abs(a - b) for a, b in zip(y[:4], y_ref[:4])))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) > 4.0, f"observed orders {orders}"


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
    ups = locate_event(traj, lambda t, chart, y, dy: y[1], direction=+1)
    downs = locate_event(traj, lambda t, chart, y, dy: y[1], direction=-1)
    assert len(ups) + len(downs) == len(hits)
    for hit in ups:
        _, y = traj.eval(min(hit.t + 1e-5, traj.t_end))
        assert y[1] > 0.0


def test_event_on_signless_function_is_empty():
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=2.0))
    assert locate_event(traj, lambda t, chart, y, dy: 1.0 + y[0] ** 2) == []


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
    """FSAL: the first and last stages are the field at y0 and y1, bit for
    bit, also where the chart switched at the step start."""
    traj, _ = _switching_run()
    for st in traj.steps:
        assert st.k[0] == traj.rhs(st.chart, st.y0)
        assert st.k[6] == traj.rhs(st.chart, st.y1)


def test_event_location_reads_step_end_rates_from_the_stages():
    """The event gets the field at a step's ends from the step's stages, so
    no field call lands on a y0 or y1; each event value off the ends costs
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
    ends = {st.y0 for st in traj.steps} | {st.y1 for st in traj.steps}
    assert not ends.intersection(field_args)
    assert len(field_args) == len(calls) - 2 * len(traj.steps)
    for t, before, after in switches:
        assert (t, before) in calls and (t, after) in calls


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
    {"rel_tol": 0.0}, {"abs_tol": -1e-12}, {"t_max": 0.0}, {"event_tol": 0.0},
    {"fixed_step": 0.0},
])
def test_settings_validation(kwargs):
    with pytest.raises(UsageError):
        IntegrationSettings(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "ten"])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "t_max", "event_tol",
                                  "fixed_step"])
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
