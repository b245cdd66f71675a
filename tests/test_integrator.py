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
            for got, w in zip(st.rate(t), want):
                assert got == pytest.approx(w, rel=1e-9, abs=1e-9)


def _dot(weights, k, m):
    """sum_i weights[i] k[i][m] by a plain loop from 0.0."""
    acc = 0.0
    for w, ki in zip(weights, k):
        acc += w * ki[m]
    return acc


def _tableau_step(rhs, st):
    """Stages, eighth-order solution, both error estimates and dense rows
    of ``st`` by plain loops over the tableau rows."""
    y, h, n = st.y0, st.h, len(st.y0)
    k = [rhs(st.chart, y)]
    for s in range(1, 16):
        ys = tuple(y[m] + h * _dot(_A[s], k, m) for m in range(n))
        k.append(rhs(st.chart, ys))
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
    """Stages, y1, both error estimates, the error norm, the dense rows and
    the dense output of every accepted step equal the plain tableau loops
    bit for bit (signed zeros included), on a mu = 0.1 regularized run
    through chart switches and a physical run."""
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
        k, y1, err5, err3, rows = _tableau_step(traj.rhs, st)
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


def test_fixed_step_convergence_is_above_seventh_order():
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
        traj = integrate(Flow.PHYSICAL, state, KEPLER,
                         IntegrationSettings(t_max=horizon, fixed_step=h))
        _, y = traj.eval(horizon)
        errors.append(max(abs(a - b) for a, b in zip(y[:4], y_ref[:4])))
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
    """FSAL: the rates a step keeps are the field at y0 and y1, bit for
    bit, also where the chart switched at the step start."""
    traj, _ = _switching_run()
    for st in traj.steps:
        assert st.f0 == traj.rhs(st.chart, st.y0)
        assert st.f1 == traj.rhs(st.chart, st.y1)


def test_event_location_reads_step_end_rates_from_the_stages():
    """The event gets the field at a step's ends from the step's own rates
    and at its midpoint from the rate of the dense output, so no field
    call lands on a y0, a midpoint or a y1; each other event value costs
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
    probes = ({st.y0 for st in traj.steps} | {st.y1 for st in traj.steps}
              | {st.eval(st.t0 + 0.5 * st.h) for st in traj.steps})
    assert not probes.intersection(field_args)
    assert len(field_args) == len(calls) - 3 * len(traj.steps)
    for t, before, after in switches:
        assert (t, before) in calls and (t, after) in calls


def test_step_roots_splits_two_roots_at_the_midpoint():
    """Two roots in one step, one on each side of its midpoint, are both
    found; the ends alone see no sign change."""
    traj = integrate(Flow.PHYSICAL, _loop_state(), KEPLER,
                     IntegrationSettings(t_max=2.0))
    for st in traj.steps[:10]:
        r1, r2 = st.t0 + 0.3 * st.h, st.t0 + 0.7 * st.h
        hits = integrator.step_roots(
            st, traj.rhs, lambda t, chart, y, dy: (t - r1) * (t - r2), 0,
            1e-14)
        assert [h.t for h in hits] == [pytest.approx(r1, abs=1e-13),
                                       pytest.approx(r2, abs=1e-13)]


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
    {"fixed_step": 0.0}, {"rel_tol": 1.0}, {"abs_tol": 1e3},
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
