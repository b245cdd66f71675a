"""Certification gate: one check per headline requirement.

Each test prints a single [PASS]/[FAIL] line (the suite runs with output
capture disabled) and then asserts, so the terminal log doubles as the
certificate summary.
"""

from __future__ import annotations

import io
import math
import random
import time

import pytest

from ccorb import (
    Branch,
    Chart,
    Flow,
    IntegrationSettings,
    MoserChartPoint,
    PhaseState,
    RegularizedLevel,
    SystemParams,
    UsageError,
    catalog_insert,
    chart_transition,
    chord_action,
    ChordCatalog,
    collision_point,
    effective_potential,
    export_csv,
    first_critical_value,
    hamiltonian,
    hill_component_interval,
    integrate,
    kepler_oracle_return_time,
    lagrange_points,
    legendrian_membership,
    phase_to_chart,
    refine_chord,
    scan_and_bracket,
    starshape_scan,
    symmetry_defect,
)
from ccorb.dynamics import (
    EnergyLevel,
    effective_potential_gradient,
    solve_bracket,
    vector_field_values,
)
from ccorb.regularization import g_and_gradient, g_value


def _report(criterion: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _sigma_at_phys(traj, t_phys: float) -> float:
    """Flow parameter at which the carried physical clock reads t_phys.

    The clock component y[4] is nondecreasing along the regularized flow,
    so a bracket solve over the dense output suffices.
    """
    if t_phys <= 0.0:
        return 0.0
    t_end = traj.t_end
    end_clock = traj.eval(t_end)[1][4]
    if t_phys >= end_clock:
        raise UsageError(
            f"physical time {t_phys} beyond the trajectory clock "
            f"{end_clock}")
    lo, _, hi, _ = solve_bracket(lambda s: traj.eval(s)[1][4] - t_phys,
                                 0.0, -t_phys, t_end, end_clock - t_phys,
                                 1e-13 * max(1.0, t_end))
    return 0.5 * (lo + hi)


def _find_chord(mu: float, c: float, s_range, n, branch,
                settings: IntegrationSettings, k_max: int = 1):
    params = SystemParams(mu=mu)
    level = RegularizedLevel(params=params, f=-c)
    brackets = scan_and_bracket(s_range, n, branch, params, level, settings,
                                k_max=k_max)
    sign_changes = [b for b in brackets if b.kind == "sign_change"]
    assert sign_changes, f"no bracket in {s_range} at mu={mu}, c={c}"
    return [refine_chord(b, level, settings) for b in sign_changes]


@pytest.fixture(scope="module")
def kepler_chords():
    """Criterion-1 chords, shared with the action identity of criterion 4."""
    tic = time.perf_counter()
    fast = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12, t_max=10.0)
    slow = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12, t_max=30.0)
    tight = _find_chord(0.0, -2.0, (0.40, 0.53), 12, Branch.MINUS, fast)
    wide = _find_chord(0.0, -0.5, (1.5, 2.5), 25, Branch.MINUS, slow)
    return {"tight": tight[0], "wide": wide[0],
            "elapsed": time.perf_counter() - tic}


@pytest.fixture(scope="module")
def multiplicity_catalog():
    """Criterion-3 catalog: mu = 0.1 just below the first critical value."""
    tic = time.perf_counter()
    mu = 0.1
    params = SystemParams(mu=mu)
    c = first_critical_value(params) - 0.1
    level = RegularizedLevel(params=params, f=-c)
    settings = IntegrationSettings(t_max=50.0)
    hill = hill_component_interval(params, EnergyLevel(f=-c))
    pad_pos = 0.02 * hill.s_max
    pad_neg = 0.02 * abs(hill.s_min)
    ranges = {"pos": (pad_pos, hill.s_max - pad_pos),
              "neg": (hill.s_min + pad_neg, -pad_neg)}

    catalog = ChordCatalog(
        run_config={"command": "acceptance", "mu": mu, "jacobi": c},
        entries=[])
    chords = []
    for side, s_range in ranges.items():
        for branch in (Branch.PLUS, Branch.MINUS):
            brackets = scan_and_bracket(s_range, 40, branch, params, level,
                                        settings, k_max=3)
            for bracket in brackets:
                if bracket.kind != "sign_change":
                    continue
                chord = refine_chord(bracket, level, settings)
                if catalog_insert(catalog, chord):
                    chords.append(chord)
    return {"catalog": catalog, "chords": chords, "level": level,
            "settings": settings, "elapsed": time.perf_counter() - tic}


# --------------------------------------------------------------------------


def test_criterion_1_rotating_kepler_chord_oracle(kepler_chords):
    tight, wide = kepler_chords["tight"], kepler_chords["wide"]
    elapsed = kepler_chords["elapsed"]
    err_s = abs(tight.spec.s - 0.5)
    err_flight = abs(tight.flight_time - kepler_oracle_return_time(-2.0))
    err_wide = abs(wide.flight_time - kepler_oracle_return_time(-0.5))
    ok = (err_s < 1e-8 and err_flight < 1e-8 and err_wide < 1e-7
          and elapsed < 10.0)
    _report(1, ok,
            f"s* err {err_s:.2e} (tol 1e-8), flight err {err_flight:.2e} "
            f"(tol 1e-8, pi/4), wide flight err {err_wide:.2e} "
            f"(tol 1e-7, 2pi), runtime {elapsed:.1f}s (limit 10s)")


def test_criterion_2_first_critical_values():
    tic = time.perf_counter()
    cfg_half = lagrange_points(SystemParams(mu=0.5))
    err_value = abs(cfg_half.first_critical_value - (-2.0))
    err_loc = math.hypot(cfg_half.points["L1"][0] - 0.5,
                         cfg_half.points["L1"][1])
    half_ok = err_value < 1e-9 and err_loc < 1e-9

    # Hill-limit law for U_L1 to O(mu^(4/3)); see lagrange_points.
    mu_tiny = 1e-6
    tiny = first_critical_value(SystemParams(mu=mu_tiny))
    tiny_offset = tiny - (-1.5)
    tiny_law = (-1.5 - 0.5 * 3.0 ** (4.0 / 3.0) * mu_tiny ** (2.0 / 3.0)
                + (5.0 / 3.0) * mu_tiny)
    tiny_res = tiny - tiny_law
    tiny_tol = mu_tiny ** (4.0 / 3.0)
    tiny_ok = abs(tiny_res) <= tiny_tol

    grad_max = 0.0
    for mu in (0.01, 0.1, 0.3, 0.5):
        params = SystemParams(mu=mu)
        for point in lagrange_points(params).points.values():
            g = effective_potential_gradient(point, params)
            grad_max = max(grad_max, math.hypot(*g))
    grad_ok = grad_max < 1e-10
    elapsed = time.perf_counter() - tic

    ok = half_ok and tiny_ok and grad_ok and elapsed < 1.0
    _report(2, ok,
            f"mu=0.5 value err {err_value:.2e} loc err {err_loc:.2e} "
            f"(tol 1e-9); mu=1e-6 first critical {tiny:.15f}, offset from "
            f"-1.5 {tiny_offset:.6e}, Hill law {tiny_law:.15f}, residual "
            f"{tiny_res:.2e} (tol mu^(4/3) = {tiny_tol:.1e}); "
            f"max |grad U| {grad_max:.2e} (tol 1e-10); "
            f"runtime {elapsed:.2f}s (limit 1s)")


def test_criterion_3_multiplicity_below_critical(multiplicity_catalog):
    catalog = multiplicity_catalog["catalog"]
    chords = multiplicity_catalog["chords"]
    level = multiplicity_catalog["level"]
    settings = multiplicity_catalog["settings"]
    elapsed = multiplicity_catalog["elapsed"]

    taus = sorted(e["tau_reeb"] for e in catalog.entries)
    min_sep = min((b - a for a, b in zip(taus, taus[1:])), default=math.inf)

    legendrian_ok = all(
        legendrian_membership(
            MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0), b=b),
            level, tol=1e-8)
        for ch in chords
        for b in (ch.endpoint_start_b, ch.endpoint_end_b))
    drift_max = max(ch.samples.conserved_drift() for ch in chords)
    defect_max = max(symmetry_defect(ch) for ch in chords)

    ok = (len(catalog.entries) >= 5 and min_sep > 1e-4 and legendrian_ok
          and drift_max < 1e-9 and defect_max < 1e-7 and elapsed < 300.0)
    _report(3, ok,
            f"{len(catalog.entries)} distinct chords (need >= 5), min tau "
            f"separation {min_sep:.2e} (tol 1e-4), Legendrian 1e-8 "
            f"{'ok' if legendrian_ok else 'VIOLATED'}, max KCheck drift "
            f"{drift_max:.2e} (tol 1e-9), max symmetry defect "
            f"{defect_max:.2e} (tol 1e-7), runtime {elapsed:.0f}s "
            f"(limit 300s)")


def test_criterion_4_action_equals_period(kepler_chords,
                                          multiplicity_catalog):
    chords = [kepler_chords["tight"], kepler_chords["wide"],
              *multiplicity_catalog["chords"]]
    worst_gap = 0.0
    worst_resample = 0.0
    for chord in chords:
        action = chord_action(chord)
        worst_gap = max(worst_gap, abs(action - chord.tau_reeb))
        worst_resample = max(
            worst_resample,
            abs(chord_action(chord, refinement=2)
                - chord_action(chord, refinement=4)))
    ok = worst_gap < 1e-6 and worst_resample < 1e-8
    _report(4, ok,
            f"max |action - tau| {worst_gap:.2e} over {len(chords)} chords "
            f"(tol 1e-6), max resampling shift {worst_resample:.2e} "
            f"(tol 1e-8)")


def test_criterion_5_regularization_correctness():
    level = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)
    mu, f = level.params.mu, level.f

    # (a) involution + cross product on 1000 random points.
    rng = random.Random(424242)
    inv_err = cross_err = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.05, 0.95)
        pt = MoserChartPoint(
            chart=Chart.NORTH if rng.random() < 0.5 else Chart.SOUTH,
            a=(rad * math.cos(theta), rad * math.sin(theta)),
            b=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        other = chart_transition(pt)
        back = chart_transition(other)
        inv_err = max(inv_err, max(
            abs(g - w) for g, w in zip(back.a + back.b, pt.a + pt.b)))
        cross_err = max(cross_err, abs(
            (other.a[0] * other.b[1] - other.a[1] * other.b[0])
            - (pt.a[0] * pt.b[1] - pt.a[1] * pt.b[0])))

    # (b) the two flows trace the same collision-free arc.
    q = (0.3, 0.15)
    c = -2.0
    kepler = RegularizedLevel(params=SystemParams(mu=0.0), f=-c)
    speed = math.sqrt(2.0 * (c - effective_potential(q, kepler.params)))
    r = math.hypot(*q)
    state = PhaseState(q=q, p=(speed * -q[1] / r - q[1],
                               speed * q[0] / r + q[0]))
    horizon = 3.0
    phys = integrate(Flow.PHYSICAL, state, kepler,
                     IntegrationSettings(t_max=horizon))
    reg = integrate(Flow.REGULARIZED, phase_to_chart(state), kepler,
                    IntegrationSettings(t_max=30.0),
                    until=lambda tr: tr.steps
                    and tr.steps[-1].y1[4] >= horizon)
    flow_gap = 0.0
    from ccorb import physical_state as to_phys
    for i in range(1, 200):
        t_phys = horizon * i / 200.0
        sigma = _sigma_at_phys(reg, t_phys)
        chart, y = reg.eval(sigma)
        back = to_phys(MoserChartPoint(chart=chart, a=(y[0], y[1]),
                                       b=(y[2], y[3])))
        _, y_p = phys.eval(t_phys)
        flow_gap = max(flow_gap, math.hypot(back.q[0] - y_p[0],
                                            back.q[1] - y_p[1]))

    # (c) analytic gradients against central differences, both charts.
    h = 1e-6
    fd_rel = 0.0
    for _ in range(100):
        chart = Chart.NORTH if rng.random() < 0.5 else Chart.SOUTH
        vals = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)]
        _, *grad = g_and_gradient(chart, *vals, mu, f)
        for i in range(4):
            plus = list(vals)
            minus = list(vals)
            plus[i] += h
            minus[i] -= h
            fd = (g_value(chart, *plus, mu, f)
                  - g_value(chart, *minus, mu, f)) / (2.0 * h)
            scale = max(abs(fd), abs(grad[i]), 1e-6)
            fd_rel = max(fd_rel, abs(grad[i] - fd) / scale)
    # Physical side of the same check.
    params = SystemParams(mu=0.3)
    st0 = PhaseState(q=(0.45, -0.32), p=(0.6, 0.25))
    field = vector_field_values(*st0.as_tuple(), params.mu)
    signs = (1.0, 1.0, -1.0, -1.0)  # dH/dp drives qdot, -dH/dq drives pdot
    for slot, (qdot, comp) in enumerate(
            ((field[0], 2), (field[1], 3), (field[2], 0), (field[3], 1))):
        vals = list(st0.as_tuple())
        plus = list(vals)
        minus = list(vals)
        plus[comp] += h
        minus[comp] -= h
        fd = (hamiltonian(PhaseState(q=(plus[0], plus[1]),
                                     p=(plus[2], plus[3])), params)
              - hamiltonian(PhaseState(q=(minus[0], minus[1]),
                                       p=(minus[2], minus[3])), params)
              ) / (2.0 * h)
        fd *= signs[slot]
        scale = max(abs(fd), abs(qdot), 1e-6)
        fd_rel = max(fd_rel, abs(qdot - fd) / scale)

    ok = inv_err < 1e-12 and cross_err < 1e-12 and flow_gap < 1e-6 \
        and fd_rel < 1e-6
    _report(5, ok,
            f"involution err {inv_err:.2e}, cross err {cross_err:.2e} "
            f"(tol 1e-12, 1000 points); flow agreement {flow_gap:.2e} "
            f"(tol 1e-6); worst FD relative gap {fd_rel:.2e} (tol 1e-6)")


def test_criterion_6_starshape_certificate():
    details = []
    ok = True
    for mu in (0.0, 0.1, 0.5):
        params = SystemParams(mu=mu)
        c = first_critical_value(params) - 0.1
        tic = time.perf_counter()
        report = starshape_scan(params, RegularizedLevel(params=params, f=-c),
                                base_grid=60, ray_grid=60)
        dt = time.perf_counter() - tic
        ok = ok and report.ok and report.min_margin > 0.0 and dt < 60.0
        details.append(f"mu={mu}: margin {report.min_margin:.4f} "
                       f"({dt:.1f}s)")
    _report(6, ok, "60x60 rays each cross once with positive margin -- "
            + "; ".join(details) + " (limit 60s per case)")


def test_criterion_7_integrator_quality(constant_step):
    q = (0.3, 0.15)
    c = -2.0
    params = SystemParams(mu=0.0)
    level = RegularizedLevel(params=params, f=-c)
    speed = math.sqrt(2.0 * (c - effective_potential(q, params)))
    r = math.hypot(*q)
    state = PhaseState(q=q, p=(speed * -q[1] / r - q[1],
                               speed * q[0] / r + q[0]))

    drift_traj = integrate(Flow.PHYSICAL, state, level,
                           IntegrationSettings(t_max=10.0))
    drift = drift_traj.conserved_drift()

    ref = integrate(Flow.PHYSICAL, state, level,
                    IntegrationSettings(rel_tol=1e-13, abs_tol=1e-14,
                                        t_max=2.0))
    _, y_ref = ref.eval(2.0)
    errors = []
    for h in (0.125, 0.0625, 0.03125):
        y = constant_step(state, params.mu, h, 2.0)
        errors.append(max(abs(a - b) for a, b in zip(y, y_ref[:4])))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    outputs = []
    for _ in range(2):
        traj = integrate(Flow.PHYSICAL, state, level,
                         IntegrationSettings(t_max=3.0))
        buf = io.StringIO()
        export_csv(traj, buf, header_comments={"run": "determinism"})
        outputs.append(buf.getvalue().encode())
    identical = outputs[0] == outputs[1]

    ok = drift < 1e-9 and min(orders) >= 4.0 and identical
    _report(7, ok,
            f"energy drift {drift:.2e} over t in [0,10] (tol 1e-9); "
            f"step-halving orders {orders[0]:.2f}, {orders[1]:.2f} "
            f"(need >= 4); repeated runs byte-identical: {identical}")
