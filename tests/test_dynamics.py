"""Rotating-frame Hamiltonian, Lagrange points, Hill intervals."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccorb import (
    EnergyAboveCriticalError,
    EnergyLevel,
    PhaseState,
    SystemParams,
    UsageError,
    effective_potential,
    first_critical_value,
    hamiltonian,
    hill_component_interval,
    lagrange_points,
    reflect,
)
from ccorb import dynamics
from ccorb.dynamics import effective_potential_gradient, vector_field_values

# Keeps hypothesis points away from both primaries and the far field.
_coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_mom = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _safe(q: tuple[float, float], mu: float) -> bool:
    r0 = math.hypot(q[0], q[1])
    r1 = math.hypot(q[0] - 1.0, q[1])
    return r0 > 0.05 and (mu == 0.0 or r1 > 0.05)


# ----------------------------------------------------------------- values


def test_hamiltonian_frozen_value():
    # Hand-evaluated: 0.025 + 0.06 + 0.015 - 0.25/sqrt(0.45) - 0.75/0.5.
    state = PhaseState(q=(0.4, 0.3), p=(0.2, -0.1))
    h = hamiltonian(state, SystemParams(mu=0.25))
    assert h == pytest.approx(-1.772677996249965, abs=1e-15)


def test_effective_potential_frozen_value():
    # mu = 0 at (1/2, 0): -1/8 - 2.
    assert effective_potential((0.5, 0.0), SystemParams(mu=0.0)) == -2.125


@given(q1=_coord, q2=_coord, p1=_mom, p2=_mom,
       mu=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=150, deadline=None)
def test_hamiltonian_splits_into_kinetic_plus_potential(q1, q2, p1, p2, mu):
    """H equals half the rotating-velocity speed squared plus U(q)."""
    if not _safe((q1, q2), mu):
        return
    params = SystemParams(mu=mu)
    state = PhaseState(q=(q1, q2), p=(p1, p2))
    v1 = p1 + q2
    v2 = p2 - q1 + mu
    split = 0.5 * (v1 * v1 + v2 * v2) + effective_potential((q1, q2), params)
    assert hamiltonian(state, params) == pytest.approx(split, abs=1e-12)


@given(q1=_coord, q2=_coord, p1=_mom, p2=_mom,
       mu=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=100, deadline=None)
def test_reflection_is_an_antisymplectic_symmetry(q1, q2, p1, p2, mu):
    """rho is an involution, preserves H, and reverses the vector field."""
    if not _safe((q1, q2), mu):
        return
    params = SystemParams(mu=mu)
    state = PhaseState(q=(q1, q2), p=(p1, p2))
    mirrored = reflect(state)
    assert reflect(mirrored) == state
    assert hamiltonian(mirrored, params) == pytest.approx(
        hamiltonian(state, params), rel=1e-14, abs=1e-14)
    # X(rho x) = -Drho . X(x) with Drho = diag(1, -1, -1, 1).
    xd = vector_field_values(*state.as_tuple(), params.mu)
    xm = vector_field_values(*mirrored.as_tuple(), params.mu)
    expect = (-xd[0], xd[1], xd[2], -xd[3])
    for got, want in zip(xm, expect):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_vector_field_matches_finite_differences():
    """Hamilton's equations against central differences of H."""
    params = SystemParams(mu=0.3)
    state = PhaseState(q=(0.45, -0.32), p=(0.6, 0.25))
    field = vector_field_values(*state.as_tuple(), params.mu)
    h = 1e-6

    def h_at(dq1=0.0, dq2=0.0, dp1=0.0, dp2=0.0):
        return hamiltonian(
            PhaseState(q=(state.q[0] + dq1, state.q[1] + dq2),
                       p=(state.p[0] + dp1, state.p[1] + dp2)), params)

    fd = (
        (h_at(dp1=h) - h_at(dp1=-h)) / (2 * h),    # dq1/dt = dH/dp1
        (h_at(dp2=h) - h_at(dp2=-h)) / (2 * h),
        -(h_at(dq1=h) - h_at(dq1=-h)) / (2 * h),   # dp1/dt = -dH/dq1
        -(h_at(dq2=h) - h_at(dq2=-h)) / (2 * h),
    )
    for got, want in zip(field, fd):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_effective_potential_gradient_matches_finite_differences():
    params = SystemParams(mu=0.1)
    q = (0.37, 0.22)
    g1, g2 = effective_potential_gradient(q, params)
    h = 1e-6
    fd1 = (effective_potential((q[0] + h, q[1]), params)
           - effective_potential((q[0] - h, q[1]), params)) / (2 * h)
    fd2 = (effective_potential((q[0], q[1] + h), params)
           - effective_potential((q[0], q[1] - h), params)) / (2 * h)
    assert g1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
    assert g2 == pytest.approx(fd2, rel=1e-6, abs=1e-8)


# -------------------------------------------------------------- equilibria


def test_equal_masses_lagrange_geometry():
    """mu = 1/2: L1 sits at the midpoint with value exactly -2."""
    cfg = lagrange_points(SystemParams(mu=0.5))
    assert cfg.points["L1"] == pytest.approx((0.5, 0.0), abs=1e-12)
    assert cfg.values["L1"] == pytest.approx(-2.0, abs=1e-12)
    assert cfg.first_critical_value == pytest.approx(-2.0, abs=1e-12)
    # Symmetric mass split makes L2/L3 mirror images with equal values.
    assert cfg.points["L2"][0] == pytest.approx(1.0 - cfg.points["L3"][0],
                                                abs=1e-12)
    assert cfg.values["L2"] == pytest.approx(cfg.values["L3"], abs=1e-12)
    assert not cfg.degenerate


@pytest.mark.parametrize("mu", [0.01, 0.1, 0.3, 0.5])
def test_lagrange_points_are_critical_points(mu):
    params = SystemParams(mu=mu)
    cfg = lagrange_points(params)
    assert set(cfg.points) == {"L1", "L2", "L3", "L4", "L5"}
    for name, point in cfg.points.items():
        g1, g2 = effective_potential_gradient(point, params)
        assert math.hypot(g1, g2) < 1e-10, f"{name} gradient too large"
        assert cfg.values[name] == pytest.approx(
            effective_potential(point, params), abs=1e-13)


@pytest.mark.parametrize("mu", [0.01, 0.1, 0.3, 0.45])
def test_collinear_points_mirror_to_one_minus_mu(mu):
    """q -> E - q, p -> -p keeps H and swaps the masses, so it carries the
    collinear points at mu to those at 1 - mu: L1 to L1, L2 to L3 and L3
    to L2, each with its energy, and the first critical value with them."""
    cfg = lagrange_points(SystemParams(mu=mu))
    mirror = lagrange_points(SystemParams(mu=1.0 - mu))
    for name, image in (("L1", "L1"), ("L2", "L3"), ("L3", "L2")):
        assert abs(mirror.points[image][0]
                   - (1.0 - cfg.points[name][0])) < 1e-13
        assert abs(mirror.values[image] - cfg.values[name]) < 1e-14
    assert abs(mirror.first_critical_value
               - cfg.first_critical_value) < 1e-14


@pytest.mark.parametrize("mu", [0.05, 0.2, 0.4])
def test_triangular_points_are_equidistant(mu):
    cfg = lagrange_points(SystemParams(mu=mu))
    for name in ("L4", "L5"):
        x, y = cfg.points[name]
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-10)
        assert math.hypot(x - 1.0, y) == pytest.approx(1.0, abs=1e-10)


def test_first_critical_is_the_minimal_collinear_value():
    params = SystemParams(mu=0.1)
    cfg = lagrange_points(params)
    collinear = [cfg.values[n] for n in ("L1", "L2", "L3")]
    assert first_critical_value(params) == pytest.approx(min(collinear),
                                                         abs=1e-13)
    assert first_critical_value(params) < cfg.values["L4"]


def test_kepler_limit_is_degenerate():
    """mu = 0 collapses the collinear points onto the unit circle."""
    cfg = lagrange_points(SystemParams(mu=0.0))
    assert cfg.degenerate
    assert cfg.first_critical_value == pytest.approx(-1.5, abs=1e-13)
    assert first_critical_value(SystemParams(mu=0.0)) == pytest.approx(
        -1.5, abs=1e-13)


def test_small_mass_critical_value_scaling():
    """The L1 value departs from -3/2 at the 2/3 power of the mass."""
    mu = 1e-6
    value = first_critical_value(SystemParams(mu=mu))
    # Leading Hill-sphere correction: -(3^(4/3)/2) mu^(2/3).
    asymptotic = -1.5 - 0.5 * 3.0 ** (4.0 / 3.0) * mu ** (2.0 / 3.0)
    assert value == pytest.approx(-1.50021467187857, abs=1e-11)
    assert abs(value - asymptotic) < 5e-6


# ------------------------------------------------------- bracket solver


def _counted(fn):
    """``fn`` with a list of the points it was called at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return fn(x)
    return wrapped, seen


def test_bisect_bracket_width_zero_ends_on_adjacent_floats():
    def fn(x):
        return x * x - 2.0
    lo, flo, hi, fhi = dynamics.solve_bracket(fn, 1.0, fn(1.0), 2.0,
                                              fn(2.0), 0.0)
    assert lo < hi and math.nextafter(lo, math.inf) == hi
    assert lo <= math.sqrt(2.0) <= hi
    assert flo == fn(lo) < 0.0 < fhi == fn(hi)


def test_bisect_bracket_returns_an_exact_zero_as_a_point():
    def fn(x):
        return float((x > 0.75) - (x < 0.75))  # zero at the second probe
    counted, seen = _counted(fn)
    lo, flo, hi, fhi = dynamics.solve_bracket(counted, 0.0, fn(0.0), 1.0,
                                              fn(1.0), 1e-12)
    assert lo == hi == 0.75 and flo == fhi == 0.0
    assert len(seen) <= 2


def test_bisect_bracket_end_values_match_the_function():
    def fn(x):
        return math.cos(x) - x
    lo, flo, hi, fhi = dynamics.solve_bracket(fn, 0.0, fn(0.0), 1.0,
                                              fn(1.0), 1e-9)
    assert flo == fn(lo) and fhi == fn(hi)
    if lo == hi:  # landed on an exact zero
        assert flo == fhi == 0.0
    else:
        assert 0.0 < hi - lo <= 1e-9
        assert (flo < 0.0) != (fhi < 0.0)


@pytest.mark.parametrize("fn", [
    lambda x: x ** 15 - 1e-3,  # flat, then steep: interpolation misleads
    lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,  # a step: nothing to interpolate
    lambda x: -1.0 if x < 0.9 else 1e6,  # a lopsided step: regula falsi creeps
], ids=["x15", "step", "jump"])
def test_solve_bracket_keeps_the_worst_case_bound(fn):
    """Never more than n0 calls beyond bisection's ceil(log2(w0/width))."""
    budget = math.ceil(math.log2(1.0 / 1e-13)) + dynamics.ITP_N0
    seen = []

    def counted(x):
        seen.append(x)
        assert len(seen) <= budget, "more calls than the ITP bound"
        return fn(x)
    lo, _, hi, _ = dynamics.solve_bracket(counted, 0.0, fn(0.0), 1.0,
                                          fn(1.0), 1e-13)
    assert hi - lo <= 1e-13


def test_solve_bracket_converges_superlinearly_on_a_smooth_root():
    def fn(x):
        return math.cos(x) - x
    counted, seen = _counted(fn)
    lo, _, hi, _ = dynamics.solve_bracket(counted, 0.0, fn(0.0), 1.0,
                                          fn(1.0), 1e-13)
    assert hi - lo <= 1e-13 and lo <= 0.7390851332151607 <= hi
    assert len(seen) <= 10  # bisection takes 44


@pytest.mark.parametrize("fn", [
    lambda x: math.cos(x) - x,
    lambda x: x ** 15 - 1e-3,
    lambda x: x * x - 2.0,
], ids=["cos", "x15", "sq"])
def test_solve_bracket_never_calls_fn_at_the_bracket_ends(fn):
    a, b = (1.0, 2.0) if fn(1.0) < 0.0 < fn(2.0) else (0.0, 1.0)
    counted, seen = _counted(fn)
    dynamics.solve_bracket(counted, a, fn(a), b, fn(b), 0.0)
    assert seen and all(a < x < b for x in seen)
    assert len(set(seen)) == len(seen)


def _reference_solve_bracket(fn, lo, flo, hi, fhi, width):
    """``solve_bracket`` as it stood before its loop was made lean, kept
    frozen: the lean loop must take the same probes and return the same
    bracket, bit for bit."""
    w0 = hi - lo
    if not w0 > max(width, 0.0):
        return lo, flo, hi, fhi
    tiny = math.ulp(max(abs(lo), abs(hi)))
    unit = max(width, 4.0 * tiny)
    m, e = math.frexp(w0 / unit)  # ceil(log2(w0 / unit)), libm-free
    n_max = max(0, e - (m == 0.5)) + dynamics.ITP_N0
    kappa1 = dynamics.ITP_KAPPA1 / w0
    j = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        bound = math.ldexp(unit - 2.0 * tiny, n_max - j - 1) + 2.0 * tiny
        x = mid
        xf = (fhi * lo - flo * hi) / (fhi - flo)
        if lo <= xf <= hi:
            sigma = 1.0 if mid >= xf else -1.0
            delta = max(kappa1 * ((hi - lo) * (hi - lo)), 2.0 * tiny)
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            r = max(0.0, bound - 0.5 * (hi - lo))
            x = xt if abs(xt - mid) <= r else mid - sigma * r
            if not (lo < x < hi and x - lo <= bound and hi - x <= bound):
                x = mid
        j += 1
        fx = fn(x)
        if fx == 0.0:
            return x, fx, x, fx
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo, flo, hi, fhi


#: (name, fn, interval the random ends come from)
_BRACKET_CASES = [
    ("cos", lambda x: math.cos(x) - x, (-2.0, 3.0)),
    ("exp", lambda x: math.exp(x) - 2.0, (-700.0, 700.0)),
    ("step", lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, (-1.0, 2.0)),
    ("jump", lambda x: -1.0 if x < 0.9 else 1e6, (0.0, 1.0)),
    ("x15", lambda x: x ** 15 - 1e-3, (0.0, 100.0)),
    # zero on a whole band, so probes land on exact zeros
    ("band", lambda x: 0.0 if 0.25 <= x <= 0.75 else x - 0.5, (-1.0, 2.0)),
]
_WIDTHS = [0.0, 1e-13, 1e-12, 5e-324, 1e300, math.nan, -1.0]


def test_the_lean_itp_loop_matches_the_reference_bit_for_bit():
    """5000 random brackets over six functions and seven stop widths (and
    random ones), plus adjacent-float brackets: the same probes and the
    same (lo, flo, hi, fhi) by ``float.hex``."""
    rng = random.Random(20211)
    outcomes = {"zero": 0, "adjacent": 0, "unchanged": 0}
    checked = 0
    while checked < 5000:
        name, fn, (a, b) = rng.choice(_BRACKET_CASES)
        lo, hi = sorted((rng.uniform(a, b), rng.uniform(a, b)))
        if rng.random() < 0.05:  # adjacent floats around the sign change
            lo, _, hi, _ = _reference_solve_bracket(
                fn, a, fn(a), b, fn(b), 0.0)
        flo, fhi = fn(lo), fn(hi)
        if (flo < 0.0) == (fhi < 0.0):
            continue
        width = rng.choice(_WIDTHS + [10.0 ** rng.uniform(-16.0, 0.0)])
        got_fn, got_seen = _counted(fn)
        want_fn, want_seen = _counted(fn)
        got = dynamics.solve_bracket(got_fn, lo, flo, hi, fhi, width)
        want = _reference_solve_bracket(want_fn, lo, flo, hi, fhi, width)
        case = (name, lo.hex(), hi.hex(), width)
        assert [v.hex() for v in got] == [v.hex() for v in want], case
        assert [v.hex() for v in got_seen] == [v.hex() for v in want_seen]
        if got[0] == got[2]:
            outcomes["zero"] += 1
        elif math.nextafter(got[0], math.inf) == got[2]:
            outcomes["adjacent"] += 1
        if not want_seen:
            outcomes["unchanged"] += 1
        checked += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_the_column_solve_matches_the_scalar_one_bit_for_bit():
    """The brackets of the test above, adjacent-float and exact-zero cases
    included, as one column and in columns of 1, 7 and 480 lanes: every
    lane makes the probes of ``solve_bracket`` and returns its
    (lo, flo, hi, fhi) by ``float.hex``; a lane already at or below its
    width comes back as given, never probed."""
    rng = random.Random(20212)
    cases = []
    while len(cases) < 5000:
        _, fn, (a, b) = rng.choice(_BRACKET_CASES)
        lo, hi = sorted((rng.uniform(a, b), rng.uniform(a, b)))
        if rng.random() < 0.05:
            lo, _, hi, _ = dynamics.solve_bracket(fn, a, fn(a), b, fn(b), 0.0)
        flo, fhi = fn(lo), fn(hi)
        if (flo < 0.0) != (fhi < 0.0):
            width = rng.choice(_WIDTHS + [10.0 ** rng.uniform(-16.0, 0.0)])
            cases.append((fn, lo, flo, hi, fhi, width))
    wants = []
    for fn, *bracket in cases:
        counted, seen = _counted(fn)
        wants.append((dynamics.solve_bracket(counted, *bracket), seen))
    outcomes = {"zero": 0, "adjacent": 0, "unchanged": 0}
    for got, seen in wants:
        outcomes["zero"] += got[0] == got[2]
        outcomes["adjacent"] += math.nextafter(got[0], math.inf) == got[2]
        outcomes["unchanged"] += not seen
    assert min(outcomes.values()) >= 50, outcomes
    for size in (len(cases), 1, 7, 480):
        for k0 in range(0, len(cases), size):
            group = cases[k0:k0 + size]
            probes = [[] for _ in group]

            def column_fn(x, lanes):
                assert len(lanes) and len(set(lanes.tolist())) == len(lanes)
                for xi, k in zip(x.tolist(), lanes.tolist()):
                    probes[k].append(xi)
                return [group[k][0](xi) for xi, k in zip(x.tolist(),
                                                         lanes.tolist())]
            cols = [np.array([case[j] for case in group]) for j in range(1, 6)]
            got = dynamics.solve_brackets(column_fn, *cols)
            for k, ((want, seen), *lane) in enumerate(
                    zip(wants[k0:k0 + size], *(c.tolist() for c in got))):
                case = (size, k0 + k, group[k][1].hex(), group[k][4])
                assert [v.hex() for v in lane] == [v.hex() for v in want], case
                assert ([v.hex() for v in probes[k]]
                        == [v.hex() for v in seen]), case


# ----------------------------------------------------------- Hill regions


def test_hill_interval_bounds_satisfy_the_energy_equation():
    params = SystemParams(mu=0.0)
    hill = hill_component_interval(params, EnergyLevel(f=2.0))
    assert not hill.degenerate
    # s^3 - 4s + 2 = 0 on (0, 1); the component is symmetric at mu = 0.
    assert hill.s_max == pytest.approx(0.5391888728108891, abs=1e-12)
    assert hill.s_min == pytest.approx(-hill.s_max, abs=1e-12)
    for s in (hill.s_min, hill.s_max):
        assert effective_potential((s, 0.0), params) == pytest.approx(
            -2.0, abs=1e-10)
    assert effective_potential((0.5 * hill.s_max, 0.0), params) < -2.0


def test_hill_interval_asymmetric_for_positive_mass():
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) - 0.1
    hill = hill_component_interval(params, EnergyLevel(f=-c))
    assert hill.s_min < 0.0 < hill.s_max
    assert abs(hill.s_min) != pytest.approx(hill.s_max, abs=1e-6)
    for s in (hill.s_min, hill.s_max):
        assert effective_potential((s, 0.0), params) == pytest.approx(
            c, abs=1e-9)


def test_hill_interval_unbounded_above_kepler_threshold():
    hill = hill_component_interval(SystemParams(mu=0.0), EnergyLevel(f=0.5))
    assert hill.degenerate
    assert hill.s_min == -math.inf and hill.s_max == math.inf


def test_hill_interval_solves_the_lagrange_points_once(monkeypatch):
    params = SystemParams(mu=0.1)
    level = EnergyLevel(f=-(first_critical_value(params) - 0.1))
    calls = []

    def counted(p):
        calls.append(p)
        return lagrange_points(p)
    monkeypatch.setattr(dynamics, "lagrange_points", counted)
    hill_component_interval(params, level)
    assert len(calls) == 1


def test_hill_interval_refuses_supercritical_energy():
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) + 0.05
    with pytest.raises(EnergyAboveCriticalError):
        hill_component_interval(params, EnergyLevel(f=-c))


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("mu", [-0.1, 1.0, 1.5])
def test_mass_ratio_out_of_range_rejected(mu):
    with pytest.raises(UsageError):
        SystemParams(mu=mu)


def test_hamiltonian_rejects_collision_input():
    params = SystemParams(mu=0.2)
    with pytest.raises(Exception):
        hamiltonian(PhaseState(q=(0.0, 0.0), p=(0.0, 0.0)), params)

