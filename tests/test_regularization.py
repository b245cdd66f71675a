"""Stereographic charts, the regularized energy G, and the collision locus."""

from __future__ import annotations

import math
import random

import pytest

from ccorb import (
    Chart,
    MoserChartPoint,
    PhaseState,
    RegularizedLevel,
    SystemParams,
    chart_transition,
    collision_point,
    g_value,
    k_value,
    kcheck_value,
    legendrian_membership,
    phase_to_chart,
    physical_state,
)
from ccorb import hamiltonian
from ccorb.errors import AtCollisionError, UsageError
from ccorb.integrator import _rhs_regularized
from ccorb.regularization import g_and_gradient

LEVEL = RegularizedLevel(params=SystemParams(mu=0.1), f=1.8)


def _random_points(n: int, seed: int = 20260823) -> list[MoserChartPoint]:
    """Chart points with 0 < |a| < 1 (interior, transition well-defined)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.05, 0.95)
        a = (rad * math.cos(theta), rad * math.sin(theta))
        b = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        chart = Chart.NORTH if rng.random() < 0.5 else Chart.SOUTH
        out.append(MoserChartPoint(chart=chart, a=a, b=b))
    return out


# ------------------------------------------------------------ transitions


def test_transition_is_an_involution_on_a_thousand_points():
    """Applying the chart swap twice returns the point, to 1e-12."""
    for pt in _random_points(1000):
        back = chart_transition(chart_transition(pt))
        assert back.chart is pt.chart
        for got, want in zip(back.a + back.b, pt.a + pt.b):
            assert got == pytest.approx(want, abs=1e-12)


def test_transition_preserves_the_cross_product():
    """a1 b2 - a2 b1 is the physical angular quantity, so it cannot move."""
    for pt in _random_points(1000, seed=7):
        other = chart_transition(pt)
        cross = pt.a[0] * pt.b[1] - pt.a[1] * pt.b[0]
        cross_other = other.a[0] * other.b[1] - other.a[1] * other.b[0]
        assert cross_other == pytest.approx(cross, abs=1e-12)


def test_transition_swaps_chart_and_inverts_base_radius():
    pt = MoserChartPoint(chart=Chart.NORTH, a=(0.3, 0.4), b=(1.0, -2.0))
    other = chart_transition(pt)
    assert other.chart is Chart.SOUTH
    assert math.hypot(*other.a) == pytest.approx(1.0 / 0.5, abs=1e-14)


def test_transition_undefined_at_the_pole():
    with pytest.raises(UsageError):
        chart_transition(MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                                         b=(1.0, 0.0)))


def test_physical_state_undefined_at_the_pole():
    """The collision fiber has a position (O) but no physical momentum."""
    with pytest.raises(AtCollisionError):
        physical_state(MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                                       b=(1.0, 0.0)))


def test_g_agrees_across_charts():
    for pt in _random_points(300, seed=99):
        other = chart_transition(pt)
        g_here = g_value(pt.chart, *pt.a, *pt.b, LEVEL.params.mu, LEVEL.f)
        g_there = g_value(other.chart, *other.a, *other.b,
                          LEVEL.params.mu, LEVEL.f)
        assert g_there == pytest.approx(g_here, rel=1e-12, abs=1e-12)


# --------------------------------------------------- physical equivalence


def test_chart_round_trip_recovers_the_phase_state():
    states = [
        PhaseState(q=(0.4, 0.1), p=(0.3, -1.2)),
        PhaseState(q=(-0.2, 0.35), p=(2.0, 0.7)),   # |p| > 1: south chart
        PhaseState(q=(0.05, -0.02), p=(0.1, 0.2)),
    ]
    for state in states:
        pt = phase_to_chart(state)
        back = physical_state(pt)
        for got, want in zip(back.as_tuple(), state.as_tuple()):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_chart_selection_follows_momentum_size():
    small = phase_to_chart(PhaseState(q=(0.5, 0.0), p=(0.2, 0.1)))
    large = phase_to_chart(PhaseState(q=(0.5, 0.0), p=(0.2, 2.1)))
    assert small.chart is Chart.NORTH
    assert large.chart is Chart.SOUTH


def test_k_value_is_radius_times_shifted_energy():
    """K = |q| (H + f) directly from the physical formulas."""
    rng = random.Random(3)
    for _ in range(50):
        q = (rng.uniform(0.05, 0.8), rng.uniform(-0.6, 0.6))
        if math.hypot(q[0] - 1.0, q[1]) < 0.05:
            continue
        state = PhaseState(q=q, p=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        k = k_value(state, LEVEL)
        h = hamiltonian(state, LEVEL.params)
        assert k == pytest.approx(math.hypot(*q) * (h + LEVEL.f),
                                  rel=1e-12, abs=1e-12)


def test_g_equals_k_plus_offset_through_the_charts():
    """G - (1 - mu) = K on corresponding points."""
    rng = random.Random(11)
    for _ in range(50):
        q = (rng.uniform(0.1, 0.7), rng.uniform(-0.5, 0.5))
        state = PhaseState(q=q, p=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        pt = phase_to_chart(state)
        g = g_value(pt.chart, *pt.a, *pt.b, LEVEL.params.mu, LEVEL.f)
        k = k_value(state, LEVEL)
        assert g - (1.0 - LEVEL.params.mu) == pytest.approx(k, abs=1e-11)


def test_energy_surface_maps_onto_the_g_level():
    """States with H = c land exactly on G = 1 - mu."""
    params, f = LEVEL.params, LEVEL.f
    rng = random.Random(23)
    found = 0
    while found < 25:
        q = (rng.uniform(0.1, 0.5), rng.uniform(-0.3, 0.3))
        # Solve 1/2 |p|^2 = c - rest(q, p_dir) along a fixed direction by
        # scaling: pick direction, use the quadratic in the magnitude.
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(theta), math.sin(theta))
        # H(lam u) = lam^2/2 + lam w + U0 with w = u1 q2 - u2 (q1 - mu).
        w = u[0] * q[1] - u[1] * (q[0] - params.mu)
        u0 = hamiltonian(PhaseState(q=q, p=(0.0, 0.0)), params)
        disc = w * w - 2.0 * (u0 - (-f))
        if disc < 0.0:
            continue
        lam = -w + math.sqrt(disc)
        state = PhaseState(q=q, p=(lam * u[0], lam * u[1]))
        assert hamiltonian(state, params) == pytest.approx(-f, abs=1e-12)
        pt = phase_to_chart(state)
        g = g_value(pt.chart, *pt.a, *pt.b, params.mu, f)
        assert g == pytest.approx(1.0 - params.mu, abs=1e-11)
        assert kcheck_value(pt, LEVEL) == pytest.approx(LEVEL.target,
                                                        abs=1e-11)
        found += 1


# -------------------------------------------------------------- gradients


@pytest.mark.parametrize("chart", [Chart.NORTH, Chart.SOUTH])
def test_g_gradient_matches_finite_differences(chart):
    rng = random.Random(5)
    h = 1e-6
    for _ in range(40):
        a = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        b = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        args = (*a, *b, LEVEL.params.mu, LEVEL.f)
        g0, da1, da2, db1, db2 = g_and_gradient(chart, *args)
        assert g0 == pytest.approx(g_value(chart, *args), abs=1e-14)

        def g_at(i: int, delta: float) -> float:
            vals = [a[0], a[1], b[0], b[1]]
            vals[i] += delta
            return g_value(chart, *vals, LEVEL.params.mu, LEVEL.f)

        for i, grad in enumerate((da1, da2, db1, db2)):
            fd = (g_at(i, h) - g_at(i, -h)) / (2.0 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_vector_field_is_scaled_skew_gradient():
    """da/ds = -G dG/db, db/ds = +G dG/da (the (a, -b) pairing)."""
    pt = MoserChartPoint(chart=Chart.NORTH, a=(0.2, -0.4), b=(1.1, 0.6))
    g0, da1, da2, db1, db2 = g_and_gradient(pt.chart, *pt.a, *pt.b,
                                            LEVEL.params.mu, LEVEL.f)
    field = _rhs_regularized(LEVEL.params.mu, LEVEL.f)(
        pt.chart, (*pt.a, *pt.b, 0.0, 0.0))
    assert field[0] == pytest.approx(-g0 * db1, rel=1e-13)
    assert field[1] == pytest.approx(-g0 * db2, rel=1e-13)
    assert field[2] == pytest.approx(g0 * da1, rel=1e-13)
    assert field[3] == pytest.approx(g0 * da2, rel=1e-13)


def test_vector_field_at_the_pole_is_explicit():
    """At a = 0 the flow reduces to da/ds = -b/4, db/ds = (0, mu |b|^2/2)."""
    mu = LEVEL.params.mu
    b = (-2.0 * (1.0 - mu), 0.0)
    pt = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0), b=b)
    field = _rhs_regularized(mu, LEVEL.f)(pt.chart, (*pt.a, *pt.b, 0.0, 0.0))
    nb = math.hypot(*b)
    assert field[0] == pytest.approx(-b[0] / 4.0, rel=1e-13)
    assert field[1] == pytest.approx(-b[1] / 4.0, abs=1e-13)
    assert field[2] == pytest.approx(0.0, abs=1e-13)
    assert field[3] == pytest.approx(mu * nb * nb / 2.0, rel=1e-13)


# -------------------------------------------------------- collision locus


def test_collision_point_lies_on_the_legendrian():
    for theta in (0.0, 0.4, -2.2, math.pi):
        pt = collision_point((math.cos(theta), math.sin(theta)), LEVEL)
        assert pt.chart is Chart.SOUTH
        assert pt.a == (0.0, 0.0)
        assert math.hypot(*pt.b) == pytest.approx(
            2.0 * (1.0 - LEVEL.params.mu), abs=1e-14)
        assert legendrian_membership(pt, LEVEL, tol=1e-10)
        # The fiber coordinate points against the approach ray.
        assert pt.b[0] * math.cos(theta) + pt.b[1] * math.sin(theta) < 0.0


def test_collision_point_normalizes_the_ray():
    pt = collision_point((3.0, 4.0), LEVEL)
    assert math.hypot(*pt.b) == pytest.approx(2.0 * (1.0 - LEVEL.params.mu),
                                              abs=1e-14)
    with pytest.raises(UsageError):
        collision_point((0.0, 0.0), LEVEL)


def test_legendrian_membership_rejects_nearby_points():
    good = collision_point((1.0, 0.0), LEVEL)
    off_base = MoserChartPoint(chart=Chart.SOUTH, a=(1e-4, 0.0), b=good.b)
    off_fiber = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                                b=(good.b[0] * 1.001, good.b[1]))
    assert not legendrian_membership(off_base, LEVEL, tol=1e-8)
    assert not legendrian_membership(off_fiber, LEVEL, tol=1e-8)


def test_kcheck_at_collision_is_the_search_target():
    """The Legendrian sits on the regularized level for every mu."""
    for mu in (0.0, 0.1, 0.5):
        level = RegularizedLevel(params=SystemParams(mu=mu), f=2.0)
        pt = collision_point((0.6, -0.8), level)
        assert kcheck_value(pt, level) == pytest.approx(level.target,
                                                        rel=1e-13)
