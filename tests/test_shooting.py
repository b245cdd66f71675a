"""Axis shots, the graded miss function, bracketing, and chord refinement."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from ccorb import (
    Branch,
    Chart,
    IntegrationSettings,
    MoserChartPoint,
    RegularizedLevel,
    ShotSpec,
    SystemParams,
    TangentialRootError,
    UsageError,
    axis_initial_state,
    first_critical_value,
    hamiltonian,
    hill_component_interval,
    kepler_oracle_return_time,
    legendrian_membership,
    miss_function,
    refine_chord,
    scan_and_bracket,
)
from ccorb.dynamics import EnergyLevel
from ccorb.shooting import axis_discriminant


def _closed_form_p2(s: float, c: float) -> float:
    """Kepler-limit lower-branch momentum on the axis."""
    disc = s * s + 2.0 * (c + 1.0 / abs(s))
    return s - math.sqrt(disc)


# -------------------------------------------------------------- axis shots


def test_oracle_shot_has_zero_transverse_momentum(kepler_params, kepler_level):
    """At mu = 0, c = -2 the radial orbit starts at s = 1/2 with p = 0."""
    spec = ShotSpec(s=0.5, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)
    state = axis_initial_state(spec)
    assert state.q == (0.5, 0.0)
    assert state.p[0] == 0.0
    assert abs(state.p[1]) < 1e-14


def test_branches_share_the_energy_but_split_the_momentum(kepler_params,
                                                          kepler_level):
    s = 0.35
    lo = axis_initial_state(ShotSpec(s=s, branch=Branch.MINUS,
                                     params=kepler_params, level=kepler_level))
    hi = axis_initial_state(ShotSpec(s=s, branch=Branch.PLUS,
                                     params=kepler_params, level=kepler_level))
    assert hi.p[1] > lo.p[1]
    for state in (lo, hi):
        assert state.p[0] == 0.0
        assert hamiltonian(state, kepler_params) == pytest.approx(
            kepler_level.c, abs=1e-12)


@given(frac=st.floats(min_value=0.05, max_value=0.97),
       positive=st.booleans(), plus=st.booleans())
@hsettings(max_examples=60, deadline=None)
def test_axis_states_sit_exactly_on_the_level(frac, positive, plus):
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) - 0.1
    level = RegularizedLevel(params=params, f=-c)
    hill = hill_component_interval(params, EnergyLevel(f=-c))
    s = frac * (hill.s_max if positive else hill.s_min)
    spec = ShotSpec(s=s, branch=Branch.PLUS if plus else Branch.MINUS,
                    params=params, level=level)
    state = axis_initial_state(spec)
    assert state.q[1] == 0.0 and state.p[0] == 0.0
    assert hamiltonian(state, params) == pytest.approx(c, abs=1e-12)
    assert spec.side == ("pos" if positive else "neg")


def test_momentum_degenerates_at_the_hill_boundary(kepler_params,
                                                   kepler_level):
    """Near the zero-velocity point both branches collapse onto s - mu."""
    hill = hill_component_interval(kepler_params, EnergyLevel(f=2.0))
    s = hill.s_max * (1.0 - 1e-10)
    state = axis_initial_state(ShotSpec(s=s, branch=Branch.MINUS,
                                        params=kepler_params,
                                        level=kepler_level))
    assert abs(state.p[1] - s) < 1e-4


def test_shot_outside_the_hill_region_is_forbidden(kepler_params,
                                                   kepler_level):
    with pytest.raises(UsageError):
        axis_initial_state(ShotSpec(s=0.6, branch=Branch.MINUS,
                                    params=kepler_params, level=kepler_level))
    # The momentum discriminant is exactly 2 (c - U) on the axis, so it
    # goes negative precisely outside the Hill interval.
    assert axis_discriminant(0.6, Branch.MINUS, 0.0, -2.0) < 0.0
    assert axis_discriminant(0.5, Branch.MINUS, 0.0, -2.0) > 0.0


def test_shot_from_the_primary_is_rejected(kepler_params, kepler_level):
    with pytest.raises(UsageError):
        axis_initial_state(ShotSpec(s=0.0, branch=Branch.MINUS,
                                    params=kepler_params, level=kepler_level))


# ----------------------------------------------------------- miss function


@pytest.mark.parametrize("s", [0.30, 0.40, 0.45, 0.52])
def test_miss_matches_the_kepler_closed_form(s, kepler_params, kepler_level,
                                             tight_settings):
    """At mu = 0 angular momentum is conserved, so m = -s p2(s) exactly."""
    spec = ShotSpec(s=s, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)
    sample = miss_function(spec, tight_settings)
    assert sample.valid
    assert sample.m == pytest.approx(-s * _closed_form_p2(s, -2.0), abs=1e-9)


def test_event_tol_sets_the_pericenter_time_resolution(kepler_params,
                                                        kepler_level,
                                                        tight_settings):
    """The located pericenter time is resolved to settings.event_tol.

    A tolerance below the float spacing at the event time still ends:
    bisection stops once the bracket is two adjacent floats.
    """
    spec = ShotSpec(s=0.47, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)

    def t_reg(event_tol: float) -> float:
        run = replace(tight_settings, event_tol=event_tol)
        return miss_function(spec, run).t_reg

    reference = t_reg(1e-14)
    coarse, fine = t_reg(1e-3), t_reg(1e-12)
    assert coarse != fine
    assert abs(coarse - reference) <= 1e-3
    assert abs(fine - reference) <= 1e-12
    assert abs(t_reg(1e-300) - reference) <= 1e-14


def test_miss_changes_sign_across_the_root(kepler_params, kepler_level,
                                           tight_settings):
    lo = miss_function(ShotSpec(s=0.40, branch=Branch.MINUS,
                                params=kepler_params, level=kepler_level),
                       tight_settings)
    hi = miss_function(ShotSpec(s=0.52, branch=Branch.MINUS,
                                params=kepler_params, level=kepler_level),
                       tight_settings)
    assert lo.m > 0.0 > hi.m


def test_reflection_pairs_the_pericenter_passages(kepler_params, kepler_level,
                                                  tight_settings):
    """Reversibility: the past pericenter is the mirror of the future one.

    Axis shots are fixed points of the reflection, so the backward half of
    the orbit is the pointwise mirror of the forward half.  The mirror
    acts on chart coordinates as (a1, a2, b1, b2) -> (-a1, a2, b1, -b2)
    and preserves the cross product, so both passages grade the same miss;
    the oriented content of the pairing is the flipped fiber coordinate,
    which is exactly how the chord start endpoint is produced.
    """
    spec = ShotSpec(s=0.45, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)
    sample = miss_function(spec, tight_settings)
    assert sample.valid
    state = axis_initial_state(spec)
    # The generating state is mirror-fixed ...
    assert state.q[1] == 0.0 and state.p[0] == 0.0
    # ... and the mirrored passage carries the identical cross product.
    b1, b2 = sample.b_end
    a1, a2 = 0.0, 0.0  # on the collision fiber at the exact root
    cross = a1 * b2 - a2 * b1
    mirrored_cross = (-a1) * (-b2) - a2 * b1
    assert mirrored_cross == cross
    assert math.hypot(b1, -b2) == pytest.approx(math.hypot(b1, b2),
                                                abs=1e-15)


def test_small_miss_means_small_pericenter_distance(oracle_chord):
    assert oracle_chord.r_peri < 1e-9


# ------------------------------------------------------------- bracketing


def test_oracle_scan_brackets_the_known_root(oracle_bracket):
    assert oracle_bracket.s_lo < 0.5 < oracle_bracket.s_hi
    assert oracle_bracket.kind == "sign_change"
    assert oracle_bracket.m_lo > 0.0 > oracle_bracket.m_hi
    assert oracle_bracket.pericenter_index == 1


def test_same_sign_window_produces_no_brackets(kepler_params, kepler_level,
                                               tight_settings):
    brackets = scan_and_bracket((0.30, 0.45), 2, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert brackets == []


def test_window_outside_the_hill_region_is_empty(kepler_params, kepler_level,
                                                 tight_settings):
    brackets = scan_and_bracket((0.55, 0.60), 3, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert brackets == []


def test_grid_refinement_keeps_every_bracket(kepler_params, kepler_level,
                                             tight_settings):
    """Doubling the grid relocates each sign change inside the old bracket."""
    coarse = scan_and_bracket((0.40, 0.53), 12, Branch.MINUS, kepler_params,
                              kepler_level, tight_settings, k_max=1)
    fine = scan_and_bracket((0.40, 0.53), 24, Branch.MINUS, kepler_params,
                            kepler_level, tight_settings, k_max=1)
    assert coarse and fine
    for b in coarse:
        inside = [f for f in fine
                  if f.pericenter_index == b.pericenter_index
                  and b.s_lo <= f.s_lo and f.s_hi <= b.s_hi]
        assert inside, f"bracket {b.s_lo}:{b.s_hi} lost under refinement"


@pytest.mark.parametrize("bad", [(-0.1, 0.2), (0.5, 0.4), (0.3, 0.3)])
def test_invalid_scan_ranges_are_rejected(bad, kepler_params, kepler_level,
                                          tight_settings):
    with pytest.raises(UsageError):
        scan_and_bracket(bad, 5, Branch.MINUS, kepler_params, kepler_level,
                         tight_settings)


def test_parallel_scan_matches_serial(kepler_params, kepler_level,
                                      tight_settings):
    serial = scan_and_bracket((0.40, 0.53), 9, Branch.MINUS, kepler_params,
                              kepler_level, tight_settings, k_max=2, jobs=1)
    fanned = scan_and_bracket((0.40, 0.53), 9, Branch.MINUS, kepler_params,
                              kepler_level, tight_settings, k_max=2, jobs=3)
    assert serial == fanned


# -------------------------------------------------------------- refinement


def test_refined_chord_reproduces_the_radial_orbit(oracle_chord):
    """All certified quantities of the mu = 0, c = -2 chord at once."""
    assert oracle_chord.spec.s == pytest.approx(0.5, abs=1e-9)
    assert oracle_chord.flight_time == pytest.approx(math.pi / 4.0, abs=1e-8)
    assert oracle_chord.tau_reeb == pytest.approx(math.pi, abs=1e-8)
    assert oracle_chord.r_peri < 1e-9
    assert oracle_chord.symmetric
    assert not oracle_chord.periodic_candidate
    b_end = oracle_chord.endpoint_end_b
    b_start = oracle_chord.endpoint_start_b
    assert math.hypot(*b_end) == pytest.approx(2.0, abs=1e-9)
    assert b_start[0] == pytest.approx(b_end[0], abs=1e-12)
    assert b_start[1] == pytest.approx(-b_end[1], abs=1e-12)
    # The turn sweeps an eighth of a circle before the mirror completes it.
    angle = math.atan2(-b_end[1], -b_end[0])
    assert angle == pytest.approx(-math.pi / 8.0, abs=1e-8)


def test_chord_endpoints_lie_on_the_legendrian(oracle_chord, kepler_level):
    for b in (oracle_chord.endpoint_start_b, oracle_chord.endpoint_end_b):
        pt = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0), b=b)
        assert legendrian_membership(pt, kepler_level, tol=1e-8)


def test_root_is_stable_under_tighter_tolerances(oracle_bracket,
                                                 kepler_params, kepler_level,
                                                 tight_settings):
    tighter = IntegrationSettings(rel_tol=tight_settings.rel_tol / 10.0,
                                  abs_tol=tight_settings.abs_tol / 10.0,
                                  t_max=tight_settings.t_max)
    a = refine_chord(oracle_bracket, Branch.MINUS, kepler_params,
                     kepler_level, tight_settings)
    b = refine_chord(oracle_bracket, Branch.MINUS, kepler_params,
                     kepler_level, tighter)
    assert abs(a.spec.s - b.spec.s) < 1e-8


def test_second_passage_chord_spans_three_half_periods(kepler_params,
                                                       kepler_level,
                                                       tight_settings):
    """The k = 2 root at mu = 0 repeats the radial orbit half again."""
    brackets = scan_and_bracket((0.40, 0.53), 8, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=2)
    second = [b for b in brackets if b.pericenter_index == 2]
    assert second
    chord = refine_chord(second[0], Branch.MINUS, kepler_params, kepler_level,
                         tight_settings)
    assert chord.spec.s == pytest.approx(0.5, abs=1e-9)
    assert chord.tau_reeb == pytest.approx(3.0 * math.pi, abs=1e-8)
    assert chord.flight_time == pytest.approx(0.75 * math.pi, abs=1e-8)


def test_negative_side_family_mirrors_the_positive_one(kepler_params,
                                                       kepler_level,
                                                       tight_settings):
    brackets = scan_and_bracket((-0.53, -0.40), 8, Branch.PLUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert len(brackets) == 1
    chord = refine_chord(brackets[0], Branch.PLUS, kepler_params,
                         kepler_level, tight_settings)
    assert chord.spec.s == pytest.approx(-0.5, abs=1e-9)
    assert chord.spec.side == "neg"
    assert chord.tau_reeb == pytest.approx(math.pi, abs=1e-8)


def test_tangential_brackets_refuse_bisection(oracle_bracket, kepler_params,
                                              kepler_level, tight_settings):
    grazing = replace(oracle_bracket, kind="tangential")
    with pytest.raises(TangentialRootError):
        refine_chord(grazing, Branch.MINUS, kepler_params, kepler_level,
                     tight_settings)


# ----------------------------------------------------------------- oracle


def test_kepler_return_time_closed_form():
    assert kepler_oracle_return_time(-2.0) == pytest.approx(math.pi / 4.0,
                                                            abs=1e-15)
    assert kepler_oracle_return_time(-0.5) == pytest.approx(2.0 * math.pi,
                                                            abs=1e-15)
    assert kepler_oracle_return_time(-3.0) < kepler_oracle_return_time(-2.0)
    with pytest.raises(UsageError):
        kepler_oracle_return_time(0.0)
