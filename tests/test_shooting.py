"""Axis shots, the graded miss function, bracketing, and chord refinement."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import replace
from pathlib import Path

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
from ccorb import integrator, lanes, shooting
from ccorb.cli import _scan_ranges
from ccorb.dynamics import EnergyLevel, solve_bracket
from ccorb.errors import NumericalError
from ccorb.integrator import EventHit, Flow, integrate, prepare_initial
from ccorb.regularization import phase_to_chart
from ccorb.shooting import (
    CERT_MARGIN,
    Bracket,
    GRAZING_TOL,
    GRID_TOL,
    R_NEAR,
    _certain,
    _miss,
    _shoot,
    bracket_grid,
    grid_specs,
    pericenter_hits,
    scan_grids,
    shoot_grid,
)

#: the benchmark's seed-0 chord table
REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
             / "reference.json")


def _reference_level() -> tuple[SystemParams, RegularizedLevel]:
    """The benchmark's level: mu = 0.1, 0.1 below the first critical value."""
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) - 0.1
    return params, RegularizedLevel(params=params, f=-c)


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


def test_shot_from_the_primary_is_rejected(kepler_params, kepler_level):
    with pytest.raises(UsageError):
        axis_initial_state(ShotSpec(s=0.0, branch=Branch.MINUS,
                                    params=kepler_params, level=kepler_level))


@pytest.mark.parametrize("k", [0, -1])
def test_pass_index_below_one_is_rejected(k, kepler_params, kepler_level,
                                          tight_settings):
    spec = ShotSpec(s=0.45, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)
    with pytest.raises(UsageError):
        _shoot(spec, tight_settings, k)
    with pytest.raises(UsageError):
        miss_function(spec, tight_settings, pericenter_index=k)


# ----------------------------------------------------------- miss function


@pytest.mark.parametrize("s", [0.30, 0.40, 0.45, 0.52])
def test_miss_matches_the_kepler_closed_form(s, kepler_params, kepler_level,
                                             tight_settings):
    """At mu = 0 angular momentum is conserved, so m = -s p2(s) exactly."""
    spec = ShotSpec(s=s, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)
    m = miss_function(spec, tight_settings)
    assert math.isfinite(m)
    assert m == pytest.approx(-s * _closed_form_p2(s, -2.0), abs=1e-9)


def test_event_tol_sets_the_pericenter_time_resolution(kepler_params,
                                                        kepler_level,
                                                        tight_settings,
                                                        monkeypatch):
    """The located pericenter time is resolved to integrator.EVENT_TOL.

    A tolerance below the float spacing at the event time still ends:
    bisection stops once the bracket is two adjacent floats.
    """
    spec = ShotSpec(s=0.47, branch=Branch.MINUS, params=kepler_params,
                    level=kepler_level)

    def t_reg(event_tol: float) -> float:
        monkeypatch.setattr(integrator, "EVENT_TOL", event_tol)
        _, hits = _shoot(spec, tight_settings, 1)
        return hits[0].t

    reference = t_reg(1e-14)
    coarse, fine = t_reg(1e-3), t_reg(1e-12)
    assert coarse != fine
    assert abs(coarse - reference) <= 1e-3
    assert abs(fine - reference) <= 1e-12
    assert abs(t_reg(1e-300) - reference) <= 1e-14


def test_shot_locates_its_passes_in_the_step_loop():
    """One detector: a shot's own hits are the sweep of its trajectory,
    and the run ends with the step that holds the k-th pass."""
    params, level = _reference_level()
    chord = next(c for c in json.loads(REFERENCE.read_text())["chords"]
                 if (c["side"], c["branch"], c["k"]) == ("pos", "minus", 3))
    spec = ShotSpec(s=chord["s0"], branch=Branch.MINUS, params=params,
                    level=level)
    traj, hits = _shoot(spec, IntegrationSettings(), 3)
    assert len(hits) >= 3
    assert hits == pericenter_hits(traj)  # t, chart and y, bit for bit
    last = traj.steps[-1]
    assert last.t0 <= hits[2].t <= last.t0 + last.h


def _sampled_passes(traj, samples: int = 16):
    """Near passes found by sampling each step's pericenter rate at
    ``samples`` interior points and solving every sign change between
    neighbouring samples on the dense output."""
    hits = []
    for st in traj.steps:
        def value(t, st=st):
            y = st.eval(t)
            return shooting._pericenter_rate(t, st.chart, y,
                                             traj.rhs(st.chart, y))
        ts = [st.t0 + st.h * j / (samples + 1) for j in range(samples + 2)]
        vs = [value(t) for t in ts]
        for j in range(samples + 1):
            if vs[j] < 0.0 <= vs[j + 1]:
                lo, _, hi, _ = solve_bracket(value, ts[j], vs[j], ts[j + 1],
                                             vs[j + 1], 1e-12)
                t = 0.5 * (lo + hi)
                hits.append(EventHit(t=t, chart=st.chart, y=st.eval(t)))
    return shooting._near_passes(hits)


def test_no_two_passes_merge_within_a_step():
    """On 8 shots of the reference grid, both sides and both branches, a
    shot's passes are those that 16 samples per step find.  The passes
    there come about 3.3 apart in flow time, more than MAX_STEP = 1, so
    no step holds two of them; the midpoint probe that splits two roots
    in one step is pinned by the integrator tests."""
    params, level = _reference_level()
    settings = IntegrationSettings()
    shots = passes = 0
    for lo, hi in _scan_ranges(None, level):
        for branch in Branch:
            for i in (3, 36):
                spec = ShotSpec(s=lo + (hi - lo) * i / 39, branch=branch,
                                params=params, level=level)
                traj, hits = _shoot(spec, settings, 3)
                want = _sampled_passes(traj)
                assert len(hits) == len(want)
                for got, ref in zip(hits, want):
                    assert got.chart is ref.chart
                    assert got.t == pytest.approx(ref.t, abs=1e-9)
                shots += 1
                passes += len(hits)
    assert (shots, passes) == (8, 24)


def _unscreened_roots(st, rhs, event):
    """``step_roots`` without its Hermite screen: the start, the midpoint
    on the dense output and the end bracket the upward roots of every
    step."""
    chart = st.chart

    def value(t):
        y = st.eval(t)
        return event(t, chart, y, rhs(chart, y))
    tm = st.t0 + 0.5 * st.h
    ts = (st.t0, tm, st.t0 + st.h)
    vs = (event(ts[0], chart, st.y0, st.f0), value(tm),
          event(ts[2], chart, st.y1, st.f1))
    hits = []
    for j in range(2):
        if vs[j] < 0.0 <= vs[j + 1]:
            lo, _, hi, _ = solve_bracket(value, ts[j], vs[j], ts[j + 1],
                                         vs[j + 1], integrator.EVENT_TOL)
            t = 0.5 * (lo + hi)
            hits.append(EventHit(t=t, chart=chart, y=st.eval(t)))
    return hits


@pytest.mark.parametrize("tolerances", [GRID_TOL, (1e-11, 1e-13)],
                         ids=["grid", "default"])
def test_the_hermite_screen_keeps_every_pass(tolerances, monkeypatch):
    """On 12 reference-level shots, both sides and both branches, at
    GRID_TOL and at the default tolerances, ``step_roots`` finds at every
    step the passes of the unscreened start, midpoint and end test, bit
    for bit; and the lockstep lanes, whose own screen picks the steps they
    hand over, find every such pass of each shot."""
    params, level = _reference_level()
    settings = IntegrationSettings(rel_tol=tolerances[0],
                                   abs_tol=tolerances[1])
    specs = [ShotSpec(s=lo + (hi - lo) * i / 39, branch=branch,
                      params=params, level=level)
             for lo, hi in _scan_ranges(None, level)
             for branch in Branch for i in (3, 20, 36)]
    monkeypatch.setattr(lanes, "TAIL_WIDTH", 4)
    batch = shooting._shoot_lanes(specs, settings, 3, settings)
    steps = screened = passes = 0
    for spec, (lane_passes, error) in zip(specs, batch):
        traj, _ = _shoot(spec, settings, 3)
        want = []
        for st in traj.steps:
            v0 = shooting._pericenter_rate(st.t0, st.chart, st.y0, st.f0)
            v1 = shooting._pericenter_rate(st.t0 + st.h, st.chart, st.y1,
                                           st.f1)
            ends = v0 < 0.0 <= v1
            hits = _unscreened_roots(st, traj.rhs, shooting._pericenter_rate)
            assert integrator.step_roots(
                st, traj.rhs, shooting._pericenter_rate) == hits
            want += hits
            steps += 1
            screened += not ends
        assert error is None
        assert lane_passes == [
            (h.t, shooting._radius_sq(h.chart, h.y), _miss(h)) for h in want]
        passes += len(want)
    assert len(specs) == 12 and passes >= 36
    assert steps > screened > steps // 2


def test_miss_changes_sign_across_the_root(kepler_params, kepler_level,
                                           tight_settings):
    lo = miss_function(ShotSpec(s=0.40, branch=Branch.MINUS,
                                params=kepler_params, level=kepler_level),
                       tight_settings)
    hi = miss_function(ShotSpec(s=0.52, branch=Branch.MINUS,
                                params=kepler_params, level=kepler_level),
                       tight_settings)
    assert lo > 0.0 > hi


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
    _, hits = _shoot(spec, tight_settings, 1)
    assert len(hits) >= 1
    state = axis_initial_state(spec)
    # The generating state is mirror-fixed ...
    assert state.q[1] == 0.0 and state.p[0] == 0.0
    # ... and the mirrored passage carries the identical cross product.
    b1, b2 = hits[0].y[2:4]
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


def test_bracket_misses_are_the_miss_function(oracle_bracket, kepler_params,
                                              kepler_level, tight_settings):
    """A bracket's end misses are miss_function at its ends, bit for bit,
    on the oracle grid and on a mu = 0.1 grid-8 scan at k = 1..3."""
    params, level = _reference_level()
    hill = hill_component_interval(params, level)
    s_range = (0.02 * hill.s_max, hill.s_max - 0.02 * hill.s_max)
    scans = [
        ([oracle_bracket], kepler_params, kepler_level, tight_settings),
        (scan_and_bracket(s_range, 8, Branch.MINUS, params, level,
                          IntegrationSettings(), k_max=3),
         params, level, IntegrationSettings()),
    ]
    for brackets, p, lvl, run in scans:
        assert brackets
        for b in brackets:
            for s, m in ((b.s_lo, b.m_lo), (b.s_hi, b.m_hi)):
                spec = ShotSpec(s=s, branch=b.branch, params=p, level=lvl)
                assert (miss_function(spec, run, b.pericenter_index).hex()
                        == m.hex())


def test_same_sign_window_produces_no_brackets(kepler_params, kepler_level,
                                               tight_settings):
    brackets = scan_and_bracket((0.30, 0.45), 2, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert brackets == []


def test_an_isolated_grazing_miss_is_a_tangential_bracket(kepler_level):
    """A grid point with |m| < GRAZING_TOL and no sign change beside it is
    one tangential bracket; inside a sign-change cell it adds none."""
    specs = grid_specs((0.1, 0.5), 5, Branch.PLUS, kepler_level)
    s = [spec.s for spec in specs]
    graze = 0.5 * GRAZING_TOL
    lone = bracket_grid(specs, [[1.0], [0.5], [graze], [0.5], [1.0]], 1)
    assert lone == [Bracket(s_lo=s[2], s_hi=s[2], m_lo=graze, m_hi=graze,
                            pericenter_index=1, branch=Branch.PLUS,
                            kind="tangential")]
    inside = bracket_grid(specs, [[1.0], [0.5], [graze], [-0.5], [-1.0]], 1)
    assert inside == [Bracket(s_lo=s[2], s_hi=s[3], m_lo=graze, m_hi=-0.5,
                              pericenter_index=1, branch=Branch.PLUS)]


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


def _reference_grids(n: int):
    """Every (side, branch) grid of the reference scan at n points."""
    params, level = _reference_level()
    return [(("pos" if lo > 0 else "neg", branch),
             grid_specs((lo, hi), n, branch, level))
            for lo, hi in _scan_ranges(None, level)
            for branch in Branch]


def _full_brackets(grids, settings, k_max):
    """Each grid's brackets from one batch of shots at ``settings``."""
    misses = iter(shoot_grid([s for specs in grids for s in specs], settings,
                             k_max))
    return [bracket_grid(specs, [next(misses) for _ in specs], k_max)
            for specs in grids]


@functools.lru_cache(maxsize=None)
def _reference_brackets(n: int):
    """((side, branch), brackets) of every reference grid at n points, all
    shot at the default settings."""
    grids = _reference_grids(n)
    return list(zip([key for key, _ in grids],
                    _full_brackets([specs for _, specs in grids],
                                   IntegrationSettings(), 3)))


def test_reference_level_brackets_survive_grid_doubling():
    """Completeness over the whole reference level: grids N = 8 and
    2N = 16, both sides and both branches at k = 1..3, each shot as one
    batch, find the same 6 sign changes, each fine bracket inside the
    coarse one of its side, branch and k (grids 12 and 40 find the same
    6)."""
    def sign_changes(n):
        return {(key, b.pericenter_index, b.s_lo, b.s_hi)
                for key, brackets in _reference_brackets(n)
                for b in brackets if b.kind == "sign_change"}
    coarse, fine = sign_changes(8), sign_changes(16)
    assert len(coarse) == len(fine) == 6
    for key, k, lo, hi in fine:
        assert any(c[:2] == (key, k) and c[2] <= lo and hi <= c[3]
                   for c in coarse), (
            f"bracket {key} k={k} {lo}:{hi} outside every grid-8 bracket")


def _fields(brackets):
    return [(b.s_lo, b.s_hi, b.m_lo.hex(), b.m_hi.hex(), b.pericenter_index,
             b.branch, b.kind) for b in brackets]


def _scan_case(n):
    """(grids, settings, k_max, the brackets of a grid shot wholly at the
    run's settings) on the reference level at n points, or on the 8-point
    mu = 0 oracle grid."""
    if n == "oracle":
        kepler = SystemParams(mu=0.0)
        level = RegularizedLevel(params=kepler, f=2.0)
        grids = [grid_specs((0.40, 0.53), 8, Branch.MINUS, level)]
        settings = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12,
                                       t_max=10.0)
        return grids, settings, 2, _full_brackets(grids, settings, 2)
    return ([specs for _, specs in _reference_grids(n)],
            IntegrationSettings(), 3,
            [brackets for _, brackets in _reference_brackets(n)])


def _traced_scan(grids, settings, k_max, monkeypatch):
    """scan_grids's brackets, the lanes the sign certificate rejects, and
    the (spec, k) of every shot that shoot_grid takes, in order."""
    verdicts, shots = [], []
    certain, full_grid = shooting._certain, shooting.shoot_grid

    def judged(*args):
        verdicts.append(certain(*args))
        return verdicts[-1]

    def counted(specs, run, k):
        shots.extend((spec, k) for spec in specs)
        return full_grid(specs, run, k)
    monkeypatch.setattr(shooting, "_certain", judged)
    monkeypatch.setattr(shooting, "shoot_grid", counted)
    found = scan_grids(grids, settings, k_max)
    specs = [spec for grid in grids for spec in grid]
    assert len(verdicts) == len(specs)
    return found, [s for s, ok in zip(specs, verdicts) if not ok], shots


@pytest.mark.parametrize("n", [8, 16, 40, "oracle"])
def test_certified_brackets_are_the_full_tolerance_brackets(n, monkeypatch):
    """Signs from the loose grid, certified, give every field of the
    brackets of a grid shot at the run's settings, the end misses bit for
    bit: on the reference level (both sides and branches, k = 1..3) and
    on the mu = 0 oracle grid.  The lanes the certificate rejects, and
    then each other grid point at a bracket end, are the only shots at
    the run's settings."""
    grids, settings, k_max, want = _scan_case(n)
    assert settings.rel_tol < GRID_TOL[0] and settings.abs_tol < GRID_TOL[1]
    got, rejected, shots = _traced_scan(grids, settings, k_max, monkeypatch)
    assert [_fields(b) for b in got] == [_fields(b) for b in want]
    assert any(b.kind == "sign_change" for brackets in got for b in brackets)
    at = {(spec.s, spec.branch): spec for grid in grids for spec in grid}
    ends = {at[s, b.branch] for brackets in got for b in brackets
            for s in (b.s_lo, b.s_hi)}
    shot = [spec for spec, _ in shots]
    assert shot[:len(rejected)] == rejected
    assert len(shot) == len(set(shot))
    assert set(shot) == set(rejected) | ends


@pytest.mark.parametrize("n", [8, "oracle"])
def test_a_scan_takes_no_scalar_shot(n, monkeypatch):
    """Every grid shot of a scan, the re-shots at the run's settings
    included, runs in a lockstep batch: with the scalar shot gone, the
    brackets are still those of a grid shot wholly at the run's
    settings."""
    grids, settings, k_max, want = _scan_case(n)

    def gone(*args):
        raise AssertionError("a scan took a scalar shot")
    monkeypatch.setattr(shooting, "_shoot", gone)
    got = scan_grids(grids, settings, k_max)
    assert [_fields(b) for b in got] == [_fields(b) for b in want]


@pytest.mark.parametrize("n", [8, 40])
def test_each_grid_point_is_shot_again_once(n, monkeypatch):
    """A grid point is shot at the run's settings at most once: to k_max
    when the certificate rejects its lane, else to the largest k its
    bracket ends need there, and not once per (s, branch, k)."""
    grids, settings, k_max, _ = _scan_case(n)
    found, rejected, shots = _traced_scan(grids, settings, k_max,
                                          monkeypatch)
    ends = {(s, b.branch, b.pericenter_index)
            for brackets in found for b in brackets for s in (b.s_lo, b.s_hi)}
    points = [(spec.s, spec.branch) for spec, _ in shots]
    assert shots and len(points) == len(set(points))
    for spec, k in shots:
        assert k == (k_max if spec in rejected else
                     max(j for s, b, j in ends
                         if (s, b) == (spec.s, spec.branch)))
    assert len(shots) < len([e for e in ends if e[:2] in set(points)])


#: a near pass clear of every edge of the certificate, as (t, r, m)
_CLEAR = (10.0, 0.05, 0.3)
_EDGE = CERT_MARGIN * GRID_TOL[0]


@pytest.mark.parametrize("passes", [
    [(10.0, 0.05, 0.5 * _EDGE)],
    [(10.0, 0.05, -0.5 * _EDGE)],
    [(10.0, 0.05, GRAZING_TOL + 0.9 * _EDGE)],
    [(10.0, 0.05, -GRAZING_TOL - 0.9 * _EDGE)],
    [_CLEAR, (20.0, R_NEAR + 0.5 * _EDGE, 0.3)],
    [_CLEAR, (20.0, R_NEAR - 0.5 * _EDGE, 0.3)],
    [_CLEAR, (50.0 - 0.5 * _EDGE * 50.0, 0.5, 0.3)],
    [_CLEAR, (50.0 + 0.5 * _EDGE * 50.0, 0.5, 0.3)],
], ids=["m-near-0+", "m-near-0-", "m-near-grazing+", "m-near-grazing-",
        "r-above-r-near", "r-below-r-near", "t-before-t-max",
        "t-after-t-max"])
def test_a_pass_at_an_edge_sends_the_lane_back(passes):
    assert not _certain(passes, False, 50.0)


def test_a_failed_lane_goes_back():
    assert not _certain([_CLEAR], True, 50.0)
    assert not _certain([], True, 50.0)


def test_a_miss_near_zero_goes_back_at_any_margin(monkeypatch):
    """Below GRAZING_TOL / 2 the margin parts the windows of m around 0
    and around GRAZING_TOL; a near pass inside the one around 0 still
    sends its lane back, and one between them does not."""
    monkeypatch.setattr(shooting, "CERT_MARGIN", 100.0)
    margin = 100.0 * GRID_TOL[0]
    assert not _certain([(10.0, 0.05, -0.5 * margin)], False, 50.0)
    assert _certain([(10.0, 0.05, 0.5 * GRAZING_TOL)], False, 50.0)


@pytest.mark.parametrize("passes", [
    [], [_CLEAR], [(10.0, 0.05, -0.3), (20.0, 0.5, 0.0)],
    [(10.0, 0.05, 2.0 * _EDGE), (30.0, 0.05, GRAZING_TOL + 2.0 * _EDGE),
     (40.0, R_NEAR + 2.0 * _EDGE, 0.3),
     (50.0 - 2.0 * _EDGE * 50.0, 0.05, -0.3)],
])
def test_passes_clear_of_every_edge_are_certain(passes):
    """Twice the margin from each edge clears a lane; the miss of a pass
    that is not near counts for nothing."""
    assert _certain(passes, False, 50.0)


@pytest.mark.parametrize("bad", [(-0.1, 0.2), (0.5, 0.4), (0.3, 0.3)])
def test_invalid_scan_ranges_are_rejected(bad, kepler_params, kepler_level,
                                          tight_settings):
    with pytest.raises(UsageError):
        scan_and_bracket(bad, 5, Branch.MINUS, kepler_params, kepler_level,
                         tight_settings)


@pytest.mark.parametrize("k_max", [0, -1])
def test_scan_rejects_a_pass_count_below_one(k_max, kepler_params,
                                             kepler_level, tight_settings):
    with pytest.raises(UsageError):
        scan_and_bracket((0.40, 0.53), 5, Branch.MINUS, kepler_params,
                         kepler_level, tight_settings, k_max=k_max)


def test_parallel_scan_matches_serial(kepler_params, kepler_level,
                                      tight_settings):
    serial = scan_and_bracket((0.40, 0.53), 9, Branch.MINUS, kepler_params,
                              kepler_level, tight_settings, k_max=2, jobs=1)
    fanned = scan_and_bracket((0.40, 0.53), 9, Branch.MINUS, kepler_params,
                              kepler_level, tight_settings, k_max=2, jobs=3)
    assert serial == fanned


# ------------------------------------------------------- lockstep batch


def _scalar_misses(specs, settings, k_max):
    """Each spec's misses by its own scalar shot; [] when it cannot start
    or meets a singular point."""
    out = []
    for spec in specs:
        try:
            _, hits = _shoot(spec, settings, k_max)
        except UsageError:
            out.append([])
            continue
        out.append([_miss(hit).hex() for hit in hits[:k_max]])
    return out


def _batch_cases():
    params, level = _reference_level()
    kepler = SystemParams(mu=0.0)
    kepler_level = RegularizedLevel(params=kepler, f=2.0)
    tight = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-12, t_max=10.0)
    coarse = [s for _, specs in _reference_grids(8) for s in specs]
    return {
        "refine-coarse grids": (coarse, IntegrationSettings(), 3),
        "mu = 0 oracle grid": (
            grid_specs((0.40, 0.53), 8, Branch.MINUS, kepler_level),
            tight, 2),
        # s > 1/2 lies outside the Hill region at mu = 0, c = -2
        "unstartable specs": (
            grid_specs((0.45, 0.62), 6, Branch.MINUS, kepler_level),
            tight, 1),
        "one shot": (coarse[5:6], IntegrationSettings(), 3),
        "across the tail width": (coarse[:lanes.TAIL_WIDTH + 1],
                                  IntegrationSettings(), 3),
        "no room for a step": (coarse[:lanes.TAIL_WIDTH + 1],
                               IntegrationSettings(t_max=1e-16), 1),
    }


@pytest.mark.parametrize("case", sorted(_batch_cases()))
def test_batch_misses_are_the_scalar_shots(case):
    """Every lane of a lockstep batch gives the misses of the scalar shot
    of its spec, bit for bit."""
    specs, settings, k_max = _batch_cases()[case]
    got = [[m.hex() for m in misses]
           for misses in shoot_grid(specs, settings, k_max)]
    assert got == _scalar_misses(specs, settings, k_max)
    if case == "unstartable specs":
        assert [] in got and got.count([]) < len(got)


def test_a_lane_handed_over_mid_way_spends_the_same_step_budget(
        monkeypatch):
    """A lane that the lockstep loop hands to the scalar loop mid-way stops
    at the step where its own scalar run spends the step budget."""
    monkeypatch.setattr(lanes, "TAIL_WIDTH", 2)
    monkeypatch.setattr(lanes, "MAX_STEPS", 60)
    monkeypatch.setattr(integrator, "MAX_STEPS", 60)
    params, level = _reference_level()
    specs = grid_specs((0.1, 0.6), 4, Branch.MINUS, level)[1:3]
    starts = [prepare_initial(Flow.REGULARIZED,
                              phase_to_chart(axis_initial_state(spec)), level)
              for spec in specs]
    ended = []

    def on_step(lane, st):
        ended.append(lane)
        return lane == 0  # lane 1 is left alone in the batch
    errors = lanes.integrate_lanes(starts, level, IntegrationSettings(),
                                   shooting._pericenter_rate, on_step)
    assert errors[0] is None and ended.count(0) == 1 and 1 in ended
    with pytest.raises(NumericalError) as scalar:
        integrate(Flow.REGULARIZED, phase_to_chart(axis_initial_state(
            specs[1])), level, IntegrationSettings())
    assert isinstance(errors[1], NumericalError)
    assert str(errors[1]) == str(scalar.value)
    assert "step budget 60 exhausted" in str(scalar.value)


def test_batch_takes_one_level(kepler_params, kepler_level, tight_settings):
    other = RegularizedLevel(params=kepler_params, f=2.1)
    specs = [ShotSpec(s=0.45, branch=Branch.MINUS, params=kepler_params,
                      level=level) for level in (kepler_level, other)]
    with pytest.raises(UsageError):
        shoot_grid(specs, tight_settings, 1)


# -------------------------------------------------------------- refinement


def test_refined_chord_reproduces_the_radial_orbit(oracle_chord):
    """All certified quantities of the mu = 0, c = -2 chord at once."""
    assert oracle_chord.spec.s == pytest.approx(0.5, abs=1e-9)
    assert oracle_chord.flight_time == pytest.approx(math.pi / 4.0, abs=1e-8)
    assert oracle_chord.tau_reeb == pytest.approx(math.pi, abs=1e-8)
    assert oracle_chord.r_peri < 1e-9
    b_end = oracle_chord.endpoint_end_b
    b_start = oracle_chord.endpoint_start_b
    assert math.hypot(*b_end) == pytest.approx(2.0, abs=1e-9)
    assert b_start[0] == pytest.approx(b_end[0], abs=1e-12)
    assert b_start[1] == pytest.approx(-b_end[1], abs=1e-12)
    # The turn sweeps an eighth of a circle before the mirror completes it.
    angle = math.atan2(-b_end[1], -b_end[0])
    assert angle == pytest.approx(-math.pi / 8.0, abs=1e-8)


def test_conditioning_is_the_slope_of_the_miss(oracle_chord, kepler_params,
                                               kepler_level, tight_settings):
    """|dm/ds| agrees with a central difference of the miss at s* +- 1e-6."""
    s, h = oracle_chord.spec.s, 1e-6
    m_plus, m_minus = (
        miss_function(ShotSpec(s=x, branch=Branch.MINUS, params=kepler_params,
                               level=kepler_level), tight_settings, 1)
        for x in (s + h, s - h))
    slope = abs(m_plus - m_minus) / (2.0 * h)
    assert slope == pytest.approx(4.0, rel=1e-6)
    assert oracle_chord.conditioning == pytest.approx(slope, rel=0.01)


def test_conditioning_is_a_slope_on_the_reference_level():
    """On a mu = 0.1 chord refined from a grid-8 bracket, |dm/ds| agrees
    with a central difference of the miss at s* +- 1e-6, although the
    final bracket is only a few ulps wide."""
    params, level = _reference_level()
    settings = IntegrationSettings()
    hill = hill_component_interval(params, level)
    s_range = (0.02 * hill.s_max, hill.s_max - 0.02 * hill.s_max)
    bracket = next(b for b in scan_and_bracket(s_range, 8, Branch.MINUS,
                                               params, level, settings,
                                               k_max=3)
                   if b.pericenter_index == 3 and b.kind == "sign_change")
    chord = refine_chord(bracket, level, settings)
    s, h = chord.spec.s, 1e-6
    m_plus, m_minus = (
        miss_function(ShotSpec(s=x, branch=Branch.MINUS, params=params,
                               level=level), settings, 3)
        for x in (s + h, s - h))
    slope = abs(m_plus - m_minus) / (2.0 * h)
    assert chord.conditioning == pytest.approx(slope, rel=0.01)


def test_refinement_reuses_its_best_probe(oracle_bracket, kepler_level,
                                          tight_settings, monkeypatch):
    """The certified shot is a probe of the solver, not a re-shot of s*,
    and a grid-8 bracket takes a handful of probes, not bisection's 40."""
    starts = []

    def counted(spec, settings, k):
        starts.append(spec.s)
        return _shoot(spec, settings, k)
    monkeypatch.setattr(shooting, "_shoot", counted)
    chord = refine_chord(oracle_bracket, kepler_level, tight_settings)
    assert starts.count(chord.spec.s) == 1
    assert len(starts) <= 12


def test_chord_endpoints_lie_on_the_legendrian(oracle_chord, kepler_level):
    for b in (oracle_chord.endpoint_start_b, oracle_chord.endpoint_end_b):
        pt = MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0), b=b)
        assert legendrian_membership(pt, kepler_level, tol=1e-8)


def test_root_is_stable_under_tighter_tolerances(oracle_bracket, kepler_level,
                                                 tight_settings):
    tighter = IntegrationSettings(rel_tol=tight_settings.rel_tol / 10.0,
                                  abs_tol=tight_settings.abs_tol / 10.0,
                                  t_max=tight_settings.t_max)
    a = refine_chord(oracle_bracket, kepler_level, tight_settings)
    b = refine_chord(oracle_bracket, kepler_level, tighter)
    assert abs(a.spec.s - b.spec.s) < 1e-8


def test_second_passage_chord_spans_three_half_periods(kepler_params,
                                                       kepler_level,
                                                       tight_settings):
    """The k = 2 root at mu = 0 repeats the radial orbit half again."""
    brackets = scan_and_bracket((0.40, 0.53), 8, Branch.MINUS, kepler_params,
                                kepler_level, tight_settings, k_max=2)
    second = [b for b in brackets if b.pericenter_index == 2]
    assert second
    chord = refine_chord(second[0], kepler_level, tight_settings)
    assert chord.spec.s == pytest.approx(0.5, abs=1e-9)
    assert chord.tau_reeb == pytest.approx(3.0 * math.pi, abs=1e-8)
    assert chord.flight_time == pytest.approx(0.75 * math.pi, abs=1e-8)


def test_negative_side_family_mirrors_the_positive_one(kepler_params,
                                                       kepler_level,
                                                       tight_settings):
    brackets = scan_and_bracket((-0.53, -0.40), 8, Branch.PLUS, kepler_params,
                                kepler_level, tight_settings, k_max=1)
    assert len(brackets) == 1
    chord = refine_chord(brackets[0], kepler_level, tight_settings)
    assert chord.spec.branch is Branch.PLUS
    assert chord.spec.s == pytest.approx(-0.5, abs=1e-9)
    assert chord.spec.side == "neg"
    assert chord.tau_reeb == pytest.approx(math.pi, abs=1e-8)


def test_tangential_brackets_refuse_bisection(oracle_bracket, kepler_level,
                                              tight_settings):
    grazing = replace(oracle_bracket, kind="tangential")
    with pytest.raises(TangentialRootError):
        refine_chord(grazing, kepler_level, tight_settings)


# ----------------------------------------------------------------- oracle


def test_kepler_return_time_closed_form():
    assert kepler_oracle_return_time(-2.0) == pytest.approx(math.pi / 4.0,
                                                            abs=1e-15)
    assert kepler_oracle_return_time(-0.5) == pytest.approx(2.0 * math.pi,
                                                            abs=1e-15)
    assert kepler_oracle_return_time(-3.0) < kepler_oracle_return_time(-2.0)
    with pytest.raises(UsageError):
        kepler_oracle_return_time(0.0)
