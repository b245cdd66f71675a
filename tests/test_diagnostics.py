"""Action quadrature, symmetry defect, star-shapedness, and the catalog."""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from ccorb import (
    ChordCatalog,
    EnergyAboveCriticalError,
    IntegrityError,
    RegularizedLevel,
    SystemParams,
    catalog_insert,
    chord_action,
    entry_from_chord,
    first_critical_value,
    starshape_scan,
    symmetry_defect,
)
from ccorb import cli, diagnostics, dynamics
from ccorb.diagnostics import StarshapeReport, _dumps
from ccorb.dynamics import _root_in
from ccorb.integrator import EVENT_TOL
from ccorb.regularization import Chart, fiber_image

ENTRY_FIELDS = [
    "mu", "jacobi", "branch", "side", "pericenter_index", "s0", "tau_reeb",
    "action", "flight_time", "r_peri", "endpoint_start_b", "endpoint_end_b",
    "periodic_candidate", "integrator_tolerances",
    "artifact_version",
]


# ----------------------------------------------------------------- action


def test_action_equals_the_reeb_clock(oracle_chord):
    """The Liouville integral along the chord reproduces tau to quadrature
    accuracy (the contact-form identity, checked far below the 1e-6 gate)."""
    action = chord_action(oracle_chord)
    assert action == pytest.approx(oracle_chord.tau_reeb, abs=1e-9)
    assert action == pytest.approx(math.pi, abs=1e-8)


def test_action_is_stable_under_resampling(oracle_chord):
    coarse = chord_action(oracle_chord, refinement=2)
    fine = chord_action(oracle_chord, refinement=4)
    assert abs(coarse - fine) < 1e-8


def _two_pass_sums(chord, refinement):
    """Each step's Simpson sums by two independent passes, at nseg and
    2 nseg panels per step, each evaluating all of its own nodes."""
    rhs = chord.samples.rhs
    sigma = chord.t_reg_collision

    def quad(nseg):
        sums = []
        for st in chord.samples.steps:
            t0 = st.t0
            if t0 >= sigma:
                break
            t1 = min(st.t0 + st.h, sigma)
            h = (t1 - t0) / nseg
            acc = st.f0[5]
            for j in range(1, nseg + 1):
                w = 1.0 if j == nseg else (4.0 if j % 2 else 2.0)
                acc += w * rhs(st.chart, st.eval(t0 + j * h))[5]
            sums.append(acc * h / 3.0)
        return sums

    nseg = 2 * 2 ** refinement
    return quad(nseg), quad(2 * nseg)


def _two_pass_action(chord, refinement):
    """The action from the two passes' step sums, added in step order."""
    coarse = fine = 0.0
    for c, f in zip(*_two_pass_sums(chord, refinement)):
        coarse += c
        fine += f
    return 2.0 * (fine + (fine - coarse) / 15.0)


@pytest.mark.parametrize("refinement", [0, 2, 4])
def test_action_shares_nodes_bit_for_bit(oracle_chord, refinement,
                                         monkeypatch):
    """The coarse pass reuses every other fine node, and still gives the
    two-pass value bit for bit: each step's coarse and fine Simpson sums,
    which the action alone cannot show (the coarse sum enters it only
    through (fine - coarse) / 15), and the action itself."""
    simpson, sums = diagnostics._simpson, []

    def recorded(values, h):
        sums.append(simpson(values, h))
        return sums[-1]
    monkeypatch.setattr(diagnostics, "_simpson", recorded)
    action = chord_action(oracle_chord, refinement)
    coarse, fine = _two_pass_sums(oracle_chord, refinement)
    assert len(sums) == 2 * len(coarse)
    assert [x.hex() for x in sums[0::2]] == [x.hex() for x in coarse]
    assert [x.hex() for x in sums[1::2]] == [x.hex() for x in fine]
    assert action.hex() == _two_pass_action(oracle_chord, refinement).hex()


def test_degenerate_chord_action_is_rejected(oracle_chord):
    broken = replace(oracle_chord, t_reg_collision=0.0)
    with pytest.raises(IntegrityError):
        chord_action(broken)


# --------------------------------------------------------------- symmetry


def test_certified_chord_is_pointwise_symmetric(oracle_chord):
    assert symmetry_defect(oracle_chord) < 1e-7


# --------------------------------------------------------- star-shapedness


def test_fiberwise_starshape_certificate_kepler():
    params = SystemParams(mu=0.0)
    report = starshape_scan(params, RegularizedLevel(params=params, f=2.0),
                            base_grid=12, ray_grid=16)
    assert report.ok
    assert report.violations == []
    assert report.min_margin > 0.3
    assert report.rays_checked == 2 * 12 * 16  # both charts
    assert report.mu == 0.0 and report.jacobi == -2.0


def test_starshape_margin_survives_grid_refinement():
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) - 0.1
    level = RegularizedLevel(params=params, f=-c)
    coarse = starshape_scan(params, level, base_grid=8, ray_grid=12)
    fine = starshape_scan(params, level, base_grid=16, ray_grid=24)
    assert coarse.ok and fine.ok
    assert coarse.min_margin > 0.0 and fine.min_margin > 0.0
    # The margin is a continuous field; refinement only sharpens the
    # minimum, it cannot jump to a different magnitude.
    assert fine.min_margin == pytest.approx(coarse.min_margin, rel=0.5)


def test_starshape_heavy_secondary_still_certifies():
    params = SystemParams(mu=0.5)
    c = first_critical_value(params) - 0.1
    report = starshape_scan(params, RegularizedLevel(params=params, f=-c),
                            base_grid=12, ray_grid=16)
    assert report.ok
    assert 0.0 < report.min_margin < 0.5


def test_starshape_refuses_supercritical_energy():
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) + 0.05
    with pytest.raises(EnergyAboveCriticalError):
        starshape_scan(params, RegularizedLevel(params=params, f=-c),
                       base_grid=4, ray_grid=4)



def _per_ray_zvc_radius(wh1, wh2, mu, f):
    """The zero-velocity search one direction at a time, as it stood
    before ``_zvc_radius_along`` took blocks: the reference that the
    blocked search must match bit for bit."""
    def u(r, sqrt=math.sqrt):
        de = sqrt(r * r - 2.0 * r * wh1 + 1.0)
        return (-0.5 * (r * r - 2.0 * r * mu * wh1 + mu * mu)
                - (1.0 - mu) / r - mu / de + f)

    rd = diagnostics._ZVC_GRID
    with np.errstate(divide="ignore", invalid="ignore"):
        sign = u(rd, np.sqrt) > 0.0
    idx = np.flatnonzero(sign[1:] != sign[:-1])
    if idx.size == 0:
        return math.nan
    i = int(idx[0])
    return _root_in(u, float(rd[i]), float(rd[i + 1]), width=1e-12)


def _per_ray_check(report, chart, a0, v, c1, mu, f, target, north_cap):
    """The certificate of one fiber ray, as it stood before the rays went
    in blocks: the reference for ``_check_rays``."""
    a1, a2 = a0
    v1, v2 = v
    alpha = a1 * a1 + a2 * a2
    if chart is Chart.NORTH:
        rho = 1.0
        w1, w2 = v1, v2
    else:
        rho = alpha
        w1, w2 = fiber_image(a1, a2, v1, v2)
    c2 = rho * (a1 * v2 - a2 * v1)

    if rho < 1e-9:
        t_cap = 6.0
    else:
        rd = (north_cap if chart is Chart.NORTH
              else _per_ray_zvc_radius(w1 / rho, w2 / rho, mu, f))
        if math.isnan(rd):
            report.notes.append(
                f"no zero-velocity cap on chart {chart.value} ray; "
                "capping at |q| = 2")
            rd = 2.0
        t_cap = (rd / rho) * (1.0 + 1e-6)

    def g(t, sqrt=math.sqrt):
        if mu == 0.0:
            return c1 * t + c2 * t * t
        d = sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
        return c1 * t + c2 * t * t - mu * rho * t / d

    def gp(t, sqrt=math.sqrt):
        if mu == 0.0:
            return c1 + 2.0 * c2 * t
        d = sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
        return c1 + 2.0 * c2 * t - mu * rho * (1.0 - t * w1) / d ** 3

    t_grid = np.linspace(0.0, t_cap, diagnostics.RAY_SAMPLES + 1)
    g_grid = g(t_grid, np.sqrt)
    below = g_grid < target
    if not below[0]:
        raise IntegrityError("ray starts on or above the level at t = 0")
    change = np.flatnonzero(below[1:] != below[:-1])
    crossings = int(change.size)
    angle = math.atan2(v2, v1)

    if g_grid[-1] < target:
        report.record(chart, a0, angle, g(t_cap) - target, crossings)
        return

    margin = math.inf
    if crossings >= 1:
        i = int(change[0])
        t_star = _root_in(lambda t: g(t) - target,
                          float(t_grid[i]), float(t_grid[i + 1]),
                          width=1e-12 * max(1.0, t_cap))
        margin = t_star * target * gp(t_star)

    if crossings == 1 and mu > 0.0 and rho >= 1e-9:
        sign_p = gp(t_grid, np.sqrt) > 0.0
        flips = np.flatnonzero(sign_p[1:] != sign_p[:-1])
        for j in map(int, flips):
            t_c = _root_in(gp, float(t_grid[j]), float(t_grid[j + 1]),
                           width=1e-10 * max(1.0, t_cap))
            if t_c > t_star and g(t_c) < target:
                crossings = 3
                break

    report.record(chart, a0, angle, margin, crossings)


def _per_ray_scan(params, level, base_grid, ray_grid):
    """``starshape_scan`` one ray at a time, on the references above."""
    mu, f = params.mu, level.f
    report = StarshapeReport(mu=mu, jacobi=level.c, base_grid=base_grid,
                             ray_grid=ray_grid)
    angles = [2.0 * math.pi * i / ray_grid for i in range(ray_grid)]
    rays = [(math.cos(t), math.sin(t)) for t in angles]
    north_caps = [_per_ray_zvc_radius(v1, v2, mu, f) for v1, v2 in rays]
    for chart in (Chart.NORTH, Chart.SOUTH):
        for a0 in diagnostics._base_disk(base_grid,
                                         diagnostics.STAR_CHART_RADIUS):
            alpha = a0[0] * a0[0] + a0[1] * a0[1]
            rho = 1.0 if chart is Chart.NORTH else alpha
            c1 = 0.5 * (1.0 + alpha) + mu * a0[1] + (f - 0.5) * rho
            for v, cap in zip(rays, north_caps):
                _per_ray_check(report, chart, a0, v, c1, mu, f, 1.0 - mu,
                               cap)
    return report


@pytest.mark.parametrize("mu, f, ray_grid", [
    pytest.param(mu, f, n, id=name if n == 20 else f"{name}-{n}rays")
    for n in (20, 2 * diagnostics.RAY_BLOCK + 4)
    for name, (mu, f) in {"mu0.1": (0.1, None), "mu0.5": (0.5, None),
                          "mu0.01": (0.01, None), "kepler": (0.0, 2.0)}.items()])
def test_blocked_starshape_scan_matches_the_per_ray_one(mu, f, ray_grid):
    """Rays in blocks give the report of the ray-by-ray scan, bit for bit:
    20 rays a base point make one partial block, and 2 RAY_BLOCK + 4 rays
    two full blocks and a partial one."""
    params = SystemParams(mu=mu)
    if f is None:
        f = 0.1 - first_critical_value(params)
    level = RegularizedLevel(params=params, f=f)
    got = starshape_scan(params, level, base_grid=6, ray_grid=ray_grid)
    want = _per_ray_scan(params, level, base_grid=6, ray_grid=ray_grid)
    assert want.rays_checked == 12 * ray_grid and want.ok
    assert repr(asdict(got)) == repr(asdict(want))


def _spy_dip_solves(monkeypatch):
    """The brackets of the dip guard's scalar G' solves, as they are made."""
    solves, root_in = [], diagnostics._root_in

    def spied(fn, lo, hi, **kwargs):
        solves.append((lo, hi))
        return root_in(fn, lo, hi, **kwargs)
    monkeypatch.setattr(diagnostics, "_root_in", spied)
    return solves


def test_blocked_starshape_scan_matches_the_per_ray_one_near_critical(
        monkeypatch):
    """0.001 below the first critical value at mu = 0.1, G' of one ray
    turns in cell 253, past the ray's crossing in cell 173, so the dip
    guard solves for it; the blocked scan, which reads G' only from each
    block's first crossing cell on, still gives the ray-by-ray report,
    bit for bit."""
    params = SystemParams(mu=0.1)
    level = RegularizedLevel(params=params,
                             f=0.001 - first_critical_value(params))
    solves = _spy_dip_solves(monkeypatch)
    got = starshape_scan(params, level, base_grid=8, ray_grid=12)
    want = _per_ray_scan(params, level, base_grid=8, ray_grid=12)
    assert solves  # the case reaches the dip solves
    assert want.rays_checked == 192 and want.ok
    assert repr(asdict(got)) == repr(asdict(want))


def _toy(on_ray_0, on_ray_1):
    """A toy G or G' for two North-chart rays, one text for floats and numpy
    arrays: ``on_ray_0`` along v = (1, 0), where w1 = 1, and ``on_ray_1``
    along v = (0, 1), where w1 = 0."""
    return lambda t, c1, c2, rho, w1, mu, sqrt=None: (
        w1 * on_ray_0(t) + (1.0 - w1) * on_ray_1(t))


def test_the_dip_guard_reads_g_prime_from_the_first_crossing_on(
        monkeypatch):
    """G and G' replaced by toys along two rays of one block, in + - * only
    so that the grid and the floats agree.  On ray 0, G - target =
    (t - 1)((t - 2.0068)^2 - 4e-6) crosses at t = 1 and dips back below
    the level in (2.0048, 2.0088), inside the grid cell (t[205], t[206])
    for a cap of 2.5; its G' turns at 1.3356 and in the dip.  On ray 1,
    G - target = (t - 0.3)^2 - 3.61 crosses at 2.2, past that dip, and its
    G' turns only at 0.3.  Ray 0 re-enters: 3 crossings, a violation.  Ray 1
    passes, and its turn, before the block's first crossing, makes no
    scalar G' solve."""
    mu = 0.5
    g = _toy(lambda t: (t - 1.0) * ((t - 2.0068) * (t - 2.0068) - 4e-6),
             lambda t: (t - 0.3) * (t - 0.3) - 3.61)
    gp = _toy(lambda t: ((t - 2.0068) * (t - 2.0068) - 4e-6
                         + 2.0 * (t - 1.0) * (t - 2.0068)),
              lambda t: 2.0 * (t - 0.3))
    monkeypatch.setattr(diagnostics, "ray_g",
                        lambda *args: 1.0 - mu + g(*args))
    monkeypatch.setattr(diagnostics, "ray_gp", gp)
    solves = _spy_dip_solves(monkeypatch)
    report = StarshapeReport(mu=mu, jacobi=0.0, base_grid=1, ray_grid=2)
    diagnostics._check_rays(report, Chart.NORTH, [(0.0, 0.0)],
                            np.array([[1.0, 0.0], [0.0, 1.0]]),
                            np.array([2.5, 2.5]), mu, 0.0)
    assert report.rays_checked == 2
    assert [(v["angle"], v["crossings"], v["margin"] > 0.0)
            for v in report.violations] == [(0.0, 3, True)]
    assert len(solves) == 2 and all(lo > 1.0 for lo, _ in solves)


def test_zvc_polyline_matches_the_per_angle_search():
    mu = 0.1
    f = 0.1 - first_critical_value(SystemParams(mu=mu))
    want = []
    for i in range(cli.SVG_ZVC_ANGLES + 1):
        th = 2.0 * math.pi * i / cli.SVG_ZVC_ANGLES
        r = _per_ray_zvc_radius(math.cos(th), math.sin(th), mu, f)
        if not math.isnan(r):
            want.append((r * math.cos(th), r * math.sin(th)))
    assert len(want) == cli.SVG_ZVC_ANGLES + 1
    assert cli._zvc_polyline(mu, f) == want


@pytest.mark.parametrize("mu, f", [
    (0.0, 1.4),  # below the Kepler threshold: no row crosses
    (0.0, 2.14),
    (0.1, 1.6),  # 6 rows with no crossing; crossings out to cell 510
    (0.1, 2.05),  # first crossings in cells 250-261, across a chunk edge
    (0.5, 1.6),  # 55 rows with no crossing
    (0.5, 2.1),
])
def test_zvc_search_matches_the_per_direction_one(mu, f):
    """The chunked search gives each direction the radius of the search
    that evaluates all ``ZVC_SAMPLES`` radii, by ``float.hex``, and NaN
    where that finds no sign change: 201 directions with w1 from -1 to 1."""
    wh1 = np.linspace(-1.0, 1.0, 201)
    want = [_per_ray_zvc_radius(w, 0.0, mu, f) for w in wh1]
    got = diagnostics._zvc_radius_along(wh1, mu, f).tolist()
    assert [r.hex() for r in got] == [r.hex() for r in want]


def test_the_zvc_cases_cover_no_crossings_and_a_chunk_edge():
    """Of the levels above, one has rows with and rows without a sign
    change, and one has first crossings in the last cell of a chunk and
    in the first cell of the next (chunks share their edge radius)."""
    edge = diagnostics.RAY_SAMPLES - 1  # first cell of the second chunk
    wh1 = np.linspace(-1.0, 1.0, 201)
    radii = [_per_ray_zvc_radius(w, 0.0, 0.1, 1.6) for w in wh1]
    assert 0 < sum(map(math.isnan, radii)) < len(radii)
    cells = {int(np.searchsorted(diagnostics._ZVC_GRID, r)) - 1
             for r in (_per_ray_zvc_radius(w, 0.0, 0.1, 2.05) for w in wh1)}
    assert {edge - 1, edge} <= cells


def test_the_root_solves_call_g_and_u_only_at_their_probes(monkeypatch):
    """On a mu = 0.1 4x12 scan the cap and t* solves take their end values
    from the grids: every call of u or G they make is an ITP probe of the
    column solver, and none is at a grid point."""
    solves, probes = [], []
    roots_in, solve_brackets = dynamics._roots_in, dynamics.solve_brackets

    def spied_roots_in(fn, lo, flo, hi, fhi, width):
        lanes = [{"ends": ends, "calls": []}
                 for ends in zip(lo.tolist(), hi.tolist())]
        solves.extend(lanes)

        def counted(x, ks):
            for xi, k in zip(x.tolist(), ks.tolist()):
                lanes[k]["calls"].append(xi)
            return fn(x, ks)
        return roots_in(counted, lo, flo, hi, fhi, width)

    def spied_solve_brackets(fn, *args):
        def probe(x, ks):
            probes.extend(x.tolist())
            return fn(x, ks)
        return solve_brackets(probe, *args)

    def scalar_root_in(*args, **kwargs):
        raise AssertionError("a scalar root solve")

    params = SystemParams(mu=0.1)
    critical = first_critical_value(params)
    c = critical - 0.1
    # the scan's own Lagrange-point solves are not the certificate's
    monkeypatch.setattr(diagnostics, "first_critical_value",
                        lambda params: critical)
    monkeypatch.setattr(dynamics, "_roots_in", spied_roots_in)
    monkeypatch.setattr(diagnostics, "_roots_in", spied_roots_in)
    monkeypatch.setattr(dynamics, "solve_brackets", spied_solve_brackets)
    monkeypatch.setattr(diagnostics, "_root_in", scalar_root_in)
    report = starshape_scan(params, RegularizedLevel(params=params, f=-c),
                            base_grid=4, ray_grid=12)
    assert report.rays_checked == 96 and report.ok
    # 12 North caps, 12 South caps at each base point off the collision
    # fiber, one t* per ray; G' has no sign change to solve at this level
    assert len(solves) == 12 + 3 * 12 + 96
    calls = [x for solve in solves for x in solve["calls"]]
    assert sorted(calls) == sorted(probes) and calls
    assert not [x for solve in solves for x in solve["calls"]
                if x in solve["ends"]]


def test_a_capless_chart_is_noted_once(monkeypatch):
    """With the cap search stubbed to find no zero-velocity radius, every
    capped ray of a chart writes the same note, kept once per chart."""
    monkeypatch.setattr(diagnostics, "_zvc_radius_along",
                        lambda wh1, *rest: np.full(np.shape(wh1), math.nan))
    params = SystemParams(mu=0.1)
    c = first_critical_value(params) - 0.1
    report = starshape_scan(params, RegularizedLevel(params=params, f=-c),
                            base_grid=4, ray_grid=12)
    assert report.notes == [
        f"no zero-velocity cap on chart {chart.value} ray; capping at |q| = 2"
        for chart in (Chart.NORTH, Chart.SOUTH)]


# ---------------------------------------------------------------- catalog


def _fresh_catalog() -> ChordCatalog:
    return ChordCatalog(run_config={"command": "test", "mu": 0.0,
                                    "jacobi": -2.0}, entries=[])


def test_entry_schema_and_field_order(oracle_chord, tight_settings):
    entry = entry_from_chord(oracle_chord)
    assert list(entry) == ENTRY_FIELDS
    assert entry["mu"] == 0.0
    assert entry["jacobi"] == -2.0
    assert entry["branch"] == "minus"
    assert entry["side"] == "pos"
    assert entry["pericenter_index"] == 1
    assert entry["periodic_candidate"] is False
    assert entry["integrator_tolerances"] == {
        "rel_tol": tight_settings.rel_tol,
        "abs_tol": tight_settings.abs_tol,
        "event_tol": 1e-12,
    }


def test_a_row_records_the_tolerances_of_the_chords_own_run(oracle_chord):
    """The oracle chord was refined at tight_settings, and its catalog row
    says so, without being told."""
    catalog = _fresh_catalog()
    assert catalog_insert(catalog, oracle_chord)
    assert catalog.entries[0]["integrator_tolerances"] == {
        "rel_tol": 1e-10, "abs_tol": 1e-12, "event_tol": EVENT_TOL}


@pytest.mark.parametrize("call", [
    lambda chord, settings: catalog_insert(_fresh_catalog(), chord, settings),
    lambda chord, settings: entry_from_chord(chord, settings),
    lambda chord, settings: symmetry_defect(chord, settings),
], ids=["catalog_insert", "entry_from_chord", "symmetry_defect"])
def test_the_tolerances_are_not_passed_beside_a_chord(call, oracle_chord,
                                                      tight_settings):
    with pytest.raises(TypeError):
        call(oracle_chord, tight_settings)


def test_insert_verifies_and_deduplicates(oracle_chord):
    catalog = _fresh_catalog()
    assert catalog_insert(catalog, oracle_chord)
    assert len(catalog.entries) == 1
    # The same certified chord again: a duplicate, silently skipped.
    assert not catalog_insert(catalog, oracle_chord)
    assert len(catalog.entries) == 1


def test_nearby_but_distinct_chords_both_survive(oracle_chord):
    catalog = _fresh_catalog()
    catalog_insert(catalog, oracle_chord)
    shifted = replace(oracle_chord,
                      tau_reeb=oracle_chord.tau_reeb + 1e-5,
                      action=oracle_chord.action + 1e-5)
    assert catalog_insert(catalog, shifted)
    taus = [e["tau_reeb"] for e in catalog.entries]
    assert taus == sorted(taus)
    assert len(catalog.entries) == 2


@pytest.mark.parametrize("patch", [
    {"r_peri": 1e-6},
    {"tau_reeb": -1.0},
    {"endpoint_start_b": (1.0, 1.0)},
])
def test_insert_rejects_broken_chords(patch, oracle_chord):
    broken = replace(oracle_chord, **patch)
    with pytest.raises(IntegrityError):
        catalog_insert(_fresh_catalog(), broken)


@pytest.mark.parametrize("name, value", [
    ("action", math.nan),
    ("endpoint_start_b", (math.nan, math.nan)),
    ("endpoint_end_b", (math.nan, math.nan)),
], ids=["action", "start", "end"])
def test_insert_rejects_a_nan_invariant(name, value, oracle_chord):
    """A NaN fails the action, mirror and Legendrian-radius checks, rather
    than being certified and then refused when the catalog is saved."""
    broken = replace(oracle_chord, **{name: value})
    with pytest.raises(IntegrityError):
        catalog_insert(_fresh_catalog(), broken)


def test_chained_endpoints_flag_periodicity(oracle_chord):
    """end of one chord == start of the next => possible closed orbit."""
    catalog = _fresh_catalog()
    catalog_insert(catalog, oracle_chord)
    successor = replace(oracle_chord,
                        endpoint_start_b=oracle_chord.endpoint_end_b,
                        endpoint_end_b=oracle_chord.endpoint_start_b,
                        tau_reeb=oracle_chord.tau_reeb + 1e-3,
                        action=oracle_chord.action + 1e-3)
    catalog_insert(catalog, successor)
    assert all(e["periodic_candidate"] for e in catalog.entries)


def test_solo_symmetric_chord_is_not_flagged_periodic(oracle_chord):
    catalog = _fresh_catalog()
    catalog_insert(catalog, oracle_chord)
    assert not catalog.entries[0]["periodic_candidate"]


def test_chord_closing_on_itself_is_flagged_periodic(oracle_chord):
    """A chord whose end fiber is its own start fiber closes up alone."""
    closing = replace(oracle_chord, endpoint_start_b=(2.0, 0.0),
                      endpoint_end_b=(2.0, 0.0))
    catalog = _fresh_catalog()
    assert catalog_insert(catalog, closing)
    assert catalog.entries[0]["periodic_candidate"] is True


def test_catalog_round_trip_is_lossless(tmp_path, oracle_chord):
    catalog = _fresh_catalog()
    catalog_insert(catalog, oracle_chord)
    path = tmp_path / "catalog.jsonl"
    catalog.save(path)
    text = path.read_text()
    again = ChordCatalog.load(path)
    assert again.entries == catalog.entries
    assert again.run_config == catalog.run_config
    path2 = tmp_path / "catalog2.jsonl"
    again.save(path2)
    assert path2.read_text() == text  # byte-identical re-serialization
    # One header line plus one entry line.
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == 2
    assert "run_config" in lines[0]


def test_a_catalog_that_cannot_be_saved_leaves_the_old_file(tmp_path,
                                                           oracle_chord):
    catalog = _fresh_catalog()
    catalog_insert(catalog, oracle_chord)
    path = tmp_path / "catalog.jsonl"
    catalog.save(path)
    before = path.read_bytes()
    catalog.entries.insert(0, {**catalog.entries[0], "tau_reeb": math.nan})
    with pytest.raises(IntegrityError):
        catalog.save(path)
    assert path.read_bytes() == before


def test_catalog_load_requires_a_header(tmp_path):
    bad = tmp_path / "noheader.jsonl"
    bad.write_text('{"tau_reeb": 3.0}\n')
    with pytest.raises(IntegrityError):
        ChordCatalog.load(bad)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(IntegrityError):
        ChordCatalog.load(empty)


@pytest.mark.parametrize("data", [
    b'{"run_config": {}}\n{"tau_reeb": 3.0\n',
    b'[{"run_config": {}}]\n',
    b'{"run_config": {}}\n[1, 2]\n',
    b'{"run_config": []}\n',
    b'{"run_config": {}}\n\xff\xfe\n',
], ids=["row-not-json", "header-a-list", "row-a-list", "config-a-list",
        "row-not-utf8"])
def test_catalog_load_refuses_lines_that_are_not_json_objects(data,
                                                               tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(data)
    with pytest.raises(IntegrityError):
        ChordCatalog.load(bad)


# ------------------------------------------------------------ serialization


def test_float_formatting_round_trips():
    values = [math.pi, -2.0, 0.1, 1e-17, 123456789.123456789, -0.0]
    for v in values:
        assert float(_dumps(v)) == v
        assert math.copysign(1.0, float(_dumps(v))) == math.copysign(1.0, v)
    # Integral floats keep a decimal point so JSON types stay stable.
    assert _dumps(-2.0) == "-2.0"
    assert _dumps(1.0) == "1.0"


def test_json_writer_types_and_rejections():
    text = _dumps({"a": True, "b": 1, "c": -2.0, "d": [0.5, "x"],
                   "e": None, "f": {"g": False}})
    assert '"a": true' in text
    assert '"b": 1' in text
    assert '"c": -2.0' in text
    assert '"e": null' in text
    assert '"g": false' in text
    with pytest.raises(IntegrityError):
        _dumps({"bad": math.nan})
    with pytest.raises(IntegrityError):
        _dumps({"bad": math.inf})
    with pytest.raises(IntegrityError):
        _dumps({"bad": [-math.inf]})


def test_starshape_report_is_ok_until_a_violation():
    """A ray is a violation unless it crosses once with a margin > 0; a
    NaN margin is one, and the report then refuses to become JSON."""
    report = StarshapeReport(mu=0.1, jacobi=-1.9, base_grid=1, ray_grid=3)
    report.record(Chart.NORTH, (0.0, 0.0), 0.0, 0.5, 1)
    assert report.ok and report.violations == []
    report.record(Chart.SOUTH, (0.0, 0.0), 1.0, 0.5, 3)
    assert not report.ok and len(report.violations) == 1
    report.record(Chart.SOUTH, (0.0, 0.0), 2.0, math.nan, 1)
    assert len(report.violations) == 2 and report.min_margin == 0.5
    with pytest.raises(IntegrityError):
        _dumps(asdict(report))
