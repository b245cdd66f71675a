"""Action quadrature, symmetry defect, star-shapedness, and the catalog."""

from __future__ import annotations

import math
from dataclasses import replace

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
from ccorb import diagnostics
from ccorb.diagnostics import StarshapeReport, _dumps
from ccorb.integrator import EVENT_TOL
from ccorb.regularization import Chart

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
    report = StarshapeReport(mu=0.1, jacobi=-1.9, base_grid=1, ray_grid=3)
    report.record(Chart.NORTH, (0.0, 0.0), 0.0, 0.5, 1)
    assert report.ok and report.violations == []
    report.record(Chart.SOUTH, (0.0, 0.0), 1.0, 0.5, 3)
    assert not report.ok and len(report.violations) == 1
