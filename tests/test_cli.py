"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import math

import pytest

from ccorb import first_critical_value, SystemParams
from ccorb.cli import main

ORACLE_SCAN = ["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
               "--s-range", "0.4:0.53", "--grid", "8", "--kmax", "1",
               "--tmax", "10"]


@pytest.fixture(scope="module")
def oracle_catalog(tmp_path_factory):
    """One tiny certified catalog, shared by the read-only CLI tests."""
    path = tmp_path_factory.mktemp("cat") / "catalog.jsonl"
    rc = main(ORACLE_SCAN + ["--out", str(path)])
    assert rc == 0
    return path


# ------------------------------------------------------------------ lagrange


def test_lagrange_plain_listing(capsys):
    assert main(["lagrange", "--mu", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "L1" in out and "L5" in out
    assert "first critical value: -2" in out


def test_lagrange_json_payload(capsys):
    assert main(["lagrange", "--mu", "0.1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"points", "values", "first_critical_value",
                            "degenerate", "run_config"}
    assert payload["first_critical_value"] == pytest.approx(
        first_critical_value(SystemParams(mu=0.1)), abs=1e-14)
    assert payload["run_config"]["command"] == "lagrange"
    assert "artifact_version" in payload["run_config"]


def test_lagrange_rejects_bad_mass(capsys):
    assert main(["lagrange", "--mu", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------- scan


def test_scan_finds_the_oracle_chord(oracle_catalog, capsys):
    lines = [ln for ln in oracle_catalog.read_text().splitlines()
             if ln.strip()]
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header["run_config"]["command"] == "scan"
    assert header["run_config"]["mu"] == 0.0
    entry = json.loads(lines[1])
    assert entry["flight_time"] == pytest.approx(math.pi / 4.0, abs=1e-8)
    assert entry["tau_reeb"] == pytest.approx(math.pi, abs=1e-8)
    assert entry["s0"] == pytest.approx(0.5, abs=1e-8)


def test_scan_output_is_deterministic(tmp_path):
    # Same destination twice, then other destinations at --jobs 1 and
    # --jobs 2: all byte-identical, since the catalog header holds only
    # the fields that change the result (neither the path nor the jobs).
    p = tmp_path / "repeat.jsonl"
    contents = []
    for _ in range(2):
        assert main(ORACLE_SCAN + ["--out", str(p)]) == 0
        contents.append(p.read_bytes())
    for jobs in ("1", "2"):
        q = tmp_path / f"jobs{jobs}.jsonl"
        assert main(ORACLE_SCAN + ["--jobs", jobs, "--out", str(q)]) == 0
        contents.append(q.read_bytes())
    assert all(c == contents[0] for c in contents)


def test_scan_without_chords_exits_three(tmp_path, capsys):
    rc = main(["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
               "--s-range", "0.15:0.3", "--grid", "4", "--kmax", "1",
               "--tmax", "10", "--out", str(tmp_path / "none.jsonl")])
    assert rc == 3
    assert "no chords" in capsys.readouterr().out.lower()


def test_scan_above_critical_requires_force(tmp_path, capsys):
    base = ["scan", "--mu", "0", "--jacobi", "-1.4", "--branch", "minus",
            "--s-range", "0.5:0.9", "--grid", "10", "--kmax", "1",
            "--tmax", "10", "--out", str(tmp_path / "super.jsonl")]
    assert main(base) == 2
    err = capsys.readouterr().err
    assert "critical" in err.lower()

    assert main(base + ["--force"]) == 0
    warned = capsys.readouterr().err
    assert "critical" in warned.lower()  # still warns while proceeding
    entry = json.loads((tmp_path / "super.jsonl").read_text()
                       .splitlines()[1])
    # Radial-orbit family: turning point at -1/c, flight 2 pi (-2c)^(-3/2).
    assert entry["s0"] == pytest.approx(1.0 / 1.4, abs=1e-8)
    assert entry["flight_time"] == pytest.approx(
        2.0 * math.pi * 2.8 ** -1.5, abs=1e-8)


def test_scan_rejects_malformed_range(tmp_path, capsys):
    rc = main(["scan", "--mu", "0", "--jacobi", "-2", "--s-range", "0.53",
               "--grid", "4", "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2


# ----------------------------------------------------------------- integrate


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(ln for ln in fh
                                      if not ln.startswith("#"))]
    return rows[0], rows[1:]


def test_integrate_holds_an_equilibrium(tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["integrate", "--mu", "0", "--state", "1,0,0,1",
               "--tmax", "5", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[:8] == ["t", "chart", "q1", "q2", "p1", "p2", "H", "Kcheck"]
    assert float(rows[-1][0]) == pytest.approx(5.0)
    for row in rows[:: max(1, len(rows) // 20)]:
        assert float(row[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(row[6]) == pytest.approx(-1.5, abs=1e-9)


def test_integrate_near_collision_demands_regularized_flow(tmp_path, capsys):
    rc = main(["integrate", "--mu", "0", "--state", "0.005,0,0,0.1",
               "--tmax", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--regularized" in capsys.readouterr().err


def test_integrate_plunge_is_a_numerical_failure(tmp_path, capsys):
    """A physical-flow orbit that reaches the guard radius mid-run."""
    rc = main(["integrate", "--mu", "0", "--state", "0.1,0,0,0",
               "--tmax", "5", "--out", str(tmp_path / "fall.csv")])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


def test_integrate_ejection_through_the_collision(tmp_path):
    out = tmp_path / "eject.csv"
    rc = main(["integrate", "--mu", "0", "--jacobi", "-2", "--regularized",
               "--eject", "0.5", "--tmax", "2", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    # The launch row is at the collision: no physical coordinates exist.
    assert rows[0][2] == "" and rows[0][6] == ""
    assert float(rows[0][7]) == pytest.approx(0.5, abs=1e-12)  # (1-mu)^2/2
    # Away from the fiber the physical columns fill in, on the level.
    assert rows[-1][2] != ""
    assert float(rows[-1][6]) == pytest.approx(-2.0, abs=1e-9)


def test_integrate_checks_energy_consistency(tmp_path, capsys):
    rc = main(["integrate", "--mu", "0", "--state", "1,0,0,1",
               "--jacobi", "-2", "--tmax", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "jacobi" in capsys.readouterr().err.lower()


def test_integrate_rejects_malformed_state(tmp_path):
    rc = main(["integrate", "--mu", "0", "--state", "1,0,0",
               "--tmax", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


# ----------------------------------------------------------------- starshape


def test_starshape_passes_on_the_kepler_level(capsys):
    rc = main(["starshape", "--mu", "0", "--jacobi", "-2",
               "--base-grid", "8", "--ray-grid", "8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["min_margin"] > 0.0
    assert payload["violations"] == []


def test_starshape_resolves_auto_energy(capsys):
    rc = main(["starshape", "--mu", "0.1", "--jacobi", "auto-0.1",
               "--base-grid", "6", "--ray-grid", "6", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    want = first_critical_value(SystemParams(mu=0.1)) - 0.1
    assert payload["run_config"]["jacobi"] == pytest.approx(want, abs=1e-12)


def test_starshape_above_critical_is_refused(capsys):
    rc = main(["starshape", "--mu", "0.1", "--jacobi", "-1.0",
               "--base-grid", "4", "--ray-grid", "4"])
    assert rc == 2


# ----------------------------------------------------------------- orbit-svg


def test_orbit_svg_renders_deterministically(oracle_catalog, tmp_path):
    out = tmp_path / "chord.svg"
    images = []
    for _ in range(2):
        rc = main(["orbit-svg", "--catalog", str(oracle_catalog),
                   "--index", "0", "--out", str(out)])
        assert rc == 0
        images.append(out.read_bytes())
    assert images[0] == images[1]
    text = images[0].decode()
    assert text.startswith("<?xml")
    assert "<polyline" in text
    assert "run_config" in text
    assert "artifact_version" in text


def test_orbit_svg_index_out_of_range(oracle_catalog, tmp_path, capsys):
    rc = main(["orbit-svg", "--catalog", str(oracle_catalog),
               "--index", "5", "--out", str(tmp_path / "x.svg")])
    assert rc == 2


def test_orbit_svg_missing_catalog(tmp_path):
    rc = main(["orbit-svg", "--catalog", str(tmp_path / "nope.jsonl"),
               "--index", "0", "--out", str(tmp_path / "x.svg")])
    assert rc == 2


def test_orbit_svg_needs_t_max_in_the_header(oracle_catalog, tmp_path,
                                            capsys):
    """The chord is re-shot with the catalog's own horizon, never a guess."""
    svg = tmp_path / "chord.svg"
    assert main(["orbit-svg", "--catalog", str(oracle_catalog),
                 "--index", "0", "--out", str(svg)]) == 0
    assert '"t_max": 10.0' in svg.read_text()

    header, *rows = oracle_catalog.read_text().splitlines()
    head = json.loads(header)
    assert head["run_config"]["t_max"] == 10.0
    del head["run_config"]["t_max"]
    stripped = tmp_path / "no_tmax.jsonl"
    stripped.write_text("\n".join([json.dumps(head)] + rows) + "\n")
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(stripped), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    assert "t_max" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- oberth


def test_oberth_prints_the_energy_gain(capsys):
    assert main(["oberth", "--speed", "3", "--dv", "0.1"]) == 0
    assert "0.305" in capsys.readouterr().out
