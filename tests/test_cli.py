"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccorb import (
    Flow,
    IntegrationSettings,
    MoserChartPoint,
    RegularizedLevel,
    SystemParams,
    collision_point,
    first_critical_value,
    hamiltonian,
    integrate,
    physical_state,
)
from ccorb import cli, shooting
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


@pytest.mark.parametrize("argv, keys", [
    (["lagrange", "--mu", "0.1", "--json"],
     ["points", "values", "first_critical_value", "degenerate",
      "run_config"]),
    (["starshape", "--mu", "0.1", "--jacobi", "auto-0.1", "--base-grid", "4",
      "--ray-grid", "4", "--json"],
     ["ok", "mu", "jacobi", "base_grid", "ray_grid", "rays_checked",
      "min_margin", "worst_chart", "worst_base", "worst_angle", "violations",
      "notes", "run_config"]),
])
def test_report_keys_keep_their_order(argv, keys, capsys):
    assert main(argv) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys


@pytest.mark.parametrize("argv", [
    ["lagrange", "--mu", "0.1", "--json"],
    ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1", "--base-grid", "4",
     "--ray-grid", "4", "--json"],
])
def test_commands_that_integrate_nothing_record_no_tolerances(argv, capsys):
    assert main(argv) == 0
    run_config = json.loads(capsys.readouterr().out)["run_config"]
    assert run_config["command"] == argv[0]
    assert not {"rel_tol", "abs_tol", "t_max"} & set(run_config)


def test_lagrange_rejects_bad_mass(capsys):
    assert main(["lagrange", "--mu", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lagrange_to_a_missing_directory_exits_two(tmp_path, capsys):
    rc = main(["lagrange", "--mu", "0.1",
               "--out", str(tmp_path / "absent" / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("flag, value", [
    ("--tmax", "nan"), ("--tmax", "inf"), ("--rel-tol", "nan"),
    ("--kmax", "0"), ("--kmax", "-1"),
])
def test_scan_rejects_bad_settings_before_shooting(flag, value, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan_grids", _no_work)
    out = tmp_path / "x.jsonl"
    argv = [a for a in ORACLE_SCAN if a not in ("--kmax", "1")]
    rc = main(argv + [flag, value, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s_range", ["0.1:inf", "-inf:-0.1", "nan:0.5"])
def test_scan_rejects_a_non_finite_range_before_shooting(s_range, tmp_path,
                                                        capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan_grids", _no_work)
    out = tmp_path / "x.jsonl"
    rc = main(["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--branch",
               "minus", "--kmax", "1", "--grid", "4",
               f"--s-range={s_range}", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_rejects_a_job_count_below_one(jobs, tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    rc = main(ORACLE_SCAN + ["--jobs", jobs, "--out", str(out)])
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_scan_force_is_refused_above_critical_at_positive_mu(tmp_path,
                                                            capsys):
    """No axis start exists there, so no shot is taken and no file made."""
    out = tmp_path / "x.jsonl"
    rc = main(["scan", "--mu", "0.1", "--jacobi", "auto--0.05", "--force",
               "--s-range", "0.1:0.5", "--grid", "6", "--kmax", "1",
               "--branch", "minus", "--jobs", "1", "--out", str(out)])
    assert rc == 2
    assert "--force applies only at mu = 0" in capsys.readouterr().err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work")


def test_scan_to_a_missing_directory_exits_two_before_shooting(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan_grids", _no_work)
    rc = main(ORACLE_SCAN + ["--out", str(tmp_path / "absent" / "o.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("work, argv", [
    ("integrate", ["integrate", "--mu", "0.0", "--jacobi", "-2.0",
                   "--regularized", "--eject", "0.0"]),
    ("starshape_scan", ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1"]),
])
def test_command_to_a_missing_directory_exits_two_before_its_work(
        work, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, work, _no_work)
    rc = main(argv + ["--out", str(tmp_path / "absent" / "x.out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not exist" in err


def test_orbit_svg_to_a_missing_directory_exits_two_before_reshooting(
        oracle_catalog, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_chord_path_points", _no_work)
    rc = main(["orbit-svg", "--catalog", str(oracle_catalog), "--index", "0",
               "--out", str(tmp_path / "absent" / "x.svg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not exist" in err


@pytest.mark.parametrize("s_range, grid", [("0.8:0.9", "4"),
                                           ("0.3:0.9", "8")])
def test_scan_rejects_a_range_outside_the_hill_interval(
        s_range, grid, tmp_path, capsys, monkeypatch):
    """At mu = 0.1, auto-0.1 the axis interval is (-0.55585, 0.58408)."""
    monkeypatch.setattr(cli, "scan_grids", _no_work)
    out = tmp_path / "x.jsonl"
    rc = main(["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--branch",
               "minus", "--kmax", "1", "--grid", grid,
               f"--s-range={s_range}", "--out", str(out)])
    assert rc == 2
    assert "Hill axis interval" in capsys.readouterr().err
    assert not out.exists()


def test_integrating_commands_record_the_default_settings(tmp_path):
    want = {"rel_tol": IntegrationSettings.rel_tol,
            "abs_tol": IntegrationSettings.abs_tol,
            "t_max": IntegrationSettings.t_max}
    catalog = tmp_path / "none.jsonl"
    assert main(["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
                 "--s-range", "0.15:0.3", "--grid", "4", "--kmax", "1",
                 "--out", str(catalog)]) == 3
    header = json.loads(catalog.read_text().splitlines()[0])["run_config"]
    assert {k: header[k] for k in want} == want

    trajectory = tmp_path / "eq.csv"
    assert main(["integrate", "--mu", "0", "--state", "1,0,0,1",
                 "--out", str(trajectory)]) == 0
    comments = dict(ln[2:].split(": ", 1) for ln in
                    trajectory.read_text().splitlines() if ln.startswith("# "))
    assert {k: float(comments[k]) for k in want} == want


@pytest.mark.parametrize("command", ["scan", "starshape"])
@pytest.mark.parametrize("jacobi", ["nan", "inf", "auto-nan"])
def test_non_finite_jacobi_is_a_usage_error(command, jacobi, tmp_path,
                                            capsys):
    out = tmp_path / "x.out"
    rc = main([command, "--mu", "0.1", f"--jacobi={jacobi}",
               "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_integrate_csv_holds_the_trajectory_values_exactly(tmp_path):
    """Every float of a regularized CSV parses back, with ==, to the value
    the trajectory itself holds or derives at that sample."""
    out = tmp_path / "eject.csv"
    assert main(["integrate", "--mu", "0.1", "--jacobi", "auto-0.1",
                 "--regularized", "--eject", "0.39", "--tmax", "5",
                 "--out", str(out)]) == 0
    params = SystemParams(mu=0.1)
    level = RegularizedLevel(params, f=-(first_critical_value(params) - 0.1))
    traj = integrate(Flow.REGULARIZED,
                     collision_point((math.cos(0.39), math.sin(0.39)), level),
                     level, IntegrationSettings(t_max=5.0))
    _, rows = _read_csv(out)
    samples = list(traj.samples())
    assert len(rows) == len(samples)  # no collision passage after launch
    assert rows[0][2:7] == [""] * 5  # the launch row is at the collision
    for i, (row, (t, chart, y)) in enumerate(zip(rows, samples)):
        assert row[1] == chart.value
        want = [t]
        if i > 0:
            state = physical_state(MoserChartPoint(chart=chart, a=y[:2],
                                                   b=y[2:4]))
            want += [*state.q, *state.p, hamiltonian(state, params)]
        want += [traj.conserved_value(chart, y), *y[:4]]
        assert [float(v) for v in [row[0], *row[2:]] if v] == want


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


@pytest.mark.parametrize("start", [
    ["--state", "nan,0.1,0.2,0.3"],
    ["--state", "nan,0.1,0.2,0.3", "--regularized"],
    ["--regularized", "--eject", "nan"],
    ["--regularized", "--eject", "inf"],
])
def test_integrate_rejects_a_non_finite_start(start, tmp_path):
    """Exit 2 at once.  A NaN start used to hang the step loop and an
    infinite angle to end in a traceback, so each run is a subprocess with
    a timeout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ccorb.cli", "integrate", "--mu", "0.1",
         "--jacobi", "auto-0.1", *start, "--tmax", "5",
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


def test_integrate_takes_state_or_eject_not_both(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--mu", "0.1", "--jacobi", "auto-0.1",
              "--regularized", "--eject", "0.39",
              "--state", "0.3,0.15,0.2,0.4", "--tmax", "5",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--state" in capsys.readouterr().err
    assert not out.exists()


def test_integrate_rejects_a_nan_tolerance(tmp_path, capsys):
    rc = main(["integrate", "--mu", "0.1", "--state", "0.3,0.15,0.2,0.4",
               "--tmax", "1", "--rel-tol", "nan",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "rel_tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--grid", "3", "--kmax",
     "1", "--jobs", "1"],
    ["integrate", "--mu", "0.1", "--jacobi", "auto-0.1", "--regularized",
     "--eject", "0.3", "--tmax", "1"],
])
def test_a_tolerance_too_small_to_start_a_step_is_a_usage_error(
        argv, tmp_path, capsys):
    """A clock starts at 0, so its error scale is abs_tol alone; at 1e-300
    its scaled rate overflows the starting-step heuristic."""
    rc = main(argv + ["--abs-tol", "1e-300", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "abs_tol" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--abs-tol", "100"),
                                         ("--abs-tol", "1e3"),
                                         ("--rel-tol", "1")])
@pytest.mark.parametrize("argv", [
    ["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--kmax", "2", "--grid",
     "4"],
    ["integrate", "--mu", "0.1", "--jacobi", "auto-0.1", "--regularized",
     "--eject", "0.3"],
], ids=["scan", "integrate"])
def test_a_tolerance_of_one_or_more_is_a_usage_error(argv, flag, value,
                                                      tmp_path, capsys):
    """Such a run leaves the energy level and used to crawl for minutes
    towards the step budget."""
    out = tmp_path / "x"
    rc = main(argv + [flag, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_the_loose_grid_leaves_every_scan_byte_unchanged(tmp_path, capsys,
                                                         monkeypatch):
    """The refine-coarse scan of one side gives the same catalog and stdout
    with its grid shot for signs at GRID_TOL as with the grid shot at the
    run's own settings, which is the exact path."""
    params = SystemParams(0.1)
    level = RegularizedLevel(params, f=-(first_critical_value(params) - 0.1))
    lo, hi, _ = cli._scan_ranges(None, params, level)[0]
    argv = ["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--branch",
            "both", "--kmax", "3", "--grid", "8", f"--s-range={lo!r}:{hi!r}"]
    runs = []
    for grid_tol in (shooting.GRID_TOL, (IntegrationSettings.rel_tol,
                                         IntegrationSettings.abs_tol)):
        monkeypatch.setattr(shooting, "GRID_TOL", grid_tol)
        out = tmp_path / "catalog.jsonl"
        rc = main(argv + ["--out", str(out)])
        runs.append((rc, out.read_bytes(), capsys.readouterr().out))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("flag, value", [
    ("--rel-tol", "1e-8"), ("--abs-tol", "1e-13"), ("--tmax", "5"),
])
def test_starshape_takes_no_integration_flags(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["starshape", "--mu", "0.1", "--jacobi", "auto-0.1",
              "--base-grid", "4", "--ray-grid", "4", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


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


def test_orbit_svg_bytes_do_not_depend_on_the_catalog_path(
        oracle_catalog, tmp_path, monkeypatch):
    monkeypatch.chdir(oracle_catalog.parent)
    images = []
    for spelling in (oracle_catalog.name, f"./{oracle_catalog.name}",
                     str(oracle_catalog)):
        out = tmp_path / "chord.svg"
        assert main(["orbit-svg", "--catalog", spelling, "--index", "0",
                     "--out", str(out)]) == 0
        images.append(out.read_bytes())
    assert images[0] == images[1] == images[2]
    assert images[0].decode().count("artifact_version") == 1


def test_orbit_svg_index_out_of_range(oracle_catalog, tmp_path, capsys):
    rc = main(["orbit-svg", "--catalog", str(oracle_catalog),
               "--index", "5", "--out", str(tmp_path / "x.svg")])
    assert rc == 2


def test_orbit_svg_rejects_a_pass_index_below_one(oracle_catalog, tmp_path,
                                                   capsys):
    header, row, *rest = oracle_catalog.read_text().splitlines()
    entry = json.loads(row)
    entry["pericenter_index"] = 0
    edited = tmp_path / "k0.jsonl"
    edited.write_text("\n".join([header, json.dumps(entry)] + rest) + "\n")
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(edited), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    assert "pericenter index" in capsys.readouterr().err
    assert not out.exists()


def test_orbit_svg_missing_catalog(tmp_path):
    rc = main(["orbit-svg", "--catalog", str(tmp_path / "nope.jsonl"),
               "--index", "0", "--out", str(tmp_path / "x.svg")])
    assert rc == 2


def test_orbit_svg_from_a_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(tmp_path), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


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


def _no_mu(header, row):
    entry = json.loads(row)
    del entry["mu"]
    return [header, json.dumps(entry)]


@pytest.mark.parametrize("edit", [
    lambda header, row: [header, row[:-1]],
    lambda header, row: ["[1, 2]", row],
    _no_mu,
], ids=["row-not-json", "header-a-list", "row-without-mu"])
def test_orbit_svg_rejects_a_malformed_catalog(edit, oracle_catalog,
                                               tmp_path, capsys):
    header, row = oracle_catalog.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(edit(header, row)) + "\n")
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(bad), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("part, key, value", [
    ("row", "branch", "sideways"),
    ("header", "t_max", "ten"),
    ("row", "pericenter_index", 1.5),
    ("row", "pericenter_index", True),
    ("row", "mu", "0.1"),
    ("row", "jacobi", None),
    ("row", "s0", [0.5]),
    ("row", "tau_reeb", "long"),
    ("tolerances", "rel_tol", "tight"),
])
def test_orbit_svg_rejects_a_wrong_typed_field(part, key, value,
                                               oracle_catalog, tmp_path,
                                               capsys):
    header, row = map(json.loads, oracle_catalog.read_text().splitlines())
    owner = {"header": header["run_config"], "row": row,
             "tolerances": row["integrator_tolerances"]}[part]
    owner[key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(bad), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()
