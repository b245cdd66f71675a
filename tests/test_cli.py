"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ccorb import (
    Bracket,
    Branch,
    Chart,
    ChordCatalog,
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
from ccorb import cli, diagnostics, shooting
from ccorb.cli import main
from ccorb.errors import BisectionStagnationError

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


#: the SHA-256 of the catalog and of stdout (path replaced by the file
#: name) of two scans: the benchmark's refine-coarse scan at seed 0, and
#: the README mu = 0 oracle scan
GOLDEN_SCANS = {
    "refine-coarse.jsonl": (
        ["scan", "--mu", "0.1", "--jacobi", "auto-0.1", "--branch", "both",
         "--kmax", "3", "--grid", "8"],
        "16df88875e536ff9ca6446c68d5ded1db640933e7b7fbfb2f0f9acd7254770b9",
        "a14a957f1e497df8dff6411ae52c01254d96814d4b2f8ac884f93db7a41ba8fe"),
    "oracle.jsonl": (
        ["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
         "--s-range", "0.1:0.53", "--grid", "50"],
        "e84a2bcbfd2e911ae20b97dfaabc606c202875f40f7fdbd9455aa39d7fb01300",
        "8211884c0491b98b97142d39e61bd77a0c1983067247f9a8bbb0d6745b2c376e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_bytes_are_pinned(name, tmp_path, capsys):
    """Catalog and stdout bytes of two scans, pinned by their SHA-256.

    The pin holds where the platform's ``pow`` rounds as glibc's does,
    which is where CI runs: the step-size controller takes ``err **
    -0.125`` through it, and every step size, and so every byte, follows.
    A change that is meant to keep the outputs must keep these digests.
    The digests also follow the last bits of the three formulas under
    every row: the collinear points, roots of
    ``effective_potential_gradient`` on the axis; the axis start's
    momentum, from ``effective_potential``; and each event value inside
    a step, read on the dense output with the flow's field.
    """
    argv, catalog_digest, stdout_digest = GOLDEN_SCANS[name]
    out = tmp_path / name
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), name)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == catalog_digest
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest


def test_scan_flags_the_chord_that_closes_on_itself(tmp_path):
    """At this level the (neg, plus, 4) chord starts on the axis of the
    collision circle, b2 = 0, so its end, the rho-mirror of its start, is
    its start: the scan flags that row a periodic candidate, and the
    chords of k = 1 to 3 at the same level not."""
    out = tmp_path / "periodic.jsonl"
    assert main(["scan", "--mu", "0.1", "--jacobi",
                 "auto-0.058373273585310616", "--branch", "plus", "--kmax",
                 "4", "--grid", "40", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert {(r["side"], r["branch"], r["pericenter_index"]):
            r["periodic_candidate"] for r in rows} == {
        ("neg", "plus", k): k == 4 for k in (1, 2, 3, 4)}
    closed = next(r for r in rows if r["periodic_candidate"])
    assert abs(closed["endpoint_start_b"][1]) < 1e-11


#: the SHA-256 of ``starshape --json`` stdout for two certificates: the
#: benchmark's starshape-cert argv (60 x 60 at mu = 0.1), and a small
#: one at mu = 0.5
GOLDEN_STARSHAPES = {
    "starshape-cert": (
        ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1"],
        "0d359e3635d38ffb9fd6b07a2479ca83f4023b0b3e3ead955b3146b85680e2b2"),
    "mu0.5": (
        ["starshape", "--mu", "0.5", "--jacobi", "auto-0.1",
         "--base-grid", "8", "--ray-grid", "12"],
        "911c82804e71f7ac8756b257bb79412e746cd278a4af78e1f35a9435c78c3c79"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STARSHAPES))
def test_starshape_bytes_are_pinned(name, capsys):
    """``starshape --json`` bytes of two certificates, pinned by SHA-256.

    The pin holds where the platform's ``pow`` rounds as glibc's does,
    which is where CI runs: G' takes ``d ** 3`` through it, and each
    margin, and so every byte, follows.  A change that is meant to keep
    the outputs must keep these digests.
    """
    argv, digest = GOLDEN_STARSHAPES[name]
    capsys.readouterr()
    assert main(argv + ["--json"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_scan_without_chords_exits_three(tmp_path, capsys):
    rc = main(["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
               "--s-range", "0.15:0.3", "--grid", "4", "--kmax", "1",
               "--tmax", "10", "--out", str(tmp_path / "none.jsonl")])
    assert rc == 3
    assert "no chords" in capsys.readouterr().out.lower()


#: the README mu = 0 oracle scan
README_ORACLE = GOLDEN_SCANS["oracle.jsonl"][0]


def test_scan_reports_every_bracket_it_cannot_refine(tmp_path, capsys,
                                                     monkeypatch):
    """A refinement that fails is a warning per bracket, never dropped in
    silence; with no chord left the scan exits 3 and writes a header-only
    catalog."""
    tried = []

    def stagnates(bracket, level, settings):
        tried.append(bracket)
        raise BisectionStagnationError("stagnated")
    monkeypatch.setattr(cli, "refine_chord", stagnates)
    out = tmp_path / "oracle.jsonl"
    assert main(README_ORACLE + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "no chords found" in captured.out
    assert tried
    assert captured.err.splitlines() == [
        f"warning: refinement failed on [{b.s_lo!r}, {b.s_hi!r}] "
        f"(k={b.pericenter_index}): stagnated" for b in tried]
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and "run_config" in json.loads(lines[0])


def test_scan_reports_a_tangential_candidate(tmp_path, capsys, monkeypatch):
    """A tangential bracket has no sign change to refine: it is a warning,
    and a scan that finds nothing else exits 3."""
    def tangential(grids, settings, k_max):
        return [[Bracket(s_lo=0.3, s_hi=0.3, m_lo=0.0, m_hi=0.0,
                         pericenter_index=1, branch=Branch.MINUS,
                         kind="tangential")] for _ in grids]
    monkeypatch.setattr(cli, "scan_grids", tangential)
    monkeypatch.setattr(cli, "refine_chord", _no_work)
    assert main(README_ORACLE + ["--out", str(tmp_path / "o.jsonl")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "warning: tangential candidate at s = 0.3 (k=1, pos/minus); no sign "
        "change to refine"]


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


def test_scan_writes_catalog_jsonl_without_out(tmp_path, capsys,
                                               monkeypatch):
    """The catalog the benchmark reads: scan without --out writes it to
    catalog.jsonl in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(ORACLE_SCAN) == 0
    assert "1 chord(s) -> catalog.jsonl\n" in capsys.readouterr().out
    assert len(ChordCatalog.load(tmp_path / "catalog.jsonl").entries) == 1


def test_a_default_catalog_that_is_a_directory_exits_two_before_shooting(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "catalog.jsonl").mkdir()
    monkeypatch.setattr(cli, "scan_grids", _no_work)
    assert main(ORACLE_SCAN) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is a directory" in err


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


@pytest.mark.parametrize("work, argv", [
    ("lagrange_points", ["lagrange", "--mu", "0.1"]),
    ("scan_grids", ORACLE_SCAN),
    ("integrate", ["integrate", "--mu", "0.0", "--jacobi", "-2.0",
                   "--eject", "0.0"]),
    ("starshape_scan", ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1"]),
    ("ChordCatalog.load", ["orbit-svg", "--catalog", "absent.jsonl",
                           "--index", "0"]),
])
def test_an_out_that_is_a_directory_exits_two_before_any_work(
        work, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(f"ccorb.cli.{work}", _no_work)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is a directory" in err


@pytest.mark.parametrize("work, argv", [
    ("lagrange_points", ["lagrange", "--mu", "0.1", "--json"]),
    ("scan_grids", ORACLE_SCAN),
    ("integrate", ["integrate", "--mu", "0.0", "--jacobi", "-2.0",
                   "--eject", "0.0"]),
    ("starshape_scan", ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1"]),
    ("ChordCatalog.load", ["orbit-svg", "--catalog", "absent.jsonl",
                           "--index", "0"]),
])
def test_an_empty_out_exits_two_before_any_work(work, argv, tmp_path, capsys,
                                                 monkeypatch):
    """An empty --out is refused by every command alike; before, scan and
    orbit-svg ran their work and failed at open(""), and the others took
    it as no --out."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"ccorb.cli.{work}", _no_work)
    assert main(argv + ["--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out is empty\n"
    assert list(tmp_path.iterdir()) == []


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


def test_eject_implies_the_regularized_flow(tmp_path):
    """A collision start exists only in the regularized flow, so --eject
    without --regularized writes the same bytes as with it."""
    paths = []
    for flag in (["--regularized"], []):
        paths.append(tmp_path / f"eject{len(paths)}.csv")
        assert main(["integrate", "--mu", "0.1", "--jacobi", "auto-0.1",
                     *flag, "--eject", "0.39", "--tmax", "1",
                     "--out", str(paths[-1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


@pytest.mark.parametrize("jacobi", ["auto-\n0.1", "-1.9\n"],
                         ids=["auto", "number"])
def test_a_line_break_in_jacobi_is_refused(jacobi, tmp_path, capsys):
    """The --jacobi text is recorded as jacobi_spec in the CSV preamble, where
    a line break would end the comment line and leave a bare line above the
    header; it is refused before any file is written."""
    out = tmp_path / "x.csv"
    rc = main(["integrate", "--mu", "0.1", "--jacobi", jacobi,
               "--regularized", "--eject", "0.39", "--tmax", "0.2",
               "--out", str(out)])
    assert rc == 2
    assert "printable" in capsys.readouterr().err
    assert not out.exists()


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
    lo, hi = cli._scan_ranges(None, level)[0]
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


SMALL_STARSHAPE = ["starshape", "--mu", "0.1", "--jacobi", "auto-0.1",
                   "--base-grid", "4", "--ray-grid", "4"]


def test_starshape_text_report_reads_as_the_benchmark_parses_it(capsys):
    """The verdict, ray count and min margin the benchmark's regexes read
    from the text report, the margin equal to the JSON one."""
    assert main(SMALL_STARSHAPE) == 0
    text = capsys.readouterr().out
    assert main(SMALL_STARSHAPE + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert re.search(r"star-shapedness (PASS|FAIL)", text).group(1) == "PASS"
    assert re.search(r"rays checked: (\d+)", text).group(1) == "32"
    margin = float(re.search(r"min margin: (\S+)", text).group(1))
    assert margin == payload["min_margin"] > 0.0


@pytest.mark.parametrize("argv", [["lagrange", "--mu", "0.1"],
                                  SMALL_STARSHAPE])
def test_the_out_file_holds_the_json_stdout(argv, tmp_path, capsys):
    assert main(argv + ["--json"]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("argv", [["lagrange", "--mu", "0.1"],
                                  SMALL_STARSHAPE])
def test_out_without_json_prints_the_text_report(argv, tmp_path, capsys):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == text


def _add_a_nan_ray(monkeypatch):
    """Make every star-shape report fail on one ray of NaN margin."""
    scan = cli.starshape_scan

    def with_a_nan_ray(*args):
        report = scan(*args)
        report.record(Chart.NORTH, (0.0, 0.0), 0.0, math.nan, 1)
        return report
    monkeypatch.setattr(cli, "starshape_scan", with_a_nan_ray)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_report_that_cannot_become_json_leaves_the_out_file(
        flags, tmp_path, capsys, monkeypatch):
    _add_a_nan_ray(monkeypatch)
    out = tmp_path / "report.json"
    out.write_text("the previous report\n", encoding="utf-8")
    assert main(SMALL_STARSHAPE + flags + ["--out", str(out)]) == 4
    assert out.read_text(encoding="utf-8") == "the previous report\n"
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite float" in captured.err


def test_a_report_that_cannot_become_json_still_prints_as_text(
        capsys, monkeypatch):
    _add_a_nan_ray(monkeypatch)
    assert main(SMALL_STARSHAPE) == 0
    text = capsys.readouterr().out
    assert text.startswith("star-shapedness FAIL") and "nan" in text


def test_a_failing_starshape_certificate_is_still_json(tmp_path, capsys,
                                                       monkeypatch):
    """With the zero-velocity caps pulled in to 0.3 of their radius, rays
    are capped below the level: the report fails, exits 0, and records
    each such ray's margin as the cap's finite, negative shortfall, so the
    --json and --out reports are written."""
    radius = diagnostics._zvc_radius_along
    monkeypatch.setattr(diagnostics, "_zvc_radius_along",
                        lambda *args: 0.3 * radius(*args))
    out = tmp_path / "fail.json"
    assert main(SMALL_STARSHAPE + ["--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout
    payload = json.loads(stdout)
    assert payload["ok"] is False and payload["violations"]
    margins = [v["margin"] for v in payload["violations"]]
    assert all(math.isfinite(m) and m < 0.0 for m in margins)
    assert payload["min_margin"] == min(margins)


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


def test_orbit_svg_on_a_catalog_without_chords(tmp_path, capsys):
    """A scan that finds no chords writes a header-only catalog, and
    orbit-svg says so, not that index 0 lies outside 0..-1."""
    catalog = tmp_path / "none.jsonl"
    assert main(["scan", "--mu", "0", "--jacobi", "-2", "--branch", "minus",
                 "--s-range", "0.15:0.3", "--grid", "4", "--kmax", "1",
                 "--tmax", "10", "--out", str(catalog)]) == 3
    assert len(catalog.read_text().splitlines()) == 1
    capsys.readouterr()
    out = tmp_path / "x.svg"
    rc = main(["orbit-svg", "--catalog", str(catalog), "--index", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "holds no chords" in err and "out of range" not in err
    assert not out.exists()


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
    ("header", "t_max", True),  # not a horizon of 1
], ids=["row-branch-sideways", "header-t_max-ten", "row-pericenter_index-1.5",
        "row-pericenter_index-True", "row-mu-0.1", "row-jacobi-None",
        "row-s0-list", "row-tau_reeb-long", "tolerances-rel_tol-tight",
        "header-t_max-True"])
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
