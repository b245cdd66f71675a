"""One benchmark operation in a fresh interpreter: CLI run(s), then checks.

Called by ``run.py`` with one JSON argument::

    {"argvs": [[...], ...], "workdir": DIR, "trace": PATH or null,
     "run_id": ID}

Each argv is passed to ``ccorb.cli.main`` in this process, with a fresh
directory ``DIR/run<i>`` as the working directory, so each scan writes its
default ``catalog.jsonl`` there.  The time from the first CLI call to the
end of the output checks is the operation's wall time; CPU time counts
this process and every pool worker it reaped.  With a trace path the
layer functions are wrapped by ``tracing.Tracer`` and the spans are
written to that path at the end.

The last line of stdout is one JSON object with the timings, the checked
operation counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

#: certificate bounds every catalog row must meet (see ROADMAP)
ACTION_TOL = 1e-6
R_PERI_MAX = 1e-9
MIRROR_TOL = 1e-12
#: agreement with the seed-0 reference table
S0_TOL = 1e-10
TAU_TOL = 1e-9
MARGIN_TOL = 1e-9


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def check_scan(rcs: list[int], brackets: int, reference: dict
               ) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the catalog rows of a scan.

    An operation is one sign-change bracket; it succeeds when its chord is
    in the catalog, matches the reference table and holds its certificate.
    Only rows are compared, never the header line.
    """
    problems = [f"ccorb scan exited with {rc}" for rc in rcs if rc != 0]
    rows = []
    for path in sorted(Path.cwd().glob("run*/*.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        rows += [json.loads(line) for line in lines if line.strip()]
    expected = {(c["side"], c["branch"], c["k"]): c
                for c in reference["chords"]}
    good = set()
    for row in rows:
        key = (row["side"], row["branch"], row["pericenter_index"])
        ref = expected.get(key)
        errs = []
        if ref is None:
            errs.append("not in the reference table")
        else:
            if key in good:
                errs.append("duplicate row")
            if not abs(row["s0"] - ref["s0"]) <= S0_TOL:
                errs.append(f"s0 {row['s0']!r} != {ref['s0']!r}")
            if not abs(row["tau_reeb"] - ref["tau_reeb"]) <= TAU_TOL:
                errs.append(f"tau_reeb {row['tau_reeb']!r} != "
                            f"{ref['tau_reeb']!r}")
        if not abs(row["action"] - row["tau_reeb"]) < ACTION_TOL:
            errs.append("action != tau_reeb")
        if not row["r_peri"] < R_PERI_MAX:
            errs.append(f"r_peri {row['r_peri']!r} not below 1e-9")
        (bs1, bs2), (be1, be2) = row["endpoint_start_b"], row["endpoint_end_b"]
        if not (abs(bs1 - be1) <= MIRROR_TOL and abs(bs2 + be2) <= MIRROR_TOL):
            errs.append("endpoints are not mirror images")
        if errs:
            problems.append(f"chord {key}: " + "; ".join(errs))
        else:
            good.add(key)
    for key in sorted(set(expected) - good):
        problems.append(f"reference chord {key} missing or failed")
    attempted = max(brackets, len(expected))
    return attempted, attempted - len(good), problems


def check_starshape(rcs: list[int], text: str, reference: dict
                    ) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one star-shape certificate."""
    problems = [f"ccorb starshape exited with {rc}" for rc in rcs if rc]
    verdict = re.search(r"star-shapedness (PASS|FAIL)", text)
    rays = re.search(r"rays checked: (\d+)", text)
    margin = re.search(r"min margin: (\S+)", text)
    if not (verdict and rays and margin):
        problems.append("starshape report not understood")
    else:
        want = reference["starshape"]
        if verdict.group(1) != "PASS":
            problems.append("certificate is not ok")
        if int(rays.group(1)) != want["rays_checked"]:
            problems.append(f"{rays.group(1)} rays checked, expected "
                            f"{want['rays_checked']}")
        value = float(margin.group(1))
        if not value > 0.0:
            problems.append(f"min_margin {value!r} is not positive")
        if not abs(value - want["min_margin"]) <= MARGIN_TOL:
            problems.append(f"min_margin {value!r} != {want['min_margin']!r}")
    return 1, int(bool(problems)), problems


def main() -> int:
    spec = json.loads(sys.argv[1])
    reference = json.loads((BENCH / "reference.json").read_text())
    os.makedirs(spec["workdir"], exist_ok=True)
    os.chdir(spec["workdir"])
    import ccorb.cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    brackets = 0
    scan = ccorb.cli.scan_and_bracket

    def counted_scan(*args, **kwargs):
        nonlocal brackets
        found = scan(*args, **kwargs)
        brackets += sum(b.kind == "sign_change" for b in found)
        return found
    ccorb.cli.scan_and_bracket = counted_scan

    out = io.StringIO()
    cpu0 = _cpu()
    start = time.perf_counter()
    rcs = []
    with contextlib.redirect_stdout(out):
        for i, argv in enumerate(spec["argvs"]):
            os.makedirs(f"run{i}")
            os.chdir(f"run{i}")
            rcs.append(ccorb.cli.main(argv))
            os.chdir(spec["workdir"])
    if spec["argvs"][0][0] == "scan":
        attempted, failed, problems = check_scan(rcs, brackets, reference)
    else:
        attempted, failed, problems = check_starshape(rcs, out.getvalue(),
                                                      reference)
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
              "attempted": attempted, "failed": failed,
              "correct": not problems, "problems": problems}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        catalogs = list(Path.cwd().glob("run*/*.jsonl"))
        layers["diagnostics.catalog_bytes"] = sum(
            p.stat().st_size for p in catalogs)
        result["layers"] = layers
        tracer.write(spec["trace"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
