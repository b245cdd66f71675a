"""ccorb benchmark: time to a certified chord catalog.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, each run through the ``ccorb`` CLI exactly as a user types it:

* ``reference-scan``: ``ccorb scan --mu 0.1 --jacobi auto-0.1 --branch both
  --kmax 3 --grid 40 --jobs 2``.  Grid shots dominate and the process pool
  is used, so shot cost, batching and the pool show here.
* ``refine-coarse``: the same level at ``--grid 8 --jobs 1``.  Sequential
  bisection in ``refine_chord`` dominates; a faster root finder shows here,
  and a change that slows one lone shot shows as a loss.
* ``starshape-cert``: ``ccorb starshape --mu 0.1 --jacobi auto-0.1``.  It
  calls no integrator and no shooting code.

Seed 0 runs these commands byte for byte.  Any other seed moves each end
of each scanned s-range inward by a random amount under a quarter of a
grid cell (``--s-range`` per side), so every shot starts from a new s while
the chord set stays the same.  The star-shape command has no s-range; its
inputs do not depend on the seed.

``--trace 0`` repeats the operation (one CLI run and its output checks, in
a fresh interpreter) while another one still fits in ``--seconds`` seconds
and prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the operation once with every layer traced
(``--jobs 1``, so all spans stay in one process; spans go to
``.bench_out/``), adds kernel microbenchmarks, the tracing overhead and,
on reference-scan, the pool speedup, and prints the per-layer metrics;
metrics of a layer the workload does not reach read 0.  The last stdout
line is the JSON result.  A failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MU = "0.1"
JACOBI = "auto-0.1"
SCAN = ["scan", "--mu", MU, "--jacobi", JACOBI, "--branch", "both",
        "--kmax", "3"]
WORKLOADS = {
    "reference-scan": SCAN + ["--grid", "40", "--jobs", "2"],
    "refine-coarse": SCAN + ["--grid", "8", "--jobs", "1"],
    "starshape-cert": ["starshape", "--mu", MU, "--jacobi", JACOBI],
}
#: fresh interpreters timed for setup_s and cli.import_s (median reported)
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
#: untraced/traced pairs of calls timed for trace.overhead_ratio
OVERHEAD_REPEATS = 6
OP_TIMEOUT_S = 170
#: largest inward move of a scanned s-range end at a nonzero seed, in grid
#: cells; under a quarter cell every sign-change bracket keeps its place
SHIFT_CELLS = 0.25
#: figures the ROADMAP gives for some per-layer metrics, printed beside them
ROADMAP_FIGURES = {
    "regularization.g_and_gradient_us.north": 2.5,
    "regularization.g_and_gradient_us.south": 2.5,
    "integrator.step_eval_us": 6.0,
    "shooting.refine_shots_per_chord": 37.0,
    "diagnostics.starshape_scan_s": 1.1,
}
SETUP_CODE = """\
from ccorb import (EnergyLevel, SystemParams, first_critical_value,
                   hill_component_interval)
import ccorb.cli
params = SystemParams(0.1)
c = first_critical_value(params) - 0.1
hill_component_interval(params, EnergyLevel(f=-c))
"""
IMPORT_CODE = """\
import time
t = time.perf_counter()
import ccorb.cli
print(time.perf_counter() - t)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own session; kill the whole group on timeout."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                          cwd=ROOT, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def _energy():
    """(params, Jacobi energy) that ``--mu MU --jacobi JACOBI`` resolve to."""
    from ccorb import SystemParams, first_critical_value
    params = SystemParams(float(MU))
    return params, first_critical_value(params) - float(JACOBI[len("auto-"):])


def scan_ranges(seed: int, grid: int) -> list[tuple[float, float]]:
    """Scanned s-ranges at a seed, positive side first.

    Seed 0 gives the two default ranges of the CLI.  Any other seed moves
    each end inward by a random amount under ``SHIFT_CELLS`` grid cells.
    """
    from ccorb import EnergyLevel, hill_component_interval
    params, c = _energy()
    hill = hill_component_interval(params, EnergyLevel(f=-c))
    ranges = [(0.02 * hill.s_max, hill.s_max - 0.02 * hill.s_max),
              (hill.s_min + 0.02 * abs(hill.s_min), -0.02 * abs(hill.s_min))]
    if seed == 0:
        return ranges
    rng = random.Random(seed)
    shifted = []
    for lo, hi in ranges:
        cell = (hi - lo) / (grid - 1)
        shifted.append((lo + SHIFT_CELLS * cell * rng.random(),
                        hi - SHIFT_CELLS * cell * rng.random()))
    return shifted


def _grid(argv: list[str]) -> int:
    return int(argv[argv.index("--grid") + 1])


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one operation of a workload at a seed."""
    argv = WORKLOADS[name]
    if seed == 0 or argv[0] != "scan":
        return [list(argv)]
    return [argv + [f"--s-range={lo!r}:{hi!r}"]
            for lo, hi in scan_ranges(seed, _grid(argv))]


def serial_argvs(argvs: list[list[str]]) -> list[list[str]]:
    """The same CLI runs with ``--jobs 1``, so every span stays here."""
    return [[("1" if i and argv[i - 1] == "--jobs" else a)
             for i, a in enumerate(argv)] for argv in argvs]


def run_op(name: str, argvs: list[list[str]], tag: str,
           trace: Path | None = None) -> dict:
    """One operation in a fresh interpreter (see op.py)."""
    workdir = OUT / f"op-{os.getpid()}-{tag}"
    spec = {"argvs": argvs, "workdir": str(workdir),
            "trace": str(trace) if trace else None,
            "run_id": f"{name}-{tag}-{os.getpid()}"}
    proc = _run([sys.executable, str(BENCH / "op.py"), json.dumps(spec)],
                OP_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1,
                "problems": [f"operation exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def fresh_interpreter_s(code: str, samples: int, inside: bool) -> list[float]:
    """Fresh-interpreter times of ``code``: wall seen from here, or the
    value the code prints; one untimed warm-up run first."""
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        proc = _run([sys.executable, "-c", code], 60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter failed: {code!r}")
        if i:
            times.append(float(proc.stdout) if inside else wall)
    return times


def _per_call_us(fn, args, number: int, repeat: int = 7) -> float:
    timer = timeit.Timer("fn(*args)", globals={"fn": fn, "args": args})
    return 1e6 * statistics.median(timer.repeat(repeat, number)) / number


def microbench() -> dict[str, float]:
    """Kernel timings on states and a step taken from a real shot."""
    from ccorb import (Branch, EnergyLevel, Flow, IntegrationSettings,
                       RegularizedLevel, ShotSpec, axis_initial_state,
                       first_critical_value, hill_component_interval,
                       integrate, phase_to_chart)
    from ccorb.regularization import Chart, g_and_gradient

    reference = json.loads((BENCH / "reference.json").read_text())
    chord = reference["chords"][0]
    params, c = _energy()
    level = RegularizedLevel(params, f=-c)
    spec = ShotSpec(s=chord["s0"], branch=Branch(chord["branch"]),
                    params=params, level=level)
    start = phase_to_chart(axis_initial_state(spec))
    traj = integrate(Flow.REGULARIZED, start, level,
                     IntegrationSettings(t_max=1.0))
    out = {}
    for chart in (Chart.NORTH, Chart.SOUTH):
        step = next(st for st in traj.steps if st.chart is chart)
        a1, a2, b1, b2 = step.y0[:4]
        key = chart.name.lower()
        out[f"regularization.g_and_gradient_us.{key}"] = _per_call_us(
            g_and_gradient, (chart, a1, a2, b1, b2, params.mu, level.f),
            20000)
        out[f"regularization.g_and_gradient_us.{key}_mu0"] = _per_call_us(
            g_and_gradient, (chart, a1, a2, b1, b2, 0.0, level.f), 20000)
    step = traj.steps[len(traj.steps) // 2]
    out["integrator.step_eval_us"] = _per_call_us(
        step.eval, (step.t0 + 0.37 * step.h,), 5000)
    out["dynamics.first_critical_value_ms"] = 1e-3 * _per_call_us(
        first_critical_value, (params,), 500)
    out["dynamics.hill_interval_ms"] = 1e-3 * _per_call_us(
        hill_component_interval, (params, EnergyLevel(f=-c)), 200)
    return out


def pool_speedup(name: str, seed: int) -> float:
    """scan_s at jobs 1 over scan_s at the workload's jobs.

    Measured untraced on both branches of the positive side of the
    workload's grid, through ``scan_and_bracket`` as the CLI calls it; the
    two job counts alternate branch by branch.
    """
    from ccorb import (Branch, IntegrationSettings, RegularizedLevel,
                       scan_and_bracket)
    argv = WORKLOADS[name]
    grid = _grid(argv)
    jobs = int(argv[argv.index("--jobs") + 1])
    s_range = scan_ranges(seed, grid)[0]
    params, c = _energy()
    level = RegularizedLevel(params, f=-c)
    times = {1: 0.0, jobs: 0.0}
    for branch in (Branch.PLUS, Branch.MINUS):
        for n_jobs in times:
            start = time.perf_counter()
            scan_and_bracket(s_range, grid, branch, params, level,
                             IntegrationSettings(), k_max=3, jobs=n_jobs)
            times[n_jobs] += time.perf_counter() - start
    return times[1] / times[jobs]


def load_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def untraced(name: str, seed: int, argvs, seconds: float) -> tuple[dict, list]:
    setup = fresh_interpreter_s(SETUP_CODE, SETUP_SAMPLES, inside=False)
    ops = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        ops.append(run_op(name, argvs, f"{seed}-{len(ops)}"))
        now = time.perf_counter()
        # start another operation only if it can end within the budget
        if not ops[-1]["correct"] or now + (now - op_start) - start > seconds:
            break
    timed = [op for op in ops if "wall_s" in op]
    values = {"setup_s": statistics.median(setup)}
    if timed:
        values["wall_s"] = statistics.median(op["wall_s"] for op in timed)
        values["cpu_s"] = statistics.median(op["cpu_s"] for op in timed)
        values["peak_rss_mb"] = max(op["peak_rss_mb"] for op in timed)
    print(f"# {len(timed)} operation(s) timed; setup_s over "
          f"{len(setup)} fresh interpreters")
    return values, ops


def overhead_ratio(name: str) -> float:
    """Traced over untraced wall of one unit of the workload's work.

    The unit is one shot to the third pericenter from each reference
    chord's start for the scans, a 40x40 star-shape scan otherwise.
    Untraced and traced calls alternate in the order ABBA, so a drift in
    machine speed biases neither.
    """
    from ccorb import (Branch, IntegrationSettings, RegularizedLevel,
                       ShotSpec, miss_function, starshape_scan)
    from tracing import Tracer

    params, c = _energy()
    level = RegularizedLevel(params, f=-c)
    if WORKLOADS[name][0] == "scan":
        chords = json.loads((BENCH / "reference.json").read_text())["chords"]
        specs = [ShotSpec(s=c["s0"], branch=Branch(c["branch"]),
                          params=params, level=level) for c in chords]

        def unit():
            for spec in specs:
                miss_function(spec, IntegrationSettings(), pericenter_index=3)
    else:
        def unit():
            starshape_scan(params, level, 40, 40)
    unit()  # warm-up: caches and lazy set-up
    walls = {False: [], True: []}
    for i in range(OVERHEAD_REPEATS):
        for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer("overhead")
            if traced_call:
                tracer.install()
            start = time.perf_counter()
            try:
                unit()
            finally:
                walls[traced_call].append(time.perf_counter() - start)
                tracer.uninstall()
    return statistics.median(walls[True]) / statistics.median(walls[False])


def traced(name: str, seed: int, argvs, seconds: float) -> tuple[dict, list]:
    values = microbench()
    values["cli.import_s"] = statistics.median(
        fresh_interpreter_s(IMPORT_CODE, IMPORT_SAMPLES, inside=True))
    values["trace.overhead_ratio"] = overhead_ratio(name)
    if name == "reference-scan":
        values["shooting.pool_speedup"] = pool_speedup(name, seed)
    trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    op = run_op(name, serial_argvs(argvs), f"{seed}-traced", trace=trace_path)
    values.update(op.get("layers", {}))
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return values, [op]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ccorb" / "__init__.py").is_file():
        print(f"error: no ccorb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ccorb
    if Path(ccorb.__file__).resolve().parent != SRC / "ccorb":
        print(f"error: imported ccorb from {ccorb.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    argvs = workload_argvs(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed}")
    for cli_argv in argvs:
        print("#   ccorb " + " ".join(cli_argv))
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else untraced
    values, ops = run(args.workload, args.seed, argvs, args.seconds)

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    correct = all(op["correct"] for op in ops)
    metrics = {}
    for m in load_metrics(bool(args.trace)):
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = (f"  (ROADMAP: {ROADMAP_FIGURES[m['name']]} {m['unit']})"
                if m["name"] in ROADMAP_FIGURES else "")
        print(f"{m['name']} = {value:.6g} {m['unit']}{note}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed) seed {args.seed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
