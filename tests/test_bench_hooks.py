"""The benchmark's hooks into the package still resolve.

``perfbench/tracing.py`` wraps the layer functions it names by (module,
attribute) and skips, with only a note, any name it cannot find, so the
metrics fed by that name would silently read 0.  ``perfbench/run.py``
times a set-up snippet in a fresh interpreter and calls a few library
functions directly.  These tests fail as soon as a change to the package
breaks one of those hooks.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from ccorb import (
    Branch,
    EnergyLevel,
    Flow,
    IntegrationSettings,
    RegularizedLevel,
    ShotSpec,
    SystemParams,
    axis_initial_state,
    first_critical_value,
    hill_component_interval,
    integrate,
    miss_function,
    phase_to_chart,
    scan_and_bracket,
    starshape_scan,
)
from ccorb.regularization import Chart, g_and_gradient

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` by path, without running its main."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    missing = []
    for module, attr in tracing.SPANS + tracing.COUNTS:
        try:
            owner, name = tracing._resolve(module, attr)
            getattr(owner, name)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_the_operation_finds_the_scan_it_wraps():
    """``perfbench/op.py`` counts brackets by wrapping the name
    ``scan_and_bracket`` of ``ccorb.cli``."""
    import ccorb.cli
    assert ccorb.cli.scan_and_bracket is scan_and_bracket


def test_setup_code_runs():
    run = _load("run")
    exec(compile(run.SETUP_CODE, "SETUP_CODE", "exec"), {})


def test_direct_calls_match_the_signatures():
    """The argument lists ``perfbench/run.py`` passes still bind."""
    params = SystemParams(0.1)
    level = RegularizedLevel(params, f=1.9)
    settings = IntegrationSettings()
    spec = ShotSpec(s=0.5, branch=Branch.MINUS, params=params, level=level)
    calls = [
        (scan_and_bracket, ((0.1, 0.5), 8, Branch.PLUS, params, level,
                            settings), {"k_max": 3, "jobs": 2}),
        (miss_function, (spec, settings), {"pericenter_index": 3}),
        (integrate, (Flow.REGULARIZED, None, level,
                     IntegrationSettings(t_max=1.0)), {}),
        (starshape_scan, (params, level, 40, 40), {}),
        (g_and_gradient, (Chart.NORTH, 0.1, 0.2, 0.3, 0.4, 0.1, 1.9), {}),
        (hill_component_interval, (params, EnergyLevel(f=1.9)), {}),
        (first_critical_value, (params,), {}),
        (axis_initial_state, (spec,), {}),
        (phase_to_chart, (None,), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
