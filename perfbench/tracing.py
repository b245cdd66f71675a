"""In-memory span tracer around the public functions of each ccorb layer.

``Tracer.install()`` replaces, at run time, each layer function named in
``SPANS`` and ``COUNTS`` by a wrapper, in every ``ccorb`` module that
imported it by name.  No file of the package changes.  Span wrappers
record (id, name, start, end, parent, run) in memory; count wrappers only
bump an integer, because they sit on hot paths (the chart-gradient kernel
and the dense output) where a span per call would cost more than the
call.  ``Tracer.write`` saves the spans as JSON lines when the run ends.

A name missing from the package (a later change may remove or rename
it) is skipped with a note on stderr; the metrics it feeds then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time

#: (module, attribute) wrapped with a span; "Class.method" wraps a method
SPANS = (
    ("ccorb.cli", "main"),
    ("ccorb.dynamics", "first_critical_value"),
    ("ccorb.dynamics", "hill_component_interval"),
    ("ccorb.integrator", "integrate"),
    ("ccorb.integrator", "locate_event"),
    ("ccorb.shooting", "scan_and_bracket"),
    ("ccorb.shooting", "refine_chord"),
    ("ccorb.shooting", "miss_function"),
    ("ccorb.shooting", "pericenter_hits"),
    ("ccorb.shooting", "_shoot"),
    ("ccorb.diagnostics", "chord_action"),
    ("ccorb.diagnostics", "catalog_insert"),
    ("ccorb.diagnostics", "ChordCatalog.save"),
    ("ccorb.diagnostics", "starshape_scan"),
)
#: (module, attribute) wrapped with a call counter only
COUNTS = (
    ("ccorb.regularization", "g_and_gradient"),
    ("ccorb.integrator", "Step.eval"),
)
#: deterministic work counters: they must repeat exactly run to run
COUNTERS = (
    "regularization.g_and_gradient_calls",
    "integrator.steps_accepted",
    "integrator.dense_evals",
    "shooting.grid_shots",
    "shooting.refine_shots",
    "diagnostics.rays_checked",
)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for "f" or "Class.method"."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span and call-count recorder for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            kernel0 = calls.get("g_and_gradient", 0)
            span = {"id": sid, "name": name, "start": time.perf_counter(),
                    "end": None, "parent": parent, "run": tracer.run_id}
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            span["ok"] = True
            if name == "integrate":
                span["steps"] = len(result.steps)
                span["kernel_calls"] = calls.get("g_and_gradient", 0) - kernel0
            elif name == "scan_and_bracket":
                span["sign_changes"] = sum(
                    b.kind == "sign_change" for b in result)
            elif name == "catalog_insert":
                span["inserted"] = bool(result)
            elif name == "starshape_scan":
                span["rays"] = result.rays_checked
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever ccorb imported it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ccorb" or n.startswith("ccorb.")]
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module, attr in table:
                try:
                    owner, name = _resolve(module, attr)
                    orig = getattr(owner, name)
                except AttributeError:
                    print(f"trace: {module}.{attr} not found; skipped",
                          file=sys.stderr)
                    continue
                wrapped = make(name, orig)
                owners = [owner] + [m for m in modules if m is not owner
                                    and getattr(m, name, None) is orig]
                for own in owners:
                    self._undo.append((own, name, orig))
                    setattr(own, name, wrapped)

    def uninstall(self) -> None:
        for own, name, orig in reversed(self._undo):
            setattr(own, name, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")

    # -- summary -------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-layer metrics read from the spans and call counts."""
        by_id = {s["id"]: s for s in self.spans}

        def named(name):
            return [s for s in self.spans if s["name"] == name]

        def total(name):
            return sum(s["end"] - s["start"] for s in named(name))

        def under(span, name):
            parent = span["parent"]
            while parent is not None:
                if by_id[parent]["name"] == name:
                    return True
                parent = by_id[parent]["parent"]
            return False

        def self_time(span):
            kids = [s for s in self.spans if s["parent"] == span["id"]]
            return (span["end"] - span["start"]
                    - sum(k["end"] - k["start"] for k in kids))

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        integrations = named("integrate")
        steps = sum(s.get("steps", 0) for s in integrations)
        kernel_calls = sum(s.get("kernel_calls", 0) for s in integrations)
        shots = named("_shoot") or integrations  # one integration a shot
        shot_ms = sorted(1e3 * (s["end"] - s["start"]) for s in shots)
        grid_shots = sum(under(s, "scan_and_bracket") for s in shots)
        refine_shots = sum(under(s, "refine_chord") for s in shots)
        chords = sum(s.get("ok", False) for s in named("refine_chord"))
        brackets = sum(s.get("sign_changes", 0)
                       for s in named("scan_and_bracket"))
        inserted = sum(s.get("inserted", False)
                       for s in named("catalog_insert"))
        rays = sum(s.get("rays", 0) for s in named("starshape_scan"))
        shot_s = sum(shot_ms) / 1e3
        star_s = total("starshape_scan")
        return {
            "regularization.g_and_gradient_calls":
                self.calls.get("g_and_gradient", 0),
            "integrator.dense_evals": self.calls.get("eval", 0),
            "integrator.integrate_s": total("integrate"),
            "integrator.steps_accepted": steps,
            "integrator.rhs_per_step":
                kernel_calls / steps if steps else 0.0,
            "integrator.locate_event_s": total("locate_event"),
            "shooting.grid_shots": grid_shots,
            "shooting.refine_shots": refine_shots,
            "shooting.refine_shots_per_chord":
                refine_shots / chords if chords else 0.0,
            "shooting.shot_ms_p50": _quantile(shot_ms, 0.50),
            "shooting.shot_ms_p95": _quantile(shot_ms, 0.95),
            "shooting.pericenter_share":
                total("pericenter_hits") / shot_s if shot_s else 0.0,
            "shooting.scan_s": total("scan_and_bracket"),
            "shooting.refine_s": total("refine_chord"),
            "shooting.certified_ratio":
                inserted / brackets if brackets else 0.0,
            "diagnostics.chord_action_ms":
                1e3 * median([s["end"] - s["start"]
                              for s in named("chord_action")]),
            "diagnostics.catalog_insert_ms":
                1e3 * median([self_time(s) for s in named("catalog_insert")]),
            "diagnostics.catalog_save_ms":
                1e3 * median([s["end"] - s["start"] for s in named("save")]),
            "diagnostics.starshape_scan_s": star_s,
            "diagnostics.rays_checked": rays,
            "diagnostics.ray_us": 1e6 * star_s / rays if rays else 0.0,
        }


def _quantile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_xs:
        return 0.0
    return sorted_xs[max(1, math.ceil(q * len(sorted_xs))) - 1]
