"""Consecutive collision orbits of the planar restricted three-body problem.

Library for finding and certifying collision-to-collision orbits at fixed
Jacobi energy below the first critical value: rotating-frame dynamics,
a two-chart regularization that carries the flow smoothly through
collision, an adaptive embedded Runge-Kutta integrator with dense output
and chart switching, a symmetric shooting search, and contact-geometric
diagnostics (fiberwise star-shapedness, action = Reeb period).
"""

import os as _os

# ccorb calls no BLAS: OpenBLAS gets one thread, process-wide if before numpy.
_ONE_THREAD = not any(name in _os.environ for name in (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _ONE_THREAD:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from ._version import __version__
    from .dynamics import (
        EnergyLevel,
        HillInterval,
        LagrangeConfig,
        PhaseState,
        SystemParams,
        effective_potential,
        first_critical_value,
        hamiltonian,
        hill_component_interval,
        lagrange_points,
        reflect,
    )
    from .errors import (
        AtCollisionError,
        BisectionStagnationError,
        CcorbError,
        EnergeticallyForbiddenError,
        EnergyAboveCriticalError,
        IntegrityError,
        NumericalError,
        RootFindingError,
        SingularInputError,
        SingularityApproachError,
        StepUnderflowError,
        TangentialRootError,
        UsageError,
    )
    from .regularization import (
        Chart,
        MoserChartPoint,
        RegularizedLevel,
        chart_transition,
        collision_point,
        g_value,
        k_value,
        kcheck_value,
        legendrian_membership,
        phase_to_chart,
        physical_state,
    )
    from .integrator import (
        Flow,
        IntegrationSettings,
        Trajectory,
        export_csv,
        integrate,
        locate_event,
    )
    from .shooting import (
        Bracket,
        Branch,
        Chord,
        ShotSpec,
        axis_initial_state,
        kepler_oracle_return_time,
        miss_function,
        pericenter_hits,
        refine_chord,
        scan_and_bracket,
    )
    from .diagnostics import (
        ChordCatalog,
        StarshapeReport,
        catalog_insert,
        chord_action,
        entry_from_chord,
        starshape_scan,
        symmetry_defect,
    )
finally:
    if _ONE_THREAD:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del _os, _ONE_THREAD

__all__ = [
    "__version__",
    # dynamics
    "SystemParams", "PhaseState", "EnergyLevel", "LagrangeConfig",
    "HillInterval", "hamiltonian", "reflect",
    "effective_potential", "lagrange_points", "first_critical_value",
    "hill_component_interval",
    # errors
    "CcorbError", "UsageError", "SingularInputError",
    "EnergyAboveCriticalError", "AtCollisionError",
    "EnergeticallyForbiddenError", "NumericalError", "RootFindingError",
    "StepUnderflowError", "SingularityApproachError",
    "BisectionStagnationError", "TangentialRootError", "IntegrityError",
    # regularization
    "Chart", "MoserChartPoint", "RegularizedLevel", "k_value", "g_value",
    "kcheck_value", "chart_transition", "physical_state", "phase_to_chart",
    "legendrian_membership", "collision_point",
    # integrator
    "Flow", "IntegrationSettings", "Trajectory", "integrate",
    "locate_event", "export_csv",
    # shooting
    "Branch", "ShotSpec", "Bracket", "Chord",
    "axis_initial_state", "miss_function", "scan_and_bracket",
    "refine_chord", "pericenter_hits", "kepler_oracle_return_time",
    # diagnostics
    "chord_action", "symmetry_defect", "StarshapeReport", "starshape_scan",
    "ChordCatalog", "catalog_insert", "entry_from_chord",
]
