"""Rotating-frame planar circular restricted three-body problem.

The heavy primary O (mass 1 - mu) sits at the origin, the light primary E
(mass mu) at (1, 0), and the frame rotates with their circular motion about
the barycenter (mu, 0).  Everything here is expressed in nondimensional
units: unit separation, unit angular velocity, total mass one.

The module provides the Hamiltonian and its vector field, the effective
potential with its critical (Lagrange) points, the admissible axis segment
of the bounded Hill component around O, and the Oberth energy-gain utility.
All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EnergyAboveCriticalError,
    RootFindingError,
    SingularInputError,
    UsageError,
)

#: positions closer than this to a primary raise :class:`SingularInputError`
SINGULAR_DISTANCE = 1e-14


@dataclass(frozen=True)
class SystemParams:
    """Mass ratio and derived geometry of the primaries.

    Parameters
    ----------
    mu : float
        Mass of the secondary E; the primary O carries 1 - mu.  The value
        0 is accepted and selects the rotating-Kepler limit used as an
        analytic oracle; the interesting regime is 0 < mu < 1.
    """

    mu: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu < 1.0):
            raise UsageError(f"mass ratio must satisfy 0 <= mu < 1, got {self.mu}")


@dataclass(frozen=True)
class PhaseState:
    """Physical rotating-frame state: position ``q`` and momentum ``p``.

    The momentum is conjugate to ``q`` in the rotating frame, i.e. it equals
    the inertial velocity expressed in rotating coordinates; the rotating
    velocity is (p1 + q2, p2 - q1 + mu).
    """

    q: tuple[float, float]
    p: tuple[float, float]

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.q[0], self.q[1], self.p[0], self.p[1])


@dataclass(frozen=True)
class EnergyLevel:
    """Fixed energy surface {H = c} with the offset convention c = -f."""

    f: float

    @property
    def c(self) -> float:
        """Jacobi energy, the conserved value of H."""
        return -self.f


@dataclass(frozen=True)
class LagrangeConfig:
    """The five Lagrange points with their energies.

    ``values`` holds H at each point (equal to the effective potential
    there); ``first_critical_value`` is the minimum of the three collinear
    values.  For mu = 0 the critical set degenerates to the unit circle and
    ``degenerate`` is set instead of raising.
    """

    points: dict[str, tuple[float, float]]
    values: dict[str, float]
    first_critical_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class HillInterval:
    """Axis segment of the Hill component around O at a fixed energy.

    Iterating yields ``(s_min, s_max)`` so the object unpacks like the
    plain pair; ``degenerate`` marks the unbounded mu = 0 case where the
    whole axis is energetically admissible.
    """

    s_min: float
    s_max: float
    degenerate: bool = False

    def __iter__(self):
        yield self.s_min
        yield self.s_max

    def contains(self, s: float) -> bool:
        return self.s_min < s < self.s_max and s != 0.0


def _check_distances(q1: float, q2: float, mu: float) -> tuple[float, float]:
    """Distances to O and E, raising on near-singular input.

    E carries no mass at mu = 0, so proximity to it is only singular for
    mu > 0.
    """
    r1 = math.hypot(q1, q2)
    r2 = math.hypot(q1 - 1.0, q2)
    if r1 < SINGULAR_DISTANCE:
        raise SingularInputError(f"position {q1, q2} is at the primary O")
    if mu != 0.0 and r2 < SINGULAR_DISTANCE:
        raise SingularInputError(f"position {q1, q2} is at the primary E")
    return r1, r2


def hamiltonian_values(q1: float, q2: float, p1: float, p2: float,
                       mu: float) -> float:
    """Plain-float Hamiltonian evaluation (integration hot path)."""
    r1, r2 = _check_distances(q1, q2, mu)
    e_term = mu / r2 if mu != 0.0 else 0.0
    return (0.5 * (p1 * p1 + p2 * p2) + p1 * q2 - p2 * (q1 - mu)
            - e_term - (1.0 - mu) / r1)


def hamiltonian(state: PhaseState, params: SystemParams) -> float:
    """Rotating-frame Hamiltonian H(q, p).

    H = |p|^2/2 + p1 q2 - p2 (q1 - mu) - mu/|q - E| - (1 - mu)/|q|,
    with both gravitational terms attractive (negative).  The mixed terms
    implement the frame rotation about the barycenter (mu, 0).

    Parameters
    ----------
    state : PhaseState
        State with q distinct from both primaries.
    params : SystemParams

    Returns
    -------
    float
        The exact arithmetic value of the formula; no smoothing near the
        singularities (they raise instead).
    """
    return hamiltonian_values(state.q[0], state.q[1], state.p[0], state.p[1],
                              params.mu)


def vector_field_values(q1: float, q2: float, p1: float, p2: float,
                        mu: float) -> tuple[float, float, float, float]:
    """Plain-float X_H evaluation (integration hot path)."""
    r1, r2 = _check_distances(q1, q2, mu)
    ir13 = 1.0 / (r1 * r1 * r1)
    mir23 = mu / (r2 * r2 * r2) if mu != 0.0 else 0.0
    return (
        p1 + q2,
        p2 - q1 + mu,
        p2 - mir23 * (q1 - 1.0) - (1.0 - mu) * q1 * ir13,
        -p1 - mir23 * q2 - (1.0 - mu) * q2 * ir13,
    )


def hamiltonian_vector_field(state: PhaseState, params: SystemParams
                             ) -> tuple[float, float, float, float]:
    """Hand-differentiated X_H = (dH/dp, -dH/dq).

    Returns
    -------
    tuple of float
        (dq1/dt, dq2/dt, dp1/dt, dp2/dt).
    """
    return vector_field_values(state.q[0], state.q[1], state.p[0], state.p[1],
                               params.mu)


def reflect(state: PhaseState) -> PhaseState:
    """Reversing reflection rho(q1, q2, p1, p2) = (q1, -q2, -p1, p2).

    H o rho = H holds exactly (term by term), and the flow satisfies
    phi_t o rho = rho o phi_{-t}.
    """
    return PhaseState(q=(state.q[0], -state.q[1]), p=(-state.p[0], state.p[1]))


def effective_potential(q: tuple[float, float], params: SystemParams) -> float:
    """Effective potential U(q) whose critical points are the Lagrange points.

    U is H restricted to the fiber-critical momenta p1 = -q2,
    p2 = q1 - mu (zero rotating velocity):

        U(q) = -((q1-mu)^2 + q2^2)/2 - (1-mu)/|q| - mu/|q - E|.

    H at a Lagrange point (with those momenta) equals U there.
    """
    q1, q2 = q
    mu = params.mu
    r1, r2 = _check_distances(q1, q2, mu)
    e_term = mu / r2 if mu != 0.0 else 0.0
    return (-0.5 * ((q1 - mu) ** 2 + q2 * q2)
            - (1.0 - mu) / r1 - e_term)


def effective_potential_gradient(q: tuple[float, float], params: SystemParams
                                 ) -> tuple[float, float]:
    """Closed-form gradient of :func:`effective_potential`."""
    q1, q2 = q
    mu = params.mu
    r1, r2 = _check_distances(q1, q2, mu)
    ir13 = 1.0 / (r1 * r1 * r1)
    mir23 = mu / (r2 * r2 * r2) if mu != 0.0 else 0.0
    return (
        -(q1 - mu) + (1.0 - mu) * q1 * ir13 + mir23 * (q1 - 1.0),
        -q2 + (1.0 - mu) * q2 * ir13 + mir23 * q2,
    )


def _axis_potential(s: float, mu: float) -> float:
    """U on the axis q2 = 0 (s may be negative; s = 0, 1 are singular)."""
    e_term = mu / abs(s - 1.0) if mu != 0.0 else 0.0
    return -0.5 * (s - mu) ** 2 - (1.0 - mu) / abs(s) - e_term


def _axis_gradient(s: float, mu: float) -> float:
    """dU/ds on the axis; vanishes exactly at the collinear points."""
    e_term = mu * (s - 1.0) / abs(s - 1.0) ** 3 if mu != 0.0 else 0.0
    return -(s - mu) + (1.0 - mu) * s / abs(s) ** 3 + e_term


def _bisect_with_secant(fn, lo: float, hi: float, width: float = 1e-13
                        ) -> float:
    """Bracketed bisection refined by one final secant step.

    Derivative-free and robust next to the axis singularities; the secant
    polish recovers the last digits that plain bisection leaves on the
    table.  ``fn`` must change sign on [lo, hi].
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootFindingError(
            f"no sign change on bracket [{lo}, {hi}]", interval=(lo, hi))
    for _ in range(200):
        if hi - lo < width:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    if fhi != flo:
        secant = lo - flo * (hi - lo) / (fhi - flo)
        if lo <= secant <= hi:
            return secant
    return 0.5 * (lo + hi)


#: bracket intervals for the three collinear points, split by O and E;
#: the far side is clipped to [-2, 0) as the root always lies inside.
_COLLINEAR_BRACKETS = {
    "L1": (1e-9, 1.0 - 1e-9),
    "L2": (1.0 + 1e-9, 2.0),
    "L3": (-2.0, -1e-9),
}


def lagrange_points(params: SystemParams) -> LagrangeConfig:
    """Locate the five Lagrange points and the first critical value.

    The three collinear points are roots of dU/ds on the axis, one in each
    interval cut out by the primaries, found by bracketed bisection with a
    secant polish.  The two equilateral points sit at the equal-distance
    configuration (1/2, +-sqrt(3)/2).  The first critical value is the
    minimum of the three collinear energies (attained at L1, between the
    primaries).

    For small mu the L1 energy follows the Hill-limit law (Szebehely,
    *Theory of Orbits*, 1967, sec. 4.5, with U = -Omega):

        U_L1 = -3/2 - (3^(4/3)/2) mu^(2/3) + (5/3) mu + O(mu^(4/3)).

    For mu = 0 the critical set of U degenerates to the whole unit circle;
    representative points on it are returned with ``degenerate`` set and
    ``first_critical_value`` = -3/2 rather than raising, so the
    rotating-Kepler oracle mode stays usable.
    """
    mu = params.mu
    if mu == 0.0:
        h = math.sqrt(3.0) / 2.0
        points = {"L1": (1.0, 0.0), "L2": (1.0, 0.0), "L3": (-1.0, 0.0),
                  "L4": (0.5, h), "L5": (0.5, -h)}
        values = {label: -1.5 for label in points}
        return LagrangeConfig(points=points, values=values,
                              first_critical_value=-1.5, degenerate=True)

    points: dict[str, tuple[float, float]] = {}
    values: dict[str, float] = {}
    for label, (lo, hi) in _COLLINEAR_BRACKETS.items():
        try:
            s = _bisect_with_secant(lambda x: _axis_gradient(x, mu), lo, hi)
        except RootFindingError as exc:
            raise RootFindingError(
                f"collinear point {label} not bracketed in [{lo}, {hi}] "
                f"for mu={mu}", interval=(lo, hi)) from exc
        points[label] = (s, 0.0)
        values[label] = _axis_potential(s, mu)
    h = math.sqrt(3.0) / 2.0
    for label, sign in (("L4", 1.0), ("L5", -1.0)):
        pt = (0.5, sign * h)
        points[label] = pt
        values[label] = effective_potential(pt, params)
    first = min(values["L1"], values["L2"], values["L3"])
    cfg = LagrangeConfig(points=points, values=values,
                         first_critical_value=first)
    _verify_gradients(cfg, params)
    return cfg


def _verify_gradients(cfg: LagrangeConfig, params: SystemParams,
                      tol: float = 1e-10) -> None:
    """Never silently return non-critical points."""
    for label, pt in cfg.points.items():
        gx, gy = effective_potential_gradient(pt, params)
        if math.hypot(gx, gy) > tol:
            raise RootFindingError(
                f"{label} failed the gradient check: |grad U| = "
                f"{math.hypot(gx, gy):.3e} at {pt}")


def first_critical_value(params: SystemParams) -> float:
    """Convenience wrapper returning only the first critical value."""
    return lagrange_points(params).first_critical_value


def hill_component_interval(params: SystemParams, level: EnergyLevel
                            ) -> HillInterval:
    """Axis segment of the bounded Hill component around O.

    Returns the maximal interval (s_min, 0) u (0, s_max) around the origin
    where U(s, 0) <= c, as the two boundary roots.  This is the admissible
    start domain of the axis shooting search.

    For mu = 0 at energies c >= -3/2 the whole axis is admissible (no
    zero-velocity boundary exists); the unbounded interval is returned
    flagged ``degenerate`` instead of raising.  For mu > 0 an energy at or
    above the first critical value is refused, since the component around O
    is then no longer separated.

    Only the Jacobi energy ``level.c`` is read, so a
    :class:`~ccorb.regularization.RegularizedLevel` serves as well.
    """
    mu = params.mu
    c = level.c
    if mu == 0.0:
        if c >= -1.5:
            return HillInterval(-math.inf, math.inf, degenerate=True)
        pos = _bisect_with_secant(lambda s: _axis_potential(s, 0.0) - c,
                                  1e-12, 1.0)
        return HillInterval(-pos, pos)
    crit = first_critical_value(params)
    if c >= crit:
        raise EnergyAboveCriticalError(
            f"Jacobi energy {c} is not below the first critical value "
            f"{crit:.12g} for mu={mu}; the Hill component around O is not "
            "bounded there")
    cfg = lagrange_points(params)
    s_l1 = cfg.points["L1"][0]
    s_l3 = cfg.points["L3"][0]
    pos = _bisect_with_secant(lambda s: _axis_potential(s, mu) - c,
                              1e-12, s_l1)
    neg = _bisect_with_secant(lambda s: _axis_potential(s, mu) - c,
                              s_l3, -1e-12)
    return HillInterval(neg, pos)


def oberth_energy_gain(v: float, dv: float) -> float:
    """Kinetic-energy gain of a burn dv applied at speed v.

    (v + dv)^2/2 - v^2/2 = dv^2/2 + v dv, exactly; the gain grows linearly
    with the speed at which the burn is spent.
    """
    return 0.5 * dv * dv + v * dv
