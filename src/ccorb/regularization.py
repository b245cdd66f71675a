"""Collision regularization on the cotangent bundle of the momentum sphere.

Collisions of the massless body with the primary O are removed in two
steps.  First the flow on {H = -f} is rescaled by |q|, giving

    K = |q|(|p|^2 + 1)/2 + (p1 q2 - p2 (q1 - mu) + f - 1/2)|q|
        - mu |q|/|q - E| - (1 - mu),

which vanishes exactly where H = -f (for q != O).  Second, momentum space
is compactified to a sphere by stereographic projection, with p playing the
role of position and -q of momentum; collisions |p| -> infinity become the
regular fiber over the north pole.  Two charts cover the sphere:

    North: a = p,          b = q
    South: a = p/|p|^2,    b = |p|^2 q - 2 (p.q) p

In either chart the shifted quantity G := K + (1 - mu) has the single
closed-form expression

    G = |b|(1 + |a|^2)/2 + r (a1 b2 - a2 b1) + mu a2 |b|
        + (f - 1/2) r - mu r / |q(a,b) - E|

with r = |b| in the North chart and r = |a|^2 |b| in the South chart.  The
squared Hamiltonian KCheck = G^2/2 is smooth across the collision locus
a = 0 of the South chart, and the flow is run on its level
target = (1 - mu)^2/2.  Physical trajectories live on the branch
G = +(1 - mu) (i.e. K = 0); the branch G = -(1 - mu) is never entered
because G is conserved and every start is placed on the physical branch.

The collision states themselves form the Legendrian circle
{a = 0, |b| = 2(1 - mu)} in the South chart; b there encodes the collision
ray: approaching or ejecting along the unit ray u corresponds to
b = -2(1 - mu) u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import SINGULAR_DISTANCE, PhaseState, SystemParams
from .errors import AtCollisionError, SingularInputError, UsageError


#: |b| below which the chart kernels treat the fiber coordinate as b = 0
SINGULAR_FIBER = 1e-300


class Chart(Enum):
    """Stereographic chart tag; South contains the collision locus a = 0."""

    NORTH = "N"
    SOUTH = "S"


@dataclass(frozen=True)
class MoserChartPoint:
    """A point of the regularized phase space in one stereographic chart.

    ``a`` is the base (sphere) coordinate, ``b`` the fiber coordinate; the
    canonical symplectic pairs are (a, -b).  The cross product
    a1 b2 - a2 b1 is chart-independent and equals the physical
    p1 q2 - p2 q1.
    """

    chart: Chart
    a: tuple[float, float]
    b: tuple[float, float]


@dataclass(frozen=True)
class RegularizedLevel:
    """Energy data of the regularized flow.

    ``target`` is the conserved KCheck value (1 - mu)^2 / 2 on which all
    searches run; ``f`` is the energy offset, c = -f the Jacobi energy.
    """

    params: SystemParams
    f: float

    @property
    def target(self) -> float:
        one_minus_mu = 1.0 - self.params.mu
        return 0.5 * one_minus_mu * one_minus_mu

    @property
    def c(self) -> float:
        return -self.f


def k_value(state: PhaseState, level: RegularizedLevel) -> float:
    """Rescaled Hamiltonian K = |q| (H + f) in physical coordinates.

    K = 0 is equivalent to H = -f away from O, and K extends continuously
    to q = O with value -(1 - mu).  Evaluation at q = E is singular.
    """
    q1, q2 = state.q
    p1, p2 = state.p
    mu = level.params.mu
    f = level.f
    r = math.hypot(q1, q2)
    if mu != 0.0:
        d = math.hypot(q1 - 1.0, q2)
        if d < SINGULAR_DISTANCE:
            raise SingularInputError("K is singular at the primary E")
        e_term = mu * r / d
    else:
        e_term = 0.0
    return (r * (p1 * p1 + p2 * p2 + 1.0) * 0.5
            + (p1 * q2 - p2 * (q1 - mu) + f - 0.5) * r
            - e_term - (1.0 - mu))


def fiber_image(a1: float, a2: float, b1: float, b2: float
                ) -> tuple[float, float]:
    """Fiber half of the chart involution: |a|^2 b - 2 (a.b) a.

    Applied to a South-chart point it is the physical position q, which
    stays regular (and is O) on the collision fiber a = 0.
    """
    alpha = a1 * a1 + a2 * a2
    w = a1 * b1 + a2 * b2
    return alpha * b1 - 2.0 * w * a1, alpha * b2 - 2.0 * w * a2


def fiber_ray(chart: Chart, a1: float, a2: float, v1, v2, mu: float,
              f: float):
    """G along the fiber rays b = t v, t > 0, over the chart point a.

    G(t) = c1 t + c2 t^2 - mu rho t / d(t), with rho = |a|^2 in the South
    chart and 1 in the North, and d(t) = sqrt(rho^2 t^2 - 2 t w1 + 1) the
    distance to E of the position t w the ray maps to (w = v in the North
    chart, the :func:`fiber_image` of v in the South).  Returns
    (c1, c2, rho, w1), the arguments of :func:`ray_g` and :func:`ray_gp`
    after t; ``v1``, ``v2`` may be numpy columns, and c2 and w1 then are.
    """
    alpha = a1 * a1 + a2 * a2
    rho = 1.0 if chart is Chart.NORTH else alpha
    w1 = v1 if chart is Chart.NORTH else fiber_image(a1, a2, v1, v2)[0]
    return (0.5 * (1.0 + alpha) + mu * a2 + (f - 0.5) * rho,
            rho * (a1 * v2 - a2 * v1), rho, w1)


def ray_g(t, c1, c2, rho, w1, mu: float, sqrt=math.sqrt):
    """G(t) along a :func:`fiber_ray`: one float formula for floats and,
    with ``sqrt`` = ``np.sqrt``, for numpy arrays, bit for bit."""
    if mu == 0.0:
        return c1 * t + c2 * t * t
    d = sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
    return c1 * t + c2 * t * t - mu * rho * t / d


def ray_gp(t, c1, c2, rho, w1, mu: float, sqrt=math.sqrt):
    """G'(t) along a :func:`fiber_ray`, for floats and numpy arrays; its
    ``d ** 3`` goes through ``pow`` (numpy's ``power`` on arrays), so the
    float value, which the margins use, follows the platform's libm."""
    if mu == 0.0:
        return c1 + 2.0 * c2 * t
    d = sqrt(rho * rho * t * t - 2.0 * t * w1 + 1.0)
    return c1 + 2.0 * c2 * t - mu * rho * (1.0 - t * w1) / d ** 3


def chart_position(chart: Chart, a1: float, a2: float, b1: float,
                   b2: float) -> tuple[float, float]:
    """Physical position q represented by chart data.

    b in the North chart, :func:`fiber_image` in the South chart, which
    maps the collision fiber a = 0 to O; :func:`g_and_gradient` inlines it.
    """
    if chart is Chart.NORTH:
        return b1, b2
    return fiber_image(a1, a2, b1, b2)


def g_value(chart: Chart, a1: float, a2: float, b1: float, b2: float,
            mu: float, f: float) -> float:
    """Shifted Hamiltonian G = K + (1 - mu) in chart coordinates.

    Implemented through the smooth substitutions |q| = |a|^2 |b|,
    p1 q2 - p2 q1 = a1 b2 - a2 b1 and p2 |q| = a2 |b| (South chart), so the
    collision locus a = 0 is a regular interior point of the formula.
    """
    beta = math.hypot(b1, b2)
    alpha = a1 * a1 + a2 * a2
    cross = a1 * b2 - a2 * b1
    q1, q2 = chart_position(chart, a1, a2, b1, b2)
    r = beta if chart is Chart.NORTH else alpha * beta
    if mu != 0.0:
        d = math.hypot(q1 - 1.0, q2)
        if d < SINGULAR_DISTANCE:
            raise SingularInputError(
                "chart point pulls back to the primary E (singular)")
        e_term = mu * r / d
    else:
        e_term = 0.0
    return (beta * (1.0 + alpha) * 0.5 + r * cross + mu * a2 * beta
            + (f - 0.5) * r - e_term)


def _refuse_singular(beta: float, d: float | None = None) -> None:
    """The ``seen`` of the scalar kernels: raise at b = 0 and at q = E."""
    if beta < SINGULAR_FIBER:
        raise SingularInputError("fiber coordinate b = 0 is singular")
    if d is not None and d < SINGULAR_DISTANCE:
        raise SingularInputError(
            "chart point pulls back to the primary E (singular)")


def north_field(a1, a2, b1, b2, mu: float, f: float, sqrt, seen):
    """North-chart G, its chart gradient and r = |q| = |b|: (G, dG/da1,
    dG/da2, dG/db1, dG/db2, r).

    G = |b| c0 with c0 = |a|^2/2 + s + mu a2 and s = a1 b2 - a2 b1 + f
    - mu/|b - E|.  One text serves floats (``sqrt`` = ``math.sqrt``) and
    numpy lanes (``np.sqrt``): it uses only + - * /, sqrt and no branch on
    the lane data, so the two agree bit for bit.  ``seen(beta)`` or
    ``seen(beta, d)`` gets |b| and the distance to E before they divide
    anything.
    """
    beta = sqrt(b1 * b1 + b2 * b2)
    alpha = a1 * a1 + a2 * a2
    cross = a1 * b2 - a2 * b1
    if mu != 0.0:
        e1 = b1 - 1.0
        d = sqrt(e1 * e1 + b2 * b2)
        seen(beta, d)
        inv_d = 1.0 / d
        mi = mu * inv_d
        k = mi * beta * inv_d * inv_d
    else:
        seen(beta)
        e1 = mi = k = 0.0  # mu-weighted terms vanish identically
    c0 = 0.5 * alpha + (cross + f - mi) + mu * a2
    cb = c0 / beta
    return (beta * c0, beta * (a1 + b2), beta * (a2 - b1 + mu),
            cb * b1 - beta * a2 + k * e1, cb * b2 + beta * a1 + k * b2, beta)


def south_field(a1, a2, b1, b2, mu: float, f: float, sqrt, seen):
    """South-chart G, its chart gradient and r = |q| = |a|^2 |b|.

    G = |b| p with p = 1/2 + |a|^2 s + mu a2 and
    s = a1 b2 - a2 b1 + f - mu/|q - E|, q = |a|^2 b - 2 (a.b) a.
    With e = q - E, the E term enters the gradient through
    e . dq/da = 2 (cross e2 - w e1, -(cross e1 + w e2)) and
    e . dq/db = |a|^2 e - 2 (e.a) a, where w = a.b.  Same conventions as
    :func:`north_field`.
    """
    beta = sqrt(b1 * b1 + b2 * b2)
    alpha = a1 * a1 + a2 * a2
    cross = a1 * b2 - a2 * b1
    w = a1 * b1 + a2 * b2
    r = alpha * beta
    if mu != 0.0:
        tw = w + w
        e1 = alpha * b1 - tw * a1 - 1.0
        e2 = alpha * b2 - tw * a2
        d = sqrt(e1 * e1 + e2 * e2)
        seen(beta, d)
        inv_d = 1.0 / d
        mi = mu * inv_d
        k = mi * r * inv_d * inv_d
    else:
        seen(beta)
        e1 = e2 = mi = k = 0.0  # mu-weighted terms vanish identically
    s = cross + f - mi
    p = 0.5 + alpha * s + mu * a2
    k2 = k + k
    ka = k * alpha
    kea = k2 * (e1 * a1 + e2 * a2)
    bs = beta * (s + s)
    pb = p / beta
    return (beta * p,
            bs * a1 + r * b2 + k2 * (cross * e2 - w * e1),
            bs * a2 + mu * beta - r * b1 - k2 * (cross * e1 + w * e2),
            pb * b1 - r * a2 + (ka * e1 - kea * a1),
            pb * b2 + r * a1 + (ka * e2 - kea * a2), r)


def g_and_gradient(chart: Chart, a1: float, a2: float, b1: float, b2: float,
                   mu: float, f: float
                   ) -> tuple[float, float, float, float, float, float]:
    """G together with its hand-differentiated chart gradient and |q|.

    Returns
    -------
    tuple of float
        (G, dG/da1, dG/da2, dG/db1, dG/db2, r), from :func:`north_field`
        or :func:`south_field`, with r = |q| the rate dt_phys/ds / G of
        the physical clock.  The integration hot path; plain floats.

    Raises
    ------
    SingularInputError
        At b = 0, or where the chart point pulls back to the primary E.
    """
    if chart is Chart.NORTH:
        return north_field(a1, a2, b1, b2, mu, f, math.sqrt,
                           _refuse_singular)
    return south_field(a1, a2, b1, b2, mu, f, math.sqrt, _refuse_singular)


def kcheck_value(pt: MoserChartPoint, level: RegularizedLevel) -> float:
    """Squared regularized Hamiltonian KCheck = (K + (1 - mu))^2 / 2.

    Evaluated through the chart closed form (never by pulling back to a
    physical state), so the South-chart pole a = 0 is a regular point with
    the expansion K(0, b) = |b|/2 - (1 - mu).
    """
    g = g_value(pt.chart, pt.a[0], pt.a[1], pt.b[0], pt.b[1],
                level.params.mu, level.f)
    return 0.5 * g * g


def chart_transition(pt: MoserChartPoint) -> MoserChartPoint:
    """Map a chart point to the other chart: a' = a/|a|^2, b' = |a|^2 b - 2(a.b)a.

    The map is an involution (cotangent lift of the base inversion); it
    preserves the canonical one-form -b.da, hence also the cross product
    a1 b2 - a2 b1.  The pole a = 0 has no image.
    """
    a1, a2 = pt.a
    alpha = a1 * a1 + a2 * a2
    if alpha == 0.0:
        raise UsageError("the pole a = 0 has no image in the other chart")
    other = Chart.SOUTH if pt.chart is Chart.NORTH else Chart.NORTH
    return MoserChartPoint(chart=other, a=(a1 / alpha, a2 / alpha),
                           b=fiber_image(a1, a2, *pt.b))


def physical_state(pt: MoserChartPoint) -> PhaseState:
    """Invert the regularization embedding back to a physical (q, p) state.

    Raises
    ------
    AtCollisionError
        At the South-chart pole a = 0, which carries no physical momentum.
    """
    if pt.chart is Chart.SOUTH:
        try:
            pt = chart_transition(pt)
        except UsageError as exc:
            raise AtCollisionError(
                "chart point is at the collision locus a = 0; no physical "
                "momentum exists there") from exc
    return PhaseState(q=pt.b, p=pt.a)


def phase_to_chart(state: PhaseState) -> MoserChartPoint:
    """Embed a physical state in the chart suited to its momentum size.

    Slow momenta (|p| <= 1) go to the North chart where a = p; fast
    momenta go to the South chart, keeping |a| bounded near collisions.
    """
    north = MoserChartPoint(chart=Chart.NORTH, a=state.p, b=state.q)
    if math.hypot(*state.p) <= 1.0:
        return north
    return chart_transition(north)


def legendrian_membership(pt: MoserChartPoint, level: RegularizedLevel,
                          tol: float) -> bool:
    """Test membership in the Legendrian collision circle.

    True iff the point lies in the South chart with |a| < tol and
    |KCheck - target| < tol, i.e. on the intersection of the energy
    hypersurface with the fiber over the north pole.
    """
    if pt.chart is not Chart.SOUTH:
        return False
    if math.hypot(pt.a[0], pt.a[1]) >= tol:
        return False
    return abs(kcheck_value(pt, level) - level.target) < tol


def collision_point(ray: tuple[float, float], level: RegularizedLevel
                    ) -> MoserChartPoint:
    """Legendrian point for a collision along the unit ray ``ray``.

    Both approach and ejection along the ray u share the fiber coordinate
    b = -2 (1 - mu) u; the returned point is a valid initial condition for
    the regularized flow (ejection direction is determined by the flow).
    """
    ux, uy = ray
    n = math.hypot(ux, uy)
    if n == 0.0:
        raise UsageError("collision ray must be a nonzero direction")
    scale = -2.0 * (1.0 - level.params.mu) / n
    return MoserChartPoint(chart=Chart.SOUTH, a=(0.0, 0.0),
                           b=(scale * ux, scale * uy))
