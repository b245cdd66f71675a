"""Rotating-frame planar circular restricted three-body problem.

The heavy primary O (mass 1 - mu) sits at the origin, the light primary E
(mass mu) at (1, 0), and the frame rotates with their circular motion about
the barycenter (mu, 0).  Everything here is expressed in nondimensional
units: unit separation, unit angular velocity, total mass one.

The module provides the Hamiltonian and its vector field, the effective
potential with its critical (Lagrange) points, and the admissible axis segment
of the bounded Hill component around O.  All functions are pure; there is
no shared mutable state.
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

    ``degenerate`` marks the unbounded mu = 0 case where the whole axis is
    energetically admissible.
    """

    s_min: float
    s_max: float
    degenerate: bool = False

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
    """Hand-differentiated X_H = (dH/dp, -dH/dq) in plain floats.

    Returns (dq1/dt, dq2/dt, dp1/dt, dp2/dt); the integration hot path.
    """
    r1, r2 = _check_distances(q1, q2, mu)
    ir13 = 1.0 / (r1 * r1 * r1)
    mir23 = mu / (r2 * r2 * r2) if mu != 0.0 else 0.0
    return (
        p1 + q2,
        p2 - q1 + mu,
        p2 - mir23 * (q1 - 1.0) - (1.0 - mu) * q1 * ir13,
        -p1 - mir23 * q2 - (1.0 - mu) * q2 * ir13,
    )


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


#: ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2021): a probe
#: is pushed from the regula falsi point towards the midpoint by
#: ITP_KAPPA1 * w**2 / w0 for a bracket of width w out of a start width
#: w0 (their kappa2 = 2, taken as w * w), and may take ITP_N0 calls more
#: than plain bisection would.  Swept on the three benchmark workloads
#: (BENCH_roots.json): kappa1 = 0.05 cuts refine shots 17% from 0.2;
#: n0 = 2 spares the wide Lagrange solves
ITP_KAPPA1 = 0.05
ITP_N0 = 2


def solve_bracket(fn, lo: float, flo: float, hi: float, fhi: float,
                  width: float) -> tuple[float, float, float, float]:
    """Shrink a sign-change bracket whose end values are already known.

    ``flo`` = fn(lo) and ``fhi`` = fn(hi) lie on opposite sides of zero
    (zero counts as positive).  Each probe is an ITP point: the regula
    falsi point, truncated towards the midpoint (by at least two ulps)
    and projected into the window around the midpoint that still ends
    within ceil(log2(w0 / width)) + :data:`ITP_N0` calls, w0 = hi - lo,
    for any ``width`` of at least four ulps of the ends.  On a smooth
    simple root the bracket shrinks superlinearly; on any sign change it
    keeps that bound.  Stops once hi - lo <= ``width``, once lo and hi are
    adjacent floats, or at a probe where fn is exactly 0, which comes back
    as lo = hi.  Returns (lo, flo, hi, fhi) of the final bracket; fn is
    never called at its ends.

    The loop keeps its invariants out of the iteration (two ulps, the
    budget's span, the lo side's sign class) and writes ``max``, ``abs``
    and the sign factor as comparisons, which pick the same floats, so
    every probe is the one the plain form takes, bit for bit (the tests
    keep that form as the reference).  It calls no libm routine: the
    truncation squares w as w * w, and ceil(log2(w0 / unit)) is the
    exponent of ``math.frexp``, less one at an exact power of two, so
    the probes do not depend on the platform's ``pow`` or ``log2``, and
    :func:`solve_brackets` takes them on numpy columns.
    """
    w = hi - lo
    if not w > max(width, 0.0):
        return lo, flo, hi, fhi
    # A rounded midpoint adds up to an ulp to the halved width, so the
    # budget keeps two ulps aside at every level: a bracket within it stays
    # within it under plain halving, down to `unit` after e + 1 calls.
    tiny2 = 2.0 * math.ulp(max(abs(lo), abs(hi)))
    unit = max(width, 2.0 * tiny2)
    span = unit - tiny2
    # exponent of the widest bracket this call may leave and still keep
    # the budget, (unit - 2 tiny) 2**e + 2 tiny, counted down per call
    m, e = math.frexp(w / unit)
    e = max(0, e - (m == 0.5)) + ITP_N0 - 1
    kappa1 = ITP_KAPPA1 / w
    negative = flo < 0.0  # the sign class every lo end keeps
    while w > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: the bracket cannot shrink
        bound = math.ldexp(span, e) + tiny2
        e -= 1
        x = mid
        xf = (fhi * lo - flo * hi) / (fhi - flo)
        if lo <= xf <= hi:
            # at least two ulps: a truncation that rounds away would leave
            # regula falsi creeping along one end of a noisy function
            delta = kappa1 * (w * w)
            if delta < tiny2:
                delta = tiny2
            r = bound - 0.5 * w
            if not r > 0.0:
                r = 0.0
            if mid >= xf:
                xt = xf + delta if delta <= mid - xf else mid
                x = xt if -r <= xt - mid <= r else mid - r
            else:
                xt = xf - delta if delta <= xf - mid else mid
                x = xt if -r <= xt - mid <= r else mid + r
            if not (lo < x < hi and x - lo <= bound and hi - x <= bound):
                x = mid
        fx = fn(x)
        if fx == 0.0:
            return x, fx, x, fx
        if (fx < 0.0) == negative:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        w = hi - lo
    return lo, flo, hi, fhi


def solve_brackets(fn, lo, flo, hi, fhi, width):
    """:func:`solve_bracket` on numpy columns of brackets, lane by lane.

    ``lo``, ``flo``, ``hi`` and ``fhi`` are columns of equal length,
    ``width`` a float or such a column, and ``fn(x, lanes)`` returns fn at
    the probes ``x`` of the lanes listed in ``lanes`` (indices into the
    columns).  Every lane takes the floats of the scalar loop for finite
    ends, with ``np.where`` in place of its branches, and leaves where
    that loop returns: at ``width``, at adjacent floats, or at an exact
    zero, which comes back as lo = hi.  A lane already at or below
    ``width`` comes back as given and is never probed.  Returns new
    columns (lo, flo, hi, fhi).

    A pass costs some 70 numpy calls, whatever the width: on cos x - x to
    1e-12 a lane alone takes about 300 us against the scalar loop's 4 us,
    and a bracket about 5 us in a column of 60 and 0.8 us in one of 480.
    So the callers that solve one bracket at a time keep the scalar loop.
    """
    import numpy as np
    out = [np.array(c, dtype=float) for c in (lo, flo, hi, fhi)]
    lo, flo, hi, fhi = out
    width = np.broadcast_to(np.asarray(width, dtype=float), lo.shape)
    w = hi - lo
    # np.where(b > a, b, a) is Python's max(a, b), NaN and all
    lanes = (w > np.where(0.0 > width, 0.0, width)).nonzero()[0]
    lo, flo, hi, fhi, w, width = (
        c[lanes] for c in (lo, flo, hi, fhi, w, width))
    big = np.where(abs(hi) > abs(lo), abs(hi), abs(lo))
    # math.ulp(big) for finite big = m 2**e, 0.5 <= m < 1: 2**(e - 53),
    # and the least subnormal below the normal range
    tiny2 = 2.0 * np.where(big < math.ldexp(1.0, -1022), math.ulp(0.0),
                           np.ldexp(math.ulp(0.5), np.frexp(big)[1]))
    unit = np.where(2.0 * tiny2 > width, 2.0 * tiny2, width)
    span = unit - tiny2
    # the budget exponent e as the float 2**e, halved per call: span * 2**e
    # is ldexp(span, e) down to e = -1074, and below that both are under
    # half an ulp of tiny2
    m, e = np.frexp(w / unit)
    scale = np.ldexp(np.where(m == 0.5, 0.5, 1.0), e)
    scale = np.where(scale > 1.0, scale, 1.0) * math.ldexp(1.0, ITP_N0 - 1)
    kappa1 = ITP_KAPPA1 / w
    negative = flo < 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as floats go on
        while True:
            mid = 0.5 * (lo + hi)
            go = (w > width) & (mid != lo) & (mid != hi)
            done = (~go).nonzero()[0]
            if done.size:
                for col, now in zip(out, (lo, flo, hi, fhi)):
                    col[lanes[done]] = now[done]
                (lanes, lo, flo, hi, fhi, w, mid, width, tiny2, span, scale,
                 kappa1, negative) = (c[go] for c in (
                     lanes, lo, flo, hi, fhi, w, mid, width, tiny2, span,
                     scale, kappa1, negative))
            if not lanes.size:
                return tuple(out)
            bound = span * scale + tiny2
            scale = 0.5 * scale
            xf = (fhi * lo - flo * hi) / (fhi - flo)
            delta = kappa1 * (w * w)
            delta = np.where(delta < tiny2, tiny2, delta)
            r = bound - 0.5 * w
            r = np.where(r > 0.0, r, 0.0)
            # both branches of the scalar loop at once: xf - mid is
            # -(mid - xf), and x - -y is x + y, exactly
            right = mid >= xf
            xt = np.where(delta <= abs(mid - xf),
                          xf + np.where(right, delta, -delta), mid)
            x = np.where(abs(xt - mid) <= r, xt,
                         mid - np.where(right, r, -r))
            x = np.where((lo <= xf) & (xf <= hi) & (lo < x) & (x < hi)
                         & (x - lo <= bound) & (hi - x <= bound), x, mid)
            fx = np.asarray(fn(x, lanes), dtype=float)
            zero = fx == 0.0  # lo = hi = x, which leaves at the next pass
            low = ((fx < 0.0) == negative) | zero
            high = ~low | zero
            lo, flo = np.where(low, x, lo), np.where(low, fx, flo)
            hi, fhi = np.where(high, x, hi), np.where(high, fx, fhi)
            w = hi - lo


def _root_in(fn, lo: float, hi: float, width: float = 1e-13,
             flo: float | None = None, fhi: float | None = None) -> float:
    """A root of ``fn`` on [lo, hi], which must hold a sign change.

    The midpoint of the :func:`solve_bracket` bracket, or an end where
    ``fn`` is exactly 0.  ``flo`` and ``fhi``, when given, must be fn(lo)
    and fn(hi) bit for bit (a grid's values of the same float formula),
    and spare the two calls at the ends.
    """
    if flo is None:
        flo = fn(lo)
    if fhi is None:
        fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootFindingError(
            f"no sign change on bracket [{lo}, {hi}]", interval=(lo, hi))
    lo, _, hi, _ = solve_bracket(fn, lo, flo, hi, fhi, width)
    return 0.5 * (lo + hi)


def _roots_in(fn, lo, flo, hi, fhi, width):
    """:func:`_root_in` on numpy columns of sign-change brackets whose end
    values are known: each lane's root, bit for bit.

    ``fn(x, lanes)`` is as for :func:`solve_brackets`.  A lane whose
    ``flo`` or ``fhi`` is exactly 0 takes that end; the others are solved
    as one :func:`solve_brackets` column and take its midpoints.
    """
    import numpy as np
    lanes = ((flo != 0.0) & (fhi != 0.0)).nonzero()[0]
    a, _, b, _ = solve_brackets(
        lambda x, k: fn(x, lanes[k]), lo[lanes], flo[lanes], hi[lanes],
        fhi[lanes], np.broadcast_to(width, lo.shape)[lanes])
    roots = np.where(flo == 0.0, lo, hi)
    roots[lanes] = 0.5 * (a + b)
    return roots


def _sign_changes(up) -> list[list[int]]:
    """Each row's sign changes in the boolean 2-D array ``up``: per row, in
    order, the cells i where up[i] != up[i + 1].  One flat ``nonzero()``
    serves all rows (numpy's 2-D one is 10x slower at 32 x 256)."""
    cols = up.shape[1] - 1
    changes = [[] for _ in range(len(up))]
    for n in (up[:, 1:] != up[:, :-1]).ravel().nonzero()[0].tolist():
        j, i = divmod(n, cols)
        changes[j].append(i)
    return changes


def _first_roots(fn, xs, ps, width: float, rows: int, cols: int):
    """First root of x -> fn(x, p) along the grid ``xs``, for each p in ``ps``.

    ``fn(x, p, sqrt)`` is one float formula for an array of x against a
    column of p (``sqrt`` = ``np.sqrt``) and for floats (``math.sqrt``),
    using only + - * / and sqrt, so its grid values are its float values
    bit for bit; zero counts as negative.  The grid is evaluated in chunks
    of ``cols`` points, each sharing its first point with the last chunk,
    for up to ``rows`` values of p a pass, and a p leaves the search at
    the chunk that holds its first sign change.  The cells of all those
    first sign changes are then refined to ``width`` from their two grid
    values as one column (:func:`_roots_in`), each to the root that
    :func:`_root_in` finds on it.  Returns the roots as an ndarray, NaN
    where the grid shows no sign change.
    """
    import numpy as np  # here, so that importing this module stays light
    ps = np.asarray(ps)
    lo, flo, hi, fhi = np.full((4, len(ps)), math.nan)  # first cells
    todo = np.arange(len(ps))
    for c0 in range(0, len(xs) - 1, cols - 1):
        x = xs[c0:c0 + cols]
        for k0 in range(0, len(todo), rows):
            ks = todo[k0:k0 + rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                ys = fn(x, ps[ks, None], np.sqrt)
            for j, cells in enumerate(_sign_changes(ys > 0.0)):
                if cells:  # the row's first sign change
                    k, i = ks[j], cells[0]
                    lo[k], flo[k], hi[k], fhi[k] = (x[i], ys[j, i], x[i + 1],
                                                    ys[j, i + 1])
        todo = todo[np.isnan(lo[todo])]
    roots = np.full(len(ps), math.nan)
    found = (~np.isnan(lo)).nonzero()[0]
    p = ps[found]
    roots[found] = _roots_in(lambda x, k: fn(x, p[k], np.sqrt), lo[found],
                             flo[found], hi[found], fhi[found], width)
    return roots


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
    interval cut out by the primaries, found by :func:`solve_bracket` on
    the first component of :func:`effective_potential_gradient`, the
    gradient that the final check reads.  The two equilateral points sit
    at the equal-distance configuration (1/2, +-sqrt(3)/2).  The first
    critical value is the minimum of the three collinear energies
    (attained at L1, between the primaries).

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
            s = _root_in(lambda x: effective_potential_gradient(
                (x, 0.0), params)[0], lo, hi)
        except RootFindingError as exc:
            raise RootFindingError(
                f"collinear point {label} not bracketed in [{lo}, {hi}] "
                f"for mu={mu}", interval=(lo, hi)) from exc
        points[label] = (s, 0.0)
        values[label] = effective_potential((s, 0.0), params)
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
        pos = _root_in(lambda s: effective_potential((s, 0.0), params) - c,
                       1e-12, 1.0)
        return HillInterval(-pos, pos)
    cfg = lagrange_points(params)
    if c >= cfg.first_critical_value:
        raise EnergyAboveCriticalError(
            f"Jacobi energy {c} is not below the first critical value "
            f"{cfg.first_critical_value:.12g} for mu={mu}; the Hill "
            "component around O is not bounded there")
    s_l1 = cfg.points["L1"][0]
    s_l3 = cfg.points["L3"][0]
    pos = _root_in(lambda s: effective_potential((s, 0.0), params) - c,
                   1e-12, s_l1)
    neg = _root_in(lambda s: effective_potential((s, 0.0), params) - c,
                   s_l3, -1e-12)
    return HillInterval(neg, pos)
