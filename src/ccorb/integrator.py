"""Adaptive Runge-Kutta driver for the physical and regularized flows.

Characteristics
---------------
* DOP853: the explicit Runge-Kutta pair of order 8 with error estimates
  of orders 5 and 3 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10),
  FSAL
* proportional step control with exponent 1/8, safety factor and growth
  clamps
* seventh-order dense output on every accepted step: three more stages,
  kept as seven rows of a nested polynomial, plus the rates at both ends
* event location step by step, by a bracket solve on the interpolant and
  never by step clipping, so the step sequence is independent of event
  queries
* automatic stereographic chart switching for the regularized flow with a
  hysteresis band (switch out at |a| > 1.25, re-entry happens below 0.8)
* bitwise-deterministic: no randomness, no wall-clock dependence
* one unrolled step for both state sizes: each stage input, error
  estimate and dense row is one expression per state component over
  ``zip`` of the stages.  Every sum keeps the tableau order and starts
  from the 0.0 of a plain loop over the rows of ``_A``, ``_E5`` or
  ``_D``, so the results are bit-identical to those loops; only the zero
  weights are left out.  Each vector is ``tuple([...])``: the list gives
  the tuple its exact size, which ran faster and with a lower peak memory
  than ``tuple()`` of a generator

The regularized state vector is (a1, a2, b1, b2, t_phys, tau): alongside
the chart coordinates the physical clock dt_phys/ds = G r and the contact
clock dtau/ds = -b . da/ds are integrated, so each trajectory carries its
own physical flight time and Reeb (action) time.  The physical state
vector is plain (q1, q2, p1, p2).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from . import dynamics, regularization
from .dynamics import PhaseState
from .errors import (
    NumericalError,
    SingularInputError,
    SingularityApproachError,
    StepUnderflowError,
    UsageError,
)
from .regularization import Chart, MoserChartPoint, RegularizedLevel

# ----------------------------------------------------------------------
# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10):
# stages 0-11 take the step, stage 12 is the rate at y1 (FSAL), and
# stages 13-15 feed the dense output.  Row 12 of _A holds the weights of
# the eighth-order solution.
# ----------------------------------------------------------------------
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0,
      1.0,
      0.1,
      0.2,
      0.777777777777777777777777777778)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
# error estimates: the fifth-order one is _E5 . k; the third-order one is
# _A[12] . k - _BHH[0] k[0] - _BHH[1] k[8] - _BHH[2] k[11]
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
        0.220588235294117647058823529412e-1)
# dense output: with x = (t - t0)/h and rows d0..d6,
# y(t) = y0 + x (d0 + (1-x) (d1 + x (d2 + (1-x) (d3 + x (d4 + (1-x) (d5
# + x d6)))))); d0 = y1 - y0, d1 = h f0 - d0, d2 = d0 - h f1 - d1, and
# d3..d6 are h _D[j] . k over all 16 stages.
_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)

_SAFETY = 0.9
#: step-size exponent 1/8 of the controller and the starting step
_EXPONENT = 0.125
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
#: hysteresis band of the chart switch (D5): leave a chart only above the
#: upper edge; the image lands at 1/|a| below the lower edge.
SWITCH_UPPER = 1.25
SWITCH_LOWER = 0.8
#: physical-flow guard radius around O
PHYSICAL_GUARD_RADIUS = 1e-6
#: accepted-step budget of one integration run
MAX_STEPS = 2_000_000
#: largest step the adaptive controller may take
MAX_STEP = 1.0


class Flow(Enum):
    """Which vector field is integrated."""

    PHYSICAL = "physical"
    REGULARIZED = "regularized"


@dataclass(frozen=True)
class IntegrationSettings:
    """Error control and horizon knobs.

    ``fixed_step`` disables the adaptive controller and forces a constant
    step (used by the convergence-order study); ``event_tol`` is the time
    resolution of event location in :func:`step_roots`.
    """

    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    t_max: float = 50.0
    event_tol: float = 1e-12
    fixed_step: float | None = None

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max", "event_tol",
                     "fixed_step"):
            value = getattr(self, name)
            if value is None and name == "fixed_step":
                continue
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise UsageError(
                    f"{name} must be finite and positive, got {value!r}")
            # an error of order one leaves the energy level, and the steps
            # then shrink towards the step budget for minutes
            if name in ("rel_tol", "abs_tol") and value >= 1.0:
                raise UsageError(f"{name} must be below 1, got {value!r}")


@dataclass(frozen=True, slots=True)
class Step:
    """One accepted step: its ends, the rates there, and the seven rows of
    its seventh-order dense output (see ``_D``)."""

    t0: float
    h: float
    chart: Chart | None
    y0: tuple[float, ...]
    y1: tuple[float, ...]
    f0: tuple[float, ...]
    f1: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]

    def eval(self, t: float) -> tuple[float, ...]:
        """Dense-output state at t0 <= t <= t0 + h."""
        x = (t - self.t0) / self.h
        u = 1.0 - x
        return tuple([
            y + x * (d0 + u * (d1 + x * (d2 + u * (d3 + x * (d4 + u * (
                d5 + x * d6))))))
            for y, d0, d1, d2, d3, d4, d5, d6 in zip(self.y0, *self.rows)])

    def rate(self, t: float) -> tuple[float, ...]:
        """Time derivative of the dense output at t0 <= t <= t0 + h.

        Expanded, the nested form is y0 + sum_j d_j phi_j(x) with phi_j =
        x, xu, x^2 u, x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3 and u = 1 - x; the
        weights w_j are the derivatives phi_j'(x) (w_0 = 1).
        """
        x = (t - self.t0) / self.h
        u = 1.0 - x
        xu = x * u
        w1 = u - x
        w2 = x * (u + w1)
        w3 = 2.0 * xu * w1
        w4 = x * xu * (3.0 * u - 2.0 * x)
        w5 = 3.0 * xu * xu * w1
        w6 = x * xu * xu * (4.0 * u - 3.0 * x)
        h = self.h
        return tuple([
            (d0 + w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4 + w5 * d5 + w6 * d6)
            / h for d0, d1, d2, d3, d4, d5, d6 in zip(*self.rows)])


@dataclass
class EventHit:
    """A located event: time, chart tag (None for the physical flow), state."""

    t: float
    chart: Chart | None
    y: tuple[float, ...]


class Trajectory:
    """Immutable-after-construction record of one integration run.

    Samples are the accepted step endpoints; dense output is available on
    every step through :meth:`eval`.  The conserved quantity (H for the
    physical flow, KCheck for the regularized flow) is read at all samples
    by :meth:`conserved_drift`, the energy certificate.  ``settings`` are
    the ones the run used, and ``rhs(chart, y)`` is the vector field it
    integrated; a step's ``f0`` and ``f1`` are that field at its ``y0``
    and ``y1``.
    """

    def __init__(self, flow: Flow, level: RegularizedLevel,
                 settings: IntegrationSettings, chart0: Chart | None,
                 y0: tuple[float, ...]) -> None:
        self.flow = flow
        self.level = level
        self.settings = settings
        if flow is Flow.PHYSICAL:
            self.rhs = _rhs_physical(level.params.mu)
        else:
            self.rhs = _rhs_regularized(level.params.mu, level.f)
        self._chart0 = chart0
        self._y0 = y0
        self.steps: list[Step] = []

    # -- basic geometry ------------------------------------------------
    @property
    def t_end(self) -> float:
        if not self.steps:
            return 0.0
        last = self.steps[-1]
        return last.t0 + last.h

    def samples(self):
        """Yield (t, chart, y) at the initial point and each step end."""
        yield 0.0, self._chart0, self._y0
        for st in self.steps:
            yield st.t0 + st.h, st.chart, st.y1

    def __len__(self) -> int:
        return len(self.steps)

    def eval(self, t: float) -> tuple[Chart | None, tuple[float, ...]]:
        """Dense-output state at any 0 <= t <= t_end.

        The state is reported in the chart the containing step was taken
        in; chart changes happen only at step boundaries.
        """
        if t <= 0.0:
            return self._chart0, self._y0
        if t > self.t_end:
            raise UsageError(f"time {t} beyond trajectory end {self.t_end}")
        i = bisect_left(self.steps, t, key=lambda st: st.t0 + st.h)
        st = self.steps[min(i, len(self.steps) - 1)]
        return st.chart, st.eval(t)

    # -- conserved quantity --------------------------------------------
    def conserved_value(self, chart: Chart | None,
                        y: tuple[float, ...]) -> float:
        mu = self.level.params.mu
        if self.flow is Flow.PHYSICAL:
            return dynamics.hamiltonian_values(y[0], y[1], y[2], y[3], mu)
        return 0.5 * regularization.g_value(
            chart, y[0], y[1], y[2], y[3], mu, self.level.f) ** 2

    def conserved_drift(self) -> float:
        """Maximum deviation of the conserved quantity from its start."""
        values = [self.conserved_value(chart, y)
                  for _, chart, y in self.samples()]
        return max(abs(v - values[0]) for v in values)


def _rhs_physical(mu: float):
    def rhs(chart: Chart | None, y: tuple[float, ...]) -> tuple[float, ...]:
        return dynamics.vector_field_values(y[0], y[1], y[2], y[3], mu)
    return rhs


def _rhs_regularized(mu: float, f: float):
    """Vector field of KCheck = G^2/2 with both clocks appended.

    With canonical pairs (a, -b), da/ds = -G dG/db and db/ds = G dG/da,
    smooth across a = 0 in the South chart; then dt_phys/ds = G r and
    dtau/ds = -b . da/ds.
    """
    g_and_gradient = regularization.g_and_gradient

    def rhs(chart: Chart, y: tuple[float, ...]) -> tuple[float, ...]:
        a1, a2, b1, b2 = y[0], y[1], y[2], y[3]
        g, ga1, ga2, gb1, gb2 = g_and_gradient(chart, a1, a2, b1, b2, mu, f)
        da1 = -g * gb1
        da2 = -g * gb2
        beta = math.sqrt(b1 * b1 + b2 * b2)
        if chart is Chart.NORTH:
            r = beta
        else:
            r = (a1 * a1 + a2 * a2) * beta
        return (da1, da2, g * ga1, g * ga2, g * r,
                -(b1 * da1 + b2 * da2))
    return rhs


def _error_norm(e5: tuple[float, ...], e3: tuple[float, ...],
                y0: tuple[float, ...], y1: tuple[float, ...], h: float,
                atol: float, rtol: float) -> float:
    """DOP853's scaled error of a step from its fifth- and third-order
    estimates (``h`` not yet applied): the fifth-order norm, damped where
    the third-order one is larger."""
    n5 = n3 = 0.0
    for a5, a3, u, v in zip(e5, e3, y0, y1):
        sk = atol + rtol * max(abs(u), abs(v))
        r5 = a5 / sk
        r3 = a3 / sk
        n5 += r5 * r5
        n3 += r3 * r3
    deno = n5 + 0.01 * n3
    if deno <= 0.0:
        return 0.0
    return h * n5 * math.sqrt(1.0 / (len(e5) * deno))


def _initial_step(rhs, chart, y0, f0, atol, rtol) -> float:
    """Deterministic starting-step heuristic (scaled Euler probe).

    Raises
    ------
    UsageError
        When a scaled rate overflows: a clock starts at 0, so its scale is
        ``atol`` alone, and a tiny ``atol`` cannot scale its rate.
    """
    n = len(y0)
    sc = [atol + rtol * abs(y0[i]) for i in range(n)]
    d0 = d1 = d2 = 0  # plain loops: sum() is compensated from Python 3.12
    try:
        for i in range(n):
            d0 += (y0[i] / sc[i]) ** 2
            d1 += (f0[i] / sc[i]) ** 2
    except OverflowError as exc:
        raise UsageError(
            f"tolerances abs_tol={atol!r}, rel_tol={rtol!r} are too small: "
            f"the scaled starting rate overflows ({exc})") from exc
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = tuple(y0[i] + h0 * f0[i] for i in range(n))
    try:
        f1 = rhs(chart, y1)
    except SingularInputError:
        return min(h0, MAX_STEP)
    for i in range(n):
        d2 += ((f1[i] - f0[i]) / sc[i]) ** 2
    d2 = math.sqrt(d2 / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, MAX_STEP)


def _transition_state(chart: Chart, y: tuple[float, ...]
                      ) -> tuple[Chart, tuple[float, ...]]:
    """Apply the chart transition to the leading four state components."""
    pt = regularization.chart_transition(
        MoserChartPoint(chart=chart, a=(y[0], y[1]), b=(y[2], y[3])))
    return pt.chart, (pt.a[0], pt.a[1], pt.b[0], pt.b[1]) + tuple(y[4:])


def prepare_initial(flow: Flow, initial, level: RegularizedLevel
                    ) -> tuple[Chart | None, tuple[float, ...]]:
    """Normalize an initial condition for :func:`integrate`.

    The physical flow takes a :class:`PhaseState`.  The regularized flow
    takes either a :class:`MoserChartPoint` or a :class:`PhaseState`
    (embedded into the momentum-appropriate chart); the two clock
    components start at zero.  A non-finite component is a usage error,
    and so is a regularized start off the energy level.
    """
    if flow is Flow.PHYSICAL:
        if not isinstance(initial, PhaseState):
            raise UsageError("physical flow requires a PhaseState initial")
        if not all(math.isfinite(v) for v in initial.as_tuple()):
            raise UsageError(f"initial state is not finite: {initial}")
        return None, initial.as_tuple()
    if isinstance(initial, PhaseState):
        initial = regularization.phase_to_chart(initial)
    if not isinstance(initial, MoserChartPoint):
        raise UsageError(
            "regularized flow requires a MoserChartPoint or PhaseState")
    y0 = (initial.a[0], initial.a[1], initial.b[0], initial.b[1], 0.0, 0.0)
    kc = regularization.kcheck_value(initial, level)
    if not abs(kc - level.target) <= 1e-10:  # a non-finite start fails too
        raise UsageError(
            f"initial condition is off the energy level: |KCheck - target| "
            f"= {abs(kc - level.target):.3e} > 1e-10")
    return initial.chart, y0


def integrate(flow: Flow, initial, level: RegularizedLevel,
              settings: IntegrationSettings, until=None) -> Trajectory:
    """Integrate one of the two flows up to settings.t_max.

    Parameters
    ----------
    flow : Flow
        Physical H-flow or regularized KCheck-flow.
    initial : PhaseState or MoserChartPoint
        Starting state (see :func:`prepare_initial`).
    level : RegularizedLevel
        Mass ratio and energy offset; for the physical flow only the
        parameters (and the conserved-H drift) use it.
    settings : IntegrationSettings
    until : callable, optional
        Predicate on the partial trajectory, checked after every accepted
        step; returning True stops the run early.  Termination never
        alters the step sequence up to that point.

    Raises
    ------
    SingularityApproachError
        Physical flow within :data:`PHYSICAL_GUARD_RADIUS` of O - switch
        to the regularized flow instead.
    StepUnderflowError
        Required step below floating-point resolution.
    """
    chart, y = prepare_initial(flow, initial, level)
    traj = Trajectory(flow, level, settings, chart, y)
    try:
        f_now = traj.rhs(chart, y)
    except SingularInputError as exc:
        raise UsageError(f"singular initial condition: {exc}") from exc
    return advance(traj, 0.0, first_step(traj.rhs, chart, y, f_now, settings),
                   chart, y, f_now, False, until)


def first_step(rhs, chart: Chart | None, y: tuple[float, ...],
               f_now: tuple[float, ...], settings: IntegrationSettings
               ) -> float:
    """The step size a run starts with: ``fixed_step``, or the heuristic."""
    if settings.fixed_step is not None:
        return settings.fixed_step
    return _initial_step(rhs, chart, y, f_now, settings.abs_tol,
                         settings.rel_tol)


def advance(traj: Trajectory, t: float, h: float, chart: Chart | None,
            y: tuple[float, ...], f_now: tuple[float, ...], rejected: bool,
            until=None, taken: int = 0) -> Trajectory:
    """The step loop of :func:`integrate`, from any point of a run.

    ``(t, h, chart, y, f_now, rejected)`` is the loop's whole state at the
    top of an attempt, and ``taken`` counts the steps accepted before it
    that ``traj.steps`` does not hold, so a run handed over mid-way takes
    the same steps, bit for bit, as one that started here.  Accepted
    steps are appended to ``traj.steps``.
    """
    flow, settings, rhs = traj.flow, traj.settings, traj.rhs
    atol, rtol = settings.abs_tol, settings.rel_tol
    t_max = settings.t_max
    # the nonzero weights, named by row and stage (_ marks a zero); p3..p6
    # are the rows of _D that make the dense rows d3..d6
    (_, (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6),
     (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11),
     (a13_0, _, _, _, _, _, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11,
      a13_12),
     (a14_0, _, _, _, _, a14_5, a14_6, a14_7, _, _, a14_10, a14_11, a14_12,
      a14_13),
     (a15_0, _, _, _, _, a15_5, a15_6, a15_7, a15_8, _, _, _, a15_12, a15_13,
      a15_14)) = _A
    e0, _, _, _, _, e5, e6, e7, e8, e9, e10, e11 = _E5
    bh0, bh8, bh11 = _BHH
    ((p3_0, _, _, _, _, p3_5, p3_6, p3_7, p3_8, p3_9, p3_10, p3_11, p3_12,
      p3_13, p3_14, p3_15),
     (p4_0, _, _, _, _, p4_5, p4_6, p4_7, p4_8, p4_9, p4_10, p4_11, p4_12,
      p4_13, p4_14, p4_15),
     (p5_0, _, _, _, _, p5_5, p5_6, p5_7, p5_8, p5_9, p5_10, p5_11, p5_12,
      p5_13, p5_14, p5_15),
     (p6_0, _, _, _, _, p6_5, p6_6, p6_7, p6_8, p6_9, p6_10, p6_11, p6_12,
      p6_13, p6_14, p6_15)) = _D

    while t < t_max - 1e-15 * max(1.0, abs(t_max)):
        if taken + len(traj.steps) >= MAX_STEPS:
            raise NumericalError(
                f"step budget {MAX_STEPS} exhausted at t={t}")
        h = min(h, MAX_STEP, t_max - t)
        if h < 1e-15 * max(1.0, abs(t)):
            raise StepUnderflowError(
                f"step size underflow ({h:.3e}) at t={t}", t=t)
        k0 = f_now
        try:
            ys = tuple([a + h * (0.0 + a1_0 * c0) for a, c0 in zip(y, k0)])
            k1 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a2_0 * c0 + a2_1 * c1)
                        for a, c0, c1 in zip(y, k0, k1)])
            k2 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a3_0 * c0 + a3_2 * c2)
                        for a, c0, c2 in zip(y, k0, k2)])
            k3 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a4_0 * c0 + a4_2 * c2 + a4_3 * c3)
                        for a, c0, c2, c3 in zip(y, k0, k2, k3)])
            k4 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a5_0 * c0 + a5_3 * c3 + a5_4 * c4)
                        for a, c0, c3, c4 in zip(y, k0, k3, k4)])
            k5 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a6_0 * c0 + a6_3 * c3 + a6_4 * c4
                                 + a6_5 * c5)
                        for a, c0, c3, c4, c5 in zip(y, k0, k3, k4, k5)])
            k6 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a7_0 * c0 + a7_3 * c3 + a7_4 * c4
                                 + a7_5 * c5 + a7_6 * c6)
                        for a, c0, c3, c4, c5, c6 in zip(y, k0, k3, k4, k5,
                                                         k6)])
            k7 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a8_0 * c0 + a8_3 * c3 + a8_4 * c4
                                 + a8_5 * c5 + a8_6 * c6 + a8_7 * c7)
                        for a, c0, c3, c4, c5, c6, c7 in zip(y, k0, k3, k4,
                                                             k5, k6, k7)])
            k8 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a9_0 * c0 + a9_3 * c3 + a9_4 * c4
                                 + a9_5 * c5 + a9_6 * c6 + a9_7 * c7
                                 + a9_8 * c8)
                        for a, c0, c3, c4, c5, c6, c7, c8 in zip(
                            y, k0, k3, k4, k5, k6, k7, k8)])
            k9 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a10_0 * c0 + a10_3 * c3 + a10_4 * c4
                                 + a10_5 * c5 + a10_6 * c6 + a10_7 * c7
                                 + a10_8 * c8 + a10_9 * c9)
                        for a, c0, c3, c4, c5, c6, c7, c8, c9 in zip(
                            y, k0, k3, k4, k5, k6, k7, k8, k9)])
            k10 = rhs(chart, ys)
            ys = tuple([a + h * (0.0 + a11_0 * c0 + a11_3 * c3 + a11_4 * c4
                                 + a11_5 * c5 + a11_6 * c6 + a11_7 * c7
                                 + a11_8 * c8 + a11_9 * c9 + a11_10 * c10)
                        for a, c0, c3, c4, c5, c6, c7, c8, c9, c10 in zip(
                            y, k0, k3, k4, k5, k6, k7, k8, k9, k10)])
            k11 = rhs(chart, ys)
            # the weighted stage sum: y1 = y + h dy
            dy = tuple([0.0 + b0 * c0 + b5 * c5 + b6 * c6 + b7 * c7 + b8 * c8
                        + b9 * c9 + b10 * c10 + b11 * c11
                        for c0, c5, c6, c7, c8, c9, c10, c11 in zip(
                            k0, k5, k6, k7, k8, k9, k10, k11)])
            y1 = tuple([a + h * d for a, d in zip(y, dy)])
            k12 = rhs(chart, y1)
            if settings.fixed_step is not None:
                err = 0.0
            else:
                err5 = tuple([0.0 + e0 * c0 + e5 * c5 + e6 * c6 + e7 * c7
                              + e8 * c8 + e9 * c9 + e10 * c10 + e11 * c11
                              for c0, c5, c6, c7, c8, c9, c10, c11 in zip(
                                  k0, k5, k6, k7, k8, k9, k10, k11)])
                err3 = tuple([d - bh0 * c0 - bh8 * c8 - bh11 * c11
                              for d, c0, c8, c11 in zip(dy, k0, k8, k11)])
                err = _error_norm(err5, err3, y, y1, h, atol, rtol)
            if err <= 1.0:  # the dense-output stages of an accepted step
                ys = tuple([a + h * (0.0 + a13_0 * c0 + a13_6 * c6
                                     + a13_7 * c7 + a13_8 * c8 + a13_9 * c9
                                     + a13_10 * c10 + a13_11 * c11
                                     + a13_12 * c12)
                            for a, c0, c6, c7, c8, c9, c10, c11, c12 in zip(
                                y, k0, k6, k7, k8, k9, k10, k11, k12)])
                k13 = rhs(chart, ys)
                ys = tuple([a + h * (0.0 + a14_0 * c0 + a14_5 * c5
                                     + a14_6 * c6 + a14_7 * c7 + a14_10 * c10
                                     + a14_11 * c11 + a14_12 * c12
                                     + a14_13 * c13)
                            for a, c0, c5, c6, c7, c10, c11, c12, c13 in zip(
                                y, k0, k5, k6, k7, k10, k11, k12, k13)])
                k14 = rhs(chart, ys)
                ys = tuple([a + h * (0.0 + a15_0 * c0 + a15_5 * c5
                                     + a15_6 * c6 + a15_7 * c7 + a15_8 * c8
                                     + a15_12 * c12 + a15_13 * c13
                                     + a15_14 * c14)
                            for a, c0, c5, c6, c7, c8, c12, c13, c14 in zip(
                                y, k0, k5, k6, k7, k8, k12, k13, k14)])
                k15 = rhs(chart, ys)
        except SingularInputError as exc:
            if flow is Flow.PHYSICAL:
                raise SingularityApproachError(
                    f"physical flow hit a singularity near t={t}: {exc}; "
                    "use regularized flow") from exc
            # retreat and try a smaller step through the delicate region
            rejected = True
            h *= 0.25
            continue
        if err <= 1.0:
            r0 = tuple([b - a for a, b in zip(y, y1)])
            r1 = tuple([h * c - d for c, d in zip(k0, r0)])
            r2 = tuple([d - h * c - e for d, c, e in zip(r0, k12, r1)])
            r3, r4, r5, r6 = zip(*[(
                h * (0.0 + p3_0 * c0 + p3_5 * c5 + p3_6 * c6 + p3_7 * c7
                     + p3_8 * c8 + p3_9 * c9 + p3_10 * c10 + p3_11 * c11
                     + p3_12 * c12 + p3_13 * c13 + p3_14 * c14
                     + p3_15 * c15),
                h * (0.0 + p4_0 * c0 + p4_5 * c5 + p4_6 * c6 + p4_7 * c7
                     + p4_8 * c8 + p4_9 * c9 + p4_10 * c10 + p4_11 * c11
                     + p4_12 * c12 + p4_13 * c13 + p4_14 * c14
                     + p4_15 * c15),
                h * (0.0 + p5_0 * c0 + p5_5 * c5 + p5_6 * c6 + p5_7 * c7
                     + p5_8 * c8 + p5_9 * c9 + p5_10 * c10 + p5_11 * c11
                     + p5_12 * c12 + p5_13 * c13 + p5_14 * c14
                     + p5_15 * c15),
                h * (0.0 + p6_0 * c0 + p6_5 * c5 + p6_6 * c6 + p6_7 * c7
                     + p6_8 * c8 + p6_9 * c9 + p6_10 * c10 + p6_11 * c11
                     + p6_12 * c12 + p6_13 * c13 + p6_14 * c14
                     + p6_15 * c15))
                for c0, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15
                in zip(k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15)])
            traj.steps.append(Step(t0=t, h=h, chart=chart, y0=y, y1=y1,
                                   f0=k0, f1=k12,
                                   rows=(r0, r1, r2, r3, r4, r5, r6)))
            t += h
            y = y1
            f_now = k12  # FSAL
            if flow is Flow.PHYSICAL:
                if math.hypot(y[0], y[1]) < PHYSICAL_GUARD_RADIUS:
                    raise SingularityApproachError(
                        f"physical trajectory entered |q| < "
                        f"{PHYSICAL_GUARD_RADIUS} at t={t}; use regularized "
                        "flow")
            else:
                if math.hypot(y[0], y[1]) > SWITCH_UPPER:
                    chart, y = _transition_state(chart, y)
                    f_now = rhs(chart, y)
            if settings.fixed_step is None:
                factor = (_SAFETY * err ** -_EXPONENT if err > 0.0
                          else _MAX_FACTOR)
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                if rejected:
                    factor = min(1.0, factor)
                h *= factor
            rejected = False
            if until is not None and until(traj):
                break
        else:
            rejected = True
            factor = max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT)
            h *= min(1.0, factor)
    return traj


def _crosses(direction: int, va: float, vb: float) -> bool:
    """Whether va -> vb is a root crossing kept by ``direction``."""
    return ((direction >= 0 and va < 0.0 <= vb)
            or (direction <= 0 and va > 0.0 >= vb))


def step_roots(st: Step, rhs, event, direction: int, tol: float
               ) -> list[EventHit]:
    """Roots of ``event`` within one accepted step, in time order.

    Brackets are the step's start, midpoint and end (roots less than h/2
    apart may merge); each that crosses zero as ``direction`` asks is
    shrunk on the dense output by :func:`~ccorb.dynamics.solve_bracket`
    to ``tol`` or to adjacent floats, and the hit is its midpoint.  The
    vector field at the step's ends is the step's own ``f0`` and ``f1``,
    and at the midpoint the rate of the dense output; ``rhs`` is called
    only at the solver's probes.
    """
    chart = st.chart

    def value(t: float) -> float:
        y = st.eval(t)
        return event(t, chart, y, rhs(chart, y))

    t1 = st.t0 + st.h
    tm = st.t0 + 0.5 * st.h
    ts = (st.t0, tm, t1)
    vs = (event(st.t0, chart, st.y0, st.f0),
          event(tm, chart, st.eval(tm), st.rate(tm)),
          event(t1, chart, st.y1, st.f1))
    hits: list[EventHit] = []
    for j in range(2):
        if not _crosses(direction, vs[j], vs[j + 1]):
            continue
        lo, _, hi, _ = dynamics.solve_bracket(
            value, ts[j], vs[j], ts[j + 1], vs[j + 1], tol)
        t_star = 0.5 * (lo + hi)
        hits.append(EventHit(t=t_star, chart=chart, y=st.eval(t_star)))
    return hits


def locate_event(traj: Trajectory, event, direction: int = 0
                 ) -> list[EventHit]:
    """All roots of a scalar event function along a trajectory.

    Parameters
    ----------
    traj : Trajectory
    event : callable
        ``event(t, chart, y, dy) -> float``, where ``dy`` is the vector
        field ``traj.rhs(chart, y)`` (at a step's midpoint, the rate of
        the dense output, which matches it to the integration
        tolerance); piecewise smooth along the trajectory.  For minimum-type events pass the time derivative of
        the monitored quantity (e.g. the radial rate for pericenters) and
        ``direction=+1`` to keep only minima.
    direction : {-1, 0, +1}
        +1 keeps only - to + crossings, -1 only + to -, 0 both.

    Each step goes through :func:`step_roots` at the trajectory's
    ``settings.event_tol``.

    Returns
    -------
    list of EventHit
        In increasing time order; empty when no crossing exists.
    """
    tol = traj.settings.event_tol
    hits: list[EventHit] = []
    for st in traj.steps:
        hits += step_roots(st, traj.rhs, event, direction, tol)
    return hits


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
#: South-chart |a| below which a sample counts as an actual collision (the
#: physical pullback would be garbage there)
COLLISION_RADIUS = 1e-9

CSV_HEADER = "t,chart,q1,q2,p1,p2,H,Kcheck,a1,a2,b1,b2"


def _csv_row(traj: Trajectory, t: float, chart: Chart | None,
             y: tuple[float, ...]) -> str:
    mu = traj.level.params.mu
    if traj.flow is Flow.PHYSICAL:
        h_val = dynamics.hamiltonian_values(y[0], y[1], y[2], y[3], mu)
        k = regularization.k_value(
            PhaseState(q=(y[0], y[1]), p=(y[2], y[3])), traj.level)
        kcheck = 0.5 * (k + (1.0 - mu)) ** 2
        nums = ",".join(map(repr, (*y, h_val, kcheck)))
        return f"{t!r},phys,{nums},,,,"
    kcheck = traj.conserved_value(chart, y)
    if chart is Chart.SOUTH and math.hypot(y[0], y[1]) < COLLISION_RADIUS:
        phys = ",,,,"  # at collision: q, p and H are empty
    else:
        state = regularization.physical_state(
            MoserChartPoint(chart=chart, a=(y[0], y[1]), b=(y[2], y[3])))
        h_val = dynamics.hamiltonian_values(*state.q, *state.p, mu)
        phys = ",".join(map(repr, (*state.q, *state.p, h_val)))
    return (f"{t!r},{chart.value},{phys},"
            + ",".join(map(repr, (kcheck, *y[:4]))))


def export_csv(traj: Trajectory, stream, header_comments: dict | None = None
               ) -> None:
    """Write the trajectory as CSV.

    One row per sample (initial point and each accepted step end).  For
    regularized trajectories, collision passages (minima of |a|^2 dipping
    below :data:`COLLISION_RADIUS`) are additionally located on the dense
    output and inserted as rows of their own; such at-collision rows carry
    empty q/p/H fields and the chart coordinates in the a/b columns.

    ``header_comments`` (e.g. the run configuration) is embedded as
    ``# key: value`` lines above the header.
    """
    if header_comments:
        for key, value in header_comments.items():
            stream.write(f"# {key}: {value}\n")
    stream.write(CSV_HEADER + "\n")
    rows = list(traj.samples())
    if traj.flow is Flow.REGULARIZED:
        def radial_rate(t, chart, y, dy):
            # d|a|^2/dt via the chart vector field
            return 2.0 * (y[0] * dy[0] + y[1] * dy[1])
        for hit in locate_event(traj, radial_rate, direction=+1):
            if (hit.chart is Chart.SOUTH
                    and math.hypot(hit.y[0], hit.y[1]) < COLLISION_RADIUS):
                rows.append((hit.t, hit.chart, hit.y))
    rows.sort(key=lambda r: r[0])
    for t, chart, y in rows:
        stream.write(_csv_row(traj, t, chart, y) + "\n")
