"""Adaptive Runge-Kutta driver for the physical and regularized flows.

Characteristics
---------------
* DOP853: the explicit Runge-Kutta pair of order 8 with error estimates
  of orders 5 and 3 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10),
  FSAL
* one step loop, always adaptive: proportional step control with
  exponent 1/8, safety factor and growth clamps, in one function,
  ``_factor``, for this loop and the lanes, from the starting step of
  ``_initial_step``; the method's order is measured by the tests, which
  drive the generated attempt at constant steps
* seventh-order dense output: three more stages, kept as seven rows of a
  nested polynomial, plus the rates at both ends, formed only when a
  step's rows are first read, as Hairer's code forms them only when
  dense output is asked for
* event location step by step, of upward crossings only, by a bracket
  solve on the interpolant and never by step clipping, so the step
  sequence is independent of event queries; a step whose ends show no
  crossing is first screened at its midpoint on the cubic Hermite
  through its ends
* automatic stereographic chart switching for the regularized flow with a
  hysteresis band (switch out at |a| > 1.25, re-entry happens below 0.8)
* bitwise-deterministic: no randomness, no wall-clock dependence
* one straight-line attempt (stages 1-12) and one dense-output function
  (stages 13-15 and the rows) per flow, generated with the flow's vector
  field from one text at the flow's first run: each state component is
  a local float, each stage input, error estimate and dense row is one
  expression per component, and every sum keeps the tableau order and
  starts from the 0.0 of a plain loop over the rows of ``_A``, ``_E5`` or
  ``_D``, so the results are bit-identical to those loops; only the zero
  weights are left out.  The regularized attempt forms the six rates
  inline from the kernel's G, gradient and |q|, and takes no stage input
  for the two clocks, which the field never reads.  The same text writes
  the attempt of the lockstep lanes (:mod:`ccorb.lanes`), whose one
  state component is the (6, n) block of all their states; their field
  is the flow's own ``rhs`` on each chart slice, and a lane's dense rows
  come from the flow's own dense-output function on its columns

The regularized state vector is (a1, a2, b1, b2, t_phys, tau): alongside
the chart coordinates the physical clock dt_phys/ds = G r and the contact
clock dtau/ds = -b . da/ds are integrated, so each trajectory carries its
own physical flight time and Reeb (action) time.  The physical state
vector is plain (q1, q2, p1, p2).
"""

from __future__ import annotations

import dataclasses
import functools
import linecache
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
#: time resolution of event location in :func:`step_roots`
EVENT_TOL = 1e-12


class Flow(Enum):
    """Which vector field is integrated."""

    PHYSICAL = "physical"
    REGULARIZED = "regularized"


def _is_finite_number(value) -> bool:
    """A finite int or float; a bool (JSON true or false) does not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class IntegrationSettings:
    """The error tolerances of the adaptive step control and the horizon.

    Each must be a finite positive number (a bool is refused), and both
    tolerances must be below 1.
    """

    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    t_max: float = 50.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and value > 0):
                raise UsageError(
                    f"{name} must be finite and positive, got {value!r}")
            # an error of order one leaves the energy level, and the steps
            # then shrink towards the step budget for minutes
            if name in ("rel_tol", "abs_tol") and value >= 1.0:
                raise UsageError(f"{name} must be below 1, got {value!r}")


@dataclass(slots=True)
class Step:
    """One accepted step: its ends, the rates there, and the seven rows of
    its seventh-order dense output (see ``_D``).

    The rows are formed the first time :attr:`rows` or :meth:`eval` is
    read, by ``dense(chart, y0, y1, h, ks)`` from the rates ``ks`` of the
    stages in :data:`_DENSE_READS`, which the step then drops; a step
    nobody reads never runs the three dense-output stages.  Between its
    ends a step gives states only: the rate at a dense state is the flow's
    own field there, one ``rhs`` call.
    """

    t0: float
    h: float
    chart: Chart | None
    y0: tuple[float, ...]
    y1: tuple[float, ...]
    f0: tuple[float, ...]
    f1: tuple[float, ...]
    ks: tuple[float, ...] | None
    dense: object
    _rows: tuple[tuple[float, ...], ...] | None = dataclasses.field(
        default=None, init=False)

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """Rows d0..d6 of the dense output, formed at the first read.

        Raises :class:`~ccorb.errors.SingularInputError` when a
        dense-output stage meets a singular point.
        """
        if self._rows is None:
            self._rows = self.dense(self.chart, self.y0, self.y1, self.h,
                                    self.ks)
            self.ks = self.dense = None
        return self._rows

    def eval(self, t: float) -> tuple[float, ...]:
        """Dense-output state at t0 <= t <= t0 + h."""
        x = (t - self.t0) / self.h
        u = 1.0 - x
        return tuple([
            y + x * (d0 + u * (d1 + x * (d2 + u * (d3 + x * (d4 + u * (
                d5 + x * d6))))))
            for y, d0, d1, d2, d3, d4, d5, d6 in zip(self.y0, *self.rows)])


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
    the ones the run used.  A run binds its flow once, here, from the
    generated factories of :func:`_flow_code` and the flow's kernel as it
    is when the run is made: ``rhs(chart, y)`` is the vector field it
    integrated, ``attempt`` its DOP853 attempt at the run's tolerances and
    ``dense`` the dense-output function its steps form their rows with; a
    step's ``f0`` and ``f1`` are ``rhs`` at its ``y0`` and ``y1``.
    """

    def __init__(self, flow: Flow, level: RegularizedLevel,
                 settings: IntegrationSettings, chart0: Chart | None,
                 y0: tuple[float, ...]) -> None:
        self.flow = flow
        self.level = level
        self.settings = settings
        field = (dynamics.vector_field_values if flow is Flow.PHYSICAL
                 else regularization.g_and_gradient)
        code, mu, f = _flow_code(flow.value), level.params.mu, level.f
        self.rhs = code["field_of"](field, mu, f)
        self.attempt = code["bind"](field, mu, f, settings.abs_tol,
                                    settings.rel_tol, _error_norm)
        self.dense = code["dense_of"](field, mu, f)
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


def _factor(err: float, accepted: bool, rejected: bool) -> float:
    """The step-size factor after an attempt with error norm ``err``.

    An accepted step grows by up to ``_MAX_FACTOR`` (at err = 0), but not
    right after a rejection; a rejected one shrinks by at least
    ``_MIN_FACTOR``, which a NaN or infinite ``err`` also gives.  The
    lockstep lanes take their factors here too, one Python float each.
    """
    factor = (_MAX_FACTOR if accepted and err == 0.0
              else max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT))
    return min(_MAX_FACTOR if accepted and not rejected else 1.0, factor)


# ----------------------------------------------------------------------
# The vector fields and the step attempt, generated from one text
# ----------------------------------------------------------------------
#: per flow, and for the lanes of :mod:`ccorb.lanes`: the state size, the
#: lines that set up a field evaluation, the lines that set the rates
#: k{s}_0, k{s}_1, ... of stage s from the kernel ``field`` at x0..x3, and
#: those that set the clocks' rates.  The lanes' one component is the
#: (6, n) block of the regularized flow, and their kernel marks a lane
#: that meets a singular point in ``bad``
_FIELDS = {
    "physical": (4, (), (
        "k{s}_0, k{s}_1, k{s}_2, k{s}_3 = field(x0, x1, x2, x3, mu)",), ()),
    # KCheck = G^2/2 with pairs (a, -b): da/ds = -G dG/db, db/ds = G dG/da;
    # dt_phys/ds = G r with the kernel's r = |q|, and dtau/ds = -b . da/ds
    "regularized": (6, (), (
        "g, ga1, ga2, gb1, gb2, r = field(chart, x0, x1, x2, x3, mu, f)",
        "ng = -g",
        "k{s}_0 = ng * gb1",
        "k{s}_1 = ng * gb2",
        "k{s}_2 = g * ga1",
        "k{s}_3 = g * ga2"), (
        "k{s}_4 = g * r",
        "k{s}_5 = -(x2 * k{s}_0 + x3 * k{s}_1)")),
    "lanes": (1, ("n_north, bad = chart",), (
        "k{s}_0 = field(x0, n_north, mu, f, bad)",), ()),
}
#: the stages of a step, of 0-12, whose rates the dense output reads: k0
#: and k5-k12
_DENSE_READS = tuple(sorted({0, 12} | {
    j for row in (*_A[13:], *_D) for j, w in enumerate(row) if w and j < 13}))


def _dot(row, m: int) -> str:
    """``0.0 + w_0 k0_m + w_1 k1_m + ...`` over the nonzero weights."""
    return " + ".join(["0.0"] + [f"{w!r} * k{j}_{m}"
                                 for j, w in enumerate(row) if w])


def _names(prefix: str, n: int) -> str:
    return ", ".join(f"{prefix}{m}" for m in range(n))


def _flow_source(name: str) -> str:
    """The text of the factories of the flow or the lanes ``name``.

    ``bind(field, mu, f, atol, rtol, error_norm)`` returns one
    DOP853 attempt ``attempt(chart, y, k0, h) -> (err, y1, f1, ks)``: stages
    1-12, the eighth-order solution and the error norm, where ``ks`` holds
    the rates of the stages in :data:`_DENSE_READS`, stage by stage and
    component by component, in one flat tuple.  A flow's ``f1`` and ``ks``
    are None when the step is rejected; the lanes' attempt always forms
    them, since some accept.  Only the flows have ``field_of(field, mu,
    f)``, which returns the vector field ``rhs(chart, y)``, and
    ``dense_of(field, mu, f)``, which returns ``dense(chart, y, y1, h, ks)
    -> rows``: stages 13-15 and the seven dense-output rows of a step from
    its ``ks``.  The lanes' field is the flow's ``rhs`` on each chart
    slice, and a lane's rows come from the flow's ``dense`` on its columns.
    """
    n, setup, rates, clocks = _FIELDS[name]
    lanes = name == "lanes"
    inputs = min(n, 4)  # no clock: the first four components, or the block
    kept = ", ".join(f"k{s}_{m}" for s in _DENSE_READS for m in range(n))
    lines: list[str] = []

    def body(*stmts: str) -> None:
        lines.extend("        " + stmt for stmt in stmts)

    def field(s: int) -> None:
        # stage inputs read no clock, so only y1, the error estimates and
        # the dense rows read a clock's rate: not those of stages 1-4
        read = s == 12 or any(s < len(row) and row[s]
                              for row in (_A[12], _E5, *_D))
        body(*[line.format(s=s) for line in rates + (clocks if read else ())])

    def stage(s: int) -> None:  # only the field's inputs
        body(*[f"x{m} = y_{m} + h * ({_dot(_A[s], m)})"
               for m in range(inputs)])
        field(s)
    if not lanes:
        lines += ["def field_of(field, mu, f):",
                  "    def rhs(chart, y):"]
        body(*setup, "x0, x1, x2, x3 = y[0], y[1], y[2], y[3]",
             *[line.format(s="") for line in rates + clocks],
             f"return ({_names('k_', n)})")
        lines += ["    return rhs", "", "",
                  "def dense_of(field, mu, f):",
                  "    def dense(chart, y, y1, h, ks):"]
        body(*setup, f"{_names('y_', n)} = y", f"{_names('z_', n)} = y1",
             f"{kept} = ks")
        for s in range(13, 16):  # the dense-output stages
            stage(s)
        body(*[f"r0_{m} = z_{m} - y_{m}" for m in range(n)])
        body(*[f"r1_{m} = h * k0_{m} - r0_{m}" for m in range(n)])
        body(*[f"r2_{m} = r0_{m} - h * k12_{m} - r1_{m}" for m in range(n)])
        for j, row in enumerate(_D, 3):
            body(*[f"r{j}_{m} = h * ({_dot(row, m)})" for m in range(n)])
        body("return (", *[f"    ({_names(f'r{j}_', n)})," for j in range(7)],
             ")")
        lines += ["    return dense", "", ""]
    lines += ["def bind(field, mu, f, atol, rtol, error_norm):",
              "    def attempt(chart, y, k0, h):"]
    body(*setup, f"{_names('y_', n)} = y", f"{_names('k0_', n)} = k0")
    for s in range(1, 12):
        stage(s)
    body(*[f"d_{m} = {_dot(_A[12], m)}" for m in range(n)])
    body(*[f"z_{m} = y_{m} + h * d_{m}" for m in range(n)])
    body(f"y1 = ({_names('z_', n)})",
         f"{_names('x', inputs)} = {_names('z_', inputs)}")
    field(12)
    body(*[f"e5_{m} = {_dot(_E5, m)}" for m in range(n)])
    body(*[f"e3_{m} = d_{m} - {_BHH[0]!r} * k0_{m} - {_BHH[1]!r} * k8_{m}"
           f" - {_BHH[2]!r} * k11_{m}" for m in range(n)])
    body(f"err = error_norm(({_names('e5_', n)}), ({_names('e3_', n)}), "
         "y, y1, h, atol, rtol)")
    if not lanes:
        body("if not err <= 1.0:", "    return err, y1, None, None")
    body(f"return err, y1, ({_names('k12_', n)}), ({kept})")
    lines.append("    return attempt")
    return "\n".join(lines) + "\n"


@functools.cache
def _flow_code(name: str) -> dict:
    """The factories of :func:`_flow_source`, compiled when the first run
    of the flow is made, or when a lockstep loop first runs.

    The text is registered with :mod:`linecache`, so tracebacks show its
    lines.  Each factory takes the kernel, which :class:`Trajectory` hands
    it, so a kernel replaced before a run is made (say, by a call counter)
    is the one that every rate of that run calls.
    """
    source = _flow_source(name)
    filename = f"<ccorb.integrator: DOP853, {name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    scope: dict = {}
    exec(compile(source, filename, "exec"), scope)
    return scope


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
    h = _initial_step(traj.rhs, chart, y, f_now, settings.abs_tol,
                      settings.rel_tol)
    return advance(traj, 0.0, h, chart, y, f_now, False, until)


def _guard_step(t: float, h: float, taken: int) -> None:
    """Refuse an attempt at ``t`` with clamped step ``h`` after ``taken``
    steps: a spent step budget, or ``h`` below the resolution of ``t``."""
    if taken >= MAX_STEPS:
        raise NumericalError(f"step budget {MAX_STEPS} exhausted at t={t}")
    if h < 1e-15 * max(1.0, abs(t)):
        raise StepUnderflowError(
            f"step size underflow ({h:.3e}) at t={t}", t=t)


def advance(traj: Trajectory, t: float, h: float, chart: Chart | None,
            y: tuple[float, ...], f_now: tuple[float, ...], rejected: bool,
            until=None, taken: int = 0) -> Trajectory:
    """The step loop of :func:`integrate`, from any point of a run.

    ``(t, h, chart, y, f_now, rejected)`` is the loop's whole state at the
    top of an attempt, and ``taken`` counts the steps the run accepted
    before it, so a run handed over mid-way takes the same steps, bit for
    bit, and spends the same step budget as one that started here.
    Accepted steps are appended to ``traj.steps``; the loop itself never
    reads them back, so ``until`` may take them away.  A stage that meets a
    singular point sends the loop back with a quarter of the step; the
    dense-output stages run only when a step's rows are read, and a
    singular one raises :class:`~ccorb.errors.SingularInputError` there,
    out of ``until`` and this loop.
    """
    flow, t_max = traj.flow, traj.settings.t_max
    rhs, attempt, dense = traj.rhs, traj.attempt, traj.dense
    while t < t_max - 1e-15 * max(1.0, abs(t_max)):
        h = min(h, MAX_STEP, t_max - t)
        _guard_step(t, h, taken)
        try:
            err, y1, f1, ks = attempt(chart, y, f_now, h)
        except SingularInputError as exc:
            if flow is Flow.PHYSICAL:
                raise SingularityApproachError(
                    f"physical flow hit a singularity near t={t}: {exc}; "
                    "use regularized flow") from exc
            # retreat and try a smaller step through the delicate region
            rejected = True
            h *= 0.25
            continue
        if ks is None:
            h *= _factor(err, False, rejected)
            rejected = True
            continue
        traj.steps.append(Step(t, h, chart, y, y1, f_now, f1, ks, dense))
        taken += 1
        t += h
        y = y1
        f_now = f1  # FSAL
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
        h *= _factor(err, True, rejected)
        rejected = False
        if until is not None and until(traj):
            break
    return traj


def _upward(va, vb):
    """Whether va -> vb crosses zero upward, the one crossing rule of both
    step loops: on floats, or elementwise on the lanes' columns.  A NaN
    end never crosses."""
    return (va < 0.0) & (0.0 <= vb)


def _hermite_midpoint(y0, y1, f0, f1, h):
    """State and rate at the middle of a step on the cubic Hermite through
    its ends: the dense output's rows d0-d2 alone (see ``_D``), which are
    y0, y1, f0 and f1.  Component by component; a component may be the
    (6, n) block of lanes, with ``h`` one per lane."""
    ym, fm = [], []
    for a, b, fa, fb in zip(y0, y1, f0, f1):
        d0 = b - a
        d1 = h * fa - d0
        d2 = d0 - h * fb - d1
        ym.append(a + 0.5 * (d0 + 0.5 * (d1 + 0.5 * d2)))
        fm.append((d0 + 0.25 * d2) / h)
    return tuple(ym), tuple(fm)


def step_roots(st: Step, rhs, event) -> list[EventHit]:
    """The upward root of ``event`` within one accepted step, if any.

    The event is read at the step's ends from its own ``f0`` and ``f1``.
    When the ends show no upward crossing (:func:`_upward`), the midpoint
    is screened on the cubic Hermite through the ends
    (:func:`_hermite_midpoint`), and a step that shows none there either
    has no hit: its dense rows are never formed.  Otherwise the brackets
    are the step's start, midpoint and end, and every event value inside
    the step, the midpoint's and each probe's, is read alike: on the dense
    output, with ``rhs`` there (Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.6).  The two halves cannot both cross upward, so a step has at
    most one hit, and roots less than h/2 apart may merge.  The first half
    that crosses is shrunk by :func:`~ccorb.dynamics.solve_bracket` to
    :data:`EVENT_TOL` or to adjacent floats, and the hit is its midpoint.
    Reading the rows may raise :class:`~ccorb.errors.SingularInputError`,
    as an ``rhs`` call may.
    """
    chart, t0, h = st.chart, st.t0, st.h
    t1 = t0 + h
    tm = t0 + 0.5 * h
    v0 = event(t0, chart, st.y0, st.f0)
    v1 = event(t1, chart, st.y1, st.f1)
    if not _upward(v0, v1):
        ym, fm = _hermite_midpoint(st.y0, st.y1, st.f0, st.f1, h)
        vm = event(tm, chart, ym, fm)
        if not (_upward(v0, vm) or _upward(vm, v1)):
            return []

    def value(t: float) -> float:
        y = st.eval(t)
        return event(t, chart, y, rhs(chart, y))

    ts = (t0, tm, t1)
    vs = (v0, value(tm), v1)
    for j in range(2):
        if _upward(vs[j], vs[j + 1]):
            lo, _, hi, _ = dynamics.solve_bracket(
                value, ts[j], vs[j], ts[j + 1], vs[j + 1], EVENT_TOL)
            t_star = 0.5 * (lo + hi)
            return [EventHit(t=t_star, chart=chart, y=st.eval(t_star))]
    return []


def locate_event(traj: Trajectory, event) -> list[EventHit]:
    """All upward roots of a scalar event function along a trajectory.

    Parameters
    ----------
    traj : Trajectory
    event : callable
        ``event(t, chart, y, dy) -> float``, where ``dy`` is the vector
        field ``traj.rhs(chart, y)`` (at a step's ends the step's own
        rates; at a screened midpoint, the rate of the cubic Hermite
        screen, which matches it to that order); piecewise smooth along
        the trajectory.  Only - to + crossings count, so for minimum-type
        events pass the time derivative of the monitored quantity (e.g.
        the radial rate for pericenters).

    Each step goes through :func:`step_roots`, so it gives at most one
    hit, roots less than half a step apart may merge, and only the steps
    whose ends or screened midpoint show a crossing form their dense rows
    and call ``traj.rhs``, at their dense midpoint and at each probe.

    Returns
    -------
    list of EventHit
        In increasing time order; empty when no upward crossing exists.
    """
    hits: list[EventHit] = []
    for st in traj.steps:
        hits += step_roots(st, traj.rhs, event)
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
        for hit in locate_event(traj, radial_rate):
            if (hit.chart is Chart.SOUTH
                    and math.hypot(hit.y[0], hit.y[1]) < COLLISION_RADIUS):
                rows.append((hit.t, hit.chart, hit.y))
    rows.sort(key=lambda r: r[0])
    for t, chart, y in rows:
        stream.write(_csv_row(traj, t, chart, y) + "\n")
