"""Geodesic integration, closed-form transverse solutions, and
completeness verdicts for the plane-wave charts.

The geodesic system in coordinates (u, v, x) has Gamma^u = 0 on every
chart here, so u is affine-linear along every geodesic.  On a Brinkmann
chart with u chosen as the parameter the transverse equation is the Euler
equation  x'' = (b / u^2) x,  whose solution basis is decided by the sign
of the discriminant 1 + 4b.  A geodesic state is the six numbers
(u, v, x, du, dv, dx), passed as any sequence of them.

Every integration uses the explicit Runge-Kutta pair of Dormand and
Prince of order 8(5,3), DOP853 (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., section II.10), at rtol
1e-10 and atol 1e-12 unless the caller passes others.  :func:`solve_ivp`
is that method on the six floats of a state, with scipy's step control
(its initial-step heuristic, safety 0.9, step factors between 0.2 and 10
from the error to the power -1/8, a least step of 10 ulp of t, and the
last step clipped to the end of the span).  Its step is one straight-line
function generated at import from the tableau (_A, _B, _E): literal
multiply-adds on local floats, and one call per stage of
:func:`geodesic_rhs`, read from this module at call time.  The RHS returns
the two accelerations dv' and dx', the only slopes the geometry decides;
the other four are the state's own du, dv and dx, and 0.0, the slope of
du, since Gamma^u = 0.  So every stage's u-slope is du and its du-slope 0:
a step sums the x, dv and dx slopes, and the v slopes only into the new
state and its error; the sums over du are taken once per integration, and
the sums over the du-slopes are dropped (:func:`solve_ivp` says why that
is exact, signed zeros included).  The tests keep the loop over the
tableau on all six components as the step's reference, bit for bit.

:func:`solve_ivp` returns one record, :class:`GeodesicResult`, which
every reader takes as it is: the accepted steps as Python floats, how
the run ended and its work.  Every verdict record carries that work
(``nfev``, ``nsteps``).  On a half-space chart a step that ends at
u <= u_min is cut back to the crossing, found by the secant on u: every
stage's u-slope is du, so u is affine along the Runge-Kutta solution and
the secant is exact.  The boundary state is one step of that size from
the last accepted state.

Completeness verdicts are numerical *evidence*, never proofs, and the
reports say so.  :func:`completeness_report` returns the ``geodesic
--family`` JSON payload itself, a plain dict.  Incompleteness is certified
by a domain-boundary hit at finite affine parameter, not by integrator
failure; the verdict record of each hit cross-checks it against the exact
affine time (u_min - u0) / du0, computed there, and against the fitted
closed-form transverse solution.
A failed integration yields no verdict and no trajectory: it raises
:class:`SolutionLeftFloatRange`; a record over one of ``GAP_BOUNDS`` raises
:class:`EvidenceGapTooLarge`.  The work of one integration grows with
the phase of its transverse solution, so a run whose phase exceeds
``MAX_PHASE`` is refused before it starts (:class:`TransversePhaseTooLarge`).

Integration returns the trajectory only.  The conservation audit of the
first integral g(gamma', gamma') is :func:`conservation_drift`, which the
``geodesic-conservation-and-affine-u`` verify check and the tests call.
The ``geodesic --init`` rows carry g(gamma', gamma') too, and a row where
it leaves the float range raises :class:`VelocityNormNotFinite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry.charts import Constant, PowerLaw, check_domain, metric_at

DEFAULT_U_MIN = 1e-8
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_HORIZON = 1e4
# Bound on the transverse phase of one integration (see transverse_phase).
# The solver's step count grows with the phase, and past about
# ln(float max)/2 ~ 354 the growing mode's x^2, and with it v, leaves float
# range for order-one data on a hyperbolic profile.  The geodesic runs of
# verify and the benchmark stay below 80.
MAX_PHASE = 300.0
# Bounds on the cross-checks in a verdict record: a boundary hit's gap from
# the exact affine time, and the sup relative gaps of the sampled x from the
# fitted Euler solution and from the Constant-chart closed form.
GAP_BOUNDS = {
    "affine_prediction_gap": 1e-5,
    "transverse_fit_gap": 1e-6,
    "integrator_vs_closed_form_sup_rel_gap": 1e-6,
}

# The DOP853 tableau: Hairer's coefficients as scipy ships them, each the
# double nearest the published value, nonzero entries only.  Row s of _A
# holds the (j, a_sj) of stage s; _B the (j, b_j) of the order-8 solution;
# _E the (j, e5_j, e3_j) of the order-5 and order-3 error estimates.  The
# geodesic system is autonomous, so the nodes _C (c_1 .. c_11) enter no
# step; they pin the row sums of _A.
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_B = (
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
)
_C = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0,
)
_E = (
    (0, 0.01312004499419488, -0.18980075407240762),
    (5, -1.2251564463762044, 4.450312892752409),
    (6, -0.4957589496572502, 1.8915178993145003),
    (7, 1.6643771824549864, -5.801203960010585),
    (8, -0.35032884874997366, -0.4226823213237919),
    (9, 0.3341791187130175, -0.1521609496625161),
    (10, 0.08192320648511571, 0.20136540080403034),
    (11, -0.022355307863886294, 0.02265179219836082),
)
# scipy's step control for an error estimate of order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


class TransversePhaseTooLarge(ValueError):
    """The transverse solution of the requested run turns through more
    phase than MAX_PHASE, so its work is refused before it starts."""


class SolutionLeftFloatRange(ValueError):
    """A state or its derivative stopped being finite, or the step size fell
    below 10 ulp of t, before the end of the span or before u reached
    u_min: the solution left float range."""


class VelocityNormNotFinite(ValueError):
    """g(gamma', gamma') at a state of a trajectory is not a finite float:
    the metric's H x^2, or a term of the norm, leaves the float range."""


class EvidenceGapTooLarge(ValueError):
    """A sample's integration disagrees with its exact affine law or its
    closed-form transverse solution by more than the gap's bound, so the
    family's records are no evidence for a verdict."""


def velocity_norm_sq(chart: PowerLaw | Constant, state: Sequence[float]) -> float:
    g = metric_at(chart, state[:3])
    vel = np.asarray(state[3:], dtype=float)
    return float(vel @ g @ vel)


def geodesic_rhs(chart: PowerLaw | Constant, u: float, x: float, du: float, dx: float) -> list[float]:
    """The accelerations [dv', dx'] of the first-order system (u, v, x, du,
    dv, dx) on a Brinkmann chart at the state with coordinates u, x and
    velocities du, dx, in Python float arithmetic.  They are the only slopes
    the geometry decides: the others are du, dv, dx and 0.0 (Gamma^u = 0),
    and the step takes them from the state itself.

    Where Python raises on the profile (u = 0, or u**3 out of float range)
    the profile is taken in numpy's scalar arithmetic instead, which gives
    inf, nan or 0.0 there, and the integrator sees a non-finite stage.
    """
    try:
        h, dh = chart.h(u), chart.dh(u)
    except (ZeroDivisionError, OverflowError):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h, dh = float(chart.h(np.float64(u))), float(chart.dh(np.float64(u)))
    return [-0.5 * dh * x * x * du * du - 2.0 * h * x * du * dx, h * x * du * du]


def _derivative(y: Sequence[float], acc: Sequence[float]) -> list[float]:
    """The six slopes of the first-order system at the state y, whose
    accelerations are acc (:func:`geodesic_rhs`)."""
    return [y[3], y[4], y[5], 0.0, *acc]


def _hoisted_sums(du: float) -> tuple[float, ...]:
    """The sums of a step over the u-slope, which is du at every stage since
    Gamma^u = 0: the 11 stage sums of _A, the order-8 sum of _B and the
    order-5 and order-3 error sums of _E, each summed as the loop over its
    row sums it.  They are the same on every step of one integration; where
    du is +-0.0 every one of them is 0.0."""
    sums = []
    for row in (*_A[1:], _B):
        s = 0.0
        for _, a in row:
            s += a * du
        sums.append(s)
    p = q = 0.0
    for _, e5, e3 in _E:
        p += e5 * du
        q += e3 * du
    return (*sums, p, q)


def _sum(weights: Iterable[tuple[int, float]], slope: str) -> str:
    """Source of the loop's sum 0.0 + w_1 k_1 + w_2 k_2 + ..., left to right,
    over the (j, w_j) of ``weights``, where k_j is the local ``slope`` + j."""
    return " + ".join(["0.0", *(f"{w!r} * {slope}{j}" for j, w in weights)])


def _step_source() -> str:
    """Source of :func:`_dop853_step`.  The slopes of stage j are the locals
    kv{j} and kx{j}, the stage's dv and dx, which are its v- and x-slopes,
    and kdv{j} and kdx{j}, the accelerations :func:`geodesic_rhs` returns
    there.  The RHS reads u, x, du and dx, so every stage sums the x and dx
    slopes; the dv slopes are summed only at the stages whose v-slope _B or
    _E weights, and the v slopes only into the new state and the error.
    The sums over the u-slope come in ``hoisted`` (:func:`_hoisted_sums`);
    the du of every stage and of the new state is du + h * 0.0, which is
    what its sum over the du-slopes, all 0.0, gives."""

    components = ("v", "x", "dv", "dx")
    weighted = {j for j, *_ in (*_B, *_E)}

    def moved(c: str, weights) -> str:
        return f"{c} + h * ({_sum(weights, 'k' + c)})"

    stages = []
    for s, row in enumerate(_A[1:], 1):
        if s in weighted:
            stages.append(f"    kv{s} = {moved('dv', row)}")
        stages += [
            f"    kx{s} = {moved('dx', row)}",
            f"    kdv{s}, kdx{s} = rhs(chart, u + h * su{s}, {moved('x', row)}, d, kx{s})",
        ]
    error = [
        line
        for c in components
        for line in (
            f"    a, b = abs({c}), abs({c}n)",
            "    s = atol + (a if a > b else b) * rtol",
            f"    p{c} = ({_sum(((j, e5) for j, e5, _ in _E), 'k' + c)}) / s",
            f"    q{c} = ({_sum(((j, e3) for j, _, e3 in _E), 'k' + c)}) / s",
        )
    ]
    return "\n".join([
        "def dop853_step(chart, y, acc, h, hoisted, rtol, atol):",
        "    rhs = geodesic_rhs",
        "    u, v, x, du, dv, dx = y",
        f"    {', '.join(f'su{s}' for s in range(1, len(_A)))}, sb, pu, qu = hoisted",
        "    d = du + h * 0.0",
        "    kv0, kx0 = dv, dx",
        "    kdv0, kdx0 = acc",
        *stages,
        "    un = u + h * sb",
        *(f"    {c}n = {moved(c, _B)}" for c in components),
        "    y_new = (un, vn, xn, d, dvn, dxn)",
        "    if rtol is None:",
        "        return y_new, None",
        "    a, b = abs(u), abs(un)",
        "    s = atol + (a if a > b else b) * rtol",
        "    pu, qu = pu / s, qu / s",
        *error,
        "    err5 = pu * pu + pv * pv + px * px + pdv * pdv + pdx * pdx",
        "    if not err5:  # the norm is 0 then, and 0 / 0 where err3 is 0 too",
        "        return y_new, 0.0",
        "    err3 = qu * qu + qv * qv + qx * qx + qdv * qdv + qdx * qdx",
        "    return y_new, abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 6.0)",
    ])


def _compiled_step():
    """:func:`_step_source` compiled in this module's namespace, so that the
    step reads ``geodesic_rhs`` from it at each call."""
    namespace = {}
    exec(compile(_step_source(), "<dop853 step>", "exec"), globals(), namespace)
    return namespace["dop853_step"]


# _dop853_step(chart, y, acc, h, hoisted, rtol, atol) -> (y_new, err): one
# DOP853 step of size h from the state y with accelerations acc, eleven
# evaluations of geodesic_rhs.  y_new is the order-8 state; err is scipy's
# error norm, the order-5 estimate damped by the order-3 one in the RMS norm
# scaled by atol + rtol max(|y|, |y_new|), or None where rtol is None.
_dop853_step = _compiled_step()


def _rms(values: Iterable[float]) -> float:
    return math.sqrt(sum(c * c for c in values) / 6.0)


def _initial_step(
    chart: PowerLaw | Constant, y: Sequence[float], acc: list, length: float, direction: float, rtol: float, atol: float
) -> float:
    """scipy's first step size for an error estimate of order 7 (Hairer,
    Norsett & Wanner, section II.4), from one trial evaluation, on the six
    slopes of the state y with accelerations acc."""
    f = _derivative(y, acc)
    scale = [atol + abs(c) * rtol for c in y]
    d0 = _rms(c / s for c, s in zip(y, scale))
    d1 = _rms(c / s for c, s in zip(f, scale))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    y1 = [c + h0 * direction * k for c, k in zip(y, f)]
    f1 = _derivative(y1, geodesic_rhs(chart, y1[0], y1[2], y1[3], y1[5]))
    # where d1 is so large that h0 underflows to 0, numpy's d2 is inf or nan
    # and the step 0, which the first step raises to its least size
    d2 = _rms((b - a) / s for a, b, s in zip(f, f1, scale)) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, length)


@dataclass(frozen=True)
class GeodesicResult:
    """The record of one integration, as :func:`solve_ivp` returns it: the
    times ``t`` of the initial state and of each accepted step, the states
    ``y`` there (tuples of six), all Python floats; ``terminated``,
    completed_span or hit_domain_boundary; ``nfev`` right-hand-side
    evaluations; and at a hit ``boundary_time``, the affine parameter where
    u reached DEFAULT_U_MIN.  The record carries no self-check:
    :func:`conservation_drift` audits a trajectory on request.
    """

    t: list[float]
    y: list[tuple[float, ...]]
    terminated: str
    nfev: int
    boundary_time: Optional[float] = None

    def csv_rows(self, chart: PowerLaw | Constant) -> list[list[float]]:
        """Rows t, u, v, x, du, dv, dx, vel_norm_sq = g(gamma', gamma').  The
        absolute error of vel_norm_sq scales with its largest term (|2 du dv|,
        |H x^2 du^2|, dx^2), the scale :func:`conservation_drift` measures
        drift against, and dv itself carries that error.  A row whose
        vel_norm_sq is not a finite float raises :class:`VelocityNormNotFinite`."""
        with np.errstate(over="ignore", invalid="ignore"):
            rows = [[t, *y, velocity_norm_sq(chart, y)] for t, y in zip(self.t, self.y)]
        for row in rows:
            if not math.isfinite(row[-1]):
                raise VelocityNormNotFinite(
                    f"g(gamma', gamma') is {row[-1]} at t = {row[0]!r}, state {row[1:7]}: "
                    "the metric H x^2 or a term of the norm leaves the float range"
                )
        return rows


def solve_ivp(
    chart: PowerLaw | Constant, y0: Sequence[float], t_span: tuple[float, float], rtol: float, atol: float
) -> GeodesicResult:
    """Integrate the geodesic system of ``chart`` with DOP853 from the state
    ``y0`` (six floats) over ``t_span`` (distinct finite ends, either
    order), and return its :class:`GeodesicResult`.  On a half-space chart
    the run stops where u reaches DEFAULT_U_MIN.  A state or initial
    derivative that is not finite, or a step size below 10 ulp of t, raises
    :class:`SolutionLeftFloatRange`; an error norm that is not finite
    rejects the step, as in scipy, and the step shrinks fivefold.

    Each step is :func:`_dop853_step`, generated at import from the tableau
    _A, _B and _E: straight-line multiply-adds on local floats and one call
    of geodesic_rhs per stage, eleven a step.  The RHS returns the
    accelerations dv' and dx'; the step takes the other slopes from the
    stage, sums the x and dx slopes at every stage and the dv slopes at
    stages 5 to 11, whose v-slope _B and _E weight, and no stage sums v,
    which nothing reads.  The six-component derivative is built only for the
    initial finiteness check and :func:`_initial_step`.  Gamma^u = 0 makes
    every stage's u-slope du and its du-slope 0, so the sums over du (the
    eleven stage sums, the order-8 sum and the error estimate's two u terms)
    are taken here, once, by :func:`_hoisted_sums`; the du of every stage
    and of the new state is du + h * 0.0, what the dropped sum over zero
    slopes gives; and the du term of the error norm, 0 / (atol + |du| rtol),
    is dropped: it is 0.0 on every step, since atol > 0, so the scale is
    positive (:func:`integrate_geodesic` refuses any other tolerance).  The
    records are bit for bit those of the loop over the tableau: a nonzero du
    is the same at every step, where du is +-0.0 every sum over it is 0.0
    whichever zero a stage sees, each kept sum starts from 0.0 as the loop's
    does, so the sign of a zero comes out the same, and a dropped sum is one
    no later sum reads."""
    t, t_end = t_span
    direction = 1.0 if t_end > t else -1.0
    u_min = DEFAULT_U_MIN if chart.half_space else -math.inf
    y = tuple(y0)
    acc = geodesic_rhs(chart, y[0], y[2], y[3], y[5])
    if not all(map(math.isfinite, (*y, *acc))):
        raise SolutionLeftFloatRange(
            f"the state {list(y)} has derivative {_derivative(y, acc)}: the solution left float range"
        )
    hoisted = _hoisted_sums(y[3])
    h_abs = _initial_step(chart, y, acc, abs(t_end - t), direction, rtol, atol)
    nfev = 2
    ts, ys = [t], [y]
    while t != t_end:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a step that is nan
                raise SolutionLeftFloatRange(
                    f"the step size fell to {h_abs:.3g} at t = {t:.6g} of span {tuple(t_span)}: "
                    "the solution left float range"
                )
            t_new = t + direction * h_abs
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, err = _dop853_step(chart, y, acc, h, hoisted, rtol, atol)
            nfev += 11
            if err < 1.0:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)  # a nan error gives 0.2
            rejected = True
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
        h_abs *= min(1.0, factor) if rejected else factor
        if not all(map(math.isfinite, y_new)):
            raise SolutionLeftFloatRange(f"the state at t = {t_new:.6g} is {list(y_new)}: the solution left float range")
        if y_new[0] <= u_min:
            # u is affine along the step, so the secant gives the crossing
            h_hit = h * (u_min - y[0]) / (y_new[0] - y[0])
            ts.append(t + h_hit)
            ys.append(_dop853_step(chart, y, acc, h_hit, hoisted, None, None)[0])
            return GeodesicResult(ts, ys, "hit_domain_boundary", nfev + 11, ts[-1])
        acc = geodesic_rhs(chart, y_new[0], y_new[2], y_new[3], y_new[5])
        nfev += 1
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
    return GeodesicResult(ts, ys, "completed_span", nfev)


def transverse_phase(chart: PowerLaw | Constant, initial: Sequence[float], span: tuple[float, float]) -> float:
    """Phase of the transverse solution over the u-range a run can cover.

    With u as the parameter, x'' = H(u) du^2 x.  On a Constant chart that
    is sqrt|h| |du| |span|.  On PowerLaw(b) the Euler equation has
    exponents (1 +- sqrt(1 + 4b)) / 2 in u, so the phase is
    (sqrt|1 + 4b| / 2) ln(u_max / u_min), where the run stops at u_min =
    DEFAULT_U_MIN.  It counts radians where the solution oscillates and
    e-folds where it grows.
    """
    du = initial[3]
    if du == 0.0:  # u is constant and x linear in t
        return 0.0
    length = span[1] - span[0]
    if isinstance(chart, Constant):
        return math.sqrt(abs(chart.h_value)) * abs(du) * abs(length)
    u0 = initial[0]
    u1 = max(u0 + du * length, DEFAULT_U_MIN)
    return math.sqrt(abs(1.0 + 4.0 * chart.b)) / 2.0 * abs(math.log(u1 / u0))


def integrate_geodesic(
    chart: PowerLaw | Constant,
    initial: Sequence[float],
    span: tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> GeodesicResult:
    """The input checks of one integration, then :func:`solve_ivp`, whose
    :class:`GeodesicResult` comes back unchanged.

    ``initial`` is the state (u, v, x, du, dv, dx); a state of another
    length raises ValueError.  ``span`` may run backwards (t1 < t0) but both
    ends must be finite and distinct.  On half-space charts the run stops
    where u reaches DEFAULT_U_MIN, and the start must lie above that
    level.  ``rtol`` and ``atol`` must be finite and greater than 0, or
    ValueError names the one that is not.  A run whose
    :func:`transverse_phase` exceeds MAX_PHASE raises
    :class:`TransversePhaseTooLarge` before any step; a run the solver
    cannot finish raises :class:`SolutionLeftFloatRange`.
    """
    if len(initial) != 6:
        raise ValueError(f"the initial state has {len(initial)} entries, not the six u, v, x, du, dv, dx")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} = {tol!r}: a tolerance must be a finite float greater than 0")
    state = [float(c) for c in initial]
    if not all(math.isfinite(t) for t in span):
        raise ValueError(f"span = {tuple(span)}: both ends must be finite")
    if span[0] == span[1]:
        raise ValueError(f"span = {tuple(span)}: the ends are equal, so the run has no step")
    check_domain(chart, state[:3])
    u0 = state[0]
    if chart.half_space and not u0 > DEFAULT_U_MIN:
        raise ValueError(f"u0 = {u0} is not above the boundary level u_min = {DEFAULT_U_MIN}")
    phase = transverse_phase(chart, state, span)
    if not phase <= MAX_PHASE:
        raise TransversePhaseTooLarge(
            f"transverse phase {phase:.4g} over span {tuple(span)} exceeds the work bound {MAX_PHASE:g}"
        )

    return solve_ivp(chart, state, (float(span[0]), float(span[1])), rtol, atol)


def conservation_drift(chart: PowerLaw | Constant, initial: Sequence[float], result: GeodesicResult) -> float:
    """Largest drift of the first integral g(gamma', gamma') from its value
    at ``initial`` over the sampled rows of ``result``, each relative to
    max(1, |q0|, the row's term scale sum |g_ij v^i v^j|): near a blow-up
    the norm is a cancellation of large terms.  Rows with u <= 0 on a
    half-space chart are skipped."""
    q0 = velocity_norm_sq(chart, initial)
    drift = 0.0
    for row in result.y:
        if chart.half_space and not row[0] > 0:
            continue
        g, vel = metric_at(chart, row[:3]), row[3:]
        scale = max(1.0, abs(q0), float(np.sum(np.abs(np.outer(vel, vel) * g))))
        drift = max(drift, abs(float(vel @ g @ vel) - q0) / scale)
    return drift


# ---------------------------------------------------------------------------
# Closed-form transverse solutions
# ---------------------------------------------------------------------------


def euler_basis(b: float, t: float):
    """Basis solutions ``(f0, f1)`` of the Euler equation x'' = (b / t^2) x
    on t > 0, and their derivatives ``(f0', f1')``:

    * 1 + 4b > 0:  t^(r+), t^(r-) with r = (1 +- sqrt(1 + 4b)) / 2
    * 1 + 4b = 0:  sqrt(t), sqrt(t) ln t
    * 1 + 4b < 0:  sqrt(t) cos(w ln t), sqrt(t) sin(w ln t),
      w = sqrt(-(1 + 4b)) / 2.
    """
    if t <= 0:
        raise ValueError("closed-form basis lives on t > 0")
    disc = 1.0 + 4.0 * b
    root = math.sqrt(t)
    if abs(disc) <= 1e-13:
        log = math.log(t)
        return (root, root * log), (0.5 / root, (log + 2.0) / (2.0 * root))
    if disc > 0:
        s = math.sqrt(disc)
        rp, rm = (1.0 + s) / 2.0, (1.0 - s) / 2.0
        return (t**rp, t**rm), (rp * t ** (rp - 1.0), rm * t ** (rm - 1.0))
    w = math.sqrt(-disc) / 2.0
    phase = w * math.log(t)
    cos, sin = math.cos(phase), math.sin(phase)
    return (root * cos, root * sin), ((0.5 * cos - w * sin) / root, (0.5 * sin + w * cos) / root)


def transverse_profile_in_u(chart: PowerLaw, initial: Sequence[float]):
    """Fitted x as a function of u along a geodesic with du/dt != 0.

    Since u is affine, x satisfies the Euler equation in the u variable with
    slope dx/du = (dx/dt) / (du/dt) at u0; x is the combination c0 f0 + c1 f1
    of :func:`euler_basis` that matches x and that slope at u0.
    """
    u0, _, x0, du0, _, dx0 = initial
    if du0 == 0.0:
        raise ValueError("horizontal geodesic: u is constant")
    slope = dx0 / du0
    c = np.linalg.solve(np.array(euler_basis(chart.b, u0)), np.array([x0, slope]))

    def x_of_u(u, _c=c, _b=chart.b):
        f0, f1 = euler_basis(_b, u)[0]
        return _c[0] * f0 + _c[1] * f1

    return x_of_u


# ---------------------------------------------------------------------------
# Constant-profile closed forms (the complete charts)
# ---------------------------------------------------------------------------


def constant_chart_transverse(chart: Constant, initial: Sequence[float]):
    """Exact global x(t) on a Constant chart: x'' = h * du0^2 * x."""
    h = chart.h_value
    _, _, x0, du0, _, dx0 = initial
    k = h * du0 * du0
    if k == 0.0:
        return lambda t: x0 + dx0 * t
    if k > 0:
        w = math.sqrt(k)
        return lambda t: x0 * math.cosh(w * t) + (dx0 / w) * math.sinh(w * t)
    w = math.sqrt(-k)
    return lambda t: x0 * math.cos(w * t) + (dx0 / w) * math.sin(w * t)


# ---------------------------------------------------------------------------
# Completeness report
# ---------------------------------------------------------------------------

FAMILIES = ("timelike", "null", "dv_orbit", "spacelike")


def sample_initial_conditions(
    chart: PowerLaw | Constant, family: str, count: int, rng: np.random.Generator
) -> list[tuple[float, ...]]:
    """Seeded initial conditions with the requested causal character.

    For families with du != 0 the v-velocity is solved from the target norm
    q = 2 du dv + g_uu du^2 + g_xx dx^2, so the causal type is exact by
    construction.  Both time orientations are drawn.
    """
    states = []
    for k in range(count):
        u0 = float(rng.uniform(0.5, 2.0))
        v0 = float(rng.uniform(-1.0, 1.0))
        x0 = float(rng.uniform(-1.0, 1.0))
        if family == "dv_orbit":
            states.append((u0, v0, x0, 0.0, 1.0, 0.0))
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        du = sign * float(rng.uniform(0.3, 1.5))
        dx = float(rng.uniform(-1.0, 1.0))
        target = {"timelike": -1.0, "null": 0.0, "spacelike": 1.0}[family]
        g = metric_at(chart, (u0, v0, x0))
        dv = float((target - g[0, 0] * du * du - dx * dx) / (2.0 * du))
        states.append((u0, v0, x0, du, dv, dx))
    return states


def _power_law_sample(chart: PowerLaw, st: Sequence[float]):
    """Integrations of one sample, and the fields its record adds.

    The direction in which u decreases goes first: a boundary hit there
    settles the sample without integrating out to the affine horizon.  A
    run that fails raises, so a sample without a hit completed the span
    both ways.
    """
    du0 = st[3]
    runs = []
    for direction in (-1.0, +1.0) if du0 > 0 else (+1.0, -1.0):
        res = integrate_geodesic(chart, st, (0.0, direction * DEFAULT_HORIZON))
        runs.append(res)
        if res.terminated == "hit_domain_boundary":
            # a hit needs du0 != 0, and u(t) = u0 + du0 t is exact
            predicted = (DEFAULT_U_MIN - st[0]) / du0
            return runs, {
                "direction": "forward" if direction > 0 else "backward",
                "boundary_affine_time": res.boundary_time,
                "predicted_affine_time": predicted,
                "affine_prediction_gap": abs(res.boundary_time - predicted),
                "transverse_fit_gap": _transverse_fit_gap(chart, st, res),
            }
    return runs, {}


def _transverse_fit_gap(chart: PowerLaw, initial: Sequence[float], res: GeodesicResult) -> float:
    """Sup relative gap between sampled x and the fitted Euler solution x(u);
    relative because x blows up like a negative power of u at the boundary."""
    x_of_u = transverse_profile_in_u(chart, initial)
    gap = 0.0
    for row in res.y:
        u = row[0]
        if u <= 10 * DEFAULT_U_MIN:
            continue
        fit = x_of_u(u)
        gap = max(gap, abs(row[2] - fit) / max(1.0, abs(fit)))
    return gap


def _constant_sample(chart: Constant, st: Sequence[float]):
    """Constant profiles have no domain boundary and a linear geodesic
    system, so every solution is global; the closed form is evaluated
    directly and spot-checked against the integrator on a short span."""
    res = integrate_geodesic(chart, st, (0.0, 50.0))
    exact = map(constant_chart_transverse(chart, st), res.t)
    gap = max(abs(row[2] - x) / max(1.0, abs(x)) for x, row in zip(exact, res.y))
    return [res], {"integrator_vs_closed_form_sup_rel_gap": gap}


def _verdict(chart: PowerLaw | Constant, family: str, details: list[dict]) -> tuple[str, str]:
    """The family's verdict (complete, incomplete, mixed or
    unstated-in-paper) and its evidence, from the sample records.  A record
    with a cross-check gap over its bound raises EvidenceGapTooLarge."""
    for k, rec in enumerate(details):
        for key, bound in GAP_BOUNDS.items():
            if key in rec and not rec[key] <= bound:
                raise EvidenceGapTooLarge(
                    f"{family} sample {k} (initial {rec['initial']}): {key} = {rec[key]:.3g} "
                    f"exceeds its bound {bound:g}, so no verdict is given"
                )
    if family == "spacelike":
        return "unstated-in-paper", "no classification is asserted for spacelike geodesics"
    if isinstance(chart, Constant):
        return "complete", (
            "no domain boundary exists and the transverse equation is linear "
            "with constant coefficients: the closed-form solution is global; "
            "integrator cross-checked on a finite span (evidence, not proof)"
        )
    if family == "dv_orbit":
        return "complete", (
            f"every orbit of the parallel field reached affine span {DEFAULT_HORIZON:g} (numerical evidence, not proof)"
        )
    hits = sum("boundary_affine_time" in rec for rec in details)
    if hits == len(details):
        return "incomplete", (
            "every sampled geodesic left the chart at u -> 0+ at finite affine "
            "parameter; boundary times match the exact affine law for u and the "
            "fitted closed-form transverse solution"
        )
    if hits == 0:
        return "complete", "all sampled geodesics reached the affine horizon (numerical evidence, not proof)"
    return "mixed", "some sampled geodesics reached the horizon, others hit the boundary"


def completeness_report(
    chart: PowerLaw | Constant,
    families: Iterable[str] = FAMILIES,
    count: int = 20,
    seed: int = 12345,
) -> dict:
    """The ``geodesic --family`` payload (``geodesic_verdict.schema.json``):
    per family, the verdict, its evidence and one record per seeded sample,
    with the solver work of that sample's integrations."""
    if count < 1:
        raise ValueError(f"count = {count}: a verdict needs at least one sample")
    families = tuple(families)
    if not families:
        raise ValueError(f"no families: name at least one of {', '.join(FAMILIES)}")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}: choose from {', '.join(FAMILIES)}")
    repeated = list(dict.fromkeys(f for f in families if families.count(f) > 1))
    if repeated:
        raise ValueError(f"repeated families {repeated}: name each family once")
    sample = _constant_sample if isinstance(chart, Constant) else _power_law_sample
    rng = np.random.default_rng(seed)
    verdicts = {}
    for family in families:
        details = []
        for st in sample_initial_conditions(chart, family, count, rng):
            runs, fields = sample(chart, st)
            details.append({
                "initial": list(st),
                "nfev": sum(res.nfev for res in runs),
                "nsteps": sum(len(res.t) - 1 for res in runs),
                **fields,
            })
        verdict, evidence = _verdict(chart, family, details)
        verdicts[family] = {"verdict": verdict, "evidence": evidence, "count": count, "details": details}
    return {"chart": str(chart), "seed": seed, "affine_horizon": DEFAULT_HORIZON, "verdicts": verdicts}

