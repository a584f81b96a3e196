"""Geodesic integration, closed-form transverse solutions, and
completeness verdicts for the plane-wave charts.

The geodesic system in coordinates (u, v, x) has Gamma^u = 0 on every
chart here, so u is affine-linear along every geodesic.  On a Brinkmann
chart with u chosen as the parameter the transverse equation is the Euler
equation  x'' = (b / u^2) x,  whose solution basis is decided by the sign
of the discriminant 1 + 4b.

Every integration uses the explicit Runge-Kutta pair of Dormand and
Prince of order 8(5,3), scipy's ``DOP853`` (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., section II.10), at
rtol 1e-10 and atol 1e-12 unless the caller passes others.  A trajectory
is the solver's accepted steps, and every verdict record carries the
solver's work (``nfev``, ``nsteps``).

Completeness verdicts are numerical *evidence*, never proofs, and the
reports say so.  Incompleteness is certified by a domain-boundary hit at
finite affine parameter, cross-checked against the exact affine law for u
and the fitted closed-form transverse solution, not by integrator failure.
A failed integration yields no verdict and no trajectory: it raises
:class:`SolutionLeftFloatRange`.  The work of one integration grows with
the phase of its transverse solution, so a run whose phase exceeds
``MAX_PHASE`` is refused before it starts (:class:`TransversePhaseTooLarge`).

Integration returns the trajectory only.  The conservation audit of the
first integral g(gamma', gamma') is :func:`conservation_drift`, which the
``geodesic-conservation-and-affine-u`` verify check and the tests call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .geometry.charts import Constant, PowerLaw, check_domain, metric_at

NULL_BAND = 1e-12
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


class TransversePhaseTooLarge(ValueError):
    """The transverse solution of the requested run turns through more
    phase than MAX_PHASE, so its work is refused before it starts."""


class SolutionLeftFloatRange(ValueError):
    """The solver's step size fell below float spacing before the end of
    the span or before u reached u_min: the solution left float range."""


@dataclass(frozen=True)
class GeodesicState:
    position: tuple[float, float, float]
    velocity: tuple[float, float, float]

    def as_array(self) -> np.ndarray:
        return np.array(list(self.position) + list(self.velocity), dtype=float)

    @classmethod
    def of(cls, u, v, x, du, dv, dx) -> "GeodesicState":
        return cls((float(u), float(v), float(x)), (float(du), float(dv), float(dx)))


def velocity_norm_sq(chart: PowerLaw | Constant, state: GeodesicState) -> float:
    g = metric_at(chart, state.position)
    vel = np.asarray(state.velocity, dtype=float)
    return float(vel @ g @ vel)


def causal_type(chart: PowerLaw | Constant, state: GeodesicState) -> str:
    q = velocity_norm_sq(chart, state)
    if q < -NULL_BAND:
        return "timelike"
    if q > NULL_BAND:
        return "spacelike"
    return "null"


def geodesic_rhs(chart: PowerLaw | Constant, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the first-order system (u, v, x, du, dv, dx) on a
    Brinkmann chart."""
    u, _, x, du, dv, dx = y
    h = chart.h(u)
    acc_v = -0.5 * chart.dh(u) * x * x * du * du - 2.0 * h * x * du * dx
    acc_x = h * x * du * du
    return np.array([du, dv, dx, 0.0, acc_v, acc_x])


@dataclass(frozen=True)
class GeodesicResult:
    """Sampled trajectory plus termination bookkeeping.

    ``terminated`` is completed_span or hit_domain_boundary.
    ``boundary_time`` holds the affine parameter of the u -> 0 hit when
    applicable, with ``predicted_boundary_time`` from the exact affine law
    u(t) = u0 + du0 * t.  ``nfev`` counts right-hand-side evaluations.  The
    result carries no self-check: :func:`conservation_drift` audits a
    trajectory on request.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n, 6)
    terminated: str
    nfev: int
    boundary_time: Optional[float] = None
    predicted_boundary_time: Optional[float] = None

    def csv_rows(self, chart: PowerLaw | Constant) -> list[list[float]]:
        rows = []
        for t, row in zip(self.times, self.states):
            st = GeodesicState(tuple(row[:3]), tuple(row[3:]))
            rows.append([float(t)] + [float(c) for c in row] + [velocity_norm_sq(chart, st)])
        return rows


def transverse_phase(chart: PowerLaw | Constant, initial: GeodesicState, span: tuple[float, float]) -> float:
    """Phase of the transverse solution over the u-range a run can cover.

    With u as the parameter, x'' = H(u) du^2 x.  On a Constant chart that
    is sqrt|h| |du| |span|.  On PowerLaw(b) the Euler equation has
    exponents (1 +- sqrt(1 + 4b)) / 2 in u, so the phase is
    (sqrt|1 + 4b| / 2) ln(u_max / u_min), where the run stops at u_min =
    DEFAULT_U_MIN.  It counts radians where the solution oscillates and
    e-folds where it grows.
    """
    du = initial.velocity[0]
    if du == 0.0:  # u is constant and x linear in t
        return 0.0
    length = span[1] - span[0]
    if isinstance(chart, Constant):
        return math.sqrt(abs(chart.h_value)) * abs(du) * abs(length)
    u0 = initial.position[0]
    u1 = max(u0 + du * length, DEFAULT_U_MIN)
    return math.sqrt(abs(1.0 + 4.0 * chart.b)) / 2.0 * abs(math.log(u1 / u0))


def integrate_geodesic(
    chart: PowerLaw | Constant,
    initial: GeodesicState,
    span: tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    t_eval=None,
) -> GeodesicResult:
    """Adaptive DOP853 integration with domain-boundary detection.

    ``span`` may run backwards (t1 < t0) but both ends must be finite.  On
    half-space charts the boundary event u = DEFAULT_U_MIN is armed, and the
    start must lie above it: the event fires only on a crossing.  A run
    whose :func:`transverse_phase` exceeds MAX_PHASE raises
    :class:`TransversePhaseTooLarge` before any step; a run the solver
    cannot finish raises :class:`SolutionLeftFloatRange`.
    """
    if not all(math.isfinite(t) for t in span):
        raise ValueError(f"span = {tuple(span)}: both ends must be finite")
    check_domain(chart, initial.position)
    u0 = initial.position[0]
    if chart.half_space and not u0 > DEFAULT_U_MIN:
        raise ValueError(f"u0 = {u0} is not above the boundary level u_min = {DEFAULT_U_MIN}")
    phase = transverse_phase(chart, initial, span)
    if not phase <= MAX_PHASE:
        raise TransversePhaseTooLarge(
            f"transverse phase {phase:.4g} over span {tuple(span)} exceeds the work bound {MAX_PHASE:g}"
        )
    y0 = initial.as_array()

    events = []
    if chart.half_space:

        def boundary(t, y):
            return y[0] - DEFAULT_U_MIN

        boundary.terminal = True
        events.append(boundary)

    # a solution that leaves float range overflows inside the solver; that
    # is reported below as SolutionLeftFloatRange, not as warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            lambda t, y: geodesic_rhs(chart, y),
            span,
            y0,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            events=events or None,
            t_eval=t_eval,
            dense_output=False,
        )

    if sol.status == 1:
        terminated = "hit_domain_boundary"
        boundary_time = float(sol.t_events[0][0])
    elif sol.status == 0:
        terminated = "completed_span"
        boundary_time = None
    else:
        raise SolutionLeftFloatRange(
            f"the solver stopped at t = {sol.t[-1]:.6g} of span {tuple(span)} "
            f"({sol.message}): the solution left float range"
        )

    du0 = initial.velocity[0]
    predicted = None
    if chart.half_space and du0 != 0.0:
        t_hit = span[0] + (DEFAULT_U_MIN - u0) / du0
        span_lo, span_hi = min(span), max(span)
        if span_lo <= t_hit <= span_hi:
            predicted = t_hit

    return GeodesicResult(
        times=sol.t,
        states=sol.y.T,
        terminated=terminated,
        nfev=int(sol.nfev),
        boundary_time=boundary_time,
        predicted_boundary_time=predicted,
    )


def _norm_term_scale(chart: PowerLaw | Constant, state: GeodesicState) -> float:
    """Magnitude of the individual terms of g(v, v): the honest scale for
    conservation drift, since near a blow-up the norm is a cancellation of
    large terms."""
    g = metric_at(chart, state.position)
    vel = np.asarray(state.velocity, dtype=float)
    return float(np.sum(np.abs(np.outer(vel, vel) * g)))


def conservation_drift(chart: PowerLaw | Constant, initial: GeodesicState, result: GeodesicResult) -> float:
    """Largest drift of the first integral g(gamma', gamma') from its value
    at ``initial`` over the sampled rows of ``result``, each relative to
    max(1, |q0|, the row's term scale); rows with u <= 0 on a half-space
    chart are skipped."""
    q0 = velocity_norm_sq(chart, initial)
    drift = 0.0
    for row in result.states:
        st = GeodesicState(tuple(row[:3]), tuple(row[3:]))
        if chart.half_space and not st.position[0] > 0:
            continue
        scale = max(1.0, abs(q0), _norm_term_scale(chart, st))
        drift = max(drift, abs(velocity_norm_sq(chart, st) - q0) / scale)
    return drift


# ---------------------------------------------------------------------------
# Closed-form transverse solutions
# ---------------------------------------------------------------------------


def closed_form_x(b: float, t: float, which: int) -> float:
    """Basis solutions of the Euler equation x'' = (b / t^2) x on t > 0.

    which = 0 or 1 selects the basis member:

    * 1 + 4b > 0:  t^(r+), t^(r-) with r = (1 +- sqrt(1 + 4b)) / 2
    * 1 + 4b = 0:  sqrt(t), sqrt(t) ln t
    * 1 + 4b < 0:  sqrt(t) cos(w ln t), sqrt(t) sin(w ln t),
      w = sqrt(-(1 + 4b)) / 2.
    """
    if t <= 0:
        raise ValueError("closed-form basis lives on t > 0")
    disc = 1.0 + 4.0 * b
    if abs(disc) <= 1e-13:
        root = math.sqrt(t)
        return root if which == 0 else root * math.log(t)
    if disc > 0:
        s = math.sqrt(disc)
        r = (1.0 + s) / 2.0 if which == 0 else (1.0 - s) / 2.0
        return t**r
    w = math.sqrt(-disc) / 2.0
    root = math.sqrt(t)
    phase = w * math.log(t)
    return root * math.cos(phase) if which == 0 else root * math.sin(phase)


def closed_form_x_derivative(b: float, t: float, which: int) -> float:
    if t <= 0:
        raise ValueError("closed-form basis lives on t > 0")
    disc = 1.0 + 4.0 * b
    if abs(disc) <= 1e-13:
        if which == 0:
            return 0.5 / math.sqrt(t)
        return (math.log(t) + 2.0) / (2.0 * math.sqrt(t))
    if disc > 0:
        s = math.sqrt(disc)
        r = (1.0 + s) / 2.0 if which == 0 else (1.0 - s) / 2.0
        return r * t ** (r - 1.0)
    w = math.sqrt(-disc) / 2.0
    phase = w * math.log(t)
    if which == 0:
        return (0.5 * math.cos(phase) - w * math.sin(phase)) / math.sqrt(t)
    return (0.5 * math.sin(phase) + w * math.cos(phase)) / math.sqrt(t)


def fit_transverse_solution(b: float, t0: float, x0: float, dx0: float):
    """Coefficients (c0, c1) with x = c0 f0 + c1 f1 matching (x0, dx0) at t0."""
    m = np.array(
        [
            [closed_form_x(b, t0, 0), closed_form_x(b, t0, 1)],
            [closed_form_x_derivative(b, t0, 0), closed_form_x_derivative(b, t0, 1)],
        ]
    )
    c = np.linalg.solve(m, np.array([x0, dx0]))

    def x_of_t(t, _c=c, _b=b):
        return _c[0] * closed_form_x(_b, t, 0) + _c[1] * closed_form_x(_b, t, 1)

    return c, x_of_t


def transverse_profile_in_u(chart: PowerLaw, initial: GeodesicState):
    """Fitted x as a function of u along a geodesic with du/dt != 0.

    Since u is affine, x satisfies the Euler equation in the u variable with
    slope dx/du = (dx/dt) / (du/dt) at u0.
    """
    du0 = initial.velocity[0]
    if du0 == 0.0:
        raise ValueError("horizontal geodesic: u is constant")
    u0 = initial.position[0]
    x0 = initial.position[2]
    slope = initial.velocity[2] / du0
    _, x_of_u = fit_transverse_solution(chart.b, u0, x0, slope)
    return x_of_u


# ---------------------------------------------------------------------------
# Constant-profile closed forms (the complete charts)
# ---------------------------------------------------------------------------


def constant_chart_transverse(chart: Constant, initial: GeodesicState):
    """Exact global x(t) on a Constant chart: x'' = h * du0^2 * x."""
    h = chart.h_value
    du0 = initial.velocity[0]
    x0 = initial.position[2]
    dx0 = initial.velocity[2]
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
) -> list[GeodesicState]:
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
            states.append(GeodesicState.of(u0, v0, x0, 0.0, 1.0, 0.0))
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        du = sign * float(rng.uniform(0.3, 1.5))
        dx = float(rng.uniform(-1.0, 1.0))
        target = {"timelike": -1.0, "null": 0.0, "spacelike": 1.0}[family]
        g = metric_at(chart, (u0, v0, x0))
        dv = (target - g[0, 0] * du * du - dx * dx) / (2.0 * du)
        states.append(GeodesicState.of(u0, v0, x0, du, dv, dx))
    return states


@dataclass(frozen=True)
class FamilyVerdict:
    family: str
    verdict: str  # complete | incomplete | unstated-in-paper
    evidence: str
    count: int
    details: list = field(default_factory=list)


@dataclass(frozen=True)
class CompletenessReport:
    chart_label: str
    seed: int
    verdicts: dict[str, FamilyVerdict]

    def to_json(self) -> dict:
        return {
            "chart": self.chart_label,
            "seed": self.seed,
            "affine_horizon": DEFAULT_HORIZON,
            "verdicts": {
                name: {
                    "verdict": fv.verdict,
                    "evidence": fv.evidence,
                    "count": fv.count,
                    "details": fv.details,
                }
                for name, fv in self.verdicts.items()
            },
        }


def _verdict_power_law(chart: PowerLaw, family: str, states: list[GeodesicState]) -> FamilyVerdict:
    details = []
    all_hit = True
    all_complete = True
    for st in states:
        rec = {"initial": list(st.position) + list(st.velocity), "nfev": 0, "nsteps": 0}
        hit_some_direction = False
        # try the direction in which u decreases first: a boundary hit there
        # settles the verdict without integrating out to the affine horizon.
        # A run that fails raises, so a sample without a hit completed the
        # span both ways.
        du0 = st.velocity[0]
        directions = (-1.0, +1.0) if du0 > 0 else (+1.0, -1.0)
        for direction in directions:
            res = integrate_geodesic(chart, st, (0.0, direction * DEFAULT_HORIZON))
            rec["nfev"] += res.nfev
            rec["nsteps"] += len(res.times) - 1
            if res.terminated == "hit_domain_boundary":
                hit_some_direction = True
                rec["direction"] = "forward" if direction > 0 else "backward"
                rec["boundary_affine_time"] = res.boundary_time
                rec["predicted_affine_time"] = res.predicted_boundary_time
                rec["affine_prediction_gap"] = (
                    abs(res.boundary_time - res.predicted_boundary_time)
                    if res.predicted_boundary_time is not None
                    else None
                )
                rec["transverse_fit_gap"] = _transverse_fit_gap(chart, st, res)
                break
        if not hit_some_direction:
            all_hit = False
        else:
            all_complete = False
        details.append(rec)
    if family == "dv_orbit":
        verdict = "complete"
        evidence = f"every orbit of the parallel field reached affine span {DEFAULT_HORIZON:g} (numerical evidence, not proof)"
    elif family == "spacelike":
        verdict = "unstated-in-paper"
        evidence = "no classification is asserted for spacelike geodesics"
    elif all_hit:
        verdict = "incomplete"
        evidence = (
            "every sampled geodesic left the chart at u -> 0+ at finite affine "
            "parameter; boundary times match the exact affine law for u and the "
            "fitted closed-form transverse solution"
        )
    elif all_complete:
        verdict = "complete"
        evidence = "all sampled geodesics reached the affine horizon (numerical evidence, not proof)"
    else:
        verdict = "mixed"
        evidence = "some sampled geodesics reached the horizon, others hit the boundary"
    return FamilyVerdict(family=family, verdict=verdict, evidence=evidence, count=len(states), details=details)


def _transverse_fit_gap(chart: PowerLaw, initial: GeodesicState, res: GeodesicResult):
    """Sup relative gap between sampled x and the fitted Euler solution x(u);
    relative because x blows up like a negative power of u at the boundary."""
    if initial.velocity[0] == 0.0:
        return None
    x_of_u = transverse_profile_in_u(chart, initial)
    gap = 0.0
    for row in res.states:
        u = row[0]
        if u <= 10 * DEFAULT_U_MIN:
            continue
        fit = x_of_u(u)
        gap = max(gap, abs(row[2] - fit) / max(1.0, abs(fit)))
    return gap


def _verdict_constant(chart: Constant, family: str, states: list[GeodesicState]) -> FamilyVerdict:
    """Constant profiles have no domain boundary and a linear geodesic
    system, so every solution is global; the closed form is evaluated
    directly and spot-checked against the integrator on a short span."""
    details = []
    for st in states:
        res = integrate_geodesic(chart, st, (0.0, 50.0))
        rec = {
            "initial": list(st.position) + list(st.velocity),
            "nfev": res.nfev,
            "nsteps": len(res.times) - 1,
        }
        x_exact = constant_chart_transverse(chart, st)
        gap = max(
            abs(row[2] - x_exact(t)) / max(1.0, abs(x_exact(t)))
            for t, row in zip(res.times, res.states)
        )
        rec["integrator_vs_closed_form_sup_rel_gap"] = float(gap)
        rec["global_existence"] = "closed-form solution defined for all affine time"
        details.append(rec)
    if family == "spacelike":
        verdict = "unstated-in-paper"
        evidence = "no classification is asserted for spacelike geodesics"
    else:
        verdict = "complete"
        evidence = (
            "no domain boundary exists and the transverse equation is linear "
            "with constant coefficients: the closed-form solution is global; "
            "integrator cross-checked on a finite span (evidence, not proof)"
        )
    return FamilyVerdict(family=family, verdict=verdict, evidence=evidence, count=len(states), details=details)


def completeness_report(
    chart: PowerLaw | Constant,
    families: Iterable[str] = FAMILIES,
    count: int = 20,
    seed: int = 12345,
) -> CompletenessReport:
    if count < 1:
        raise ValueError(f"count = {count}: a verdict needs at least one sample")
    families = tuple(families)
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}: choose from {', '.join(FAMILIES)}")
    rng = np.random.default_rng(seed)
    verdicts = {}
    for family in families:
        states = sample_initial_conditions(chart, family, count, rng)
        if isinstance(chart, Constant):
            verdicts[family] = _verdict_constant(chart, family, states)
        else:
            verdicts[family] = _verdict_power_law(chart, family, states)
    return CompletenessReport(chart_label=str(chart), seed=seed, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Boost action (for equivariance checks)
# ---------------------------------------------------------------------------


def boost_state(s: float, state: GeodesicState) -> GeodesicState:
    """The boost isometry (u, v, x) -> (e^s u, e^-s v, x) applied to a state."""
    eu = math.exp(s)
    u, v, x = state.position
    du, dv, dx = state.velocity
    return GeodesicState.of(eu * u, v / eu, x, eu * du, dv / eu, dx)
