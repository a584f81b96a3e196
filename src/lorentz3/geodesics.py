"""Geodesic integration, closed-form transverse solutions, and
completeness verdicts for the plane-wave charts.

The geodesic system in coordinates (u, v, x) has Gamma^u = 0 on every
chart here, so u is affine-linear along every geodesic.  On a Brinkmann
chart with u chosen as the parameter the transverse equation is the Euler
equation  x'' = (b / u^2) x,  whose solution basis is decided by the sign
of the discriminant 1 + 4b.  A geodesic state is the six numbers
(u, v, x, du, dv, dx), passed as any sequence of them.

Every integration uses the explicit Runge-Kutta pair of Dormand and
Prince of order 8(5,3), scipy's ``DOP853`` (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., section II.10), at
rtol 1e-10 and atol 1e-12 unless the caller passes others.  A trajectory
is the solver's accepted steps, and every verdict record carries the
solver's work (``nfev``, ``nsteps``).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

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


class TransversePhaseTooLarge(ValueError):
    """The transverse solution of the requested run turns through more
    phase than MAX_PHASE, so its work is refused before it starts."""


class SolutionLeftFloatRange(ValueError):
    """The solver's step size fell below float spacing before the end of
    the span or before u reached u_min: the solution left float range."""


class EvidenceGapTooLarge(ValueError):
    """A sample's integration disagrees with its exact affine law or its
    closed-form transverse solution by more than the gap's bound, so the
    family's records are no evidence for a verdict."""


def velocity_norm_sq(chart: PowerLaw | Constant, state: Sequence[float]) -> float:
    g = metric_at(chart, state[:3])
    vel = np.asarray(state[3:], dtype=float)
    return float(vel @ g @ vel)


def geodesic_rhs(chart: PowerLaw | Constant, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the first-order system (u, v, x, du, dv, dx) on a
    Brinkmann chart, in Python float arithmetic.

    Where Python raises on the profile (u = 0, or u**3 out of float range)
    the profile is taken in numpy's scalar arithmetic instead, which gives
    inf, nan or 0.0 there, so the solver sees what it would see in numpy.
    """
    u, _, x, du, dv, dx = y.tolist()
    try:
        h, dh = chart.h(u), chart.dh(u)
    except (ZeroDivisionError, OverflowError):
        h, dh = chart.h(np.float64(u)), chart.dh(np.float64(u))
    acc_v = -0.5 * dh * x * x * du * du - 2.0 * h * x * du * dx
    acc_x = h * x * du * du
    return np.array([du, dv, dx, 0.0, acc_v, acc_x])


@dataclass(frozen=True)
class GeodesicResult:
    """Sampled trajectory plus termination bookkeeping.

    ``terminated`` is completed_span or hit_domain_boundary.
    ``boundary_time`` holds the affine parameter of the u -> 0 hit when
    applicable.  ``nfev`` counts right-hand-side evaluations.  The result
    carries no self-check: :func:`conservation_drift` audits a trajectory on
    request.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n, 6)
    terminated: str
    nfev: int
    boundary_time: Optional[float] = None

    def csv_rows(self, chart: PowerLaw | Constant) -> list[list[float]]:
        """Rows t, u, v, x, du, dv, dx, vel_norm_sq = g(gamma', gamma').  The
        absolute error of vel_norm_sq scales with its largest term (|2 du dv|,
        |H x^2 du^2|, dx^2), the scale :func:`conservation_drift` measures
        drift against, and dv itself carries that error."""
        rows = []
        for t, row in zip(self.times, self.states):
            rows.append([float(t)] + [float(c) for c in row] + [velocity_norm_sq(chart, row)])
        return rows


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
    """Adaptive DOP853 integration with domain-boundary detection.

    ``initial`` is the state (u, v, x, du, dv, dx); a state of another
    length raises ValueError.  ``span`` may run backwards (t1 < t0) but both
    ends must be finite and distinct.  On half-space charts the boundary
    event u = DEFAULT_U_MIN is armed, and the start must lie above it: the
    event fires only on a crossing.  A run whose :func:`transverse_phase`
    exceeds MAX_PHASE raises :class:`TransversePhaseTooLarge` before any
    step; a run the solver cannot finish raises
    :class:`SolutionLeftFloatRange`.
    """
    if len(initial) != 6:
        raise ValueError(f"the initial state has {len(initial)} entries, not the six u, v, x, du, dv, dx")
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
            np.array(state),
            method="DOP853",
            rtol=rtol,
            atol=atol,
            events=events or None,
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

    return GeodesicResult(
        times=sol.t,
        states=sol.y.T,
        terminated=terminated,
        nfev=int(sol.nfev),
        boundary_time=boundary_time,
    )


def conservation_drift(chart: PowerLaw | Constant, initial: Sequence[float], result: GeodesicResult) -> float:
    """Largest drift of the first integral g(gamma', gamma') from its value
    at ``initial`` over the sampled rows of ``result``, each relative to
    max(1, |q0|, the row's term scale sum |g_ij v^i v^j|): near a blow-up
    the norm is a cancellation of large terms.  Rows with u <= 0 on a
    half-space chart are skipped."""
    q0 = velocity_norm_sq(chart, initial)
    drift = 0.0
    for row in result.states:
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
    for row in res.states:
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
    x_exact = constant_chart_transverse(chart, st)
    gap = max(
        abs(row[2] - x_exact(t)) / max(1.0, abs(x_exact(t)))
        for t, row in zip(res.times, res.states)
    )
    return [res], {"integrator_vs_closed_form_sup_rel_gap": float(gap)}


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
                "nsteps": sum(len(res.times) - 1 for res in runs),
                **fields,
            })
        verdict, evidence = _verdict(chart, family, details)
        verdicts[family] = {"verdict": verdict, "evidence": evidence, "count": count, "details": details}
    return {"chart": str(chart), "seed": seed, "affine_horizon": DEFAULT_HORIZON, "verdicts": verdicts}

