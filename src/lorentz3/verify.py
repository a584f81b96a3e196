"""Self-contained verification suite.

Each check is registered with a name and a suite tag; ``run_suite`` executes
a selection and returns one result per check.  Every check takes no
argument: its tolerances and budgets are fixed in its body (the oracle
comparison reads ``DEFAULT_ORACLE_TOL``), and nothing outside the code can
loosen them.

The same registry backs both the ``verify`` CLI command and the acceptance
test module, so there is exactly one source of truth for every criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

# the geodesic checks import .geodesics themselves
from .classifier import (
    class_from_b,
    classify,
    invariant_b,
    report_from_class,
    space_report,
)
from .geometry import (
    Constant,
    PowerLaw,
    RosenChart,
    boost_field,
    christoffels,
    commutator_values,
    coordinate_field,
    heis_killing_fields,
    is_flat,
    killing_residual,
    metric_at,
    nabla_riemann,
    pullback_residual,
    riemann_tensor,
    roundtrip_residual,
    sectional_curvature,
)
from .geometry.curvature import default_grid, max_abs_riemann
from .geometry.findiff import (
    christoffels_fd,
    nabla_riemann_fd,
    riemann_fd,
)
from .lie_core import (
    Derivation,
    IsotropyChoice,
    compose_automorphisms,
    conjugate_derivation,
    diagonal_automorphism,
    extend_algebra,
    inner_automorphism,
    jacobi_residual,
    normalize_to_canonical,
    rotation_scale_automorphism,
    shear_automorphism,
)
from .metric_builder import (
    _nilpotency_order_mod_w,
    ad_w_matrix_on_m,
    admits_metric,
    build_invariant_metric,
    has_transverse_subalgebra,
    signature,
    skew_residual,
    twist_coefficient,
)

DEFAULT_ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    detail: str


# check name -> (suite tag, check function), in registration order
_REGISTRY: dict[str, tuple[str, Callable]] = {}


def check(name: str, suite: str):
    def wrap(fn):
        _REGISTRY[name] = (suite, fn)
        return fn

    return wrap


def check_names(suite: str = "all") -> list[str]:
    return [name for name, (tag, _) in _REGISTRY.items() if suite in ("all", tag)]


def run_check(name: str) -> CheckResult:
    tag, fn = _REGISTRY[name]
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name=name, suite=tag, passed=bool(passed), detail=detail)


def run_suite(suite: str = "all") -> list[CheckResult]:
    return [run_check(name) for name in check_names(suite)]


def suite_names() -> list[str]:
    return sorted({tag for tag, _ in _REGISTRY.values()} | {"all"})


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------


@check("acceptance-01-flatness-dichotomy", "geometry")
def _flatness_dichotomy():
    start = time.perf_counter()
    problems = []
    for chart in (PowerLaw(0.0), Constant(0.0)):
        worst = max_abs_riemann(chart, default_grid())
        if not is_flat(chart):
            problems.append(f"{chart} expected flat, max|R|={worst:.2e}")
    near = [(u, 0.0, 0.0) for u in (0.9, 1.0, 1.1)]
    for b in (2.0, 1.0, -0.25, -0.5):
        chart = PowerLaw(b)
        worst = max_abs_riemann(chart, near)
        if is_flat(chart) or worst <= 0.1:
            problems.append(f"{chart} expected curved, max|R|={worst:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s budget")
    if problems:
        return False, "; ".join(problems)
    return True, "flat cases < 1e-10, curved cases > 0.1 near (1,0,0)"


@check("acceptance-02-symmetry-dichotomy", "geometry")
def _symmetry_dichotomy():
    pts = [(0.7, -0.3, 0.4), (1.0, 0.0, 0.0), (1.5, 0.8, -0.9)]
    problems = []
    for h in (1.0, -1.0):
        chart = Constant(h)
        for p in pts:
            for direction in range(3):
                fd = nabla_riemann_fd(
                    lambda q: riemann_tensor(chart, q),
                    lambda q: christoffels(chart, q),
                    p,
                    direction,
                )
                if np.max(np.abs(fd)) > 1e-5:
                    problems.append(f"Constant({h}) nabla_{direction}R = {np.max(np.abs(fd)):.2e}")
    for b in (2.0, -0.5):
        chart = PowerLaw(b)
        p = (1.0, 0.0, 0.0)
        closed = float(np.max(np.abs(nabla_riemann(chart, p, "u"))))
        fd = nabla_riemann_fd(
            lambda q: riemann_tensor(chart, q), lambda q: christoffels(chart, q), p, 0
        )
        if closed <= 1e-3:
            problems.append(f"PowerLaw({b}) |nabla_u R| = {closed:.2e} not > 1e-3")
        if abs(float(np.max(np.abs(fd))) - closed) > 1e-5:
            problems.append(f"PowerLaw({b}) oracle mismatch on nabla_u R")
        for p2 in pts:
            for name, axis in (("x", 2), ("v", 1)):
                closed2 = float(np.max(np.abs(nabla_riemann(chart, p2, name))))
                fd2 = nabla_riemann_fd(
                    lambda q: riemann_tensor(chart, q),
                    lambda q: christoffels(chart, q),
                    p2,
                    axis,
                )
                if closed2 > 1e-5 or np.max(np.abs(fd2)) > 1e-5:
                    problems.append(f"PowerLaw({b}) nabla_{name}R nonzero")
    if problems:
        return False, "; ".join(problems)
    return True, "del R = 0 on Constant(+-1); del_u R > 1e-3 and del_x R = del_v R = 0 on PowerLaw"


_ALPHAS_20 = [
    Fraction(-3),
    Fraction(-2),
    Fraction(-3, 2),
    Fraction(-1),
    Fraction(-3, 4),
    Fraction(-1, 2),
    Fraction(-1, 3),
    Fraction(-1, 4),
    Fraction(0),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
    Fraction(5, 4),
    Fraction(3, 2),
    Fraction(2),
]


@check("acceptance-03-b-invariant-correspondence", "classifier")
def _b_invariant_correspondence():
    problems = []
    for alpha in _ALPHAS_20:
        a = Derivation.rosen_exponent(alpha)
        expected = alpha * alpha - alpha
        got = invariant_b(a)
        if got != expected:
            problems.append(f"alpha={alpha}: b={got} != {expected}")
    grid = default_grid(shape=(5, 5, 5))
    for alpha in (-1.0, -0.5, 0.5, 2.0):
        resid = pullback_residual(alpha, grid)
        rt = roundtrip_residual(alpha, grid)
        if resid > 1e-9:
            problems.append(f"alpha={alpha}: pullback residual {resid:.2e} > 1e-9")
        if rt > 1e-12:
            problems.append(f"alpha={alpha}: roundtrip {rt:.2e} > 1e-12")
    if problems:
        return False, "; ".join(problems)
    return True, "b(diag(1,1-a,a)) = a^2 - a exactly for 20 rationals; pullback residual <= 1e-9 on 5^3 grid"


@check("acceptance-04-metric-construction", "metric")
def _metric_construction():
    cases = [
        ("hyperbolic b=2", Derivation.hyperbolic_diag(2), IsotropyChoice.of(0, 1, 1), Fraction(1, 1)),
        ("parabolic", Derivation.parabolic(), IsotropyChoice.of(0, 0, 1), Fraction(-1)),
        ("elliptic c=1", Derivation.elliptic(1), IsotropyChoice.of(0, 1, 0), Fraction(1)),
        ("nilpotent", Derivation.nilpotent(), IsotropyChoice.of(0, 0, 1), Fraction(-1)),
        ("unimodular hyperbolic", Derivation.cw_hyperbolic(), IsotropyChoice.of(0, 1, 1), Fraction(-1, 2)),
        ("unimodular elliptic", Derivation.cw_elliptic(), IsotropyChoice.of(0, 1, 0), Fraction(1)),
    ]
    problems = []
    for label, a, w, g_tz in cases:
        gram = build_invariant_metric(a, w)
        if gram[0][2] != g_tz:
            problems.append(f"{label}: g(T,Z) = {gram[0][2]} != {g_tz}")
        if gram[1][1] != 1:
            problems.append(f"{label}: g(Y',Y') != 1")
        if signature(gram) != (2, 1, 0):
            problems.append(f"{label}: signature {signature(gram)} not Lorentz")
        resid = skew_residual(gram, ad_w_matrix_on_m(a, w))
        if resid != 0:
            problems.append(f"{label}: skew residual {resid} != 0")
    if problems:
        return False, "; ".join(problems)
    return True, "all four one-parameter cases and both symmetric cases reproduce the tabulated Gram values exactly"


@check("acceptance-05-killing-suite", "geometry")
def _killing_suite():
    problems = []
    grid = default_grid(shape=(4, 3, 4))
    for b in (2.0, -0.5):
        chart = PowerLaw(b)
        for f in (coordinate_field("v"), boost_field()):
            r = float(np.max(killing_residual(chart, f, grid)))
            if r > 1e-9:
                problems.append(f"PowerLaw({b}) {f.name}: residual {r:.2e}")
    for alpha in (-1.0, 0.0, 2.0):
        chart = RosenChart(alpha)
        fields = heis_killing_fields(chart)
        for f in fields:
            r = float(np.max(killing_residual(chart, f, grid)))
            if r > 1e-9:
                problems.append(f"Rosen alpha={alpha} {f.name}: residual {r:.2e}")
        zf, xf, yf = fields
        for p in grid[:: max(1, len(grid) // 8)]:
            c_xy = commutator_values(xf, yf, p)  # expect d_v
            c_zy = commutator_values(zf, yf, p)  # expect 0
            c_zx = commutator_values(zf, xf, p)  # expect 0
            if np.max(np.abs(c_xy - np.array([0.0, 1.0, 0.0]))) > 1e-8:
                problems.append(f"alpha={alpha}: [d_x, shear] != d_v at {p}")
            if np.max(np.abs(c_zy)) > 1e-8 or np.max(np.abs(c_zx)) > 1e-8:
                problems.append(f"alpha={alpha}: center not central at {p}")
    if problems:
        return False, "; ".join(problems)
    return True, "d_v/boost residuals <= 1e-9; three Rosen fields Killing with exact Heisenberg brackets"


@check("acceptance-06-incompleteness", "geodesic")
def _incompleteness():
    from . import geodesics as geo
    start = time.perf_counter()
    problems = []
    chart = PowerLaw(2.0)
    res = geo.integrate_geodesic(chart, (1, 0, 0, -1, 0, 0), (0.0, 5.0))
    if res.terminated != "hit_domain_boundary":
        problems.append(f"vertical null geodesic: {res.terminated}")
    elif abs(res.boundary_time - 1.0) > 1e-6:
        problems.append(f"vertical null boundary at {res.boundary_time}, not 1.0 +- 1e-6")
    fam = geo.completeness_report(chart, families=("timelike",), count=20, seed=20260810)["verdicts"]["timelike"]
    if fam["verdict"] != "incomplete":
        problems.append(f"timelike family verdict {fam['verdict']}")
    rep2 = geo.completeness_report(chart, families=("dv_orbit",), count=5, seed=3)
    if rep2["verdicts"]["dv_orbit"]["verdict"] != "complete":
        problems.append("d_v orbits not complete")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s budget")
    if problems:
        return False, "; ".join(problems)
    return True, "boundary hit at t = 1 +- 1e-6; 20/20 timelike geodesics incomplete; d_v orbits complete"


@check("acceptance-07-closed-form-geodesics", "geodesic")
def _closed_form_vs_numeric():
    from . import geodesics as geo
    problems = []
    for b in (2.0, -0.25, -0.5):
        chart = PowerLaw(b)
        st = (1.0, 0.0, 0.3, 1.0, -0.1, 0.2)
        res = geo.integrate_geodesic(chart, st, (0.0, 9.0), rtol=1e-12, atol=1e-14)
        if res.terminated != "completed_span":
            problems.append(f"b={b}: integration ended early ({res.terminated})")
            continue
        x_of_u = geo.transverse_profile_in_u(chart, st)
        gap = max(abs(row[2] - x_of_u(row[0])) for row in res.y)
        if gap > 1e-8:
            problems.append(f"b={b}: sup gap {gap:.2e} > 1e-8")
    if problems:
        return False, "; ".join(problems)
    return True, "numeric vs closed form <= 1e-8 on u in [1,10] for b in {2, -1/4, -1/2}"


@check("acceptance-08-compact-model-verdicts", "classifier")
def _compact_models():
    reports = {
        "MinkowskiFlat": space_report(Derivation.nilpotent()),
        "HalfMinkowskiFlat": space_report(Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])),
        "CW-hyperbolic": space_report(Derivation.cw_hyperbolic()),
        "CW-elliptic": space_report(Derivation.cw_elliptic()),
        "b=2": space_report(Derivation.rosen_exponent(-1)),
        "b=1": report_from_class(class_from_b(1)),
        "b=-1/4": report_from_class(class_from_b(Fraction(-1, 4))),
        "b=-1/2": space_report(Derivation.elliptic(1)),
    }
    expected_true = {"MinkowskiFlat", "b=2"}
    problems = []
    for label, rep in reports.items():
        want = label in expected_true
        if rep["flags"]["compact_model"] != want:
            problems.append(f"{label}: compact_model={rep['flags']['compact_model']}, expected {want}")
    if problems:
        return False, "; ".join(problems)
    return True, "compact_model true exactly for the flat Minkowski model and b = 2 (SOL)"


def _random_automorphism(rng) -> tuple:
    kind = rng.integers(0, 4)
    num = int(rng.integers(-5, 6)) or 1
    den = int(rng.integers(1, 5))
    q = Fraction(num, den)
    if kind == 0:
        num2 = int(rng.integers(-5, 6)) or 2
        return diagonal_automorphism(q, Fraction(num2, den))
    if kind == 1:
        return shear_automorphism(q)
    if kind == 2:
        return rotation_scale_automorphism(q, Fraction(int(rng.integers(-3, 4)), 2))
    return inner_automorphism(q, Fraction(int(rng.integers(-3, 4)), 3))


@check("acceptance-09-classification-invariance", "classifier")
def _classification_invariance():
    rng = np.random.default_rng(20260810)
    bases = [
        Derivation.hyperbolic_diag(2),
        Derivation.parabolic(),
        Derivation.elliptic(1),
        Derivation.nilpotent(),
        Derivation.cw_hyperbolic(),
        Derivation.canonical(Fraction(7, 3)),
        Derivation.rosen_exponent(-1),
    ]
    problems = []
    normalized = []  # the non-unimodular scalings and conjugations
    for a in bases:
        cls = classify(a)
        for lam in (Fraction(-3), Fraction(1, 2), Fraction(7)):
            if classify(a.scaled(lam)) != cls:
                problems.append(f"{cls}: classify changed under scaling by {lam}")
            if cls.b is not None:
                normalized.append(a.scaled(lam))
    count = 0
    while count < 50:
        a = bases[count % len(bases)]
        cls = classify(a)
        phi = compose_automorphisms(_random_automorphism(rng), _random_automorphism(rng))
        conj = conjugate_derivation(a, phi)
        if classify(conj) != cls:
            problems.append(f"{cls}: classify changed under conjugation {count}")
        if cls.b is not None:
            if invariant_b(conj) != cls.b:
                problems.append(f"{cls}: b changed under conjugation {count}")
            normalized.append(conj)
        count += 1
    for a in normalized:  # the recorded scale is the lambda with lambda * tr(A-bar) = 1
        norm = space_report(a)["normalization"]
        scale = Fraction(norm["scale"])
        if scale * a.trace_quotient != 1 or norm["time_reversed"] != (scale < 0):
            problems.append(f"{classify(a)}: recorded scale in {norm} for tr(A-bar) = {a.trace_quotient}")
    if problems:
        return False, "; ".join(problems[:5])
    return True, "classify and b exactly invariant under scalings {-3, 1/2, 7} and 50 random automorphism conjugations"


@check("acceptance-10-sectional-blowup", "geometry")
def _sectional_blowup():
    chart = PowerLaw(2.0)
    plane = [(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    ks = [abs(sectional_curvature(chart, (u, 0.0, 0.0), plane)) for u in (1.0, 0.1, 0.01)]
    r1 = ks[1] / ks[0]
    r2 = ks[2] / ks[1]
    ok = abs(r1 - 100.0) <= 5.0 and abs(r2 - 100.0) <= 5.0
    detail = f"|K| = {ks[0]:.3g}, {ks[1]:.3g}, {ks[2]:.3g}; decade ratios {r1:.1f}, {r2:.1f}"
    return ok, detail


# ---------------------------------------------------------------------------
# Module invariants beyond the acceptance list
# ---------------------------------------------------------------------------


@check("lie-jacobi-zero-on-families", "lie")
def _jacobi_families():
    families = [
        Derivation.hyperbolic_diag(Fraction(5, 3)),
        Derivation.parabolic(),
        Derivation.elliptic(Fraction(-2, 7)),
        Derivation.nilpotent(),
        Derivation.canonical(Fraction(-9, 4)),
        Derivation.inner(Fraction(1, 2), -3),
    ]
    for a in families:
        if jacobi_residual(extend_algebra(a)) != 0:
            return False, f"nonzero Jacobi residual for {a.matrix}"
    return True, "every constructed extension satisfies Jacobi exactly"


@check("lie-normalize-idempotent", "lie")
def _normalize_idempotent():
    for b in (Fraction(2), Fraction(-1, 4), Fraction(7, 5), Fraction(-3)):
        first = normalize_to_canonical(Derivation.canonical(b))
        if first.b != b or first.derivation != Derivation.canonical(b):
            return False, f"canonical form moved for b={b}"
        again = normalize_to_canonical(first.derivation)
        if again.derivation != first.derivation:
            return False, f"not idempotent for b={b}"
        scaled = normalize_to_canonical(Derivation.canonical(b).scaled(Fraction(-7, 2)))
        if scaled.b != b:
            return False, f"b changed under scaling for b={b}"
    return True, "canonical form is a fixed point and scale-invariant"


@check("metric-criteria-agree", "metric")
def _metric_criteria_agree():
    rng = np.random.default_rng(7)
    trials = 0
    for _ in range(200):
        entries = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in range(6)]
        p, q, r, s, zx, zy = entries
        a = Derivation.from_rows([[p + s, zx, zy], [0, p, q], [0, r, s]])
        gamma = Fraction(int(rng.integers(-2, 3)))
        alpha = Fraction(int(rng.integers(-2, 3)))
        beta = Fraction(int(rng.integers(-2, 3)), 2)
        if alpha == 0 and beta == 0:
            continue
        trials += 1
        w = IsotropyChoice.of(gamma, alpha, beta)
        by_eigenvector = twist_coefficient(a, w) != 0
        if admits_metric(a, w) != by_eigenvector:
            return False, f"admits_metric departs from the eigenvector criterion for {a.matrix}, W={w}"
        if by_eigenvector != (_nilpotency_order_mod_w(a, w) == 3):
            return False, f"eigenvector and nilpotency criteria disagree for {a.matrix}, W={w}"
    return True, f"eigenvector and nilpotency-order criteria agree on {trials} random rational cases"


@check("geometry-oracle-agreement", "geometry")
def _oracle_agreement():
    grid = default_grid(shape=(5, 5, 5))
    charts = [PowerLaw(2.0), PowerLaw(-0.5), Constant(1.0), RosenChart(-1.0)]
    worst_gamma = 0.0
    worst_r = 0.0
    worst_dr = 0.0
    points = grid[:: max(1, len(grid) // 25)]
    for chart in charts:
        metric_fn = partial(metric_at, chart)
        gfd = christoffels_fd(metric_fn, points)
        worst_gamma = max(worst_gamma, float(np.max(np.abs(christoffels(chart, points) - gfd))))
        rfd = riemann_fd(metric_fn, points)
        worst_r = max(worst_r, float(np.max(np.abs(riemann_tensor(chart, points) - rfd))))
        riemann_fn, gamma_fn = partial(riemann_tensor, chart), partial(christoffels, chart)
        for direction in range(3):
            dfd = nabla_riemann_fd(riemann_fn, gamma_fn, points, direction)
            worst_dr = max(worst_dr, float(np.max(np.abs(nabla_riemann(chart, points, direction) - dfd))))
    ok = max(worst_gamma, worst_r, worst_dr) <= DEFAULT_ORACLE_TOL
    return ok, (
        f"max gap vs finite differences: Gamma {worst_gamma:.2e}, R {worst_r:.2e} (nested), "
        f"del R {worst_dr:.2e} (tol {DEFAULT_ORACLE_TOL:g})"
    )


@check("geodesic-conservation-and-affine-u", "geodesic")
def _conservation():
    from . import geodesics as geo
    chart = PowerLaw(-0.5)
    problems = []
    for st in geo.sample_initial_conditions(chart, "timelike", 6, np.random.default_rng(5)):
        res = geo.integrate_geodesic(chart, st, (0.0, 3.0))
        drift = geo.conservation_drift(chart, st, res)
        if drift > 1e-8:
            problems.append(f"drift {drift:.2e}")
        for t, row in zip(res.t, res.y):
            expect_u = st[0] + st[3] * t
            if abs(row[0] - expect_u) > 1e-10 * max(1.0, abs(expect_u)):
                problems.append("u not affine in t")
                break
    if problems:
        return False, "; ".join(problems)
    return True, "g(gamma', gamma') drift <= 1e-8 and u exactly affine along all samples"


@check("classifier-flags-consistent-with-geometry", "classifier")
def _flags_vs_geometry():
    problems = []
    for a in (
        Derivation.nilpotent(),
        Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        Derivation.cw_hyperbolic(),
        Derivation.cw_elliptic(),
        Derivation.canonical(2),
        Derivation.elliptic(1),
    ):
        rep = space_report(a)
        flags, label, printed = rep["flags"], rep["class"], rep["brinkmann_chart"]
        # the chart the report prints, not the one the classifier looked up
        chart = PowerLaw(printed["b"]) if printed["form"] == "power-law" else Constant(printed["h"])
        if flags["flat"] != is_flat(chart):
            problems.append(f"{label}: flat flag vs chart curvature")
        nr = max(
            float(np.max(np.abs(nabla_riemann(chart, p, d))))
            for p in default_grid(shape=(3, 2, 3))
            for d in ("u", "v", "x")
        )
        if flags["locally_symmetric"] != (nr <= 1e-5):
            problems.append(f"{label}: locally_symmetric flag vs del R = {nr:.2e}")
        if flags["transverse_3d_group"] != has_transverse_subalgebra(a):
            problems.append(f"{label}: transverse_3d_group flag vs quotient spectrum")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "flat, locally_symmetric and transverse_3d_group flags match chart curvature, "
        "del R and the quotient spectrum on every class"
    )
