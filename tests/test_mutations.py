"""Mutation table for the ``verify`` registry: no verdict may be vacuous.

Each row plants one defect in process, names the registered checks that
must catch it, and states the claim of the paper that the defect puts at
risk.  The test patches the defect on every place its name is bound in the
package (``verify`` binds names with ``from ... import``), runs only the
checks its row names, and asserts that each of them fails.  Planting
defects to test the tests is mutation analysis: DeMillo, Lipton and
Sayward, "Hints on test data selection: help for the practicing
programmer", IEEE Computer 11 (1978).

Known blind defects have no row, and no expected-failure row either: a row
lands with the check that catches its defect.  The one below stays open
in ROADMAP items 1 and 5.

* ``flags.complete`` true for every class: no check compares the flag with
  a geodesic verdict.
"""

import contextlib
import dataclasses
import sys
from fractions import Fraction
from unittest import mock

import pytest

from lorentz3 import classifier, geodesics, lie_core, metric_builder
from lorentz3.geometry import curvature
from lorentz3.geometry.charts import U, V, Xc
from lorentz3.verify import check_names, run_check

ORACLE = "geometry-oracle-agreement"
DEL_R = "acceptance-02-symmetry-dichotomy"
FLAGS = "classifier-flags-consistent-with-geometry"
CONSERVATION = "geodesic-conservation-and-affine-u"
CLOSED_FORM = "acceptance-07-closed-form-geodesics"

# Claims of the paper's abstract that a row can put at risk
CLASSES = "the classification of the plane waves by the invariant b"
NOT_A_GROUP = "non-unimodular elliptic plane waves, and only them, are neither locally symmetric nor a group"
SYMMETRIC = "the symmetric models are locally symmetric, the other plane waves are not"
COMPACT = "only one non-flat plane wave has a compact model"
COMPLETE = "geodesically complete only if symmetric"


def _inverted(real):
    return lambda *args: not real(*args)


def _negated(real):
    return lambda *args: -real(*args)


def _tz_bracket_zeroed(real):
    """The structure constants with [T, Z] = [Z, T] = 0 whatever A(Z) is."""

    def mutant(a):
        c = [[list(vec) for vec in row] for row in real(a)]
        c[lie_core.T][lie_core.Z] = c[lie_core.Z][lie_core.T] = [Fraction(0)] * 4
        return c

    return mutant


def _doubled_scale(real):
    def mutant(a):
        canonical = real(a)
        return dataclasses.replace(canonical, scale=2 * canonical.scale)

    return mutant


def _elliptic_hyperbolic_swapped(real):
    swap = {
        classifier.NONUNI_ELLIPTIC: classifier.NONUNI_HYPERBOLIC,
        classifier.NONUNI_HYPERBOLIC: classifier.NONUNI_ELLIPTIC,
    }
    return lambda b: swap.get(real(b), real(b))


def _result_edited(edit):
    """The real function with ``edit(result, *args)`` applied to each result."""

    def factory(real):
        def mutant(*args, **kwargs):
            result = real(*args, **kwargs)
            edit(result, *args)
            return result

        return mutant

    return factory


def _flag_inverted(flag):
    def edit(report, *_):
        report["flags"][flag] = not report["flags"][flag]

    return _result_edited(edit)


def _entries_added(*entries):
    return lambda real: real + entries


def _entry_scaled(index, factor):
    return lambda real: tuple(
        (i, (lambda *args, f=f: factor * f(*args)) if i == index else f) for i, f in real
    )


def _entry_replaced(index, formula):
    return lambda real: tuple((i, formula if i == index else f) for i, f in real)


def _mirror_sign_flipped(r, *_):
    r[..., Xc, U, Xc, U] *= -1.0


def _mirror_dropped(r, *_):
    r[..., Xc, U, U, Xc] = 0.0


def _uvuv_added(r, *_):
    r[..., U, V, U, V] = r[..., V, U, V, U] = r[..., U, Xc, U, Xc]
    r[..., U, V, V, U] = r[..., V, U, U, V] = -r[..., U, Xc, U, Xc]


def _x_acceleration_flipped(out, chart, y):
    out[5] = -out[5]


def _cross_term_dropped(out, chart, y):
    u, _, x, du, _, dx = y
    out[4] += 2.0 * chart.h(u) * x * du * dx


def _x_acceleration_du_once(out, chart, y):
    u, _, x, du, _, _ = y
    out[5] = chart.h(u) * x * du


def _v_acceleration_du_cubed(out, chart, y):
    # -dh x^2 du^3 / 2 in place of -dh x^2 du^2 / 2
    u, _, x, du, _, _ = y
    out[4] += 0.5 * chart.dh(u) * x * x * du * du * (1.0 - du)


def _v_acceleration_offset(out, chart, y):
    _, _, x, du, _, _ = y
    out[4] += 1e-3 * x * du


def _cross_term_du_squared(out, chart, y):
    # -2 h x du^2 dx in place of -2 h x du dx
    u, _, x, du, _, dx = y
    out[4] += 2.0 * chart.h(u) * x * du * dx * (1.0 - du)


def _loose_tolerances(real):
    return lambda chart, initial, span, **_: real(chart, initial, span, rtol=1e-4, atol=1e-6)


def _omega_scaled(factor):
    """``euler_basis`` with w of the oscillatory branch (1 + 4b < 0) scaled
    by ``factor``: the real basis at the b whose w is that much larger."""

    def factory(real):
        def mutant(b, t):
            disc = 1.0 + 4.0 * b
            return real((factor * factor * disc - 1.0) / 4.0 if disc < -1e-13 else b, t)

        return mutant

    return factory


def _h_x(chart, u, v, x):
    return chart.h(u) * x


def _rosen_r_from_h_plus_1(chart, u, v, x):
    return chart.delta(u) * (curvature.brinkmann_profile_value(chart, u) + 1.0)


# (id, module, name, defect factory: the real object -> the defect, the
# checks that must catch it, the claim at risk)
ROWS = [
    # exact layer and report
    ("normalization-scale-doubled", lie_core, "normalize_to_canonical", _doubled_scale,
     ("acceptance-09-classification-invariance",), CLASSES),
    ("elliptic-hyperbolic-swapped", classifier, "_tag_for_b", _elliptic_hyperbolic_swapped,
     (FLAGS,), NOT_A_GROUP),
    ("locally-symmetric-inverted", classifier, "report_from_class", _flag_inverted("locally_symmetric"),
     (FLAGS,), NOT_A_GROUP),
    ("flat-inverted", classifier, "report_from_class", _flag_inverted("flat"),
     (FLAGS,), CLASSES),
    ("transverse-group-inverted", classifier, "report_from_class", _flag_inverted("transverse_3d_group"),
     (FLAGS,), NOT_A_GROUP),
    ("compact-model-inverted", classifier, "report_from_class", _flag_inverted("compact_model"),
     ("acceptance-08-compact-model-verdicts",), COMPACT),
    ("symmetric-inverted", classifier, "report_from_class", _flag_inverted("symmetric"),
     (FLAGS,), COMPLETE),
    ("admits-metric-inverted", metric_builder, "admits_metric", _inverted,
     ("metric-criteria-agree",), CLASSES),
    ("twist-coefficient-negated", metric_builder, "twist_coefficient", _negated,
     ("acceptance-04-metric-construction",), CLASSES),
    ("tz-bracket-zeroed", lie_core, "extend_algebra", _tz_bracket_zeroed,
     ("lie-jacobi-zero-on-families",), CLASSES),
    # tensor layer
    ("gamma-x-uv-added", curvature, "_BRINKMANN_GAMMA", _entries_added(((Xc, U, V), _h_x), ((Xc, V, U), _h_x)),
     (DEL_R, ORACLE), SYMMETRIC),
    ("r-uxux-doubled", curvature, "_BRINKMANN_R", _entry_scaled((U, Xc, U, Xc), 2.0),
     (DEL_R, ORACLE), SYMMETRIC),
    ("gamma-v-uu-sign", curvature, "_BRINKMANN_GAMMA", _entry_scaled((V, U, U), -1.0),
     (ORACLE,), SYMMETRIC),
    ("r-uxux-sign", curvature, "_BRINKMANN_R", _entry_scaled((U, Xc, U, Xc), -1.0),
     (ORACLE,), SYMMETRIC),
    ("rosen-r-from-h-plus-1", curvature, "_ROSEN_R", _entry_replaced((U, Xc, U, Xc), _rosen_r_from_h_plus_1),
     (ORACLE,), CLASSES),
    ("del-u-r-doubled", curvature, "_BRINKMANN_DR", _entry_scaled((U, Xc, U, Xc), 2.0),
     (DEL_R, ORACLE), SYMMETRIC),
    ("mirror-sign-flipped", curvature, "_uxux_tensor", _result_edited(_mirror_sign_flipped),
     (DEL_R, ORACLE), SYMMETRIC),
    ("mirror-dropped", curvature, "_uxux_tensor", _result_edited(_mirror_dropped),
     (DEL_R, ORACLE), SYMMETRIC),
    ("r-uvuv-added", curvature, "_uxux_tensor", _result_edited(_uvuv_added),
     (DEL_R, ORACLE), SYMMETRIC),
    # geodesic layer
    ("x-acceleration-flipped", geodesics, "geodesic_rhs", _result_edited(_x_acceleration_flipped),
     (CLOSED_FORM, CONSERVATION), COMPLETE),
    ("v-cross-term-dropped", geodesics, "geodesic_rhs", _result_edited(_cross_term_dropped),
     (CONSERVATION,), COMPLETE),
    ("x-acceleration-du-once", geodesics, "geodesic_rhs", _result_edited(_x_acceleration_du_once),
     (CONSERVATION,), COMPLETE),
    ("v-acceleration-du-cubed", geodesics, "geodesic_rhs", _result_edited(_v_acceleration_du_cubed),
     (CONSERVATION,), COMPLETE),
    ("v-acceleration-offset", geodesics, "geodesic_rhs", _result_edited(_v_acceleration_offset),
     (CONSERVATION,), COMPLETE),
    ("v-cross-term-du-squared", geodesics, "geodesic_rhs", _result_edited(_cross_term_du_squared),
     (CONSERVATION,), COMPLETE),
    ("tolerances-loosened", geodesics, "integrate_geodesic", _loose_tolerances,
     (CLOSED_FORM, CONSERVATION), COMPLETE),
    ("oscillatory-omega-scaled", geodesics, "euler_basis", _omega_scaled(1.01),
     (CLOSED_FORM,), COMPLETE),
]

NAMED = {check for row in ROWS for check in row[4]}

# registered checks that no row names yet; shrink this set as rows land
UNROWED = {
    "acceptance-01-flatness-dichotomy",
    "acceptance-03-b-invariant-correspondence",
    "acceptance-05-killing-suite",
    "acceptance-06-incompleteness",
    "acceptance-10-sectional-blowup",
    "lie-normalize-idempotent",
}


def binding_sites(module, name):
    """Every (module, attribute) of the package bound to ``module.name``."""
    real = getattr(module, name)
    return [
        (mod, attr)
        for key, mod in list(sys.modules.items())
        if key == "lorentz3" or key.startswith("lorentz3.")
        for attr, value in list(vars(mod).items())
        if value is real
    ]


@contextlib.contextmanager
def planted(module, name, factory):
    sites = binding_sites(module, name)
    mutant = factory(getattr(module, name))
    with contextlib.ExitStack() as stack:
        for mod, attr in sites:
            stack.enter_context(mock.patch.object(mod, attr, mutant))
        yield sites


@pytest.mark.parametrize(
    "module, name, factory, checks, claim", [pytest.param(*row[1:], id=row[0]) for row in ROWS]
)
def test_every_named_check_catches_the_defect(module, name, factory, checks, claim):
    with planted(module, name, factory):
        results = [run_check(check) for check in checks]
    missed = [f"{r.name}: {r.detail}" for r in results if r.passed]
    assert not missed, f"defect against '{claim}' passed {missed}"
    # a check that crashes counts as failed in verify, but here it would
    # hide a defect factory that does not run
    crashed = [f"{r.name}: {r.detail}" for r in results if r.detail.startswith("raised ")]
    assert not crashed, crashed


def test_a_defect_reaches_every_binding_site():
    real = lie_core.normalize_to_canonical
    with planted(lie_core, "normalize_to_canonical", _doubled_scale) as sites:
        patched = {mod.__name__ for mod, _ in sites}
        assert {"lorentz3.lie_core", "lorentz3.classifier", "lorentz3.verify"} <= patched
        assert all(getattr(mod, attr) is not real for mod, attr in sites)
    assert all(getattr(mod, attr) is real for mod, attr in sites)


def test_every_named_check_is_registered():
    assert NAMED <= set(check_names()), sorted(NAMED - set(check_names()))


def test_the_checks_no_row_names_are_pinned():
    assert set(check_names()) - NAMED == UNROWED
