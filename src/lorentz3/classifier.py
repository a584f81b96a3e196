"""Decision procedure: from a derivation to the space report, the
``classify`` JSON payload itself (a plain dict).

The decision tree is exact rational arithmetic throughout:

* tr(A-bar) = 0 (unimodular, the symmetric branch): the sign of the
  discriminant tr^2 - 4 det of A-bar decides.  Zero (a nilpotent quotient
  action, once homotheties are refused) -> flat Minkowski model; positive
  -> the hyperbolic symmetric model; negative -> the elliptic one.
* tr(A-bar) != 0: everything is decided by the invariant
  b = -det(A-bar) / tr(A-bar)^2, with thresholds at b = 0 (flat half
  Minkowski) and b = -1/4 (parabolic boundary between the hyperbolic
  b > -1/4 and elliptic b < -1/4 classes).

A quotient action that is a homothety (including zero) admits no invariant
Lorentz metric for any isotropy choice and is rejected.

The space report is the ``classify`` payload itself: :func:`report_from_class`
returns the fields the class decides, :func:`space_report` adds those that
need the derivation.  :func:`brinkmann_chart` is the one class -> chart lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .geometry.charts import Constant, PowerLaw
from .lie_core import (
    Derivation,
    as_rational,
    invariant_b,
    is_derivation,
    is_homothety_on_quotient,
    normalize_to_canonical,
)
from .metric_builder import (
    NoInvariantMetric,
    build_invariant_metric,
    # Not called here: the verify registry and the tests compare the
    # transverse flag with it.  perfbench/layers.py traces this name in
    # this module, so it stays bound.
    has_transverse_subalgebra,
    standard_isotropy_for,
)

MINKOWSKI_FLAT = "MinkowskiFlat"
HALF_MINKOWSKI_FLAT = "HalfMinkowskiFlat"
CW_HYPERBOLIC = "CahenWallachHyperbolic"
CW_ELLIPTIC = "CahenWallachElliptic"
NONUNI_HYPERBOLIC = "NonUnimodularHyperbolic"
NONUNI_ELLIPTIC = "NonUnimodularElliptic"
NONUNI_PARABOLIC = "NonUnimodularParabolic"

UNIMODULAR_TAGS = frozenset({MINKOWSKI_FLAT, CW_HYPERBOLIC, CW_ELLIPTIC})
ALL_TAGS = UNIMODULAR_TAGS | {
    HALF_MINKOWSKI_FLAT,
    NONUNI_HYPERBOLIC,
    NONUNI_ELLIPTIC,
    NONUNI_PARABOLIC,
}

_QUARTER = Fraction(-1, 4)


@dataclass(frozen=True)
class SpaceClass:
    """Classification outcome; b is carried exactly where it is defined."""

    tag: str
    b: Optional[Fraction] = None

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}")
        if self.tag in UNIMODULAR_TAGS:
            if self.b is not None:
                raise ValueError(f"{self.tag} carries no b invariant")
            return
        if self.b is None:
            raise ValueError(f"{self.tag} requires the b invariant")
        tag = _tag_for_b(self.b)
        if tag != self.tag:
            raise ValueError(f"b = {self.b} lies in {tag}, not in {self.tag}")

    def __str__(self) -> str:
        return self.tag if self.b is None else f"{self.tag}(b={self.b})"


def _tag_for_b(b) -> str:
    """The non-unimodular class of b: flat half Minkowski at b = 0, the
    parabolic boundary at b = -1/4, elliptic below it, hyperbolic above."""
    if b == 0:
        return HALF_MINKOWSKI_FLAT
    if b == _QUARTER:
        return NONUNI_PARABOLIC
    return NONUNI_ELLIPTIC if b < _QUARTER else NONUNI_HYPERBOLIC


def class_from_b(b) -> SpaceClass:
    b, _ = as_rational(b)
    return SpaceClass(_tag_for_b(b), b)


def classify(a: Derivation) -> SpaceClass:
    """Full decision tree; raises NoInvariantMetric when no isotropy choice
    yields a Lorentz metric (homothety quotient action)."""
    if not is_derivation(a):
        raise ValueError("not a derivation")
    if is_homothety_on_quotient(a):
        raise NoInvariantMetric(
            "quotient action is a homothety: no invariant Lorentz metric exists"
        )
    if a.trace_quotient == 0:
        disc = a.discriminant_quotient
        if disc == 0:
            return SpaceClass(MINKOWSKI_FLAT)
        return SpaceClass(CW_HYPERBOLIC if disc > 0 else CW_ELLIPTIC)
    return class_from_b(invariant_b(a))


# ---------------------------------------------------------------------------
# Space report
# ---------------------------------------------------------------------------

_SYMMETRIC_PROFILE = {MINKOWSKI_FLAT: 0.0, CW_HYPERBOLIC: 1.0, CW_ELLIPTIC: -1.0}


def brinkmann_chart(cls: SpaceClass) -> Union[PowerLaw, Constant]:
    """The global Brinkmann chart of a class: profile b/u^2 on u > 0, or the
    constant profile 0, 1 or -1 of a symmetric model.  The report prints it
    and the curvature and geodesic commands compute on it."""
    if cls.b is not None:
        return PowerLaw(float(cls.b))
    return Constant(_SYMMETRIC_PROFILE[cls.tag])


def report_from_class(cls: SpaceClass, rationalized_input: bool = False) -> dict:
    """The ``classify`` payload (``space_report.schema.json``) without what
    needs a derivation.  The paper's result behind each field is stated
    once, as the ``description`` of its property in the schema."""
    symmetric = cls.tag in UNIMODULAR_TAGS
    flat = cls.tag in (MINKOWSKI_FLAT, HALF_MINKOWSKI_FLAT)
    chart = brinkmann_chart(cls)
    return {
        "class": cls.tag,
        "b": None if cls.b is None else str(cls.b),
        "flags": {
            "symmetric": symmetric,
            "locally_symmetric": symmetric or flat,
            "flat": flat,
            "complete": symmetric,
            "compact_model": cls.tag == MINKOWSKI_FLAT or cls.b == 2,
            "transverse_3d_group": cls.tag not in (NONUNI_ELLIPTIC, CW_ELLIPTIC),
        },
        "brinkmann_chart": {"form": "power-law", "b": chart.b}
        if isinstance(chart, PowerLaw)
        else {"form": "constant", "h": chart.h_value},
        "normalization": {"rationalized_input": rationalized_input},
    }


def space_report(a: Derivation, rationalized_input: bool = False) -> dict:
    """The full ``classify`` payload of a derivation: :func:`report_from_class`
    plus the normalization ``scale`` and ``time_reversed`` of a non-unimodular
    input and the invariant metric for a standard isotropy choice."""
    cls = classify(a)
    report = report_from_class(cls, rationalized_input)
    if cls.tag not in UNIMODULAR_TAGS:
        scale = normalize_to_canonical(a).scale
        report["normalization"].update(scale=str(scale), time_reversed=scale < 0)
    w = standard_isotropy_for(a)
    report["invariant_metric"] = {
        "yprime_in_heis": [str(c) for c in a.apply(w)],
        "gram": [[str(e) for e in row] for row in build_invariant_metric(a, w)],
        # every Gram matrix built there is [[0, 0, c], [0, 1, 0], [c, 0, 0]]
        # with c = 1/kappa != 0, a hyperbolic (T, Z) pair and a spacelike Y';
        # acceptance-04 and the tests compute this with metric_builder.signature
        "signature": {"plus": 2, "minus": 1, "zero": 0},
        "isotropy_generator": [str(c) for c in w],
    }
    return report
