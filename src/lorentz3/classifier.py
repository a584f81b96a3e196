"""Decision procedure: from a derivation to the full space report.

The decision tree is exact rational arithmetic throughout:

* tr(A-bar) = 0 (unimodular, the symmetric branch):
  nilpotent quotient action -> flat Minkowski model; positive discriminant
  -> the hyperbolic symmetric model; negative -> the elliptic one.
* tr(A-bar) != 0: everything is decided by the invariant
  b = -det(A-bar) / tr(A-bar)^2, with thresholds at b = 0 (flat half
  Minkowski) and b = -1/4 (parabolic boundary between the hyperbolic
  b > -1/4 and elliptic b < -1/4 classes).

A quotient action that is a homothety (including zero) admits no invariant
Lorentz metric for any isotropy choice and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    spectrum_on_quotient,
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
        if self.tag == HALF_MINKOWSKI_FLAT and self.b != 0:
            raise ValueError("flat half Minkowski has b = 0")
        if self.tag == NONUNI_PARABOLIC and self.b != _QUARTER:
            raise ValueError("parabolic class has b = -1/4")
        if self.tag == NONUNI_ELLIPTIC and not self.b < _QUARTER:
            raise ValueError("elliptic class has b < -1/4")
        if self.tag == NONUNI_HYPERBOLIC and (self.b <= _QUARTER or self.b == 0):
            raise ValueError("hyperbolic class has b > -1/4, b != 0")

    def __str__(self) -> str:
        return self.tag if self.b is None else f"{self.tag}(b={self.b})"


def class_from_b(b) -> SpaceClass:
    b, _ = as_rational(b)
    if b == 0:
        return SpaceClass(HALF_MINKOWSKI_FLAT, b)
    if b == _QUARTER:
        return SpaceClass(NONUNI_PARABOLIC, b)
    if b < _QUARTER:
        return SpaceClass(NONUNI_ELLIPTIC, b)
    return SpaceClass(NONUNI_HYPERBOLIC, b)


def classify(a: Derivation) -> SpaceClass:
    """Full decision tree; raises NoInvariantMetric when no isotropy choice
    yields a Lorentz metric (homothety quotient action)."""
    if not is_derivation(a):
        raise ValueError("not a derivation")
    if is_homothety_on_quotient(a):
        raise NoInvariantMetric(
            "quotient action is a homothety: no invariant Lorentz metric exists"
        )
    spec = spectrum_on_quotient(a)
    if spec.trace == 0:
        if spec.type == "nilpotent-nonzero":
            return SpaceClass(MINKOWSKI_FLAT)
        if spec.discriminant > 0:
            return SpaceClass(CW_HYPERBOLIC)
        return SpaceClass(CW_ELLIPTIC)
    return class_from_b(invariant_b(a))


def groups_isomorphic(a1: Derivation, a2: Derivation) -> bool:
    """Isomorphism of the two extension groups.

    Non-unimodular pairs are isomorphic exactly when their b invariants
    agree; unimodular pairs exactly when they land in the same symmetric
    class; mixed pairs never are.
    """
    c1 = classify(a1)
    c2 = classify(a2)
    u1 = c1.tag in UNIMODULAR_TAGS
    u2 = c2.tag in UNIMODULAR_TAGS
    if u1 != u2:
        return False
    if u1:
        return c1.tag == c2.tag
    return c1.b == c2.b


# ---------------------------------------------------------------------------
# Space report
# ---------------------------------------------------------------------------

_CITATIONS = [
    {
        "flag": "symmetric",
        "result": "the quotient is (globally) symmetric exactly when the extension is unimodular",
    },
    {
        "flag": "locally_symmetric",
        "result": "beyond the symmetric cases, only the flat b = 0 space is locally symmetric",
    },
    {
        "flag": "flat",
        "result": "constant curvature forces flatness; the flat cases are the unipotent action (complete) and b = 0 (half Minkowski)",
    },
    {
        "flag": "complete",
        "result": "geodesically complete only if symmetric; non-unimodular spaces have incomplete timelike and vertical null geodesics",
    },
    {
        "flag": "compact_model",
        "result": "exactly one non-flat space admits compact quotients (b = 2, via lattices in SOL); the flat Minkowski model admits flat compact quotients",
    },
    {
        "flag": "transverse_3d_group",
        "result": "a 3-dimensional isometry group with an open orbit exists iff the quotient action has real spectrum",
    },
    {
        "flag": "brinkmann_chart",
        "result": "non-unimodular spaces carry global Brinkmann coordinates with profile b/u^2; the symmetric models have constant profile 0 or +-1",
    },
    {
        "flag": "b",
        "result": "b determines the extension group up to isomorphism, and equals -det of the normalized quotient action",
    },
]


@dataclass(frozen=True)
class SpaceReport:
    space_class: SpaceClass
    symmetric: bool
    locally_symmetric: bool
    flat: bool
    complete: bool
    compact_model: bool
    transverse_3d_group: bool
    brinkmann_chart: Union[PowerLaw, Constant]
    isometry_group_note: str
    normalization: dict = field(default_factory=dict)
    invariant_metric: Optional[dict] = None

    @property
    def b(self) -> Optional[Fraction]:
        return self.space_class.b

    def to_json(self) -> dict:
        chart = self.brinkmann_chart
        if isinstance(chart, PowerLaw):
            chart_json = {"form": "power-law", "b": chart.b, "domain": "u > 0"}
        else:
            chart_json = {"form": "constant", "h": chart.h_value, "domain": "all of R^3"}
        out = {
            "class": self.space_class.tag,
            "b": None if self.b is None else str(self.b),
            "flags": {
                "symmetric": self.symmetric,
                "locally_symmetric": self.locally_symmetric,
                "flat": self.flat,
                "complete": self.complete,
                "compact_model": self.compact_model,
                "transverse_3d_group": self.transverse_3d_group,
            },
            "brinkmann_chart": chart_json,
            "isometry_group_note": self.isometry_group_note,
            "citations": _CITATIONS,
            "normalization": self.normalization,
        }
        if self.invariant_metric is not None:
            out["invariant_metric"] = self.invariant_metric
        return out


def _note_for(cls: SpaceClass) -> str:
    if cls.tag == MINKOWSKI_FLAT:
        return (
            "isometric to Minkowski space; the extension acts as a unipotent "
            "one-parameter group of affine isometries, and compact flat "
            "quotients exist (lattices in the Heisenberg group)"
        )
    if cls.tag == HALF_MINKOWSKI_FLAT:
        return (
            "globally isometric to half Minkowski; the extension is the "
            "affine group acting on a degenerate plane; flat compact "
            "manifolds exist but none is a quotient of this space"
        )
    if cls.tag == CW_HYPERBOLIC:
        return (
            "indecomposable symmetric space (hyperbolic type) with a "
            "4-dimensional solvable isometry group; no compact model"
        )
    if cls.tag == CW_ELLIPTIC:
        return (
            "indecomposable symmetric space (elliptic type, oscillator "
            "group); no compact model and no transverse 3-dimensional group"
        )
    if cls.tag == NONUNI_ELLIPTIC:
        return (
            "similarity action with non-real spectrum: no 3-dimensional "
            "group acts with an open orbit; neither locally symmetric nor "
            "locally isometric to a left-invariant metric on a 3-dimensional "
            "group"
        )
    if cls.tag == NONUNI_PARABOLIC:
        return "boundary case b = -1/4 (repeated real eigenvalue, non-diagonalizable)"
    if cls.b == 2:
        return (
            "isometry group contains a copy of SOL = SO(1,1) x| R^2 acting "
            "properly; every lattice in SOL gives a compact quotient, and "
            "this is the only non-flat space with compact models"
        )
    return (
        "isometry component is the 4-dimensional extension itself; a "
        "transverse 3-dimensional subgroup exists (real spectrum)"
    )


def report_from_class(
    cls: SpaceClass,
    normalization: Optional[dict] = None,
    invariant_metric: Optional[dict] = None,
) -> SpaceReport:
    symmetric = cls.tag in UNIMODULAR_TAGS
    flat = cls.tag in (MINKOWSKI_FLAT, HALF_MINKOWSKI_FLAT)
    chart: Union[PowerLaw, Constant]
    if cls.tag == MINKOWSKI_FLAT:
        chart = Constant(0.0)
    elif cls.tag == CW_HYPERBOLIC:
        chart = Constant(1.0)
    elif cls.tag == CW_ELLIPTIC:
        chart = Constant(-1.0)
    else:
        chart = PowerLaw(float(cls.b))
    return SpaceReport(
        space_class=cls,
        symmetric=symmetric,
        locally_symmetric=symmetric or flat,
        flat=flat,
        complete=symmetric,
        compact_model=cls.tag == MINKOWSKI_FLAT or cls.b == 2,
        transverse_3d_group=cls.tag not in (NONUNI_ELLIPTIC, CW_ELLIPTIC),
        brinkmann_chart=chart,
        isometry_group_note=_note_for(cls),
        normalization=normalization or {},
        invariant_metric=invariant_metric,
    )


def space_report(a: Derivation, rationalized_input: bool = False) -> SpaceReport:
    """Classify a derivation and assemble the full report, including the
    constructed invariant metric for a standard isotropy choice."""
    cls = classify(a)
    normalization = {
        "beta_normalized_to_zero": True,
        "rationalized_input": rationalized_input,
    }
    if cls.tag not in UNIMODULAR_TAGS:
        canonical = normalize_to_canonical(a)
        normalization["scale"] = str(canonical.scale)
        normalization["time_reversed"] = canonical.scale < 0
    w = standard_isotropy_for(a)
    metric = build_invariant_metric(a, w)
    metric_json = metric.to_report()
    metric_json["isotropy_generator"] = [str(c) for c in w.heis_coefficients]
    return report_from_class(cls, normalization=normalization, invariant_metric=metric_json)
