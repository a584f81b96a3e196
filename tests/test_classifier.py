from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.classifier import (
    SpaceClass,
    brinkmann_chart,
    class_from_b,
    classify,
    invariant_b,
    report_from_class,
    space_report,
)
from lorentz3.geometry import Constant, PowerLaw
from lorentz3.lie_core import (
    Derivation,
    UnimodularInput,
    compose_automorphisms,
    conjugate_derivation,
    diagonal_automorphism,
    extend_algebra,
    inner_automorphism,
    is_homothety_on_quotient,
    jacobi_residual,
    rotation_scale_automorphism,
    shear_automorphism,
)
from lorentz3.metric_builder import (
    NoInvariantMetric,
    _nilpotency_order_mod_w,
    ad_w_matrix_on_m,
    has_transverse_subalgebra,
    signature,
    skew_residual,
    twist_coefficient,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_small = small.filter(lambda q: q != 0)

non_homothety_derivations = st.builds(
    lambda p, q, r, s, zx, zy: Derivation.from_rows(
        [[p + s, zx, zy], [0, p, q], [0, r, s]]
    ),
    *(rationals,) * 6,
).filter(lambda a: not is_homothety_on_quotient(a))

automorphisms = st.one_of(
    st.builds(diagonal_automorphism, nonzero_small, nonzero_small),
    st.builds(shear_automorphism, small),
    st.builds(rotation_scale_automorphism, small, nonzero_small),
    st.builds(inner_automorphism, small, small),
)


class TestInvariantB:
    def test_canonical_is_fixed(self):
        assert invariant_b(Derivation.canonical(3)) == 3

    def test_diagonal_exponent_family(self):
        assert invariant_b(Derivation.rosen_exponent(-1)) == 2

    def test_similarity_action(self):
        assert invariant_b(Derivation.elliptic(1)) == Fraction(-1, 2)

    def test_unimodular_raises(self):
        with pytest.raises(UnimodularInput):
            invariant_b(Derivation.cw_hyperbolic())

    @given(rationals)
    @settings(max_examples=60)
    def test_exponent_correspondence(self, alpha):
        assert invariant_b(Derivation.rosen_exponent(alpha)) == alpha * alpha - alpha

    @given(rationals.filter(lambda q: q != 0), rationals)
    @settings(max_examples=40)
    def test_scale_and_shear_invariance(self, lam, t):
        a = Derivation.canonical(Fraction(7, 5))
        b0 = invariant_b(a)
        assert invariant_b(a.scaled(lam)) == b0
        assert invariant_b(conjugate_derivation(a, shear_automorphism(t))) == b0


class TestClassify:
    def test_unipotent_action_is_flat_complete(self):
        assert classify(Derivation.nilpotent()) == SpaceClass("MinkowskiFlat")

    def test_unimodular_hyperbolic(self):
        assert classify(Derivation.cw_hyperbolic()) == SpaceClass("CahenWallachHyperbolic")

    def test_unimodular_elliptic(self):
        assert classify(Derivation.cw_elliptic()) == SpaceClass("CahenWallachElliptic")

    def test_fixed_vector_gives_flat_half_space(self):
        a = Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert classify(a) == SpaceClass("HalfMinkowskiFlat", Fraction(0))

    def test_similarity_action_is_elliptic(self):
        assert classify(Derivation.elliptic(1)) == SpaceClass(
            "NonUnimodularElliptic", Fraction(-1, 2)
        )

    def test_thresholds(self):
        assert class_from_b(2).tag == "NonUnimodularHyperbolic"
        assert class_from_b(Fraction(-1, 4)).tag == "NonUnimodularParabolic"
        assert class_from_b(Fraction(-1, 3)).tag == "NonUnimodularElliptic"
        assert class_from_b(0).tag == "HalfMinkowskiFlat"

    def test_homothety_rejected(self):
        with pytest.raises(NoInvariantMetric):
            classify(Derivation.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(NoInvariantMetric):
            classify(Derivation.inner(1, -1))

    def test_class_invariants_enforced(self):
        with pytest.raises(ValueError):
            SpaceClass("NonUnimodularHyperbolic", Fraction(-1, 2))
        with pytest.raises(ValueError):
            SpaceClass("NonUnimodularElliptic", Fraction(1))
        with pytest.raises(ValueError):
            SpaceClass("MinkowskiFlat", Fraction(1))
        for tag, b in (
            ("HalfMinkowskiFlat", 1),
            ("NonUnimodularParabolic", 0),
            ("NonUnimodularHyperbolic", 0),
        ):
            with pytest.raises(ValueError):
                SpaceClass(tag, Fraction(b))

    @given(rationals.filter(lambda q: q != 0))
    @settings(max_examples=40)
    def test_scaling_never_moves_the_class(self, lam):
        for a in (
            Derivation.canonical(2),
            Derivation.elliptic(1),
            Derivation.parabolic(),
            Derivation.nilpotent(),
        ):
            assert classify(a.scaled(lam)) == classify(a)

    # two extension groups are isomorphic exactly when their classes are equal
    def test_same_b_same_group(self):
        assert classify(Derivation.canonical(2)) == classify(Derivation.rosen_exponent(-1))

    def test_different_b_different_group(self):
        assert classify(Derivation.canonical(1)) != classify(Derivation.canonical(2))

    def test_distinct_symmetric_models(self):
        assert classify(Derivation.cw_hyperbolic()) != classify(Derivation.cw_elliptic())

    def test_flat_pair_is_not_isomorphic(self):
        half = Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert classify(Derivation.nilpotent()) != classify(half)

    def test_conjugation_and_scaling_preserve_the_group(self):
        a = Derivation.hyperbolic_diag(Fraction(-1, 2))
        phi = diagonal_automorphism(3, Fraction(-2, 5))
        assert classify(conjugate_derivation(a, phi).scaled(7)) == classify(a)


class TestSpaceReport:
    def test_sol_case(self):
        rep = space_report(Derivation.rosen_exponent(-1))
        assert rep["b"] == "2"
        assert rep["flags"]["compact_model"]
        assert rep["brinkmann_chart"] == {"form": "power-law", "b": 2.0}
        assert isinstance(rep["brinkmann_chart"]["b"], float)

    def test_elliptic_case(self):
        flags = space_report(Derivation.elliptic(1))["flags"]
        assert not flags["transverse_3d_group"]
        assert not flags["locally_symmetric"]
        assert not flags["compact_model"]

    def test_symmetric_elliptic_model(self):
        rep = space_report(Derivation.cw_elliptic())
        flags = rep["flags"]
        assert flags["symmetric"] and flags["complete"]
        assert not flags["compact_model"]
        assert not flags["transverse_3d_group"]
        assert rep["brinkmann_chart"] == {"form": "constant", "h": -1.0}

    def test_flat_models(self):
        mink = space_report(Derivation.nilpotent())
        assert mink["flags"]["flat"] and mink["flags"]["complete"] and mink["flags"]["compact_model"]
        assert mink["brinkmann_chart"] == {"form": "constant", "h": 0.0}
        half = space_report(Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))["flags"]
        assert half["flat"] and not half["complete"] and not half["compact_model"]
        assert half["locally_symmetric"]

    def test_flag_implications_hold_for_every_class(self):
        classes = [
            SpaceClass("MinkowskiFlat"),
            SpaceClass("HalfMinkowskiFlat", Fraction(0)),
            SpaceClass("CahenWallachHyperbolic"),
            SpaceClass("CahenWallachElliptic"),
            class_from_b(2),
            class_from_b(1),
            class_from_b(Fraction(-1, 4)),
            class_from_b(Fraction(-1, 2)),
        ]
        for cls in classes:
            flags = report_from_class(cls)["flags"]
            assert not flags["flat"] or flags["locally_symmetric"]
            assert not flags["symmetric"] or flags["locally_symmetric"]
            assert flags["complete"] == flags["symmetric"]

    def test_every_source_records_whether_it_was_rationalized(self):
        assert report_from_class(SpaceClass("CahenWallachElliptic"))["normalization"] == {"rationalized_input": False}
        assert report_from_class(class_from_b(2), rationalized_input=True)["normalization"] == {
            "rationalized_input": True
        }

    def test_brinkmann_chart_of_each_class(self):
        assert brinkmann_chart(SpaceClass("MinkowskiFlat")) == Constant(0.0)
        assert brinkmann_chart(SpaceClass("CahenWallachHyperbolic")) == Constant(1.0)
        assert brinkmann_chart(SpaceClass("CahenWallachElliptic")) == Constant(-1.0)
        for b in (0, 2, Fraction(-1, 4), Fraction(-7, 3)):
            chart = brinkmann_chart(class_from_b(b))
            assert isinstance(chart, PowerLaw) and chart.b == float(b)

    def test_normalization_records_scale_sign(self):
        rep = space_report(Derivation.canonical(2).scaled(-1))
        assert rep["normalization"]["time_reversed"] is True
        assert rep["normalization"]["scale"] == "-1"

    def test_report_embeds_the_invariant_metric(self):
        rep = space_report(Derivation.parabolic())
        gram = rep["invariant_metric"]["gram"]
        assert gram[0][2] == "-1"
        assert rep["invariant_metric"]["signature"] == {"plus": 2, "minus": 1, "zero": 0}

    @given(non_homothety_derivations, automorphisms, automorphisms)
    @settings(max_examples=60, deadline=None)
    def test_report_invariants_on_conjugated_derivations(self, a, phi, psi):
        # the checks that once ran inside space_report, on a superset of
        # the inputs they saw there
        a = conjugate_derivation(a, compose_automorphisms(phi, psi))
        rep = space_report(a)
        assert jacobi_residual(extend_algebra(a)) == 0
        metric = rep["invariant_metric"]
        w = tuple(Fraction(c) for c in metric["isotropy_generator"])
        assert twist_coefficient(a, w) != 0
        assert _nilpotency_order_mod_w(a, w) == 3
        assert tuple(Fraction(c) for c in metric["yprime_in_heis"]) == a.apply(w)
        gram = [[Fraction(e) for e in row] for row in metric["gram"]]
        assert skew_residual(gram, ad_w_matrix_on_m(a, w)) == 0
        # the report prints (2, 1, 0) as a literal; the reduction runs here
        assert signature(gram) == (2, 1, 0)
        assert rep["flags"]["transverse_3d_group"] == has_transverse_subalgebra(a)

    def test_json_round_trip_fields(self):
        payload = space_report(Derivation.canonical(Fraction(-1, 2)))
        assert payload["class"] == "NonUnimodularElliptic"
        assert payload["b"] == "-1/2"
        assert payload["flags"]["transverse_3d_group"] is False
        assert payload["brinkmann_chart"]["form"] == "power-law"
