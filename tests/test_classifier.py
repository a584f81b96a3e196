from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.classifier import (
    SpaceClass,
    class_from_b,
    classify,
    groups_isomorphic,
    invariant_b,
    report_from_class,
    space_report,
)
from lorentz3.geometry import Constant, PowerLaw
from lorentz3.lie_core import (
    Derivation,
    IsotropyChoice,
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
    InvariantMetric,
    NoInvariantMetric,
    _nilpotency_order_mod_w,
    ad_w_matrix_on_m,
    has_transverse_subalgebra,
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


class TestGroupsIsomorphic:
    def test_same_b_same_group(self):
        assert groups_isomorphic(Derivation.canonical(2), Derivation.rosen_exponent(-1))

    def test_different_b_different_group(self):
        assert not groups_isomorphic(Derivation.canonical(1), Derivation.canonical(2))

    def test_distinct_symmetric_models(self):
        assert not groups_isomorphic(Derivation.cw_hyperbolic(), Derivation.cw_elliptic())

    def test_flat_pair_is_not_isomorphic(self):
        half = Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert not groups_isomorphic(Derivation.nilpotent(), half)

    def test_conjugation_and_scaling_preserve_the_group(self):
        a = Derivation.hyperbolic_diag(Fraction(-1, 2))
        phi = diagonal_automorphism(3, Fraction(-2, 5))
        assert groups_isomorphic(a, conjugate_derivation(a, phi).scaled(7))


class TestSpaceReport:
    def test_sol_case(self):
        rep = space_report(Derivation.rosen_exponent(-1))
        assert rep.b == 2
        assert rep.compact_model
        assert "SOL" in rep.isometry_group_note
        assert isinstance(rep.brinkmann_chart, PowerLaw)
        assert rep.brinkmann_chart.b == 2.0

    def test_elliptic_case(self):
        rep = space_report(Derivation.elliptic(1))
        assert not rep.transverse_3d_group
        assert not rep.locally_symmetric
        assert not rep.compact_model

    def test_symmetric_elliptic_model(self):
        rep = space_report(Derivation.cw_elliptic())
        assert rep.symmetric and rep.complete
        assert not rep.compact_model
        assert not rep.transverse_3d_group
        assert rep.brinkmann_chart == Constant(-1.0)

    def test_flat_models(self):
        mink = space_report(Derivation.nilpotent())
        assert mink.flat and mink.complete and mink.compact_model
        assert mink.brinkmann_chart == Constant(0.0)
        half = space_report(Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        assert half.flat and not half.complete and not half.compact_model
        assert half.locally_symmetric

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
            rep = report_from_class(cls)
            assert not rep.flat or rep.locally_symmetric
            assert not rep.symmetric or rep.locally_symmetric
            assert rep.complete == rep.symmetric

    def test_normalization_records_scale_sign(self):
        rep = space_report(Derivation.canonical(2).scaled(-1))
        assert rep.normalization["time_reversed"] is True
        assert rep.normalization["scale"] == "-1"

    def test_report_embeds_the_invariant_metric(self):
        rep = space_report(Derivation.parabolic())
        gram = rep.invariant_metric["gram"]
        assert gram[0][2] == "-1"
        assert rep.invariant_metric["signature"] == {"plus": 2, "minus": 1, "zero": 0}

    @given(non_homothety_derivations, automorphisms, automorphisms)
    @settings(max_examples=60, deadline=None)
    def test_report_invariants_on_conjugated_derivations(self, a, phi, psi):
        # the checks that once ran inside space_report, on a superset of
        # the inputs they saw there
        a = conjugate_derivation(a, compose_automorphisms(phi, psi))
        rep = space_report(a)
        assert jacobi_residual(extend_algebra(a)) == 0
        metric = rep.invariant_metric
        w = IsotropyChoice.of(*metric["isotropy_generator"])
        assert twist_coefficient(a, w) != 0
        assert _nilpotency_order_mod_w(a, w) == 3
        built = InvariantMetric(
            gram=tuple(tuple(Fraction(e) for e in row) for row in metric["gram"]),
            yprime=tuple(Fraction(c) for c in metric["yprime_in_heis"]),
        )
        assert skew_residual(built, ad_w_matrix_on_m(a, w)) == 0
        assert rep.transverse_3d_group == has_transverse_subalgebra(a)

    def test_json_round_trip_fields(self):
        payload = space_report(Derivation.canonical(Fraction(-1, 2))).to_json()
        assert payload["class"] == "NonUnimodularElliptic"
        assert payload["b"] == "-1/2"
        assert payload["flags"]["transverse_3d_group"] is False
        assert payload["brinkmann_chart"]["form"] == "power-law"
