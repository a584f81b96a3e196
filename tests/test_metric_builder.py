from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.lie_core import (
    Z,
    Derivation,
    compose_automorphisms,
    conjugate_derivation,
    diagonal_automorphism,
    extend_algebra,
    inner_automorphism,
    is_homothety_on_quotient,
    rotation_scale_automorphism,
    shear_automorphism,
)
from lorentz3.metric_builder import (
    NoInvariantMetric,
    _nilpotency_order_mod_w,
    ad_w_matrix_on_m,
    admits_metric,
    build_invariant_metric,
    has_transverse_subalgebra,
    signature,
    skew_residual,
    standard_isotropy_for,
    twist_coefficient,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)

derivations = st.builds(
    lambda p, q, r, s, zx, zy: Derivation.from_rows(
        [[p + s, zx, zy], [0, p, q], [0, r, s]]
    ),
    *(rationals,) * 6,
)

homotheties = st.builds(
    lambda lam, zx, zy: Derivation.from_rows([[2 * lam, zx, zy], [0, lam, 0], [0, 0, lam]]),
    *(rationals,) * 3,
)

nonzero_rationals = rationals.filter(lambda q: q != 0)

automorphisms = st.builds(
    lambda t1, t2, s, p, q, u, v: compose_automorphisms(
        diagonal_automorphism(t1, t2),
        shear_automorphism(s),
        rotation_scale_automorphism(p, q),
        inner_automorphism(u, v),
    ),
    nonzero_rationals,
    nonzero_rationals,
    rationals,
    nonzero_rationals,
    *(rationals,) * 3,
)

isotropy = st.builds(
    lambda g, a, b: (g, a, b), rationals, rationals, rationals
).filter(lambda t: t[1] != 0 or t[2] != 0)


class TestAdmitsMetric:
    def test_generic_direction_works_for_diagonal_action(self):
        a = Derivation.hyperbolic_diag(2)
        assert admits_metric(a, (0, 1, 1))

    def test_eigenvector_direction_fails(self):
        a = Derivation.hyperbolic_diag(2)
        assert not admits_metric(a, (0, 1, 0))

    def test_every_direction_works_for_rotations(self):
        assert admits_metric(Derivation.elliptic(1), (0, 1, 0))

    def test_zero_quotient_block_never_admits(self):
        a = Derivation.inner(1, -2)
        for w in ((0, 1, 0), (0, 0, 1), (0, 1, 1), (2, 1, -1)):
            assert not admits_metric(a, w)

    @given(derivations, isotropy)
    @settings(max_examples=80)
    def test_criteria_agree_on_random_data(self, a, w):
        # the eigenvector test that admits_metric decides by, against the
        # brute-force nilpotency order of ad_W modulo W
        by_eigenvector = twist_coefficient(a, w) != 0
        assert admits_metric(a, w) == by_eigenvector
        assert by_eigenvector == (_nilpotency_order_mod_w(a, w) == 3)

    @given(derivations, isotropy)
    @settings(max_examples=80)
    def test_twist_is_the_z_coefficient_of_w_bracket_a_w(self, a, w):
        # the closed form on A-bar against sum_ij W_i A(W)_j c[i][j][Z] read
        # off the structure constants
        c = extend_algebra(a)
        wvec, awvec = (*w, 0), (*a.apply(w), 0)
        bracket_z = sum(wvec[i] * awvec[j] * c[i][j][Z] for i in range(4) for j in range(4))
        assert twist_coefficient(a, w) == bracket_z

    def test_central_generator_refused(self):
        a = Derivation.hyperbolic_diag(2)
        for call in (admits_metric, build_invariant_metric, _nilpotency_order_mod_w):
            with pytest.raises(ValueError, match="non-central"):
                call(a, (1, 0, 0))


class TestBuildInvariantMetric:
    def test_hyperbolic_table(self):
        a = Derivation.hyperbolic_diag(2)
        w = (0, 1, 1)
        gram = build_invariant_metric(a, w)
        assert a.apply(w) == (0, 1, 2)  # Y' = X + bY
        assert gram[1][1] == 1
        assert gram[0][2] == 1  # 1/(b-1) at b = 2
        assert gram[0][0] == 0 and gram[2][2] == 0 and gram[0][1] == 0
        assert signature(gram) == (2, 1, 0)

    def test_hyperbolic_general_b(self):
        a = Derivation.hyperbolic_diag(3)
        gram = build_invariant_metric(a, (0, 1, 1))
        assert gram[0][2] == Fraction(1, 2)  # 1/(b-1)

    def test_parabolic_table(self):
        a, w = Derivation.parabolic(), (0, 0, 1)
        assert a.apply(w) == (0, 1, 1)  # Y' = X + Y
        assert build_invariant_metric(a, w)[0][2] == -1

    def test_elliptic_table(self):
        a, w = Derivation.elliptic(1), (0, 1, 0)
        assert a.apply(w) == (0, 1, 1)  # Y' = Y + cX at c = 1
        assert build_invariant_metric(a, w)[0][2] == 1

    def test_nilpotent_table(self):
        a, w = Derivation.nilpotent(), (0, 0, 1)
        assert a.apply(w) == (0, 1, 0)  # Y' = X
        assert build_invariant_metric(a, w)[0][2] == -1

    def test_unimodular_hyperbolic_table(self):
        gram = build_invariant_metric(Derivation.cw_hyperbolic(), (0, 1, 1))
        assert gram[0][2] == Fraction(-1, 2)

    def test_unimodular_elliptic_table(self):
        gram = build_invariant_metric(Derivation.cw_elliptic(), (0, 1, 0))
        assert gram[0][2] == 1

    def test_rejects_eigenvector_isotropy(self):
        with pytest.raises(NoInvariantMetric):
            build_invariant_metric(Derivation.hyperbolic_diag(2), (0, 1, 0))

    @given(derivations, isotropy)
    @settings(max_examples=60)
    def test_signature_and_skew_on_random_admissible_data(self, a, w):
        if not admits_metric(a, w):
            return
        gram = build_invariant_metric(a, w)
        assert signature(gram) == (2, 1, 0)
        assert skew_residual(gram, ad_w_matrix_on_m(a, w)) == 0


class TestSignature:
    @pytest.mark.parametrize(
        "gram, inertia",
        [
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (3, 0, 0)),
            (((0, 0, 1), (0, 1, 0), (1, 0, 0)), (2, 1, 0)),  # a hyperbolic pair and a spacelike line
            (((0, 0, -3), (0, 1, 0), (-3, 0, 0)), (2, 1, 0)),
            (((1, 2, 0), (2, 1, 0), (0, 0, 0)), (1, 1, 1)),
            (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 3)),
        ],
    )
    def test_sylvester_inertia(self, gram, inertia):
        assert signature(gram) == inertia


class TestSkewResidual:
    def test_constructed_metric_is_exactly_invariant(self):
        a = Derivation.hyperbolic_diag(2)
        w = (0, 1, 1)
        gram = build_invariant_metric(a, w)
        assert skew_residual(gram, ad_w_matrix_on_m(a, w)) == 0

    def test_corrupted_gram_detected(self):
        a = Derivation.hyperbolic_diag(2)
        w = (0, 1, 1)
        bad = [list(r) for r in build_invariant_metric(a, w)]
        bad[2][2] = Fraction(1)  # g(Z, Z) = 1
        # the (Y', Z) pair evaluates to kappa * g(Z, Z) = (b - 1) * 1 = 1
        kappa = twist_coefficient(a, w)
        assert skew_residual(bad, ad_w_matrix_on_m(a, w)) == abs(kappa) == 1

    def test_zero_ad_map(self):
        gram = build_invariant_metric(Derivation.parabolic(), (0, 0, 1))
        zero = ((Fraction(0),) * 3,) * 3
        assert skew_residual(gram, zero) == 0


class TestTransverseSubalgebra:
    def test_similarity_actions_have_none(self):
        assert not has_transverse_subalgebra(Derivation.elliptic(1))
        assert not has_transverse_subalgebra(Derivation.cw_elliptic())

    def test_real_spectrum_has_one(self):
        assert has_transverse_subalgebra(Derivation.hyperbolic_diag(2))
        assert has_transverse_subalgebra(Derivation.nilpotent())
        assert has_transverse_subalgebra(Derivation.parabolic())


class TestStandardIsotropy:
    def test_matches_tabulated_choices(self):
        assert standard_isotropy_for(Derivation.hyperbolic_diag(2)) == (0, 1, 1)
        assert standard_isotropy_for(Derivation.parabolic()) == (0, 0, 1)
        assert standard_isotropy_for(Derivation.elliptic(1)) == (0, 1, 0)
        assert standard_isotropy_for(Derivation.nilpotent()) == (0, 0, 1)

    def test_homothety_has_no_choice(self):
        with pytest.raises(NoInvariantMetric):
            standard_isotropy_for(Derivation.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(NoInvariantMetric):
            standard_isotropy_for(Derivation.inner(1, 1))

    @given(st.one_of(derivations, homotheties), automorphisms)
    @settings(max_examples=100)
    def test_conjugated_inputs_get_a_standard_choice(self, a, phi):
        # X + Y, X and Y are pairwise independent and a non-scalar quotient
        # action has at most two eigenlines, so one of them always works
        a = conjugate_derivation(a, phi)
        if is_homothety_on_quotient(a):
            with pytest.raises(NoInvariantMetric):
                standard_isotropy_for(a)
            return
        w = standard_isotropy_for(a)
        assert w in ((0, 1, 1), (0, 1, 0), (0, 0, 1))
        assert admits_metric(a, w)
