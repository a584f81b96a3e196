from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.lie_core import Derivation, IsotropyChoice
from lorentz3.metric_builder import (
    InvariantMetric,
    NoInvariantMetric,
    _nilpotency_order_mod_w,
    ad_w_matrix_on_m,
    admits_metric,
    build_invariant_metric,
    has_transverse_subalgebra,
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

isotropy = st.builds(
    lambda g, a, b: (g, a, b), rationals, rationals, rationals
).filter(lambda t: t[1] != 0 or t[2] != 0)


class TestAdmitsMetric:
    def test_generic_direction_works_for_diagonal_action(self):
        a = Derivation.hyperbolic_diag(2)
        assert admits_metric(a, IsotropyChoice.of(0, 1, 1))

    def test_eigenvector_direction_fails(self):
        a = Derivation.hyperbolic_diag(2)
        assert not admits_metric(a, IsotropyChoice.of(0, 1, 0))

    def test_every_direction_works_for_rotations(self):
        assert admits_metric(Derivation.elliptic(1), IsotropyChoice.of(0, 1, 0))

    def test_zero_quotient_block_never_admits(self):
        a = Derivation.inner(1, -2)
        for w in ((0, 1, 0), (0, 0, 1), (0, 1, 1), (2, 1, -1)):
            assert not admits_metric(a, IsotropyChoice.of(*w))

    @given(derivations, isotropy)
    @settings(max_examples=80)
    def test_criteria_agree_on_random_data(self, a, w):
        # the eigenvector test that admits_metric decides by, against the
        # brute-force nilpotency order of ad_W modulo W
        choice = IsotropyChoice.of(*w)
        by_eigenvector = twist_coefficient(a, choice) != 0
        assert admits_metric(a, choice) == by_eigenvector
        assert by_eigenvector == (_nilpotency_order_mod_w(a, choice) == 3)


class TestBuildInvariantMetric:
    def test_hyperbolic_table(self):
        a = Derivation.hyperbolic_diag(2)
        m = build_invariant_metric(a, IsotropyChoice.of(0, 1, 1))
        assert m.yprime == (0, 1, 2)  # X + bY
        assert m.gram[1][1] == 1
        assert m.gram[0][2] == 1  # 1/(b-1) at b = 2
        assert m.gram[0][0] == 0 and m.gram[2][2] == 0 and m.gram[0][1] == 0
        assert m.is_lorentz

    def test_hyperbolic_general_b(self):
        a = Derivation.hyperbolic_diag(3)
        m = build_invariant_metric(a, IsotropyChoice.of(0, 1, 1))
        assert m.gram[0][2] == Fraction(1, 2)  # 1/(b-1)

    def test_parabolic_table(self):
        m = build_invariant_metric(Derivation.parabolic(), IsotropyChoice.of(0, 0, 1))
        assert m.yprime == (0, 1, 1)  # X + Y
        assert m.gram[0][2] == -1

    def test_elliptic_table(self):
        m = build_invariant_metric(Derivation.elliptic(1), IsotropyChoice.of(0, 1, 0))
        assert m.yprime == (0, 1, 1)  # Y + cX at c = 1
        assert m.gram[0][2] == 1

    def test_nilpotent_table(self):
        m = build_invariant_metric(Derivation.nilpotent(), IsotropyChoice.of(0, 0, 1))
        assert m.yprime == (0, 1, 0)  # X
        assert m.gram[0][2] == -1

    def test_unimodular_hyperbolic_table(self):
        m = build_invariant_metric(Derivation.cw_hyperbolic(), IsotropyChoice.of(0, 1, 1))
        assert m.gram[0][2] == Fraction(-1, 2)

    def test_unimodular_elliptic_table(self):
        m = build_invariant_metric(Derivation.cw_elliptic(), IsotropyChoice.of(0, 1, 0))
        assert m.gram[0][2] == 1

    def test_rejects_eigenvector_isotropy(self):
        with pytest.raises(NoInvariantMetric):
            build_invariant_metric(Derivation.hyperbolic_diag(2), IsotropyChoice.of(0, 1, 0))

    def test_alpha_scaling_is_entrywise(self):
        a = Derivation.elliptic(2)
        w = IsotropyChoice.of(0, 1, 0)
        base = build_invariant_metric(a, w)
        lam = Fraction(7, 3)
        scaled = build_invariant_metric(a, w, scale_alpha=lam)
        for i in range(3):
            for j in range(3):
                assert scaled.gram[i][j] == lam * base.gram[i][j]

    @given(derivations, isotropy)
    @settings(max_examples=60)
    def test_signature_and_skew_on_random_admissible_data(self, a, w):
        choice = IsotropyChoice.of(*w)
        if not admits_metric(a, choice):
            return
        m = build_invariant_metric(a, choice)
        assert m.is_lorentz
        assert skew_residual(m, ad_w_matrix_on_m(a, choice)) == 0


class TestSkewResidual:
    def test_constructed_metric_is_exactly_invariant(self):
        a = Derivation.hyperbolic_diag(2)
        w = IsotropyChoice.of(0, 1, 1)
        m = build_invariant_metric(a, w)
        assert skew_residual(m, ad_w_matrix_on_m(a, w)) == 0

    def test_corrupted_gram_detected(self):
        a = Derivation.hyperbolic_diag(2)
        w = IsotropyChoice.of(0, 1, 1)
        good = build_invariant_metric(a, w)
        rows = [list(r) for r in good.gram]
        rows[2][2] = Fraction(1)  # g(Z, Z) = 1
        bad = InvariantMetric(
            gram=tuple(tuple(r) for r in rows), yprime=good.yprime
        )
        # the (Y', Z) pair evaluates to kappa * g(Z, Z) = (b - 1) * 1 = 1
        kappa = twist_coefficient(a, w)
        assert skew_residual(bad, ad_w_matrix_on_m(a, w)) == abs(kappa) == 1

    def test_zero_ad_map(self):
        m = build_invariant_metric(Derivation.parabolic(), IsotropyChoice.of(0, 0, 1))
        zero = ((Fraction(0),) * 3,) * 3
        assert skew_residual(m, zero) == 0


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
        assert standard_isotropy_for(Derivation.hyperbolic_diag(2)).heis_coefficients == (0, 1, 1)
        assert standard_isotropy_for(Derivation.parabolic()).heis_coefficients == (0, 0, 1)
        assert standard_isotropy_for(Derivation.elliptic(1)).heis_coefficients == (0, 1, 0)
        assert standard_isotropy_for(Derivation.nilpotent()).heis_coefficients == (0, 0, 1)

    def test_homothety_has_no_choice(self):
        with pytest.raises(NoInvariantMetric):
            standard_isotropy_for(Derivation.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(NoInvariantMetric):
            standard_isotropy_for(Derivation.inner(1, 1))
