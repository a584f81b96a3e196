from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.lie_core import (
    Derivation,
    HomothetyInput,
    UnimodularInput,
    _mat_mul,
    as_rational,
    compose_automorphisms,
    conjugate_derivation,
    diagonal_automorphism,
    extend_algebra,
    inner_automorphism,
    is_derivation,
    is_heis_automorphism,
    jacobi_residual,
    normalize_to_canonical,
    rotation_scale_automorphism,
    shear_automorphism,
)

Z, X, Y, T = 0, 1, 2, 3


def direct_sum_abelian():
    """The abelian R^4 constants (all brackets zero)."""
    return [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]


def with_constant(c, i: int, j: int, k: int, value):
    """Copy of the table c with c[i][j][k] = value and c[j][i][k] = -value."""
    v, _ = as_rational(value)
    table = [[list(vec) for vec in row] for row in c]
    table[i][j][k] = v
    table[j][i][k] = -v
    return table

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def random_derivation(draw):
    p, q, r, s = (draw(rationals) for _ in range(4))
    zx, zy = draw(rationals), draw(rationals)
    return Derivation.from_rows([[p + s, zx, zy], [0, p, q], [0, r, s]])


derivations = st.builds(
    lambda p, q, r, s, zx, zy: Derivation.from_rows(
        [[p + s, zx, zy], [0, p, q], [0, r, s]]
    ),
    rationals,
    rationals,
    rationals,
    rationals,
    rationals,
    rationals,
)


class TestIsDerivation:
    def test_parabolic_generator(self):
        assert is_derivation([[2, 0, 0], [0, 1, 1], [0, 0, 1]])

    def test_identity_fails_the_bracket_law(self):
        assert not is_derivation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_canonical_form(self):
        assert is_derivation(Derivation.canonical(3))

    def test_nonzero_central_column_rejected(self):
        assert not is_derivation([[2, 0, 0], [1, 1, 0], [0, 0, 1]])

    @given(derivations)
    def test_family_always_valid(self, a):
        assert is_derivation(a)


class TestAsRational:
    def test_string_fraction(self):
        assert as_rational("1/4") == (Fraction(1, 4), False)

    def test_int(self):
        assert as_rational(-7) == (Fraction(-7), False)

    def test_float_rationalized(self):
        q, snapped = as_rational(0.1)
        assert q == Fraction(1, 10)
        assert snapped  # 0.1 is not exactly representable

    def test_dyadic_float_exact(self):
        q, snapped = as_rational(0.25)
        assert q == Fraction(1, 4)
        assert not snapped


class TestExtendAlgebra:
    def test_parabolic_brackets(self):
        alg = extend_algebra(Derivation.parabolic())
        assert alg[T][Z] == (2, 0, 0, 0)
        assert alg[T][X] == (0, 1, 0, 0)
        assert alg[T][Y] == (0, 1, 1, 0)
        assert alg[X][Y] == (1, 0, 0, 0)

    def test_zero_derivation_gives_direct_sum(self):
        alg = extend_algebra(Derivation.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        for w in (Z, X, Y):
            assert alg[T][w] == (0, 0, 0, 0)
        assert alg[X][Y] == (1, 0, 0, 0)

    def test_elliptic_brackets(self):
        alg = extend_algebra(Derivation.elliptic(1))
        assert alg[T][X] == (0, 1, 1, 0)   # Y + cX with c = 1
        assert alg[T][Y] == (0, -1, 1, 0)  # -X + cY
        assert alg[T][Z] == (2, 0, 0, 0)

    def test_rejects_non_derivation(self):
        with pytest.raises(ValueError):
            extend_algebra(Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestJacobi:
    def test_constructed_extensions_are_exactly_zero(self):
        for a in (
            Derivation.parabolic(),
            Derivation.elliptic(Fraction(1, 3)),
            Derivation.hyperbolic_diag(-2),
            Derivation.nilpotent(),
        ):
            assert jacobi_residual(extend_algebra(a)) == 0

    def test_abelian_r4(self):
        assert jacobi_residual(direct_sum_abelian()) == 0

    def test_corrupting_the_central_action_breaks_jacobi(self):
        # [T, Z] = Z while tr of the quotient block stays 2: the cyclic sum
        # on (T, X, Y) picks up exactly -Z
        alg = extend_algebra(Derivation.parabolic())
        bad = with_constant(alg, T, Z, Z, 1)
        assert jacobi_residual(bad) == 1

    def test_rescaling_the_center_bracket_is_jacobi_neutral(self):
        # [X, Y] = 2Z is the same algebra in the basis with Z halved, so the
        # residual stays zero; corruption tests must move something else
        alg = extend_algebra(Derivation.parabolic())
        rescaled = with_constant(alg, X, Y, Z, 2)
        assert jacobi_residual(rescaled) == 0

    @given(derivations)
    @settings(max_examples=60)
    def test_every_extension_satisfies_jacobi(self, a):
        assert jacobi_residual(extend_algebra(a)) == 0


class TestSpectrum:
    def test_distinct_real_eigenvalues(self):
        a = Derivation.hyperbolic_diag(2)
        assert a.trace_quotient == 3 and a.det_quotient == 2
        assert a.discriminant_quotient == 1

    def test_complex_pair(self):
        a = Derivation.elliptic(1)
        assert a.det_quotient == 2 and a.discriminant_quotient == -4

    @given(derivations, nonzero_rationals)
    @settings(max_examples=60)
    def test_scaling_action(self, a, lam):
        # lam^2 > 0, so the sign of the discriminant (real, repeated or
        # non-real spectrum) never moves
        scaled = a.scaled(lam)
        assert scaled.trace_quotient == lam * a.trace_quotient
        assert scaled.det_quotient == lam * lam * a.det_quotient
        assert scaled.discriminant_quotient == lam * lam * a.discriminant_quotient


class TestNormalize:
    def test_diagonal_exponent_family(self):
        res = normalize_to_canonical(Derivation.rosen_exponent(-1))
        assert res.b == 2
        assert res.derivation == Derivation.canonical(2)

    def test_canonical_is_fixed_point(self):
        a = Derivation.canonical(Fraction(-1, 4))
        res = normalize_to_canonical(a)
        assert res.derivation == a and res.b == Fraction(-1, 4) and res.scale == 1

    def test_scaling_does_not_move_b(self):
        a = Derivation.canonical(Fraction(-1, 4)).scaled(2)
        res = normalize_to_canonical(a)
        assert res.b == Fraction(-1, 4)
        assert res.scale == Fraction(1, 2)

    def test_negative_trace_records_time_reversal(self):
        a = Derivation.canonical(2).scaled(-3)
        res = normalize_to_canonical(a)
        assert res.b == 2 and res.scale == Fraction(-1, 3)

    def test_unimodular_rejected(self):
        with pytest.raises(UnimodularInput):
            normalize_to_canonical(Derivation.cw_hyperbolic())

    def test_homothety_rejected(self):
        with pytest.raises(HomothetyInput):
            normalize_to_canonical(Derivation.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestAutomorphisms:
    def test_families_are_automorphisms(self):
        for phi in (
            diagonal_automorphism(2, Fraction(-1, 3)),
            shear_automorphism(Fraction(5, 2)),
            rotation_scale_automorphism(1, 2),
            inner_automorphism(Fraction(1, 2), -1),
        ):
            assert is_heis_automorphism(phi)

    def test_degenerate_scaling_rejected(self):
        with pytest.raises(ValueError):
            diagonal_automorphism(0, 1)

    def test_conjugation_preserves_derivation_law(self):
        a = Derivation.elliptic(1)
        phi = compose_automorphisms(
            diagonal_automorphism(3, Fraction(1, 2)), shear_automorphism(-2)
        )
        conj = conjugate_derivation(a, phi)
        assert is_derivation(conj)
        assert conj.trace_quotient == a.trace_quotient
        assert conj.det_quotient == a.det_quotient

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]), st.integers(1, 7)),
            min_size=18,
            max_size=18,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matrix_product_equals_the_triple_sum(self, pairs):
        # the product skips zero terms; the sum over every k is the reference
        entries = [Fraction(n, d) for n, d in pairs]
        a = tuple(tuple(entries[3 * i : 3 * i + 3]) for i in range(3))
        b = tuple(tuple(entries[9 + 3 * i : 12 + 3 * i]) for i in range(3))
        reference = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
        )
        product = _mat_mul(a, b)
        assert product == reference
        assert all(type(e) is Fraction for row in product for e in row)

    def test_inner_shift_preserves_quotient_block(self):
        a = Derivation.hyperbolic_diag(3)
        shifted = a.plus_inner(Fraction(2, 3), -1)
        assert is_derivation(shifted)
        assert shifted.quotient_block == a.quotient_block
        assert shifted.matrix != a.matrix
