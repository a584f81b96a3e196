"""Exact-arithmetic layer: the Heisenberg algebra, its derivations, and the
4-dimensional extensions they generate.

Basis conventions, fixed once for the whole package:

* heis has basis ``(Z, X, Y)`` with the single bracket ``[X, Y] = Z``;
  ``Z`` spans the center.
* A derivation is stored as a 3x3 matrix of rationals whose column ``j``
  holds the ``(Z, X, Y)``-components of the image of the j-th basis vector.
* An extension of heis by a derivation A is its table of structure
  constants ``c[i][j][k]``, the e_k-coefficient of ``[e_i, e_j]`` in basis
  order ``(Z, X, Y, T)``, with ``[T, W] = A(W)`` for ``W`` in heis.
* An isotropy generator ``W = gamma Z + alpha X + beta Y`` is the triple
  ``(gamma, alpha, beta)``; it is non-central when ``(alpha, beta) != 0``.

Everything in this module is exact: entries are ``fractions.Fraction`` and
there are no tolerances.  Float input is rationalized once, at the boundary,
with denominators capped at ``RATIONALIZE_MAX_DENOMINATOR``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RATIONALIZE_MAX_DENOMINATOR = 10**6

# Index aliases for the (Z, X, Y, T) basis.
Z, X, Y, T = 0, 1, 2, 3

Vec3 = tuple[Fraction, Fraction, Fraction]
Matrix3 = tuple[Vec3, Vec3, Vec3]


class UnimodularInput(ValueError):
    """Raised when an operation requires tr(A-bar) != 0 but got 0."""


class HomothetyInput(ValueError):
    """Raised when the induced map on heis/Z is a multiple of the identity.

    Such derivations admit no canonical form and no invariant Lorentz
    metric for any isotropy choice.
    """


def as_rational(value) -> tuple[Fraction, bool]:
    """Convert ``value`` to an exact Fraction.

    Returns ``(fraction, rationalized)`` where ``rationalized`` is True when
    the input was a float that had to be snapped to a denominator of at most
    RATIONALIZE_MAX_DENOMINATOR.
    """
    if isinstance(value, Fraction):
        return value, False
    if isinstance(value, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(value, int):
        return Fraction(value), False
    if isinstance(value, str):
        try:
            return Fraction(value), False
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    if isinstance(value, float):
        exact = Fraction(value)
        snapped = exact.limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
        return snapped, snapped != exact
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _as_matrix(rows: Iterable[Iterable]) -> tuple[Matrix3, bool]:
    """Exact 3x3 matrix plus the rationalized flag of :func:`as_rational`.

    A bad shape or a bad entry raises ValueError, whatever the input type.
    """
    try:
        rows = [list(r) for r in rows]
    except TypeError:
        raise ValueError("expected a 3x3 matrix") from None
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 matrix")
    rationalized = False
    out = []
    for r in rows:
        vals = []
        for entry in r:
            try:
                q, snapped = as_rational(entry)
            except TypeError as exc:
                raise ValueError(str(exc)) from None
            rationalized = rationalized or snapped
            vals.append(q)
        out.append(tuple(vals))
    return tuple(out), rationalized


def _dot(row, col) -> Fraction:
    # automorphisms and canonical forms are mostly zeros, and a Fraction
    # product costs a gcd even when it is 0: sum the nonzero terms only
    terms = [x * y for x, y in zip(row, col) if x and y]
    return sum(terms[1:], terms[0]) if terms else Fraction(0)


def _mat_mul(a: Matrix3, b: Matrix3) -> Matrix3:
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _mat_scale(a: Matrix3, s: Fraction) -> Matrix3:
    return tuple(tuple(s * e for e in row) for row in a)


def _mat_inv(a: Matrix3) -> Matrix3:
    """Exact inverse of a 3x3 rational matrix (adjugate formula)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    det = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    cof = (
        (a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
        (a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
        (a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10),
    )
    return tuple(tuple(c / det for c in row) for row in cof)


@dataclass(frozen=True)
class Derivation:
    """A derivation of heis, as a 3x3 rational matrix in basis (Z, X, Y).

    The bracket law forces the Z column to be ``(tr(A-bar), 0, 0)`` where
    A-bar is the lower-right 2x2 block (the induced map on heis/Z); the
    constructor does not enforce this so that :func:`is_derivation` can be
    asked about arbitrary matrices.
    """

    matrix: Matrix3

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Derivation":
        m, _ = _as_matrix(rows)
        return cls(m)

    # -- standard families ------------------------------------------------

    @classmethod
    def canonical(cls, b) -> "Derivation":
        """[[1,0,0],[0,0,1],[0,b,1]]: the normal form with invariant b."""
        b, _ = as_rational(b)
        return cls.from_rows([[1, 0, 0], [0, 0, 1], [0, b, 1]])

    @classmethod
    def hyperbolic_diag(cls, b) -> "Derivation":
        """diag(1+b, 1, b): quotient action diagonalizable over R."""
        b, _ = as_rational(b)
        return cls.from_rows([[1 + b, 0, 0], [0, 1, 0], [0, 0, b]])

    @classmethod
    def parabolic(cls) -> "Derivation":
        """diag-block [[1,1],[0,1]] on heis/Z: repeated real eigenvalue."""
        return cls.from_rows([[2, 0, 0], [0, 1, 1], [0, 0, 1]])

    @classmethod
    def elliptic(cls, c) -> "Derivation":
        """Similarity action c +- i on heis/Z (non-real spectrum)."""
        c, _ = as_rational(c)
        return cls.from_rows([[2 * c, 0, 0], [0, c, -1], [0, 1, c]])

    @classmethod
    def nilpotent(cls) -> "Derivation":
        """Y -> X, everything else to zero (unipotent one-parameter group)."""
        return cls.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])

    @classmethod
    def cw_hyperbolic(cls) -> "Derivation":
        """diag(0, 1, -1): the unimodular hyperbolic (symmetric) case."""
        return cls.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, -1]])

    @classmethod
    def cw_elliptic(cls) -> "Derivation":
        """Rotation on heis/Z: the unimodular elliptic (symmetric) case."""
        return cls.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])

    @classmethod
    def rosen_exponent(cls, alpha) -> "Derivation":
        """diag(1, 1-alpha, alpha): the derivation behind the Rosen power law."""
        alpha, _ = as_rational(alpha)
        return cls.from_rows([[1, 0, 0], [0, 1 - alpha, 0], [0, 0, alpha]])

    @classmethod
    def inner(cls, p, q) -> "Derivation":
        """ad_u for u = p X + q Y (inner derivations have zero quotient block)."""
        p, _ = as_rational(p)
        q, _ = as_rational(q)
        return cls.from_rows([[0, -q, p], [0, 0, 0], [0, 0, 0]])

    # -- structure ---------------------------------------------------------

    @property
    def quotient_block(self) -> tuple[tuple[Fraction, Fraction], ...]:
        m = self.matrix
        return ((m[1][1], m[1][2]), (m[2][1], m[2][2]))

    @property
    def trace_quotient(self) -> Fraction:
        return self.matrix[1][1] + self.matrix[2][2]

    @property
    def det_quotient(self) -> Fraction:
        ((a, b), (c, d)) = self.quotient_block
        return a * d - b * c

    @property
    def discriminant_quotient(self) -> Fraction:
        return self.trace_quotient**2 - 4 * self.det_quotient

    def apply(self, vec: Sequence[Fraction]) -> Vec3:
        return tuple(_dot(row, vec) for row in self.matrix)

    def scaled(self, factor) -> "Derivation":
        s, _ = as_rational(factor)
        return Derivation(_mat_scale(self.matrix, s))

    def plus_inner(self, p, q) -> "Derivation":
        inner = Derivation.inner(p, q).matrix
        return Derivation(
            tuple(
                tuple(self.matrix[i][j] + inner[i][j] for j in range(3))
                for i in range(3)
            )
        )

    def to_json(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.matrix]


def is_derivation(matrix) -> bool:
    """True iff the matrix satisfies A[X,Y] = [AX,Y] + [X,AY] exactly.

    Since Z is central and spans the derived algebra, the law reduces to:
    the Z column equals (A_XX + A_YY, 0, 0).
    """
    if isinstance(matrix, Derivation):
        m = matrix.matrix
    else:
        m, _ = _as_matrix(matrix)
    return m[1][0] == 0 and m[2][0] == 0 and m[0][0] == m[1][1] + m[2][2]


def is_homothety_on_quotient(a: Derivation) -> bool:
    """True when A-bar = lambda * Id (including lambda = 0)."""
    ((p, q), (r, s)) = a.quotient_block
    return q == 0 and r == 0 and p == s


# ---------------------------------------------------------------------------
# Extension algebras
# ---------------------------------------------------------------------------

Constants = tuple  # c[i][j][k], 4x4x4 nested tuples of Fraction, antisymmetric in (i, j)


def extend_algebra(a: Derivation) -> Constants:
    """Structure constants of heis extended by T with [T, W] = A(W); the
    Heisenberg sub-block is fixed."""
    if not is_derivation(a):
        raise ValueError("not a derivation; refusing to build an extension")
    zero = Fraction(0)
    table = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    table[X][Y][Z] = Fraction(1)
    table[Y][X][Z] = Fraction(-1)
    for w in (Z, X, Y):
        for k in range(3):
            table[T][w][k] = a.matrix[k][w]
            table[w][T][k] = -a.matrix[k][w]
    return tuple(tuple(tuple(vec) for vec in row) for row in table)


def jacobi_residual(c: Constants) -> Fraction:
    """Max-norm over basis triples of the cyclic sum [ei,[ej,ek]] + cycl."""
    worst = Fraction(0)
    for i, j, k in itertools.combinations(range(4), 3):
        for l in range(4):
            total = Fraction(0)
            for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                total += sum(c[q][r][m] * c[p][m][l] for m in range(4))
            worst = max(worst, abs(total))
    return worst


# ---------------------------------------------------------------------------
# Automorphisms of heis
# ---------------------------------------------------------------------------


def is_heis_automorphism(matrix) -> bool:
    """phi in Aut(heis) iff phi(Z) = det(S) Z where S is the quotient block.

    The Z row may carry arbitrary entries in the X, Y columns; the quotient
    block must be invertible.
    """
    if isinstance(matrix, Derivation):
        m = matrix.matrix
    else:
        m, _ = _as_matrix(matrix)
    det_s = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    return m[1][0] == 0 and m[2][0] == 0 and m[0][0] == det_s and det_s != 0


def diagonal_automorphism(t1, t2) -> Matrix3:
    """phi(X) = t1 X, phi(Y) = t2 Y, phi(Z) = t1 t2 Z."""
    t1, _ = as_rational(t1)
    t2, _ = as_rational(t2)
    if t1 == 0 or t2 == 0:
        raise ValueError("automorphism requires nonzero scalings")
    m, _ = _as_matrix([[t1 * t2, 0, 0], [0, t1, 0], [0, 0, t2]])
    return m


def shear_automorphism(t) -> Matrix3:
    """phi(X) = X, phi(Y) = Y + t X, phi(Z) = Z."""
    t, _ = as_rational(t)
    m, _ = _as_matrix([[1, 0, 0], [0, 1, t], [0, 0, 1]])
    return m


def rotation_scale_automorphism(p, q) -> Matrix3:
    """phi(X) = p X + q Y, phi(Y) = -q X + p Y, phi(Z) = (p^2 + q^2) Z."""
    p, _ = as_rational(p)
    q, _ = as_rational(q)
    if p == 0 and q == 0:
        raise ValueError("degenerate rotation-scale")
    m, _ = _as_matrix([[p * p + q * q, 0, 0], [0, p, -q], [0, q, p]])
    return m


def inner_automorphism(p, q) -> Matrix3:
    """exp(ad_u) for u = p X + q Y; equals Id + ad_u since ad_u^2 = 0."""
    p, _ = as_rational(p)
    q, _ = as_rational(q)
    m, _ = _as_matrix([[1, -q, p], [0, 1, 0], [0, 0, 1]])
    return m


def conjugate_derivation(a: Derivation, phi) -> Derivation:
    """phi A phi^{-1}, exactly.  phi must be an automorphism of heis."""
    m, _ = _as_matrix(phi)
    if not is_heis_automorphism(m):
        raise ValueError("not an automorphism of heis")
    return Derivation(_mat_mul(_mat_mul(m, a.matrix), _mat_inv(m)))


def compose_automorphisms(*phis) -> Matrix3:
    out, _ = _as_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for phi in phis:
        m, _ = _as_matrix(phi)
        out = _mat_mul(out, m)
    return out


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Result of normalizing a non-unimodular derivation.

    ``derivation`` is ``Derivation.canonical(b)``, ``b`` is
    :func:`invariant_b` and ``scale`` is lambda = 1/tr(A-bar), the factor
    that puts the central eigenvalue of lambda A at +1.  A negative scale
    reverses the one-parameter group, and the report records it.  No
    conjugating automorphism is computed: nothing here witnesses that A is
    conjugate to the canonical form.
    """

    derivation: Derivation
    b: Fraction
    scale: Fraction


def invariant_b(a: Derivation) -> Fraction:
    """b = -det(A-bar) / tr(A-bar)^2, the isomorphism invariant of the
    non-unimodular extensions.

    Scaling the central eigenvalue to 1 divides the quotient determinant by
    tr^2, and the normal form has quotient block [[0,1],[b,1]] with
    determinant -b.  Defined whenever tr(A-bar) != 0.  A homothety quotient
    action (repeated eigenvalue, diagonalizable) yields the formula value
    -1/4 although no invariant metric and no canonical form exist for it;
    callers reject that case separately.
    """
    if not is_derivation(a):
        raise ValueError("not a derivation")
    tr = a.trace_quotient
    if tr == 0:
        raise UnimodularInput("b is defined only for tr(A-bar) != 0")
    return -a.det_quotient / tr**2


def normalize_to_canonical(a: Derivation) -> CanonicalForm:
    """The normal form [[1,0,0],[0,0,1],[0,b,1]] of a derivation with
    A(Z) != 0, ``canonical(b)`` with b = :func:`invariant_b`, and the scale
    lambda = 1/tr(A-bar).  Both are read off the invariants; no conjugating
    automorphism is built.  Raises UnimodularInput when tr(A-bar) = 0 and
    HomothetyInput when the quotient action is a homothety."""
    b = invariant_b(a)
    if is_homothety_on_quotient(a):
        raise HomothetyInput(
            "quotient action is a homothety; not conjugate to any canonical form"
        )
    return CanonicalForm(
        derivation=Derivation.canonical(b), b=b, scale=1 / a.trace_quotient
    )
