"""Existence and construction of the invariant Lorentz metric on the
quotient of an extension group by a non-central one-parameter subgroup.

Given a derivation ``A`` with quotient action A-bar = [[p, q], [r, s]] on
heis/Z and a non-central isotropy generator ``W = gamma Z + alpha X +
beta Y``, the triple ``(gamma, alpha, beta)``, the quotient carries an
invariant Lorentz metric exactly when the class ``(alpha, beta)`` of ``W``
in heis/Z is *not* an eigenvector of A-bar, that is when

    kappa = alpha (r alpha + s beta) - beta (p alpha + q beta) != 0,

the determinant of the class and its image under A-bar.  Equivalently,
``ad_W`` acting modulo ``W`` is nilpotent of order exactly 3.  The first
criterion decides; the second (:func:`_nilpotency_order_mod_w`) is the
reference the verify registry and the tests compare it with.

When the metric exists, it is represented on the ad_W-invariant complement
``m = span(T, Y', Z)`` with ``Y' = A(W)``.  On that basis::

    ad_W : T -> -Y',   Y' -> kappa Z,   Z -> 0

so kappa is the Z-coefficient of [W, A(W)], and skew-invariance pins the
Gram matrix down to the family

    g(Y', Y') = s,   g(T, Z) = s / kappa,   g(T, T) = t,   s > 0,

all other entries zero.  The Gram matrix built here is the representative
with scale s = 1 and shift t = 0 (``T -> T + delta Z`` removes t); the
space-report schema calls these alpha = 1 and beta = 0.  It is
[[0, 0, 1/kappa], [0, 1, 0], [1/kappa, 0, 0]], whose :func:`signature` is
(2, 1, 0) for every kappa != 0.  Everything here is exact rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .lie_core import (
    X,
    Y,
    Derivation,
    Vec3,
    _mat_mul,
    # perfbench/layers.py traces this name in this module.
    extend_algebra,
    is_derivation,
)

# the isotropy classes X + Y, X and Y that standard_isotropy_for tries
_X_PLUS_Y = (Fraction(0), Fraction(1), Fraction(1))
_X_ONLY = (Fraction(0), Fraction(1), Fraction(0))
_Y_ONLY = (Fraction(0), Fraction(0), Fraction(1))


class NoInvariantMetric(ValueError):
    """No invariant Lorentz metric exists for the given data."""


def _refuse_central(w: Vec3) -> None:
    if w[1] == 0 and w[2] == 0:
        raise ValueError("isotropy generator must be non-central")


def twist_coefficient(a: Derivation, w: Vec3) -> Fraction:
    """kappa = alpha (r alpha + s beta) - beta (p alpha + q beta) for
    A-bar = [[p, q], [r, s]]; nonzero iff the metric exists."""
    _, alpha, beta = w
    (p, q), (r, s) = a.quotient_block
    return alpha * (r * alpha + s * beta) - beta * (p * alpha + q * beta)


def _nilpotency_order_mod_w(a: Derivation, w: Vec3) -> int:
    """Order of ad_W acting on the 4-dim extension modulo the line R W.

    Brute-force reference for the eigenvector criterion: reads ad_W off
    the structure constants, reduces it to a complement of R W and finds
    the least n with (ad_W mod W)^n = 0.
    """
    _refuse_central(w)
    c = extend_algebra(a)
    wvec = (*w, Fraction(0))
    # Complement basis: drop X if alpha != 0, else drop Y.
    drop = X if w[1] != 0 else Y
    keep = [i for i in range(4) if i != drop]
    cols = []
    for j in keep:
        # ad_W e_j = sum_i W_i [e_i, e_j]; subtract the multiple of W that
        # kills the dropped coordinate
        img = [sum(wvec[i] * c[i][j][k] for i in range(4)) for k in range(4)]
        coef = img[drop] / wvec[drop]
        cols.append([img[k] - coef * wvec[k] for k in keep])
    m = tuple(zip(*cols))

    power = m
    for order in range(1, 5):
        if not any(e for row in power for e in row):
            return order
        power = _mat_mul(power, m)
    raise ArithmeticError("ad_W mod W is not nilpotent; impossible for heis data")


def admits_metric(a: Derivation, w: Vec3) -> bool:
    """True iff the quotient by exp(t W) carries an invariant Lorentz metric.

    Decided by the eigenvector criterion on heis/Z.  Its agreement with the
    nilpotency order of ad_W modulo W is checked by ``metric-criteria-agree``
    and the tests, not on every call.  A central W raises ValueError.
    """
    if not is_derivation(a):
        raise ValueError("not a derivation")
    _refuse_central(w)
    return twist_coefficient(a, w) != 0


def signature(gram) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero), the Sylvester inertia of a symmetric
    rational matrix, by exact congruence."""
    m = [[Fraction(e) for e in row] for row in gram]
    n = len(m)
    plus = minus = zero = 0
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if m[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in idx for j in idx if i < j and m[i][j] != 0), None
            )
            if pair is None:
                zero += len(idx)
                break
            i, j = pair
            # x_i -> x_i + x_j splits the hyperbolic pair into +1, -1
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        d = m[pivot][pivot]
        if d > 0:
            plus += 1
        else:
            minus += 1
        idx.remove(pivot)
        for i in idx:
            f = m[i][pivot] / d
            if f == 0:
                continue
            for k in range(n):
                m[i][k] -= f * m[pivot][k]
            for k in range(n):
                m[k][i] -= f * m[k][pivot]
    return plus, minus, zero


def build_invariant_metric(a: Derivation, w: Vec3) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of the normalized invariant metric (scale 1, g(T, T) = 0)
    in the basis (T, Y', Z) of m, Y' = A(W).

    Raises NoInvariantMetric when the eigenvector criterion fails and
    ValueError, from :func:`admits_metric`, for a central W.
    """
    if not admits_metric(a, w):
        raise NoInvariantMetric(
            "the isotropy class is an eigenvector of the quotient action"
        )
    zero, one = Fraction(0), Fraction(1)
    c = one / twist_coefficient(a, w)
    return (
        (zero, zero, c),
        (zero, one, zero),
        (c, zero, zero),
    )


def ad_w_matrix_on_m(a: Derivation, w: Vec3):
    """Matrix of ad_W on m in the (T, Y', Z) basis: T -> -Y', Y' -> kappa Z."""
    kappa = twist_coefficient(a, w)
    zero = Fraction(0)
    return (
        (zero, zero, zero),
        (Fraction(-1), zero, zero),
        (zero, kappa, zero),
    )


def skew_residual(gram, ad_on_m) -> Fraction:
    """max |g(ad u, w) + g(u, ad w)| over basis pairs of the Gram matrix;
    zero iff invariant."""
    worst = Fraction(0)
    cols = [[ad_on_m[i][j] for i in range(3)] for j in range(3)]
    for i in range(3):
        for j in range(3):
            val = sum(cols[i][k] * gram[k][j] for k in range(3)) + sum(
                gram[i][k] * cols[j][k] for k in range(3)
            )
            worst = max(worst, abs(val))
    return worst


def has_transverse_subalgebra(a: Derivation) -> bool:
    """True iff some 3-dimensional subalgebra is transverse to the isotropy,
    i.e. the quotient action has a real eigenvector.  A real 2x2 matrix has
    real spectrum exactly when its discriminant tr^2 - 4 det is >= 0."""
    if not is_derivation(a):
        raise ValueError("not a derivation")
    return a.discriminant_quotient >= 0


def standard_isotropy_for(a: Derivation) -> Vec3:
    """A non-central W with admits_metric, matching the tabulated choices:
    X + Y when the quotient spectrum is real and simple (disc > 0), Y when
    it is repeated (disc = 0: parabolic or nilpotent), X when it is not
    real (disc < 0).

    When the preferred class is an eigenvector (a conjugated or rescaled
    input), X + Y, X and Y are tried in turn.  These three classes are
    pairwise independent, and a quotient action that is not a homothety
    has at most two eigenlines, so one of them admits the metric.  A
    homothety makes every class an eigenvector and raises NoInvariantMetric.
    """
    if not is_derivation(a):
        raise ValueError("not a derivation")
    disc = a.discriminant_quotient
    preferred = _X_PLUS_Y if disc > 0 else _Y_ONLY if disc == 0 else _X_ONLY
    for w in (preferred, _X_PLUS_Y, _X_ONLY, _Y_ONLY):
        if twist_coefficient(a, w) != 0:
            return w
    raise NoInvariantMetric(
        "quotient action is a homothety: every non-central class is an eigenvector"
    )
