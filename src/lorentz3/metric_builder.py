"""Existence and construction of the invariant Lorentz metric on the
quotient of an extension group by a non-central one-parameter subgroup.

Given a derivation ``A`` and a non-central isotropy generator
``W = gamma Z + alpha X + beta Y``, the quotient carries an invariant
Lorentz metric exactly when the class of ``W`` in heis/Z is *not* an
eigenvector of the induced quotient action -- equivalently, when ``ad_W``
acting modulo ``W`` is nilpotent of order exactly 3.  The first criterion
decides; the second (:func:`_nilpotency_order_mod_w`) is the reference the
verify registry and the tests compare it with.

When the metric exists, it is represented on the ad_W-invariant complement
``m = span(T, Y', Z)`` with ``Y' = A(W)``.  On that basis::

    ad_W : T -> -Y',   Y' -> kappa Z,   Z -> 0

with ``kappa = alpha * beta' - beta * alpha'`` (primes: components of
``A(W)``), and skew-invariance pins the Gram matrix down to

    g(Y', Y') = alpha_scale,   g(T, Z) = alpha_scale / kappa,

all other entries zero after the ``T -> T + delta Z`` normalization that
removes ``g(T, T)``.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lie_core import (
    Derivation,
    IsotropyChoice,
    Vec3,
    as_rational,
    # perfbench/layers.py traces this name in this module.
    extend_algebra,
    is_derivation,
    spectrum_on_quotient,
)

BASIS_LABELS = ("T", "Yprime", "Z")


class NoInvariantMetric(ValueError):
    """No invariant Lorentz metric exists for the given data."""


def _quotient_image(a: Derivation, w: IsotropyChoice) -> tuple[Fraction, Fraction]:
    """(X, Y)-components of A(W)."""
    img = a.apply(w.heis_coefficients)
    return img[1], img[2]


def twist_coefficient(a: Derivation, w: IsotropyChoice) -> Fraction:
    """kappa = Z-coefficient of [W, A(W)]; nonzero iff the metric exists."""
    ap, bp = _quotient_image(a, w)
    return w.alpha * bp - w.beta * ap


def _nilpotency_order_mod_w(a: Derivation, w: IsotropyChoice) -> int:
    """Order of ad_W acting on the 4-dim extension modulo the line R W.

    Brute-force reference for the eigenvector criterion: computes the
    induced nilpotent map on a complement of R W and finds the least n
    with (ad_W mod W)^n = 0.
    """
    alg = extend_algebra(a)
    wvec = list(w.heis_coefficients) + [Fraction(0)]

    # Complement basis: drop X if alpha != 0, else drop Y (W is non-central).
    drop = 1 if w.alpha != 0 else 2
    keep = [i for i in range(4) if i != drop]

    def reduce_mod_w(vec4):
        # subtract the multiple of W that kills the dropped coordinate
        coef = vec4[drop] / wvec[drop]
        return [vec4[i] - coef * wvec[i] for i in range(4)]

    cols = []
    for j in keep:
        e = [Fraction(0)] * 4
        e[j] = Fraction(1)
        img = alg.bracket_vectors(wvec, e)
        red = reduce_mod_w(list(img))
        cols.append([red[i] for i in keep])
    m = [[cols[j][i] for j in range(3)] for i in range(3)]

    def mat_mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    power = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    for order in range(1, 5):
        power = mat_mul(power, m)
        if all(e == 0 for row in power for e in row):
            return order
    raise ArithmeticError("ad_W mod W is not nilpotent; impossible for heis data")


def admits_metric(a: Derivation, w: IsotropyChoice) -> bool:
    """True iff the quotient by exp(t W) carries an invariant Lorentz metric.

    Decided by the eigenvector criterion on heis/Z.  Its agreement with the
    nilpotency order of ad_W modulo W is checked by ``metric-criteria-agree``
    and the tests, not on every call.
    """
    if not is_derivation(a):
        raise ValueError("not a derivation")
    return twist_coefficient(a, w) != 0


@dataclass(frozen=True)
class InvariantMetric:
    """Invariant Lorentz form on m = span(T, Y', Z), exact rationals.

    ``yprime`` holds the heis coordinates of Y' = A(W).  ``shift_beta`` is
    the g(T, T) value before the T -> T + delta Z normalization; it is
    always normalized to 0 and recorded here.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    yprime: Vec3
    scale_alpha: Fraction = Fraction(1)
    shift_beta: Fraction = Fraction(0)
    basis_labels: tuple[str, str, str] = field(default=BASIS_LABELS)

    def entry(self, i: int, j: int) -> Fraction:
        return self.gram[i][j]

    def signature(self) -> tuple[int, int, int]:
        """(n_plus, n_minus, n_zero) by exact symmetric reduction."""
        return _inertia(self.gram)

    @property
    def is_lorentz(self) -> bool:
        return self.signature() == (2, 1, 0)

    def evaluate(self, u, v) -> Fraction:
        uu = [as_rational(c)[0] for c in u]
        vv = [as_rational(c)[0] for c in v]
        return sum(uu[i] * self.gram[i][j] * vv[j] for i in range(3) for j in range(3))

    def to_report(self) -> dict:
        return {
            "basis": list(self.basis_labels),
            "yprime_in_heis": [str(c) for c in self.yprime],
            "gram": [[str(e) for e in row] for row in self.gram],
            "signature": {"plus": 2, "minus": 1, "zero": 0}
            if self.is_lorentz
            else dict(zip(("plus", "minus", "zero"), self.signature())),
            "scale_alpha": str(self.scale_alpha),
            "shift_beta_normalized_to_zero": True,
        }


def _inertia(gram) -> tuple[int, int, int]:
    """Sylvester inertia of a symmetric rational matrix via congruence."""
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


def build_invariant_metric(
    a: Derivation, w: IsotropyChoice, scale_alpha=1
) -> InvariantMetric:
    """Construct the normalized invariant metric (alpha scale, beta = 0).

    Raises NoInvariantMetric when the eigenvector criterion fails.
    """
    if not admits_metric(a, w):
        raise NoInvariantMetric(
            "the isotropy class is an eigenvector of the quotient action"
        )
    alpha, _ = as_rational(scale_alpha)
    if alpha <= 0:
        raise ValueError("scale_alpha must be positive for Lorentz signature")
    kappa = twist_coefficient(a, w)
    yprime = a.apply(w.heis_coefficients)
    zero = Fraction(0)
    c = alpha / kappa
    gram = (
        (zero, zero, c),
        (zero, alpha, zero),
        (c, zero, zero),
    )
    return InvariantMetric(gram=gram, yprime=yprime, scale_alpha=alpha)


def ad_w_matrix_on_m(a: Derivation, w: IsotropyChoice):
    """Matrix of ad_W on m in the (T, Y', Z) basis: T -> -Y', Y' -> kappa Z."""
    kappa = twist_coefficient(a, w)
    zero = Fraction(0)
    return (
        (zero, zero, zero),
        (Fraction(-1), zero, zero),
        (zero, kappa, zero),
    )


def skew_residual(metric: InvariantMetric, ad_on_m) -> Fraction:
    """max |g(ad u, w) + g(u, ad w)| over basis pairs; zero iff invariant."""
    worst = Fraction(0)
    cols = [[ad_on_m[i][j] for i in range(3)] for j in range(3)]
    for i in range(3):
        for j in range(3):
            val = sum(cols[i][k] * metric.gram[k][j] for k in range(3)) + sum(
                metric.gram[i][k] * cols[j][k] for k in range(3)
            )
            worst = max(worst, abs(val))
    return worst


def has_transverse_subalgebra(a: Derivation) -> bool:
    """True iff some 3-dimensional subalgebra is transverse to the isotropy,
    i.e. the quotient action has a real eigenvector."""
    return spectrum_on_quotient(a).type != "complex"


def standard_isotropy_for(a: Derivation) -> IsotropyChoice:
    """A non-central W with admits_metric, matching the tabulated choices:
    X + Y for diagonalizable quotient actions, Y for parabolic/nilpotent,
    X for the non-real case.

    Falls back to scanning a small set of candidates, so it also works for
    conjugated or rescaled inputs.  Raises NoInvariantMetric when no choice
    can work (quotient action is a homothety).
    """
    spectrum = spectrum_on_quotient(a).type
    preferred = {
        "real-diagonalizable": (0, 1, 1),
        "real-nondiagonalizable": (0, 0, 1),
        "complex": (0, 1, 0),
        "nilpotent-nonzero": (0, 0, 1),
    }.get(spectrum, (0, 1, 0))
    candidates = [preferred, (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 2, 1)]
    for g, al, be in candidates:
        w = IsotropyChoice.of(g, al, be)
        if twist_coefficient(a, w) != 0:
            return w
    raise NoInvariantMetric(
        "quotient action is a homothety: every non-central class is an eigenvector"
    )
