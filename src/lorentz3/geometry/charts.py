"""Coordinate charts for the plane-wave metrics.

Coordinate order is fixed as (u, v, x) everywhere.  Two chart families:

* Brinkmann form  g = 2 du dv + H(u) x^2 du^2 + dx^2 with either
  H(u) = b / u^2 on the half space u > 0 (:class:`PowerLaw`) or H(u) = h
  on all of R^3 (:class:`Constant`; h = +1 and -1 are the two symmetric
  indecomposable models, h = 0 is Minkowski).
* Rosen form  g = 2 du dv + delta(u) dx^2 on u > 0 with the power law
  delta(u) = u^(2 alpha) (:class:`RosenChart`), the chart of the homogeneous
  plane wave with b = alpha^2 - alpha.

Every closed form here and in :mod:`~lorentz3.geometry.curvature` and
:mod:`~lorentz3.geometry.killing` takes either one point (u, v, x), giving
one tensor, or a stack of N points, an (N, 3) array, giving the N tensors
stacked along a new first axis; the single point is the N = 1 case of the
same code (:func:`tensor_at`).  Profile values (h, dh, delta, ddelta,
d2delta, F and the Brinkmann profile of a Rosen chart) are evaluated per
point on Python floats, never on arrays: numpy's array ``u**3`` can differ
from the scalar ``u**3`` in the last bit, so only scalar arithmetic makes a
stacked result equal, bit for bit, to the single-point results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

U, V, Xc = 0, 1, 2


class DomainError(ValueError):
    """Point lies outside the chart domain (u <= 0 on a half-space chart)."""


@dataclass(frozen=True)
class PowerLaw:
    """Brinkmann profile H(u) = b / u^2 on the domain u > 0.

    At b = 0 the profile is 0 at every u, also where u*u underflows or
    u**3 overflows, with the signs of b / (u*u) and -2b / u**3."""

    b: float

    def h(self, u: float) -> float:
        return self.b / (u * u) if self.b else self.b

    def dh(self, u: float) -> float:
        return -2.0 * self.b / u**3 if self.b else -2.0 * self.b / math.copysign(1.0, u)

    half_space = True

    def __str__(self) -> str:
        return f"PowerLaw(b={self.b})"


@dataclass(frozen=True)
class Constant:
    """Brinkmann profile H(u) = h on all of R (h = 0 is Minkowski)."""

    h_value: float

    def h(self, u: float) -> float:
        return self.h_value

    def dh(self, u: float) -> float:
        return 0.0

    half_space = False

    def __str__(self) -> str:
        return f"Constant(h={self.h_value})"


@dataclass(frozen=True)
class RosenChart:
    """Rosen form g = 2 du dv + u^(2 alpha) dx^2 on u > 0.

    The profile delta, its derivatives and F, an antiderivative of 1/delta
    needed for the Killing fields, are exact closed forms; F takes the
    logarithmic branch at alpha = 1/2, where the power rule degenerates.
    The equivalent Brinkmann chart is PowerLaw(b), b = alpha^2 - alpha.
    """

    alpha: float

    half_space = True

    @property
    def b(self) -> float:
        """b = alpha^2 - alpha, the invariant of the equivalent Brinkmann chart."""
        return self.alpha * self.alpha - self.alpha

    @property
    def label(self) -> str:
        return f"u^{2 * self.alpha:g}"

    def delta(self, u: float) -> float:
        return u ** (2 * self.alpha)

    def ddelta(self, u: float) -> float:
        a = self.alpha
        return 2 * a * u ** (2 * a - 1)

    def d2delta(self, u: float) -> float:
        a = self.alpha
        return 2 * a * (2 * a - 1) * u ** (2 * a - 2)

    def F(self, u: float) -> float:
        if self.alpha == 0.5:
            return math.log(u)
        p = 1 - 2 * self.alpha
        return u**p / p

    def __str__(self) -> str:
        return f"Rosen(delta={self.label})"


Chart = PowerLaw | Constant | RosenChart

_NUMBER = (float, int, np.number)


def check_domain(chart: Chart, points) -> None:
    """Raise DomainError at the first point outside the chart's domain; like
    the closed forms, it takes one point or a stack of them."""
    if chart.half_space:
        for row in (points,) if isinstance(points[0], _NUMBER) else points:
            if not row[U] > 0.0:
                raise DomainError(f"u = {row[U]} outside the half-space domain u > 0")


def tensor_at(chart: Chart | None, points, base: np.ndarray, entries: tuple) -> np.ndarray:
    """A closed form: ``base``, the part no profile value enters, with each
    entry (index, f) written in, f(chart, u, v, x) landing at ``index``.

    ``points`` is one point, a sequence of three numbers, which gives one
    tensor of base's shape; or a stack of N points, an (N, 3) array or a
    sequence of points, which gives N tensors stacked along a new first
    axis.  f runs once per point on Python floats (on a single point's own
    entries), so every profile value comes from scalar arithmetic, bit for
    bit the single-point value: numpy's array ``pow`` can differ from the
    scalar one in the last bit.  Given a chart, the points are checked
    against its domain first.
    """
    if isinstance(points[0], _NUMBER):
        if chart is not None and chart.half_space and not points[U] > 0.0:
            check_domain(chart, points)  # raises
        t = base.copy()
        for index, f in entries:
            t[index] = f(chart, *points)
        return t
    rows = np.asarray(points, dtype=float).tolist()
    if chart is not None:
        check_domain(chart, rows)
    t = np.repeat(base[np.newaxis], len(rows), axis=0)
    for index, f in entries:
        t[(slice(None), *index)] = [f(chart, *row) for row in rows]
    return t


def sup_norm(t: np.ndarray, rank: int):
    """max |t| over one tensor of the given rank (a float), or over each
    tensor of a stack (an (N,) array)."""
    if t.ndim == rank:
        return float(np.max(np.abs(t)))
    return np.abs(t).reshape(len(t), -1).max(axis=1)


_BRINKMANN_G = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_BRINKMANN_G_ENTRIES = (((U, U), lambda chart, u, v, x: chart.h(u) * x * x),)
_ROSEN_G = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_ROSEN_G_ENTRIES = (((Xc, Xc), lambda chart, u, v, x: chart.delta(u)),)


def metric_at(chart: Chart, points) -> np.ndarray:
    """Metric components g_ij, coordinate order (u, v, x): a (3, 3) array
    at one point, (N, 3, 3) at a stack of N points."""
    if isinstance(chart, RosenChart):
        return tensor_at(chart, points, _ROSEN_G, _ROSEN_G_ENTRIES)
    return tensor_at(chart, points, _BRINKMANN_G, _BRINKMANN_G_ENTRIES)


def inverse_metric_at(chart: Chart, point) -> np.ndarray:
    check_domain(chart, point)
    u, _, x = point
    ginv = np.zeros((3, 3))
    ginv[U, V] = ginv[V, U] = 1.0
    if isinstance(chart, RosenChart):
        ginv[Xc, Xc] = 1.0 / chart.delta(u)
    else:
        ginv[Xc, Xc] = 1.0
        ginv[V, V] = -chart.h(u) * x * x
    return ginv


_ZERO_DG = np.zeros((3, 3, 3))
_BRINKMANN_DG_ENTRIES = (
    ((U, U, U), lambda chart, u, v, x: chart.dh(u) * x * x),
    ((Xc, U, U), lambda chart, u, v, x: 2.0 * chart.h(u) * x),
)
_ROSEN_DG_ENTRIES = (((U, Xc, Xc), lambda chart, u, v, x: chart.ddelta(u)),)


def metric_partials(chart: Chart, points) -> np.ndarray:
    """Closed-form partials dg[m, i, j] = d g_ij / d x^m: (3, 3, 3) at one
    point, (N, 3, 3, 3) at a stack."""
    if isinstance(chart, RosenChart):
        return tensor_at(chart, points, _ZERO_DG, _ROSEN_DG_ENTRIES)
    return tensor_at(chart, points, _ZERO_DG, _BRINKMANN_DG_ENTRIES)
