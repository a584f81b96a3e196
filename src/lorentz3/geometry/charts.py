"""Coordinate charts for the plane-wave metrics.

Coordinate order is fixed as (u, v, x) everywhere.  Two chart families:

* Brinkmann form  g = 2 du dv + H(u) x^2 du^2 + dx^2 with either
  H(u) = b / u^2 on the half space u > 0 (:class:`PowerLaw`) or H(u) = h
  on all of R^3 (:class:`Constant`; h = +1 and -1 are the two symmetric
  indecomposable models, h = 0 is Minkowski).
* Rosen form  g = 2 du dv + delta(u) dx^2 on u > 0 with the power law
  delta(u) = u^(2 alpha) (:class:`RosenChart`), the chart of the homogeneous
  plane wave with b = alpha^2 - alpha.
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
    """Brinkmann profile H(u) = b / u^2 on the domain u > 0."""

    b: float

    def h(self, u: float) -> float:
        return self.b / (u * u)

    def dh(self, u: float) -> float:
        return -2.0 * self.b / u**3

    @property
    def half_space(self) -> bool:
        return True

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

    @property
    def half_space(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"Constant(h={self.h_value})"


@dataclass(frozen=True)
class RosenChart:
    """Rosen form g = 2 du dv + u^(2 alpha) dx^2 on u > 0.

    The profile delta, its derivatives and F, an antiderivative of 1/delta
    needed for the Killing fields, are exact closed forms; F takes the
    logarithmic branch at alpha = 1/2, where the power rule degenerates.
    The equivalent Brinkmann chart is PowerLaw(alpha^2 - alpha).
    """

    alpha: float

    @property
    def half_space(self) -> bool:
        return True

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


def check_domain(chart: Chart, point) -> None:
    u = point[U]
    if chart.half_space and not u > 0.0:
        raise DomainError(f"u = {u} outside the half-space domain u > 0")


def metric_at(chart: Chart, point) -> np.ndarray:
    """Metric components g_ij at a point, coordinate order (u, v, x)."""
    check_domain(chart, point)
    u, _, x = point
    g = np.zeros((3, 3))
    g[U, V] = g[V, U] = 1.0
    if isinstance(chart, RosenChart):
        g[Xc, Xc] = chart.delta(u)
    else:
        g[Xc, Xc] = 1.0
        g[U, U] = chart.h(u) * x * x
    return g


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


def metric_partials(chart: Chart, point) -> np.ndarray:
    """Closed-form partials dg[m, i, j] = d g_ij / d x^m."""
    check_domain(chart, point)
    u, _, x = point
    dg = np.zeros((3, 3, 3))
    if isinstance(chart, RosenChart):
        dg[U, Xc, Xc] = chart.ddelta(u)
    else:
        dg[U, U, U] = chart.dh(u) * x * x
        dg[Xc, U, U] = 2.0 * chart.h(u) * x
    return dg
