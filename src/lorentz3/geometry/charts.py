"""Coordinate charts for the plane-wave metrics.

Coordinate order is fixed as (u, v, x) everywhere.  Two chart families:

* Brinkmann form  g = 2 du dv + H(u) x^2 du^2 + dx^2 with either
  H(u) = b / u^2 on the half space u > 0 (:class:`PowerLaw`) or H(u) = h
  on all of R^3 (:class:`Constant`; h = +1 and -1 are the two symmetric
  indecomposable models, h = 0 is Minkowski).
* Rosen form  g = 2 du dv + delta(u) dx^2 on u > 0 (:class:`RosenChart`),
  either the power law delta(u) = u^(2 alpha) or a general positive profile
  supplied with its derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .findiff import partial_derivative

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


def _numeric_derivative(f: Callable[[float], float]) -> Callable[[float], float]:
    """f' by the oracle's Richardson difference, step 1e-5 * max(1, |u|)."""

    def df(u: float, _f=f) -> float:
        step = 1e-5 * max(1.0, abs(u))
        return float(partial_derivative(lambda p: _f(float(p[0])), (u,), 0, step))

    return df


@dataclass(frozen=True)
class RosenChart:
    """Rosen form g = 2 du dv + delta(u) dx^2 on u > 0.

    ``F`` is an antiderivative of 1/delta, needed for the Killing fields.
    ``alpha`` is set when the profile is the power law u^(2 alpha), in which
    case all derivatives and F are exact closed forms (with the logarithmic
    branch at alpha = 1/2 where the power rule degenerates).
    """

    delta: Callable[[float], float]
    ddelta: Callable[[float], float]
    d2delta: Callable[[float], float]
    F: Optional[Callable[[float], float]] = None
    alpha: Optional[float] = None
    label: str = "custom"

    @property
    def half_space(self) -> bool:
        return True

    @classmethod
    def power_law(cls, alpha: float) -> "RosenChart":
        a = float(alpha)

        def delta(u: float) -> float:
            return u ** (2 * a)

        def ddelta(u: float) -> float:
            return 2 * a * u ** (2 * a - 1)

        def d2delta(u: float) -> float:
            return 2 * a * (2 * a - 1) * u ** (2 * a - 2)

        if a == 0.5:
            F = math.log
        else:

            def F(u: float, _p=1 - 2 * a) -> float:
                return u**_p / _p

        return cls(
            delta=delta,
            ddelta=ddelta,
            d2delta=d2delta,
            F=F,
            alpha=a,
            label=f"u^{2 * a:g}",
        )

    @classmethod
    def from_profile(
        cls,
        delta: Callable[[float], float],
        ddelta: Optional[Callable[[float], float]] = None,
        d2delta: Optional[Callable[[float], float]] = None,
        F: Optional[Callable[[float], float]] = None,
        label: str = "custom",
    ) -> "RosenChart":
        d1 = ddelta if ddelta is not None else _numeric_derivative(delta)
        d2 = d2delta if d2delta is not None else _numeric_derivative(d1)
        return cls(delta=delta, ddelta=d1, d2delta=d2, F=F, label=label)

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
