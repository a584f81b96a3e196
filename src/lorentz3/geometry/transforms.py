"""Rosen <-> Brinkmann coordinate changes.

For the power law delta(u) = u^(2 alpha) the change of variables

    v = v' + (alpha/2) u'^(-1) x'^2,   x = u'^(-alpha) x',   u = u'

pulls g = 2 du dv + u^(2 alpha) dx^2 back to the Brinkmann form with
H(u) = (alpha^2 - alpha) / u^2, so the chart invariant is b = alpha^2 - alpha.

For a general positive profile delta the same ansatz
v = v' + c(u) x'^2, x = delta(u)^(-1/2) x' works with c = delta'/(4 delta),
and the resulting Brinkmann profile is

    H(u) = delta''/(2 delta) - (delta')^2 / (4 delta^2).

(The cross-term condition is 2 c + delta^(1/2) a = 0 for a = (delta^(-1/2))';
expanding the ansatz directly fixes the factor 2, which the power-law case
confirms: c = alpha/(2u).)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .charts import Chart, PowerLaw, RosenChart, metric_at
from .curvature import brinkmann_profile_value


@dataclass(frozen=True)
class CoordinateMap:
    """Point map with its analytic Jacobian d(target)/d(source)."""

    fn: Callable[[tuple], tuple]
    jacobian: Callable[[tuple], np.ndarray]
    name: str = "map"

    def __call__(self, point) -> tuple:
        return self.fn(point)


@dataclass(frozen=True)
class RosenBrinkmannTransform:
    alpha: float
    b: float
    point_map: CoordinateMap  # Brinkmann coords -> Rosen coords
    inverse_map: CoordinateMap  # Rosen coords -> Brinkmann coords
    rosen_chart: RosenChart
    brinkmann_chart: PowerLaw


def rosen_to_brinkmann(alpha: float) -> RosenBrinkmannTransform:
    """Power-law transform; b = alpha^2 - alpha."""
    a = float(alpha)
    b = a * a - a

    def to_rosen(p, _a=a):
        u, v, x = p
        return (u, v + 0.5 * _a * x * x / u, u ** (-_a) * x)

    def to_rosen_jac(p, _a=a):
        u, v, x = p
        j = np.zeros((3, 3))
        j[0, 0] = 1.0
        j[1, 0] = -0.5 * _a * x * x / (u * u)
        j[1, 1] = 1.0
        j[1, 2] = _a * x / u
        j[2, 0] = -_a * u ** (-_a - 1.0) * x
        j[2, 2] = u ** (-_a)
        return j

    def to_brinkmann(p, _a=a):
        u, v, x = p
        xb = u**_a * x
        return (u, v - 0.5 * _a * xb * xb / u, xb)

    def to_brinkmann_jac(p, _a=a):
        u, v, x = p
        j = np.zeros((3, 3))
        j[0, 0] = 1.0
        j[1, 0] = -0.5 * _a * (2.0 * _a - 1.0) * u ** (2.0 * _a - 2.0) * x * x
        j[1, 1] = 1.0
        j[1, 2] = -_a * u ** (2.0 * _a - 1.0) * x
        j[2, 0] = _a * u ** (_a - 1.0) * x
        j[2, 2] = u**_a
        return j

    return RosenBrinkmannTransform(
        alpha=a,
        b=b,
        point_map=CoordinateMap(to_rosen, to_rosen_jac, "brinkmann->rosen"),
        inverse_map=CoordinateMap(to_brinkmann, to_brinkmann_jac, "rosen->brinkmann"),
        rosen_chart=RosenChart.power_law(a),
        brinkmann_chart=PowerLaw(b),
    )


@dataclass(frozen=True)
class GeneralBrinkmannProfile:
    """Brinkmann profile of a general Rosen chart, with the point map used."""

    h: Callable[[float], float]
    point_map: CoordinateMap  # Brinkmann coords -> Rosen coords


def general_rosen_to_brinkmann(chart: RosenChart) -> GeneralBrinkmannProfile:
    """Brinkmann profile H(u) = delta''/(2 delta) - delta'^2/(4 delta^2)."""

    def h(u: float) -> float:
        return brinkmann_profile_value(chart, u)

    def c(u: float) -> float:
        return chart.ddelta(u) / (4.0 * chart.delta(u))

    def to_rosen(p):
        u, v, x = p
        return (u, v + c(u) * x * x, x / np.sqrt(chart.delta(u)))

    def to_rosen_jac(p):
        u, v, x = p
        d = chart.delta(u)
        dd = chart.ddelta(u)
        d2 = chart.d2delta(u)
        j = np.zeros((3, 3))
        j[0, 0] = 1.0
        j[1, 0] = (d2 / (4.0 * d) - dd * dd / (4.0 * d * d)) * x * x
        j[1, 1] = 1.0
        j[1, 2] = 2.0 * c(u) * x
        j[2, 0] = -0.5 * dd * d ** (-1.5) * x
        j[2, 2] = d ** (-0.5)
        return j

    return GeneralBrinkmannProfile(
        h=h,
        point_map=CoordinateMap(to_rosen, to_rosen_jac, "brinkmann->rosen(general)"),
    )


def pullback_residual(
    point_map: CoordinateMap,
    source_chart: Chart,
    target_chart: Chart,
    grid: Iterable,
) -> float:
    """max over the grid of |J^T g_source(map(p)) J - g_target(p)|."""
    worst = 0.0
    for p in grid:
        j = np.asarray(point_map.jacobian(p), dtype=float)
        g_src = metric_at(source_chart, point_map(p))
        g_tgt = metric_at(target_chart, p)
        worst = max(worst, float(np.max(np.abs(j.T @ g_src @ j - g_tgt))))
    return worst


def roundtrip_residual(
    point_map: CoordinateMap, inverse_map: CoordinateMap, grid: Iterable
) -> float:
    """max |inverse(map(p)) - p| over the grid."""
    worst = 0.0
    for p in grid:
        q = inverse_map(point_map(p))
        worst = max(worst, float(np.max(np.abs(np.subtract(q, p)))))
    return worst
