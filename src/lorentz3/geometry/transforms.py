"""Rosen <-> Brinkmann coordinate changes, as functions of the exponent alpha.

For the power law delta(u) = u^(2 alpha) the change of variables

    v = v' + (alpha/2) u'^(-1) x'^2,   x = u'^(-alpha) x',   u = u'

pulls g = 2 du dv + u^(2 alpha) dx^2 back to the Brinkmann form with
H(u) = (alpha^2 - alpha) / u^2, so the chart invariant is b = alpha^2 - alpha
(:attr:`RosenChart.b`).  :func:`to_rosen` maps Brinkmann coordinates to
Rosen ones, :func:`to_brinkmann` is its inverse.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .charts import PowerLaw, RosenChart, metric_at


def to_rosen(alpha: float, p) -> tuple:
    """Brinkmann point (u, v, x) -> Rosen point."""
    u, v, x = p
    return (u, v + 0.5 * alpha * x * x / u, u ** (-alpha) * x)


def to_rosen_jacobian(alpha: float, p) -> np.ndarray:
    """d(Rosen coordinates)/d(Brinkmann coordinates) of :func:`to_rosen` at p."""
    u, v, x = p
    j = np.zeros((3, 3))
    j[0, 0] = 1.0
    j[1, 0] = -0.5 * alpha * x * x / (u * u)
    j[1, 1] = 1.0
    j[1, 2] = alpha * x / u
    j[2, 0] = -alpha * u ** (-alpha - 1.0) * x
    j[2, 2] = u ** (-alpha)
    return j


def to_brinkmann(alpha: float, p) -> tuple:
    """Rosen point (u, v, x) -> Brinkmann point, the inverse of :func:`to_rosen`."""
    u, v, x = p
    xb = u**alpha * x
    return (u, v - 0.5 * alpha * xb * xb / u, xb)


def pullback_residual(alpha: float, grid: Iterable) -> float:
    """max over the Brinkmann grid of |J^T g_Rosen(to_rosen(p)) J - g_Brinkmann(p)|,
    J the Jacobian of :func:`to_rosen`."""
    rosen = RosenChart(alpha)
    brinkmann = PowerLaw(rosen.b)
    worst = 0.0
    for p in grid:
        j = to_rosen_jacobian(alpha, p)
        g_src = metric_at(rosen, to_rosen(alpha, p))
        g_tgt = metric_at(brinkmann, p)
        worst = max(worst, float(np.max(np.abs(j.T @ g_src @ j - g_tgt))))
    return worst


def roundtrip_residual(alpha: float, grid: Iterable) -> float:
    """max |to_brinkmann(to_rosen(p)) - p| over the grid."""
    worst = 0.0
    for p in grid:
        q = to_brinkmann(alpha, to_rosen(alpha, p))
        worst = max(worst, float(np.max(np.abs(np.subtract(q, p)))))
    return worst
