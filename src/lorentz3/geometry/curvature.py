"""Closed-form connection and curvature for the plane-wave charts.

Conventions, fixed here and used identically by the finite-difference
oracle in :mod:`lorentz3.geometry.findiff`:

* R(X, Y)Z = del_X del_Y Z - del_Y del_X Z - del_[X,Y] Z,
* R_ijkl = g(R(d_i, d_j) d_k, d_l),
* Ric_ij = g^kl R_kijl  (the trace of W -> R(W, d_i) d_j),
* coordinate order (u, v, x).

With these choices the Brinkmann chart g = 2 du dv + H(u) x^2 du^2 + dx^2
has R_uxux = +H(u) and Ric_uu = -H(u); the scalar curvature vanishes for
every chart here (the Ricci tensor is null).

``christoffels``, ``riemann_tensor``, ``nabla_riemann`` and
``covariant_R_derivative`` take one point or an (N, 3) stack of points,
with each profile value taken per point in scalar arithmetic (see
:mod:`lorentz3.geometry.charts`); the Ricci and sectional forms take one
point.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .charts import (
    Chart,
    RosenChart,
    U,
    V,
    Xc,
    inverse_metric_at,
    metric_at,
    sup_norm,
    tensor_at,
)

_DIRECTION_NAMES = {"u": U, "v": V, "x": Xc}
FLAT_TOL = 1e-10


class DegeneratePlane(ValueError):
    """The requested tangent plane is degenerate for this metric."""


_ZERO_GAMMA = np.zeros((3, 3, 3))
_BRINKMANN_GAMMA = (
    ((V, U, U), lambda chart, u, v, x: 0.5 * chart.dh(u) * x * x),
    ((V, U, Xc), lambda chart, u, v, x: chart.h(u) * x),
    ((V, Xc, U), lambda chart, u, v, x: chart.h(u) * x),
    ((Xc, U, U), lambda chart, u, v, x: -chart.h(u) * x),
)
_ROSEN_GAMMA = (
    ((V, Xc, Xc), lambda chart, u, v, x: -0.5 * chart.ddelta(u)),
    ((Xc, U, Xc), lambda chart, u, v, x: 0.5 * chart.ddelta(u) / chart.delta(u)),
    ((Xc, Xc, U), lambda chart, u, v, x: 0.5 * chart.ddelta(u) / chart.delta(u)),
)


def christoffels(chart: Chart, points) -> np.ndarray:
    """Closed-form Gamma^k_ij; indices gamma[k, i, j], stacked as
    gamma[n, k, i, j] over N points."""
    entries = _ROSEN_GAMMA if isinstance(chart, RosenChart) else _BRINKMANN_GAMMA
    return tensor_at(chart, points, _ZERO_GAMMA, entries)


def brinkmann_profile_value(chart: RosenChart, u: float) -> float:
    """H(u) = delta''/(2 delta) - delta'^2/(4 delta^2), the profile of the
    Brinkmann form equivalent to a Rosen chart."""
    d = chart.delta(u)
    dd = chart.ddelta(u)
    d2 = chart.d2delta(u)
    return d2 / (2.0 * d) - dd * dd / (4.0 * d * d)


def brinkmann_profile_derivative(chart: RosenChart, u: float) -> float:
    """H'(u) of :func:`brinkmann_profile_value`, in closed form: H(u) = b/u^2
    with b = alpha^2 - alpha."""
    return -2.0 * chart.b / u**3


_ZERO_R = np.zeros((3, 3, 3, 3))
# R_uxux, then (del_u R)_uxux
_BRINKMANN_R = (((U, Xc, U, Xc), lambda chart, u, v, x: chart.h(u)),)
_ROSEN_R = (((U, Xc, U, Xc), lambda chart, u, v, x: chart.delta(u) * brinkmann_profile_value(chart, u)),)
_BRINKMANN_DR = (((U, Xc, U, Xc), lambda chart, u, v, x: chart.dh(u)),)
_ROSEN_DR = (((U, Xc, U, Xc), lambda chart, u, v, x: chart.delta(u) * brinkmann_profile_derivative(chart, u)),)


def _uxux_tensor(chart: Chart, points, entries: tuple) -> np.ndarray:
    """The (u,x,u,x) orbit of the uxux component, by the Riemann symmetries."""
    r = tensor_at(chart, points, _ZERO_R, entries)
    r[..., Xc, U, Xc, U] = r[..., U, Xc, U, Xc]
    r[..., U, Xc, Xc, U] = r[..., Xc, U, U, Xc] = -r[..., U, Xc, U, Xc]
    return r


def riemann_tensor(chart: Chart, points) -> np.ndarray:
    """Full R_ijkl, (3, 3, 3, 3) at one point and (N, 3, 3, 3, 3) at a
    stack; the only nonzero components sit on the (u,x,u,x) orbit."""
    return _uxux_tensor(chart, points, _ROSEN_R if isinstance(chart, RosenChart) else _BRINKMANN_R)


def ricci(chart: Chart, point) -> np.ndarray:
    r = riemann_tensor(chart, point)
    ginv = inverse_metric_at(chart, point)
    return np.einsum("kl,kijl->ij", ginv, r)


def scalar_curvature(chart: Chart, point) -> float:
    ginv = inverse_metric_at(chart, point)
    return float(np.einsum("ij,ij->", ginv, ricci(chart, point)))


def nabla_riemann(chart: Chart, points, direction) -> np.ndarray:
    """(del_m R)_ijkl for a coordinate direction, by name ("u", "v", "x")
    or by index, at one point or stacked over N points.

    Exactly zero along v and x (the plane-wave property); along u the
    nonzero components are the (u,x,u,x) orbit of H'(u) on Brinkmann charts
    and delta(u) H'(u) on Rosen charts.
    """
    if isinstance(direction, str):
        direction = _DIRECTION_NAMES[direction]
    if direction != U:
        return tensor_at(chart, points, _ZERO_R, ())
    return _uxux_tensor(chart, points, _ROSEN_DR if isinstance(chart, RosenChart) else _BRINKMANN_DR)


def covariant_R_derivative(chart: Chart, points, direction):
    """Sup-norm of the covariant derivative of R along the direction: a
    float at one point, an (N,) array over a stack."""
    return sup_norm(nabla_riemann(chart, points, direction), 4)


def default_grid(
    u_range=(0.5, 2.0),
    v_range=(-1.0, 1.0),
    x_range=(-1.0, 1.0),
    shape=(5, 5, 5),
) -> list[tuple[float, float, float]]:
    us = np.linspace(*u_range, shape[0])
    vs = np.linspace(*v_range, shape[1])
    xs = np.linspace(*x_range, shape[2])
    return [(float(a), float(b), float(c)) for a, b, c in itertools.product(us, vs, xs)]


def max_abs_riemann(chart: Chart, grid: Iterable) -> float:
    return float(np.max(sup_norm(riemann_tensor(chart, grid), 4)))


def is_flat(chart: Chart) -> bool:
    """True iff max |R_ijkl| < FLAT_TOL everywhere on :func:`default_grid`."""
    return max_abs_riemann(chart, default_grid()) < FLAT_TOL


def sectional_curvature(chart: Chart, point, plane: Sequence) -> float:
    """K = R(e1, e2, e1, e2) / (g(e1,e1) g(e2,e2) - g(e1,e2)^2).

    Raises DegeneratePlane when the plane's Gram determinant is below 1e-12
    in absolute value (null planes have no sectional curvature).
    """
    e1 = np.asarray(plane[0], dtype=float)
    e2 = np.asarray(plane[1], dtype=float)
    g = metric_at(chart, point)
    g11 = float(e1 @ g @ e1)
    g22 = float(e2 @ g @ e2)
    g12 = float(e1 @ g @ e2)
    denom = g11 * g22 - g12 * g12
    if abs(denom) < 1e-12:
        raise DegeneratePlane(f"plane Gram determinant {denom} is numerically zero")
    r = riemann_tensor(chart, point)
    numer = float(np.einsum("ijkl,i,j,k,l->", r, e1, e2, e1, e2))
    return numer / denom


def curvature_report(chart: Chart, point) -> dict:
    """Point sample of the curvature data, as the JSON payload."""
    r = riemann_tensor(chart, point)
    nonzero = {}
    for idx in itertools.product(range(3), repeat=4):
        val = float(r[idx])
        if val != 0.0:
            nonzero["".join("uvx"[i] for i in idx)] = val
    return {
        "point": dict(zip("uvx", (float(c) for c in point))),
        "riemann_nonzero": nonzero,
        "ricci": [[float(e) for e in row] for row in ricci(chart, point)],
        "scalar": scalar_curvature(chart, point),
        "nabla_R_norms": {
            name: covariant_R_derivative(chart, point, name) for name in ("u", "v", "x")
        },
        "max_abs_riemann": float(np.max(np.abs(r))),
    }
