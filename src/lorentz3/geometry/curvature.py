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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .charts import (
    Chart,
    RosenChart,
    U,
    V,
    Xc,
    check_domain,
    inverse_metric_at,
    metric_at,
)

_DIRECTION_NAMES = {"u": U, "v": V, "x": Xc}
FLAT_TOL = 1e-10


class DegeneratePlane(ValueError):
    """The requested tangent plane is degenerate for this metric."""


def christoffels(chart: Chart, point) -> np.ndarray:
    """Closed-form Gamma^k_ij; indices gamma[k, i, j]."""
    check_domain(chart, point)
    u, _, x = point
    gamma = np.zeros((3, 3, 3))
    if isinstance(chart, RosenChart):
        d = chart.delta(u)
        dd = chart.ddelta(u)
        gamma[V, Xc, Xc] = -0.5 * dd
        gamma[Xc, U, Xc] = gamma[Xc, Xc, U] = 0.5 * dd / d
    else:
        h = chart.h(u)
        gamma[V, U, U] = 0.5 * chart.dh(u) * x * x
        gamma[V, U, Xc] = gamma[V, Xc, U] = h * x
        gamma[Xc, U, U] = -h * x
    return gamma


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
    a = chart.alpha
    return -2.0 * (a * a - a) / u**3


def _uxux_tensor(value: float) -> np.ndarray:
    r = np.zeros((3, 3, 3, 3))
    r[U, Xc, U, Xc] = value
    r[U, Xc, Xc, U] = -value
    r[Xc, U, U, Xc] = -value
    r[Xc, U, Xc, U] = value
    return r


def riemann_tensor(chart: Chart, point) -> np.ndarray:
    """Full R_ijkl; the only nonzero components sit on the (u,x,u,x) orbit."""
    check_domain(chart, point)
    u = point[U]
    if isinstance(chart, RosenChart):
        value = chart.delta(u) * brinkmann_profile_value(chart, u)
    else:
        value = chart.h(u)
    return _uxux_tensor(value)


def ricci(chart: Chart, point) -> np.ndarray:
    r = riemann_tensor(chart, point)
    ginv = inverse_metric_at(chart, point)
    return np.einsum("kl,kijl->ij", ginv, r)


def scalar_curvature(chart: Chart, point) -> float:
    ginv = inverse_metric_at(chart, point)
    return float(np.einsum("ij,ij->", ginv, ricci(chart, point)))


def nabla_riemann(chart: Chart, point, direction) -> np.ndarray:
    """(del_m R)_ijkl for a coordinate direction, by name ("u", "v", "x")
    or by index.

    Exactly zero along v and x (the plane-wave property); along u the
    nonzero components are the (u,x,u,x) orbit of H'(u) on Brinkmann charts
    and delta(u) H'(u) on Rosen charts.
    """
    check_domain(chart, point)
    if isinstance(direction, str):
        direction = _DIRECTION_NAMES[direction]
    if direction != U:
        return np.zeros((3, 3, 3, 3))
    u = point[U]
    if isinstance(chart, RosenChart):
        du_value = chart.delta(u) * brinkmann_profile_derivative(chart, u)
    else:
        du_value = chart.dh(u)
    return _uxux_tensor(du_value)


def covariant_R_derivative(chart: Chart, point, direction) -> float:
    """Sup-norm of the covariant derivative of R along the direction."""
    return float(np.max(np.abs(nabla_riemann(chart, point, direction))))


def riemann_symmetry_residual(r: np.ndarray) -> float:
    """Worst violation of the algebraic Riemann identities."""
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(r + np.swapaxes(r, 0, 1)))))
    worst = max(worst, float(np.max(np.abs(r + np.swapaxes(r, 2, 3)))))
    worst = max(worst, float(np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1))))))
    bianchi = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
    worst = max(worst, float(np.max(np.abs(bianchi))))
    return worst


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
    return max(float(np.max(np.abs(riemann_tensor(chart, p)))) for p in grid)


def is_flat(chart: Chart, sample_grid: Iterable | None = None) -> bool:
    """True iff max |R_ijkl| < FLAT_TOL everywhere on the grid."""
    grid = default_grid() if sample_grid is None else sample_grid
    return max_abs_riemann(chart, grid) < FLAT_TOL


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


@dataclass(frozen=True)
class CurvatureReport:
    """Point sample of the curvature data, JSON-serializable."""

    point: tuple[float, float, float]
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    nabla_R_norms: dict[str, float]
    symmetry_residual: float

    def to_json(self) -> dict:
        nonzero = {}
        names = "uvx"
        for idx in itertools.product(range(3), repeat=4):
            val = float(self.riemann[idx])
            if val != 0.0:
                nonzero["".join(names[i] for i in idx)] = val
        return {
            "point": {"u": self.point[0], "v": self.point[1], "x": self.point[2]},
            "riemann_nonzero": nonzero,
            "ricci": [[float(e) for e in row] for row in self.ricci],
            "scalar": self.scalar,
            "nabla_R_norms": dict(self.nabla_R_norms),
            "max_abs_riemann": float(np.max(np.abs(self.riemann))),
            "symmetry_residual": self.symmetry_residual,
        }


def curvature_report(chart: Chart, point) -> CurvatureReport:
    r = riemann_tensor(chart, point)
    return CurvatureReport(
        point=tuple(float(c) for c in point),
        riemann=r,
        ricci=ricci(chart, point),
        scalar=scalar_curvature(chart, point),
        nabla_R_norms={
            name: covariant_R_derivative(chart, point, name) for name in ("u", "v", "x")
        },
        symmetry_residual=riemann_symmetry_residual(r),
    )
