"""Killing-equation residuals and the standard isometry fields.

A vector field is given by its components xi^k(p) together with the
Jacobian d_i xi^k(p); the Lie-derivative residual

    (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k

is evaluated with the closed-form metric partials and maximized over a
sample grid.  For a true Killing field it vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .charts import Chart, RosenChart, U, V, Xc, metric_at, metric_partials
from .curvature import default_grid


@dataclass(frozen=True)
class VectorField:
    """Coordinate components and first derivatives of a vector field.

    ``jacobian(p)[i, k]`` is the partial of component k along coordinate i.
    """

    value: Callable[[tuple], np.ndarray]
    jacobian: Callable[[tuple], np.ndarray]
    name: str = "field"

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.value(point), dtype=float)


def coordinate_field(axis) -> VectorField:
    idx = {"u": U, "v": V, "x": Xc}[axis] if isinstance(axis, str) else int(axis)
    e = np.zeros(3)
    e[idx] = 1.0
    zero = np.zeros((3, 3))
    return VectorField(
        value=lambda p, _e=e: _e.copy(),
        jacobian=lambda p, _z=zero: _z.copy(),
        name=f"d_{'uvx'[idx]}",
    )


def boost_field() -> VectorField:
    """u d_u - v d_v: the boost isometry of every Brinkmann chart here."""

    def value(p):
        u, v, _ = p
        return np.array([u, -v, 0.0])

    def jacobian(p):
        j = np.zeros((3, 3))
        j[U, U] = 1.0
        j[V, V] = -1.0
        return j

    return VectorField(value=value, jacobian=jacobian, name="boost")


def scaling_field(alpha: float) -> VectorField:
    """-u d_u + v d_v + alpha x d_x: the extra isometry of a Rosen power law."""

    def value(p, a=float(alpha)):
        u, v, x = p
        return np.array([-u, v, a * x])

    def jacobian(p, a=float(alpha)):
        j = np.zeros((3, 3))
        j[U, U] = -1.0
        j[V, V] = 1.0
        j[Xc, Xc] = a
        return j

    return VectorField(value=value, jacobian=jacobian, name="rosen-scaling")


def heis_killing_fields(chart: RosenChart) -> tuple[VectorField, VectorField, VectorField]:
    """The Heisenberg triple on a Rosen chart: d_v (central), d_x, and
    xi = x d_v - F(u) d_x with F an antiderivative of 1/delta.

    Their commutators realize the Heisenberg relations: [d_x, xi] = d_v and
    everything else vanishes.
    """
    def xi_value(p):
        u, _, x = p
        return np.array([0.0, x, -chart.F(u)])

    def xi_jacobian(p):
        u = p[U]
        j = np.zeros((3, 3))
        j[Xc, V] = 1.0
        j[U, Xc] = -1.0 / chart.delta(u)
        return j

    xi = VectorField(value=xi_value, jacobian=xi_jacobian, name="heis-shear")
    return coordinate_field("v"), coordinate_field("x"), xi


def lie_derivative_of_metric(chart: Chart, field: VectorField, point) -> np.ndarray:
    xi = field(point)
    jac = np.asarray(field.jacobian(point), dtype=float)
    g = metric_at(chart, point)
    dg = metric_partials(chart, point)
    lie = np.einsum("k,kij->ij", xi, dg)
    lie += np.einsum("kj,ik->ij", g, jac)
    lie += np.einsum("ik,jk->ij", g, jac)
    return lie


def killing_residual(chart: Chart, field: VectorField, grid: Iterable | None = None) -> float:
    """max |(L_xi g)_ij| over the grid; <= 1e-9 certifies a Killing field
    at the points sampled."""
    pts = default_grid() if grid is None else grid
    worst = 0.0
    for p in pts:
        worst = max(worst, float(np.max(np.abs(lie_derivative_of_metric(chart, field, p)))))
    return worst


def commutator_values(f1: VectorField, f2: VectorField, point) -> np.ndarray:
    """[f1, f2]^k = f1^m d_m f2^k - f2^m d_m f1^k at one point."""
    v1 = f1(point)
    v2 = f2(point)
    j1 = np.asarray(f1.jacobian(point), dtype=float)
    j2 = np.asarray(f2.jacobian(point), dtype=float)
    return v1 @ j2 - v2 @ j1


def rosen_shear_flow(chart: RosenChart, t: float, point) -> tuple[float, float, float]:
    """Time-t map of the one-parameter group generated by the shear field:
    (u, v, x) -> (u, v + t x - t^2/2 F(u), x - t F(u))."""
    u, v, x = point
    f = chart.F(u)
    return (u, v + t * x - 0.5 * t * t * f, x - t * f)
