"""Killing-equation residuals and the standard isometry fields.

A vector field is given by its components xi^k(p) together with the
Jacobian d_i xi^k(p); the Lie derivative

    (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k

is evaluated with the closed-form metric partials, and its sup-norm is the
Killing residual at a point.  For a true Killing field it vanishes
identically.

The fields, the Lie derivative and the residual take one point or an
(N, 3) stack of points, as the charts do: a stack gives one value per
point, each equal bit for bit to the single-point value, because profile
values (F, delta) are taken per point in scalar arithmetic and every
contraction is summed in a fixed order.  A residual over a grid is the
maximum of its per-point values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .charts import Chart, RosenChart, U, V, Xc, metric_at, metric_partials, sup_norm, tensor_at

_ZERO_FIELD = np.zeros(3)
_ZERO_JACOBIAN = np.zeros((3, 3))


@dataclass(frozen=True)
class VectorField:
    """Coordinate components and first derivatives of a vector field.

    ``value(p)`` has shape (3,) at one point and (N, 3) at a stack of N
    points; ``jacobian(p)[i, k]`` (stacked: ``[n, i, k]``) is the partial of
    component k along coordinate i.
    """

    value: Callable[[Any], np.ndarray]
    jacobian: Callable[[Any], np.ndarray]
    name: str = "field"

    def __call__(self, points) -> np.ndarray:
        return np.asarray(self.value(points), dtype=float)


def coordinate_field(axis: str) -> VectorField:
    e = np.zeros(3)
    e[{"u": U, "v": V, "x": Xc}[axis]] = 1.0
    return VectorField(
        value=lambda p: tensor_at(None, p, e, ()),
        jacobian=lambda p: tensor_at(None, p, _ZERO_JACOBIAN, ()),
        name=f"d_{axis}",
    )


_BOOST = (((U,), lambda chart, u, v, x: u), ((V,), lambda chart, u, v, x: -v))
_BOOST_JACOBIAN = np.diag([1.0, -1.0, 0.0])


def boost_field() -> VectorField:
    """u d_u - v d_v: the boost isometry of every Brinkmann chart here."""
    return VectorField(
        value=lambda p: tensor_at(None, p, _ZERO_FIELD, _BOOST),
        jacobian=lambda p: tensor_at(None, p, _BOOST_JACOBIAN, ()),
        name="boost",
    )


_SHEAR = (((V,), lambda chart, u, v, x: x), ((Xc,), lambda chart, u, v, x: -chart.F(u)))
_SHEAR_JACOBIAN = np.zeros((3, 3))
_SHEAR_JACOBIAN[Xc, V] = 1.0
_SHEAR_JACOBIAN_ENTRIES = (((U, Xc), lambda chart, u, v, x: -1.0 / chart.delta(u)),)


def heis_killing_fields(chart: RosenChart) -> tuple[VectorField, VectorField, VectorField]:
    """The Heisenberg triple on a Rosen chart: d_v (central), d_x, and
    xi = x d_v - F(u) d_x with F an antiderivative of 1/delta.

    Their commutators realize the Heisenberg relations: [d_x, xi] = d_v and
    everything else vanishes.
    """
    xi = VectorField(
        value=lambda p: tensor_at(chart, p, _ZERO_FIELD, _SHEAR),
        jacobian=lambda p: tensor_at(chart, p, _SHEAR_JACOBIAN, _SHEAR_JACOBIAN_ENTRIES),
        name="heis-shear",
    )
    return coordinate_field("v"), coordinate_field("x"), xi


def lie_derivative_of_metric(chart: Chart, field: VectorField, points) -> np.ndarray:
    """(L_xi g)_ij at one point, or (N, 3, 3) over a stack.

    Each contraction over k is an explicit sum in the order k = 0, 1, 2,
    and the three terms add left to right: the same floats at every point
    whether it comes alone or in a stack."""
    g = metric_at(chart, points)
    dg = metric_partials(chart, points)
    xi = field(points)
    jac = np.asarray(field.jacobian(points), dtype=float)
    terms = (
        [xi[..., k, None, None] * dg[..., k, :, :] for k in range(3)],  # xi^k d_k g_ij
        [g[..., None, k, :] * jac[..., :, k, None] for k in range(3)],  # g_kj d_i xi^k
        [g[..., :, k, None] * jac[..., None, :, k] for k in range(3)],  # g_ik d_j xi^k
    )
    first, second, third = ((t0 + t1) + t2 for t0, t1, t2 in terms)
    return (first + second) + third


def killing_residual(chart: Chart, field: VectorField, points):
    """max_ij |(L_xi g)_ij|: a float at one point, an (N,) array over a
    stack; <= 1e-9 certifies a Killing field at the points sampled.

    A NaN entry (inf * 0 once g_uu overflows) makes the reading NaN, which
    certifies nothing."""
    return sup_norm(lie_derivative_of_metric(chart, field, points), 2)


def commutator_values(f1: VectorField, f2: VectorField, point) -> np.ndarray:
    """[f1, f2]^k = f1^m d_m f2^k - f2^m d_m f1^k at one point."""
    v1 = f1(point)
    v2 = f2(point)
    j1 = np.asarray(f1.jacobian(point), dtype=float)
    j2 = np.asarray(f2.jacobian(point), dtype=float)
    return v1 @ j2 - v2 @ j1
