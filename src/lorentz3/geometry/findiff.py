"""Finite-difference oracle for the tensor machinery.

Every closed-form quantity in :mod:`lorentz3.geometry.curvature` is checked
against plain central differences (with one Richardson extrapolation level):

* Christoffel symbols  <-  differences of the metric components,
* Riemann tensor       <-  differences of those Christoffel differences, so
  from metric values alone: noisier, but independent of every closed form,
* covariant derivative of R  <-  differences of Riemann components.

Index convention of the array forms: ``dg[m, i, j] = d_m g_ij``,
``gamma[k, i, j] = Gamma^k_ij`` and ``dgamma[m, k, i, j] = d_m Gamma^k_ij``.
Then ``s[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij`` gives
``Gamma^k_ij = 1/2 g^kl s[i, j, l]``, and with ``dterm[i, j, k, l] =
d_i Gamma^l_jk`` and ``gg[i, j, k, l] = Gamma^l_ip Gamma^p_jk``,
``(R(d_i, d_j) d_k)^l = dterm - dterm[j, i] + gg - gg[j, i]``, summed in that
order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-5
RIEMANN_INNER_STEP = 1e-4
RIEMANN_OUTER_STEP = 3e-4


def partial_derivative(f: Callable, point, axis: int, step: float = DEFAULT_STEP):
    """Central difference with one Richardson level along the given axis.

    ``f`` may return a scalar or any ndarray; the result has the same shape.
    """

    def central(h):
        p_plus = np.array(point, dtype=float)
        p_minus = np.array(point, dtype=float)
        p_plus[axis] += h
        p_minus[axis] -= h
        return (np.asarray(f(tuple(p_plus)), dtype=float) - np.asarray(f(tuple(p_minus)), dtype=float)) / (2.0 * h)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def christoffels_fd(metric_fn: Callable, point, step: float = DEFAULT_STEP) -> np.ndarray:
    """Gamma^k_ij from finite differences of the metric alone."""
    g = np.asarray(metric_fn(point), dtype=float)
    ginv = np.linalg.inv(g)
    dg = np.stack([partial_derivative(metric_fn, point, m, step) for m in range(3)])
    s = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)  # s[i, j, l]
    return 0.5 * np.einsum("kl,ijl->kij", ginv, s)


def riemann_fd(metric_fn: Callable, point) -> np.ndarray:
    """Fully nested oracle: R_ijkl = g(R(d_i, d_j) d_k, d_l) from metric
    values only, by differences of :func:`christoffels_fd`.

    The inner step is larger than the single-layer default: the outer
    difference divides the inner roundoff by its own step, so the inner
    layer is run roundoff-limited rather than truncation-limited.

    The curvature convention is R(X, Y)Z = del_X del_Y Z - del_Y del_X Z
    - del_[X,Y] Z; for coordinate fields the bracket term drops.
    """
    gamma_fn = lambda q: christoffels_fd(metric_fn, q, RIEMANN_INNER_STEP)
    gamma = gamma_fn(point)
    dgamma = np.stack(
        [partial_derivative(gamma_fn, point, m, RIEMANN_OUTER_STEP) for m in range(3)]
    )
    g = np.asarray(metric_fn(point), dtype=float)
    dterm = np.einsum("iljk->ijkl", dgamma)
    gg = np.einsum("lip,pjk->ijkl", gamma, gamma)
    upper = dterm - dterm.swapaxes(0, 1) + gg - gg.swapaxes(0, 1)  # (R(d_i, d_j) d_k)^l
    return np.einsum("ijkm,ml->ijkl", upper, g)


def nabla_riemann_fd(riemann_fn: Callable, gamma_fn: Callable, point, direction: int) -> np.ndarray:
    """(del_m R)_ijkl from differences of a Riemann function plus the four
    connection correction terms."""
    r0 = np.asarray(riemann_fn(point), dtype=float)
    dr = partial_derivative(riemann_fn, point, direction)
    gamma = np.asarray(gamma_fn(point), dtype=float)
    gm = gamma[:, direction, :]  # gm[p, a] = Gamma^p_{direction a}
    out = np.array(dr)
    out -= np.einsum("pa,pbcd->abcd", gm, r0)
    out -= np.einsum("pb,apcd->abcd", gm, r0)
    out -= np.einsum("pc,abpd->abcd", gm, r0)
    out -= np.einsum("pd,abcp->abcd", gm, r0)
    return out
