"""Finite-difference oracle for the tensor machinery.

Every closed-form quantity in :mod:`lorentz3.geometry.curvature` is checked
against plain central differences (with one Richardson extrapolation level):

* Christoffel symbols  <-  differences of the metric components,
* Riemann tensor       <-  differences of those Christoffel differences, so
  from metric values alone: noisier, but independent of every closed form,
* covariant derivative of R  <-  differences of Riemann components.

Like the closed forms, every function here takes one point (u, v, x),
giving one tensor, or an (N, 3) stack of points, giving N tensors stacked
along a new first axis; the single point is the N = 1 case of the same
code.  The user functions (``metric_fn``, ``riemann_fn``, ``gamma_fn``, or
the ``f`` of :func:`partial_derivative`) are always called with an (M, 3)
array of points and must return the M values stacked along a new first
axis, as :func:`~lorentz3.geometry.charts.metric_at`,
:func:`~lorentz3.geometry.curvature.riemann_tensor` and
:func:`~lorentz3.geometry.curvature.christoffels` do.  A whole stencil is
one such call: each centre shifted by +h/2, -h/2, +h and -h along each
axis, so :func:`christoffels_fd` calls ``metric_fn`` twice (centres and
stencil) and :func:`riemann_fd`, which runs it on the 13-point outer
stencil of each centre, also twice.

Index convention of the array forms: ``dg[m, i, j] = d_m g_ij``,
``gamma[k, i, j] = Gamma^k_ij`` and ``dgamma[m, k, i, j] = d_m Gamma^k_ij``.
Then ``s[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij`` gives
``Gamma^k_ij = 1/2 g^kl s[i, j, l]``, and with ``dterm[i, j, k, l] =
d_i Gamma^l_jk`` and ``gg[i, j, k, l] = Gamma^l_ip Gamma^p_jk``,
``(R(d_i, d_j) d_k)^l = dterm - dterm[j, i] + gg - gg[j, i]``, summed in that
order.  Stacked, each of these carries the point index n in front.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-5
RIEMANN_INNER_STEP = 1e-4
RIEMANN_OUTER_STEP = 3e-4

_AXES = (0, 1, 2)


def _as_stack(points) -> tuple[np.ndarray, bool]:
    """The points as an (N, 3) float array, and whether they were one point."""
    arr = np.asarray(points, dtype=float)
    return arr.reshape(-1, 3), arr.ndim == 1


def _values(f: Callable, points: np.ndarray) -> np.ndarray:
    return np.asarray(f(points), dtype=float)


def _stencil(centres: np.ndarray, axes: tuple, step: float) -> np.ndarray:
    """(N, A, 4, 3): each centre shifted by +step/2, -step/2, +step and
    -step along each of the A axes."""
    half = step / 2.0
    pts = np.repeat(centres[:, np.newaxis, np.newaxis, :], 4, axis=2).repeat(len(axes), axis=1)
    for a, axis in enumerate(axes):
        pts[:, a, 0, axis] += half
        pts[:, a, 1, axis] -= half
        pts[:, a, 2, axis] += step
        pts[:, a, 3, axis] -= step
    return pts


def _richardson(values: np.ndarray, step: float) -> np.ndarray:
    """(4 c(step/2) - c(step)) / 3 with c(h) = (f(p + h) - f(p - h)) / 2h,
    from values of shape (N, A, 4, ...) taken at :func:`_stencil`."""
    half = step / 2.0
    c_half = (values[:, :, 0] - values[:, :, 1]) / (2.0 * half)
    c_full = (values[:, :, 2] - values[:, :, 3]) / (2.0 * step)
    return (4.0 * c_half - c_full) / 3.0


def partial_derivative(f: Callable, points, axis, step: float = DEFAULT_STEP):
    """Central difference with one Richardson level along ``axis``, from
    one call of ``f`` on the whole stencil.

    ``f`` maps an (M, 3) stack to M values of any shape, scalars included.
    At one point the result has the shape of one value; at a stack of N it
    gains a leading axis of length N.  ``axis`` may also be a sequence of
    axes, which puts the derivatives along the axes, in order, on a new
    axis after the point axis.
    """
    centres, single = _as_stack(points)
    axes = tuple(np.atleast_1d(axis).tolist())
    pts = _stencil(centres, axes, step)
    values = _values(f, pts.reshape(-1, 3))
    d = _richardson(values.reshape(*pts.shape[:3], *values.shape[1:]), step)
    if np.ndim(axis) == 0:
        d = d[:, 0]
    return d[0] if single else d


def _christoffels(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[n, k, i, j] from g[n, i, j] and dg[n, m, i, j]."""
    ginv = np.linalg.inv(g)
    s = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)  # s[n, i, j, l]
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, s)


def christoffels_fd(metric_fn: Callable, points) -> np.ndarray:
    """Gamma^k_ij from finite differences of the metric alone, at
    DEFAULT_STEP."""
    centres, single = _as_stack(points)
    gamma = _christoffels(_values(metric_fn, centres), partial_derivative(metric_fn, centres, _AXES))
    return gamma[0] if single else gamma


def riemann_fd(metric_fn: Callable, points) -> np.ndarray:
    """Fully nested oracle: R_ijkl = g(R(d_i, d_j) d_k, d_l) from metric
    values only, by differences of :func:`christoffels_fd`'s Christoffel
    symbols, taken at each centre and its 12 outer stencil points at once.

    The inner step is larger than the single-layer default: the outer
    difference divides the inner roundoff by its own step, so the inner
    layer is run roundoff-limited rather than truncation-limited.

    The curvature convention is R(X, Y)Z = del_X del_Y Z - del_Y del_X Z
    - del_[X,Y] Z; for coordinate fields the bracket term drops.
    """
    centres, single = _as_stack(points)
    n = len(centres)
    outer = _stencil(centres, _AXES, RIEMANN_OUTER_STEP)
    at = np.concatenate([centres, outer.reshape(-1, 3)])
    g_at = _values(metric_fn, at)
    gamma_at = _christoffels(g_at, partial_derivative(metric_fn, at, _AXES, RIEMANN_INNER_STEP))
    g, gamma = g_at[:n], gamma_at[:n]
    dgamma = _richardson(gamma_at[n:].reshape(*outer.shape[:3], 3, 3, 3), RIEMANN_OUTER_STEP)
    dterm = np.einsum("niljk->nijkl", dgamma)
    gg = np.einsum("nlip,npjk->nijkl", gamma, gamma)
    upper = dterm - dterm.swapaxes(1, 2) + gg - gg.swapaxes(1, 2)  # (R(d_i, d_j) d_k)^l
    r = np.einsum("nijkm,nml->nijkl", upper, g)
    return r[0] if single else r


def nabla_riemann_fd(riemann_fn: Callable, gamma_fn: Callable, points, direction: int) -> np.ndarray:
    """(del_m R)_ijkl from differences of a Riemann function plus the four
    connection correction terms."""
    centres, single = _as_stack(points)
    r0 = _values(riemann_fn, centres)
    out = partial_derivative(riemann_fn, centres, direction)
    gm = _values(gamma_fn, centres)[:, :, direction, :]  # gm[n, p, a] = Gamma^p_{direction a}
    out -= np.einsum("npa,npbcd->nabcd", gm, r0)
    out -= np.einsum("npb,napcd->nabcd", gm, r0)
    out -= np.einsum("npc,nabpd->nabcd", gm, r0)
    out -= np.einsum("npd,nabcp->nabcd", gm, r0)
    return out[0] if single else out
