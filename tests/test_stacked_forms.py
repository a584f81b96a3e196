"""The stacked (N, 3) forms of the tensor layer equal their single-point
results bit for bit.

The sample holds u values at which numpy's array ``pow`` (or ``log``)
differs from Python's scalar one in the last bit, found on the running
host by evaluating each profile both ways.  A stacked form that fed its
profile an array instead of one Python float per point would differ from
the single-point result at those u and fail here.
"""

import math

import numpy as np
import pytest

from lorentz3.geometry import (
    Constant,
    PowerLaw,
    RosenChart,
    boost_field,
    brinkmann_profile_derivative,
    brinkmann_profile_value,
    coordinate_field,
    covariant_R_derivative,
    heis_killing_fields,
    killing_residual,
    metric_at,
    metric_partials,
    nabla_riemann,
    riemann_tensor,
)
from lorentz3.geometry.killing import lie_derivative_of_metric

CHARTS = [
    PowerLaw(2.0),
    PowerLaw(-0.5),
    PowerLaw(2 / 9),
    Constant(1.0),
    Constant(-1.0),
    Constant(0.0),
    RosenChart(-1.0),
    RosenChart(0.5),  # F takes its log branch
    RosenChart(1 / 3),
    RosenChart(2.0),
]


def _profiles(chart):
    """Every profile a closed form evaluates, as u -> value."""
    if isinstance(chart, RosenChart):
        return [
            chart.delta,
            chart.ddelta,
            chart.d2delta,
            chart.F,
            lambda u: brinkmann_profile_value(chart, u),
            lambda u: brinkmann_profile_derivative(chart, u),
        ]
    return [chart.h, chart.dh]


def _array_profile(profile, us: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(profile(us), dtype=float)
    except TypeError:  # math.log wants a scalar: the array route is np.log
        return np.log(us)


def _pow_witnesses(chart, per_profile: int = 3) -> list[float]:
    """u in [0.5, 2] where some profile of the chart differs between array
    and scalar evaluation."""
    us = np.random.default_rng(7).uniform(0.5, 2.0, 4000)
    found = []
    for profile in _profiles(chart):
        scalar = np.array([profile(u) for u in us.tolist()])
        differs = us[_array_profile(profile, us) != scalar]
        found += differs[:per_profile].tolist()
    return found


def _sample(chart) -> np.ndarray:
    """(N, 3) points: a regular stretch of u plus the chart's witnesses,
    each with its own v and x."""
    us = np.linspace(0.5, 2.0, 5).tolist() + _pow_witnesses(chart)
    rng = np.random.default_rng(11)
    return np.array([(u, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for u in us])


def _fields(chart):
    extra = heis_killing_fields(chart)[2] if isinstance(chart, RosenChart) else boost_field()
    return [coordinate_field("v"), coordinate_field("x"), extra]


def _lie_by_einsum(chart, field, point):
    """(L_xi g)_ij contracted by einsum, a reference for the explicit sums."""
    xi, jac = field(point), field.jacobian(point)
    g, dg = metric_at(chart, point), metric_partials(chart, point)
    return np.einsum("k,kij->ij", xi, dg) + np.einsum("kj,ik->ij", g, jac) + np.einsum("ik,jk->ij", g, jac)


def _assert_bitwise_equal(stacked, singles):
    singles = np.array(singles)
    assert stacked.shape == singles.shape
    assert np.array_equal(stacked, singles), np.argwhere(stacked != singles)[:5]


def test_the_sample_holds_pow_witnesses():
    # on a host whose array pow agrees with its scalar pow everywhere the
    # bitwise tests below still run, but nothing in them can tell routes apart
    if not _pow_witnesses(PowerLaw(2.0)) or not _pow_witnesses(RosenChart(1 / 3)):
        pytest.skip("numpy's array pow matches Python's pow on this sample")
    for chart in CHARTS:
        if isinstance(chart, PowerLaw) or isinstance(chart, RosenChart):
            assert _pow_witnesses(chart), chart


@pytest.mark.parametrize("chart", CHARTS, ids=str)
class TestStackedEqualsSinglePoint:
    def test_metric_and_partials(self, chart):
        pts = _sample(chart)
        rows = [tuple(p) for p in pts.tolist()]
        _assert_bitwise_equal(metric_at(chart, pts), [metric_at(chart, p) for p in rows])
        _assert_bitwise_equal(metric_partials(chart, pts), [metric_partials(chart, p) for p in rows])

    def test_profile_entries_are_scalar_arithmetic(self, chart):
        pts = _sample(chart)
        g, dg = metric_at(chart, pts), metric_partials(chart, pts)
        for n, (u, _, x) in enumerate(pts.tolist()):
            if isinstance(chart, RosenChart):
                assert g[n, 2, 2] == chart.delta(u)
                assert dg[n, 0, 2, 2] == chart.ddelta(u)
            else:
                assert g[n, 0, 0] == chart.h(u) * x * x
                assert dg[n, 0, 0, 0] == chart.dh(u) * x * x
                assert dg[n, 2, 0, 0] == 2.0 * chart.h(u) * x

    def test_curvature(self, chart):
        pts = _sample(chart)
        rows = [tuple(p) for p in pts.tolist()]
        _assert_bitwise_equal(riemann_tensor(chart, pts), [riemann_tensor(chart, p) for p in rows])
        for direction in ("u", "v", "x", 0, 1, 2):
            _assert_bitwise_equal(
                nabla_riemann(chart, pts, direction), [nabla_riemann(chart, p, direction) for p in rows]
            )
            norms = covariant_R_derivative(chart, pts, direction)
            _assert_bitwise_equal(norms, [covariant_R_derivative(chart, p, direction) for p in rows])

    def test_killing_fields_and_residuals(self, chart):
        pts = _sample(chart)
        rows = [tuple(p) for p in pts.tolist()]
        for field in _fields(chart):
            _assert_bitwise_equal(field(pts), [field(p) for p in rows])
            _assert_bitwise_equal(field.jacobian(pts), [field.jacobian(p) for p in rows])
            lie = lie_derivative_of_metric(chart, field, pts)
            _assert_bitwise_equal(lie, [lie_derivative_of_metric(chart, field, p) for p in rows])
            _assert_bitwise_equal(lie, [_lie_by_einsum(chart, field, p) for p in rows])
            residuals = killing_residual(chart, field, pts)
            _assert_bitwise_equal(residuals, [killing_residual(chart, field, p) for p in rows])

    def test_single_point_shapes_and_types(self, chart):
        p = (1.25, -0.5, 0.75)
        assert metric_at(chart, p).shape == (3, 3)
        assert metric_partials(chart, p).shape == (3, 3, 3)
        assert riemann_tensor(chart, p).shape == (3, 3, 3, 3)
        assert type(covariant_R_derivative(chart, p, "u")) is float
        assert type(killing_residual(chart, coordinate_field("v"), p)) is float
        stack = [p, p]
        assert metric_at(chart, stack).shape == (2, 3, 3)
        assert covariant_R_derivative(chart, stack, "u").shape == (2,)


def test_shear_field_takes_the_log_branch_at_alpha_half():
    chart = RosenChart(0.5)
    pts = _sample(chart)
    xi = heis_killing_fields(chart)[2]
    assert xi(pts)[:, 2].tolist() == [-math.log(u) for u in pts[:, 0].tolist()]


def test_a_stack_is_refused_at_its_first_point_outside_the_domain():
    with pytest.raises(ValueError, match=r"u = -0\.5 outside"):
        metric_at(PowerLaw(2.0), np.array([(1.0, 0.0, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0)]))
    assert metric_at(Constant(1.0), np.array([(-0.5, 0.0, 1.0)]))[0, 0, 0] == 1.0

