import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.geometry import (
    Constant,
    DegeneratePlane,
    DomainError,
    PowerLaw,
    RosenChart,
    christoffels,
    covariant_R_derivative,
    curvature_report,
    is_flat,
    metric_at,
    nabla_riemann,
    ricci,
    riemann_symmetry_residual,
    riemann_tensor,
    scalar_curvature,
    sectional_curvature,
)
from lorentz3.geometry.curvature import default_grid
from lorentz3.geometry.findiff import (
    christoffels_fd,
    nabla_riemann_fd,
    riemann_fd,
)

U, V, X = 0, 1, 2

points = st.tuples(
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)


class TestMetricAt:
    def test_power_law_components(self):
        g = metric_at(PowerLaw(2.0), (1.0, 0.0, 1.0))
        assert g[U, U] == 2.0 and g[U, V] == 1.0 and g[X, X] == 1.0
        assert g[V, V] == 0.0 and g[U, X] == 0.0

    def test_constant_zero_is_minkowski(self):
        g = metric_at(Constant(0.0), (-3.0, 5.0, 0.2))
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]])
        assert np.array_equal(g, expected)

    def test_rosen_power_law(self):
        g = metric_at(RosenChart(-1.0), (2.0, 0.0, 0.0))
        assert g[X, X] == 0.25

    def test_rosen_chart_is_its_exponent(self):
        # one field, so equal exponents give equal, hashable charts
        assert RosenChart(-1.0) == RosenChart(-1.0)
        assert hash(RosenChart(-1.0)) == hash(RosenChart(-1.0))
        assert RosenChart(-1.0) != RosenChart(2.0)

    def test_half_space_enforced(self):
        with pytest.raises(DomainError):
            metric_at(PowerLaw(2.0), (0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            metric_at(RosenChart(1.0), (-1.0, 0.0, 0.0))

    def test_constant_chart_has_full_domain(self):
        metric_at(Constant(1.0), (-10.0, 0.0, 0.0))


class TestChristoffels:
    def test_power_law_closed_form(self):
        gamma = christoffels(PowerLaw(2.0), (1.0, 0.0, 1.0))
        assert gamma[X, U, U] == -2.0   # -H x
        assert gamma[V, U, X] == 2.0    # H x
        assert gamma[V, U, U] == -2.0   # H' x^2 / 2 = -b x^2 / u^3
        assert np.count_nonzero(gamma) == 4  # the V,X,U symmetric partner

    def test_flat_chart_vanishes(self):
        assert np.count_nonzero(christoffels(Constant(0.0), (0.3, -1.0, 2.0))) == 0

    def test_symmetry_plane_is_geodesic(self):
        gamma = christoffels(PowerLaw(2.0), (1.0, 0.0, 0.0))
        assert gamma[X, U, U] == 0.0  # {x = 0} is totally geodesic

    @given(points, st.sampled_from([2.0, -0.5, -0.25]))
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle(self, p, b):
        chart = PowerLaw(b)
        gap = np.max(
            np.abs(christoffels(chart, p) - christoffels_fd(lambda q: metric_at(chart, q), p))
        )
        assert gap < 1e-6


class TestRiemann:
    def test_power_law_value_from_oracle(self):
        # frozen from the nested finite-difference oracle: R(du,dx,du,dx) = +H
        chart = PowerLaw(2.0)
        r = riemann_tensor(chart, (1.0, 0.0, 0.0))
        assert r[U, X, U, X] == pytest.approx(2.0, abs=1e-12)
        rfd = riemann_fd(lambda q: metric_at(chart, q), (1.0, 0.0, 0.0))
        assert np.max(np.abs(r - rfd)) < 1e-6

    def test_flat_cases(self):
        assert is_flat(PowerLaw(0.0))
        assert is_flat(Constant(0.0))
        assert is_flat(RosenChart(0.0))
        assert is_flat(RosenChart(1.0))  # delta = u^2 is flat

    def test_quarter_not_flat(self):
        assert not is_flat(PowerLaw(-0.25))
        r = riemann_tensor(PowerLaw(-0.25), (1.0, 0.0, 0.5))
        assert abs(r[U, X, U, X]) == pytest.approx(0.25)

    def test_constant_charts_curved_but_scalar_flat(self):
        for h in (1.0, -1.0):
            chart = Constant(h)
            p = (0.4, 0.9, -0.7)
            r = riemann_tensor(chart, p)
            assert r[U, X, U, X] == pytest.approx(h)
            assert scalar_curvature(chart, p) == pytest.approx(0.0, abs=1e-12)

    def test_ricci_is_null(self):
        chart = PowerLaw(2.0)
        p = (1.0, 0.3, -0.4)
        ric = ricci(chart, p)
        assert ric[U, U] == pytest.approx(-2.0)  # -H(u)
        off = ric.copy()
        off[U, U] = 0.0
        assert np.max(np.abs(off)) == pytest.approx(0.0, abs=1e-12)

    def test_rosen_matches_transform_profile(self):
        # curvature of 2dudv + u^(2a) dx^2 equals delta * (a^2 - a)/u^2
        chart = RosenChart(-1.0)
        u = 1.7
        r = riemann_tensor(chart, (u, 0.0, 0.0))
        assert r[U, X, U, X] == pytest.approx(u ** (-2.0) * 2.0 / u**2)

    @given(points)
    @settings(max_examples=20, deadline=None)
    def test_symmetries_everywhere(self, p):
        for chart in (PowerLaw(2.0), Constant(-1.0), RosenChart(0.5)):
            assert riemann_symmetry_residual(riemann_tensor(chart, p)) <= 1e-9


class TestNablaRiemann:
    def test_symmetric_models_are_parallel(self):
        for h in (1.0, -1.0):
            for d in ("u", "v", "x"):
                assert covariant_R_derivative(Constant(h), (0.5, 0.1, 0.8), d) == 0.0

    def test_plane_wave_directions_vanish(self):
        chart = PowerLaw(2.0)
        for p in default_grid(shape=(3, 2, 3)):
            assert covariant_R_derivative(chart, p, "x") == 0.0
            assert covariant_R_derivative(chart, p, "v") == 0.0

    def test_u_direction_from_profile_slope(self):
        chart = PowerLaw(2.0)
        assert covariant_R_derivative(chart, (1.0, 0.0, 0.0), "u") == pytest.approx(4.0)

    def test_oracle_agreement(self):
        chart = PowerLaw(-0.5)
        p = (0.8, 0.0, 0.3)
        for axis in range(3):
            closed = nabla_riemann(chart, p, axis)
            fd = nabla_riemann_fd(
                lambda q: riemann_tensor(chart, q),
                lambda q: christoffels(chart, q),
                p,
                axis,
            )
            assert np.max(np.abs(closed - fd)) < 1e-5


class TestSectional:
    def test_null_plane_is_degenerate(self):
        with pytest.raises(DegeneratePlane):
            sectional_curvature(PowerLaw(2.0), (1.0, 0.0, 0.0), [(1, 0, 0), (0, 0, 1)])

    def test_flat_chart_everywhere_zero(self):
        k = sectional_curvature(Constant(0.0), (0.0, 0.0, 0.0), [(1, -1, 0), (0, 0, 1)])
        assert k == 0.0

    def test_blowup_along_incoming_geodesic(self):
        plane = [(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        ks = [
            abs(sectional_curvature(PowerLaw(2.0), (u, 0.0, 0.0), plane))
            for u in (1.0, 0.1, 0.01)
        ]
        assert ks[1] / ks[0] == pytest.approx(100.0, rel=0.05)
        assert ks[2] / ks[1] == pytest.approx(100.0, rel=0.05)


class TestCurvatureReport:
    def test_report_fields(self):
        rep = curvature_report(PowerLaw(2.0), (1.0, 0.0, 0.0))
        payload = rep.to_json()
        assert payload["scalar"] == pytest.approx(0.0, abs=1e-12)
        assert payload["max_abs_riemann"] == pytest.approx(2.0)
        assert payload["nabla_R_norms"]["u"] == pytest.approx(4.0)
        assert payload["nabla_R_norms"]["x"] == 0.0
        assert payload["riemann_nonzero"]["uxux"] == pytest.approx(2.0)
