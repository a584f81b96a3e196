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
    riemann_tensor,
    scalar_curvature,
    sectional_curvature,
)
from lorentz3.geometry.curvature import default_grid
from lorentz3.geometry.findiff import (
    DEFAULT_STEP,
    RIEMANN_INNER_STEP,
    RIEMANN_OUTER_STEP,
    christoffels_fd,
    nabla_riemann_fd,
    partial_derivative,
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


class TestPowerLawProfile:
    @pytest.mark.parametrize("b", [2.0, -0.25, 1e-300, -3e300])
    @pytest.mark.parametrize("u", [1e-100, 0.3, 7.5, 1e100])
    def test_h_and_dh_are_the_power_law(self, b, u):
        chart = PowerLaw(b)
        assert chart.h(u).hex() == (b / (u * u)).hex()
        assert chart.dh(u).hex() == (-2.0 * b / u**3).hex()

    @pytest.mark.parametrize("u", [1e-300, 1e-200, 1.0, 1e155, 1e300])
    def test_flat_profile_is_zero_at_every_u(self, u):
        # u*u underflows below about 1e-162, u**3 overflows above 5.6e102
        chart = PowerLaw(0.0)
        assert chart.h(u).hex() == "0x0.0p+0"
        assert chart.dh(u).hex() == "-0x0.0p+0"


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


def _partial_derivative_loops(f, point, axis, step=DEFAULT_STEP):
    """The oracle's per-point central difference with one Richardson level,
    calling ``f`` at one point at a time: the reference for the stencil the
    oracle now evaluates in one call."""

    def central(h):
        p_plus = np.array(point, dtype=float)
        p_minus = np.array(point, dtype=float)
        p_plus[axis] += h
        p_minus[axis] -= h
        return (np.asarray(f(tuple(p_plus)), dtype=float) - np.asarray(f(tuple(p_minus)), dtype=float)) / (2.0 * h)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def _christoffels_fd_loops(metric_fn, point, step=DEFAULT_STEP):
    """The oracle's index loops, kept as the reference for its array form."""
    ginv = np.linalg.inv(np.asarray(metric_fn(point), dtype=float))
    dg = np.stack([_partial_derivative_loops(metric_fn, point, m, step) for m in range(3)])
    gamma = np.zeros((3, 3, 3))
    for k, i, j in np.ndindex(3, 3, 3):
        gamma[k, i, j] = 0.5 * np.dot(ginv[k], dg[i][j, :] + dg[j][i, :] - dg[:, i, j])
    return gamma


def _riemann_fd_loops(metric_fn, point):
    gamma_fn = lambda q: _christoffels_fd_loops(metric_fn, q, RIEMANN_INNER_STEP)
    gamma = gamma_fn(point)
    dgamma = np.stack([_partial_derivative_loops(gamma_fn, point, m, RIEMANN_OUTER_STEP) for m in range(3)])
    upper = np.zeros((3, 3, 3, 3))
    for i, j, k in np.ndindex(3, 3, 3):
        upper[i, j, k] = (
            dgamma[i][:, j, k]
            - dgamma[j][:, i, k]
            + gamma[:, i, :] @ gamma[:, j, k]
            - gamma[:, j, :] @ gamma[:, i, k]
        )
    return np.einsum("ijkm,ml->ijkl", upper, np.asarray(metric_fn(point), dtype=float))


def _nabla_riemann_fd_loops(riemann_fn, gamma_fn, point, direction):
    r0 = np.asarray(riemann_fn(point), dtype=float)
    out = np.array(_partial_derivative_loops(riemann_fn, point, direction))
    gm = np.asarray(gamma_fn(point), dtype=float)[:, direction, :]
    for a, b, c, d in np.ndindex(3, 3, 3, 3):
        out[a, b, c, d] -= gm[:, a] @ r0[:, b, c, d]
        out[a, b, c, d] -= gm[:, b] @ r0[a, :, c, d]
        out[a, b, c, d] -= gm[:, c] @ r0[a, b, :, d]
        out[a, b, c, d] -= gm[:, d] @ r0[a, b, c, :]
    return out


class TestOracleArrayForm:
    """The oracle evaluates each stencil with one call on a stack of points;
    on the charts' metrics every contraction has at most one nonzero term,
    so at every point it repeats, bit for bit, the per-point loops above,
    which call the metric one point at a time."""

    charts = [PowerLaw(2.0), PowerLaw(-0.3), Constant(1.0), Constant(-1.0), RosenChart(-1.0), RosenChart(0.5)]

    @staticmethod
    def _assert_equal_to_loops(chart, stacked_points, rows):
        metric_fn = lambda q: metric_at(chart, q)
        riemann_fn = lambda q: riemann_tensor(chart, q)
        gamma_fn = lambda q: christoffels(chart, q)
        gamma = christoffels_fd(metric_fn, stacked_points)
        r = riemann_fd(metric_fn, stacked_points)
        nabla = [nabla_riemann_fd(riemann_fn, gamma_fn, stacked_points, axis) for axis in range(3)]
        assert len(gamma) == len(r) == len(rows)
        for n, p in enumerate(rows):
            assert np.array_equal(gamma[n], _christoffels_fd_loops(metric_fn, p))
            assert np.array_equal(r[n], _riemann_fd_loops(metric_fn, p))
            for axis in range(3):
                assert np.array_equal(nabla[axis][n], _nabla_riemann_fd_loops(riemann_fn, gamma_fn, p, axis))

    @given(points, st.sampled_from(charts))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_to_the_loops(self, p, chart):
        metric_fn = lambda q: metric_at(chart, q)
        assert np.array_equal(christoffels_fd(metric_fn, p), _christoffels_fd_loops(metric_fn, p))
        assert np.array_equal(riemann_fd(metric_fn, p), _riemann_fd_loops(metric_fn, p))
        self._assert_equal_to_loops(chart, [p], [p])

    @given(st.lists(points, min_size=2, max_size=4), st.sampled_from(charts))
    @settings(max_examples=25, deadline=None)
    def test_stack_equals_per_point_reference(self, rows, chart):
        self._assert_equal_to_loops(chart, np.array(rows), rows)

    def test_one_metric_call_per_stencil(self):
        calls = []

        def metric_fn(q):
            calls.append(len(q))
            return metric_at(PowerLaw(2.0), q)

        riemann_fd(metric_fn, [(1.0, 0.0, 0.0), (1.5, 0.2, -0.3)])
        assert calls == [26, 26 * 12]  # 13 centres per point, 12 stencil points per centre
        calls.clear()
        christoffels_fd(metric_fn, (1.0, 0.0, 0.0))
        assert calls == [1, 12]

    def test_partial_derivative_shapes(self):
        f = lambda q: metric_at(PowerLaw(2.0), q)
        p = (1.0, 0.0, 0.5)
        assert partial_derivative(f, p, 0).shape == (3, 3)
        assert partial_derivative(f, [p, p], 0).shape == (2, 3, 3)
        assert partial_derivative(f, p, (0, 1, 2)).shape == (3, 3, 3)
        assert partial_derivative(f, [p, p], (2, 0)).shape == (2, 2, 3, 3)
        assert np.array_equal(partial_derivative(f, p, (2, 0))[0], partial_derivative(f, p, 2))
        scalar = partial_derivative(lambda q: np.asarray(q)[:, 0] ** 2, p, 0)
        assert np.ndim(scalar) == 0 and scalar == pytest.approx(2.0)


class TestOracleOnDenseMetric:
    """Plane-wave metrics are mostly zeros, so an index mistake in the
    oracle's contractions can vanish on them.  Pulled back by a linear map
    J (q = J q'), every component of the metric is nonzero:
    g'(q') = J^T g(J q') J, Gamma'^k_ij = (J^-1)^k_a Gamma^a_bc J^b_i J^c_j
    and R'_ijkl = J^a_i J^b_j J^c_k J^d_l R_abcd."""

    J = np.array([[1.0, 0.3, -0.2], [0.4, 1.1, 0.5], [-0.3, 0.2, 0.9]])
    CASES = [
        (PowerLaw(2.0), (1.0, 0.3, -0.4)),
        (PowerLaw(2.0), (0.7, -1.0, 1.2)),
        (RosenChart(-1.0), (1.5, 0.2, 0.8)),
    ]
    TOL = 1e-6  # verify's DEFAULT_ORACLE_TOL

    def pulled_back(self, chart, p):
        jac = self.J
        # one point or a stack: rows q' map to q = J q', i.e. q' @ J^T
        metric_fn = lambda q: jac.T @ metric_at(chart, np.asarray(q) @ jac.T) @ jac
        return metric_fn, tuple(np.linalg.solve(jac, np.asarray(p)))

    @pytest.mark.parametrize("chart,p", CASES)
    def test_christoffels_fd(self, chart, p):
        metric_fn, q = self.pulled_back(chart, p)
        assert np.count_nonzero(metric_fn(q)) == 9
        jac = self.J
        expected = np.einsum("ka,abc,bi,cj->kij", np.linalg.inv(jac), christoffels(chart, p), jac, jac)
        assert np.max(np.abs(christoffels_fd(metric_fn, q) - expected)) < self.TOL

    @pytest.mark.parametrize("chart,p", CASES)
    def test_riemann_fd(self, chart, p):
        metric_fn, q = self.pulled_back(chart, p)
        jac = self.J
        expected = np.einsum("abcd,ai,bj,ck,dl->ijkl", riemann_tensor(chart, p), jac, jac, jac, jac)
        assert np.count_nonzero(np.abs(expected) > 1e-3) > 9  # not the sparse (u,x,u,x) orbit
        assert np.max(np.abs(riemann_fd(metric_fn, q) - expected)) < self.TOL


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
        payload = curvature_report(PowerLaw(2.0), (1.0, 0.0, 0.0))
        assert payload["scalar"] == pytest.approx(0.0, abs=1e-12)
        assert payload["max_abs_riemann"] == pytest.approx(2.0)
        assert payload["nabla_R_norms"]["u"] == pytest.approx(4.0)
        assert payload["nabla_R_norms"]["x"] == 0.0
        assert payload["riemann_nonzero"]["uxux"] == pytest.approx(2.0)
