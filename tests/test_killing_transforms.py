import math

import numpy as np
import pytest

from lorentz3.geometry import (
    Constant,
    PowerLaw,
    RosenChart,
    boost_field,
    brinkmann_profile_value,
    commutator_values,
    coordinate_field,
    heis_killing_fields,
    killing_residual,
    metric_at,
    pullback_residual,
    roundtrip_residual,
    to_brinkmann,
    to_rosen,
)
from lorentz3.geometry import VectorField
from lorentz3.geometry.charts import U, V, Xc
from lorentz3.geometry.curvature import default_grid

GRID = default_grid(shape=(4, 3, 4))


def scaling_field(alpha: float) -> VectorField:
    """-u d_u + v d_v + alpha x d_x, at one point: the extra isometry of a
    Rosen power law."""

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


def rosen_shear_flow(chart: RosenChart, t: float, point) -> tuple[float, float, float]:
    """Time-t map of the one-parameter group generated by the shear field:
    (u, v, x) -> (u, v + t x - t^2/2 F(u), x - t F(u))."""
    u, v, x = point
    f = chart.F(u)
    return (u, v + t * x - 0.5 * t * t * f, x - t * f)


class TestKillingResiduals:
    def test_dv_is_killing_on_every_chart(self):
        for chart in (PowerLaw(2.0), Constant(-1.0), RosenChart(2.0)):
            assert max(killing_residual(chart, coordinate_field("v"), GRID)) == 0.0

    def test_boost_on_brinkmann(self):
        for b in (2.0, -0.5):
            assert max(killing_residual(PowerLaw(b), boost_field(), GRID)) <= 1e-9

    def test_dx_fails_on_curved_brinkmann(self):
        # (L_dx g)_uu = 2 H x = 4 x / u^2 for b = 2
        res = killing_residual(PowerLaw(2.0), coordinate_field("x"), [(1.0, 0.0, 0.5)])
        assert res == pytest.approx(2.0)

    def test_extra_translations_on_constant_charts(self):
        # on H = const charts, d_x is not Killing unless h = 0
        assert max(killing_residual(Constant(0.0), coordinate_field("x"), GRID)) == 0.0
        assert killing_residual(Constant(1.0), coordinate_field("x"), [(0.3, 0.0, 0.5)]) == pytest.approx(1.0)

    def test_overflowing_metric_certifies_nothing(self):
        # g_uu = H x^2 is inf, so L_xi g holds inf * 0 = NaN: the reading is
        # NaN, never the 0.0 of a Killing field
        with np.errstate(invalid="ignore"):
            res = killing_residual(PowerLaw(2.0), boost_field(), [(1.0, 0.5, 1e200), (1.0, 0.5, 1.0)])
        assert np.isnan(res[0]) and res[1] <= 1e-9

    def test_rosen_scaling_isometry(self):
        chart = RosenChart(-1.0)
        assert max(killing_residual(chart, scaling_field(-1.0), p) for p in GRID) <= 1e-9


class TestHeisenbergFields:
    def test_minkowski_shear(self):
        chart = RosenChart(0.0)  # delta = 1
        _, _, xi = heis_killing_fields(chart)
        val = xi((2.0, 5.0, 3.0))
        assert val == pytest.approx([0.0, 3.0, -2.0])  # x d_v - u d_x

    def test_alpha_minus_one_antiderivative(self):
        chart = RosenChart(-1.0)  # delta = u^-2, F = u^3/3
        _, _, xi = heis_killing_fields(chart)
        val = xi((2.0, 0.0, 1.0))
        assert val[2] == pytest.approx(-(2.0**3) / 3.0)

    def test_log_branch_at_alpha_half(self):
        chart = RosenChart(0.5)  # delta = u, F = log u
        _, _, xi = heis_killing_fields(chart)
        assert xi((math.e, 0.0, 0.0))[2] == pytest.approx(-1.0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
    def test_all_three_are_killing(self, alpha):
        chart = RosenChart(alpha)
        for field in heis_killing_fields(chart):
            assert max(killing_residual(chart, field, GRID)) <= 1e-9

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
    def test_bracket_relations(self, alpha):
        zf, xf, yf = heis_killing_fields(RosenChart(alpha))
        for p in GRID[::7]:
            assert np.allclose(commutator_values(xf, yf, p), [0.0, 1.0, 0.0], atol=1e-8)
            assert np.allclose(commutator_values(zf, yf, p), 0.0, atol=1e-8)
            assert np.allclose(commutator_values(zf, xf, p), 0.0, atol=1e-8)

    def test_flow_is_a_one_parameter_group(self):
        chart = RosenChart(-1.0)
        p = (1.5, 0.3, -0.8)
        t, s = 0.7, -1.9
        via_two_steps = rosen_shear_flow(chart, s, rosen_shear_flow(chart, t, p))
        in_one_step = rosen_shear_flow(chart, t + s, p)
        assert np.allclose(via_two_steps, in_one_step, atol=1e-12)

    def test_flow_is_isometric(self):
        chart = RosenChart(2.0)
        p = (1.2, 0.1, 0.4)
        t = 0.35
        h = 1e-6
        q = rosen_shear_flow(chart, t, p)
        jac = np.zeros((3, 3))
        for i in range(3):
            dp = list(p)
            dm = list(p)
            dp[i] += h
            dm[i] -= h
            jac[:, i] = (
                np.array(rosen_shear_flow(chart, t, tuple(dp)))
                - np.array(rosen_shear_flow(chart, t, tuple(dm)))
            ) / (2 * h)
        pulled = jac.T @ metric_at(chart, q) @ jac
        assert np.max(np.abs(pulled - metric_at(chart, p))) < 1e-8


class TestRosenBrinkmann:
    def test_exponent_to_profile(self):
        assert RosenChart(-1.0).b == pytest.approx(2.0)
        assert RosenChart(0.5).b == pytest.approx(-0.25)
        assert RosenChart(2.0).b == pytest.approx(2.0)

    def test_alpha_zero_is_identity(self):
        assert RosenChart(0.0).b == 0.0
        p = (1.3, -0.4, 0.9)
        assert to_rosen(0.0, p) == pytest.approx(p)
        assert to_brinkmann(0.0, p) == pytest.approx(p)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 2.0])
    def test_pullback_and_roundtrip(self, alpha):
        grid = default_grid(shape=(5, 5, 5))
        assert pullback_residual(alpha, grid) <= 1e-9
        assert roundtrip_residual(alpha, grid) <= 1e-12

    def test_general_profile_matches_power_law(self):
        # H = delta''/(2 delta) - delta'^2/(4 delta^2) equals b/u^2, b = alpha^2 - alpha
        for alpha in (-1.0, 0.5, 2.0):
            chart = RosenChart(alpha)
            b = alpha * alpha - alpha
            for u in (0.5, 1.0, 1.7, 3.0):
                assert abs(brinkmann_profile_value(chart, u) - b / u**2) <= 1e-8

    def test_general_profile_examples(self):
        flat = RosenChart(1.0)  # delta = u^2
        assert brinkmann_profile_value(flat, 0.7) == pytest.approx(0.0, abs=1e-12)
        trivial = RosenChart(0.0)  # delta = 1
        assert brinkmann_profile_value(trivial, 1.3) == 0.0
        inv_sq = RosenChart(-1.0)  # delta = u^-2
        assert brinkmann_profile_value(inv_sq, 2.0) == pytest.approx(2.0 / 4.0)
