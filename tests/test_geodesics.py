import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3 import geodesics as geo
from lorentz3.cli import main
from lorentz3.geometry import Constant, DomainError, PowerLaw

NULL_BAND = 1e-12


def causal_type(chart, state) -> str:
    q = geo.velocity_norm_sq(chart, state)
    if q < -NULL_BAND:
        return "timelike"
    if q > NULL_BAND:
        return "spacelike"
    return "null"


class TestCausalType:
    def test_parallel_field_orbit_is_null(self):
        st_ = (1, 0, 0, 0, 1, 0)
        assert causal_type(PowerLaw(2.0), st_) == "null"

    def test_mixed_uv_is_timelike_on_symmetry_plane(self):
        st_ = (1, 0, 0, 1, -1, 0)
        for chart in (PowerLaw(2.0), Constant(1.0), Constant(0.0)):
            assert causal_type(chart, st_) == "timelike"

    def test_transverse_is_spacelike(self):
        st_ = (1, 0, 0, 0, 0, 1)
        assert causal_type(Constant(0.0), st_) == "spacelike"


class TestRhs:
    # geodesic_rhs(chart, u, x, du, dx) is the accelerations [dv', dx']
    def test_symmetry_plane_is_totally_geodesic(self):
        assert geo.geodesic_rhs(PowerLaw(2.0), 1.0, 0.0, 1.0, 0.0) == [0.0, 0.0]

    def test_minkowski_is_straight(self):
        assert geo.geodesic_rhs(Constant(0.0), 1.0, 3.0, 0.4, 0.6) == [0.0, 0.0]

    def test_transverse_acceleration(self):
        acc = geo.geodesic_rhs(PowerLaw(2.0), 1.0, 1.0, 1.0, 0.0)
        assert acc[1] == pytest.approx(2.0)  # x'' = H(u) x u'^2

    @staticmethod
    def rhs_in_numpy_scalars(chart, u, x, du, dx):
        u, x, du, dx = (np.float64(c) for c in (u, x, du, dx))
        h = chart.h(u)
        acc_v = -0.5 * chart.dh(u) * x * x * du * du - 2.0 * h * x * du * dx
        return np.array([acc_v, h * x * du * du])

    def test_profile_poles_give_what_numpy_gives(self):
        # Python raises where b/u^2 divides by zero and where u**3 leaves
        # float range; numpy gives inf, nan or 0.0, and so must the RHS
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for chart in (PowerLaw(2.0), PowerLaw(-0.5), PowerLaw(0.0), Constant(1.0)):
                for u in (0.0, -0.0, 1e-120, 1e200, -1e200, 0.7):
                    args = (u, 0.7, -1.2, 0.9)
                    acc = geo.geodesic_rhs(chart, *args)
                    assert all(type(c) is float for c in acc), (chart, u)
                    expected = self.rhs_in_numpy_scalars(chart, *args)
                    assert np.array_equal(acc, expected, equal_nan=True), (chart, u)
                    assert np.array_equal(np.signbit(acc), np.signbit(expected)), (chart, u)
        assert not np.isfinite(geo.geodesic_rhs(PowerLaw(2.0), 0.0, 0.7, -1.2, 0.9)).all()


class TestIntegration:
    def test_vertical_null_geodesic_hits_boundary_at_affine_one(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), (1, 0, 0, -1, 0, 0), (0.0, 5.0)
        )
        assert res.terminated == "hit_domain_boundary"
        assert res.boundary_time == pytest.approx(1.0, abs=1e-6)
        assert res.boundary_time == pytest.approx(1.0 - geo.DEFAULT_U_MIN, abs=1e-9)  # u(t) = 1 - t
        assert all(y[2] == 0.0 for y in res.y)  # stays on {x = 0}

    def test_dv_orbit_completes_long_spans(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), (1, 0, 0, 0, 1, 0), (0.0, 1e4)
        )
        assert res.terminated == "completed_span"
        assert res.t[-1] - res.t[0] == pytest.approx(1e4)

    @pytest.mark.parametrize(
        "chart, du, span, terminated",
        [
            (PowerLaw(-0.5), 1.0, 4.0, "completed_span"),
            (PowerLaw(2.0), -1.0, 5.0, "hit_domain_boundary"),  # forward into u -> 0
            (PowerLaw(2.0), 1.0, -5.0, "hit_domain_boundary"),  # backward into u -> 0
            (PowerLaw(-8.0), -1.0, 5.0, "hit_domain_boundary"),
            (Constant(1.0), 1.0, 50.0, "completed_span"),
            (Constant(-1.0), 1.0, 50.0, "completed_span"),
        ],
        ids=["b=-0.5", "b=2-forward-boundary", "b=2-backward-boundary", "b=-8-boundary", "h=1-span-50", "h=-1-span-50"],
    )
    def test_u_is_affine_and_norm_conserved(self, chart, du, span, terminated):
        st_ = (1.0, 0.0, 0.5, du, -0.7, 0.3)
        res = geo.integrate_geodesic(chart, st_, (0.0, span))
        assert res.terminated == terminated
        for t, row in zip(res.t, res.y):
            assert row[0] == pytest.approx(1.0 + du * t, abs=1e-10)
        assert geo.conservation_drift(chart, st_, res) <= 1e-8

    def test_backward_integration(self):
        chart = PowerLaw(2.0)
        st_ = (1.0, 0.0, 0.0, 1.0, -1.0, 0.0)  # timelike, u grows forward
        res = geo.integrate_geodesic(chart, st_, (0.0, -5.0))
        assert res.terminated == "hit_domain_boundary"
        assert res.boundary_time == pytest.approx(-1.0, abs=1e-6)

    def test_a_state_is_any_sequence_of_six_numbers(self):
        chart = PowerLaw(2.0)
        state = (1.0, 0.0, 0.3, -1.0, 0.5, 0.2)
        first, *others = [geo.integrate_geodesic(chart, s, (0.0, 5.0)) for s in (state, list(state), np.array(state))]
        for res in others:
            assert (res.t, res.y) == (first.t, first.y)
            assert (res.terminated, res.nfev, res.boundary_time) == (first.terminated, first.nfev, first.boundary_time)
            assert res.csv_rows(chart) == first.csv_rows(chart)
        for res in (first, *others):
            assert all(type(c) is float for c in res.t), res.t
            assert all(type(c) is float for y in res.y for c in y), res.y
        for bad in (state[:5], list(state) + [0.0], np.array(state[:5])):
            with pytest.raises(ValueError, match=f"has {len(bad)} entries, not the six"):
                geo.integrate_geodesic(chart, bad, (0.0, 5.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rtol", "atol"])
    def test_tolerances_must_be_finite_and_positive(self, name, tol):
        # atol = 0.0 once divided by zero at the zero v; rtol = -1.0 once
        # ran to a verdict
        with pytest.raises(ValueError, match=f"^{name} = {tol!r}: a tolerance must be a finite float greater than 0$"):
            geo.integrate_geodesic(PowerLaw(2.0), (1.0, 0.0, 0.3, -1.0, 0.5, 0.2), (0.0, 5.0), **{name: tol})

    def test_initial_point_must_be_in_domain(self):
        with pytest.raises(DomainError):
            geo.integrate_geodesic(
                PowerLaw(2.0), (-1, 0, 0, 0, 1, 0), (0.0, 1.0)
            )

    def test_boundary_hit_work_is_under_half_of_rk45(self):
        # RK45 at the same rtol/atol needed 8210 evaluations and 1368 steps
        # for this run, because x ~ 1/u as u -> u_min
        rk45_nfev = 8210
        res = geo.integrate_geodesic(
            PowerLaw(2.0), (1, 0, 0.3, -1, 0.5, 0.2), (0.0, 5.0)
        )
        assert res.terminated == "hit_domain_boundary"
        assert res.nfev < rk45_nfev / 2
        assert 1 <= len(res.t) - 1 < res.nfev

    def test_failed_integration_raises(self):
        # x grows like cosh(t) from 1e30: v ~ x^2 overflows near t = 284,
        # inside the phase bound; no truncated trajectory comes back
        with pytest.raises(geo.SolutionLeftFloatRange, match="left float range"):
            geo.integrate_geodesic(
                Constant(1.0), (1, 0, 1e30, 1, 0, 0), (0.0, 290.0)
            )

    @given(
        st.sampled_from([PowerLaw(2.0), PowerLaw(-2.0), Constant(1.0), Constant(-1.0)]),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
        st.sampled_from([5.0, -5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_huge_states_give_finite_rows_or_a_named_refusal(self, chart, x, du, dx, end):
        # Python's float / and ** raise where numpy gives inf or nan; with a
        # huge derivative the first-step size underflows to 0, a divisor there
        try:
            res = geo.integrate_geodesic(chart, (1.0, 0.0, x, du, 0.3, dx), (0.0, end))
        except (geo.SolutionLeftFloatRange, geo.TransversePhaseTooLarge):
            return
        assert np.isfinite(res.t).all() and np.isfinite(res.y).all()


def loop_stage(y, h, ks, row):
    """y + h * sum_j a_j k_j over the (j, a_j) of ``row``, unrolled over the
    six components.  With loop_rk_step and loop_error_norm it is the plain
    loop over the tableau, the generated step's reference."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for j, a in row:
        k0, k1, k2, k3, k4, k5 = ks[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
        s4 += a * k4
        s5 += a * k5
    y0, y1, y2, y3, y4, y5 = y
    return (y0 + h * s0, y1 + h * s1, y2 + h * s2, y3 + h * s3, y4 + h * s4, y5 + h * s5)


def slopes(y, acc):
    """The six slopes of the first-order system at the state y whose
    accelerations are acc: du, dv, dx, 0.0 (Gamma^u = 0), then acc."""
    return (y[3], y[4], y[5], 0.0, *acc)


def derivative(chart, y):
    """The six slopes at y, from one geodesic_rhs call on what it reads."""
    return slopes(y, geo.geodesic_rhs(chart, y[0], y[2], y[3], y[5]))


def loop_rk_step(chart, y, f, h):
    """The stage derivatives of one DOP853 step of size h from the state y
    with derivative f (six slopes), and the order-8 state at its end (11
    evaluations)."""
    ks = [f]
    for row in geo._A[1:]:
        ks.append(derivative(chart, loop_stage(y, h, ks, row)))
    return ks, loop_stage(y, h, ks, geo._B)


def loop_error_norm(ks, h, y, y_new, rtol, atol):
    """scipy's DOP853 error norm: the order-5 estimate, damped by the
    order-3 one, in the RMS norm scaled by atol + rtol max(|y|, |y_new|)."""
    p0 = p1 = p2 = p3 = p4 = p5 = q0 = q1 = q2 = q3 = q4 = q5 = 0.0
    for j, e5, e3 in geo._E:
        k0, k1, k2, k3, k4, k5 = ks[j]
        p0 += e5 * k0
        p1 += e5 * k1
        p2 += e5 * k2
        p3 += e5 * k3
        p4 += e5 * k4
        p5 += e5 * k5
        q0 += e3 * k0
        q1 += e3 * k1
        q2 += e3 * k2
        q3 += e3 * k3
        q4 += e3 * k4
        q5 += e3 * k5
    err5 = err3 = 0.0
    for p, q, a, b in zip((p0, p1, p2, p3, p4, p5), (q0, q1, q2, q3, q4, q5), y, y_new):
        a, b = abs(a), abs(b)
        scale = atol + (a if a > b else b) * rtol
        p, q = p / scale, q / scale
        err5 += p * p
        err3 += q * q
    if not err5:
        return 0.0
    return abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 6.0)


def loop_step(chart, y, acc, h, hoisted, rtol, atol):
    """The loop reference with the generated step's signature and result;
    it sums all six slopes itself, so ``hoisted`` goes unread."""
    ks, y_new = loop_rk_step(chart, y, slopes(y, acc), h)
    return y_new, None if rtol is None else loop_error_norm(ks, h, y, y_new, rtol, atol)


def rhs_calls(monkeypatch, run):
    """``run()`` and the ((u, x, du, dx), accelerations) of each
    geodesic_rhs call it made through the module attribute."""
    real, calls = geo.geodesic_rhs, []

    def recorded(chart, *args):
        calls.append((args, real(chart, *args)))
        return calls[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(geo, "geodesic_rhs", recorded)
        return run(), calls


class TestKernel:
    """The DOP853 tableau, and the integrator against scipy's DOP853."""

    def test_tableau_conditions(self):
        # a mistyped coefficient breaks one of these
        assert [len(row) for row in geo._A[1:]] == [1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9]
        for row, c in zip(geo._A[1:], geo._C, strict=True):
            assert abs(sum(a for _, a in row) - c) <= 1e-14
        nodes = (0.0, *geo._C)
        for k in range(8):  # order 8: the quadrature is exact up to degree 7
            assert abs(sum(b * nodes[j] ** k for j, b in geo._B) - 1.0 / (k + 1)) <= 1e-14
        for weights in zip(*(e[1:] for e in geo._E)):
            assert abs(sum(weights)) <= 1e-14

    @pytest.mark.parametrize(
        "chart", [PowerLaw(2.0), PowerLaw(-0.25), PowerLaw(-3.0), Constant(1.0), Constant(-1.0)], ids=str
    )
    def test_agrees_with_scipy_dop853(self, monkeypatch, chart):
        # the runs a report rests on: samples into the boundary, d_v orbits
        # to the horizon both ways, Constant samples over span 50.  The
        # boundary end states are not compared: there a step to the crossing
        # meets scipy's dense-output interpolant, and x ~ u^r at u = 1e-8
        # magnifies their difference (up to 1.7e-6 relative)
        integrate = pytest.importorskip("scipy.integrate")
        runs = []
        real = geo.integrate_geodesic

        def recorded(*args):
            runs.append((args, real(*args)))
            return runs[-1][1]

        monkeypatch.setattr(geo, "integrate_geodesic", recorded)
        geo.completeness_report(chart, count=1, seed=28)

        def boundary(t, y):
            return y[0] - geo.DEFAULT_U_MIN

        boundary.terminal = True
        for (_, state, span), ours in runs:
            ref = integrate.solve_ivp(
                lambda t, y: derivative(chart, y.tolist()),
                span,
                state,
                method="DOP853",
                rtol=geo.DEFAULT_RTOL,
                atol=geo.DEFAULT_ATOL,
                events=[boundary] if chart.half_space else None,
            )
            assert abs(len(ours.t) - len(ref.t)) <= 1, (state, span)
            assert ours.terminated == ("hit_domain_boundary" if ref.status == 1 else "completed_span")
            if ref.status == 1:
                assert abs(ours.boundary_time - ref.t_events[0][0]) <= 1e-12
            else:
                end = ref.y[:, -1]
                assert np.all(np.abs(np.subtract(ours.y[-1], end)) <= 1e-12 * np.maximum(1.0, np.abs(end))), (state, span)

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize("du", [0.0, -0.0, 0.8, -1.1])
    @pytest.mark.parametrize(
        "chart", [PowerLaw(2.0), PowerLaw(-3.0), Constant(1.0), Constant(-1.0)], ids=str
    )
    def test_step_gives_the_loop_bits(self, monkeypatch, chart, du, direction):
        # stage derivatives, order-8 state and error norm, compared by repr
        # so that signed zeros count; x, v, dv and dx are -0.0 at times too
        rng = random.Random(31)
        hoisted = geo._hoisted_sums(du)
        for _ in range(20):
            u = rng.uniform(0.05, 3.0) if chart.half_space else rng.uniform(-3.0, 3.0)
            v, x, dv, dx = (rng.choice((rng.uniform(-1.0, 1.0), -0.0)) for _ in range(4))
            y = (u, v, x, du, dv, dx)
            acc = geo.geodesic_rhs(chart, u, x, du, dx)
            h = direction * rng.uniform(1e-3, 0.5)
            ref, ref_calls = rhs_calls(monkeypatch, lambda: loop_step(chart, y, acc, h, None, 1e-10, 1e-12))
            got, calls = rhs_calls(monkeypatch, lambda: geo._dop853_step(chart, y, acc, h, hoisted, 1e-10, 1e-12))
            assert len(calls) == 11
            assert repr(calls) == repr(ref_calls), y
            assert repr(got) == repr(ref), y
            assert repr(geo._dop853_step(chart, y, acc, h, hoisted, None, None)) == repr((ref[0], None))

    @pytest.mark.parametrize("chart", [PowerLaw(2.0), PowerLaw(-3.0)], ids=str)
    @pytest.mark.parametrize("du, h", [(-1.0, 0.5), (1.0, -0.5)], ids=["forward", "backward"])
    def test_boundary_cut_step_gives_the_loop_bits(self, chart, du, h):
        # the step cut back to u_min by the secant on u, as solve_ivp takes it
        y = (0.3, 0.2, -0.4, du, 0.5, 0.7)
        f = derivative(chart, y)
        u_new = loop_rk_step(chart, y, f, h)[1][0]
        assert u_new <= geo.DEFAULT_U_MIN
        h_hit = h * (geo.DEFAULT_U_MIN - y[0]) / (u_new - y[0])
        got = geo._dop853_step(chart, y, f[4:], h_hit, geo._hoisted_sums(du), None, None)
        assert repr(got) == repr((loop_rk_step(chart, y, f, h_hit)[1], None))

    @pytest.mark.parametrize(
        "chart, state, span",
        [
            (PowerLaw(2.0), (1.0, 0.0, 0.3, -1.0, 0.5, 0.2), (0.0, 5.0)),
            (PowerLaw(-3.0), (1.0, -0.0, 0.5, 1.0, -0.7, 0.3), (0.0, -5.0)),
            (PowerLaw(-0.25), (1.0, 0.0, 0.3, 1.0, -0.1, 0.2), (0.0, 9.0)),
            (PowerLaw(2.0), (1.0, 0.0, 0.0, -0.0, 1.0, 0.0), (0.0, 1e4)),
            (Constant(1.0), (-1.0, 0.0, 0.5, 1.0, -0.7, -0.0), (0.0, 50.0)),
            (Constant(-1.0), (0.5, 0.2, -0.0, -0.0, 1.0, 0.3), (0.0, -50.0)),
        ],
    )
    def test_integration_gives_the_loop_bits(self, monkeypatch, chart, state, span):
        # the whole record, the stage states and the evaluations included
        got, calls = rhs_calls(monkeypatch, lambda: geo.integrate_geodesic(chart, state, span))
        monkeypatch.setattr(geo, "_dop853_step", loop_step)
        ref, ref_calls = rhs_calls(monkeypatch, lambda: geo.integrate_geodesic(chart, state, span))
        assert repr(got) == repr(ref)
        assert repr(calls) == repr(ref_calls)

    @pytest.mark.parametrize(
        "chart, state, span, terminated, nfev",
        [
            (PowerLaw(2.0), (1, 0, 0.3, -1, 0.5, 0.2), (0.0, 5.0), "hit_domain_boundary", 2877),
            (Constant(1.0), (1.0, 0.0, 0.5, 1.0, -0.7, 0.3), (0.0, 50.0), "completed_span", 2546),
            (PowerLaw(2.0), (1, 0, 0, 0, 1, 0), (0.0, 1e4), "completed_span", 110),
        ],
        ids=["boundary-hit", "completed-span", "dv-orbit"],
    )
    def test_nfev_counts_every_rhs_call(self, monkeypatch, chart, state, span, terminated, nfev):
        # every evaluation goes through the module's geodesic_rhs, the name
        # the mutation rows and the benchmark's counter patch
        res, calls = rhs_calls(monkeypatch, lambda: geo.integrate_geodesic(chart, state, span))
        assert (res.terminated, res.nfev, len(calls)) == (terminated, nfev, nfev)


class TestWorkBound:
    @pytest.mark.parametrize(
        "chart, state, span, phase",
        [
            (Constant(-1.0), (1, 0, 1, 3, 0, 0), (0.0, -2.0), 6.0),
            (Constant(0.0), (1, 0, 1, 3, 0, 0), (0.0, 50.0), 0.0),
            (PowerLaw(2.0), (1, 0, 1, 1, 0, 0), (0.0, math.e - 1), 1.5),
            # the run stops at u_min = 1e-8
            (PowerLaw(-2.5), (1, 0, 1, -1, 0, 0), (0.0, 5.0), 1.5 * math.log(1e8)),
            (PowerLaw(2.0), (1, 0, 1, 0, 1, 0), (0.0, 1e4), 0.0),
        ],
    )
    def test_transverse_phase(self, chart, state, span, phase):
        got = geo.transverse_phase(chart, state, span)
        assert got == pytest.approx(phase, rel=1e-12)

    @pytest.mark.parametrize(
        "chart, state",
        [
            (Constant(-1.0), (1, 0, 1, 1e5, 0, 0)),
            (Constant(1.0), (1, 0, 1, 1e3, 0, 0)),
            (PowerLaw(-1e6), (1, 0, 0.3, -1, 0.5, 0.2)),
            (PowerLaw(-1e10), (1, 0, 0.3, -1, 0.5, 0.2)),
        ],
    )
    def test_refused_before_any_step(self, monkeypatch, chart, state):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(geo, "solve_ivp", no_solve)
        with pytest.raises(geo.TransversePhaseTooLarge, match="work bound"):
            geo.integrate_geodesic(chart, state, (0.0, 1.0))


class TestClosedForms:
    def test_b_two_power_solution(self):
        # r+ = 2: x = t^2 solves x'' = 2 x / t^2
        for t in (0.3, 1.0, 2.5):
            assert geo.euler_basis(2.0, t)[0][0] == pytest.approx(t * t)

    def test_parabolic_boundary_sqrt_branch(self):
        for t in (0.5, 1.0, 4.0):
            f0, f1 = geo.euler_basis(-0.25, t)[0]
            assert f0 == pytest.approx(math.sqrt(t))
            assert f1 == pytest.approx(math.sqrt(t) * math.log(t))

    def test_oscillatory_branch_solves_the_equation(self):
        b = -0.5

        def second_derivative(t):
            # central difference of the analytic first derivative, with one
            # Richardson level to push truncation below the 1e-10 target
            h = 1e-5 * max(1.0, t)

            def diff(s):
                return (geo.euler_basis(b, t + s)[1][0] - geo.euler_basis(b, t - s)[1][0]) / (2 * s)

            return (4.0 * diff(h / 2) - diff(h)) / 3.0

        for t in np.linspace(0.1, 10.0, 40):
            residual = abs(second_derivative(t) - b * geo.euler_basis(b, t)[0][0] / t**2)
            assert residual < 1e-10 * max(1.0, 1.0 / t)

    @pytest.mark.parametrize("b", [2.0, 1.0, 0.0, -0.25, -0.5])
    def test_numeric_matches_fitted_solution(self, b):
        chart = PowerLaw(b)
        st_ = (1.0, 0.0, 0.4, 1.0, 0.2, -0.3)
        res = geo.integrate_geodesic(chart, st_, (0.0, 9.0), rtol=1e-12, atol=1e-14)
        x_of_u = geo.transverse_profile_in_u(chart, st_)
        gap = max(abs(row[2] - x_of_u(row[0])) for row in res.y)
        assert gap <= 1e-8

    def test_fit_reproduces_initial_conditions(self):
        # u0 = 1.5, x0 = 0.7 and dx/du = dx/dt / du/dt = -0.2
        st_ = (1.5, 0.0, 0.7, 1.0, 0.0, -0.2)
        x_of_u = geo.transverse_profile_in_u(PowerLaw(2.0), st_)
        assert x_of_u(1.5) == pytest.approx(0.7)
        h = 1e-6
        slope = (x_of_u(1.5 + h) - x_of_u(1.5 - h)) / (2 * h)
        assert slope == pytest.approx(-0.2, abs=1e-8)


class TestSampling:
    @given(st.sampled_from(["timelike", "null", "spacelike"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_families_have_requested_causal_type(self, family, seed):
        chart = PowerLaw(2.0)
        rng = np.random.default_rng(seed)
        for st_ in geo.sample_initial_conditions(chart, family, 4, rng):
            assert causal_type(chart, st_) == family

    def test_dv_orbits_are_null(self):
        chart = Constant(-1.0)
        rng = np.random.default_rng(0)
        for st_ in geo.sample_initial_conditions(chart, "dv_orbit", 3, rng):
            assert st_[3:] == (0.0, 1.0, 0.0)


class TestCompleteness:
    def test_power_law_timelike_and_null_incomplete(self):
        rep = geo.completeness_report(
            PowerLaw(2.0), families=("timelike", "null"), count=6, seed=99
        )
        for family in ("timelike", "null"):
            fam = rep["verdicts"][family]
            assert fam["verdict"] == "incomplete"
            for rec in fam["details"]:
                assert rec["affine_prediction_gap"] <= 1e-5
                assert rec["transverse_fit_gap"] <= 1e-6

    def test_dv_orbits_complete(self):
        rep = geo.completeness_report(PowerLaw(-0.5), families=("dv_orbit",), count=4, seed=1)
        assert rep["verdicts"]["dv_orbit"]["verdict"] == "complete"

    def test_spacelike_has_no_verdict(self):
        rep = geo.completeness_report(PowerLaw(2.0), families=("spacelike",), count=3, seed=2)
        assert rep["verdicts"]["spacelike"]["verdict"] == "unstated-in-paper"

    @pytest.mark.parametrize("h", [1.0, -1.0])
    def test_symmetric_models_complete(self, h):
        rep = geo.completeness_report(
            Constant(h), families=("timelike", "null"), count=4, seed=5
        )
        for family in ("timelike", "null"):
            fam = rep["verdicts"][family]
            assert fam["verdict"] == "complete"
            for rec in fam["details"]:
                assert rec["integrator_vs_closed_form_sup_rel_gap"] <= 1e-6

    @pytest.mark.parametrize("chart", [PowerLaw(2.0), Constant(1.0)])
    def test_no_verdict_without_samples(self, chart):
        with pytest.raises(ValueError):
            geo.completeness_report(chart, families=("timelike",), count=0)

    @pytest.mark.parametrize("chart", [PowerLaw(2.0), Constant(1.0)])
    def test_no_report_without_families(self, chart):
        # an empty family list once gave "verdicts": {}
        with pytest.raises(ValueError, match="no families"):
            geo.completeness_report(chart, families=(), count=1)

    @pytest.mark.parametrize("family", geo.FAMILIES)
    @pytest.mark.parametrize("chart", [PowerLaw(2.0), Constant(1.0)], ids=["PowerLaw(2)", "Constant(1)"])
    def test_report_is_the_schema_valid_payload(self, schema_validator, chart, family):
        rep = geo.completeness_report(chart, families=(family,), count=2, seed=6)
        schema_validator("geodesic_verdict", rep)
        assert list(rep["verdicts"]) == [family]

    def test_hit_records_carry_the_exact_affine_time(self):
        rep = geo.completeness_report(PowerLaw(2.0), families=geo.FAMILIES, count=4, seed=8)
        hits = [rec for fam in rep["verdicts"].values() for rec in fam["details"] if "boundary_affine_time" in rec]
        assert len(hits) == 12  # every timelike, null and spacelike sample
        for rec in hits:
            u0, du0 = rec["initial"][0], rec["initial"][3]
            assert rec["predicted_affine_time"] == (1e-8 - u0) / du0
            assert rec["affine_prediction_gap"] == abs(rec["boundary_affine_time"] - rec["predicted_affine_time"])

    def test_repeated_family_is_refused_by_name(self):
        # a repeated name once integrated twice and kept the second draw only
        with pytest.raises(ValueError, match=r"repeated families \['timelike'\]"):
            geo.completeness_report(PowerLaw(2.0), families=("timelike", "null", "timelike"), count=1)

    def test_every_record_counts_the_solver_work(self):
        for chart in (PowerLaw(2.0), Constant(-1.0)):
            rep = geo.completeness_report(chart, families=geo.FAMILIES, count=2, seed=4)
            for fam in rep["verdicts"].values():
                for rec in fam["details"]:
                    assert 1 <= rec["nsteps"] < rec["nfev"]

    def test_failed_sample_gives_no_verdict(self, monkeypatch):
        # v ~ x^2 leaves float range both ways before u reaches u_min or the
        # horizon; such a sample once counted as complete
        huge = (1.0, 0.0, 1e100, -1.0, 0.0, 0.0)
        monkeypatch.setattr(geo, "sample_initial_conditions", lambda *args: [huge])
        with pytest.raises(geo.SolutionLeftFloatRange):
            geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=1)

    def test_closed_form_disagreement_gives_no_verdict(self, monkeypatch, capsys, schema_validator):
        # with x = 0 for a closed form the verdict once read complete, on
        # gaps of 8.3e30 and 4.0e20
        monkeypatch.setattr(geo, "constant_chart_transverse", lambda chart, st: lambda t: 0.0)
        with pytest.raises(geo.EvidenceGapTooLarge, match=r"timelike sample 0 .* integrator_vs_closed_form_sup_rel_gap"):
            geo.completeness_report(Constant(1.0), ("timelike",), 2, seed=1)
        argv = ["geodesic", "--class", "CahenWallachHyperbolic", "--family", "timelike", "--count", "2", "--seed", "1"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        schema_validator("error", payload)
        assert payload["error"]["type"] == "EvidenceGapTooLarge"
        assert "closed-form transverse solution" in payload["error"]["precondition"]

    def test_fit_disagreement_gives_no_verdict(self, monkeypatch):
        monkeypatch.setattr(geo, "transverse_profile_in_u", lambda chart, st: lambda u: 0.0)
        with pytest.raises(geo.EvidenceGapTooLarge, match=r"timelike sample 0 .* transverse_fit_gap"):
            geo.completeness_report(PowerLaw(2.0), ("timelike",), 2, seed=1)

    def test_affine_disagreement_gives_no_verdict(self, monkeypatch):
        real = geo.integrate_geodesic

        def late_boundary(*args, **kwargs):
            res = real(*args, **kwargs)
            if res.boundary_time is None:
                return res
            return dataclasses.replace(res, boundary_time=res.boundary_time + 1e-3)

        monkeypatch.setattr(geo, "integrate_geodesic", late_boundary)
        with pytest.raises(geo.EvidenceGapTooLarge, match=r"null sample 0 .* affine_prediction_gap"):
            geo.completeness_report(PowerLaw(2.0), ("null",), 2, seed=1)

    def test_report_is_seed_deterministic(self):
        a = geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=3, seed=42)
        b = geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=3, seed=42)
        assert a == b
