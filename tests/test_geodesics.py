import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3 import geodesics as geo
from lorentz3.geometry import Constant, DomainError, PowerLaw


class TestCausalType:
    def test_parallel_field_orbit_is_null(self):
        st_ = geo.GeodesicState.of(1, 0, 0, 0, 1, 0)
        assert geo.causal_type(PowerLaw(2.0), st_) == "null"

    def test_mixed_uv_is_timelike_on_symmetry_plane(self):
        st_ = geo.GeodesicState.of(1, 0, 0, 1, -1, 0)
        for chart in (PowerLaw(2.0), Constant(1.0), Constant(0.0)):
            assert geo.causal_type(chart, st_) == "timelike"

    def test_transverse_is_spacelike(self):
        st_ = geo.GeodesicState.of(1, 0, 0, 0, 0, 1)
        assert geo.causal_type(Constant(0.0), st_) == "spacelike"


class TestRhs:
    def test_symmetry_plane_is_totally_geodesic(self):
        rhs = geo.geodesic_rhs(PowerLaw(2.0), np.array([1, 0, 0, 1, 0, 0.0]))
        assert np.array_equal(rhs[3:], [0.0, 0.0, 0.0])

    def test_minkowski_is_straight(self):
        rhs = geo.geodesic_rhs(Constant(0.0), np.array([1, 2, 3, 0.4, 0.5, 0.6]))
        assert np.array_equal(rhs[3:], [0.0, 0.0, 0.0])

    def test_transverse_acceleration(self):
        rhs = geo.geodesic_rhs(PowerLaw(2.0), np.array([1, 0, 1, 1, 0, 0.0]))
        assert rhs[5] == pytest.approx(2.0)  # x'' = H(u) x u'^2


class TestIntegration:
    def test_vertical_null_geodesic_hits_boundary_at_affine_one(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), geo.GeodesicState.of(1, 0, 0, -1, 0, 0), (0.0, 5.0)
        )
        assert res.terminated == "hit_domain_boundary"
        assert res.boundary_time == pytest.approx(1.0, abs=1e-6)
        assert res.predicted_boundary_time == pytest.approx(res.boundary_time, abs=1e-9)
        assert np.max(np.abs(res.states[:, 2])) == 0.0  # stays on {x = 0}

    def test_dv_orbit_completes_long_spans(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), geo.GeodesicState.of(1, 0, 0, 0, 1, 0), (0.0, 1e4)
        )
        assert res.terminated == "completed_span"
        assert res.times[-1] - res.times[0] == pytest.approx(1e4)

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
        st_ = geo.GeodesicState.of(1.0, 0.0, 0.5, du, -0.7, 0.3)
        res = geo.integrate_geodesic(chart, st_, (0.0, span))
        assert res.terminated == terminated
        for t, row in zip(res.times, res.states):
            assert row[0] == pytest.approx(1.0 + du * t, abs=1e-10)
        assert geo.conservation_drift(chart, st_, res) <= 1e-8

    def test_backward_integration(self):
        chart = PowerLaw(2.0)
        st_ = geo.GeodesicState.of(1.0, 0.0, 0.0, 1.0, -1.0, 0.0)  # timelike, u grows forward
        res = geo.integrate_geodesic(chart, st_, (0.0, -5.0))
        assert res.terminated == "hit_domain_boundary"
        assert res.boundary_time == pytest.approx(-1.0, abs=1e-6)

    def test_initial_point_must_be_in_domain(self):
        with pytest.raises(DomainError):
            geo.integrate_geodesic(
                PowerLaw(2.0), geo.GeodesicState.of(-1, 0, 0, 0, 1, 0), (0.0, 1.0)
            )

    def test_boundary_hit_work_is_under_half_of_rk45(self):
        # RK45 at the same rtol/atol needed 8210 evaluations and 1368 steps
        # for this run, because x ~ 1/u as u -> u_min
        rk45_nfev = 8210
        res = geo.integrate_geodesic(
            PowerLaw(2.0), geo.GeodesicState.of(1, 0, 0.3, -1, 0.5, 0.2), (0.0, 5.0)
        )
        assert res.terminated == "hit_domain_boundary"
        assert res.nfev < rk45_nfev / 2
        assert 1 <= len(res.times) - 1 < res.nfev

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_integration_raises(self):
        # x grows like cosh(t) from 1e30: v ~ x^2 overflows near t = 284,
        # inside the phase bound; no truncated trajectory comes back
        with pytest.raises(geo.SolutionLeftFloatRange, match="left float range"):
            geo.integrate_geodesic(
                Constant(1.0), geo.GeodesicState.of(1, 0, 1e30, 1, 0, 0), (0.0, 290.0)
            )


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
        got = geo.transverse_phase(chart, geo.GeodesicState.of(*state), span)
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
            geo.integrate_geodesic(chart, geo.GeodesicState.of(*state), (0.0, 1.0))


class TestClosedForms:
    def test_b_two_power_solution(self):
        # r+ = 2: x = t^2 solves x'' = 2 x / t^2
        for t in (0.3, 1.0, 2.5):
            assert geo.closed_form_x(2.0, t, 0) == pytest.approx(t * t)

    def test_parabolic_boundary_sqrt_branch(self):
        for t in (0.5, 1.0, 4.0):
            assert geo.closed_form_x(-0.25, t, 0) == pytest.approx(math.sqrt(t))
            assert geo.closed_form_x(-0.25, t, 1) == pytest.approx(math.sqrt(t) * math.log(t))

    def test_oscillatory_branch_solves_the_equation(self):
        b = -0.5

        def second_derivative(t):
            # central difference of the analytic first derivative, with one
            # Richardson level to push truncation below the 1e-10 target
            h = 1e-5 * max(1.0, t)

            def diff(s):
                return (
                    geo.closed_form_x_derivative(b, t + s, 0)
                    - geo.closed_form_x_derivative(b, t - s, 0)
                ) / (2 * s)

            return (4.0 * diff(h / 2) - diff(h)) / 3.0

        for t in np.linspace(0.1, 10.0, 40):
            residual = abs(second_derivative(t) - b * geo.closed_form_x(b, t, 0) / t**2)
            assert residual < 1e-10 * max(1.0, 1.0 / t)

    @pytest.mark.parametrize("b", [2.0, 1.0, 0.0, -0.25, -0.5])
    def test_numeric_matches_fitted_solution(self, b):
        chart = PowerLaw(b)
        st_ = geo.GeodesicState.of(1.0, 0.0, 0.4, 1.0, 0.2, -0.3)
        res = geo.integrate_geodesic(chart, st_, (0.0, 9.0), rtol=1e-12, atol=1e-14)
        x_of_u = geo.transverse_profile_in_u(chart, st_)
        gap = max(abs(row[2] - x_of_u(row[0])) for row in res.states)
        assert gap <= 1e-8

    def test_fit_reproduces_initial_conditions(self):
        coeffs, x_of_t = geo.fit_transverse_solution(2.0, 1.5, 0.7, -0.2)
        assert x_of_t(1.5) == pytest.approx(0.7)
        h = 1e-6
        slope = (x_of_t(1.5 + h) - x_of_t(1.5 - h)) / (2 * h)
        assert slope == pytest.approx(-0.2, abs=1e-8)


class TestSampling:
    @given(st.sampled_from(["timelike", "null", "spacelike"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_families_have_requested_causal_type(self, family, seed):
        chart = PowerLaw(2.0)
        rng = np.random.default_rng(seed)
        for st_ in geo.sample_initial_conditions(chart, family, 4, rng):
            assert geo.causal_type(chart, st_) == family

    def test_dv_orbits_are_null(self):
        chart = Constant(-1.0)
        rng = np.random.default_rng(0)
        for st_ in geo.sample_initial_conditions(chart, "dv_orbit", 3, rng):
            assert st_.velocity == (0.0, 1.0, 0.0)


class TestCompleteness:
    def test_power_law_timelike_and_null_incomplete(self):
        rep = geo.completeness_report(
            PowerLaw(2.0), families=("timelike", "null"), count=6, seed=99
        )
        for family in ("timelike", "null"):
            fam = rep.verdicts[family]
            assert fam.verdict == "incomplete"
            for rec in fam.details:
                assert rec["affine_prediction_gap"] <= 1e-5
                assert rec["transverse_fit_gap"] <= 1e-6

    def test_dv_orbits_complete(self):
        rep = geo.completeness_report(PowerLaw(-0.5), families=("dv_orbit",), count=4, seed=1)
        assert rep.verdicts["dv_orbit"].verdict == "complete"

    def test_spacelike_has_no_verdict(self):
        rep = geo.completeness_report(PowerLaw(2.0), families=("spacelike",), count=3, seed=2)
        assert rep.verdicts["spacelike"].verdict == "unstated-in-paper"

    @pytest.mark.parametrize("h", [1.0, -1.0])
    def test_symmetric_models_complete(self, h):
        rep = geo.completeness_report(
            Constant(h), families=("timelike", "null"), count=4, seed=5
        )
        for family in ("timelike", "null"):
            fam = rep.verdicts[family]
            assert fam.verdict == "complete"
            for rec in fam.details:
                assert rec["integrator_vs_closed_form_sup_rel_gap"] <= 1e-6

    @pytest.mark.parametrize("chart", [PowerLaw(2.0), Constant(1.0)])
    def test_no_verdict_without_samples(self, chart):
        with pytest.raises(ValueError):
            geo.completeness_report(chart, families=("timelike",), count=0)

    def test_every_record_counts_the_solver_work(self):
        for chart in (PowerLaw(2.0), Constant(-1.0)):
            rep = geo.completeness_report(chart, families=geo.FAMILIES, count=2, seed=4)
            for fam in rep.verdicts.values():
                for rec in fam.details:
                    assert 1 <= rec["nsteps"] < rec["nfev"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_sample_gives_no_verdict(self, monkeypatch):
        # v ~ x^2 leaves float range both ways before u reaches u_min or the
        # horizon; such a sample once counted as complete
        huge = geo.GeodesicState.of(1.0, 0.0, 1e100, -1.0, 0.0, 0.0)
        monkeypatch.setattr(geo, "sample_initial_conditions", lambda *args: [huge])
        with pytest.raises(geo.SolutionLeftFloatRange):
            geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=1)

    def test_report_is_seed_deterministic(self):
        a = geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=3, seed=42)
        b = geo.completeness_report(PowerLaw(2.0), families=("timelike",), count=3, seed=42)
        assert a.to_json() == b.to_json()


class TestBoost:
    def test_boost_state_is_isometric(self):
        chart = PowerLaw(2.0)
        st_ = geo.GeodesicState.of(1.0, 0.2, 0.4, 1.0, -0.3, 0.5)
        before = geo.velocity_norm_sq(chart, st_)
        after = geo.velocity_norm_sq(chart, geo.boost_state(1.3, st_))
        assert after == pytest.approx(before, rel=1e-12)
