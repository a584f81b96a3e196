import dataclasses
import json
import math

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
    def test_symmetry_plane_is_totally_geodesic(self):
        rhs = geo.geodesic_rhs(PowerLaw(2.0), np.array([1, 0, 0, 1, 0, 0.0]))
        assert np.array_equal(rhs[3:], [0.0, 0.0, 0.0])

    def test_minkowski_is_straight(self):
        rhs = geo.geodesic_rhs(Constant(0.0), np.array([1, 2, 3, 0.4, 0.5, 0.6]))
        assert np.array_equal(rhs[3:], [0.0, 0.0, 0.0])

    def test_transverse_acceleration(self):
        rhs = geo.geodesic_rhs(PowerLaw(2.0), np.array([1, 0, 1, 1, 0, 0.0]))
        assert rhs[5] == pytest.approx(2.0)  # x'' = H(u) x u'^2

    @staticmethod
    def rhs_in_numpy_scalars(chart, y):
        u, _, x, du, dv, dx = (np.float64(c) for c in y)
        h = chart.h(u)
        acc_v = -0.5 * chart.dh(u) * x * x * du * du - 2.0 * h * x * du * dx
        return np.array([du, dv, dx, 0.0, acc_v, h * x * du * du])

    def test_profile_poles_give_what_numpy_gives(self):
        # Python raises where b/u^2 divides by zero and where u**3 leaves
        # float range; numpy gives inf, nan or 0.0, and so must the RHS
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for chart in (PowerLaw(2.0), PowerLaw(-0.5), PowerLaw(0.0), Constant(1.0)):
                for u in (0.0, -0.0, 1e-120, 1e200, -1e200, 0.7):
                    y = np.array([u, 0.3, 0.7, -1.2, 0.4, 0.9])
                    rhs = geo.geodesic_rhs(chart, y)
                    expected = self.rhs_in_numpy_scalars(chart, y)
                    assert np.array_equal(rhs, expected, equal_nan=True), (chart, u)
                    assert np.array_equal(np.signbit(rhs), np.signbit(expected)), (chart, u)
            at_zero = geo.geodesic_rhs(PowerLaw(2.0), np.array([0.0, 0.3, 0.7, -1.2, 0.4, 0.9]))
        assert not np.isfinite(at_zero[3:]).all()


class TestIntegration:
    def test_vertical_null_geodesic_hits_boundary_at_affine_one(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), (1, 0, 0, -1, 0, 0), (0.0, 5.0)
        )
        assert res.terminated == "hit_domain_boundary"
        assert res.boundary_time == pytest.approx(1.0, abs=1e-6)
        assert res.boundary_time == pytest.approx(1.0 - geo.DEFAULT_U_MIN, abs=1e-9)  # u(t) = 1 - t
        assert np.max(np.abs(res.states[:, 2])) == 0.0  # stays on {x = 0}

    def test_dv_orbit_completes_long_spans(self):
        res = geo.integrate_geodesic(
            PowerLaw(2.0), (1, 0, 0, 0, 1, 0), (0.0, 1e4)
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
        st_ = (1.0, 0.0, 0.5, du, -0.7, 0.3)
        res = geo.integrate_geodesic(chart, st_, (0.0, span))
        assert res.terminated == terminated
        for t, row in zip(res.times, res.states):
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
            assert np.array_equal(res.times, first.times) and np.array_equal(res.states, first.states)
            assert (res.terminated, res.nfev, res.boundary_time) == (first.terminated, first.nfev, first.boundary_time)
            assert res.csv_rows(chart) == first.csv_rows(chart)
        for bad in (state[:5], list(state) + [0.0], np.array(state[:5])):
            with pytest.raises(ValueError, match=f"has {len(bad)} entries, not the six"):
                geo.integrate_geodesic(chart, bad, (0.0, 5.0))

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
        assert 1 <= len(res.times) - 1 < res.nfev

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_integration_raises(self):
        # x grows like cosh(t) from 1e30: v ~ x^2 overflows near t = 284,
        # inside the phase bound; no truncated trajectory comes back
        with pytest.raises(geo.SolutionLeftFloatRange, match="left float range"):
            geo.integrate_geodesic(
                Constant(1.0), (1, 0, 1e30, 1, 0, 0), (0.0, 290.0)
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
        gap = max(abs(row[2] - x_of_u(row[0])) for row in res.states)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
