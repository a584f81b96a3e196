import contextlib
import csv
import io
import json
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_b_input(self, capsys, schema_validator):
        code, out = run_cli(capsys, "classify", "--b", "2")
        assert code == 0
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert payload["class"] == "NonUnimodularHyperbolic"
        assert payload["flags"]["compact_model"] is True

    def test_alpha_input_maps_through_b(self, capsys, schema_validator):
        code, out = run_cli(capsys, "classify", "--alpha", "1/2")
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert code == 0
        assert payload["class"] == "NonUnimodularParabolic"
        assert payload["b"] == "-1/4"

    def test_named_class(self, capsys, schema_validator):
        code, out = run_cli(capsys, "classify", "--class", "CahenWallachElliptic")
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert payload["flags"]["symmetric"] is True
        assert payload["flags"]["transverse_3d_group"] is False

    def test_derivation_from_file(self, capsys, tmp_path, schema_validator):
        path = tmp_path / "derivation.json"
        path.write_text(json.dumps([["2", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]]))
        code, out = run_cli(capsys, "classify", "--derivation", str(path))
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert payload["class"] == "NonUnimodularParabolic"
        assert payload["invariant_metric"]["gram"][0][2] == "-1"

    def test_derivation_longer_than_a_file_name(self, capsys):
        # the text is probed as a path first; a name past the OS limit must
        # read as JSON, not raise
        matrix = json.dumps([["2", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]])
        plain = run_cli(capsys, "classify", "--derivation", matrix)
        padded = run_cli(capsys, "classify", "--derivation", matrix + " " * 300)
        assert plain[0] == 0
        assert padded == plain

    def test_decimal_string_is_exact(self, capsys, schema_validator):
        code, out = run_cli(capsys, "classify", "--b", "0.1")
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert payload["b"] == "1/10"
        assert payload["normalization"]["rationalized_input"] is False

    def test_json_float_is_rationalized_and_recorded(self, capsys, schema_validator):
        # JSON numbers arrive as binary floats; 0.1 snaps to 1/10 and the
        # report records that it happened
        matrix = json.dumps([[1.1, 0, 0], [0, 1, 0], [0, 0, 0.1]])
        code, out = run_cli(capsys, "classify", "--derivation", matrix)
        assert code == 0
        payload = json.loads(out)
        schema_validator("space_report", payload)
        assert payload["normalization"]["rationalized_input"] is True

    def test_exactly_one_source_required(self, capsys):
        for sources in ((), ("--b", "2", "--alpha", "1")):
            with pytest.raises(SystemExit) as excinfo:
                main(["classify", *sources])
            assert excinfo.value.code == 2, sources

    def test_math_error_gives_json_and_exit_one(self, capsys, schema_validator):
        homothety = json.dumps([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        cases = [
            (("classify", "--derivation", homothety), "NoInvariantMetric"),
            (("classify", "--derivation", "5"), "ValueError"),
            (("classify", "--derivation", "[1,2,3]"), "ValueError"),
            (("classify", "--derivation", "[[true,0,0],[0,1,0],[0,0,0]]"), "ValueError"),
            (("classify", "--derivation", "[[null,0,0],[0,1,0],[0,0,0]]"), "ValueError"),
            (("classify", "--derivation", "[[1e400,0,0],[0,1,0],[0,0,0]]"), "OverflowError"),
            (("classify", "--b", "inf"), "OverflowError"),
            (("classify", "--b", "1e400"), "OverflowError"),
            (("classify", "--alpha", "inf"), "OverflowError"),
            (("survey", "--b-grid", "inf"), "OverflowError"),
            (("geodesic", "--b", "2", "--family", "timelike", "--count", "0"), "ValueError"),
            # u*u underflows to 0; u**3 underflows and H'(u) is inf
            (("curvature", "--b", "2", "--point", "1e-200,0,0"), "ProfileNotFinite"),
            (("curvature", "--b", "2", "--point", "1e-105,0,1"), "ProfileNotFinite"),
            (("geodesic", "--b", "2", "--init", "1e-200,0,0,1,0,0"), "ProfileNotFinite"),
            # delta(u)^2 underflows in H(u); u**(-2) overflows
            (("curvature", "--alpha", "1", "--point", "1e-100,0,1"), "ProfileNotFinite"),
            (("curvature", "--alpha", "-1", "--point", "1e-200,0,1"), "ProfileNotFinite"),
            (("curvature", "--alpha", "1", "--grid", "2,1,1:1e-100..1,0..0,0..0"), "ProfileNotFinite"),
            # a start below the boundary level u_min = 1e-8 never crosses it
            (("geodesic", "--b", "2", "--init", "1e-100,0,1,1,0,0"), "ValueError"),
            # a span that never ends
            (("geodesic", "--class", "CahenWallachHyperbolic", "--init", "0,0,0,1,0,0", "--span", "inf"), "ValueError"),
            (("geodesic", "--b", "2", "--init", "1,0,0,1,0,0", "--span", "nan"), "ValueError"),
            (("geodesic", "--b", "2", "--family", "foo"), "ValueError"),
            (("geodesic", "--b", "2", "--family", ","), "ValueError"),
            (("classify", "--b", "2", "--out", "/nonexistent/dir/x.json"), "OutputNotWritable"),
        ]
        # a zero denominator is a malformed number in every position, and
        # the message names the text
        zero_denominators = {
            argv: bad
            for bad in ("1/0", "0/0")
            for argv in (
                ("classify", "--b", bad),
                ("classify", "--alpha", bad),
                ("survey", "--b-grid", f"{bad}..2:3"),
                ("classify", "--derivation", json.dumps([[bad, "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])),
                ("curvature", "--b", "2", "--point", f"1,{bad},0"),
                ("curvature", "--b", "2", "--grid", f"2,2,2:1..2,{bad}..1,-1..1"),
                ("geodesic", "--b", "2", "--init", f"{bad},0,0,1,0,0"),
            )
        }
        cases += [(argv, "ValueError") for argv in zero_denominators]
        for argv, error_type in cases:
            code, out = run_cli(capsys, *argv)
            assert code == 1, argv
            payload = json.loads(out)
            schema_validator("error", payload)
            assert payload["error"]["type"] == error_type, argv
            if argv in zero_denominators:
                message = payload["error"]["message"]
                assert f"{zero_denominators[argv]!r} has a zero denominator" in message, argv
            if error_type == "ProfileNotFinite":
                assert "far enough from 0" in payload["error"]["precondition"], argv
            if error_type == "OutputNotWritable":
                assert "--out" in payload["error"]["precondition"], argv

    def test_output_is_deterministic(self, capsys):
        _, first = run_cli(capsys, "classify", "--b", "-1/2")
        _, second = run_cli(capsys, "classify", "--b", "-1/2")
        assert first == second


class TestCurvature:
    def test_point_report(self, capsys, schema_validator):
        code, out = run_cli(capsys, "curvature", "--b", "2", "--point", "1,0,0")
        assert code == 0
        payload = json.loads(out)
        schema_validator("curvature_report", payload)
        assert payload["max_abs_riemann"] == pytest.approx(2.0)
        assert payload["scalar"] == pytest.approx(0.0, abs=1e-12)

    def test_grid_sweep_csv(self, capsys):
        code, out = run_cli(
            capsys, "curvature", "--b", "-1/2", "--grid", "3,2,3:0.5..2,-1..1,-1..1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "u", "v", "x", "max_abs_R", "max_nabla_R",
            "killing_residual_dv", "killing_residual_extra",
        ]
        assert len(rows) == 1 + 3 * 2 * 3
        assert all(float(r[5]) == 0.0 for r in rows[1:])

    def test_rosen_chart_grid(self, capsys):
        code, out = run_cli(
            capsys, "curvature", "--alpha", "-1", "--grid", "2,2,2:1..2,0..1,0..1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 9

    def test_requires_exactly_one_mode(self, capsys):
        for modes in ((), ("--point", "1,0,0", "--grid", "2,2,2:1..2,0..1,0..1")):
            with pytest.raises(SystemExit) as excinfo:
                main(["curvature", "--b", "2", *modes])
            assert excinfo.value.code == 2, modes

    def test_domain_error(self, capsys, schema_validator):
        code, out = run_cli(capsys, "curvature", "--b", "2", "--point", "-1,0,0")
        assert code == 1
        payload = json.loads(out)
        schema_validator("error", payload)
        assert payload["error"]["type"] == "DomainError"


class TestGeodesic:
    def test_trajectory_csv(self, capsys):
        code, out = run_cli(
            capsys, "geodesic", "--b", "2", "--init", "1,0,0,-1,0,0", "--span", "5"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "u", "v", "x", "du", "dv", "dx", "vel_norm_sq"]
        last = [float(c) for c in rows[-1]]
        assert last[0] == pytest.approx(1.0, abs=1e-6)  # boundary at affine time 1

    def test_family_verdict_json(self, capsys, schema_validator):
        code, out = run_cli(
            capsys,
            "geodesic", "--b", "2", "--family", "timelike,dv_orbit",
            "--count", "4", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        schema_validator("geodesic_verdict", payload)
        assert payload["verdicts"]["timelike"]["verdict"] == "incomplete"
        assert payload["verdicts"]["dv_orbit"]["verdict"] == "complete"
        assert payload["seed"] == 7

    def test_seeded_runs_are_identical(self, capsys):
        args = ["geodesic", "--b", "-1/2", "--family", "timelike", "--count", "3", "--seed", "11"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_every_family_record_counts_the_solver_work(self, capsys, schema_validator):
        for source in (("--b", "2"), ("--class", "CahenWallachElliptic")):
            code, out = run_cli(
                capsys, "geodesic", *source, "--family", "timelike,null,dv_orbit,spacelike",
                "--count", "2", "--seed", "3",
            )
            assert code == 0, source
            payload = json.loads(out)
            schema_validator("geodesic_verdict", payload)
            for family in payload["verdicts"].values():
                for rec in family["details"]:
                    assert 1 <= rec["nsteps"] < rec["nfev"], source

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_integration_gives_no_verdict_or_trajectory(self, capsys, schema_validator):
        cases = [
            # x ~ u^-19.5 towards u -> 0: the phase bound refuses the run;
            # both families once read "complete"
            (("--b", "400", "--family", "timelike,null", "--count", "2"), "TransversePhaseTooLarge"),
            # once 12,515 rows that stopped at t = 0.347 of span 1
            (("--class", "CahenWallachHyperbolic", "--init", "1,0,1,1e3,0,0", "--span", "1"), "TransversePhaseTooLarge"),
            # within the phase bound, v ~ x^2 overflows near t = 284
            (("--class", "CahenWallachHyperbolic", "--init", "1,0,1e30,1,0,0", "--span", "290"), "SolutionLeftFloatRange"),
            (("--b", "2", "--init", "1,0,1e140,-1,0,0", "--span", "5"), "SolutionLeftFloatRange"),
        ]
        for argv, error_type in cases:
            code, out = run_cli(capsys, "geodesic", *argv)
            assert code == 1, argv
            assert "complete" not in out and not out.startswith("t,u,v"), argv
            payload = json.loads(out)
            schema_validator("error", payload)
            assert payload["error"]["type"] == error_type, argv

    def test_unbounded_work_is_refused_within_a_second(self, capsys):
        from lorentz3 import geodesics  # noqa: F401  (scipy loads before the clock)

        def expire(signum, frame):
            raise TimeoutError("still running after 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        try:
            for argv in (
                ("--class", "CahenWallachElliptic", "--init", "1,0,1,1e5,0,0", "--span", "1"),
                ("--b", "-1e10", "--family", "timelike", "--count", "1"),
            ):
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                try:
                    code, out = run_cli(capsys, "geodesic", *argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                assert code == 1, argv
                assert json.loads(out)["error"]["type"] == "TransversePhaseTooLarge", argv
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_help_says_rows_are_solver_steps(self, capsys):
        with pytest.raises(SystemExit):
            main(["geodesic", "--help"])
        assert "one row per accepted solver step" in " ".join(capsys.readouterr().out.split())

    def test_requires_exactly_one_mode(self, capsys):
        for modes in ((), ("--init", "1,0,0,1,0,0", "--family", "timelike")):
            with pytest.raises(SystemExit) as excinfo:
                main(["geodesic", "--b", "2", *modes])
            assert excinfo.value.code == 2, modes


class TestRemovedKnobs:
    def test_strictness_flags_are_usage_errors(self, capsys):
        # no flag sets how strict a check or a verdict is
        for argv in (
            ("verify", "--tol", "1"),
            ("transform", "--alpha", "-1", "--tol", "1"),
            ("geodesic", "--b", "2", "--family", "timelike", "--horizon", "0.001"),
            ("geodesic", "--b", "2", "--family", "dv_orbit", "--count", "1", "--horizon", "inf"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(list(argv))
            assert excinfo.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv


class TestTransform:
    def test_alpha_minus_one(self, capsys, schema_validator):
        code, out = run_cli(capsys, "transform", "--alpha", "-1", "--verify-grid", "5")
        assert code == 0
        payload = json.loads(out)
        schema_validator("transform_report", payload)
        assert payload["b"] == pytest.approx(2.0)
        assert payload["pullback_residual"] <= 1e-9
        assert payload["roundtrip_residual"] <= 1e-12

    def test_half_exponent(self, capsys, schema_validator):
        code, out = run_cli(capsys, "transform", "--alpha", "1/2")
        payload = json.loads(out)
        schema_validator("transform_report", payload)
        assert payload["b"] == pytest.approx(-0.25)


class TestSurvey:
    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "survey", "--b-grid", "2,1,-1/4,-1/2,0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 6
        by_b = {r[0]: r for r in rows[1:]}
        assert by_b["2"][1] == "NonUnimodularHyperbolic"
        assert by_b["2"][6] == "True"  # compact_model column
        assert by_b["-1/2"][1] == "NonUnimodularElliptic"

    def test_json_with_range(self, capsys, schema_validator):
        code, out = run_cli(capsys, "survey", "--b-grid", "-1..1:9", "--json")
        payload = json.loads(out)
        schema_validator("survey", payload)
        assert len(payload["entries"]) == 9
        assert payload["entries"][0]["b"] == "-1"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "survey.csv"
        code, _ = run_cli(capsys, "survey", "--b-grid", "2", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("b,class")


class TestVerify:
    def test_lie_suite_passes(self, capsys, schema_validator):
        code, out = run_cli(capsys, "verify", "--suite", "lie", "--json")
        assert code == 0
        payload = json.loads(out)
        schema_validator("verify_report", payload)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_text_output_has_one_line_per_check(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "metric")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 2
        assert all(l.startswith("PASS") for l in lines)

    def test_oracle_tolerance_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("LORENTZ3_TOL", "inf")
        from lorentz3.verify import run_check

        result = run_check("geometry-oracle-agreement")
        assert result.passed
        assert result.detail.endswith("(tol 1e-06)"), result.detail


# Hostile number spellings: non-finite, signed zeros, past the float range,
# below it, huge and tiny exact rationals, and text that is no number.
HOSTILE_NUMBERS = [
    "inf", "-inf", "nan", "0", "-0", "+0", "-0.0", "1e400", "-1e400", "1e-400",
    "1e-200", "1e-100", "1e-8", "1" + "0" * 400, "-1/1" + "0" * 400, "1/0", "0/0",
    "", " ", "abc", "0x10", "1..2", "--", "-",
]
hostile_number = st.one_of(
    st.sampled_from(HOSTILE_NUMBERS),
    st.fractions().map(str),
    st.floats().map(repr),
)


def number_list(element, length):
    return st.one_of(
        st.lists(element, min_size=length, max_size=length),
        st.lists(element, max_size=length + 2),  # wrong arity, empty
    ).map(",".join)


def _derivation_text(entries):
    # exact, so the derivation law holds and huge or tiny rationals reach
    # the classifier: [[a+d, p, q], [0, a, b], [0, c, d]] in basis (Z, X, Y)
    a, b, c, d, p, q = entries
    return json.dumps([[str(a + d), str(p), str(q)], ["0", str(a), str(b)], ["0", str(c), str(d)]])


exact_entry = st.one_of(
    st.fractions(),
    st.sampled_from([Fraction(10**400), Fraction(1, 10**400), Fraction(-(10**300), 7)]),
)
json_matrix = st.one_of(
    st.lists(exact_entry, min_size=6, max_size=6).map(_derivation_text),
    st.lists(
        st.lists(
            st.one_of(
                st.floats(),
                st.integers(),
                st.sampled_from(HOSTILE_NUMBERS),
                st.none(),
                st.booleans(),
            ),
            max_size=4,
        ),
        max_size=4,
    ).map(json.dumps),
    st.sampled_from(["", "[", "{}", "[[]]", "[1,2,3]", "[[NaN,0,0],[0,1,0],[0,0,0]]"]),
)

FIXED_CHARTS = [("--b", "2"), ("--alpha", "-1"), ("--alpha", "1"), ("--class", "CahenWallachElliptic")]
FAMILY_NAMES = ["timelike", "null", "dv_orbit", "spacelike", "", "foo", " null", "NULL"]
GEODESIC_CHARTS = [("--b", "2"), ("--class", "CahenWallachElliptic"), ("--class", "CahenWallachHyperbolic")]

hostile_argv = st.one_of(
    # the chart source, on its own and behind a fixed curvature point
    st.tuples(
        st.sampled_from(["classify", "curvature"]),
        st.sampled_from(["--derivation", "--b", "--alpha", "--class"]),
        st.one_of(hostile_number, json_matrix, st.text(max_size=20)),
    ).map(
        lambda t: [t[0], t[1], t[2]] + (["--point", "1,0,0.5"] if t[0] == "curvature" else [])
    ),
    st.tuples(st.sampled_from(FIXED_CHARTS), number_list(hostile_number, 3)).map(
        lambda t: ["curvature", *t[0], "--point", t[1]]
    ),
    # the work bound refuses a run whose cost would grow with |du| up front
    st.tuples(st.sampled_from(GEODESIC_CHARTS), number_list(hostile_number, 6)).map(
        lambda t: ["geodesic", *t[0], "--init", t[1], "--span", "1"]
    ),
    st.one_of(
        st.lists(st.sampled_from(FAMILY_NAMES), max_size=3).map(",".join),
        st.text(max_size=12),
    ).map(lambda f: ["geodesic", "--class", "CahenWallachHyperbolic", "--family", f, "--count", "1"]),
)


class TestErrorContract:
    @settings(max_examples=150, deadline=None)
    @given(argv=hostile_argv)
    def test_hostile_values_keep_the_exit_contract(self, schema_validator, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code in (0, 1, 2), argv
        if code == 1:
            schema_validator("error", json.loads(out.getvalue()))
