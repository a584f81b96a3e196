import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz3 import cli
from lorentz3.cli import main
from lorentz3.lie_core import Derivation


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
            (("classify", "--alpha", "inf"), "OverflowError"),
            (("survey", "--b-grid", "inf"), "OverflowError"),
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
            # a span with equal ends once printed the initial row twice
            (("geodesic", "--b", "2", "--init", "1,0,0,1,0,0", "--span", "0"), "ValueError"),
            (("geodesic", "--class", "CahenWallachElliptic", "--init", "1,0,0,1,0,0", "--span", "-0"), "ValueError"),
            (("geodesic", "--b", "2", "--family", "foo"), "ValueError"),
            (("geodesic", "--b", "2", "--family", ","), "ValueError"),
            # a repeated family once integrated twice and kept the second draw
            (("geodesic", "--b", "2", "--family", "timelike,timelike", "--count", "1"), "ValueError"),
            (("geodesic", "--class", "CahenWallachElliptic", "--family", "null,dv_orbit,null"), "ValueError"),
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
        # b itself has no float value: the message blames the flag, not u
        b_overflows = {
            ("curvature", "--alpha", "1e200", "--point", "1,0,0"): "--alpha 1e200",
            ("transform", "--alpha", "1e200"): "--alpha 1e200",
            ("transform", "--alpha", "1e200", "--verify-grid", "3"): "--alpha 1e200",
            ("classify", "--b", "1e400"): "--b 1e400",
            ("geodesic", "--b", "1e400", "--family", "timelike"): "--b 1e400",
            ("survey", "--b-grid", "1e400"): "--b-grid 1e400",
            # b underflows to 0.0: a curved class would carry a flat chart
            ("classify", "--b", "1e-400"): "--b 1e-400",
            ("curvature", "--b", "1e-400", "--point", "1,0,0"): "--b 1e-400",
            ("classify", "--alpha", "1e-400"): "--alpha 1e-400",
            ("survey", "--b-grid", "1e-400"): "--b-grid 1e-400",
            # b = -det(A-bar)/tr(A-bar)^2 is 1e400, then 1e-400
            ("classify", "--derivation", json.dumps([["1e-200", "0", "0"], ["0", "1e-200", "1"], ["0", "1", "0"]])): "--derivation",
            ("classify", "--derivation", json.dumps([["1e200", "0", "0"], ["0", "1e200", "1"], ["0", "1", "0"]])): "--derivation",
        }
        cases += [(argv, "OverflowError") for argv in b_overflows]
        # no verdict rests on an empty sample: a count below 1 is refused
        # where its flag is parsed, and the message names the flag
        empty_samples = {
            ("curvature", "--b", "2", "--grid", "0,2,2:1..2,-1..1,-1..1"): "--grid",
            ("curvature", "--b", "2", "--grid", "2,2,-1:1..2,-1..1,-1..1"): "--grid",
            ("survey", "--b-grid", "1..2:0"): "--b-grid",
            ("survey", "--b-grid", "1..2:-3"): "--b-grid",
            ("survey", "--json", "--b-grid", "1..2:0"): "--b-grid",
            ("transform", "--alpha", "-1", "--verify-grid", "0"): "--verify-grid",
            ("transform", "--alpha", "-1", "--verify-grid", "-1"): "--verify-grid",
            ("geodesic", "--b", "2", "--family", "timelike", "--count", "0"): "--count",
            ("geodesic", "--class", "CahenWallachElliptic", "--family", "null", "--count", "-2"): "--count",
        }
        cases += [(argv, "ValueError") for argv in empty_samples]
        # a negative seed is refused by name, not with numpy's message
        bad_seeds = {
            ("geodesic", "--b", "2", "--family", "timelike", "--count", "1", "--seed", "-1"): "--seed -1",
            ("geodesic", "--b", "-1/2", "--family", "null,dv_orbit", "--seed", "-12345"): "--seed -12345",
        }
        cases += [(argv, "ValueError") for argv in bad_seeds]
        # the profile or the metric leaves the float range: the message
        # names the first such point, on either side of u's range
        float_range = {
            ("curvature", "--b", "2", "--point", "1e200,0,0"): ("ProfileNotFinite", "at u = 1e+200"),
            ("curvature", "--alpha", "2", "--grid", "1,1,1:1e120..1e120,0..0,0..0"): ("ProfileNotFinite", "at u = 1e+120"),
            ("geodesic", "--b", "2", "--init", "1e200,0,0,1,0,0"): ("ProfileNotFinite", "at u = 1e+200"),
            # H x^2 overflows; a NaN Killing residual must not read 0.0
            ("curvature", "--b", "2", "--grid", "1,1,2:1..1,0.5..0.5,1e200..1e155"): (
                "MetricNotFinite", "(1.0, 0.5, 1e+200)"),
            ("curvature", "--b", "2", "--grid", "1,1,3:1..1,0..0,1..1e200"): ("MetricNotFinite", "(1.0, 0.0, 5e+199)"),
            ("curvature", "--b", "2", "--point", "1,0,1e200"): ("MetricNotFinite", "(1.0, 0.0, 1e+200)"),
            # g_uu = H x^2 is finite, H'(u) x^2 is not
            ("curvature", "--b", "2", "--point", "1,0,9e153"): ("MetricNotFinite", "(1.0, 0.0, 9e+153)"),
        }
        cases += [(argv, error_type) for argv, (error_type, _) in float_range.items()]
        for argv, error_type in cases:
            code, out = run_cli(capsys, *argv)
            assert code == 1, argv
            payload = json.loads(out)
            schema_validator("error", payload)
            assert payload["error"]["type"] == error_type, argv
            if argv in zero_denominators:
                message = payload["error"]["message"]
                assert f"{zero_denominators[argv]!r} has a zero denominator" in message, argv
            if argv in b_overflows:
                message = payload["error"]["message"]
                assert message.startswith(f"{b_overflows[argv]}: b"), argv
                assert message.endswith("does not fit in a float"), argv
                assert "u =" not in message and "inf" not in message, argv
            if argv in empty_samples:
                message = payload["error"]["message"]
                assert message.startswith(f"{empty_samples[argv]} count = "), argv
                assert message.endswith("a sample needs at least one point"), argv
            if argv in bad_seeds:
                message = payload["error"]["message"]
                assert message.startswith(f"{bad_seeds[argv]}: "), argv
                assert "non-negative" in message, argv
            if error_type == "ProfileNotFinite":
                assert "far enough from 0, and small enough" in payload["error"]["precondition"], argv
                assert "leave the float range" in payload["error"]["message"], argv
                assert "too close to 0" not in payload["error"]["message"], argv
            if error_type == "MetricNotFinite":
                assert "leave the float range" in payload["error"]["message"], argv
            if argv in float_range:
                assert payload["error"]["message"].endswith(float_range[argv][1]), argv
            if error_type == "OutputNotWritable":
                assert "--out" in payload["error"]["precondition"], argv

    def test_output_is_deterministic(self, capsys):
        _, first = run_cli(capsys, "classify", "--b", "-1/2")
        _, second = run_cli(capsys, "classify", "--b", "-1/2")
        assert first == second


def _derivation_json(d) -> str:
    return json.dumps(d.to_json())


# class -> (a derivation of it, rescaled, and its other sources)
_SOURCES_OF_EACH_CLASS = {
    "MinkowskiFlat": (Derivation.nilpotent().scaled(3), [("--class", "MinkowskiFlat")]),
    "HalfMinkowskiFlat": (
        Derivation.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]).scaled(-2),
        [("--b", "0"), ("--alpha", "1"), ("--class", "HalfMinkowskiFlat")],
    ),
    "CahenWallachHyperbolic": (
        Derivation.cw_hyperbolic().scaled(Fraction(1, 2)),
        [("--class", "CahenWallachHyperbolic")],
    ),
    "CahenWallachElliptic": (Derivation.cw_elliptic().scaled(5), [("--class", "CahenWallachElliptic")]),
    "NonUnimodularHyperbolic": (Derivation.canonical(2).scaled(-3), [("--b", "2"), ("--alpha", "-1")]),
    # no real alpha has alpha^2 - alpha < -1/4
    "NonUnimodularElliptic": (Derivation.canonical(Fraction(-7, 3)).scaled(2), [("--b", "-7/3")]),
    "NonUnimodularParabolic": (
        Derivation.canonical(Fraction(-1, 4)).scaled(Fraction(1, 3)),
        [("--b", "-1/4"), ("--alpha", "1/2")],
    ),
}


class TestInputSourcesAgree:
    @pytest.mark.parametrize("klass", sorted(_SOURCES_OF_EACH_CLASS))
    def test_classify_agrees_on_every_source(self, capsys, schema_validator, klass):
        d, others = _SOURCES_OF_EACH_CLASS[klass]
        reports = []
        for source in [("--derivation", _derivation_json(d)), *others]:
            code, out = run_cli(capsys, "classify", *source)
            assert code == 0, source
            payload = json.loads(out)
            schema_validator("space_report", payload)
            assert payload["normalization"]["rationalized_input"] is False, source
            reports.append({k: payload[k] for k in ("class", "b", "flags", "brinkmann_chart")})
        assert reports[0]["class"] == klass
        assert all(rep == reports[0] for rep in reports), reports

    @pytest.mark.parametrize("klass", sorted(_SOURCES_OF_EACH_CLASS))
    def test_chart_commands_print_the_same_for_a_derivation(self, capsys, klass):
        # curvature and geodesic look the chart up from the class alone
        d, others = _SOURCES_OF_EACH_CLASS[klass]
        chart_source = next(s for s in others if s[0] != "--alpha")
        for command in (
            ("curvature", "--grid", "2,1,2:0.5..1.5,0..0,-1..1"),
            ("curvature", "--point", "1,0.5,-0.5"),
            ("geodesic", "--init", "1,0,0.5,0.5,0,0.2", "--span", "2"),
        ):
            via_class = run_cli(capsys, command[0], *chart_source, *command[1:])
            via_derivation = run_cli(capsys, command[0], "--derivation", _derivation_json(d), *command[1:])
            assert via_class[0] == 0, command
            assert via_derivation == via_class, command


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

    # source flags, the closed forms (|R|, |del R|) at u, and |h| on the
    # Cahen-Wallach charts, where the boost is no Killing field
    SWEEPS = {
        "b=-1/2": (("--b", "-1/2"), lambda u: (0.5 / u**2, 1.0 / u**3), None),
        "b=2": (("--b", "2"), lambda u: (2.0 / u**2, 4.0 / u**3), None),
        "Minkowski": (("--class", "MinkowskiFlat"), lambda u: (0.0, 0.0), None),
        "CW-hyperbolic": (("--class", "CahenWallachHyperbolic"), lambda u: (1.0, 0.0), 1.0),
        "CW-elliptic": (("--class", "CahenWallachElliptic"), lambda u: (1.0, 0.0), 1.0),
        # Rosen: delta(u) |b|/u^2 and 2 delta(u) |b|/u^3, delta = u^(2 alpha), b = alpha^2 - alpha
        "alpha=-1": (("--alpha", "-1"), lambda u: (u**-2 * 2.0 / u**2, u**-2 * 4.0 / u**3), None),
        "alpha=1/3": (
            ("--alpha", "1/3"),
            lambda u: (u ** (2 / 3) * (2 / 9) / u**2, u ** (2 / 3) * (4 / 9) / u**3),
            None,
        ),
    }

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_rows_match_point_reports_and_closed_forms(self, capsys, name):
        source, closed, h = self.SWEEPS[name]
        code, out = run_cli(capsys, "curvature", *source, "--grid", "3,2,3:0.5..2,-1..1,-1..1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 3 * 2 * 3
        for row in rows:
            u, _, x, max_r, max_nabla, k_dv, k_extra = map(float, row)
            code, out = run_cli(capsys, "curvature", *source, "--point", ",".join(row[:3]))
            assert code == 0
            report = json.loads(out)
            assert max_r == report["max_abs_riemann"], row
            assert max_nabla == max(report["nabla_R_norms"].values()), row
            r_closed, nabla_closed = closed(u)
            assert math.isclose(max_r, r_closed, rel_tol=1e-12, abs_tol=0.0), row
            assert math.isclose(max_nabla, nabla_closed, rel_tol=1e-12, abs_tol=0.0), row
            assert k_dv == 0.0, row
            if h is None:
                assert k_extra <= 1e-9, row
            else:
                assert k_extra == 2 * h * x * x, row

    @pytest.mark.parametrize(
        "source", [("--b", "2"), ("--alpha", "1/2"), ("--class", "CahenWallachHyperbolic")], ids=" ".join
    )
    def test_one_point_sweep_is_the_point_report(self, capsys, source):
        code, out = run_cli(capsys, "curvature", *source, "--grid", "1,1,1:1.3..7,-0.25..9,0.75..9")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        assert header[:3] == ["u", "v", "x"] and row[:3] == ["1.3", "-0.25", "0.75"]
        code, out = run_cli(capsys, "curvature", *source, "--point", "1.3,-0.25,0.75")
        report = json.loads(out)
        assert float(row[3]) == report["max_abs_riemann"]
        assert float(row[4]) == report["nabla_R_norms"]["u"]
        assert float(row[5]) == 0.0

    def test_grid_help_names_every_column(self, capsys):
        with pytest.raises(SystemExit):
            main(["curvature", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for column in ("max_abs_R", "max_nabla_R", "killing_residual_dv", "killing_residual_extra"):
            assert column in text, column
        assert "max over directions of |del R|" in text
        assert "boost" in text and "Heisenberg shear" in text

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

    def test_flat_half_space_has_no_profile_limit(self, capsys, schema_validator):
        # PowerLaw(0): u*u underflows at u = 1e-200, but H(u) is 0 at every u
        code, out = run_cli(capsys, "curvature", "--class", "HalfMinkowskiFlat", "--point", "1e-200,0,0")
        assert code == 0
        payload = json.loads(out)
        schema_validator("curvature_report", payload)
        assert payload["max_abs_riemann"] == 0.0

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

    def test_flat_half_space_has_no_profile_limit(self, capsys):
        # PowerLaw(0): u**3 overflows at u = 1e155, but H'(u) is 0 at every u
        code, out = run_cli(
            capsys, "geodesic", "--class", "HalfMinkowskiFlat", "--init", "1e155,0,0,1,0,0", "--span", "1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "u", "v", "x", "du", "dv", "dx", "vel_norm_sq"]
        assert [float(c) for c in rows[-1]] == [1.0, 1e155, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

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

    def test_help_bounds_the_error_of_vel_norm_sq(self, capsys):
        with pytest.raises(SystemExit):
            main(["geodesic", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "absolute error of its vel_norm_sq" in text
        assert "scales with its largest term (|2 du dv|, |H x^2 du^2|, dx^2)" in text

    def test_requires_exactly_one_mode(self, capsys):
        for modes in ((), ("--init", "1,0,0,1,0,0", "--family", "timelike")):
            with pytest.raises(SystemExit) as excinfo:
                main(["geodesic", "--b", "2", *modes])
            assert excinfo.value.code == 2, modes

    def test_flags_of_the_other_mode_are_usage_errors(self, capsys):
        # each was once ignored, with exit 0
        for argv, flag, mode in (
            (("--family", "dv_orbit", "--count", "1", "--span", "3"), "--span", "--family"),
            (("--init", "1,0,0,1,0,0", "--span", "1", "--count", "3"), "--count", "--init"),
            (("--init", "1,0,0,1,0,0", "--seed", "3"), "--seed", "--init"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["geodesic", "--b", "2", *argv])
            assert excinfo.value.code == 2, argv
            assert f"argument {flag}: not allowed with argument {mode}" in capsys.readouterr().err, argv


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

    @pytest.mark.parametrize(
        "argv", [("verify", "--suite", "geometry"), ("verify", "--suite", "metric", "--json")]
    )
    def test_text_output_is_the_same_on_every_run(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == 0
        assert first == second

    def test_details_carry_no_elapsed_time(self):
        from lorentz3.verify import run_check

        result = run_check("acceptance-06-incompleteness")
        assert result.passed, result.detail
        assert not re.search(r"\d\s*s\b", result.detail), result.detail

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
    # sample counts, empty and negative among them
    st.tuples(
        st.sampled_from(FIXED_CHARTS),
        st.lists(st.integers(-2, 4), min_size=3, max_size=3),
        st.lists(st.tuples(hostile_number, hostile_number), min_size=3, max_size=3),
    ).map(
        lambda t: [
            "curvature", *t[0], "--grid",
            ",".join(map(str, t[1])) + ":" + ",".join(f"{lo}..{hi}" for lo, hi in t[2]),
        ]
    ),
    st.tuples(hostile_number, hostile_number, st.integers(-2, 4), st.booleans()).map(
        lambda t: ["survey", "--b-grid", f"{t[0]}..{t[1]}:{t[2]}"] + (["--json"] if t[3] else [])
    ),
    st.tuples(st.sampled_from(["-1", "1/3", "2"]), st.integers(-2, 3)).map(
        lambda t: ["transform", "--alpha", t[0], "--verify-grid", str(t[1])]
    ),
    # family sample counts and seeds, negative among them
    st.tuples(st.sampled_from(GEODESIC_CHARTS), st.integers(-2, 2), st.integers(-3, 3)).map(
        lambda t: ["geodesic", *t[0], "--family", "dv_orbit", "--count", str(t[1]), "--seed", str(t[2])]
    ),
    st.tuples(st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**70))).map(
        lambda t: ["geodesic", "--b", "2", "--family", "null", "--count", "1", "--seed", str(t[0])]
    ),
)


def _data_rows(argv, text):
    if "--json" in argv:
        return json.loads(text)["entries"]
    return list(csv.reader(io.StringIO(text)))[1:]


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
        if code == 0 and ("--grid" in argv or argv[0] == "survey"):
            assert _data_rows(argv, out.getvalue()), argv
        if code == 1 and "--seed" in argv:  # a refused count or seed names its flag
            opts = dict(zip(argv[1::2], argv[2::2]))
            message = json.loads(out.getvalue())["error"]["message"]
            if int(opts["--count"]) < 1:
                assert message.startswith("--count count = "), argv
            elif int(opts["--seed"]) < 0:
                assert message.startswith(f"--seed {opts['--seed']}: "), argv


class TestOneParserPerProcess:
    # success, usage error (exit 2), --help (exit 0) and domain error
    # (exit 1), interleaved so each call follows a different outcome
    SEQUENCE = [
        ("classify", "--b", "2"),
        ("curvature", "--b", "-1/2", "--point", "1,0,0.5"),
        ("classify",),
        ("curvature", "--class", "CahenWallachElliptic", "--point", "0.3,0,1"),
        ("classify", "--help"),
        ("classify", "--alpha", "1/2"),
        ("classify", "--b", "inf"),
        ("curvature", "--b", "2", "--point", "1,0,0", "--grid", "2,2,2:1..2,-1..1,-1..1"),
        ("classify", "--b", "2"),
    ]

    @staticmethod
    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def fresh_interpreter(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "lorentz3", *argv],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_repeated_calls_print_what_a_fresh_process_prints(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at the same width
        results = [self.in_process(argv) for argv in self.SEQUENCE]
        assert [r[0] for r in results] == [0, 0, 2, 0, 0, 0, 1, 2, 0]
        for argv, result in zip(self.SEQUENCE, results):
            assert result == self.fresh_interpreter(argv), argv

    def test_closed_pipe_exits_one_without_a_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lorentz3", "classify", "--b", "2"],
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_one_parser_tree_serves_every_call(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        one_tree = len(built)  # the top-level parser and its subcommands
        built.clear()
        for argv in self.SEQUENCE * 2:
            self.in_process(argv)
        assert len(built) <= one_tree, f"{len(built)} parsers built, one tree has {one_tree}"
