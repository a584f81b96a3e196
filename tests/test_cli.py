import csv
import io
import json

import pytest

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
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--b", "2", "--alpha", "1"])
        assert excinfo.value.code == 2

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
        ]
        for argv, error_type in cases:
            code, out = run_cli(capsys, *argv)
            assert code == 1, argv
            payload = json.loads(out)
            schema_validator("error", payload)
            assert payload["error"]["type"] == error_type, argv

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

    def test_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["geodesic", "--b", "2"])
        assert excinfo.value.code == 2


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

    def test_tolerance_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LORENTZ3_TOL", "1e-3")
        from lorentz3.verify import oracle_tolerance

        assert oracle_tolerance() == 1e-3
        assert oracle_tolerance(1e-8) == 1e-8
