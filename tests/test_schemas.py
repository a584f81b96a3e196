import copy
import json
import re
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, ValidationError

import lorentz3
from lorentz3.classifier import space_report
from lorentz3.geometry import PowerLaw, curvature_report
from lorentz3.lie_core import Derivation
from lorentz3.verify import check_names

SCHEMA_DIR = Path(lorentz3.__file__).parent / "schemas"


def test_every_shipped_schema_is_valid_and_self_contained():
    paths = sorted(SCHEMA_DIR.glob("*.schema.json"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        Draft202012Validator.check_schema(json.loads(text))
        assert "$ref" not in text, path.name


@pytest.fixture
def report():
    # built from a derivation, so the report carries its invariant metric
    return space_report(Derivation.parabolic())


def test_invariant_metric_rejects_an_extra_key_and_a_missing_gram(schema_validator, report):
    extra = copy.deepcopy(report)
    extra["invariant_metric"]["kappa"] = "1"
    with pytest.raises(ValidationError):
        schema_validator("space_report", extra)
    missing = copy.deepcopy(report)
    del missing["invariant_metric"]["gram"]
    with pytest.raises(ValidationError):
        schema_validator("space_report", missing)


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("invariant_metric", "basis", ["T", "Yprime", "Z"]),
        ("invariant_metric", "scale_alpha", "1"),
        ("invariant_metric", "shift_beta_normalized_to_zero", True),
        ("normalization", "beta_normalized_to_zero", True),
        ("brinkmann_chart", "domain", "u > 0"),
    ],
)
def test_constant_keys_are_gone_and_refused(schema_validator, report, block, key, value):
    # each was the same for every input; the schema's descriptions state it
    assert key not in report[block]
    stale = copy.deepcopy(report)
    stale[block][key] = value
    with pytest.raises(ValidationError, match="Additional properties"):
        schema_validator("space_report", stale)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda r: r["normalization"].pop("rationalized_input"),
        lambda r: r["invariant_metric"].pop("isotropy_generator"),
        lambda r: r["invariant_metric"].update(signature={"plus": 1, "minus": 2, "zero": 0}),
        lambda r: r["invariant_metric"].update(signature={"plus": 2, "minus": 1}),
    ],
    ids=["no-rationalized-input", "no-isotropy-generator", "signature-1-2-0", "signature-without-zero"],
)
def test_always_printed_fields_are_required(schema_validator, report, spoil):
    schema_validator("space_report", report)
    spoil(report)
    with pytest.raises(ValidationError):
        schema_validator("space_report", report)


# a verify check's name, as a schema description spells it
CHECK_NAME = re.compile(r"\b(?:acceptance|lie|metric|geometry|geodesic|classifier)-[a-z0-9-]*[a-z0-9]")


def _descriptions(node):
    if isinstance(node, dict):
        if isinstance(node.get("description"), str):
            yield node["description"]
        for child in node.values():
            yield from _descriptions(child)
    elif isinstance(node, list):
        for child in node:
            yield from _descriptions(child)


def _space_report_schema():
    return json.loads((SCHEMA_DIR / "space_report.schema.json").read_text(encoding="utf-8"))


def test_signature_names_the_checks_that_compute_it():
    schema = _space_report_schema()
    text = schema["properties"]["invariant_metric"]["properties"]["signature"]["description"]
    assert "acceptance-04-metric-construction" in text and "acceptance-04-metric-construction" in check_names()
    test_source = (Path(__file__).parent / "test_metric_builder.py").read_text(encoding="utf-8")
    assert "test_signature_and_skew_on_random_admissible_data" in text
    assert "def test_signature_and_skew_on_random_admissible_data" in test_source
    # and every check that any shipped description names is registered
    named = {
        name
        for path in sorted(SCHEMA_DIR.glob("*.schema.json"))
        for text in _descriptions(json.loads(path.read_text(encoding="utf-8")))
        for name in CHECK_NAME.findall(text)
    }
    assert "acceptance-04-metric-construction" in named
    assert named <= set(check_names()), sorted(named - set(check_names()))


def test_every_flag_names_its_check_or_says_it_has_none():
    flags = _space_report_schema()["properties"]["flags"]["properties"]
    unchecked = set()
    for flag, prop in flags.items():
        names = CHECK_NAME.findall(prop["description"])
        if not names:
            assert "No verify check compares this flag" in prop["description"], flag
            unchecked.add(flag)
    # shrink this set as checks land; a flag may not lose its check silently
    assert unchecked == {"complete"}


def test_retired_fields_are_refused(schema_validator):
    # symmetry_residual was 0 by construction; elapsed_seconds differed between runs
    curvature = curvature_report(PowerLaw(2.0), (1.0, 0.0, 0.0))
    check = {"name": "lie-normalize-idempotent", "suite": "lie", "passed": True, "detail": "-"}
    verify = {"suite": "lie", "passed": True, "checks": [check]}
    for schema, payload, block, key in (
        ("curvature_report", curvature, curvature, "symmetry_residual"),
        ("verify_report", verify, check, "elapsed_seconds"),
    ):
        schema_validator(schema, payload)
        block[key] = 0.0
        with pytest.raises(ValidationError, match="Additional properties"):
            schema_validator(schema, payload)


@pytest.mark.parametrize("b, ok", [(None, True), ("-1/4", True), (2, False), (-0.25, False), ("b", False)])
def test_b_is_null_or_an_exact_rational_string(schema_validator, report, b, ok):
    report["b"] = b
    if ok:
        schema_validator("space_report", report)
    else:
        with pytest.raises(ValidationError):
            schema_validator("space_report", report)


def test_every_required_key_is_declared():
    # a required key missing from "properties" is a typo that no
    # additionalProperties: false ever lets a payload satisfy
    def walk(node, where):
        if isinstance(node, dict):
            for key in node.get("required", []):
                assert key in node.get("properties", {}), (where, key)
            for key, child in node.items():
                walk(child, f"{where}/{key}")
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, f"{where}/{i}")

    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        walk(json.loads(path.read_text(encoding="utf-8")), path.name)


def _verdict_with(field, value):
    record = {"initial": [1.0, 0.0, 0.0, -1.0, 0.0, 0.0], "nfev": 12, "nsteps": 2, field: value}
    family = {"verdict": "incomplete", "evidence": "-", "count": 1, "details": [record]}
    return {"chart": "PowerLaw(b=2.0)", "seed": 1, "affine_horizon": 1e4, "verdicts": {"timelike": family}}


@pytest.mark.parametrize("field", ["predicted_affine_time", "affine_prediction_gap", "transverse_fit_gap"])
def test_verdict_gaps_are_numbers(schema_validator, field):
    # the three fields appear only in the record of a boundary hit, where each is defined
    for value in (0.5, 0):
        schema_validator("geodesic_verdict", _verdict_with(field, value))
    for value in (None, "0.5", True, [0.5]):
        with pytest.raises(ValidationError):
            schema_validator("geodesic_verdict", _verdict_with(field, value))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda p: p["verdicts"].update(lightlike=p["verdicts"]["timelike"]),
        lambda p: p["verdicts"].clear(),
        lambda p: p["verdicts"]["timelike"].update(count=0),
        lambda p: p["verdicts"]["timelike"].update(details=[]),
    ],
    ids=["unknown-family", "empty-verdicts", "count-0", "empty-details"],
)
def test_no_verdict_rests_on_nothing(schema_validator, spoil):
    payload = _verdict_with("transverse_fit_gap", 0.0)
    schema_validator("geodesic_verdict", payload)
    spoil(payload)
    with pytest.raises(ValidationError):
        schema_validator("geodesic_verdict", payload)
