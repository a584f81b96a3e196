"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in failure reports).

Each registered check runs inside its own test, so collection is cheap and
``--durations`` attributes time to each check."""

import pytest

from lorentz3.verify import check_names, run_check

_ACCEPTANCE = sorted(n for n in check_names() if n.startswith("acceptance-"))
_INVARIANTS = sorted(n for n in check_names() if not n.startswith("acceptance-"))


def _run(name):
    result = run_check(name)
    print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


@pytest.mark.parametrize("name", _ACCEPTANCE)
def test_acceptance_criterion(name):
    _run(name)


@pytest.mark.parametrize("name", _INVARIANTS)
def test_module_invariant(name):
    _run(name)


def test_the_registry_holds_exactly_these_checks():
    # a check leaves or joins the registry only together with this set
    assert set(check_names()) == {
        "acceptance-01-flatness-dichotomy",
        "acceptance-02-symmetry-dichotomy",
        "acceptance-03-b-invariant-correspondence",
        "acceptance-04-metric-construction",
        "acceptance-05-killing-suite",
        "acceptance-06-incompleteness",
        "acceptance-07-closed-form-geodesics",
        "acceptance-08-compact-model-verdicts",
        "acceptance-09-classification-invariance",
        "acceptance-10-sectional-blowup",
        "lie-jacobi-zero-on-families",
        "lie-normalize-idempotent",
        "metric-criteria-agree",
        "geometry-oracle-agreement",
        "geodesic-conservation-and-affine-u",
        "classifier-flags-consistent-with-geometry",
    }
