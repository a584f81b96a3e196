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


def test_every_acceptance_criterion_is_present():
    assert len(_ACCEPTANCE) == 10
