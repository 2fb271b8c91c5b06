"""Acceptance gate: every numbered criterion must pass at its stated bar.

The full suite runs once per session; each test then checks one
criterion and prints its one-line summary (visible with -s or in the
captured output), so a failing criterion shows both the assertion and
the counts behind it.
"""

import pytest

from banachdiff import acceptance
from banachdiff._rng import philox_gen
from banachdiff.acceptance import BASE_SEED, CriterionResult, _seq_direction, run_all
from banachdiff.spaces import Space, constant_fn, linear_combine, step_fn


@pytest.fixture(scope="module")
def results():
    return run_all(BASE_SEED)


@pytest.mark.parametrize("number", range(1, 12))
def test_criterion_passes(results, number):
    result = results[number - 1]
    print(result.line())
    assert result.number == number
    assert result.passed, result.line()


def test_every_criterion_is_covered(results):
    assert [r.number for r in results] == list(range(1, 12))


def test_a_criterion_reports_itself_as_a_dict():
    result = CriterionResult(3, "witness exactness", True, "300 witnesses", 1.23456)
    assert result.to_dict() == {
        "number": 3,
        "name": "witness exactness",
        "passed": True,
        "detail": "300 witnesses",
        "elapsed_seconds": 1.235,
    }


def test_a_sampled_zero_direction_is_replaced_by_a_coordinate_vector():
    # seed 334 draws the lattice value 0 for a one-coordinate direction
    assert philox_gen(334).integers(-64, 64, endpoint=True) == 0
    assert _seq_direction(philox_gen(334), Space.L1_SEQ, 1).coords.tolist() == [1.0]


def test_a_family_whose_witness_fails_is_counted(monkeypatch):
    # the zero step is no witness anywhere: every NBV point fails, no other
    monkeypatch.setattr(acceptance, "witness_nbv", lambda f: step_fn(Space.NBV_AB, 0.0, 1.0, 0.5, 0.0, 0.0))
    result = acceptance.criterion_3(BASE_SEED)
    assert not result.passed
    assert result.detail == "300 witnesses, 100 with inexact quotients"


def test_a_family_whose_densifier_fails_is_counted(monkeypatch):
    # shifted by the constant 1, every repaired C_AB point is farther than eps <= 1/2
    densify = acceptance.densify_csup
    one = constant_fn(Space.C_AB, 0.0, 1.0, 1.0)
    monkeypatch.setattr(acceptance, "densify_csup", lambda f, eps: linear_combine(1.0, densify(f, eps), 1.0, one))
    result = acceptance.criterion_5(BASE_SEED)
    assert not result.passed
    assert result.detail == "3000 (x, eps) pairs, 1000 failures"
