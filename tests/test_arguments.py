"""The two argument rules: every real argument passes ``errors._real`` and
every point argument of a fixed space passes ``spaces._expect``, so an
unusable argument of any type is a PreconditionFailedError that names it."""

import math
import numbers
import re

import numpy as np
import pytest

from banachdiff.diffengine import (
    TGrid,
    directional_quotient,
    frechet_verdict,
    gateaux_verdict,
    local_lipschitz_estimate,
    norm_functional,
    one_sided_derivatives,
)
from banachdiff.errors import NonpositiveVarianceError, PreconditionFailedError
from banachdiff.gaussmeasure import (
    GaussianSpec,
    b2_tie_probability_oracle,
    estimate_nondiff_measures,
    standard_normal_spec,
)
from banachdiff.oracles import oracle_csup, oracle_l1, oracle_Linf, oracle_linf, witness_linf
from banachdiff.projective import (
    lipschitz_factor_check,
    make_cylinder,
    make_truncation_system,
    wseries_eval,
    wseries_functional,
)
from banachdiff.spaces import Space, pw_from_values, seq_point
from banachdiff.topology import ball_check_linf, classify, densify_csup, densify_l1, densify_linf

_L1 = seq_point(Space.L1_SEQ, [1.0, 1.0])
_LINF = seq_point(Space.LINF_SEQ, [3.0, 1.0])
_TIE = seq_point(Space.LINF_SEQ, [2.0, 2.0])
_E1 = seq_point(Space.LINF_SEQ, [1.0, 0.0])
_RT = seq_point(Space.RT, [1.0, -2.0, 3.0, 0.5])
_TENT = pw_from_values(Space.C_AB, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
_TENT_R = pw_from_values(Space.LINF_R, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
_TWO_PEAKS = pw_from_values(Space.C_AB, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
_GRID = TGrid(t0=2.0**-4, rho=0.5, count=9)
_CYLINDER, _SYSTEM = make_cylinder("wseries_partial", 2), make_truncation_system([2, 4])

# entry -> (argument name, call of the argument, a valid float, a valid int
# or None, a value out of range)
_REAL_ARGUMENTS = {
    "one_sided_derivatives-tol": (
        "tol", lambda v: one_sided_derivatives(norm_functional(Space.L1_SEQ), _L1, _L1, _GRID, v), 1e-9, 1, 0.0,
    ),
    "gateaux_verdict-tol": (
        "tol", lambda v: gateaux_verdict(norm_functional(Space.L1_SEQ), _L1, [_L1], _GRID, v), 1e-9, 1, -1.0,
    ),
    "frechet_verdict-tol": (
        "tol",
        lambda v: frechet_verdict(norm_functional(Space.LINF_SEQ), _LINF, oracle_linf(_LINF, 1.0), [_E1], [0.25], v),
        1e-9, 1, 0.0,
    ),
    "frechet_verdict-radii": (
        "radii",
        lambda v: frechet_verdict(norm_functional(Space.LINF_SEQ), _LINF, oracle_linf(_LINF, 1.0), [_E1], [4.0, v]),
        0.25, 1, 0.0,
    ),
    "local_lipschitz_estimate-radius": (
        "radius", lambda v: local_lipschitz_estimate(norm_functional(Space.L1_SEQ), _L1, v, 8, seed=1), 0.5, 1, 0.0,
    ),
    "lipschitz_factor_check-radius": (
        "radius",
        lambda v: lipschitz_factor_check(_CYLINDER, _SYSTEM, _RT, v, 8, 1),
        0.5, 1, -0.5,
    ),
    "oracle_linf-eps": ("eps", lambda v: oracle_linf(_LINF, v), 0.5, 1, 0.0),
    "densify_l1-eps": ("eps", lambda v: densify_l1(seq_point(Space.L1_SEQ, [1.0, 0.0]), v), 0.5, 1, 0.0),
    "densify_linf-eps": ("eps", lambda v: densify_linf(_TIE, v), 0.5, 1, -0.5),
    "densify_csup-eps": ("eps", lambda v: densify_csup(_TWO_PEAKS, v), 0.5, 1, 0.0),
    "classify-eps": ("eps", lambda v: classify(_LINF, v), 0.5, 1, -0.5),
    "oracle_csup-rho": ("rho", lambda v: oracle_csup(_TENT, v), 0.25, 1, 0.0),
    "oracle_Linf-rho": ("rho", lambda v: oracle_Linf(_TENT_R, v), 0.25, 1, -0.25),
    "witness_linf-tie_tol": ("tie_tol", lambda v: witness_linf(_TIE, v), 0.25, 1, -0.25),
    "GaussianSpec-r": ("r", lambda v: GaussianSpec(r=v), 2.5, 2, 0.0),
    "b2_tie_probability_oracle-delta": (
        "delta", lambda v: b2_tie_probability_oracle(standard_normal_spec(2), v), 0.25, 1, -0.25,
    ),
    "estimate_nondiff_measures-delta": (
        "delta", lambda v: estimate_nondiff_measures(standard_normal_spec(2), 2, [0.0, v], 1000, 1), 0.25, 1, -0.25,
    ),
    "TGrid-t0": ("t0", lambda v: TGrid(t0=v, rho=0.5, count=9), 0.0625, 1, 0.0),
    "TGrid-rho": ("rho", lambda v: TGrid(t0=0.0625, rho=v, count=9), 0.5, None, -0.5),
    "GaussianSpec-variances": ("variances", lambda v: GaussianSpec(variances=(1.0, v), law=None), 2.5, 2, -1.0),
    "directional_quotient-t": (
        "t", lambda v: directional_quotient(norm_functional(Space.L1_SEQ), _L1, _L1, v), 0.25, 1, 0.0,
    ),
}

_BAD = {
    "str": "0.1",
    "none": None,
    "bool": True,
    "array": np.array([0.1, 0.2]),
    "nan": math.nan,
    "inf": math.inf,
}


@pytest.mark.parametrize(
    "entry, label",
    [pytest.param(e, label, id=f"{e}-{label}") for e in _REAL_ARGUMENTS for label in [*_BAD, "out-of-range"]],
)
def test_an_unusable_real_argument_is_a_precondition_failure_that_names_it(entry, label):
    name, call, _, _, out_of_range = _REAL_ARGUMENTS[entry]
    value = out_of_range if label == "out-of-range" else _BAD[label]
    # a variance of nan or below zero keeps its own error type
    nonpositive = entry == "GaussianSpec-variances" and label in ("nan", "out-of-range")
    with pytest.raises(NonpositiveVarianceError if nonpositive else PreconditionFailedError) as err:
        call(value)
    message = str(err.value)
    assert re.match(rf"(explicit )?{name} must be ", message), message
    if message.startswith(f"{name} must be finite and"):
        assert set(err.value.context) == {name}


@pytest.mark.parametrize("rho, count", [(1.0, 9), (0.5, 2)])
def test_a_grid_keeps_its_own_message_for_rho_from_one_up_and_too_few_steps(rho, count):
    with pytest.raises(PreconditionFailedError, match=r"^need finite t0 > 0, rho in \(0,1\), count >= 3$"):
        TGrid(t0=0.0625, rho=rho, count=count)


def _bits(result) -> str:
    """A result as it reads bit for bit: a number as its float's hex, which
    keeps -0.0 and nan payloads apart, anything else as its repr, in which
    every float round-trips."""
    if isinstance(result, numbers.Real):
        return float(result).hex()
    return repr(result)


@pytest.mark.parametrize("entry", list(_REAL_ARGUMENTS))
def test_numpy_numbers_are_read_as_the_plain_float(entry):
    _, call, valid, whole, _ = _REAL_ARGUMENTS[entry]
    assert _bits(call(np.float64(valid))) == _bits(call(valid))
    if whole is not None:
        assert _bits(call(np.int64(whole))) == _bits(call(float(whole)))


# the space checks that moved to spaces._expect: call -> (the spaces it
# names, the space it gets, or the type of an argument that is no point)
_POINT_CHECKS = {
    "oracle_l1-None": (lambda: oracle_l1(None), "L1_SEQ", "NoneType"),
    "densify_l1-list": (lambda: densify_l1([0.0, 1.0], 0.5), "L1_SEQ", "list"),
    "classify-list": (lambda: classify([1.0, 2.0]), "L1_SEQ, LINF_SEQ, RT, C_AB, LINF_R, NBV_AB", "list"),
    "densify_l1": (lambda: densify_l1(_LINF, 0.5), "L1_SEQ", "LINF_SEQ"),
    "densify_linf": (lambda: densify_linf(_L1, 0.5), "LINF_SEQ, RT", "L1_SEQ"),
    "densify_csup": (lambda: densify_csup(_TENT_R, 0.5), "C_AB", "LINF_R"),
    "ball_check_linf": (lambda: ball_check_linf(_L1, 0.5, 4, 1), "LINF_SEQ, RT", "L1_SEQ"),
    "project": (lambda: _SYSTEM.project(2, _TENT), "L1_SEQ, LINF_SEQ, RT", "C_AB"),
    "wseries_eval": (lambda: wseries_eval(_TENT), "L1_SEQ, LINF_SEQ, RT", "C_AB"),
    "wseries_batch": (lambda: wseries_functional().batch(_TENT, _TENT, [0.5]), "L1_SEQ, LINF_SEQ, RT", "C_AB"),
}


@pytest.mark.parametrize("entry", list(_POINT_CHECKS))
def test_a_point_of_another_space_is_a_precondition_failure(entry):
    call, names, got = _POINT_CHECKS[entry]
    with pytest.raises(PreconditionFailedError) as err:
        call()
    assert str(err.value) == f"expected a point of {names}, got {got}"
