"""Closed-form derivative representations and failure witnesses."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banachdiff.diffengine import (
    TGrid,
    VerdictStatus,
    gateaux_verdict,
    norm_functional,
    one_sided_derivatives,
)
from banachdiff.errors import (
    NoDoubleMaxError,
    NotInComplementError,
    PreconditionFailedError,
)
from banachdiff.oracles import (
    LinearFunctionalRep,
    RepKind,
    apply_rep,
    coeff_rep,
    oracle_Linf,
    oracle_csup,
    oracle_l1,
    oracle_linf,
    point_mass_rep,
    signed_index_rep,
    witness_Linf,
    witness_linf,
    witness_nbv,
    zero_rep,
)
from banachdiff.topology import classify
from banachdiff.spaces import (
    Space,
    constant_fn,
    eval_norm,
    linear_combine,
    point_to_dict,
    pw_from_values,
    pw_point,
    seq_point,
    step_fn,
)

from conftest import GRID, lattice


def test_rep_kinds_police_their_fields():
    with pytest.raises(ValueError):
        signed_index_rep(0, 1.0)
    with pytest.raises(ValueError):
        signed_index_rep(1, 0.5)
    with pytest.raises(ValueError):
        coeff_rep([])
    with pytest.raises(ValueError):
        point_mass_rep(0.5, 1.0, gap=-1.0)


def test_apply_rep_matches_hand_sums():
    h = seq_point(Space.LINF_SEQ, [0.5, -1.0, 2.0])
    assert apply_rep(coeff_rep([1.0, -0.25, 0.5]), h) == 0.5 + 0.25 + 1.0
    assert apply_rep(signed_index_rep(3, -1.0), h) == -2.0
    assert apply_rep(zero_rep(), h) == 0.0
    step = step_fn(Space.LINF_R, 0.0, 1.0, 0.5, -1.0, 3.0)
    assert apply_rep(point_mass_rep(0.75, 1.0), step) == 3.0
    with pytest.raises(PreconditionFailedError):
        apply_rep(signed_index_rep(4, 1.0), h)


def test_apply_rep_refuses_a_direction_it_cannot_apply_to():
    h = seq_point(Space.LINF_SEQ, [1.0, 2.0])
    with pytest.raises(PreconditionFailedError, match="^POINT_MASS applies to function directions$"):
        apply_rep(point_mass_rep(0.5, 1.0), h)
    # 1*h_1 + 1*h_2 + 5*h_3 has no h_3 to read; it is not 3.0
    with pytest.raises(PreconditionFailedError, match="^direction has no coordinate 3$"):
        apply_rep(coeff_rep([1.0, 1.0, 5.0]), h)
    # a longer direction is read at its first coordinates
    assert apply_rep(coeff_rep([1.0, 1.0]), seq_point(Space.LINF_SEQ, [1.0, 2.0, 5.0])) == 3.0


@pytest.mark.parametrize("space", [Space.C_AB, Space.NBV_AB])
@pytest.mark.parametrize("t0", [2.0, -0.5])
def test_a_point_mass_outside_the_domain_of_its_direction_is_a_refusal(space, t0):
    h = pw_from_values(space, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(PreconditionFailedError, match=rf"^POINT_MASS at {t0} lies outside the domain \[0.0, 1.0\]$"):
        apply_rep(point_mass_rep(t0, 1.0), h)
    # the ends of the domain are in it, and LINF_R extends constantly past them
    assert apply_rep(point_mass_rep(1.0, -1.0), h) == -1.0
    h_r = pw_from_values(Space.LINF_R, [0.0, 1.0], [0.0, 1.0])
    assert apply_rep(point_mass_rep(t0, 1.0), h_r) == min(max(t0, 0.0), 1.0)


def test_sum_norm_oracle_is_the_sign_pattern():
    x = seq_point(Space.L1_SEQ, [1.0, -0.5, 2.0])
    rep = oracle_l1(x)
    assert rep.kind is RepKind.COEFF_SEQ
    assert rep.coeffs == (1.0, -1.0, 1.0)
    assert oracle_l1(seq_point(Space.L1_SEQ, [1.0, 0.0])) is None


def test_representations_are_compact_and_shared():
    signs = np.where(np.arange(64) % 3, 1.0, -1.0)
    rep = coeff_rep(signs)
    assert rep.coeffs == tuple(signs.tolist())
    assert len({id(c) for c in rep.coeffs}) == 2
    assert len({id(c) for c in coeff_rep([0.25, 0.5, 0.25, 1.0]).coeffs}) == 3
    assert not hasattr(rep, "__dict__")  # slots: a representation is a few words
    # equal but differently signed zeros stay apart, bit for bit
    zeros = coeff_rep([0.0, -0.0, 0.0])
    assert [str(c) for c in zeros.coeffs] == ["0.0", "-0.0", "0.0"]
    # equal coefficient sequences are one object; a zero of the other sign is another
    assert coeff_rep(signs) is rep is coeff_rep(signs.tolist())
    assert coeff_rep((0.0, -0.0, 0.0)) is zeros
    assert coeff_rep([0.0, 0.0, 0.0]) is not zeros and coeff_rep([-0.0, -0.0, 0.0]) is not zeros
    with pytest.raises(ValueError, match="one-dimensional"):
        coeff_rep([[1.0, 0.5]])
    # immutable coordinates and point masses without a gap are one object each
    assert signed_index_rep(3, -1.0) is signed_index_rep(3, -1)
    assert point_mass_rep(0.25, 1.0) is point_mass_rep(0.25, 1)
    assert str(point_mass_rep(-0.0, 1.0).t0) == "-0.0" and str(point_mass_rep(0.0, 1.0).t0) == "0.0"
    assert signed_index_rep(3, 1.0, gap=0.5) is not signed_index_rep(3, 1.0, gap=0.5)
    with pytest.raises(ValueError):
        signed_index_rep(0, 1.0)


def test_max_norm_oracle_requires_strict_dominance():
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5])
    rep = oracle_linf(x, 0.25)
    assert (rep.kind, rep.p, rep.sigma, rep.gap) == (RepKind.SIGNED_INDEX, 1, 1.0, 0.25)
    # margin is exactly eps: not strict, no certificate
    assert oracle_linf(seq_point(Space.LINF_SEQ, [1.0, 0.75]), 0.25) is None
    # sign travels with the dominant coordinate
    assert oracle_linf(seq_point(Space.RT, [0.5, -3.0]), 1.0).sigma == -1.0
    with pytest.raises(PreconditionFailedError):
        oracle_linf(x, 0.0)


def test_max_norm_oracle_single_coordinate():
    assert oracle_linf(seq_point(Space.RT, [0.5]), 0.25).p == 1
    assert oracle_linf(seq_point(Space.RT, [0.125]), 0.25) is None


def test_unique_peak_oracle_is_a_point_evaluation():
    f = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, -2.0, 0.0])
    rep = oracle_csup(f, 0.25)
    assert (rep.kind, rep.t0, rep.sigma) == (RepKind.POINT_MASS, 0.5, -1.0)
    assert rep.gap > 0.0
    # the certified first-order identity: removing the remainder exactly
    h = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.25, 0.125, -0.25])
    t = rep.gap / 4.0
    from banachdiff.spaces import linear_combine

    lhs = eval_norm(linear_combine(1.0, f, t, h)).value
    assert lhs - eval_norm(f).value - t * apply_rep(rep, h) == 0.0


def test_unique_peak_oracle_refuses_ties_and_flat_tops():
    tie = pw_from_values(Space.C_AB, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
    assert oracle_csup(tie, 0.125) is None
    flat = constant_fn(Space.C_AB, 0.0, 1.0, 1.0)
    assert oracle_csup(flat, 0.125) is None


def test_window_norm_oracle_rejects_edge_peaks():
    interior = pw_from_values(Space.LINF_R, [0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    assert oracle_Linf(interior, 0.25).t0 == 0.5
    edge = pw_from_values(Space.LINF_R, [0.0, 1.0], [2.0, 0.0])
    assert oracle_Linf(edge, 0.25) is None
    jumpy = step_fn(Space.LINF_R, 0.0, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(PreconditionFailedError):
        oracle_Linf(jumpy, 0.25)


def test_tie_witness_pushes_one_peak_out_one_in():
    x = seq_point(Space.LINF_SEQ, [2.0, -2.0, 1.0])
    w = witness_linf(x)
    assert w.coords.tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(NotInComplementError):
        witness_linf(seq_point(Space.LINF_SEQ, [2.0, 1.0]))
    # tie_tol widens what counts as tied
    assert witness_linf(seq_point(Space.LINF_SEQ, [2.0, 1.875]), tie_tol=0.25) is not None
    # a lone coordinate within tie_tol of 0 is pushed outward alone
    assert witness_linf(seq_point(Space.RT, [-0.5]), tie_tol=0.5).coords.tolist() == [-1.0]
    with pytest.raises(NotInComplementError):
        witness_linf(seq_point(Space.LINF_SEQ, [0.5]))


def test_tie_witness_at_the_origin_defaults_to_plus_one():
    w = witness_linf(seq_point(Space.LINF_SEQ, [0.0, 0.0]))
    assert w.coords.tolist() == [1.0, -1.0]
    assert witness_linf(seq_point(Space.LINF_SEQ, [0.0])).coords.tolist() == [1.0]


# few distinct magnitudes, so that ties and zero points are common
@given(
    st.sampled_from([Space.LINF_SEQ, Space.RT]),
    st.lists(st.integers(-3, 3).map(lambda k: k * 0.25), min_size=1, max_size=8),
)
@example(Space.LINF_SEQ, [0.0])
def test_tie_witness_exists_exactly_off_the_differentiability_set(space, coords):
    x = seq_point(space, coords)
    if classify(x).in_B:
        with pytest.raises(NotInComplementError):
            witness_linf(x)
        return
    w = witness_linf(x)
    tr = one_sided_derivatives(norm_functional(space), x, w, TGrid(t0=2.0**-4, rho=0.5, count=9))
    assert set(tr.forward_q) == {1.0} and set(tr.backward_q) == {-1.0}
    assert (tr.d_plus, tr.d_minus) == (1.0, -1.0)


def test_near_tie_witness_splits_at_the_tie_point_not_at_x():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [2.0, 1.875])
    w = witness_linf(x, 0.25)
    assert w.coords.tolist() == [1.0, -1.0]
    # the tie point x - (m/2)*w, m = 2.0 - 1.875, lies within tie_tol/2 of x
    y = seq_point(Space.LINF_SEQ, [1.9375, 1.9375])
    tr = one_sided_derivatives(f, y, w, TGrid(t0=2.0**-4, rho=0.5, count=9))
    assert set(tr.forward_q) == {1.0} and set(tr.backward_q) == {-1.0}
    # at x itself the quotients along w agree: no witness there
    assert gateaux_verdict(f, x, [w]).status is VerdictStatus.GATEAUX


@pytest.mark.parametrize(
    "coords, witness, tie_point",
    [
        ([2.0, 1.8, 1.95], [1.0, 0.0, -1.0], [1.975, 1.8, 1.975]),
        ([2.0, 1.75, 1.9375], [1.0, 0.0, -1.0], [1.96875, 1.75, 1.96875]),
        ([-2.0, 1.9375, -1.75], [-1.0, -1.0, 0.0], [-1.96875, 1.96875, -1.75]),
    ],
)
def test_near_tie_witness_pushes_the_runner_up_inward(coords, witness, tie_point):
    # the runner-up, not the first coordinate within tie_tol in index order
    x = seq_point(Space.LINF_SEQ, coords)
    w = witness_linf(x, 0.25)
    assert w.coords.tolist() == witness
    top, second = sorted(np.abs(coords))[:-3:-1]
    y = linear_combine(1.0, x, -(top - second) / 2.0, w)
    assert y.coords.tolist() == tie_point
    tr = one_sided_derivatives(norm_functional(Space.LINF_SEQ), y, w, TGrid(t0=2.0**-4, rho=0.5, count=9))
    assert set(tr.forward_q) == {1.0} and set(tr.backward_q) == {-1.0}


def test_double_peak_witness_splits_between_the_peaks():
    f = pw_from_values(
        Space.LINF_R, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 2.0, 0.0, -2.0, 0.0]
    )
    w = witness_Linf(f)
    assert w.breakpoints.tolist() == [0.5]  # midpoint of 0.25 and 0.75
    segments = point_to_dict(w)["segments"]
    assert (segments[0]["intercept"], segments[1]["intercept"]) == (1.0, 1.0)  # +sig, -(-sig)
    with pytest.raises(NoDoubleMaxError):
        witness_Linf(pw_from_values(Space.LINF_R, [0.0, 0.5, 1.0], [0.0, 2.0, 0.0]))
    with pytest.raises(NoDoubleMaxError):
        witness_Linf(constant_fn(Space.LINF_R, 0.0, 1.0, 0.0))


def test_variation_witness_is_a_fresh_unit_jump():
    f = pw_point(Space.NBV_AB, 0.0, 1.0, [0.5], [1.0, 0.0], [0.0, 2.0])
    w = witness_nbv(f)
    assert w.space is Space.NBV_AB
    assert w.breakpoints.shape == (1,)
    at = float(w.breakpoints[0])
    assert 0.0 < at < 1.0 and at != 0.5  # lands where f is continuous
    assert w.jumps().tolist() == [1.0]
    # the anchored constant has no structure but still admits the witness
    assert witness_nbv(constant_fn(Space.NBV_AB, 0.0, 1.0, 0.0)) is not None


def test_witnesses_enforce_their_space(rng):
    with pytest.raises(PreconditionFailedError):
        witness_linf(seq_point(Space.L1_SEQ, lattice(rng, -1.0, 1.0, 4)))
    with pytest.raises(PreconditionFailedError):
        witness_nbv(constant_fn(Space.C_AB, 0.0, 1.0, 0.0))


def test_representations_refuse_fields_their_kind_does_not_carry():
    with pytest.raises(ValueError, match="does not carry 'p'"):
        LinearFunctionalRep(RepKind.ZERO, p=1)
    with pytest.raises(ValueError, match="POINT_MASS needs a location"):
        LinearFunctionalRep(RepKind.POINT_MASS, sigma=1.0)


def test_a_certified_representation_reports_its_gap():
    x = seq_point(Space.LINF_SEQ, [2.0, -0.5])
    assert oracle_linf(x, 0.5).to_dict() == {"kind": "SIGNED_INDEX", "p": 1, "sigma": 1.0, "gap": 0.5}


def test_a_coordinate_representation_refuses_a_function_direction():
    with pytest.raises(PreconditionFailedError, match="applies to sequence directions"):
        apply_rep(signed_index_rep(1, 1.0), constant_fn(Space.C_AB, 0.0, 1.0, 1.0))


def test_oracle_and_witness_tolerances_must_be_usable():
    peak = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(PreconditionFailedError, match="rho must be finite and positive"):
        oracle_csup(peak, 0.0)
    with pytest.raises(PreconditionFailedError, match="tie_tol must be finite and nonnegative"):
        witness_linf(seq_point(Space.LINF_SEQ, [1.0, 1.0]), -1.0)


def test_nbv_witness_refuses_a_domain_with_no_float_off_its_breakpoints():
    # a valid point: no float lies strictly inside [1, nextafter(1, 2)], so
    # there is nowhere to place the step
    f = pw_from_values(Space.NBV_AB, [1.0, np.nextafter(1.0, 2.0)], [0.0, 0.0])
    with pytest.raises(PreconditionFailedError, match="every float strictly inside"):
        witness_nbv(f)
