"""Membership classification, repair maps, and the open-ball check."""

import numpy as np
import pytest

from banachdiff.errors import PreconditionFailedError
from banachdiff.spaces import (
    Space,
    constant_fn,
    eval_norm,
    pw_from_values,
    seq_point,
    subtract,
)
from banachdiff.topology import (
    MembershipReport,
    ball_check_linf,
    classify,
    densify_csup,
    densify_l1,
    densify_linf,
)

from conftest import GRID, lattice, midpoint_knots


def test_classify_sum_norm_needs_all_coordinates_signed():
    rep = classify(seq_point(Space.L1_SEQ, [1.0, -0.5, 0.25]))
    assert rep.in_B and rep.p_or_t0 == 3 and rep.gap == 0.25
    rep = classify(seq_point(Space.L1_SEQ, [1.0, 0.0]))
    assert not rep.in_B and rep.p_or_t0 is None and rep.gap is None
    # eps strengthens the floor
    assert not classify(seq_point(Space.L1_SEQ, [1.0, 0.125]), eps=0.25).in_B


def test_classify_max_norm_wants_a_dominant_coordinate():
    rep = classify(seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5]))
    assert rep.in_B and rep.p_or_t0 == 1 and rep.gap == 2.0
    assert not classify(seq_point(Space.LINF_SEQ, [2.0, -2.0])).in_B
    assert not classify(seq_point(Space.LINF_SEQ, [3.0, 1.0]), eps=2.0).in_B
    d = rep.to_dict()
    assert d["in_B"] and d["p"] == 1 and d["t0"] is None


def test_classify_function_spaces_want_a_unique_peak():
    one_peak = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    rep = classify(one_peak, eps=0.25)
    assert rep.in_B and rep.p_or_t0 == 0.5 and rep.gap > 0.0
    assert rep.to_dict()["t0"] == 0.5
    two_peaks = pw_from_values(
        Space.C_AB, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 2.0, 0.0, -2.0, 0.0]
    )
    assert not classify(two_peaks).in_B
    # a window-edge peak never qualifies: the constant tail ties it
    edge = pw_from_values(Space.LINF_R, [0.0, 1.0], [2.0, 0.0])
    assert not classify(edge).in_B


def test_classify_of_the_zero_function_names_why_it_has_no_peak():
    rep = classify(constant_fn(Space.C_AB, 0.0, 1.0, 0.0))
    assert not rep.in_B and rep.p_or_t0 is None and rep.gap is None
    assert rep.certificate == "the zero function peaks everywhere"


def test_classify_variation_norm_is_always_negative():
    f = constant_fn(Space.NBV_AB, 0.0, 1.0, 0.0)
    rep = classify(f)
    assert not rep.in_B
    assert "jump" in rep.certificate


def test_classify_rejects_negative_eps():
    with pytest.raises(PreconditionFailedError):
        classify(seq_point(Space.L1_SEQ, [1.0]), eps=-0.5)


def test_densify_sum_norm_moves_less_than_eps(rng):
    for _ in range(200):
        coords = lattice(rng, -1.0, 1.0, 8)
        coords[rng.integers(0, 8)] = 0.0  # force at least one flat coordinate
        x = seq_point(Space.L1_SEQ, coords)
        eps = float(rng.integers(1, 17)) * GRID
        y = densify_l1(x, eps)
        assert classify(y).in_B
        assert eval_norm(subtract(y, x)).value < eps


def test_densify_fills_only_the_zero_coordinate():
    x = seq_point(Space.L1_SEQ, [1.0, 0.0, 0.5])
    y = densify_l1(x, 0.1)
    assert classify(y).in_B
    assert eval_norm(subtract(y, x)).value < 0.1
    assert y.coords[0] == 1.0 and y.coords[2] == 0.5  # untouched coordinates
    assert y.coords[1] != 0.0


def test_densify_max_norm_breaks_ties(rng):
    for _ in range(200):
        coords = lattice(rng, -1.0, 1.0, 6)
        coords[1] = coords[0] = max(abs(coords).max(), GRID)  # force a tie at the top
        x = seq_point(Space.LINF_SEQ, coords)
        eps = float(rng.integers(1, 17)) * GRID
        y = densify_linf(x, eps)
        assert classify(y).in_B
        assert eval_norm(subtract(y, x)).value < eps


def test_densify_fixed_points_and_motion():
    # the sum-norm repair touches nothing when nothing is flat
    z = seq_point(Space.L1_SEQ, [1.0, -0.5])
    assert densify_l1(z, 0.25) == z
    # the max-norm repair always lifts the top coordinate by exactly eps/2
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0])
    y = densify_linf(x, 0.25)
    assert y.coords.tolist() == [3.125, 1.0]
    # an already-isolated peak is left alone
    one_peak = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    assert densify_csup(one_peak, 0.25) == one_peak


def test_densify_continuous_functions(rng):
    for _ in range(100):
        bp = midpoint_knots(rng, 3)
        knots = [0.0] + bp + [1.0]
        vals = lattice(rng, -2.0, 2.0, len(knots))
        f = pw_from_values(Space.C_AB, knots, vals)
        eps = float(rng.integers(2, 17)) * GRID
        g = densify_csup(f, eps)
        assert classify(g).in_B
        assert eval_norm(subtract(g, f)).value < eps


def test_densify_flat_top_plateau():
    flat = pw_from_values(Space.C_AB, [0.0, 0.25, 0.75, 1.0], [0.0, 1.0, 1.0, 0.0])
    g = densify_csup(flat, 0.125)
    assert classify(g).in_B
    assert eval_norm(subtract(g, flat)).value < 0.125


def test_densify_validates_eps():
    x = seq_point(Space.L1_SEQ, [1.0])
    with pytest.raises(PreconditionFailedError):
        densify_l1(x, 0.0)
    with pytest.raises(PreconditionFailedError):
        densify_linf(seq_point(Space.LINF_SEQ, [1.0]), -0.125)


def test_dominated_points_sit_in_an_open_ball(rng):
    for i in range(20):
        coords = lattice(rng, -1.0, 1.0, 6)
        p = int(rng.integers(0, 6))
        coords[p] = 2.0 * (1 if rng.integers(2) else -1)  # clear dominance
        x = seq_point(Space.LINF_SEQ, coords)
        assert ball_check_linf(x, 0.25, 500, seed=900 + i)


def test_ball_check_needs_membership():
    tie = seq_point(Space.LINF_SEQ, [1.0, -1.0])
    with pytest.raises(PreconditionFailedError):
        ball_check_linf(tie, 0.25, 10, seed=1)


def test_membership_needs_its_certificate():
    with pytest.raises(ValueError, match="membership requires"):
        MembershipReport(Space.L1_SEQ, True, None, None, "")


def test_a_radius_below_the_float_spacing_at_the_peak_certifies_no_gap():
    # the peak is unique, but |f| at t0 ± 1e-17 rounds to the sup itself
    f = pw_from_values(Space.C_AB, [0.0, 0.48583536, 1.0], [0.77897567, 0.86808703, -0.28440961])
    assert classify(f, 1e-12).in_B
    report = classify(f, 1e-17)
    assert not report.in_B
    assert report.certificate == (
        "|f| peaks only at t0=0.48583536 (value 0.86808703), but off a radius-1e-17 neighborhood "
        "it reads 0.86808703 once rounded: eps is too small to certify a gap at this float resolution"
    )


def test_densify_csup_refuses_an_eps_below_the_float_spacing_at_the_sup():
    tie = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [1e20, 0.0, 1e20])
    assert classify(densify_csup(tie, 2.0**20), 0.0).in_B
    with pytest.raises(PreconditionFailedError, match="eps 0.25 is too small for the float spacing at the sup 1e"):
        densify_csup(tie, 0.25)


# repairs that floats cannot make: eps/2 is below the float spacing at the
# sup, or underflows to 0.0, or the tail floors add up to eps or more
_UNREPAIRABLE = {
    "linf-eps-below-the-spacing": (densify_linf, seq_point(Space.LINF_SEQ, [4.0, 4.0]), 1e-16, "float spacing"),
    "rt-half-eps-underflows": (densify_linf, seq_point(Space.RT, [0.0]), 5e-324, "float spacing"),
    "l1-one-floor-is-eps": (densify_l1, seq_point(Space.L1_SEQ, [0.0, 1.0]), 5e-324, "smallest positive float"),
    "l1-three-floors-pass-eps": (densify_l1, seq_point(Space.L1_SEQ, [0.0, 0.0, 0.0, 1.0]), 1e-323, "smallest positive float"),
}


@pytest.mark.parametrize("densify, x, eps, limit", list(_UNREPAIRABLE.values()), ids=list(_UNREPAIRABLE))
def test_a_densifier_refuses_a_repair_that_floats_cannot_make(densify, x, eps, limit):
    with pytest.raises(PreconditionFailedError, match=f"eps {eps} is too small for .*{limit}"):
        densify(x, eps)


# repairs whose sup would pass the largest finite float
_OVERFLOWING = {
    "linf": (densify_linf, seq_point(Space.LINF_SEQ, [1.79e308, 1.0])),
    "rt-negative-sup": (densify_linf, seq_point(Space.RT, [-1.79e308, 1.0])),
    "csup": (densify_csup, pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [1.79e308, 1.0, 1.79e308])),
}


@pytest.mark.parametrize("densify, x", list(_OVERFLOWING.values()), ids=list(_OVERFLOWING))
def test_a_densifier_refuses_to_lift_the_sup_past_the_largest_float(densify, x):
    with pytest.raises(PreconditionFailedError) as err:
        densify(x, 1e307)
    assert str(err.value) == (
        "eps 1e+307 lifts the sup 1.79e+308 past the largest finite float 1.7976931348623157e+308"
    )


def test_densify_l1_tail_does_not_underflow_where_eps_over_the_power_is_a_normal_float():
    x = seq_point(Space.L1_SEQ, [1.0] + [0.0] * 1100)
    y = densify_l1(x, 1e300)
    # coordinate 1100 (1-based) gets eps/2^1101, about 3.68e-32; the power alone underflows
    assert y.coords[1099] == np.ldexp(1e300, -1101) > 1e-32
    assert y.coords[1:].tolist() == np.ldexp(1e300, -np.arange(3, 1103)).tolist()


@pytest.mark.parametrize(
    "coords, eps",
    [([0.0, 1.0], 1e-323), ([1.0] + [0.0] * 1100, 1.0)],
    ids=["tail-underflows-at-the-first-zero", "tail-underflows-from-coordinate-1074"],
)
def test_densify_l1_floors_a_tail_that_underflows_at_the_smallest_positive_float(coords, eps):
    # the tail eps/2^(n+1) rounds to 0.0 at some zero coordinate of each
    x = seq_point(Space.L1_SEQ, coords)
    y = densify_l1(x, eps)
    assert classify(y).in_B and eval_norm(subtract(y, x)).value < eps
    zeros = np.flatnonzero(x.coords == 0.0)
    tail = eps * 2.0 ** -(zeros + 2.0)  # eps/2^(n+1) at 1-based coordinate n
    assert 0.0 in tail and y.coords[zeros].tolist() == np.where(tail > 0.0, tail, 5e-324).tolist()


_l1 = seq_point(Space.L1_SEQ, [1.0])
_dominant = seq_point(Space.LINF_SEQ, [2.0, 0.5])
_REFUSED = {
    "densify-l1-of-linf": lambda: densify_l1(_dominant, 0.5),
    "densify-linf-of-l1": lambda: densify_linf(_l1, 0.5),
    "densify-csup-of-linf-r": lambda: densify_csup(constant_fn(Space.LINF_R, 0.0, 1.0, 1.0), 0.5),
    "densify-csup-zero-eps": lambda: densify_csup(pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), 0.0),
    "ball-check-of-l1": lambda: ball_check_linf(_l1, 0.25, 10, seed=1),
    "ball-check-no-trials": lambda: ball_check_linf(_dominant, 0.25, 0, seed=1),
    "ball-check-fractional-trials": lambda: ball_check_linf(_dominant, 0.25, 2.5, seed=1),
    "ball-check-fractional-seed": lambda: ball_check_linf(_dominant, 0.25, 10, seed=1.5),
    "ball-check-bool-seed": lambda: ball_check_linf(_dominant, 0.25, 10, seed=True),
}


@pytest.mark.parametrize("call", list(_REFUSED.values()), ids=list(_REFUSED))
def test_unusable_densify_and_ball_arguments_are_precondition_failures(call):
    with pytest.raises(PreconditionFailedError):
        call()


def test_ball_check_takes_numpy_integer_counts_and_seeds():
    assert ball_check_linf(_dominant, 0.25, np.int64(10), seed=np.uint32(1))
