"""Point construction, norms, and arithmetic for the space models."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import banachdiff
from banachdiff.errors import EvalFailureError, MalformedPointError, SpaceMismatchError
from banachdiff.spaces import (
    Space,
    SpacePoint,
    _coordinate_norms,
    _knot_point,
    _union,
    constant_fn,
    eval_norm,
    linear_combine,
    norms_along,
    point_from_dict,
    point_from_json,
    point_to_dict,
    point_to_json,
    pw_from_values,
    pw_point,
    scale,
    seq_point,
    sig,
    step_fn,
    subtract,
    value_at,
    zeros_like,
)

from conftest import GRID, lattice, midpoint_knots

# dyadic rationals with small numerators/denominators: exactly representable
dyadics = st.integers(-256, 256).map(lambda k: k * GRID)


def test_sig_convention():
    assert sig(3.5) == 1.0
    assert sig(-0.25) == -1.0
    assert sig(0.0) == 0.0
    assert sig(-0.0) == 0.0


def test_l1_norm_is_exact_on_the_lattice(rng):
    for _ in range(200):
        coords = lattice(rng, -2.0, 2.0, rng.integers(1, 65))
        x = seq_point(Space.L1_SEQ, coords)
        got = eval_norm(x)
        # independent accumulations; all are exact for lattice data
        assert got.value == math.fsum(abs(c) for c in coords)
        assert got.value == sum(sorted(abs(c) for c in coords))
        assert got.witness is None


def test_sup_norm_witness_is_one_based(rng):
    x = seq_point(Space.LINF_SEQ, [0.5, -3.0, 1.0])
    got = eval_norm(x)
    assert got.value == 3.0
    assert got.witness == 2
    assert eval_norm(seq_point(Space.RT, [0.25])).witness == 1


def test_seq_point_rejects_bad_input():
    with pytest.raises(MalformedPointError):
        seq_point(Space.L1_SEQ, [1.0, float("nan")])
    with pytest.raises(MalformedPointError):
        seq_point(Space.L1_SEQ, [float("inf")])
    with pytest.raises(MalformedPointError):
        seq_point(Space.C_AB, [1.0, 2.0])
    with pytest.raises(MalformedPointError):
        seq_point(Space.L1_SEQ, [])


def test_pl_from_values_round_trips_knot_values(rng):
    for _ in range(50):
        bp = midpoint_knots(rng, int(rng.integers(1, 5)))
        knots = [0.0] + bp + [1.0]
        vals = lattice(rng, -2.0, 2.0, len(knots))
        f = pw_from_values(Space.C_AB, knots, vals)
        for t, v in zip(knots, vals):
            assert value_at(f, t) == v
        # linear interpolation at a segment midpoint is exact too:
        # power-of-two gaps make (v0 + v1)/2 the attained value
        for i in range(len(knots) - 1):
            mid = knots[i] + (knots[i + 1] - knots[i]) / 2.0
            assert value_at(f, mid) == (vals[i] + vals[i + 1]) / 2.0


def test_pl_sup_norm_attained_at_a_knot(rng):
    for _ in range(50):
        bp = midpoint_knots(rng, 3)
        knots = [0.0] + bp + [1.0]
        vals = lattice(rng, -2.0, 2.0, len(knots))
        f = pw_from_values(Space.C_AB, knots, vals)
        got = eval_norm(f)
        assert got.value == max(abs(v) for v in vals)
        assert abs(value_at(f, got.witness)) == got.value


def test_continuity_is_validated_exactly():
    # two segments meeting at 0.5 with a mismatch of one lattice unit
    with pytest.raises(MalformedPointError):
        pw_point(Space.C_AB, 0.0, 1.0, [0.5], [1.0, 1.0], [0.0, GRID])


def test_pw_point_rejects_malformed_domains():
    with pytest.raises(MalformedPointError):
        pw_point(Space.C_AB, 1.0, 0.0, [], [0.0], [0.0])
    with pytest.raises(MalformedPointError):
        pw_point(Space.C_AB, 0.0, 1.0, [0.75, 0.25], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(MalformedPointError):
        pw_point(Space.C_AB, 0.0, 1.0, [0.5], [0.0], [0.0])  # length mismatch


@pytest.mark.parametrize("space", [Space.C_AB, Space.LINF_R, Space.NBV_AB])
def test_domains_wider_than_the_float_range_are_malformed(space):
    # b - a overflows to inf: a segment that wide could not be read by
    # interpolation, and the domain would have no midpoint
    for knots in ([-1.5e308, 1.5e308], [-1.5e308, 0.0, 1.5e308]):
        with pytest.raises(MalformedPointError, match="b - a within the float range"):
            pw_from_values(space, knots, [0.0] * len(knots))
    with pytest.raises(MalformedPointError, match="b - a within the float range"):
        pw_point(space, -1.5e308, 1.5e308, [], [0.0], [0.0])
    # the widest domain is still a point, read exactly at both ends
    top = np.finfo(float).max
    f = pw_from_values(space, [-top / 2, top / 2], [0.0, 0.5])
    assert value_at(f, f.a) == 0.0 and value_at(f, f.b) == 0.5


def test_window_norm_sees_the_constant_tails():
    # inside the window the function is small; the right tail constant wins
    f = pw_point(Space.LINF_R, 0.0, 1.0, [0.5], [0.0, 0.0], [0.25, -2.0])
    assert eval_norm(f).value == 2.0
    assert value_at(f, 37.0) == -2.0  # constant extension to the right
    assert value_at(f, -5.0) == 0.25


def test_compact_domain_rejects_outside_evaluation():
    f = constant_fn(Space.C_AB, 0.0, 1.0, 1.0)
    with pytest.raises(EvalFailureError):
        value_at(f, 1.5)


def test_combination_that_cannot_be_finite_is_an_eval_failure():
    for x in (seq_point(Space.LINF_SEQ, [1e308, 1.0]), constant_fn(Space.C_AB, 0.0, 1.0, 1e308)):
        with pytest.raises(EvalFailureError):
            linear_combine(1.0, x, 1.0, x)
        for coeff in (math.inf, math.nan):
            with pytest.raises(EvalFailureError):
                linear_combine(coeff, x, 0.0, x)


def test_value_at_is_right_continuous_at_jumps():
    f = step_fn(Space.LINF_R, 0.0, 1.0, 0.5, -1.0, 2.0)
    assert value_at(f, 0.5) == 2.0
    assert value_at(f, 0.5 - GRID) == -1.0


def test_variation_norm_adds_slopes_and_jumps():
    # f(0)=0, rises with slope 2 to 0.5 (value 1), jumps down to -1,
    # then stays flat: variation = 2*0.5 + |(-1) - 1| = 3
    f = pw_point(Space.NBV_AB, 0.0, 1.0, [0.5], [2.0, 0.0], [0.0, -1.0])
    got = eval_norm(f)
    assert got.value == 3.0
    assert got.witness is None
    assert f.jumps().tolist() == [-2.0]


def test_variation_points_are_anchored_at_zero():
    with pytest.raises(MalformedPointError):
        constant_fn(Space.NBV_AB, 0.0, 1.0, 1.0)
    # anchored constant is fine and has norm 0
    z = constant_fn(Space.NBV_AB, 0.0, 1.0, 0.0)
    assert eval_norm(z).value == 0.0


def test_linear_combine_is_exact_on_lattice_coords(rng):
    for _ in range(100):
        n = int(rng.integers(1, 33))
        xs = lattice(rng, -2.0, 2.0, n)
        ys = lattice(rng, -2.0, 2.0, n)
        x = seq_point(Space.L1_SEQ, xs)
        y = seq_point(Space.L1_SEQ, ys)
        z = linear_combine(1.0, x, -0.5, y)
        assert np.array_equal(z.coords, xs - 0.5 * ys)
    assert eval_norm(subtract(x, x)).value == 0.0


def test_linear_combine_aligns_mismatched_knots():
    # knot gaps are powers of two, so both slopes and pointwise values are
    # exact and the sum can be compared bitwise
    f = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    g = pw_from_values(Space.C_AB, [0.0, 0.25, 0.75, 1.0], [1.0, 0.0, 0.0, 1.0])
    s = linear_combine(1.0, f, 1.0, g)
    for t in (0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0):
        assert value_at(s, t) == value_at(f, t) + value_at(g, t)
    assert set(s.breakpoints.tolist()) == {0.25, 0.5, 0.75}


def _lattice_pw(rng, space):
    """Lattice point on midpoint knots; LINF_R and NBV_AB get genuine jumps."""
    knots = np.asarray([0.0] + midpoint_knots(rng, int(rng.integers(1, 5))) + [1.0])
    vals = lattice(rng, -2.0, 2.0, knots.shape[0])
    if space is Space.C_AB:
        return pw_from_values(space, knots, vals)
    if space is Space.NBV_AB:
        vals[0] = 0.0
    slopes = lattice(rng, -2.0, 2.0, knots.shape[0] - 1)
    intercepts = vals[:-1] - slopes * knots[:-1]
    return pw_point(space, 0.0, 1.0, knots[1:-1], slopes, intercepts)


def _left_limit(f, t):
    hit = np.flatnonzero(f.knots == t)
    return float(f.lefts[hit[0]]) if hit.size else value_at(f, t)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Space.C_AB, Space.LINF_R, Space.NBV_AB]),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.booleans(),
)
def test_lattice_combination_is_exact_at_every_merged_knot(seed, space, ka, kb, flip):
    rng = np.random.default_rng(seed)
    f, g = _lattice_pw(rng, space), _lattice_pw(rng, space)
    alpha, beta = 2.0**ka, (-1.0 if flip else 1.0) * 2.0**kb
    s = linear_combine(alpha, f, beta, g)
    assert set(s.knots.tolist()) == set(f.knots.tolist()) | set(g.knots.tolist())
    for i, t in enumerate(s.knots.tolist()):
        assert value_at(s, t) == s.values[i] == alpha * value_at(f, t) + beta * value_at(g, t)
        assert s.lefts[i] == alpha * _left_limit(f, t) + beta * _left_limit(g, t)
    if space is not Space.NBV_AB:
        assert eval_norm(s).value == max(abs(v) for v in s.values.tolist() + s.lefts.tolist())


@pytest.mark.parametrize("space", [Space.C_AB, Space.LINF_R, Space.NBV_AB])
def test_off_lattice_points_round_trip_within_roundoff(space):
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        knots = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, m)), [1.0]))
        if space is Space.C_AB:
            f = pw_from_values(space, knots, rng.uniform(-1.0, 1.0, m + 2))
        else:
            slopes = rng.uniform(-2.0, 2.0, m + 1)
            intercepts = rng.uniform(-1.0, 1.0, m + 1)
            if space is Space.NBV_AB:
                intercepts[0] = 0.0  # value 0 at a = 0
            f = pw_point(space, 0.0, 1.0, knots[1:-1], slopes, intercepts)
        doc = point_to_dict(f)
        back = point_from_dict(json.loads(json.dumps(doc)))
        # each knot value is re-read through slope*t + intercept
        tol = 16.0 * np.finfo(float).eps * max(
            1.0, max(abs(seg["slope"]) + abs(seg["intercept"]) for seg in doc["segments"])
        )
        assert np.array_equal(back.knots, f.knots)
        assert np.abs(back.values - f.values).max() <= tol
        assert np.abs(back.lefts - f.lefts).max() <= tol


def test_linear_combine_rejects_space_mixes():
    from banachdiff.errors import SpaceMismatchError

    x = seq_point(Space.L1_SEQ, [1.0])
    y = seq_point(Space.LINF_SEQ, [1.0])
    with pytest.raises(SpaceMismatchError):
        linear_combine(1.0, x, 1.0, y)


def test_zeros_like_and_scale():
    x = seq_point(Space.LINF_SEQ, [1.0, -2.0])
    assert eval_norm(zeros_like(x)).value == 0.0
    assert np.array_equal(scale(-0.5, x).coords, [-0.5, 1.0])
    f = step_fn(Space.NBV_AB, 0.0, 1.0, 0.5, 0.0, 1.0)
    assert eval_norm(scale(4.0, f)).value == 4.0


@pytest.mark.parametrize(
    "point",
    [
        seq_point(Space.L1_SEQ, [1.0, -0.5, 0.0]),
        seq_point(Space.RT, [0.25]),
        pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.5, -0.5]),
        pw_point(Space.LINF_R, -1.0, 1.0, [0.0], [1.0, 0.0], [0.5, -2.0]),
        pw_point(Space.NBV_AB, 0.0, 2.0, [1.0], [0.5, 0.0], [0.0, 3.0]),
    ],
)
def test_dict_and_json_round_trips(point):
    assert point_from_dict(point_to_dict(point)) == point
    assert point_from_json(point_to_json(point)) == point


def test_point_from_dict_rejects_garbage():
    with pytest.raises(MalformedPointError):
        point_from_dict({"space": "L1_SEQ"})
    with pytest.raises(MalformedPointError):
        point_from_dict({"space": "NOT_A_SPACE", "coords": [1.0]})
    with pytest.raises(MalformedPointError):
        point_from_json("[not json")


@pytest.mark.parametrize(
    "text",
    ['{"space": "L1_SEQ", "coords": [' + "1" * 5000 + "]}", "[" * 100000],
    ids=["integer-past-the-digit-limit", "too-deep"],
)
def test_unreadable_point_text_is_malformed(text):
    with pytest.raises(MalformedPointError, match="is not valid JSON"):
        point_from_json(text)


@given(st.lists(dyadics, min_size=1, max_size=20))
def test_seq_round_trip_is_bitwise(coords):
    x = seq_point(Space.LINF_SEQ, coords)
    back = point_from_json(point_to_json(x))
    assert np.array_equal(back.coords, x.coords)


@given(st.lists(dyadics, min_size=1, max_size=20), st.integers(-4, 4))
def test_power_of_two_homogeneity(coords, k):
    # ||c x|| = |c| ||x|| holds bitwise when c is a power of two
    c = 2.0 ** k
    x = seq_point(Space.L1_SEQ, coords)
    assert eval_norm(scale(c, x)).value == c * eval_norm(x).value


@given(
    st.lists(dyadics, min_size=1, max_size=20),
    st.lists(dyadics, min_size=1, max_size=20),
)
def test_triangle_inequality(xs, ys):
    n = min(len(xs), len(ys))
    x = seq_point(Space.L1_SEQ, xs[:n])
    y = seq_point(Space.L1_SEQ, ys[:n])
    lhs = eval_norm(linear_combine(1.0, x, 1.0, y)).value
    assert lhs <= eval_norm(x).value + eval_norm(y).value + 1e-12


floats = st.floats(allow_nan=False, allow_infinity=False)


# strictly increasing, like knots: at most one of 0.0 and -0.0
knot_lists = st.lists(st.one_of(floats, st.sampled_from([0.0, -0.0, 1.0])), max_size=12, unique=True).map(sorted)


@given(knot_lists, knot_lists)
def test_union_equals_numpy_union1d_bit_for_bit(a, b):
    # np.union1d's unstable sort may keep either of 0.0 and -0.0; the
    # union keeps the first in a, b order and is otherwise the same bits
    want = np.union1d(a, b)
    zeros = [v for v in a + b if v == 0.0]
    if zeros:
        want[want == 0.0] = zeros[0]
    got = _union(np.array(a, dtype=float), np.array(b, dtype=float))
    assert got.tobytes() == want.tobytes()


def test_union_keeps_the_first_of_two_signed_zeros():
    neg, pos = np.array([-1.0, -0.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    assert _union(neg, pos).tobytes() == neg.tobytes()
    assert _union(pos, neg).tobytes() == pos.tobytes()


def test_function_space_work_leaves_numpy_masked_arrays_unimported():
    code = (
        "import sys\n"
        "from banachdiff.spaces import Space, linear_combine, pw_from_values\n"
        "from banachdiff.topology import classify\n"
        "tent = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])\n"
        "assert classify(tent, 0.1).in_B\n"
        "other = pw_from_values(Space.C_AB, [0.0, 0.25, 1.0], [0.0, 1.0, 0.0])\n"
        "assert linear_combine(1.0, tent, 1.0, other).knots.tolist() == [0.0, 0.25, 0.5, 1.0]\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(banachdiff.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


_REFUSED_CONSTRUCTIONS = {
    "two-dimensional-coords": lambda: seq_point(Space.L1_SEQ, [[1.0, 2.0]]),
    "dim-of-a-function": lambda: constant_fn(Space.C_AB, 0.0, 1.0, 1.0).dim,
    "segments-for-a-sequence-space": lambda: pw_from_values(Space.L1_SEQ, [0.0, 1.0], [0.0, 0.0]),
    "fewer-values-than-knots": lambda: pw_from_values(Space.C_AB, [0.0, 1.0], [0.0]),
    "domain-ends-not-numbers": lambda: pw_point(Space.C_AB, [0.0], [1.0], [], [0.0], [0.0]),
    "document-without-space": lambda: point_from_dict({"coords": [1.0]}),
}


@pytest.mark.parametrize("build", list(_REFUSED_CONSTRUCTIONS.values()), ids=list(_REFUSED_CONSTRUCTIONS))
def test_structurally_invalid_points_are_malformed(build):
    with pytest.raises(MalformedPointError):
        build()


def test_value_at_refuses_a_sequence_point():
    with pytest.raises(EvalFailureError, match="function-space points"):
        value_at(seq_point(Space.L1_SEQ, [1.0]), 0.0)


def test_points_compare_by_space_and_have_short_reprs():
    x = seq_point(Space.L1_SEQ, [1.0, -0.5])
    assert x != "L1_SEQ" and x != seq_point(Space.LINF_SEQ, [1.0, -0.5])
    assert repr(x) == "SpacePoint(L1_SEQ, [1.0, -0.5])"
    f = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert repr(f) == "SpacePoint(C_AB, [0.0, 1.0], bp=[0.5])"


@pytest.mark.parametrize("space", [Space.C_AB, Space.LINF_R, Space.NBV_AB])
def test_zeros_like_a_function_point_is_the_zero_function_on_its_domain(space):
    z = zeros_like(pw_from_values(space, [-1.0, 0.5, 2.0], [0.0, 1.0, 0.0]))
    assert z == constant_fn(space, -1.0, 2.0, 0.0) and eval_norm(z).value == 0.0


def _stack_rows(space, knots, rng, rows):
    """A stack of ``rows`` random directions over ``knots`` (sequences: a
    coordinate count), with jumps at interior knots for LINF_R, and its rows
    as points of their own."""
    if space in (Space.LINF_SEQ, Space.RT):
        coords = rng.uniform(-2.0, 2.0, (rows, knots))
        return SpacePoint(space, coords=coords), [seq_point(space, c) for c in coords]
    values = rng.uniform(-2.0, 2.0, (rows, knots.shape[0]))
    lefts = values
    if space is Space.LINF_R:
        lefts = values.copy()
        lefts[:, 1:-1] += rng.uniform(-1.0, 1.0, (rows, knots.shape[0] - 2))
    points = [_knot_point(space, knots, v, e) for v, e in zip(values, lefts)]
    return SpacePoint(space, knots=knots, values=values, lefts=lefts), points


@pytest.mark.parametrize("space", [Space.LINF_SEQ, Space.RT, Space.C_AB, Space.LINF_R])
def test_max_norms_along_a_stack_equal_eval_norm_bitwise_at_every_width(space):
    # rows up to 32 wide are scanned in Fortran order, wider ones in C order
    rng = np.random.default_rng(40)
    steps = np.array([0.0625, 0.1, -0.0625, -0.1, 3.0])
    for width in range(1 if space in (Space.LINF_SEQ, Space.RT) else 2, 41):
        if space in (Space.LINF_SEQ, Space.RT):
            x, (H, rows) = seq_point(space, rng.uniform(-2.0, 2.0, width)), _stack_rows(space, width, rng, 3)
        else:
            knots = np.sort(rng.uniform(-1.0, 1.0, width))
            x = _stack_rows(space, knots, rng, 1)[1][0]
            H, rows = _stack_rows(space, knots, rng, 3)
        got = norms_along(x, H, steps)
        want = [[eval_norm(linear_combine(1.0, x, s, h)).value for s in steps] for h in rows]
        assert got.tobytes() == np.array(want).tobytes(), width


def test_a_continuous_point_keeps_one_array():
    f = pw_from_values(Space.LINF_R, [0.0, 0.5, 1.0], [0.0, 1.0, 0.25])
    assert f.lefts is f.values and not f.values.flags.writeable
    values = [0.0, 1.0, 0.25]
    assert pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], values).values.tolist() == values


_REFUSED_VALUES = {
    "non-finite": (Space.C_AB, [0.0, 0.5, 1.0], [0.0, math.nan, 1.0]),
    "too-short": (Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0]),
    "not-numbers": (Space.LINF_R, [0.0, 1.0], ["a", 1.0]),
    "two-dimensional": (Space.LINF_R, [0.0, 1.0], [[0.0, 1.0], [1.0, 2.0]]),
    "nbv-not-zero-at-a": (Space.NBV_AB, [0.0, 1.0], [0.5, 1.0]),
    "knots-decreasing": (Space.C_AB, [1.0, 0.0], [0.0, 1.0]),
    "not-a-function-space": (Space.RT, [0.0, 1.0], [0.0, 1.0]),
}


@pytest.mark.parametrize("space, knots, values", list(_REFUSED_VALUES.values()), ids=list(_REFUSED_VALUES))
def test_pw_from_values_refuses_what_separate_left_limits_refuse(space, knots, values):
    # the same values given twice, as distinct objects, take the two-array path
    errors = []
    for lefts in (values, list(values)):
        with pytest.raises(MalformedPointError) as info:
            _knot_point(space, knots, values, lefts)
        errors.append((str(info.value), info.value.context))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("space", [Space.LINF_SEQ, Space.RT])
def test_a_coordinate_stack_reads_as_its_coordinate_vectors(space):
    x = seq_point(space, [0.5, -2.0, -0.0, 2.0, 1e-300])
    ks = np.array([1, 3, 2, 0, 4, 1])
    dense = SpacePoint(space, coords=np.eye(5)[ks])
    steps = np.array([0.75, 0.1, 1e-17, -0.75, -0.1, -3.0])
    assert _coordinate_norms(x, ks, steps).tobytes() == norms_along(x, dense, steps).tobytes()
