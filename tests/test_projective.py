"""Truncation systems, cylindrical functions, and chain-rule propagation."""

import time
import tracemalloc

import numpy as np
import pytest

from banachdiff.diffengine import Functional, TGrid, VerdictStatus, one_sided_derivatives
from banachdiff.errors import (
    BadDimsError,
    DimTooSmallError,
    NonconstancyUnverifiedError,
    PreconditionFailedError,
)
from banachdiff.oracles import RepKind, apply_rep
from banachdiff.projective import (
    CYL_BASES,
    OUTER_MAPS,
    CylindricalFunction,
    ScalarMap,
    compose_propagate,
    cyl_eval,
    cyl_gateaux,
    full_functional,
    lipschitz_factor_check,
    make_cylinder,
    make_truncation_system,
    wseries_eval,
    wseries_functional,
    wseries_gateaux,
)
from banachdiff.spaces import Space, constant_fn, seq_point

from conftest import lattice

DIMS = (2, 3, 5, 8, 13)
SMOOTH = TGrid(t0=2.0 ** -7, rho=0.5, count=20)


def partial_sum(n):
    acc = 0.0
    for k in range(1, n + 1):
        acc += 1.0 / (k * k)
    return acc


# -- truncation systems ------------------------------------------------------


def test_system_construction_validates_dims():
    make_truncation_system(DIMS)  # fine
    with pytest.raises(BadDimsError):
        make_truncation_system((3, 2))
    with pytest.raises(BadDimsError):
        make_truncation_system((2, 2, 3))
    with pytest.raises(BadDimsError):
        make_truncation_system((0, 1))
    with pytest.raises(BadDimsError):
        make_truncation_system(())


def test_building_a_system_costs_nothing_per_triple():
    tracemalloc.start()
    try:
        make_truncation_system((2, 3, 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    start = time.perf_counter()
    assert make_truncation_system(range(1, 151)).dims == tuple(range(1, 151))
    assert time.perf_counter() - start < 0.5


def test_connectors_compose_exactly(rng):
    # connect(t, s, .) maps stage-s coordinates down to stage t <= s
    sys_ = make_truncation_system(DIMS)
    for _ in range(50):
        coords = rng.standard_normal(13)
        for i, s in enumerate(DIMS):
            for t in DIMS[: i + 1]:
                via = sys_.connect(t, s, sys_.connect(s, 13, coords))
                direct = sys_.connect(t, 13, coords)
                assert np.array_equal(via, direct)
    with pytest.raises(BadDimsError):
        sys_.connect(13, 2, np.zeros(2))


def test_project_produces_max_norm_points(rng):
    sys_ = make_truncation_system(DIMS)
    x = seq_point(Space.LINF_SEQ, lattice(rng, -2.0, 2.0, 13))
    y = sys_.project(5, x)
    assert y.space is Space.RT and y.dim == 5
    assert np.array_equal(y.coords, x.coords[:5])
    with pytest.raises(DimTooSmallError):
        sys_.project(8, seq_point(Space.LINF_SEQ, [1.0, 2.0]))
    with pytest.raises(BadDimsError):
        sys_.project(7, x)  # 7 is not a stage of this system


# -- the weighted series -----------------------------------------------------


def test_weighted_series_accumulates_left_to_right(rng):
    x = seq_point(Space.LINF_SEQ, [1.0] * 10)
    got = wseries_eval(x)
    assert got == partial_sum(10)  # same accumulation order, same bits
    f = wseries_functional()
    assert f(x) == got
    for dim in (1, 7, 70, 700):
        coords = rng.uniform(-3.0, 3.0, dim)
        acc = 0.0
        for k, c in enumerate(coords.tolist(), start=1):
            acc += abs(c) / (k * k)
        assert wseries_eval(seq_point(Space.LINF_SEQ, coords)) == acc


def test_weighted_series_closed_form_derivative():
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0])
    d = wseries_gateaux(x, h)
    assert d == 1.0 - 1.0 / 4.0 + 1.0 / 9.0
    # a zero coordinate hit by the direction has no two-sided derivative
    x0 = seq_point(Space.LINF_SEQ, [1.0, 0.0, 2.0])
    assert wseries_gateaux(x0, h) is None
    # but is harmless when the direction misses it
    e1 = seq_point(Space.LINF_SEQ, [1.0, 0.0, 0.0])
    assert wseries_gateaux(x0, e1) == 1.0


def test_weighted_series_origin_splits_at_the_partial_sum():
    for n in (10, 64):
        f = wseries_functional()
        zero = seq_point(Space.LINF_SEQ, [0.0] * n)
        ones = seq_point(Space.LINF_SEQ, [1.0] * n)
        tr = one_sided_derivatives(f, zero, ones)
        assert tr.d_plus == partial_sum(n)
        assert tr.d_minus == -partial_sum(n)


# -- cylindrical functions ---------------------------------------------------


def test_cylinder_evaluates_through_the_projection(rng):
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    got = cyl_eval(cf, sys_, x)
    assert got == 1.0 + 1.0 / 4.0 + 2.0 / 9.0  # = 1.4722222222222223
    # tail coordinates are invisible to the cylinder
    x2 = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, -7.0, 0.5])
    assert cyl_eval(cf, sys_, x2) == got
    sup = make_cylinder("supnorm", 5)
    assert cyl_eval(sup, sys_, x) == 9.0


def test_cylinder_requires_a_stage_of_the_system():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 4)
    x = seq_point(Space.LINF_SEQ, [1.0] * 13)
    with pytest.raises(BadDimsError):
        cyl_eval(cf, sys_, x)
    with pytest.raises(BadDimsError):
        cyl_gateaux(cf, sys_, x, x)
    with pytest.raises(BadDimsError):
        lipschitz_factor_check(cf, sys_, x, 0.5, 8, seed=1)
    with pytest.raises(PreconditionFailedError):
        make_cylinder("no_such_base", 3)


def test_full_functional_agrees_with_cyl_eval_bitwise(rng):
    sys_ = make_truncation_system(DIMS)
    for base in sorted(CYL_BASES):
        for t in DIMS:
            cf = make_cylinder(base, t)
            F = full_functional(cf, sys_)
            for _ in range(20):
                x = seq_point(Space.LINF_SEQ, lattice(rng, -2.0, 2.0, 13))
                assert F(x) == cyl_eval(cf, sys_, x)


def test_cylinder_verdict_lifts_the_base_analysis():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    v = cyl_gateaux(cf, sys_, x, h)
    assert v.status is VerdictStatus.GATEAUX
    want = 1.0 - 1.0 / 4.0 + 1.0 / 9.0
    assert abs(apply_rep(v.derivative, h) - want) < 1e-8
    # direction supported beyond the base dimension: derivative 0
    tail = seq_point(Space.LINF_SEQ, [0.0, 0.0, 0.0, 1.0, 1.0])
    assert apply_rep(v.derivative, tail) == 0.0


def test_cylinder_verdict_inherits_base_failures():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, 0.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    v = cyl_gateaux(cf, sys_, x, h)
    assert v.status is VerdictStatus.NOT_GATEAUX
    w = v.failure_witness
    assert w.dim == 13 or w.dim == x.dim  # lifted to the ambient headway
    assert np.any(w.coords[:3] != 0.0) and np.all(w.coords[3:] == 0.0)


# -- Lipschitz factorization -------------------------------------------------


def test_lipschitz_factors_agree_for_the_series():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    k_full, k_base, flag = lipschitz_factor_check(cf, sys_, x, 0.5, 64, seed=123)
    assert flag
    assert k_full <= k_base + 1e-12
    # the series' best slope is the full partial sum, attained along all-ones
    assert k_full == partial_sum(3)
    assert k_base == partial_sum(3)


def test_lipschitz_factors_for_the_sup_base():
    sys_ = make_truncation_system(DIMS)
    sup = make_cylinder("supnorm", 5)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    k_full, k_base, flag = lipschitz_factor_check(sup, sys_, x, 0.5, 64, seed=321)
    assert flag
    assert k_full == 1.0 and k_base == 1.0


def test_lipschitz_pairs_stay_in_the_ball_of_the_space_norm():
    # the pairs x ± (radius/2)·d use directions of unit norm in x's space:
    # for a 13-coordinate L1_SEQ point every pair lies within radius/2 of x
    sys_ = make_truncation_system(DIMS)
    x = seq_point(Space.L1_SEQ, lattice(np.random.default_rng(5), -2.0, 2.0, 13))
    seen = []

    def record(p):
        seen.append(p.coords.copy())
        return float(np.abs(p.coords).sum())

    cf = CylindricalFunction("l1_13", 13, Functional("l1_13", record, Space.RT))
    lipschitz_factor_check(cf, sys_, x, 0.5, 64, seed=123)
    assert seen
    assert max(np.abs(y - x.coords).sum() for y in seen) <= 0.25 * (1.0 + 1e-12)
    with pytest.raises(PreconditionFailedError):
        lipschitz_factor_check(cf, sys_, x, float("inf"), 8, seed=1)


def test_lipschitz_check_refuses_constant_samples():
    sys_ = make_truncation_system(DIMS)
    const = CylindricalFunction("const", 3, Functional("const", lambda p: 1.0, Space.RT))
    x = seq_point(Space.LINF_SEQ, [1.0] * 13)
    with pytest.raises(NonconstancyUnverifiedError):
        lipschitz_factor_check(const, sys_, x, 0.5, 16, seed=9)


# -- chain rule --------------------------------------------------------------


def test_smooth_outer_composition_certifies_with_scaled_rep():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    m = 1.0 + 1.0 / 4.0 + 2.0 / 9.0
    inner = 1.0 - 1.0 / 4.0 + 1.0 / 9.0
    v = compose_propagate(OUTER_MAPS["cube_plus_u"], cf, sys_, x, h, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.GATEAUX
    want = (3.0 * m * m + 1.0) * inner
    assert abs(v.value - want) < 1e-5
    assert v.derivative.kind is RepKind.COEFF_SEQ
    assert abs(apply_rep(v.derivative, h) - want) < 1e-5


def test_identity_outer_reduces_to_the_cylinder_verdict():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    v = compose_propagate(OUTER_MAPS["identity"], cf, sys_, x, h, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.GATEAUX
    assert abs(v.value - (1.0 - 1.0 / 4.0 + 1.0 / 9.0)) < 1e-6


def test_kinked_outer_at_zero_inner_value():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    zero_head = seq_point(Space.LINF_SEQ, [0.0, 0.0, 0.0, 5.0, 5.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    # |series| at the origin: the inherited witness carries through
    v_abs = compose_propagate(OUTER_MAPS["abs"], cf, sys_, zero_head, h, SMOOTH, 1e-6)
    assert v_abs.status is VerdictStatus.NOT_GATEAUX
    # series^2 at the origin is actually differentiable (derivative 0),
    # which direct verification cannot distinguish from slow convergence:
    # the honest verdict is INCONCLUSIVE, never a phantom witness
    v_sq = compose_propagate(OUTER_MAPS["square"], cf, sys_, zero_head, h, SMOOTH, 1e-6)
    assert v_sq.status is VerdictStatus.INCONCLUSIVE


def test_outer_kink_exactly_at_the_inner_value():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    m = cyl_eval(cf, sys_, x)
    shifted_abs = ScalarMap("shifted_abs", lambda u: abs(u - m))
    v = compose_propagate(shifted_abs, cf, sys_, x, h, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.NOT_GATEAUX
    assert "kink" in v.detail


@pytest.mark.parametrize("slope", [1.0, 2.0], ids=["signed-index", "coeff-seq"])
def test_outer_kink_at_a_linear_inner_value(slope):
    # inner value 0 at the origin of the first coordinate; along e2 the inner
    # derivative is 0, so the witness is the sloped direction e1 of its rep
    sys_ = make_truncation_system((2, 3, 5))
    first = CylindricalFunction("first", 3, Functional("first", lambda p: slope * float(p.coords[0]), Space.RT))
    x = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.5, 0.25, 2.0])
    e1 = seq_point(Space.LINF_SEQ, [1.0, 0.0, 0.0, 0.0, 0.0])
    e2 = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.0, 0.0, 0.0])
    rep = cyl_gateaux(first, sys_, x, e1).derivative
    assert rep.kind is (RepKind.SIGNED_INDEX if slope == 1.0 else RepKind.COEFF_SEQ)
    for outer in ("abs", "relu"):
        for h in (e1, e2):
            v = compose_propagate(OUTER_MAPS[outer], first, sys_, x, h)
            assert v.status is VerdictStatus.NOT_GATEAUX
            assert v.detail == "outer map kinks exactly at the inner value"
            assert np.array_equal(v.failure_witness.coords, e1.coords)


def test_outer_kink_under_a_zero_inner_derivative_verifies_flat():
    sys_ = make_truncation_system((2, 3, 5))
    zero = CylindricalFunction("zero", 3, Functional("zero", lambda p: 0.0, Space.RT))
    x = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.5, 0.25, 2.0])
    for outer in ("abs", "relu"):
        for k in (0, 1):
            h = seq_point(Space.LINF_SEQ, np.eye(5)[k])
            v = compose_propagate(OUTER_MAPS[outer], zero, sys_, x, h)
            assert v.status is VerdictStatus.GATEAUX
            assert v.derivative.kind is RepKind.ZERO and v.value == 0.0


_STEEP_ABS = ScalarMap("steep_abs", lambda u: 1e3 * abs(u))


@pytest.mark.parametrize(
    "outer, base, k, detail",
    [
        (OUTER_MAPS["identity"], lambda p: float(p.coords[1]) ** 2, 1,
         "inner factor inconclusive: quotients along probe 0 did not converge on the grid"),
        (_STEEP_ABS, lambda p: 5e-10 * float(p.coords[0]), 0,
         "outer kink under a zero inner derivative did not verify flat"),
        (_STEEP_ABS, lambda p: float(p.coords[0]) + 1e-3 * float(p.coords[0]) ** 2, 0,
         "outer kink did not verify against the composition"),
    ],
    ids=["inner-inconclusive", "zero-inner-not-flat", "kink-unverified"],
)
def test_compose_reports_what_it_could_not_verify(outer, base, k, detail):
    sys_ = make_truncation_system((2, 3, 5))
    inner = CylindricalFunction("inner", 3, Functional("inner", base, Space.RT))
    x = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.5, 0.25, 2.0])
    h = seq_point(Space.LINF_SEQ, np.eye(5)[k])
    v = compose_propagate(outer, inner, sys_, x, h)
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == detail


def test_smooth_outer_scales_a_signed_index_rep():
    sys_ = make_truncation_system((2, 3, 5))
    cf = make_cylinder("supnorm", 3)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5, 0.25, 2.0])
    e1 = seq_point(Space.LINF_SEQ, [1.0, 0.0, 0.0, 0.0, 0.0])
    v = compose_propagate(OUTER_MAPS["identity"], cf, sys_, x, e1, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.GATEAUX and v.value == 1.0
    assert (v.derivative.kind, v.derivative.p, v.derivative.sigma) == (RepKind.SIGNED_INDEX, 1, 1.0)
    v = compose_propagate(OUTER_MAPS["square"], cf, sys_, x, e1, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.GATEAUX and v.value == 6.0
    assert v.derivative.kind is RepKind.COEFF_SEQ and v.derivative.coeffs == (6.0,)
    # the default grid stops before the quotients of u^2 at 3 settle
    v = compose_propagate(OUTER_MAPS["square"], cf, sys_, x, e1)
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == (
        "quotients along the outer map's unit step at the inner value did not converge on the grid"
    )


def test_relu_outer_away_from_its_kink():
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 3)
    x = seq_point(Space.LINF_SEQ, [1.0, -1.0, 2.0, 9.0, 9.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0, 1.0, 0.0, 0.0])
    # the inner value is ~1.47 > 0, so relu is locally the identity
    v = compose_propagate(OUTER_MAPS["relu"], cf, sys_, x, h, SMOOTH, 1e-6)
    assert v.status is VerdictStatus.GATEAUX
    assert abs(v.value - (1.0 - 1.0 / 4.0 + 1.0 / 9.0)) < 1e-6


def test_failure_set_equality_for_strictly_monotone_outers(rng):
    # u^3 + u has derivative >= 1 everywhere: the composition fails exactly
    # where the inner cylinder fails
    sys_ = make_truncation_system(DIMS)
    cf = make_cylinder("wseries_partial", 13)
    g = OUTER_MAPS["cube_plus_u"]
    ones = seq_point(Space.LINF_SEQ, [1.0] * 13)
    for i in range(8):
        coords = lattice(rng, -2.0, 2.0, 13)
        coords[np.abs(coords) < 0.25] = 0.5  # keep away from accidental zeros
        if i % 2 == 0:
            coords[int(rng.integers(0, 13))] = 0.0
        x = seq_point(Space.LINF_SEQ, coords)
        inner_fails = cyl_gateaux(cf, sys_, x, ones).status is VerdictStatus.NOT_GATEAUX
        comp = compose_propagate(g, cf, sys_, x, ones, SMOOTH, 1e-6)
        comp_fails = comp.status is VerdictStatus.NOT_GATEAUX
        assert inner_fails == (i % 2 == 0)
        assert comp_fails == inner_fails


def test_unknown_outer_names_are_rejected():
    assert set(OUTER_MAPS) == {
        "identity", "square", "cube_plus_u", "abs", "relu", "sin", "exp",
    }
    for name, g in OUTER_MAPS.items():
        assert g.name == name
        assert isinstance(g(0.5), float)


def test_a_zero_inner_derivative_propagates_as_zero():
    # a tolerance above every response fits the zero functional downstairs
    sys_ = make_truncation_system((2,))
    x = seq_point(Space.LINF_SEQ, [1.0, 1.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 0.0])
    v = compose_propagate(OUTER_MAPS["identity"], make_cylinder("wseries_partial", 2), sys_, x, h, SMOOTH, 10.0)
    assert v.status is VerdictStatus.GATEAUX and v.derivative.kind is RepKind.ZERO and v.value == 0.0


_sys = make_truncation_system(DIMS)
_x13 = seq_point(Space.LINF_SEQ, np.arange(1.0, 14.0))
_cf = make_cylinder("supnorm", 2)
_REFUSED = {
    "connect-wrong-length": (PreconditionFailedError, lambda: _sys.connect(2, 3, [1.0, 2.0])),
    "project-a-function": (PreconditionFailedError, lambda: _sys.project(2, constant_fn(Space.C_AB, 0.0, 1.0, 1.0))),
    "cylinder-dimension-zero": (PreconditionFailedError, lambda: make_cylinder("supnorm", 0)),
    "wseries-of-a-function": (PreconditionFailedError, lambda: wseries_eval(constant_fn(Space.C_AB, 0.0, 1.0, 1.0))),
    "wseries-gateaux-mismatch": (PreconditionFailedError, lambda: wseries_gateaux(_x13, seq_point(Space.LINF_SEQ, [1.0]))),
    "lipschitz-no-pairs": (PreconditionFailedError, lambda: lipschitz_factor_check(_cf, _sys, _x13, 0.5, 0, 1)),
    "lipschitz-fractional-pairs": (PreconditionFailedError, lambda: lipschitz_factor_check(_cf, _sys, _x13, 0.5, 2.5, 1)),
    "lipschitz-fractional-seed": (PreconditionFailedError, lambda: lipschitz_factor_check(_cf, _sys, _x13, 0.5, 8, seed=1.5)),
    "lipschitz-bool-seed": (PreconditionFailedError, lambda: lipschitz_factor_check(_cf, _sys, _x13, 0.5, 8, seed=True)),
    "fractional-dims": (BadDimsError, lambda: make_truncation_system([2.7, 5])),
    "bool-dims": (BadDimsError, lambda: make_truncation_system([True, 5])),
    "fractional-connect": (BadDimsError, lambda: _sys.connect(2.0, 3, [1.0, 2.0, 3.0])),
    "fractional-project": (BadDimsError, lambda: _sys.project(2.0, _x13)),
    "fractional-cylinder-evaluation": (
        PreconditionFailedError,
        lambda: cyl_eval(make_cylinder("supnorm", 2.0), make_truncation_system([2, 3]), _x13),
    ),
}


@pytest.mark.parametrize("error, call", list(_REFUSED.values()), ids=list(_REFUSED))
def test_unusable_projective_arguments_are_typed_refusals(error, call):
    with pytest.raises(error):
        call()


def test_numpy_integer_dimensions_are_integers():
    sys_ = make_truncation_system(np.array([2, 3, 5]))
    cf = make_cylinder("supnorm", np.int64(3))
    assert cyl_eval(cf, sys_, _x13) == 3.0
    assert sys_.connect(np.int32(2), np.int64(3), [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0]
