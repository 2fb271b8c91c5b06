"""Difference-quotient traces and differentiability verdicts.

Exactness claims (bitwise == on derivatives) hold because fixture data
lives on a dyadic lattice: the norms are then piecewise-linear with
exactly representable slopes and the quotients carry no rounding at all.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachdiff.diffengine import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    MAX_STEPS,
    DiffVerdict,
    Functional,
    QuotientTrace,
    TGrid,
    VerdictStatus,
    _fit_rep,
    _quotient_trace,
    _unit_ball_directions,
    directional_quotient,
    frechet_verdict,
    gateaux_verdict,
    hadamard_verdict,
    local_lipschitz_estimate,
    norm_functional,
    one_sided_derivatives,
)
from banachdiff.errors import (
    EvalFailureError,
    NonconvergentPerturbationError,
    PreconditionFailedError,
    SpaceMismatchError,
    ToolkitError,
)
from banachdiff.oracles import (
    RepKind,
    apply_rep,
    coeff_rep,
    oracle_csup,
    oracle_linf,
    point_mass_rep,
    witness_Linf,
    witness_linf,
    witness_nbv,
)
from banachdiff.projective import CYL_BASES, _lift_direction, cyl_gateaux, make_cylinder, make_truncation_system
from banachdiff.spaces import (
    FUNCTION_SPACES,
    SEQUENCE_SPACES,
    Space,
    constant_fn,
    eval_norm,
    linear_combine,
    pw_from_values,
    pw_point,
    seq_point,
    step_fn,
    value_at,
)

from conftest import GRID, lattice, midpoint_knots

EXACT = TGrid(t0=2.0 ** -4, rho=0.5, count=9)

dyadics = st.integers(-128, 128).map(lambda k: k * GRID)


# -- grids and raw quotients -------------------------------------------------


def test_grid_steps_are_geometric():
    g = TGrid(t0=0.5, rho=0.5, count=4)
    assert list(g.steps()) == [0.5, 0.25, 0.125, 0.0625]
    assert DEFAULT_GRID.steps()[0] == 0.0625
    assert len(DEFAULT_GRID.steps()) == 20


def test_grid_rejects_bad_parameters():
    with pytest.raises(PreconditionFailedError):
        TGrid(t0=0.0, rho=0.5, count=4).steps()
    with pytest.raises(PreconditionFailedError):
        TGrid(t0=0.5, rho=1.5, count=4).steps()
    with pytest.raises(PreconditionFailedError):
        TGrid(t0=0.5, rho=0.5, count=1).steps()
    # every step must be a positive normal float
    for t0, rho, count in (
        (math.inf, 0.5, 5),
        (math.nan, 0.5, 5),
        (1e-300, 1e-10, 5),  # the steps underflow to 0
        (1.0, 0.5, 1040),  # the smallest step 2**-1039 is subnormal
    ):
        with pytest.raises(PreconditionFailedError):
            TGrid(t0=t0, rho=rho, count=count)


def test_grid_accepts_a_smallest_step_at_the_least_normal_float():
    g = TGrid(t0=1.0, rho=0.5, count=1023)
    assert g.steps()[-1] == 2.0**-1022


def test_grid_refuses_a_fractional_or_oversized_count_before_building_steps():
    tracemalloc.start()
    try:
        for count in (3.5, MAX_STEPS + 1, 10**7, math.inf):
            with pytest.raises(PreconditionFailedError, match="count must be an integer"):
                TGrid(t0=1.0, rho=1.0 - 1e-7, count=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert TGrid(t0=1.0, rho=0.99, count=MAX_STEPS).steps().shape == (MAX_STEPS,)


def test_directional_quotient_rejects_zero_step():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0])
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(PreconditionFailedError):
            directional_quotient(f, x, x, t)


def test_directional_quotient_reads_each_side_of_a_kink():
    # |x1 + t| + |x2 + t/2| at x = (0, -2): slopes 1 - 1/2 ahead, -1 - 1/2 behind
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [0.0, -2.0])
    h = seq_point(Space.L1_SEQ, [1.0, 0.5])
    for g in (f, _scalar(f)):
        assert directional_quotient(g, x, h, 0.25) == 0.5
        assert directional_quotient(g, x, h, -0.25) == -1.5


def test_non_finite_values_are_eval_failures():
    x = seq_point(Space.L1_SEQ, [1.0])
    with pytest.raises(EvalFailureError):
        Functional("overflow", lambda p: math.inf)(x)
    with pytest.raises(EvalFailureError):
        Functional("undefined", lambda p: math.nan)(x)
    with pytest.raises(EvalFailureError):
        Functional("overflowing", lambda p: math.exp(1000.0))(x)


def _series_limit(qs, tol):
    """The limit the trace builder reads off the quotient sequence ``qs``,
    forward and backward alike, over a dyadic grid: multiplying by a power
    of two and dividing back is exact."""
    grid = TGrid(t0=1.0, rho=0.5, count=len(qs))
    ahead = np.asarray(qs) * grid.steps()
    (tr,) = _quotient_trace(np.concatenate((ahead, -ahead))[None], 0.0, grid, tol, [math.inf])
    assert tr.forward_q == tr.backward_q == tuple(qs)
    return tr.d_plus


def test_series_limit_prefers_the_tightest_plateau():
    # exactly constant: converged, last value, regardless of tol
    assert _series_limit([2.0, 2.0, 2.0], 1e-12) == 2.0
    # noisy tail: the early plateau wins over the drifting small steps
    qs = [1.0, 1.0, 1.0, 1.0 + 3e-9, 1.0 - 4e-9]
    assert _series_limit(qs, 1e-9) == 1.0
    # nothing settles: not converged
    assert _series_limit([1.0, 2.0, 4.0, 8.0], 1e-9) is None


def test_series_limit_ignores_accidental_bitwise_ties():
    # Two noise-corrupted quotients that happen to be bit-identical form a
    # zero gap, but their window is torn open by the drift on either side.
    # The corroborated early plateau must win even though its own gaps are
    # small-but-nonzero rather than exactly zero.
    qs = [1.0, 1.0 + 1e-14, 1.0 + 2e-14, 1.0 + 5e-9, 1.0 + 5e-9]
    assert _series_limit(qs, 1e-9) == 1.0 + 2e-14
    # a lone agreeing pair with disagreeing neighbours is not convergence
    assert _series_limit([1.0, 3.0, 3.0 + 1e-12, 6.0], 1e-9) is None


# -- one-sided derivatives ---------------------------------------------------


def test_kink_quotients_are_exact():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [2.0, -2.0, 1.0])
    tr = one_sided_derivatives(f, x, witness_linf(x), EXACT)
    assert tr.d_plus == 1.0
    assert tr.d_minus == -1.0
    assert tr.converged_plus and tr.converged_minus
    # every single quotient is exactly +/-1, not merely the limits
    assert set(tr.forward_q) == {1.0}
    assert set(tr.backward_q) == {-1.0}


def test_trace_invariant_limit_present_iff_converged():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0, 0.5])
    h = seq_point(Space.L1_SEQ, [1.0, 1.0])
    tr = one_sided_derivatives(f, x, h, EXACT)
    assert (tr.d_plus is None) == (not tr.converged_plus)
    assert (tr.d_minus is None) == (not tr.converged_minus)


@given(st.lists(dyadics, min_size=2, max_size=12), st.lists(dyadics, min_size=2, max_size=12))
def test_reflection_identity(xs, hs):
    # d_plus(f, x, -h) == -d_minus(f, x, h), quotient by quotient
    n = min(len(xs), len(hs))
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, xs[:n])
    h = seq_point(Space.LINF_SEQ, hs[:n])
    neg = seq_point(Space.LINF_SEQ, [-v for v in hs[:n]])
    a = one_sided_derivatives(f, x, h, EXACT)
    b = one_sided_derivatives(f, x, neg, EXACT)
    assert all(bf == -af for bf, af in zip(b.forward_q, a.backward_q))
    assert all(bb == -ab for bb, ab in zip(b.backward_q, a.forward_q))


# -- verdicts ----------------------------------------------------------------


def test_dominant_point_verdict_matches_the_closed_form(rng):
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [0.5, -3.0, 1.0])
    probe = seq_point(Space.LINF_SEQ, lattice(rng, -1.0, 1.0, 3))
    v = gateaux_verdict(f, x, [probe], EXACT)
    assert v.status is VerdictStatus.GATEAUX
    want = oracle_linf(x, 0.5)
    for _ in range(20):
        d = seq_point(Space.LINF_SEQ, lattice(rng, -1.0, 1.0, 3))
        assert apply_rep(v.derivative, d) == apply_rep(want, d)


def test_tie_point_verdict_carries_a_split_witness():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [2.0, -2.0, 1.0])
    v = gateaux_verdict(f, x, [witness_linf(x)], EXACT)
    assert v.status is VerdictStatus.NOT_GATEAUX
    assert v.failure_witness is not None
    tr = one_sided_derivatives(f, x, v.failure_witness, EXACT)
    assert tr.d_plus is not None and tr.d_minus is not None
    assert abs(tr.d_plus - tr.d_minus) > DEFAULT_TOL


def test_unique_peak_verdict_matches_the_point_mass(rng):
    f = norm_functional(Space.C_AB)
    peak = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 2.0, 0.5])
    probe = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.25, -0.5, 0.125])
    v = gateaux_verdict(f, peak, [probe], EXACT)
    assert v.status is VerdictStatus.GATEAUX
    want = oracle_csup(peak, 0.25)
    for vals in ([1.0, 0.5, -1.0], [0.0, 0.25, 0.5], [-0.5, -0.25, 0.75]):
        d = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], vals)
        assert abs(apply_rep(v.derivative, d) - apply_rep(want, d)) <= DEFAULT_TOL


def test_smooth_functional_needs_the_looser_tolerance():
    # ||x||^2 has curvature: quotients drift linearly in t, so the strict
    # default tolerance refuses to certify; a deeper grid with tol 1e-6
    # (the right configuration for anything non-piecewise-linear) accepts
    sq = Functional("sum_norm_squared", lambda p: eval_norm(p).value ** 2, Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0, 0.5])
    h = seq_point(Space.L1_SEQ, [1.0, 1.0])
    strict = gateaux_verdict(sq, x, [h], DEFAULT_GRID, DEFAULT_TOL)
    assert strict.status is VerdictStatus.INCONCLUSIVE
    deep = TGrid(t0=2.0 ** -7, rho=0.5, count=20)
    loose = gateaux_verdict(sq, x, [h], deep, 1e-6)
    assert loose.status is VerdictStatus.GATEAUX
    # d/dt ||x + t h||_1 * 2||x|| = 2 * 1.5 * 2 = 6 along the all-ones h
    assert apply_rep(loose.derivative, h) == pytest.approx(6.0, abs=1e-5)


def test_noise_floor_does_not_masquerade_as_a_kink():
    # a functional with an irrational-weight term: its values carry full
    # mantissas, so the smallest steps see pure cancellation noise; the
    # verdict must still certify, not report a phantom kink
    w = Functional(
        "weighted_first_two",
        lambda p: abs(float(p.coords[0])) + abs(float(p.coords[1])) / 9.0,
        Space.LINF_SEQ,
    )
    x = seq_point(Space.LINF_SEQ, [1.0, -2.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 1.0])
    v = gateaux_verdict(w, x, [h], DEFAULT_GRID, DEFAULT_TOL)
    assert v.status is VerdictStatus.GATEAUX
    assert apply_rep(v.derivative, h) == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-8)


def test_fit_stage_finds_the_kink_the_probe_misses():
    # the probe runs along the signed coordinate, where the sum norm is
    # linear; only the canonical direction e2 crosses the zero coordinate
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0, 0.0])
    v = gateaux_verdict(f, x, [seq_point(Space.L1_SEQ, [1.0, 0.0])], EXACT)
    assert v.status is VerdictStatus.NOT_GATEAUX
    assert v.failure_witness == seq_point(Space.L1_SEQ, [0.0, 1.0])
    assert "canonical fit direction 1" in v.detail


def test_far_field_steps_are_not_a_plateau():
    # below 1.1e-7, the smallest default step, |x| = 1e-11 is still nonzero:
    # every quotient is read where the step dwarfs x, and the backward
    # quotients settle on -0.99999999872, the far-field slope, not the limit 1
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1e-11, 0.0])
    h = seq_point(Space.L1_SEQ, [1.0, 0.0])
    tr = one_sided_derivatives(f, x, h)
    assert not tr.reached and tr.d_plus is None and tr.d_minus is None
    for v in (gateaux_verdict(f, x, [h]), hadamard_verdict(f, x, h, [[h]])):
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert "reaches the scale of x" in v.detail


def test_hadamard_accepts_collapsing_families():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5])
    h = seq_point(Space.LINF_SEQ, [1.0, -0.5, 0.25])
    noise = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.0])
    fam = [linear_combine(1.0, h, 4.0 ** -k, noise) for k in range(1, 17)]
    v = hadamard_verdict(f, x, h, [fam], EXACT)
    assert v.status is VerdictStatus.HADAMARD
    assert v.value == 1.0
    assert len(v.traces) == 2  # plain direction + one family


def test_hadamard_rejects_non_collapsing_families():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5])
    h = seq_point(Space.LINF_SEQ, [1.0, -0.5, 0.25])
    noise = seq_point(Space.LINF_SEQ, [0.0, 1.0, 0.0])
    growing = [linear_combine(1.0, h, 4.0 ** k, noise) for k in range(5)]
    with pytest.raises(NonconvergentPerturbationError):
        hadamard_verdict(f, x, h, [growing], EXACT)
    stalled = [linear_combine(1.0, h, 2.0 ** -k, noise) for k in range(3)]  # ends 0.25 from h
    with pytest.raises(NonconvergentPerturbationError, match="does not approach the direction within tol"):
        hadamard_verdict(f, x, h, [stalled], EXACT)
    with pytest.raises(PreconditionFailedError):
        hadamard_verdict(f, x, h, [], EXACT)


def test_hadamard_pairs_only_the_first_grid_count_members_with_steps():
    # the family comes within tol of h only at j = 44; the 20 members paired
    # with the default grid's 20 steps give quotients 1 + 2**-j, j <= 20,
    # none within tol of the directional limit 1
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [2.0, 1.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 0.0])
    fam = [seq_point(Space.LINF_SEQ, [1.0 + 2.0 ** -j, 0.0]) for j in range(1, 45)]
    v = hadamard_verdict(f, x, h, [fam])
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == "perturbation family 0 does not reproduce the directional limit"


def test_hadamard_sees_the_kink_through_the_plain_direction():
    f = norm_functional(Space.LINF_SEQ)
    tie = seq_point(Space.LINF_SEQ, [2.0, -2.0, 0.0])
    w = witness_linf(tie)
    v = hadamard_verdict(f, tie, w, [[w]], EXACT)
    assert v.status is VerdictStatus.NOT_GATEAUX


def test_frechet_certificate_has_identically_zero_remainders():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5])
    u = oracle_linf(x, 1.0)
    samples = []
    for k in range(3):
        for s in (1.0, -1.0):
            e = np.zeros(3)
            e[k] = s
            samples.append(seq_point(Space.LINF_SEQ, e))
    v = frechet_verdict(f, x, u, samples, [0.25, 0.125, 0.0625])
    assert v.status is VerdictStatus.FRECHET
    assert all(r == 0.0 for _, r in v.remainder_profile)


def test_frechet_rejects_a_wrong_candidate():
    from banachdiff.oracles import signed_index_rep

    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0, 0.5])
    wrong = signed_index_rep(2, 1.0)
    e1 = seq_point(Space.LINF_SEQ, [1.0, 0.0, 0.0])
    v = frechet_verdict(f, x, wrong, [e1], [0.25, 0.125])
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.remainder_profile[-1][1] > 0.5


def test_frechet_polices_its_inputs():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0])
    u = oracle_linf(x, 1.0)
    e1 = seq_point(Space.LINF_SEQ, [1.0, 0.0])
    big = seq_point(Space.LINF_SEQ, [2.0, 0.0])
    with pytest.raises(PreconditionFailedError):
        frechet_verdict(f, x, u, [big], [0.25, 0.125])  # not a unit vector
    with pytest.raises(PreconditionFailedError):
        frechet_verdict(f, x, u, [e1], [0.125, 0.25])  # radii must decrease
    with pytest.raises(PreconditionFailedError):
        frechet_verdict(f, x, u, [], [0.25])
    for radii in ([], [math.inf, 0.25], [0.25, math.nan], [0.25, 0.0]):
        with pytest.raises(PreconditionFailedError):
            frechet_verdict(f, x, u, [e1], radii)
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(PreconditionFailedError, match="tol must be finite and positive"):
            frechet_verdict(f, x, u, [e1], [0.25, 0.125], tol)


# -- Lipschitz sampling ------------------------------------------------------


def test_norm_lipschitz_estimate_brackets_one():
    # an axis-aligned antipodal pair realizes ratio exactly 1; pairs along
    # non-lattice noise directions may exceed it only by rounding dust
    for space in (Space.L1_SEQ, Space.LINF_SEQ):
        f = norm_functional(space)
        x = seq_point(space, [1.0, -0.5, 0.25, 2.0])
        est = local_lipschitz_estimate(f, x, 0.5, 64, seed=7)
        assert 1.0 <= est <= 1.0 + 1e-12


def test_lipschitz_estimate_polices_inputs():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0])
    with pytest.raises(PreconditionFailedError):
        local_lipschitz_estimate(f, x, 0.0, 8, seed=1)
    with pytest.raises(PreconditionFailedError):
        local_lipschitz_estimate(f, x, math.inf, 8, seed=1)
    with pytest.raises(PreconditionFailedError):
        local_lipschitz_estimate(f, x, 0.5, 0, seed=1)


# -- off the dyadic lattice ----------------------------------------------------


def _uniform_cab(rng):
    """C_AB interpolant through uniform random knots and values."""
    m = int(rng.integers(1, 8))
    knots = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, m)), [1.0]))
    return pw_from_values(Space.C_AB, knots, rng.uniform(-1.0, 1.0, m + 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_off_lattice_continuous_points_build_combine_and_differentiate(seed):
    # uniform knots and values: continuity can no longer hold bitwise in a
    # segment representation, but knot values keep it by construction
    rng = np.random.default_rng(seed)
    x, h = _uniform_cab(rng), _uniform_cab(rng)
    s = linear_combine(float(rng.uniform(-2.0, 2.0)), x, float(rng.uniform(-2.0, 2.0)), h)
    assert s.lefts is s.values
    verdict = gateaux_verdict(norm_functional(Space.C_AB), x, [h])
    assert verdict.status in tuple(VerdictStatus)


# -- batch evaluation along a line -------------------------------------------


def _scalar(f: Functional) -> Functional:
    """The same functional without its batch evaluator: one point per step."""
    return dataclasses.replace(f, batch=None)


def _bits(tr):
    def hx(q):
        return None if q is None else float(q).hex()

    return [hx(q) for q in tr.forward_q], [hx(q) for q in tr.backward_q], hx(tr.d_plus), hx(tr.d_minus)


def _random_point(rng, space, on_lattice, dim):
    """A point with ties, zeros and (LINF_R, NBV_AB) a jump, on or off the lattice."""
    if space not in FUNCTION_SPACES:
        c = lattice(rng, -2.0, 2.0, dim) if on_lattice else rng.uniform(-2.0, 2.0, dim)
        c[rng.integers(0, dim)] = np.abs(c).max() * rng.choice([-1.0, 1.0])  # a tie, if dim > 1
        c[rng.integers(0, dim)] *= rng.integers(0, 2)
        return seq_point(space, c)
    if on_lattice:
        knots = [0.0, *midpoint_knots(rng, int(rng.integers(0, 6))), 1.0]
        vals = lattice(rng, -2.0, 2.0, len(knots))
    else:
        knots = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, int(rng.integers(0, 6)))), [1.0]))
        vals = rng.uniform(-2.0, 2.0, knots.shape[0])
    if space is Space.NBV_AB:
        vals[0] = 0.0
    f = pw_from_values(space, knots, vals)
    if space is Space.C_AB:
        return f
    at = float(lattice(rng, 0.25, 0.75, 1)[0]) if on_lattice else float(rng.uniform(0.1, 0.9))
    jump = float(lattice(rng, -1.0, 1.0, 1)[0]) if on_lattice else float(rng.uniform(-1.0, 1.0))
    return linear_combine(1.0, f, jump, step_fn(space, 0.0, 1.0, at, 0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Space)),
    st.booleans(),
    st.sampled_from([DEFAULT_GRID, EXACT, TGrid(t0=0.1, rho=0.3, count=25)]),
)
def test_batch_traces_equal_the_scalar_path_bitwise(seed, space, on_lattice, grid):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    x, h = (_random_point(rng, space, on_lattice, dim) for _ in range(2))
    f = norm_functional(space)
    assert f.batch is not None
    batched = one_sided_derivatives(f, x, h, grid)
    assert _bits(batched) == _bits(one_sided_derivatives(_scalar(f), x, h, grid))
    for steps in (grid.steps(), np.empty(0)):
        values = f.along(x, h, steps)
        assert values.dtype == float and values.tobytes() == _scalar(f).along(x, h, steps).tobytes()
    verdict = gateaux_verdict(f, x, [h], grid)
    scalar_verdict = gateaux_verdict(_scalar(f), x, [h], grid)
    assert json.dumps(verdict.to_dict(), default=float) == json.dumps(scalar_verdict.to_dict(), default=float)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.booleans(), st.sampled_from(sorted(CYL_BASES)))
def test_cylinder_base_batches_equal_the_scalar_path_bitwise(seed, dim, on_lattice, base):
    rng = np.random.default_rng(seed)
    x, h = (_random_point(rng, Space.RT, on_lattice, dim) for _ in range(2))
    f = CYL_BASES[base]()
    assert f.batch is not None
    assert _bits(one_sided_derivatives(f, x, h)) == _bits(one_sided_derivatives(_scalar(f), x, h))


def _error_of(f, x, h, grid, error):
    with pytest.raises(error) as info:
        one_sided_derivatives(f, x, h, grid)
    return str(info.value), info.value.context


@pytest.mark.parametrize(
    "x, h, grid, error",
    [
        (seq_point(Space.LINF_SEQ, [3.0, 1.0]), seq_point(Space.L1_SEQ, [1.0, 0.0]), DEFAULT_GRID, SpaceMismatchError),
        (
            seq_point(Space.LINF_SEQ, [3.0, 1.0]),
            seq_point(Space.LINF_SEQ, [1.0, 0.0, 0.0]),
            DEFAULT_GRID,
            SpaceMismatchError,
        ),
        (
            constant_fn(Space.C_AB, 0.0, 1.0, 1.0),
            constant_fn(Space.C_AB, 0.0, 2.0, 1.0),
            DEFAULT_GRID,
            SpaceMismatchError,
        ),
        # x + t*h overflows at the first step
        (
            seq_point(Space.LINF_SEQ, [1e308, 1.0]),
            seq_point(Space.LINF_SEQ, [1e308, 0.0]),
            TGrid(1.0, 0.5, 5),
            EvalFailureError,
        ),
        # x + t*h is finite but its norm overflows
        (
            seq_point(Space.L1_SEQ, [8.9e307] * 2),
            seq_point(Space.L1_SEQ, [1e306] * 2),
            TGrid(16.0, 0.5, 5),
            EvalFailureError,
        ),
        # a finite step times a finite direction overflows
        (
            seq_point(Space.LINF_SEQ, [3.0, 1.0]),
            seq_point(Space.LINF_SEQ, [1e300, 0.0]),
            TGrid(1e10, 0.5, 5),
            EvalFailureError,
        ),
    ],
    ids=[
        "other-space", "other-length", "other-domain", "combination-overflow", "norm-overflow",
        "infinite-scaled-direction",
    ],
)
def test_batch_raises_what_the_scalar_path_raises(x, h, grid, error):
    f = norm_functional(x.space)
    assert _error_of(f, x, h, grid, error) == _error_of(_scalar(f), x, h, grid, error)


def test_infinite_step_raises_alike_in_batch_and_scalar_paths():
    # no TGrid has an infinite step, but Functional.along takes any steps
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0])
    h = seq_point(Space.LINF_SEQ, [1.0, 0.0])
    errors = []
    for g in (f, _scalar(f)):
        with pytest.raises(EvalFailureError) as info:
            g.along(x, h, np.array([1.0, math.inf]))
        errors.append((str(info.value), info.value.context))
    assert errors[0] == errors[1]


# -- Fréchet profiles and unit-ball directions ---------------------------------


def _pointwise_profile(f, x, u, samples, radii):
    """The remainder profile as a loop over radii, then samples, one
    ``linear_combine`` and one evaluation per pair."""
    fx = f(x)
    applied = [apply_rep(u, h) for h in samples]
    profile = []
    for s in radii:
        worst = 0.0
        for h, uh in zip(samples, applied):
            rem = abs(f(linear_combine(1.0, x, s, h)) - fx - s * uh) / s
            if rem > worst:
                worst = rem
        profile.append((s, worst))
    return profile


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Space)), st.booleans(), st.booleans())
def test_frechet_profile_equals_the_pointwise_loop_bitwise(seed, space, on_lattice, batched):
    rng = np.random.default_rng(seed)
    x = _random_point(rng, space, on_lattice, int(rng.integers(1, 9)))
    samples = _unit_ball_directions(x, rng, int(rng.integers(1, 7)))
    if x.coords is not None:
        u = coeff_rep(lattice(rng, -1.0, 1.0, x.dim) if on_lattice else rng.uniform(-1.0, 1.0, x.dim))
    else:
        u = point_mass_rep(float(rng.uniform(x.a, x.b)), float(rng.choice([-1.0, 1.0])))
    radii = [0.25, 0.125, 0.0625] if on_lattice else sorted(rng.uniform(1e-6, 1.0, 3).tolist(), reverse=True)
    f = norm_functional(space) if batched else _scalar(norm_functional(space))
    got = frechet_verdict(f, x, u, samples, radii).remainder_profile
    want = _pointwise_profile(f, x, u, samples, radii)
    assert [(s.hex(), r.hex()) for s, r in got] == [(s.hex(), r.hex()) for s, r in want]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Space)), st.booleans())
def test_unit_ball_directions_are_unit_in_the_space_norm(seed, space, on_lattice):
    rng = np.random.default_rng(seed)
    x = _random_point(rng, space, on_lattice, int(rng.integers(1, 14)))
    for d in _unit_ball_directions(x, rng, 12):
        assert d.space is space
        assert abs(eval_norm(d).value - 1.0) <= 1e-12


# -- stage-batched verdicts against one direction at a time -------------------


def _window_limit(qs, tol, start):
    """The limit of the quotients ``qs`` as a loop over windows: the earliest
    window from ``start`` on with the smallest worst gap, if under tol."""
    best_i, best = 0, math.inf
    for i in range(start, len(qs) - 2):
        score = max(abs(qs[i + 1] - qs[i]), abs(qs[i + 2] - qs[i + 1]))
        if score < best:
            best, best_i = score, i
    return qs[best_i + 2] if best < tol else None


def _norm_or_inf(p):
    try:
        return eval_norm(p).value
    except EvalFailureError:
        return math.inf


def _one_trace(f, x, h, grid, tol, fx, nx):
    """The trace along h from one evaluation of f per signed step, +steps
    first, with quotients and limits computed one float at a time."""
    steps = grid.steps().tolist()
    signed = steps + [-t for t in steps]
    q = [(f(linear_combine(1.0, x, s, h)) - fx) / s for s in signed]
    for s, v in zip(signed, q):
        if not math.isfinite(v):
            raise EvalFailureError("difference quotient overflows", step=s)
    nh = _norm_or_inf(h)
    reach = nx / nh if 0.0 < nx < math.inf and 0.0 < nh < math.inf else math.inf
    start = max(0, next((k for k, t in enumerate(steps) if t <= reach), len(steps)) - 2)
    n = len(steps)
    fq, bq = q[:n], q[n:]
    return QuotientTrace(
        tuple(steps), tuple(fq), tuple(bq), _window_limit(fq, tol, start), _window_limit(bq, tol, start), reach
    )


def _reference_fit_directions(x):
    if x.space in SEQUENCE_SPACES:
        return [seq_point(x.space, np.eye(x.dim)[k]) for k in range(x.dim)]
    if x.space in (Space.C_AB, Space.LINF_R):
        return [pw_from_values(x.space, x.knots, np.ones_like(x.knots)), pw_from_values(x.space, x.knots, x.knots)]
    return []


def _reference_verdict(f, x, probes, grid=DEFAULT_GRID, tol=DEFAULT_TOL):
    """gateaux_verdict one direction at a time: the probes, the linearity
    pairs and the canonical fit directions in turn, each traced by
    :func:`_one_trace` and judged before the next is evaluated."""
    fx, nx = f(x), _norm_or_inf(x)
    traces = []

    def verdict(status, detail="", **fields):
        return DiffVerdict(status=status, traces=tuple(traces), detail=detail, **fields)

    def limit(h, stage):
        tr = _one_trace(f, x, h, grid, tol, fx, nx)
        traces.append(tr)
        if tr.split(tol):
            return verdict(
                VerdictStatus.NOT_GATEAUX,
                f"one-sided limits disagree along {stage}: d_plus={tr.d_plus}, d_minus={tr.d_minus}",
                failure_witness=h,
            )
        if tr.d_plus is None or tr.d_minus is None:
            return verdict(VerdictStatus.INCONCLUSIVE, tr.unsettled(stage))
        return tr.d_plus

    responses = []
    for i, h in enumerate(probes):
        d = limit(h, f"probe {i}")
        if isinstance(d, DiffVerdict):
            return d
        responses.append(d)
    pairs = []
    if len(probes) >= 2 and probes[0].space is probes[1].space:
        pairs.append((linear_combine(1.0, probes[0], 1.0, probes[1]), responses[0] + responses[1], "probe 0 + probe 1"))
    pairs.append((linear_combine(2.0, probes[0], 0.0, probes[0]), 2.0 * responses[0], "2 * probe 0"))
    for h, expected, stage in pairs:
        d = limit(h, stage)
        if isinstance(d, DiffVerdict):
            return d
        if abs(d - expected) > tol * max(1.0, abs(expected)):
            return verdict(
                VerdictStatus.INCONCLUSIVE,
                f"directional limits exist on the probes but are not linear across them: "
                f"{d} along {stage}, expected {expected}",
            )
    fit = []
    for k, h in enumerate(_reference_fit_directions(x)):
        d = limit(h, f"canonical fit direction {k}")
        if isinstance(d, DiffVerdict):
            return d
        fit.append(d)
    rep = _fit_rep(x, fit, responses, tol)
    if rep is None:
        return verdict(VerdictStatus.INCONCLUSIVE, "directional limits exist but no sparse representation reproduces them")
    for i, h in enumerate(probes):
        got = apply_rep(rep, h)
        if abs(got - responses[i]) > tol * max(1.0, abs(responses[i])):
            return verdict(
                VerdictStatus.INCONCLUSIVE, f"fitted representation disagrees with probe {i}: {got} vs {responses[i]}"
            )
    return verdict(VerdictStatus.GATEAUX, derivative=rep)


def _outcome(run):
    """A verdict's report as JSON text, or the error it raised."""
    try:
        return json.dumps(run().to_dict(), default=float)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc), exc.context


def _assert_same_verdict(f, x, probes, grid=DEFAULT_GRID):
    want = _outcome(lambda: _reference_verdict(f, x, probes, grid))
    assert _outcome(lambda: gateaux_verdict(f, x, probes, grid)) == want
    assert _outcome(lambda: gateaux_verdict(_scalar(f), x, probes, grid)) == want
    return want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Space)),
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from([DEFAULT_GRID, EXACT]),
)
def test_stage_batched_verdicts_equal_one_direction_at_a_time(seed, space, on_lattice, probe_count, grid):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    x = _random_point(rng, space, on_lattice, dim)
    probes = [_random_point(rng, space, on_lattice, dim) for _ in range(probe_count)]
    if rng.integers(0, 2) and space in SEQUENCE_SPACES:
        probes[0] = seq_point(space, np.eye(dim)[rng.integers(0, dim)])  # may cross a zero coordinate
    _assert_same_verdict(norm_functional(space), x, probes, grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(), st.sampled_from(sorted(CYL_BASES)))
def test_cylinder_verdicts_equal_one_direction_at_a_time(seed, dim, on_lattice, base):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, dim + 1))
    x, h = (_random_point(rng, Space.LINF_SEQ, on_lattice, dim) for _ in range(2))
    cf, sys_ = make_cylinder(base, t), make_truncation_system(sorted({t, dim}))
    ref = _reference_verdict(cf.base, sys_.project(t, x), [sys_.project(t, h)])
    if ref.failure_witness is not None:
        ref = dataclasses.replace(ref, failure_witness=_lift_direction(ref.failure_witness, x))
    got = cyl_gateaux(cf, sys_, x, h)
    assert json.dumps(got.to_dict(), default=float) == json.dumps(ref.to_dict(), default=float)


def _tie_linf():
    x = seq_point(Space.LINF_SEQ, [2.0, -2.0, 1.0, 0.5])
    return x, [witness_linf(x), seq_point(Space.LINF_SEQ, [0.0, 0.0, 1.0, 0.0]), seq_point(Space.LINF_SEQ, [1.0] * 4)]


def _zero_l1():
    x = seq_point(Space.L1_SEQ, [1.0, 0.0, -0.5])
    return x, [seq_point(Space.L1_SEQ, [0.25, 1.0, 0.0]), seq_point(Space.L1_SEQ, [1.0, 0.0, 0.0])]


def _tie_linf_r():
    x = pw_from_values(Space.LINF_R, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, -1.0, 0.0])
    return x, [witness_Linf(x), constant_fn(Space.LINF_R, 0.0, 1.0, 1.0)]


def _step_nbv():
    x = pw_point(Space.NBV_AB, 0.0, 1.0, [0.5], [1.0, -1.0], [0.0, 1.0])
    return x, [witness_nbv(x), step_fn(Space.NBV_AB, 0.0, 1.0, 0.25, 0.0, 1.0)]


@pytest.mark.parametrize("fixture", [_tie_linf, _zero_l1, _tie_linf_r, _step_nbv])
def test_a_split_probe_0_ends_the_verdict_before_the_probes_stacked_with_it(fixture):
    x, probes = fixture()
    _assert_same_verdict(norm_functional(x.space), x, probes, EXACT)
    v = gateaux_verdict(norm_functional(x.space), x, probes, EXACT)
    assert v.status is VerdictStatus.NOT_GATEAUX and "probe 0" in v.detail
    assert v.failure_witness is probes[0] and len(v.traces) == 1


@pytest.mark.parametrize(
    "x, probes, grid, message",
    [
        # x + t*h overflows for the second probe: the stack's combination raises
        (
            seq_point(Space.LINF_SEQ, [1e308, 1.0]),
            [seq_point(Space.LINF_SEQ, [0.0, 1.0]), seq_point(Space.LINF_SEQ, [1e308, 0.0])],
            TGrid(1.0, 0.5, 5),
            "linear combination overflows",
        ),
        # the second probe's norm overflows: its row of the stack is infinite
        (
            seq_point(Space.L1_SEQ, [8.9e307, 8.9e307]),
            [seq_point(Space.L1_SEQ, [1.0, 0.0]), seq_point(Space.L1_SEQ, [1e306, 1e306])],
            TGrid(16.0, 0.5, 5),
            "norm evaluates to inf, not a finite number",
        ),
        # the second probe's values are finite but a quotient overflows
        (
            seq_point(Space.L1_SEQ, [1.0, 1.0]),
            [seq_point(Space.L1_SEQ, [1.0, 0.0]), seq_point(Space.L1_SEQ, [1e308, 1e308])],
            TGrid(0.5, 0.5, 3),
            "difference quotient overflows",
        ),
    ],
    ids=["combination-overflow", "norm-overflow", "quotient-overflow"],
)
def test_a_stack_that_overflows_raises_what_one_direction_at_a_time_raises(x, probes, grid, message):
    outcome = _assert_same_verdict(norm_functional(x.space), x, probes, grid)
    assert outcome[:2] == ("EvalFailureError", message)


def test_a_probe_of_another_space_raises_once_probe_0_is_judged():
    f = norm_functional(Space.L1_SEQ)
    other = seq_point(Space.LINF_SEQ, [0.0, 1.0])
    # probe 0 has a limit, so the verdict goes on to probe 1, which cannot be combined with x
    x = seq_point(Space.L1_SEQ, [1.0, -2.0])
    outcome = _assert_same_verdict(f, x, [seq_point(Space.L1_SEQ, [1.0, 0.0]), other])
    assert outcome[:2] == ("SpaceMismatchError", "cannot combine L1_SEQ with LINF_SEQ")
    # probe 0 splits at a zero coordinate: the verdict ends before probe 1
    x = seq_point(Space.L1_SEQ, [0.0, -2.0])
    _assert_same_verdict(f, x, [seq_point(Space.L1_SEQ, [1.0, 0.0]), other])
    assert gateaux_verdict(f, x, [seq_point(Space.L1_SEQ, [1.0, 0.0]), other]).status is VerdictStatus.NOT_GATEAUX


def test_fit_reports_zero_and_gives_up_on_non_unit_point_evaluations():
    const = Functional("const", lambda p: 1.5)
    x = seq_point(Space.L1_SEQ, [1.0, 2.0])
    probes = [seq_point(Space.L1_SEQ, [1.0, -1.0])]
    _assert_same_verdict(const, x, probes)
    v = gateaux_verdict(const, x, probes)
    assert v.status is VerdictStatus.GATEAUX and v.derivative.kind is RepKind.ZERO
    # twice the sup norm responds 2 to the constant one at the tent's peak:
    # not a unit point evaluation, the only sparse form a C_AB fit knows
    twice = Functional("twice_csup", lambda p: 2.0 * eval_norm(p).value)
    tent = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    probes = [constant_fn(Space.C_AB, 0.0, 1.0, 1.0)]
    _assert_same_verdict(twice, tent, probes)
    v = gateaux_verdict(twice, tent, probes)
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == "directional limits exist but no sparse representation reproduces them"


def test_a_fit_that_misses_a_probe_is_inconclusive():
    # the fit reads coefficients (1, 1) off the coordinate vectors, which
    # predict 2 along (1, 1); the probe reads the cube root of 2
    f = Functional("cbrt_of_cubes", lambda p: float(np.cbrt(p.coords[0] ** 3 + p.coords[1] ** 3)))
    x, probes = seq_point(Space.L1_SEQ, [0.0, 0.0]), [seq_point(Space.L1_SEQ, [1.0, 1.0])]
    _assert_same_verdict(f, x, probes)
    v = gateaux_verdict(f, x, probes)
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == f"fitted representation disagrees with probe 0: 2.0 vs {float(np.cbrt(2.0))}"


def test_a_linearity_pair_that_splits_ends_the_verdict():
    # both probes read 0, but along their sum min(|p1|, |p2|) = |t| splits
    f = Functional("min_abs", lambda p: min(abs(p.coords[0]), abs(p.coords[1])))
    x = seq_point(Space.L1_SEQ, [0.0, 0.0])
    probes = [seq_point(Space.L1_SEQ, [1.0, 0.0]), seq_point(Space.L1_SEQ, [0.0, 1.0])]
    _assert_same_verdict(f, x, probes)
    v = gateaux_verdict(f, x, probes)
    assert v.status is VerdictStatus.NOT_GATEAUX
    assert v.detail == "one-sided limits disagree along probe 0 + probe 1: d_plus=1.0, d_minus=-1.0"
    assert v.failure_witness == seq_point(Space.L1_SEQ, [1.0, 1.0]) and len(v.traces) == 3


@pytest.mark.parametrize(
    "f, x, probe",
    [
        # NBV_AB identifies only the zero functional; along itself its norm reads 2
        (
            norm_functional(Space.NBV_AB),
            pw_from_values(Space.NBV_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
            pw_from_values(Space.NBV_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
        ),
        # the fit reads a unit point evaluation at t0 = 2, outside [0, 1]
        (
            Functional("two_ends", lambda p: 2.0 * value_at(p, 1.0) - value_at(p, 0.0)),
            pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
            constant_fn(Space.C_AB, 0.0, 1.0, 1.0),
        ),
    ],
    ids=["nbv-along-itself", "c_ab-mass-outside"],
)
def test_no_sparse_representation_is_inconclusive(f, x, probe):
    _assert_same_verdict(f, x, [probe])
    v = gateaux_verdict(f, x, [probe])
    assert v.status is VerdictStatus.INCONCLUSIVE
    assert v.detail == "directional limits exist but no sparse representation reproduces them"


def _cases(test):
    """The argument tuples of a test's one parametrize mark."""
    (mark,) = test.pytestmark
    return mark.args[1]


# the overflowing inputs of the two tests that compare errors with one direction at a time
_OVERFLOWS = [
    (x, [h], grid)
    for x, h, grid, error in _cases(test_batch_raises_what_the_scalar_path_raises)
    if error is EvalFailureError
] + [
    (x, probes, grid)
    for x, probes, grid, _ in _cases(test_a_stack_that_overflows_raises_what_one_direction_at_a_time_raises)
]


@pytest.mark.parametrize("x, probes, grid", _OVERFLOWS)
def test_the_plateau_scorer_only_sees_finite_values(monkeypatch, x, probes, grid):
    seen = []

    def recording(values, *args):
        seen.append(bool(np.isfinite(values).all()))
        return _quotient_trace(values, *args)

    monkeypatch.setattr("banachdiff.diffengine._quotient_trace", recording)
    with pytest.raises(EvalFailureError):
        gateaux_verdict(norm_functional(x.space), x, probes, grid)
    assert all(seen)


def test_a_failing_row_is_evaluated_once_by_the_batch():
    f = norm_functional(Space.L1_SEQ)
    calls = []

    def counting(x, H, steps):
        calls.append(steps.shape[0])
        return f.batch(x, H, steps)

    g = dataclasses.replace(f, batch=counting)
    x, h = seq_point(Space.L1_SEQ, [1e308, 0.0]), seq_point(Space.L1_SEQ, [0.0, 1e308])
    with pytest.raises(EvalFailureError) as info:
        gateaux_verdict(g, x, [h], TGrid(t0=1.0, count=3))
    assert str(info.value) == "norm evaluates to inf, not a finite number"
    assert calls == [6]


def test_quotient_overflow_is_an_eval_failure():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [0.0, 0.0])
    h = seq_point(Space.L1_SEQ, [1e308, 1e308])
    grid = TGrid(t0=0.5, rho=0.5, count=3)
    for g in (f, _scalar(f)):
        for run in (lambda: one_sided_derivatives(g, x, h, grid), lambda: gateaux_verdict(g, x, [h], grid)):
            with pytest.raises(EvalFailureError) as info:
                run()
            assert str(info.value) == "difference quotient overflows"
            assert info.value.context == {"step": 0.5}


def test_plateau_steps_and_scores_are_kept():
    f = norm_functional(Space.L1_SEQ)
    # every quotient is exactly 1 or -1: the first window of each side wins
    tr = one_sided_derivatives(f, seq_point(Space.L1_SEQ, [2.0, -2.0]), seq_point(Space.L1_SEQ, [1.0, 0.0]), EXACT)
    assert tr.plateau_step == (2.0**-6, 2.0**-6) and tr.plateau_score == (0.0, 0.0)
    # |x|/|h| = 2**-8: the windows start at the step 2**-8; backward, the
    # quotients settle only from that step on, so the plateau ends at 2**-10
    tr = one_sided_derivatives(f, seq_point(Space.L1_SEQ, [2.0**-8, 0.0]), seq_point(Space.L1_SEQ, [1.0, 0.0]), EXACT)
    assert (tr.d_plus, tr.d_minus) == (1.0, 1.0)
    assert tr.plateau_step == (2.0**-8, 2.0**-10) and tr.plateau_score == (0.0, 0.0)
    # no step comes down to |x|/|h|: no window, no plateau
    tr = one_sided_derivatives(f, seq_point(Space.L1_SEQ, [1e-11, 0.0]), seq_point(Space.L1_SEQ, [1.0, 0.0]))
    assert tr.plateau_step == (None, None) and tr.plateau_score == (math.inf, math.inf)
    # a trace that does not converge still names its best window
    sq = Functional("l1_squared", lambda p: eval_norm(p).value ** 2, Space.L1_SEQ)
    tr = one_sided_derivatives(sq, seq_point(Space.L1_SEQ, [1.0, 0.5]), seq_point(Space.L1_SEQ, [1.0, 1.0]), EXACT)
    assert tr.d_plus is None and tr.plateau_step[0] == EXACT.steps()[-1]
    q = tr.forward_q
    assert tr.plateau_score[0] == max(abs(q[-1] - q[-2]), abs(q[-2] - q[-3])) > DEFAULT_TOL
    # the fields stay out of the report
    assert set(tr.to_dict()) == {"t", "fq", "bq"}


def test_an_agreed_limit_is_kept_as_one_float():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [3.0, 1.0])
    tr = one_sided_derivatives(f, x, seq_point(Space.LINF_SEQ, [0.5, 0.25]), EXACT)
    assert tr.d_plus == 0.5 and tr.d_plus is tr.d_minus
    # a zero limit keeps each side's own float: 0.0 and -0.0 differ in bits
    tr = one_sided_derivatives(f, x, seq_point(Space.LINF_SEQ, [0.0, 0.25]), EXACT)
    assert tr.d_plus == tr.d_minus == 0.0


def test_verdict_memory_is_bounded_in_the_dimension():
    dim = 4000
    x = seq_point(Space.L1_SEQ, np.where(np.arange(dim) % 2, 0.5, -0.25))
    h = seq_point(Space.L1_SEQ, np.full(dim, 2.0**-6))
    f = norm_functional(Space.L1_SEQ)
    tracemalloc.start()
    try:
        v = gateaux_verdict(f, x, [h], EXACT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.status is VerdictStatus.GATEAUX and len(v.traces) == dim + 2
    assert peak < 32 * 2**20


def test_lipschitz_memory_is_bounded_in_the_dimension():
    # the sampled directions take O(dim) memory each; one dim x dim array
    # would take 122 MB at this dimension
    dim = 4000
    x = seq_point(Space.LINF_SEQ, np.where(np.arange(dim) % 2, 0.5, -0.25))
    f = norm_functional(Space.LINF_SEQ)
    tracemalloc.start()
    try:
        est = local_lipschitz_estimate(f, x, 0.5, 3, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < est <= 1.0 + 1e-12
    assert peak < 2**20


def test_a_functional_refuses_a_point_of_another_space():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.LINF_SEQ, [1.0])
    with pytest.raises(PreconditionFailedError, match="expects L1_SEQ, got LINF_SEQ"):
        f(x)
    with pytest.raises(PreconditionFailedError, match="expects L1_SEQ, got LINF_SEQ"):
        f.along(x, x, [0.5])


@pytest.mark.parametrize(
    "status, fields",
    [
        (VerdictStatus.GATEAUX, {}),
        (VerdictStatus.FRECHET, {"value": 1.0}),
        (VerdictStatus.HADAMARD, {}),
        (VerdictStatus.NOT_GATEAUX, {}),
    ],
    ids=["gateaux-without-derivative", "frechet-without-derivative", "hadamard-without-value", "not-gateaux-without-witness"],
)
def test_a_verdict_without_its_evidence_cannot_be_built(status, fields):
    with pytest.raises(ValueError):
        DiffVerdict(status=status, **fields)


def test_a_frechet_report_carries_its_remainder_profile():
    f = norm_functional(Space.LINF_SEQ)
    x = seq_point(Space.LINF_SEQ, [2.0, 0.5])
    unit = seq_point(Space.LINF_SEQ, [1.0, 0.0])
    v = frechet_verdict(f, x, oracle_linf(x, 1.0), [unit], [0.25, 0.125])
    assert v.status is VerdictStatus.FRECHET
    assert v.to_dict()["remainder_profile"] == [[0.25, 0.0], [0.125, 0.0]]


_x1 = seq_point(Space.L1_SEQ, [1.0, 1.0])
_f1 = norm_functional(Space.L1_SEQ)
_REFUSED_VERDICTS = {
    "one-sided-zero-tol": lambda: one_sided_derivatives(_f1, _x1, _x1, EXACT, 0.0),
    "gateaux-no-probes": lambda: gateaux_verdict(_f1, _x1, [], EXACT),
    "gateaux-nan-tol": lambda: gateaux_verdict(_f1, _x1, [_x1], EXACT, math.nan),
    "hadamard-negative-tol": lambda: hadamard_verdict(_f1, _x1, _x1, [[_x1]], EXACT, -1.0),
    "lipschitz-fractional-pair-count": lambda: local_lipschitz_estimate(_f1, _x1, 0.5, 2.5, seed=1),
    "lipschitz-fractional-seed": lambda: local_lipschitz_estimate(_f1, _x1, 0.5, 8, 1.5),
    "lipschitz-bool-seed": lambda: local_lipschitz_estimate(_f1, _x1, 0.5, 8, True),
}


@pytest.mark.parametrize("call", list(_REFUSED_VERDICTS.values()), ids=list(_REFUSED_VERDICTS))
def test_unusable_verdict_arguments_are_precondition_failures(call):
    with pytest.raises(PreconditionFailedError):
        call()


def test_an_empty_perturbation_family_is_nonconvergent():
    with pytest.raises(NonconvergentPerturbationError, match="empty perturbation family") as err:
        hadamard_verdict(_f1, _x1, _x1, [[_x1], []], EXACT)
    assert err.value.context == {"family": 1}


def test_lipschitz_pairs_that_round_to_one_point_are_skipped():
    # at a radius far below the spacing of floats at x, x ± c*d rounds to x
    assert local_lipschitz_estimate(_f1, _x1, 1e-300, 8, seed=1) == 0.0


def test_numpy_integer_lipschitz_arguments_are_integers():
    want = local_lipschitz_estimate(_f1, _x1, 0.5, 8, seed=3)
    assert local_lipschitz_estimate(_f1, _x1, 0.5, np.int32(8), np.uint64(3)) == want
