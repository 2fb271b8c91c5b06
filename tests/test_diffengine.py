"""Difference-quotient traces and differentiability verdicts.

Exactness claims (bitwise == on derivatives) hold because fixture data
lives on a dyadic lattice: the norms are then piecewise-linear with
exactly representable slopes and the quotients carry no rounding at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachdiff.diffengine import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    Functional,
    TGrid,
    VerdictStatus,
    _series_limit,
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
)
from banachdiff.oracles import apply_rep, oracle_csup, oracle_linf, witness_linf
from banachdiff.spaces import (
    Space,
    eval_norm,
    linear_combine,
    pw_from_values,
    seq_point,
)

from conftest import GRID, lattice

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


def test_directional_quotient_rejects_zero_step():
    f = norm_functional(Space.L1_SEQ)
    x = seq_point(Space.L1_SEQ, [1.0])
    with pytest.raises(PreconditionFailedError):
        directional_quotient(f, x, x, 0.0)


def test_non_finite_values_are_eval_failures():
    x = seq_point(Space.L1_SEQ, [1.0])
    with pytest.raises(EvalFailureError):
        Functional("overflow", lambda p: math.inf)(x)
    with pytest.raises(EvalFailureError):
        Functional("undefined", lambda p: math.nan)(x)
    with pytest.raises(EvalFailureError):
        Functional("overflowing", lambda p: math.exp(1000.0))(x)


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
    with pytest.raises(PreconditionFailedError):
        hadamard_verdict(f, x, h, [], EXACT)


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
