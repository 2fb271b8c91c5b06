"""Gaussian product laws: sampling, tie-set mass, and summability."""

import hashlib
import itertools
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import banachdiff
from banachdiff._rng import philox_gen
from banachdiff.errors import NonpositiveVarianceError, PreconditionFailedError, QuadratureNonconvergedError
from banachdiff import gaussmeasure
from banachdiff.gaussmeasure import (
    _BLOCK_ROWS,
    _CHUNK_VALUES,
    MAX_N,
    MAX_TERMS,
    GaussianSpec,
    _margins,
    _sample_block,
    b2_tie_probability_oracle,
    default_spec,
    estimate_nondiff_measure,
    estimate_nondiff_measures,
    gaussian_sample,
    standard_normal_spec,
    vakhania_check,
)
from banachdiff.spaces import Space
from banachdiff.topology import classify

# Recomputed-and-frozen reference values.  The partial sums are plain
# left-to-right float accumulations of (k+2)^(-2); the closed form is
# sum_{m>=3} m^(-2) = pi^2/6 - 1 - 1/4.
PARTIAL_1000 = 0.3939365606965239
PARTIAL_10K = 0.39483409184206125
CLOSED_FORM = math.pi ** 2 / 6.0 - 1.25

# two-coordinate tie-band probabilities at delta = 0.01, by quadrature
B2_STD_001 = 0.01125186725411195
B2_INVLOG_001 = 0.012453539759151895


def test_spec_validation():
    with pytest.raises(PreconditionFailedError):
        GaussianSpec(r=0.0)
    with pytest.raises(NonpositiveVarianceError):
        GaussianSpec(variances=(1.0, 0.0), law=None)
    with pytest.raises(NonpositiveVarianceError):
        GaussianSpec(variances=(-1.0,), law=None)
    with pytest.raises(PreconditionFailedError):
        GaussianSpec(law="no_such_law")


def test_negative_seed_is_a_precondition_failure():
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measure(standard_normal_spec(2), 2, 0.1, 10, seed=-1)


_MALFORMED = {
    "n-float": (2.0, 100, 1),
    "n-bool": (True, 100, 1),
    "count-float": (2, 10.0, 1),
    "count-bool": (2, True, 1),
    "seed-fraction": (2, 100, 1.5),
    "seed-bool": (2, 100, True),
    "seed-negative": (2, 100, -1),
}


@pytest.mark.parametrize("n, count, seed", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_arguments_are_refused_before_any_sampling(monkeypatch, n, count, seed):
    def no_sampling(*args):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(gaussmeasure, "_sample_block", no_sampling)
    spec = standard_normal_spec(2)
    calls = (
        lambda: estimate_nondiff_measure(spec, n, 0.1, count, seed),
        lambda: estimate_nondiff_measures(spec, n, (0.1, 0.0), count, seed),
        lambda: gaussian_sample(spec, n, count, seed),
    )
    for call in calls:
        with pytest.raises(PreconditionFailedError) as err:
            call()
        if seed == -1:
            assert str(err.value) == "seed -1 is negative; seeds are non-negative integers"


def test_numpy_integer_arguments_are_integers():
    spec = standard_normal_spec(2)
    want = estimate_nondiff_measure(spec, 2, 0.1, 100, seed=1)
    got = estimate_nondiff_measure(spec, np.int64(2), 0.1, np.int32(100), np.uint64(1))
    assert got == want and (type(got.n), type(got.sample_count), type(got.seed)) == (int, int, int)


def test_default_law_variances_decay():
    spec = default_spec()
    v = [spec.variance_at(k) for k in range(1, 6)]
    assert v[0] == 1.0 / math.log(3.0)
    assert all(a > b for a, b in zip(v, v[1:]))
    std = standard_normal_spec(4)
    assert std.variance_at(4) == 1.0
    with pytest.raises(PreconditionFailedError):
        std.variance_at(5)  # no law to extend the explicit list


def test_summability_check_against_the_closed_form():
    flag, partial = vakhania_check(default_spec(), 1000)
    assert flag
    assert partial == PARTIAL_1000
    _, partial10k = vakhania_check(default_spec(), 10**4)
    assert partial10k == PARTIAL_10K
    assert abs(partial10k - CLOSED_FORM) < 1e-3
    # the tail is monotone: longer partial sums move toward the limit
    assert PARTIAL_1000 < PARTIAL_10K < CLOSED_FORM


def test_summability_check_can_fail():
    # r <= 1 makes the terms (k+2)^(-r) a divergent series; the flag
    # reflects the divergence bound rather than any fixed cutoff
    flag, _ = vakhania_check(GaussianSpec(r=0.5), 1000)
    assert not flag


def _vakhania_reference(spec, N):
    """vakhania_check with every term in one array."""
    terms = np.exp([-spec.r / spec.variance_at(k) for k in range(1, N + 1)])
    m = max(1, N // 2)
    a_mid, a_end = float(terms[m - 1]), float(terms[N - 1])
    if a_end == 0.0 or m == N or a_mid == 0.0:
        flag = a_end == 0.0
    else:
        flag = (math.log(a_mid) - math.log(a_end)) / math.log(N / m) > 1.0
    return flag, math.fsum(terms)


@pytest.mark.parametrize(
    "spec",
    [
        default_spec(),
        GaussianSpec(r=1.5),
        GaussianSpec(r=60.0),  # (k+2)**-60 stays nonzero up to k of about 2.4e5
        GaussianSpec(r=400.0),  # (k+2)**-400 is 0.0 from k = 5 on
        GaussianSpec(variances=(0.5, 1.0, 2.0)),
    ],
    ids=["default", "r-1.5", "r-60", "underflowing", "explicit"],
)
def test_summability_check_in_blocks_equals_one_array(spec):
    block = gaussmeasure._TERM_BLOCK
    for N in (1, 2, 1000, block - 1, block, block + 1, 2 * block + 1):
        assert vakhania_check(spec, N) == _vakhania_reference(spec, N)


def test_terms_that_underflow_count_as_summable():
    spec = GaussianSpec(r=400.0)
    assert math.exp(-spec.r / spec.variance_at(4)) > 0.0 == math.exp(-spec.r / spec.variance_at(5))
    for N in (5, 1000, 2 * gaussmeasure._TERM_BLOCK + 1):
        assert vakhania_check(spec, N)[0] is True


def test_tie_probability_at_zero_delta_is_zero():
    assert b2_tie_probability_oracle(default_spec(), 0.0) == 0.0


def test_summability_check_bounds_N_before_summing():
    for N in (0, MAX_TERMS + 1, 10**9):
        with pytest.raises(PreconditionFailedError):
            vakhania_check(default_spec(), N)


def test_summability_check_memory_is_bounded_in_N():
    tracemalloc.start()
    try:
        vakhania_check(default_spec(), 200000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sampling_is_reproducible_and_correctly_shaped():
    spec = default_spec()
    pts = gaussian_sample(spec, 6, 4, seed=42)
    assert len(pts) == 4
    assert all(p.space is Space.LINF_SEQ and p.dim == 6 for p in pts)
    again = gaussian_sample(spec, 6, 4, seed=42)
    assert all(np.array_equal(p.coords, q.coords) for p, q in zip(pts, again))
    other = gaussian_sample(spec, 6, 4, seed=43)
    assert not np.array_equal(pts[0].coords, other[0].coords)


def test_tie_band_estimate_is_frozen_for_a_fixed_seed():
    est = estimate_nondiff_measure(standard_normal_spec(2), 2, 0.01, 20000, seed=7)
    assert est.fraction == 0.01135
    assert est.sample_count == 20000 and est.tie_hits == 0
    d = est.to_dict()
    assert d["fraction"] == est.fraction and d["delta"] == 0.01


def test_tie_band_estimate_matches_the_quadrature_oracle():
    spec = standard_normal_spec(2)
    for delta, frozen in ((0.01, B2_STD_001),):
        assert b2_tie_probability_oracle(spec, delta) == frozen
    est = estimate_nondiff_measure(spec, 2, 0.01, 20000, seed=7)
    assert abs(est.fraction - B2_STD_001) <= 3.0 * est.std_error
    assert b2_tie_probability_oracle(default_spec(), 0.01) == B2_INVLOG_001


def test_tie_band_mass_shrinks_with_delta():
    spec = default_spec()
    fracs = []
    ses = []
    for i, delta in enumerate((0.1, 0.05, 0.01)):
        est = estimate_nondiff_measure(spec, 8, delta, 40000, seed=100 + i)
        fracs.append(est.fraction)
        ses.append(est.std_error)
    for (fa, sa), (fb, sb) in zip(zip(fracs, ses), zip(fracs[1:], ses[1:])):
        assert fb <= fa + 3.0 * (sa + sb)


def test_single_coordinate_fails_dominance_within_delta_of_zero():
    # the runner-up of a single coordinate is 0, as in classify
    est = estimate_nondiff_measure(default_spec(), 1, 0.5, 1000, seed=5)
    rows = gaussian_sample(default_spec(), 1, 1000, seed=5)
    near_zero = sum(abs(float(p.coords[0])) <= 0.5 for p in rows)
    assert est.fraction == near_zero / 1000 > 0.0


@pytest.mark.parametrize("n", [1, 2, 10])
@pytest.mark.parametrize("delta", [0.0, 0.1, 0.5])
def test_estimate_counts_exactly_the_rows_classify_rejects(n, delta):
    spec = standard_normal_spec(2) if n <= 2 else default_spec()
    est = estimate_nondiff_measure(spec, n, delta, 2000, seed=3)
    rejected = sum(not classify(p, delta).in_B for p in gaussian_sample(spec, n, 2000, seed=3))
    assert est.fraction == rejected / 2000


def test_importing_the_package_leaves_scipy_unloaded():
    code = (
        "import sys, banachdiff, banachdiff.cli\n"
        "print(sorted(m for m in ('scipy.special', 'scipy.integrate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(banachdiff.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_measure_estimator_polices_inputs():
    spec = default_spec()
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measure(spec, 0, 0.1, 10, seed=1)
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measure(spec, 2, -0.1, 10, seed=1)
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measure(spec, 2, 0.1, 0, seed=1)
    # above the bound the check raises before a block is allocated
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measure(spec, MAX_N + 1, 0.1, 10, seed=1)
    with pytest.raises(PreconditionFailedError):
        gaussian_sample(spec, MAX_N + 1, 10, seed=1)
    with pytest.raises(PreconditionFailedError):
        standard_normal_spec(MAX_N + 1)
    with pytest.raises(PreconditionFailedError):
        b2_tie_probability_oracle(spec, -1.0)
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measures(spec, 2, (), 10, seed=1)
    with pytest.raises(PreconditionFailedError):
        estimate_nondiff_measures(spec, 2, (0.1, -0.1), 10, seed=1)


# -- the Monte-Carlo block pipeline --------------------------------------------

# sha256 of full blocks of the default law at seed 11, frozen from the sampler
# that built each block from separate uniform, normal and scaled arrays
BLOCK_SHA256 = {
    (1, 0): "910657844139a68a8eecebf8a5c0d9f8a69628271f271eba6c78aece19f8cfda",
    (2, 3): "987930e4c5f647c929375f434a32bdd165bed4b076e3edb32ccfbe4fd71909c1",
    (10, 0): "067d8563d673bfeae4d1ae288f4865eb60e2bb9a9f9e6d3793efe2977d07177c",
    (64, 3): "ceb46810fd3b97990e9fbf1f7c6e5f704c22ff0d761a523c491acdaecb537f84",
}


@pytest.mark.parametrize("n, block", sorted(BLOCK_SHA256))
def test_sample_blocks_are_frozen_and_short_blocks_are_prefixes(n, block):
    full = _sample_block(default_spec(), n, 11, block)
    assert full.shape == (_BLOCK_ROWS, n) and full.dtype == np.float64
    assert hashlib.sha256(full.tobytes()).hexdigest() == BLOCK_SHA256[n, block]
    for rows in (1, 999, _BLOCK_ROWS - 1):
        assert np.array_equal(_sample_block(default_spec(), n, 11, block, rows), full[:rows])


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 10, 64, MAX_N]),
    start=st.integers(0, 3000),
    rows=st.integers(1, 300),
    block=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=10, start=2, rows=5, block=0, seed=11)
@example(n=1, start=1, rows=5, block=0, seed=11)
@example(n=1, start=2, rows=5, block=0, seed=11)
@example(n=3, start=1, rows=7, block=1, seed=11)
@example(n=2, start=_BLOCK_ROWS - 3, rows=3, block=2, seed=11)
def test_any_window_of_a_block_is_an_exact_slice(n, start, rows, block, seed):
    # start * n % 4 draws are left over after the whole Philox counter
    # steps: the examples leave 0, 1, 2 and 3 of them
    rows = min(rows, _BLOCK_ROWS - start)
    full = _sample_block(default_spec(), n, seed, block, start + rows)
    window = _sample_block(default_spec(), n, seed, block, rows, start)
    assert window.tobytes() == full[start:].tobytes()


def _partition_margins(a):
    """Top minus runner-up per row, as np.partition finds them."""
    n = a.shape[1]
    if n == 1:
        return a[:, 0]
    pair = np.partition(a, n - 2, axis=1)[:, n - 2:]
    return pair.max(axis=1) - pair.min(axis=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 64, MAX_N]),
    rows=st.integers(1, 300),
    levels=st.integers(1, 6),
    zero_rows=st.integers(0, 3),
    order=st.sampled_from("CF"),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, rows=5, levels=1, zero_rows=1, order="F", seed=0)
@example(n=MAX_N, rows=300, levels=2, zero_rows=0, order="C", seed=1)
def test_margins_equal_the_partition_reference_bit_for_bit(n, rows, levels, zero_rows, order, seed):
    # few distinct magnitudes, so that exact ties at the top are common
    rng = np.random.default_rng(seed)
    a = rng.integers(0, levels, size=(rows, n)) * 0.375 + rng.integers(0, 2, size=(rows, n)) * 2.0**-40
    a[rng.integers(0, rows, size=zero_rows)] = 0.0
    want = _partition_margins(a)
    got = _margins(np.asarray(a, order=order).copy(order=order))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 10])
def test_one_sample_for_every_delta_equals_one_call_per_delta(n):
    spec = standard_normal_spec(2) if n <= 2 else default_spec()
    deltas = (0.5, 0.0, 0.01, 0.1, 0.01)
    multi = estimate_nondiff_measures(spec, n, deltas, _BLOCK_ROWS + 7, seed=13)
    single = tuple(estimate_nondiff_measure(spec, n, d, _BLOCK_ROWS + 7, seed=13) for d in deltas)
    assert multi == single
    assert [e.delta for e in multi] == list(deltas)


def test_exact_ties_are_counted_and_logged_alike_for_one_and_many_deltas(monkeypatch, caplog):
    real = gaussmeasure._sample_block

    def coarse(spec, n, seed, block, rows=_BLOCK_ROWS, start=0):
        # quarter-unit rows: ties at the top are frequent
        return np.round(real(spec, n, seed, block, rows, start) * 4.0) / 4.0

    monkeypatch.setattr(gaussmeasure, "_sample_block", coarse)
    deltas = (0.0, 0.25)
    with caplog.at_level(logging.WARNING, logger=gaussmeasure.__name__):
        single = tuple(estimate_nondiff_measure(default_spec(), 3, d, 5000, seed=2) for d in deltas)
        single_logs = [r.getMessage() for r in caplog.records]
        caplog.clear()
        multi = estimate_nondiff_measures(default_spec(), 3, deltas, 5000, seed=2)
        multi_logs = [r.getMessage() for r in caplog.records]
    assert multi == single
    assert multi[0].tie_hits > 0 and multi[0].fraction == multi[0].tie_hits / 5000
    assert multi_logs and single_logs == multi_logs * len(deltas)


def _whole_block_counts(spec, n, deltas, count, seed):
    """Hits per delta and exact ties, one whole block at a time."""
    hits, ties = [0] * len(deltas), 0
    for block in range(-(-count // _BLOCK_ROWS)):
        a = gaussmeasure._sample_block(spec, n, seed, block, min(_BLOCK_ROWS, count - block * _BLOCK_ROWS))
        margin = _margins(np.abs(a))
        hits = [h + int(np.count_nonzero(margin <= d)) for h, d in zip(hits, deltas)]
        ties += int(np.count_nonzero(margin == 0.0))
    return hits, ties


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("n", [3, 10, 64])
def test_chunked_counts_equal_the_whole_block_reference(monkeypatch, n, coarse):
    if coarse:  # quarter-unit rows, so that exact ties are counted too
        real = gaussmeasure._sample_block
        monkeypatch.setattr(
            gaussmeasure, "_sample_block",
            lambda *args: np.round(real(*args) * 4.0) / 4.0,
        )
    spec, deltas = default_spec(), (0.0, 0.01, 0.25)
    step = _CHUNK_VALUES // n
    # each ends a few rows into the second chunk of the first or the second block
    for count in (step + 7, _BLOCK_ROWS + step + 5):
        ests = estimate_nondiff_measures(spec, n, deltas, count, seed=4)
        hits, ties = _whole_block_counts(spec, n, deltas, count, seed=4)
        assert [e.fraction for e in ests] == [h / count for h in hits]
        assert all(e.tie_hits == ties for e in ests)
        assert ties > 0 if coarse else ties == 0


@pytest.mark.parametrize("n", [1, 2, 64, MAX_N])
def test_estimate_peak_is_bounded_by_the_chunk(n):
    estimate_nondiff_measure(default_spec(), n, 0.1, 10, seed=1)  # import scipy first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        estimate_nondiff_measures(default_spec(), n, (0.1, 0.0), 2 * _BLOCK_ROWS + 1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the uint64 draw and the float64 buffer of one chunk, while one is
    # converted to the other, whatever n and however many blocks
    assert peak <= 2.1 * _CHUNK_VALUES * 8


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("n", [1, 2, 10, 64, MAX_N])
def test_the_worker_count_changes_no_count(monkeypatch, caplog, n, coarse):
    if coarse:  # quarter-unit rows, so that exact ties are counted and logged too
        real = gaussmeasure._sample_block
        monkeypatch.setattr(
            gaussmeasure, "_sample_block", lambda *args: np.round(real(*args) * 4.0) / 4.0
        )
    # enough usable CPUs that the cap alone decides the worker count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    spec, deltas = default_spec(), (0.0, 0.01, 0.25)
    step = min(_BLOCK_ROWS, _CHUNK_VALUES // n)
    # one chunk, a few rows into a later chunk, and a few rows into the second
    # block; at MAX_N the reference's whole block would take 134 MB, so a few
    # rows into the fourth chunk instead
    last = _BLOCK_ROWS + step // 3 + 5 if n <= 64 else 3 * step + 5
    for count in (10, step // 2 + step // 3 + 7, last):
        hits, ties = _whole_block_counts(spec, n, deltas, count, seed=6)
        for cap in (1, 2, 3):
            monkeypatch.setattr(gaussmeasure, "_WORKERS", cap)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger=gaussmeasure.__name__):
                ests = estimate_nondiff_measures(spec, n, deltas, count, seed=6)
            assert [e.fraction for e in ests] == [h / count for h in hits]
            assert all(e.tie_hits == ties for e in ests)
            assert len(caplog.records) == (1 if ties else 0)
    assert ties > 0 if coarse else ties == 0


def _recording_sampler(monkeypatch, fail_at=None):
    """Wrap the sampler to record each caller's thread, failing on one call."""
    real, idents, calls = gaussmeasure._sample_block, set(), itertools.count()

    def recording(*args):
        idents.add(threading.get_ident())
        if next(calls) == fail_at:
            raise RuntimeError("sampler refused this chunk")
        return real(*args)

    monkeypatch.setattr(gaussmeasure, "_WORKERS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(gaussmeasure, "_sample_block", recording)
    return idents


def test_multi_chunk_requests_count_on_two_threads_and_leave_none(monkeypatch):
    idents = _recording_sampler(monkeypatch)
    before = threading.active_count()
    estimate_nondiff_measures(default_spec(), 10, (0.1, 0.01), 6 * 2**16, seed=3)
    assert len(idents) == 2 and threading.get_ident() not in idents
    assert threading.active_count() == before


def test_a_single_chunk_request_counts_on_the_calling_thread(monkeypatch):
    idents = _recording_sampler(monkeypatch)
    before = threading.active_count()
    # the README's `measure --n 2 --delta 0.01 --count 20000 --seed 7 --law std`
    est = estimate_nondiff_measure(standard_normal_spec(2), 2, 0.01, 20000, seed=7)
    assert idents == {threading.get_ident()}
    assert threading.active_count() == before
    assert est.fraction == 0.01135  # as test_tie_band_estimate_is_frozen_for_a_fixed_seed


@pytest.mark.parametrize(
    "n, count, fail_at", [(2, 20000, 0), (10, 6 * 2**16, 2)], ids=["one-chunk", "many-chunks"]
)
def test_a_failing_chunk_reaches_the_caller_and_leaves_no_worker(monkeypatch, n, count, fail_at):
    _recording_sampler(monkeypatch, fail_at)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^sampler refused this chunk$"):
        estimate_nondiff_measures(default_spec(), n, (0.1,), count, seed=3)
    assert threading.active_count() == before


def test_a_spec_needs_variances_or_a_law_and_one_based_coordinates():
    with pytest.raises(PreconditionFailedError, match="need an explicit variance list or a law"):
        GaussianSpec(law=None)
    with pytest.raises(PreconditionFailedError, match="1-based"):
        default_spec().variance_at(0)


# quad warns that the integral may diverge, and then the error bound decides
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_a_quadrature_that_does_not_converge_is_a_typed_failure():
    spec = GaussianSpec(variances=(7e8, 1e270), law=None)
    with pytest.raises(QuadratureNonconvergedError) as err:
        b2_tie_probability_oracle(spec, 1e282)
    assert err.value.context["abserr"] > 1e-6


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(2.0), "1"], ids=repr)
def test_the_stream_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(PreconditionFailedError, match="is not an integer; seeds are non-negative integers"):
        philox_gen(seed)


def test_the_stream_of_a_numpy_integer_seed_is_that_of_the_int():
    assert philox_gen(np.uint16(7), 2).random() == philox_gen(7, 2).random()
