"""Gaussian product laws: sampling, tie-set mass, and summability."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import banachdiff
from banachdiff.errors import NonpositiveVarianceError, PreconditionFailedError
from banachdiff.gaussmeasure import (
    MAX_N,
    GaussianSpec,
    b2_tie_probability_oracle,
    default_spec,
    estimate_nondiff_measure,
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
