"""Product Gaussian measures on max-norm truncations.

Independent-coordinate Gaussian laws, a summability check for when such
a product concentrates on bounded sequences, and Monte-Carlo estimation
of how much mass sits near the non-differentiability set of the max norm
(points whose two largest absolute coordinates are within delta of each
other).  The exact set of ties has measure zero; what is estimable at
desk scale is the delta-thickened family and its shrink-to-zero trend,
cross-checked for n=2 against deterministic quadrature.

Sampling is counter-based (Philox) in fixed blocks of rows, so results
are bit-identical across platforms and independent of how many blocks
run in parallel; the block stream depends only on (seed, block, n).
Any window of rows of a block can be drawn on its own, bit for bit, so
the estimator counts each block in chunks on up to ``_WORKERS`` threads
that share one ``_CHUNK_VALUES`` budget; memory depends on neither ``n``
nor ``count``.  Sampling accepts at most ``MAX_N`` coordinates.

scipy is imported by the two functions that use it, on their first call,
so importing the package does not load it.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._rng import philox_gen
from .errors import (
    NonpositiveVarianceError,
    PreconditionFailedError,
    QuadratureNonconvergedError,
    _integral,
)
from .spaces import Space, SpacePoint, seq_point

__all__ = [
    "MAX_N",
    "MAX_TERMS",
    "GaussianSpec",
    "MeasureEstimate",
    "default_spec",
    "standard_normal_spec",
    "vakhania_check",
    "gaussian_sample",
    "estimate_nondiff_measure",
    "estimate_nondiff_measures",
    "b2_tie_probability_oracle",
]

_BLOCK_ROWS = 65536
# Numbers one chunk of rows holds: its uint64 draw and its float64 buffer
# take 1 MB each.
_CHUNK_VALUES = 2**17
# Threads that count chunks at once, each on _CHUNK_VALUES // _WORKERS numbers.
_WORKERS = 2
# A worker's chunk holds _CHUNK_VALUES // _WORKERS // n rows, so at the bound
# at least 256 rows share the per-chunk costs of seeding, skipping and the scan.
MAX_N = 256
# Series terms vakhania_check exponentiates at once, 0.5 MB of float64.
_TERM_BLOCK = 65536
# Series terms vakhania_check sums at most: about 0.5 us each, so about 5 s.
MAX_TERMS = 10**7
_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class GaussianSpec:
    """Independent-coordinate Gaussian product law.

    Coordinate k (1-based) is Normal(0, variance_at(k)).  Variances come
    either from an explicit list or from the named law "inv_log",
    s_kk = 1/ln(k+2), whose summability terms e^(-r/s_kk) = (k+2)^(-r)
    converge for r > 1.  ``r`` is the radius used by vakhania_check.
    """

    r: float = 2.0
    variances: tuple[float, ...] = ()
    law: str | None = "inv_log"

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise PreconditionFailedError("r must be finite and positive", r=self.r)
        object.__setattr__(self, "variances", tuple(float(s) for s in self.variances))
        for s in self.variances:
            if not s > 0.0:
                raise NonpositiveVarianceError("explicit variances must be positive", value=s)
        if self.law not in (None, "inv_log"):
            raise PreconditionFailedError(f"unknown variance law {self.law!r}")
        if self.law is None and not self.variances:
            raise PreconditionFailedError("need an explicit variance list or a law")

    def variance_at(self, k: int) -> float:
        if k < 1:
            raise PreconditionFailedError("coordinate index is 1-based")
        if k <= len(self.variances):
            return self.variances[k - 1]
        if self.law == "inv_log":
            return 1.0 / math.log(k + 2.0)
        raise PreconditionFailedError(
            f"spec lists {len(self.variances)} variances and no law; coordinate {k} undefined"
        )

    def sd_array(self, n: int) -> np.ndarray:
        return np.sqrt([self.variance_at(k) for k in range(1, n + 1)])


def default_spec() -> GaussianSpec:
    return GaussianSpec()


def standard_normal_spec(n: int) -> GaussianSpec:
    """Unit variances on the n <= MAX_N coordinates a sample can have."""
    if not 1 <= n <= MAX_N:
        raise PreconditionFailedError(f"need 1 <= n <= {MAX_N}", n=n)
    return GaussianSpec(r=2.0, variances=(1.0,) * n, law=None)


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte-Carlo estimate of the delta-thickened tie-set mass."""

    fraction: float
    sample_count: int
    delta: float
    n: int
    seed: int
    tie_hits: int = 0

    @property
    def std_error(self) -> float:
        return math.sqrt(self.fraction * (1.0 - self.fraction) / self.sample_count)

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "std_error": self.std_error,
            "n": self.n,
            "delta": self.delta,
            "count": self.sample_count,
            "seed": self.seed,
        }


def vakhania_check(spec: GaussianSpec, N: int) -> tuple[bool, float]:
    """Partial sum of e^(-r/s_kk) to N, with a tail-convergence flag.

    The flag is a ratio test in disguise: the decay exponent of the term
    sequence is estimated between k = N/2 and k = N, and the tail counts
    as summable when that exponent beats 1 (a convergent p-series bound).
    Terms that underflow to zero count as summable outright.  Terms are
    exponentiated in blocks of ``_TERM_BLOCK``, so memory stays bounded in
    N, and N is at most ``MAX_TERMS``, which bounds the time.
    """
    if not 1 <= N <= MAX_TERMS:
        raise PreconditionFailedError(f"need 1 <= N <= {MAX_TERMS}", N=N)
    m = max(1, N // 2)
    marks = {}

    def blocks():
        for lo in range(1, N + 1, _TERM_BLOCK):
            ks = range(lo, min(lo + _TERM_BLOCK, N + 1))
            exponents = (-spec.r / spec.variance_at(k) for k in ks)
            terms = np.exp(np.fromiter(exponents, float, len(ks)))
            marks.update((k, float(terms[k - lo])) for k in (m, N) if k in ks)
            yield terms

    partial = math.fsum(itertools.chain.from_iterable(blocks()))
    a_mid, a_end = marks[m], marks[N]
    if a_end == 0.0:
        flag = True
    elif m == N or a_mid == 0.0:
        flag = False
    else:
        p_hat = (math.log(a_mid) - math.log(a_end)) / math.log(N / m)
        flag = p_hat > 1.0
    return flag, partial


def _sample_block(
    spec: GaussianSpec, n: int, seed: int, block: int, rows: int = _BLOCK_ROWS, start: int = 0
) -> np.ndarray:
    """Rows ``[start, start + rows)`` of one block of Gaussian rows.

    A block depends only on (seed, block, n).  Its uniforms are
    ``(k + 0.5) * 2**-53`` for 53-bit integers k drawn by Philox, one draw
    per number with no rejection at this bound, so any window of rows is
    an exact slice of the full block: the stream skips the ``start * n``
    draws before it, whole Philox counter steps of four draws first and
    the rest one by one.  The draw is converted into one float64 buffer
    and then in place: uniforms, normals through ``ndtri``, and finally
    the scaling by the coordinate standard deviations.  The buffer is laid
    out column by column, so that ``_margins`` reads contiguous columns.
    """
    from scipy.special import ndtri

    gen = philox_gen(seed, block)
    skip = start * n
    gen.bit_generator.advance(skip // 4)
    gen.bit_generator.random_raw(skip % 4)
    draw = gen.integers(0, 1 << 53, size=(rows, n), dtype=np.uint64)
    a = draw.astype(np.float64, order="F")
    del draw
    a += 0.5
    a *= 2.0**-53
    ndtri(a, out=a)
    a *= spec.sd_array(n)
    return a


def _margins(a: np.ndarray) -> np.ndarray:
    """Largest minus second-largest entry of each row of ``a >= 0``.

    The runner-up of a single column is 0.  One running top-two scan over
    the columns with ``np.maximum`` and ``np.minimum`` only, so the margins
    are exact: bit for bit the top two values ``np.partition`` finds,
    subtracted.  The running maximum and then the margins are written over
    the first column of ``a``, which is returned.
    """
    top = a[:, 0]
    if a.shape[1] == 1:
        return top
    second = np.minimum(top, a[:, 1])
    np.maximum(top, a[:, 1], out=top)
    low = np.empty_like(second)
    for j in range(2, a.shape[1]):
        col = a[:, j]
        np.minimum(top, col, out=low)
        np.maximum(second, low, out=second)
        np.maximum(top, col, out=top)
    top -= second
    return top


def _check_shape(n: int, count: int, seed: int) -> tuple[int, int, int]:
    """n, count and seed as ints, or refused if any is a bool or not integral."""
    if not (_integral(n) and _integral(count) and 1 <= n <= MAX_N and count >= 1):
        raise PreconditionFailedError(f"need integers 1 <= n <= {MAX_N} and count >= 1", n=n, count=count)
    philox_gen(seed)  # refuses a seed that is not a non-negative integer
    return int(n), int(count), int(seed)


def _chunks(n: int, count: int, values: int = _CHUNK_VALUES):
    """(block, start, rows) for consecutive chunks of the first ``count`` rows.

    Each block is cut into chunks of ``values // n`` rows, the last chunk
    of a block and of the sample being shorter.
    """
    step = min(_BLOCK_ROWS, values // n)
    for block in range(-(-count // _BLOCK_ROWS)):
        end = min(_BLOCK_ROWS, count - block * _BLOCK_ROWS)
        for start in range(0, end, step):
            yield block, start, min(step, end - start)


def gaussian_sample(spec: GaussianSpec, n: int, count: int, seed: int) -> list[SpacePoint]:
    """count independent draws of (X_1..X_n) as max-norm sequence points."""
    n, count, seed = _check_shape(n, count, seed)
    out: list[SpacePoint] = []
    for block, start, rows in _chunks(n, count):
        a = _sample_block(spec, n, seed, block, rows, start)
        out.extend(seq_point(Space.LINF_SEQ, row) for row in a)
    return out


def estimate_nondiff_measure(
    spec: GaussianSpec, n: int, delta: float, count: int, seed: int
) -> MeasureEstimate:
    """Fraction of the ``count`` samples that fail delta-dominance.

    The one estimate of ``estimate_nondiff_measures(spec, n, (delta,),
    count, seed)``, which says what is counted.
    """
    return estimate_nondiff_measures(spec, n, (delta,), count, seed)[0]


def estimate_nondiff_measures(
    spec: GaussianSpec, n: int, deltas: Sequence[float], count: int, seed: int
) -> tuple[MeasureEstimate, ...]:
    """Fraction of samples that fail delta-dominance, for each delta.

    A sample fails it exactly when ``topology.classify(x, delta)`` rejects
    it: its largest absolute coordinate beats the runner-up by at most
    delta, the runner-up of a single coordinate being 0.  Every delta is
    counted on the same ``count`` samples, drawn once: each estimate is bit
    for bit what a call with that delta alone gives.  At delta = 0 that
    leaves exact ties, which have probability zero; every estimate carries
    their number as ``tie_hits``, and they are logged if they ever occur.
    W = min(``_WORKERS``, usable CPUs, chunks needed) threads count the
    samples, worker w drawing chunks w, w + W, ... of ``_CHUNK_VALUES // W``
    numbers, so memory stays within two arrays of ``_CHUNK_VALUES`` numbers;
    integer counts make the sums the same for every W.
    """
    n, count, seed = _check_shape(n, count, seed)
    deltas = tuple(deltas)
    if not deltas:
        raise PreconditionFailedError("need at least one delta")
    if not all(0.0 <= d < math.inf for d in deltas):
        raise PreconditionFailedError("delta must be finite and nonnegative", deltas=list(deltas))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    w = min(_WORKERS, cpus or 1, len(list(itertools.islice(_chunks(n, count), _WORKERS))))

    def count_part(first: int) -> tuple[list[int], int]:
        hits, ties, chunks = [0] * len(deltas), 0, _chunks(n, count, _CHUNK_VALUES // w)
        for block, start, rows in itertools.islice(chunks, first, None, w):
            a = _sample_block(spec, n, seed, block, rows, start)
            margin = _margins(np.abs(a, out=a))
            for i, d in enumerate(deltas):
                hits[i] += int(np.count_nonzero(margin <= d))
            ties += int(np.count_nonzero(margin == 0.0))
            del a, margin  # the chunk is freed before the worker draws its next one
        return hits, ties

    if w == 1:
        parts = [count_part(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(w) as pool:
            parts = list(pool.map(count_part, range(w)))
    hits = [sum(col) for col in zip(*(h for h, _ in parts))]
    ties = sum(t for _, t in parts)
    if ties:
        _LOG.warning("exact floating-point ties observed: %d of %d samples", ties, count)
    return tuple(
        MeasureEstimate(fraction=h / count, sample_count=count, delta=d, n=n, seed=seed, tie_hits=ties)
        for h, d in zip(hits, deltas)
    )


def b2_tie_probability_oracle(spec: GaussianSpec, delta: float) -> float:
    """P(||X_1| - |X_2|| <= delta) by deterministic quadrature.

    Reduces the two-dimensional event to one dimension by conditioning
    on |X_1|: the answer is the integral over u >= 0 of the folded-normal
    density of |X_1| times the probability that |X_2| lands within delta
    of u.  Entirely independent of the Monte-Carlo sampler.
    """
    if not 0.0 <= delta < math.inf:
        raise PreconditionFailedError("delta must be finite and nonnegative", delta=delta)
    if delta == 0.0:
        return 0.0
    from scipy.integrate import quad
    from scipy.special import ndtr

    s1, s2 = math.sqrt(spec.variance_at(1)), math.sqrt(spec.variance_at(2))
    inv_root = 1.0 / math.sqrt(2.0 * math.pi)

    def folded_pdf(u: float) -> float:
        z = u / s1
        return inv_root / s1 * (2.0 * math.exp(-0.5 * z * z))

    def folded_cdf(v: float) -> float:
        if v <= 0.0:
            return 0.0
        return float(ndtr(v / s2) - ndtr(-v / s2))

    def integrand(u: float) -> float:
        return folded_pdf(u) * (folded_cdf(u + delta) - folded_cdf(u - delta))

    value, abserr = quad(integrand, 0.0, np.inf, limit=200)
    if abserr > 1e-6:
        raise QuadratureNonconvergedError(
            "quadrature error estimate stayed above 1e-6", abserr=abserr
        )
    return float(value)
