"""Product Gaussian measures on max-norm truncations.

Independent-coordinate Gaussian laws, a summability check for when such
a product concentrates on bounded sequences, and Monte-Carlo estimation
of how much mass sits near the non-differentiability set of the max norm
(points whose two largest absolute coordinates are within delta of each
other).  The exact set of ties has measure zero; what is estimable at
desk scale is the delta-thickened family and its shrink-to-zero trend,
cross-checked at every n against deterministic quadrature of the
order-statistics formula (``tie_probability_oracle``).

Sampling is counter-based (Philox) in fixed blocks of rows, so results
are bit-identical across platforms and independent of how many blocks
run in parallel; the block stream depends only on (seed, block, n).
Any window of rows of a block can be drawn on its own, bit for bit, so
the estimator counts each block in chunks on up to ``_WORKERS`` threads
that share one ``_CHUNK_VALUES`` budget; memory depends on neither ``n``
nor ``count``.  Sampling accepts at most ``MAX_N`` coordinates.

Only the sampler imports scipy (``scipy.special.ndtri``), on its first
call, so importing the package does not load it; the quadrature oracle
is numpy and ``math.erf`` alone.
"""

from __future__ import annotations

import functools
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
    _number,
    _real,
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
    "tie_probability_oracle",
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
        object.__setattr__(self, "r", _real("r", self.r))
        variances = tuple(self.variances)
        for s in variances:
            if _number(s) and not s > 0.0:
                raise NonpositiveVarianceError("explicit variances must be positive", value=float(s))
            if not (_number(s) and s < math.inf):
                raise PreconditionFailedError("explicit variances must be finite numbers", value=s)
        object.__setattr__(self, "variances", tuple(map(float, variances)))
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
    """Unit variances on the n <= MAX_N coordinates a sample can have; n
    follows the integer rule of ``errors._integral``."""
    if not _integral(n):
        raise PreconditionFailedError(f"n must be an integer, got {n!r}", n=n)
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
    N, and N is at most ``MAX_TERMS``, which bounds the time.  N follows
    the integer rule of ``errors._integral``.
    """
    if not _integral(N):
        raise PreconditionFailedError(f"N must be an integer, got {N!r}", N=N)
    if not 1 <= N <= MAX_TERMS:
        raise PreconditionFailedError(f"need 1 <= N <= {MAX_TERMS}", N=N)
    m = max(1, N // 2)
    blocks = (range(lo, min(lo + _TERM_BLOCK, N + 1)) for lo in range(1, N + 1, _TERM_BLOCK))
    terms = (np.exp(np.fromiter((-spec.r / spec.variance_at(k) for k in ks), float, len(ks))) for ks in blocks)
    partial = math.fsum(itertools.chain.from_iterable(terms))
    a_mid, a_end = np.exp([-spec.r / spec.variance_at(k) for k in (m, N)]).tolist()
    flag = a_end == 0.0 or (m < N and a_mid > 0.0 and (math.log(a_mid) - math.log(a_end)) / math.log(N / m) > 1.0)
    return flag, partial


def _sample_block(
    spec: GaussianSpec, n: int, seed: int, block: int, rows: int = _BLOCK_ROWS, start: int = 0
) -> np.ndarray:
    """Rows ``[start, start + rows)`` of one block of Gaussian rows.

    A block depends only on (seed, block, n).  Its uniforms are
    ``(k + 0.5) * 2**-53`` for 53-bit integers k drawn by Philox, with
    k + 0.5 rounded to float64: exact below 2**52, the even neighbour
    above.  So k = 2**53 - 1 would give u = 1.0, where ``ndtri`` is inf;
    u is clamped to 1 - 2**-53, which moves no other value.  One draw
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
    np.minimum(a, 1.0 - 2.0**-53, out=a)
    ndtri(a, out=a)
    a *= spec.sd_array(n)
    return a


def _margins(a: np.ndarray) -> np.ndarray:
    """Largest minus second-largest entry of each row of ``a >= 0``.

    The runner-up of a single column is 0.  One running top-two scan over
    the columns, from a runner-up of 0, with ``np.maximum`` and
    ``np.minimum`` only, so the margins are exact: bit for bit the top two
    values ``np.partition`` finds, subtracted.  The running maximum and then the margins are written over
    the first column of ``a``, which is returned.
    """
    top = a[:, 0]
    if a.shape[1] == 1:
        return top
    second, low = np.zeros_like(top), np.empty_like(top)
    for j in range(1, a.shape[1]):
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
    deltas = tuple(_real("delta", d, zero=True) for d in deltas)
    if not deltas:
        raise PreconditionFailedError("need at least one delta")
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


def _gauss_legendre(integrand, edges: np.ndarray) -> float:
    """The integral of ``integrand`` over [edges[0], edges[-1]], a probability.

    A composite Gauss-Legendre rule: each panel between consecutive
    ``edges`` (a float array) gets a 20-point and a 10-point rule, and
    ``integrand`` is called once, on the array of all their nodes, one row
    per panel, with numpy's overflow and invalid-value warnings off.  The
    20-point sum is the value and its distance to the 10-point sum the
    error estimate.  An estimate above 1e-6, or one that is not finite (as
    it is whenever the value is not), raises
    :class:`QuadratureNonconvergedError` with the estimate as ``abserr``.
    The value is clamped into [0, 1], where a probability lies, so the
    clamp can only move an estimate toward it.
    """
    nodes, weights = _gauss_legendre_rules()
    half = 0.5 * np.diff(edges)
    with np.errstate(over="ignore", invalid="ignore"):  # what is not finite is refused below
        value, low = (half @ (integrand((edges[:-1] + half)[:, None] + half[:, None] * nodes) @ weights)).tolist()
    abserr = abs(value - low)
    if not abserr <= 1e-6:
        raise QuadratureNonconvergedError("quadrature error estimate is above 1e-6 or not finite", abserr=abserr)
    return min(max(value, 0.0), 1.0)


@functools.cache
def _gauss_legendre_rules() -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the 20- and then the 10-point rule on [-1, 1], and the
    (30, 2) matrix whose columns weigh a row of integrand values at them
    by the 20-point and by the 10-point rule."""
    from numpy.polynomial.legendre import leggauss

    (x_hi, w_hi), (x_lo, w_lo) = leggauss(20), leggauss(10)
    return np.concatenate([x_hi, x_lo]), np.stack([np.r_[w_hi, 0.0 * w_lo], np.r_[0.0 * w_hi, w_lo]], axis=1)


def _folded_density(z: np.ndarray) -> np.ndarray:
    """The density sqrt(2/pi) e^(-z^2/2) of |N(0, 1)| at z >= 0, read as 0
    past z = 37, where it is below 1e-297: numpy's exp is many times slower
    on results that underflow."""
    return math.sqrt(2.0 / math.pi) * np.exp(-0.5 * np.minimum(z, 37.0) ** 2) * (z < 37.0)


def tie_probability_oracle(spec: GaussianSpec, n: int, delta: float) -> float:
    """P(margin <= delta) over the first n coordinates, by deterministic quadrature.

    The margin is what ``estimate_nondiff_measures`` counts: the largest
    |X_i| minus the runner-up, which is 0 for a single coordinate.  With
    p_i the density and G_i the distribution function of |X_i|, the margin
    exceeds delta exactly when one coordinate beats all the others by more
    than delta, and almost surely one coordinate is the largest, so

        P = sum_i int_0^inf p_i(u) [prod_{j!=i} G_j(u) - 1{u > delta} prod_{j!=i} G_j(u - delta)] du,

    the order-statistics formula written as a difference; at n = 1 it is
    G_1(delta), and at delta = 0 it is 0.0.  With A_j = G_j(u), B_j =
    G_j(u - delta) (0 for u <= delta) and the band D_j = A_j - B_j, the
    integrand is the derivative at e = 0 of prod_j (A_j + e p_j) -
    prod_j (B_j + e p_j), with the factor 1{u > delta} in the second
    product.  One pass over the coordinates carries that difference and
    the product of the B_j, each with its derivative, by the product rule.
    Every update adds terms of one sign, so nothing cancels however small
    delta is, and each node costs O(n).  A band at most one standard
    deviation s of its coordinate wide is the 10-point Gauss-Legendre
    integral of the density over [max(u - delta, 0), u]; a wider one is a
    difference of two values of ``math.erf``.  Coordinates of equal s are
    computed once.

    A coordinate changes on the scale of its s near 0 and past delta,
    where its band starts to move, so for each distinct h = 2**floor(log2
    s) the panel edges of ``_gauss_legendre`` hold 0, h, 2h, ..., 80h below
    delta and delta, delta + h, ..., delta + 80h; all are cut at 12 times
    the largest s, past which each |X_i| has mass below 4e-33.  On unit
    variances and on the default law, at n = 1 and 2 and delta from 1e-5
    to 1, the value is within 1e-15 relative of a 40-digit value (at n = 1,
    of G_1(delta)).  n follows the rule of the estimator.  Entirely
    independent of the Monte-Carlo sampler, and loads no scipy module.
    """
    sd = spec.sd_array(_check_shape(n, 1, 0)[0])
    delta = _real("delta", delta, zero=True)
    nodes, weights = _gauss_legendre_rules()
    grid = np.unique(np.exp2(np.floor(np.log2(sd))))[:, None] * np.arange(81.0)
    edges = np.unique(np.minimum(np.r_[grid[grid < delta], delta + grid.ravel()], 12.0 * sd.max()))
    erf = np.frompyfunc(math.erf, 1, 1)  # erf(z / sqrt(2)) is the distribution function of |N(0, 1)|

    def integrand(u: np.ndarray) -> np.ndarray:
        # the product of the B_j so far (1{u > delta} for none), the difference, and their derivatives
        pb, gap, dpb, dgap = (u > delta) * 1.0, (u <= delta) * 1.0, 0.0, 0.0
        for s, repeat in zip(*np.unique(sd, return_counts=True)):
            a = erf(u / s / math.sqrt(2.0)).astype(float)
            if delta <= s:  # half the band [max(u - delta, 0), u], in units of s, is at most 1/2
                half = np.minimum(u, delta)[..., None] / (2.0 * s)
                d = half * _folded_density(u[..., None] / s - half + half * nodes[20:]) @ weights[20:, 1]
            else:
                d = a - erf(np.maximum(u - delta, 0.0) / s / math.sqrt(2.0)).astype(float)
            p, b = _folded_density(u / s) / s, a - d
            for _ in range(repeat):
                pb, dpb, gap, dgap = pb * b, dpb * b + pb * p, gap * a + pb * d, dgap * a + dpb * d + gap * p
        return dgap

    return _gauss_legendre(integrand, edges)


def b2_tie_probability_oracle(spec: GaussianSpec, delta: float) -> float:
    """P(||X_1| - |X_2|| <= delta): :func:`tie_probability_oracle` at n = 2."""
    return tie_probability_oracle(spec, 2, delta)
