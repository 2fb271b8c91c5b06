"""Closed-form derivatives and non-differentiability witnesses.

For each space model this module knows, independently of any numerical
limit process, (a) where the norm is directionally differentiable, (b) the
derivative functional there in a sparse representation, and (c) at points
where differentiability fails, a direction along which the one-sided
difference quotients of the norm are exactly +1 (from the right) and -1
(from the left).

Membership, the dominant index or peak location, and the peak gap all
come from ``topology.classify``, the one membership test; this module adds
the signs, representations and witness directions.  These closed forms are
what the numerical engine in ``diffengine`` is tested against; the engine
shares the representation type and :func:`apply_rep` with them, and
nothing else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoDoubleMaxError, NotInComplementError, PreconditionFailedError, _real
from .spaces import Space, SpacePoint, _abs_profile, _expect, _top_two, seq_point, sig, step_fn, value_at
from .topology import _peak_sites, classify

__all__ = [
    "RepKind",
    "LinearFunctionalRep",
    "apply_rep",
    "coeff_rep",
    "signed_index_rep",
    "point_mass_rep",
    "zero_rep",
    "oracle_l1",
    "oracle_linf",
    "oracle_csup",
    "oracle_Linf",
    "witness_linf",
    "witness_Linf",
    "witness_nbv",
]


class RepKind(str, Enum):
    COEFF_SEQ = "COEFF_SEQ"
    SIGNED_INDEX = "SIGNED_INDEX"
    POINT_MASS = "POINT_MASS"
    ZERO = "ZERO"


@dataclass(frozen=True, slots=True)
class LinearFunctionalRep:
    """Sparse representation of a derivative functional.

    ``COEFF_SEQ``    h -> sum_k coeffs[k] * h_k
    ``SIGNED_INDEX`` h -> sigma * h_p           (p is 1-based)
    ``POINT_MASS``   h -> sigma * h(t0)
    ``ZERO``         h -> 0

    ``gap`` is an optional certified margin: for SIGNED_INDEX it is the
    dominance margin of coordinate p, within half of which the norm is
    exactly linear (so the first-order remainder vanishes identically).
    """

    kind: RepKind
    coeffs: tuple[float, ...] | None = None
    p: int | None = None
    sigma: float | None = None
    t0: float | None = None
    gap: float | None = None

    def __post_init__(self):
        k = self.kind
        allowed = {
            RepKind.COEFF_SEQ: ("coeffs",),
            RepKind.SIGNED_INDEX: ("p", "sigma", "gap"),
            RepKind.POINT_MASS: ("t0", "sigma", "gap"),
            RepKind.ZERO: (),
        }[k]
        for field in ("coeffs", "p", "sigma", "t0", "gap"):
            if field not in allowed and getattr(self, field) is not None:
                raise ValueError(f"{k.value} does not carry {field!r}")
        if k is RepKind.COEFF_SEQ and not self.coeffs:
            raise ValueError("COEFF_SEQ needs a nonempty coefficient tuple")
        if k is RepKind.SIGNED_INDEX and (self.p is None or self.p < 1 or self.sigma not in (-1.0, 1.0)):
            raise ValueError("SIGNED_INDEX needs a 1-based index and sigma in {-1, +1}")
        if k is RepKind.POINT_MASS and (self.t0 is None or self.sigma not in (-1.0, 1.0)):
            raise ValueError("POINT_MASS needs a location and sigma in {-1, +1}")
        if self.gap is not None and not self.gap > 0.0:
            raise ValueError("gap, when given, must be positive")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is RepKind.COEFF_SEQ:
            doc["coeffs"] = list(self.coeffs)
        elif self.kind is RepKind.SIGNED_INDEX:
            doc["p"] = self.p
            doc["sigma"] = self.sigma
        elif self.kind is RepKind.POINT_MASS:
            doc["t0"] = self.t0
            doc["sigma"] = self.sigma
        if self.gap is not None:
            doc["gap"] = self.gap
        return doc


# Keys (value, sign) of the coefficients most derivatives of norms hold.
_SIGNS = {(v, math.copysign(1.0, v)): v for v in (1.0, -1.0, 0.0, -0.0)}


def coeff_rep(coeffs) -> LinearFunctionalRep:
    """A COEFF_SEQ representation.  Equal coefficient sequences, bit for
    bit, share one representation (see :func:`_shared`); within one,
    coefficients equal bit for bit share one float, and signs and zeros
    share the module's, so the sign vector that is the derivative of the
    sum norm holds no float of its own."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("COEFF_SEQ needs a one-dimensional coefficient sequence")
    return _shared(RepKind.COEFF_SEQ, coeffs.tobytes(), None)


def signed_index_rep(p: int, sigma: float, gap: float | None = None) -> LinearFunctionalRep:
    if gap is None:
        return _shared(RepKind.SIGNED_INDEX, int(p), float(sigma))
    return LinearFunctionalRep(RepKind.SIGNED_INDEX, p=int(p), sigma=float(sigma), gap=gap)


def point_mass_rep(t0: float, sigma: float, gap: float | None = None) -> LinearFunctionalRep:
    if gap is None:
        t0 = float(t0)
        return _shared(RepKind.POINT_MASS, t0, float(sigma), math.copysign(1.0, t0))
    return LinearFunctionalRep(RepKind.POINT_MASS, t0=float(t0), sigma=float(sigma), gap=gap)


@functools.lru_cache(maxsize=1024)
def _shared(kind: RepKind, at, sigma: float | None, sign: float = 1.0) -> LinearFunctionalRep:
    """The representation ``sigma * h_at`` (a coordinate), ``sigma *
    h(at)`` (a point) or, for COEFF_SEQ, ``sum_k c_k * h_k`` whose
    coefficients c are the float64 bytes ``at``, without a gap.
    Representations are immutable, so one object serves every caller that
    asks for the same one; ``sign``, and the bytes of a coefficient, keep
    0.0 and -0.0 apart."""
    if kind is RepKind.COEFF_SEQ:
        seen = dict(_SIGNS)
        return LinearFunctionalRep(
            kind, coeffs=tuple(seen.setdefault((c, math.copysign(1.0, c)), c) for c in np.frombuffer(at).tolist())
        )
    if kind is RepKind.SIGNED_INDEX:
        return LinearFunctionalRep(kind, p=at, sigma=sigma)
    return LinearFunctionalRep(kind, t0=at, sigma=sigma)


def zero_rep() -> LinearFunctionalRep:
    return LinearFunctionalRep(RepKind.ZERO)


def apply_rep(rep: LinearFunctionalRep, h: SpacePoint) -> float:
    """Evaluate the represented functional at the direction ``h``.

    A direction it cannot be applied to is :class:`PreconditionFailedError`:
    POINT_MASS applies to function directions whose domain holds t0 (every
    t0, for LINF_R, which extends constantly), SIGNED_INDEX and COEFF_SEQ
    to sequence directions with at least p coordinates, or one per
    coefficient.  A longer direction is read at its first coordinates.
    """
    if rep.kind is RepKind.ZERO:
        return 0.0
    if rep.kind is RepKind.POINT_MASS:
        if h.coords is not None:
            raise PreconditionFailedError("POINT_MASS applies to function directions")
        if h.space is not Space.LINF_R and not h.a <= rep.t0 <= h.b:
            raise PreconditionFailedError(f"POINT_MASS at {rep.t0} lies outside the domain [{h.a}, {h.b}]")
        return rep.sigma * value_at(h, rep.t0)
    if h.coords is None:
        raise PreconditionFailedError(f"{rep.kind.value} applies to sequence directions")
    n = rep.p if rep.kind is RepKind.SIGNED_INDEX else len(rep.coeffs)
    if n > h.dim:
        raise PreconditionFailedError(f"direction has no coordinate {n}")
    if rep.kind is RepKind.SIGNED_INDEX:
        return rep.sigma * float(h.coords[n - 1])
    return float(np.dot(np.asarray(rep.coeffs), h.coords[:n]))


# -- membership oracles ----------------------------------------------------


def oracle_l1(x: SpacePoint) -> LinearFunctionalRep | None:
    """Derivative of the L1_SEQ norm, or None where it fails.

    The sum norm is differentiable exactly at points with every coordinate
    nonzero, which ``classify`` decides; there the derivative is the sign
    pattern h -> sum sig(x_k)h_k.
    """
    _expect(x, Space.L1_SEQ)
    if not classify(x).in_B:
        return None
    return coeff_rep(np.sign(x.coords))


def oracle_linf(x: SpacePoint, eps: float) -> LinearFunctionalRep | None:
    """Derivative of the max norm at eps-dominant points, else None.

    ``classify(x, eps)`` decides dominance: one coordinate p clears eps
    and every other coordinate by more than eps.  The returned
    SIGNED_INDEX carries ``gap`` = eps, the certified dominance level: for
    perturbations of sup norm below eps/2 the norm is exactly
    sig(x_p)*(x_p + h_p), so the first-order remainder is identically zero.
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    eps = _real("eps", eps)
    report = classify(x, eps)
    if not report.in_B:
        return None
    p = report.p_or_t0
    return signed_index_rep(p, sig(x.coords[p - 1]), eps)


def oracle_csup(f: SpacePoint, rho: float) -> LinearFunctionalRep | None:
    """Derivative of the C_AB sup norm at unique-peak points, else None.

    When |f| attains its max at exactly one point t0 the derivative is the
    signed point evaluation h -> sig(f(t0)) * h(t0).  ``gap`` certifies the
    margin by which |f| stays below the norm outside the open rho-ball
    around t0; it is positive for every rho > 0 at a unique peak.
    """
    _expect(f, Space.C_AB)
    return _peak_oracle(f, rho)


def oracle_Linf(f: SpacePoint, rho: float) -> LinearFunctionalRep | None:
    """Derivative of the LINF_R norm at unique interior peaks, else None.

    Requires a continuous representation (no jumps).  A peak at the window
    edge never qualifies: the constant extension attains the same value on
    an unbounded set.  At an interior continuous peak the answer is wrong:
    the tent ``pw_from_values(LINF_R, [-1, 0, 1], [0, 1, 0])`` gets
    ``POINT_MASS`` at t0 = 0 for rho = 0.25, but a step at the peak,
    ``step_fn(LINF_R, -1, 1, 0, 0, 1)``, has one-sided derivatives 1 and 0
    there, so the norm is not Gâteaux differentiable (see ``classify``).
    """
    _expect(f, Space.LINF_R)
    return _peak_oracle(f, rho)


def _peak_oracle(f: SpacePoint, rho: float) -> LinearFunctionalRep | None:
    """The signed point evaluation at the peak t0 and with the gap that
    ``classify(f, rho)`` certifies, or None where it rejects f."""
    rho = _real("rho", rho)
    if np.any(f.jumps() != 0.0):
        raise PreconditionFailedError("a sup-norm oracle needs a continuous representation")
    report = classify(f, rho)
    if not report.in_B:
        return None
    t0 = report.p_or_t0
    return point_mass_rep(t0, sig(value_at(f, t0)), report.gap)


# -- failure witnesses -----------------------------------------------------


def witness_linf(x: SpacePoint, tie_tol: float = 0.0) -> SpacePoint:
    """Direction along which the LINF_SEQ norm has quotients +1 / -1, at x
    for an exact tie and at a tie point near x for a near tie.

    Requires ``classify(x, tie_tol)`` to reject x: no coordinate clears
    both tie_tol and every other coordinate by more than tie_tol.  The
    direction h pushes the first maximal coordinate p outward (+sig) and
    the runner-up q, the first largest of the other coordinates, if there
    is one, inward (-sig).  Zero coordinates count as +1 sign.

    At an exact tie h is a witness at x itself: the difference quotient of
    the norm is exactly +1 for every t > 0 and -1 for every small t < 0.
    At a near tie it is a witness at the tie point ``y = x - (m/2)*h``,
    where ``m = |x_p| - |x_q| <= tie_tol``: there x_p and x_q tie, y lies
    within tie_tol/2 of x, and no other coordinate exceeds their common
    magnitude, so the quotients at y are exactly +1 / -1.  At x the
    quotients along h need not split: for [2.0, 1.875] with tie_tol 0.25
    the direction is [1, -1], along which both one-sided limits are 1.  A
    one-coordinate point [x_1] with ``|x_1| <= tie_tol`` gets
    ``[sig(x_1) or 1]``, a witness at the origin, within tie_tol of x.
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    tie_tol = _real("tie_tol", tie_tol, zero=True)
    profile = _abs_profile(x.coords, None, None)
    p, q = _top_two(profile)
    if classify(x, tie_tol).in_B:
        raise NotInComplementError(
            "point has a dominant coordinate; no tie within tie_tol",
            top=float(profile[p]),
            tie_tol=tie_tol,
        )
    h = np.zeros(x.dim)
    h[p] = sig(x.coords[p]) or 1.0
    if q is not None:
        h[q] = -(sig(x.coords[q]) or 1.0)
    return seq_point(x.space, h)


def witness_Linf(f: SpacePoint) -> SpacePoint:
    """Step direction along which the LINF_R norm has quotients +1 / -1.

    Requires |f| to attain its sup at two or more points.  With maxima
    x0 < x1 the witness takes the value sig(f(x0)) left of the midpoint
    x0 + (x1-x0)/2 and -sig(f(x1)) from the midpoint on.  Then for small
    t > 0 the norm of f + t*h is norm + t (the peak pushed outward wins)
    and for small t < 0 it is norm + |t|, so d_plus = +1 and d_minus = -1
    exactly.  No +/-1 step can make both one-sided quotients negative: the
    sup of a two-peak function responds to the fastest-growing peak.
    """
    _expect(f, Space.LINF_R)
    norm, sites, signed = _peak_sites(f)
    if norm == 0.0:
        raise NoDoubleMaxError("the zero function has no maximum structure")
    if len(sites) < 2:
        raise NoDoubleMaxError("|f| attains its sup at fewer than two points")
    (x0, x1), (v0, v1) = sites[:2], signed[:2]
    split = x0 + (x1 - x0) / 2.0
    return step_fn(Space.LINF_R, f.a, f.b, split, sig(v0) or 1.0, -(sig(v1) or 1.0))


def witness_nbv(f: SpacePoint) -> SpacePoint:
    """Unit step whose total-variation quotients at ``f`` are +1 / -1.

    A step of height 1 inserted at a point where f is continuous adds
    |t| to the total variation of f + t*h for every small t, regardless
    of f, so d_plus = +1 and d_minus = -1 exactly: the variation norm is
    differentiable nowhere in this model.  The step is placed at the
    midpoint between the locations of the minimal and maximal one-sided
    values of f when that point is jump-free, otherwise at the first
    jump-free midpoint of the breakpoint partition.  When every float
    strictly inside [a, b] is a breakpoint of f (on [1, 1 + 2**-52] there
    is none) the step has nowhere to go: :class:`PreconditionFailedError`.
    """
    _expect(f, Space.NBV_AB)
    k = f.knots
    sided = np.column_stack((f.lefts, f.values)).ravel()  # in t-order, left limit first
    lo, hi = float(k[sided.argmin() // 2]), float(k[sided.argmax() // 2])
    candidates = [lo + (hi - lo) / 2.0] if lo != hi else []
    candidates.append(f.a + (f.b - f.a) / 2.0)
    candidates.extend((k[:-1] + np.diff(k) / 2.0).tolist())
    bset = set(f.breakpoints.tolist())
    for mid in candidates:
        if f.a < mid < f.b and mid not in bset:
            return step_fn(Space.NBV_AB, f.a, f.b, mid, 0.0, 1.0)
    raise PreconditionFailedError(f"every float strictly inside [{f.a}, {f.b}] is a breakpoint of f")
