"""Closed-form derivatives and non-differentiability witnesses.

For each space model this module knows, independently of any numerical
limit process, (a) where the norm is directionally differentiable, (b) the
derivative functional there in a sparse representation, and (c) at points
where differentiability fails, a direction along which the one-sided
difference quotients of the norm are exactly +1 (from the right) and -1
(from the left).

These closed forms are what the numerical engine in ``diffengine`` is
tested against; the two sides are implemented with no shared logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    MalformedPointError,
    NoDoubleMaxError,
    NotInComplementError,
    PreconditionFailedError,
)
from .spaces import (
    FUNCTION_SPACES,
    SEQUENCE_SPACES,
    NormValue,
    Space,
    SpacePoint,
    _lerp,
    eval_norm,
    seq_point,
    sig,
    step_fn,
    value_at,
)

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


@dataclass(frozen=True)
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


def coeff_rep(coeffs) -> LinearFunctionalRep:
    return LinearFunctionalRep(RepKind.COEFF_SEQ, coeffs=tuple(float(c) for c in coeffs))


def signed_index_rep(p: int, sigma: float, gap: float | None = None) -> LinearFunctionalRep:
    return LinearFunctionalRep(RepKind.SIGNED_INDEX, p=int(p), sigma=float(sigma), gap=gap)


def point_mass_rep(t0: float, sigma: float, gap: float | None = None) -> LinearFunctionalRep:
    return LinearFunctionalRep(RepKind.POINT_MASS, t0=float(t0), sigma=float(sigma), gap=gap)


def zero_rep() -> LinearFunctionalRep:
    return LinearFunctionalRep(RepKind.ZERO)


def apply_rep(rep: LinearFunctionalRep, h: SpacePoint) -> float:
    """Evaluate the represented functional at the direction ``h``."""
    if rep.kind is RepKind.ZERO:
        return 0.0
    if rep.kind is RepKind.POINT_MASS:
        return rep.sigma * value_at(h, rep.t0)
    if h.coords is None:
        raise PreconditionFailedError(f"{rep.kind.value} applies to sequence directions")
    if rep.kind is RepKind.SIGNED_INDEX:
        if rep.p > h.dim:
            raise PreconditionFailedError(f"direction has no coordinate {rep.p}")
        return rep.sigma * float(h.coords[rep.p - 1])
    n = min(len(rep.coeffs), h.dim)
    return float(np.dot(np.asarray(rep.coeffs[:n]), h.coords[:n]))


# -- membership oracles ----------------------------------------------------


def oracle_l1(x: SpacePoint) -> LinearFunctionalRep | None:
    """Derivative of the L1_SEQ norm, or None where it fails.

    The sum norm is differentiable exactly at points with every coordinate
    nonzero; there the derivative is the sign pattern h -> sum sig(x_k)h_k.
    """
    _expect(x, Space.L1_SEQ)
    if np.any(x.coords == 0.0):
        return None
    return coeff_rep(np.sign(x.coords))


def oracle_linf(x: SpacePoint, eps: float) -> LinearFunctionalRep | None:
    """Derivative of the max norm at eps-dominant points, else None.

    A point qualifies when one coordinate p satisfies |x_k| < |x_p| - eps
    (strictly) for every other k.  The returned SIGNED_INDEX carries
    ``gap`` = eps, the certified dominance level: for perturbations of
    sup norm below eps/2 the norm is exactly sig(x_p)*(x_p + h_p), so
    the first-order remainder is identically zero.

    A one-coordinate point is dominant whenever |x_1| > eps (the
    inter-coordinate condition is vacuous, but the certificate still
    needs the coordinate to clear eps so the sign survives perturbation).
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    if not eps > 0.0:
        raise PreconditionFailedError("eps must be positive")
    abs_c = np.abs(x.coords)
    p = int(abs_c.argmax())
    if not float(abs_c[p]) > eps:
        return None
    if x.dim > 1:
        second = float(np.delete(abs_c, p).max())
        if not second < float(abs_c[p]) - eps:
            return None
    return signed_index_rep(p + 1, sig(x.coords[p]), eps)


def _sup_scan(x: SpacePoint) -> tuple[float, list[tuple[float, float]]]:
    """Sup of |x| plus the (position, value) candidates in t-order.

    The candidates are the value at ``a``, then at each later knot its
    left limit followed, except at ``b``, by its attained value.
    """
    pos = np.repeat(x.knots, 2)[1:-1]
    vals = np.column_stack((x.lefts, x.values)).ravel()[1:-1]
    cands = list(zip(pos.tolist(), vals.tolist()))
    return max(abs(v) for _, v in cands), cands


def _peak_sites(x: SpacePoint) -> tuple[float, dict[float, float]]:
    """Sup of |x| and, in t-order, each position where a candidate reaches
    it, mapped to the first such candidate value there."""
    norm, cands = _sup_scan(x)
    sites: dict[float, float] = {}
    for pos, val in cands:
        if abs(val) == norm and pos not in sites:
            sites[pos] = val
    return norm, sites


def _unique_argmax(x: SpacePoint) -> tuple[float, float, float] | None:
    """(t0, f(t0), norm) when |x| peaks at exactly one domain point."""
    norm, sites = _peak_sites(x)
    if len(sites) != 1 or norm == 0.0:
        return None
    t0, v = next(iter(sites.items()))
    return t0, v, norm


def _gap_outside(x: SpacePoint, t0: float, rho: float, norm: float) -> float:
    """norm minus the sup of |x| outside the open rho-ball around t0.

    ``rho = 0`` leaves out only t0 itself: the competitors are then the
    values and left limits at every other knot.  LINF_R also counts its
    constant tails, which lie outside every ball.
    """
    k, v, e = x.knots, x.values, x.lefts
    if rho == 0.0:
        off = k != t0
        competitors = [v[off], e[off]]
    else:
        # clip each segment [kl, kr] to the complement of (t0 - rho, t0 + rho)
        kl, kr, start, end = k[:-1], k[1:], v[:-1], e[1:]
        lo, hi = t0 - rho, t0 + rho
        left_part = kl <= lo
        right_part = kr >= hi
        at_lo = _lerp(start, end, (np.clip(lo, kl, kr) - kl) / (kr - kl))
        at_hi = _lerp(start, end, (np.clip(hi, kl, kr) - kl) / (kr - kl))
        competitors = [start[left_part], at_lo[left_part], at_hi[right_part], end[right_part]]
    if x.space is Space.LINF_R:
        competitors.append(v[[0, -1]])
    return norm - max(float(np.abs(c).max(initial=0.0)) for c in competitors)


def oracle_csup(f: SpacePoint, rho: float) -> LinearFunctionalRep | None:
    """Derivative of the C_AB sup norm at unique-peak points, else None.

    When |f| attains its max at exactly one point t0 the derivative is the
    signed point evaluation h -> sig(f(t0)) * h(t0).  ``gap`` certifies the
    margin by which |f| stays below the norm outside the open rho-ball
    around t0; it is positive for every rho > 0 at a unique peak.
    """
    _expect(f, Space.C_AB)
    if rho <= 0.0:
        raise PreconditionFailedError("rho must be positive")
    hit = _unique_argmax(f)
    if hit is None:
        return None
    t0, v, norm = hit
    gap = _gap_outside(f, t0, rho, norm)
    if not gap > 0.0:
        return None
    return point_mass_rep(t0, sig(v), gap)


def oracle_Linf(f: SpacePoint, rho: float) -> LinearFunctionalRep | None:
    """Derivative of the LINF_R norm at unique interior peaks, else None.

    Requires a continuous representation (no jumps).  A peak at the window
    edge never qualifies: the constant extension attains the same value on
    an unbounded set.
    """
    _expect(f, Space.LINF_R)
    if rho <= 0.0:
        raise PreconditionFailedError("rho must be positive")
    if np.any(f.jumps() != 0.0):
        raise PreconditionFailedError("oracle_Linf needs a continuous representation")
    hit = _unique_argmax(f)
    if hit is None:
        return None
    t0, v, norm = hit
    if t0 == f.a or t0 == f.b:
        return None
    gap = _gap_outside(f, t0, rho, norm)
    if not gap > 0.0:
        return None
    return point_mass_rep(t0, sig(v), gap)


# -- failure witnesses -----------------------------------------------------


def witness_linf(x: SpacePoint, tie_tol: float = 0.0) -> SpacePoint:
    """Direction along which the LINF_SEQ norm has quotients +1 / -1.

    Requires at least two coordinates within ``tie_tol`` of the max
    absolute value.  The direction pushes the first maximal coordinate
    outward (+sig) and the second tied coordinate inward (-sig), so for an
    exact tie the difference quotient of the norm is exactly +1 for every
    t > 0 and -1 for every small t < 0.  Zero coordinates count as +1 sign.
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    if tie_tol < 0.0:
        raise PreconditionFailedError("tie_tol must be nonnegative")
    abs_c = np.abs(x.coords)
    top = float(abs_c.max())
    tied = [i for i in range(x.dim) if abs_c[i] >= top - tie_tol]
    if len(tied) < 2:
        raise NotInComplementError(
            "point has a dominant coordinate; no tie within tie_tol",
            top=top,
            tie_tol=tie_tol,
        )
    first = int(abs_c.argmax())
    second = next(i for i in tied if i != first)
    h = np.zeros(x.dim)
    s_first = sig(x.coords[first]) or 1.0
    s_second = sig(x.coords[second]) or 1.0
    h[first] = s_first
    h[second] = -s_second
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
    norm, sites = _peak_sites(f)
    if norm == 0.0:
        raise NoDoubleMaxError("the zero function has no maximum structure")
    if len(sites) < 2:
        raise NoDoubleMaxError("|f| attains its sup at fewer than two points")
    (x0, v0), (x1, v1) = list(sites.items())[:2]
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
    jump-free midpoint of the breakpoint partition.
    """
    _expect(f, Space.NBV_AB)
    _, cands = _sup_scan(f)
    lo = min(cands, key=lambda pv: (pv[1], pv[0]))
    hi = max(cands, key=lambda pv: (pv[1], -pv[0]))
    candidates = []
    if lo[0] != hi[0]:
        candidates.append(lo[0] + (hi[0] - lo[0]) / 2.0)
    candidates.append(f.a + (f.b - f.a) / 2.0)
    k = f.knots
    candidates.extend(float(k[i] + (k[i + 1] - k[i]) / 2.0) for i in range(k.shape[0] - 1))
    bset = set(f.breakpoints.tolist())
    for mid in candidates:
        if f.a < mid < f.b and mid not in bset:
            return step_fn(Space.NBV_AB, f.a, f.b, mid, 0.0, 1.0)
    raise MalformedPointError("no jump-free interior point found")  # unreachable for valid f


def _expect(x: SpacePoint, *spaces: Space) -> None:
    if x.space not in spaces:
        names = ", ".join(s.value for s in spaces)
        raise PreconditionFailedError(f"expected a point of {names}, got {x.space.value}")
