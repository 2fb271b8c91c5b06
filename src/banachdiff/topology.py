"""Membership classifiers and constructive density/openness checks.

``classify`` decides whether a point sits in the differentiability set of
its space's norm and, when it does, emits the certificate (dominant index
or unique peak location plus a positive margin) that the closed-form
derivative builds upon.  It is the only membership test: the oracles and
the tie witness in ``oracles`` read its verdict instead of repeating it.
Every sup decision here and in the witnesses reads one scan: the profile
whose max ``spaces.eval_norm`` takes (|coordinate|, or per knot the larger
of |value| and |left limit|), and the helper that finds its two largest
entries.  The ``densify_*`` builders move an arbitrary point into that
set by less than a requested distance, and ``ball_check_linf`` samples a
whole ball to confirm that max-norm dominance survives perturbation — a
theorem check whose failure would signal a bug, not new mathematics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._rng import philox_gen
from .errors import PreconditionFailedError, _integral, _real
from .spaces import (
    SEQUENCE_SPACES,
    Space,
    SpacePoint,
    _abs_profile,
    _at_knots,
    _expect,
    _top_two,
    _union,
    eval_norm,
    linear_combine,
    pw_from_values,
    seq_point,
    sig,
    subtract,
)

__all__ = [
    "MembershipReport",
    "classify",
    "densify_l1",
    "densify_linf",
    "densify_csup",
    "ball_check_linf",
]

# The smallest positive float: the least tail densify_l1 puts in a zero coordinate.
_TINY = math.ulp(0.0)
# Every space, in declaration order: classify takes a point of any of them.
_ANY_SPACE = tuple(Space)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a differentiability-set membership test.

    ``p_or_t0`` is the 1-based dominant/critical index for sequence
    spaces and the peak location for function spaces; ``gap`` is the
    certified positive margin.  Both are present exactly when ``in_B``.
    """

    space: Space
    in_B: bool
    p_or_t0: float | int | None
    gap: float | None
    certificate: str

    def __post_init__(self):
        if self.in_B and (self.p_or_t0 is None or self.gap is None):
            raise ValueError("membership requires an index/location and a gap")

    def to_dict(self) -> dict:
        seq = self.space in SEQUENCE_SPACES
        return {
            "in_B": self.in_B,
            "p": int(self.p_or_t0) if (self.in_B and seq) else None,
            "t0": float(self.p_or_t0) if (self.in_B and not seq) else None,
            "gap": self.gap,
            "certificate": self.certificate,
        }


def classify(x: SpacePoint, eps: float = 0.0) -> MembershipReport:
    """Membership of x in the differentiability set of its norm.

    This is the one place membership is decided: ``oracle_l1``,
    ``oracle_linf``, ``oracle_csup``, ``oracle_Linf`` and ``witness_linf``
    take their in/out answer, the index or peak location and the peak gap
    from it.  eps strengthens the test: L1_SEQ requires every |x_n| > eps;
    LINF_SEQ requires the dominant coordinate to clear the runner-up by
    more than eps; for C_AB/LINF_R, eps is the exclusion radius around
    the unique peak over whose complement the reported gap is measured
    (eps = 0 degrades to the pure uniqueness test).  NBV_AB points are
    never members: a fresh unit jump direction defeats every point.  x
    passes the point rule ``spaces._expect`` with every space allowed.

    For LINF_R a unique continuous peak is not enough, and this answer is
    wrong there: the tent ``pw_from_values(LINF_R, [-1, 0, 1], [0, 1, 0])``
    is called a member with t0 = 0, but along the step at the peak,
    ``step_fn(LINF_R, -1, 1, 0, 0, 1)``, the norm's one-sided derivatives
    are 1 and 0, and ``gateaux_verdict`` says NOT_GATEAUX.
    """
    _expect(x, *_ANY_SPACE)
    eps = _real("eps", eps, zero=True)
    if x.space is Space.L1_SEQ:
        abs_c = np.abs(x.coords)
        m = int(abs_c.argmin())
        lo = float(abs_c[m])
        if lo > eps:
            return MembershipReport(
                x.space, True, m + 1,
                lo - eps,
                f"min |x_n| = {lo} > {eps} (smallest at n={m + 1}); every coordinate is signed",
            )
        return MembershipReport(
            x.space, False, None, None,
            f"|x_{m + 1}| = {lo} fails the > {eps} floor",
        )
    if x.space in (Space.LINF_SEQ, Space.RT):
        profile = _abs_profile(x.coords, None, None)
        p, q = _top_two(profile)
        top = float(profile[p])
        second = 0.0 if q is None else float(profile[q])
        margin = top - second
        if margin > eps and top > eps:
            return MembershipReport(
                x.space, True, p + 1, margin,
                f"|x_{p + 1}| = {top} dominates the runner-up {second} by {margin} > {eps}",
            )
        return MembershipReport(
            x.space, False, None, None,
            f"largest coordinate margin {margin} does not clear {eps}",
        )
    if x.space in (Space.C_AB, Space.LINF_R):
        return _classify_sup_fn(x, eps)
    return MembershipReport(
        x.space, False, None, None,
        "the total-variation norm admits a fresh-jump direction with "
        "one-sided slopes +1/-1 at every point",
    )


def _peak_sites(x: SpacePoint) -> tuple[float, list[float], list[float]]:
    """The sup of |x| (the cached ``eval_norm``), and in t-order the knots
    where the profile reaches it, each with the signed value of x that
    reaches it there: the left limit if it does, else the attained value."""
    norm = eval_norm(x).value
    at = np.flatnonzero(_abs_profile(None, x.values, x.lefts) == norm)
    lefts = x.lefts[at]
    signed = np.where(np.abs(lefts) == norm, lefts, x.values[at])
    return norm, x.knots[at].tolist(), signed.tolist()


def _gap_outside(x: SpacePoint, t0: float, rho: float, norm: float) -> float:
    """norm minus the sup of |x| outside the open rho-ball around t0.

    x is read at its knots and at the ends of the ball that fall inside
    [a, b], and the profile is scanned at those of them outside the ball;
    ``rho = 0`` leaves out only t0 itself, one of the knots.  LINF_R also
    counts its constant tails, which lie outside every ball.
    """
    k = x.knots
    lo, hi = t0 - rho, t0 + rho
    t = _union(k, np.clip((lo, hi), k[0], k[-1]))
    outside = (t <= lo) | (t >= hi) if rho > 0.0 else t != t0
    if x.space is Space.LINF_R:
        outside[[0, -1]] = True
    profile = _abs_profile(None, *_at_knots(x, t))
    return norm - float(profile[outside].max(initial=0.0))


def _classify_sup_fn(x: SpacePoint, eps: float) -> MembershipReport:
    norm, sites, _ = _peak_sites(x)
    if norm == 0.0:
        return MembershipReport(x.space, False, None, None, "the zero function peaks everywhere")
    if len(sites) > 1:
        return MembershipReport(
            x.space, False, None, None,
            f"|f| attains its sup {norm} at {len(sites)} points ({sites[0]}, {sites[1]}, ...)",
        )
    t0 = sites[0]
    if x.space is Space.LINF_R and (t0 == x.a or t0 == x.b):
        return MembershipReport(
            x.space, False, None, None,
            f"the peak at {t0} sits on the window edge, where the constant "
            "extension attains the same value on a half-line",
        )
    gap = _gap_outside(x, t0, eps, norm)
    if gap > 0.0:
        return MembershipReport(
            x.space, True, t0, gap,
            f"|f| peaks only at t0={t0} (value {norm}); off a radius-{eps} "
            f"neighborhood it stays below by {gap}",
        )
    return MembershipReport(
        x.space, False, None, None,
        f"|f| peaks only at t0={t0} (value {norm}), but off a radius-{eps} neighborhood it "
        f"reads {norm - gap} once rounded: eps is too small to certify a gap at this float resolution",
    )


def _repaired(x: SpacePoint, y: SpacePoint | None, eps: float, limit: str) -> SpacePoint:
    """y, the repair of x, once it is checked to be a member closer to x
    than eps.  A repair that floats cannot make at this eps raises
    :class:`PreconditionFailedError`: y is None when the repair would lift
    the sup of |x| past the largest finite float, which the error names;
    otherwise the repair fails the check, and the error names ``limit``,
    the float limit in its way."""
    if y is None:
        raise PreconditionFailedError(
            f"eps {eps} lifts the sup {eval_norm(x).value} past the largest finite float {sys.float_info.max}"
        )
    if not (classify(y, 0.0).in_B and eval_norm(subtract(y, x)).value < eps):
        raise PreconditionFailedError(f"eps {eps} is too small for {limit}")
    return y


def densify_l1(x: SpacePoint, eps: float) -> SpacePoint:
    """Replace zero coordinates with a fast-decaying signed tail.

    A zero at coordinate n (1-based) becomes eps/2^(n+1), so the moved
    mass totals under eps/2 and the result has every coordinate nonzero:
    strictly inside the differentiability set, strictly closer than eps.
    The tail is ``np.ldexp(eps, -(n + 1))``, so only the tail itself can
    underflow, never the power of two before the product.  Where it does
    (from n = 1074 on at eps = 1) it is floored at the smallest positive
    float; an eps too small for those floors to stay within it is refused
    (see :func:`_repaired`).
    """
    _expect(x, Space.L1_SEQ)
    eps = _real("eps", eps)
    y = x.coords.copy()
    zeros = np.flatnonzero(y == 0.0)
    y[zeros] = np.maximum(np.ldexp(eps, -(zeros + 2)), _TINY)
    limit = f"a tail of {zeros.size} zero coordinates of at least the smallest positive float {_TINY} each"
    return _repaired(x, seq_point(Space.L1_SEQ, y), eps, limit)


def densify_linf(x: SpacePoint, eps: float) -> SpacePoint:
    """Push the max coordinate clear of the pack by eps/2.

    The largest coordinate p is replaced by sig(x_p)*(norm + eps/2)
    (sign +1 at the zero point), which moves the point by eps/2 up to
    rounding and leaves it dominating every other coordinate by about as
    much.  An eps below the float spacing at the sup moves nothing, and
    one that lifts the sup past the largest finite float cannot be held;
    both are refused (see :func:`_repaired`).
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    eps = _real("eps", eps)
    norm = eval_norm(x)
    p = norm.witness - 1
    top = norm.value + eps / 2.0
    y = x.coords.copy()
    y[p] = (sig(x.coords[p]) or 1.0) * top
    repair = seq_point(x.space, y) if top < math.inf else None
    return _repaired(x, repair, eps, f"the float spacing at the sup {norm.value}")


def densify_csup(f: SpacePoint, eps: float) -> SpacePoint:
    """Give |f| a unique peak by adding a small triangular bump.

    If |f| already peaks at a single point, f is returned unchanged.
    Otherwise a continuous bump of height eps/2, sign-aligned with f at
    its first peak and supported on a neighborhood short of the adjacent
    knots, lifts that peak above all others; the result is verified to be
    a member closer to f than eps before being returned; an eps too small
    for the float spacing at the sup of |f| fails that, and one that lifts
    the sup past the largest finite float cannot be held: both raise
    :class:`PreconditionFailedError` (see :func:`_repaired`).
    """
    _expect(f, Space.C_AB)
    eps = _real("eps", eps)
    if classify(f, 0.0).in_B:
        return f
    norm, sites, signed = _peak_sites(f)
    t1, sigma = sites[0], sig(signed[0]) or 1.0  # the first peak

    k = f.knots
    adjacent = np.diff(k)[(k[:-1] <= t1) & (t1 <= k[1:])]
    w = 2.0 ** math.floor(math.log2(min(float(adjacent.min()), (f.b - f.a) / 4.0) / 2.0))

    lo, hi = max(f.a, t1 - w), min(f.b, t1 + w)
    bpos = [p for p in (lo, t1, hi) if f.a < p < f.b]
    positions = [f.a] + bpos + [f.b]
    values = [0.0] * len(positions)
    values[positions.index(t1)] = sigma * (eps / 2.0)
    bump = pw_from_values(Space.C_AB, positions, values)

    repair = linear_combine(1.0, f, 1.0, bump) if norm + eps / 2.0 < math.inf else None
    return _repaired(f, repair, eps, f"the float spacing at the sup {norm} of |f|")


def ball_check_linf(x: SpacePoint, eps: float, trial_count: int, seed: int) -> bool:
    """Confirm that dominance is an open condition by sampling a ball.

    Requires x to dominate at level eps.  Samples trial_count points
    within eps/4 of x (coordinatewise uniform) and checks each satisfies
    |y_k| <= |y_p| - eps/2 at the same dominant index p.  Always true by
    the triangle inequality; a False return means the implementation is
    broken somewhere, which is exactly what this check is for.
    """
    _expect(x, Space.LINF_SEQ, Space.RT)
    report = classify(x, eps)
    if not report.in_B:
        raise PreconditionFailedError(f"point is not eps-dominant: {report.certificate}")
    if not _integral(trial_count) or trial_count < 1:
        raise PreconditionFailedError("trial_count must be an integer >= 1")
    p = int(report.p_or_t0) - 1
    rng = philox_gen(seed)
    u = rng.uniform(-1.0, 1.0, size=(trial_count, x.dim))
    u[np.abs(u) >= 1.0] *= 0.5
    abs_y = _abs_profile(x.coords[None, :] + (eps / 4.0) * u, None, None)
    top = abs_y[:, p].copy()
    abs_y[:, p] = 0.0  # each row's max is now its runner-up, 0 for one coordinate
    return bool(np.all(abs_y.max(axis=1) <= top - eps / 2.0))
