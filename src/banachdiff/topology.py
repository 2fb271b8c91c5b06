"""Membership classifiers and constructive density/openness checks.

``classify`` decides whether a point sits in the differentiability set of
its space's norm and, when it does, emits the certificate (dominant index
or unique peak location plus a positive margin) that the closed-form
derivative builds upon.  The ``densify_*`` builders move an arbitrary
point into that set by less than a requested distance, and
``ball_check_linf`` samples a whole ball to confirm that max-norm
dominance survives perturbation — a theorem check whose failure would
signal a bug, not new mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import philox_gen
from .errors import PreconditionFailedError
from .oracles import _gap_outside, _peak_sites
from .spaces import (
    SEQUENCE_SPACES,
    Space,
    SpacePoint,
    eval_norm,
    linear_combine,
    pw_from_values,
    seq_point,
    sig,
)

__all__ = [
    "MembershipReport",
    "classify",
    "densify_l1",
    "densify_linf",
    "densify_csup",
    "ball_check_linf",
]


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

    eps strengthens the test: L1_SEQ requires every |x_n| > eps;
    LINF_SEQ requires the dominant coordinate to clear the runner-up by
    more than eps; for C_AB/LINF_R, eps is the exclusion radius around
    the unique peak over whose complement the reported gap is measured
    (eps = 0 degrades to the pure uniqueness test).  NBV_AB points are
    never members: a fresh unit jump direction defeats every point.
    """
    if eps < 0.0:
        raise PreconditionFailedError("eps must be nonnegative")
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
        abs_c = np.abs(x.coords)
        p = int(abs_c.argmax())
        top = float(abs_c[p])
        second = float(np.delete(abs_c, p).max()) if x.dim > 1 else 0.0
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


def _classify_sup_fn(x: SpacePoint, eps: float) -> MembershipReport:
    norm, peaks = _peak_sites(x)
    if norm == 0.0:
        return MembershipReport(x.space, False, None, None, "the zero function peaks everywhere")
    sites = list(peaks)
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
        f"|f| returns to within {-gap} of its sup outside the radius-{eps} neighborhood of {t0}",
    )


def densify_l1(x: SpacePoint, eps: float) -> SpacePoint:
    """Replace zero coordinates with a fast-decaying signed tail.

    A zero at coordinate n (1-based) becomes eps/2^(n+1), so the moved
    mass totals under eps/2 and the result has every coordinate nonzero:
    strictly inside the differentiability set, strictly closer than eps.
    """
    if x.space is not Space.L1_SEQ:
        raise PreconditionFailedError("densify_l1 needs an L1_SEQ point")
    if not eps > 0.0:
        raise PreconditionFailedError("eps must be positive")
    y = x.coords.copy()
    zeros = np.flatnonzero(y == 0.0)
    y[zeros] = eps * 2.0 ** -(zeros.astype(float) + 2.0)
    return seq_point(Space.L1_SEQ, y)


def densify_linf(x: SpacePoint, eps: float) -> SpacePoint:
    """Push the max coordinate clear of the pack by eps/2.

    The largest coordinate p is replaced by sig(x_p)*(norm + eps/2)
    (sign +1 at the zero point), which moves the point by exactly eps/2
    and leaves it dominating every other coordinate by at least eps/2.
    """
    if x.space not in (Space.LINF_SEQ, Space.RT):
        raise PreconditionFailedError("densify_linf needs a max-norm sequence point")
    if not eps > 0.0:
        raise PreconditionFailedError("eps must be positive")
    abs_c = np.abs(x.coords)
    p = int(abs_c.argmax())
    norm = float(abs_c[p])
    y = x.coords.copy()
    y[p] = (sig(x.coords[p]) or 1.0) * (norm + eps / 2.0)
    return seq_point(x.space, y)


def densify_csup(f: SpacePoint, eps: float) -> SpacePoint:
    """Give |f| a unique peak by adding a small triangular bump.

    If |f| already peaks at a single point, f is returned unchanged.
    Otherwise a continuous bump of height eps/2, sign-aligned with f at
    its first peak and supported on a neighborhood short of the adjacent
    knots, lifts that peak above all others; the result is verified to
    classify as a member before being returned.
    """
    if f.space is not Space.C_AB:
        raise PreconditionFailedError("densify_csup needs a C_AB point")
    if not eps > 0.0:
        raise PreconditionFailedError("eps must be positive")
    if classify(f, 0.0).in_B:
        return f
    _, peaks = _peak_sites(f)
    t1, v1 = next(iter(peaks.items()))  # the first peak
    sigma = sig(v1) or 1.0

    knots = f.knots
    gaps = [float(knots[i + 1] - knots[i]) for i in range(knots.shape[0] - 1)]
    adjacent = [g for i, g in enumerate(gaps) if knots[i] <= t1 <= knots[i + 1]]
    w = 2.0 ** math.floor(math.log2(min(min(adjacent), (f.b - f.a) / 4.0) / 2.0))

    lo, hi = max(f.a, t1 - w), min(f.b, t1 + w)
    bpos = [p for p in (lo, t1, hi) if f.a < p < f.b]
    positions = [f.a] + bpos + [f.b]
    values = [0.0] * len(positions)
    values[positions.index(t1)] = sigma * (eps / 2.0)
    bump = pw_from_values(Space.C_AB, positions, values)

    g = linear_combine(1.0, f, 1.0, bump)
    if not classify(g, 0.0).in_B:
        raise PreconditionFailedError("bump construction failed to isolate the peak, which should be impossible")
    return g


def ball_check_linf(x: SpacePoint, eps: float, trial_count: int, seed: int) -> bool:
    """Confirm that dominance is an open condition by sampling a ball.

    Requires x to dominate at level eps.  Samples trial_count points
    within eps/4 of x (coordinatewise uniform) and checks each satisfies
    |y_k| <= |y_p| - eps/2 at the same dominant index p.  Always true by
    the triangle inequality; a False return means the implementation is
    broken somewhere, which is exactly what this check is for.
    """
    if x.space not in (Space.LINF_SEQ, Space.RT):
        raise PreconditionFailedError("ball_check_linf needs a max-norm sequence point")
    report = classify(x, eps)
    if not report.in_B:
        raise PreconditionFailedError(f"point is not eps-dominant: {report.certificate}")
    if trial_count < 1:
        raise PreconditionFailedError("trial_count must be >= 1")
    p = int(report.p_or_t0) - 1
    rng = philox_gen(seed)
    u = rng.uniform(-1.0, 1.0, size=(trial_count, x.dim))
    u[np.abs(u) >= 1.0] *= 0.5
    ys = x.coords[None, :] + (eps / 4.0) * u
    abs_y = np.abs(ys)
    top = abs_y[:, p]
    others = np.delete(abs_y, p, axis=1)
    if others.shape[1] == 0:
        return bool(np.all(top >= eps / 2.0))
    return bool(np.all(others.max(axis=1) <= top - eps / 2.0))
