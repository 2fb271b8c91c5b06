"""Numerical directional differentiation.

One-sided difference quotients over geometric step grids, with verdicts
for Gâteaux / Hadamard / Fréchet differentiability and a sampled local
Lipschitz estimator.  The functionals in scope are piecewise linear in
every direction, so quotients become exactly constant once the step drops
below the structural scale of the point.  Each one-sided limit is read off
the earliest, tightest plateau of three consecutive grid quotients whose
internal gaps stay under the tolerance, with no extrapolation.

Verdict vocabulary deliberately includes INCONCLUSIVE: when probes fail
to converge, or converge to something no representable linear functional
reproduces, the engine says so instead of guessing.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import philox_gen
from .errors import (
    EvalFailureError,
    NonconvergentPerturbationError,
    PreconditionFailedError,
)
from .oracles import LinearFunctionalRep, apply_rep, coeff_rep, point_mass_rep, signed_index_rep, zero_rep
from .spaces import (
    SEQUENCE_SPACES,
    Space,
    SpacePoint,
    constant_fn,
    eval_norm,
    linear_combine,
    pw_from_values,
    seq_point,
    subtract,
)

__all__ = [
    "Functional",
    "norm_functional",
    "TGrid",
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "QuotientTrace",
    "VerdictStatus",
    "DiffVerdict",
    "directional_quotient",
    "one_sided_derivatives",
    "gateaux_verdict",
    "hadamard_verdict",
    "frechet_verdict",
    "local_lipschitz_estimate",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Functional:
    """A named real-valued map on points of one space.

    A call that yields a non-finite value raises :class:`EvalFailureError`.
    """

    name: str
    evaluator: Callable[[SpacePoint], float]
    space_tag: Space | None = None

    def __call__(self, x: SpacePoint) -> float:
        if self.space_tag is not None and x.space is not self.space_tag:
            raise PreconditionFailedError(
                f"functional {self.name!r} expects {self.space_tag.value}, got {x.space.value}"
            )
        value = float(self.evaluator(x))
        if not math.isfinite(value):
            raise EvalFailureError(
                f"functional {self.name!r} returned {value}, not a finite number",
                functional=self.name,
            )
        return value


def norm_functional(space: Space) -> Functional:
    return Functional(f"{space.value.lower()}_norm", lambda p: eval_norm(p).value, space)


@dataclass(frozen=True)
class TGrid:
    """Geometric step grid t_k = t0 * rho**k, k = 0..count-1.

    The default is dyadic (t0 and rho both powers of two) on purpose:
    for piecewise-linear functionals evaluated at dyadic data, every
    x + t_k*h is then exactly representable, difference quotients carry
    no rounding noise at all, and convergence detection is bitwise.  A
    decimal t0 of comparable size loses ~2e-9 of accuracy to cancellation
    at the smallest steps — above the default tolerance.
    """

    t0: float = 0.0625
    rho: float = 0.5
    count: int = 20

    def __post_init__(self):
        if not (self.t0 > 0.0 and 0.0 < self.rho < 1.0 and self.count >= 3):
            raise PreconditionFailedError("need t0 > 0, rho in (0,1), count >= 3")

    def steps(self) -> np.ndarray:
        return self.t0 * self.rho ** np.arange(self.count)


DEFAULT_GRID = TGrid()


@dataclass(frozen=True)
class QuotientTrace:
    """Forward/backward difference quotients of one direction over a grid.

    ``d_plus``/``d_minus`` are set only when that side's quotients hold a
    plateau: three consecutive quotients whose internal gaps stay under the
    tolerance used to build the trace (see :func:`_series_limit`).  The
    matching ``converged`` flag records which happened.
    """

    steps: tuple[float, ...]
    forward_q: tuple[float, ...]
    backward_q: tuple[float, ...]
    d_plus: float | None
    d_minus: float | None
    converged_plus: bool
    converged_minus: bool

    def to_dict(self) -> dict:
        return {
            "t": list(self.steps),
            "fq": list(self.forward_q),
            "bq": list(self.backward_q),
        }


class VerdictStatus(str, Enum):
    FRECHET = "FRECHET"
    HADAMARD = "HADAMARD"
    GATEAUX = "GATEAUX"
    NOT_GATEAUX = "NOT_GATEAUX"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class DiffVerdict:
    """Outcome of a differentiability check.

    ``derivative`` is present for GATEAUX/FRECHET; for HADAMARD, where
    only one direction is interrogated, ``value`` carries the directional
    derivative instead (a full representation is not identifiable from a
    single direction).  NOT_GATEAUX always carries a ``failure_witness``
    whose trace shows converged, disagreeing one-sided limits.
    """

    status: VerdictStatus
    derivative: LinearFunctionalRep | None = None
    failure_witness: SpacePoint | None = None
    traces: tuple[QuotientTrace, ...] = ()
    value: float | None = None
    remainder_profile: tuple[tuple[float, float], ...] | None = None
    detail: str = ""

    def __post_init__(self):
        if self.status in (VerdictStatus.GATEAUX, VerdictStatus.FRECHET) and self.derivative is None:
            raise ValueError(f"{self.status.value} verdict needs a derivative")
        if self.status is VerdictStatus.HADAMARD and self.derivative is None and self.value is None:
            raise ValueError("HADAMARD verdict needs a derivative or its directional value")
        if self.status is VerdictStatus.NOT_GATEAUX and self.failure_witness is None:
            raise ValueError("NOT_GATEAUX verdict needs a failure witness")

    def to_dict(self) -> dict:
        from .spaces import point_to_dict

        doc: dict = {
            "status": self.status.value,
            "derivative": self.derivative.to_dict() if self.derivative else None,
            "witness": point_to_dict(self.failure_witness) if self.failure_witness else None,
            "traces": [tr.to_dict() for tr in self.traces],
        }
        if self.value is not None:
            doc["value"] = self.value
        if self.remainder_profile is not None:
            doc["remainder_profile"] = [[s, r] for s, r in self.remainder_profile]
        if self.detail:
            doc["detail"] = self.detail
        return doc


def directional_quotient(f: Functional, x: SpacePoint, h: SpacePoint, t: float) -> float:
    """(f(x + t*h) - f(x)) / t, exactly as evaluated."""
    if t == 0.0:
        raise PreconditionFailedError("t must be nonzero")
    return (f(linear_combine(1.0, x, float(t), h)) - f(x)) / t


def _series_limit(qs: Sequence[float], tol: float) -> tuple[float | None, bool]:
    """Limit estimate for a difference-quotient sequence over shrinking steps.

    The limit is read off the tightest *corroborated* plateau: each window of
    three consecutive quotients is scored by its worst internal gap, the
    earliest minimal window wins, and convergence means that score is below
    tol.  A single agreeing pair is not enough on purpose.  At the smallest
    steps the cancellation noise is quantized coarsely (one ulp of f divided
    by t), so two successive quotients can coincide bit-for-bit by accident;
    such a lone pair inherits the score of its drifting neighbor and loses
    to any genuine plateau, whose members all agree.  On exactly constant
    data every gap is zero and this returns the common value unchanged; on
    curved data the gaps shrink monotonically and the smallest-step window
    still wins, so the returned value matches the plain last quotient.
    Grids have at least three steps (see :class:`TGrid`).
    """
    best_i = 0
    best_score = math.inf
    for i in range(len(qs) - 2):
        score = max(abs(qs[i + 1] - qs[i]), abs(qs[i + 2] - qs[i + 1]))
        if score < best_score:
            best_score = score
            best_i = i
    if best_score < tol:
        return qs[best_i + 2], True
    return None, False


def _quotient_trace(steps, fq: Sequence[float], bq: Sequence[float], tol: float) -> QuotientTrace:
    """The trace of forward quotients ``fq`` and backward quotients ``bq``
    over ``steps``, with each side's limit read by :func:`_series_limit`."""
    d_plus, conv_p = _series_limit(fq, tol)
    d_minus, conv_m = _series_limit(bq, tol)
    return QuotientTrace(
        steps=tuple(float(t) for t in steps),
        forward_q=tuple(fq),
        backward_q=tuple(bq),
        d_plus=d_plus,
        d_minus=d_minus,
        converged_plus=conv_p,
        converged_minus=conv_m,
    )


def one_sided_derivatives(
    f: Functional,
    x: SpacePoint,
    h: SpacePoint,
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> QuotientTrace:
    """Difference quotients of f at x along +h and -h over the grid."""
    if not tol > 0.0:
        raise PreconditionFailedError("tol must be positive")
    fx = f(x)
    steps = grid.steps()
    fq = [(f(linear_combine(1.0, x, float(t), h)) - fx) / t for t in steps]
    bq = [(f(linear_combine(1.0, x, float(-t), h)) - fx) / -t for t in steps]
    return _quotient_trace(steps, fq, bq, tol)


def _fit_directions(x: SpacePoint) -> list[SpacePoint]:
    """Canonical directions that identify a sparse derivative representation."""
    if x.space in SEQUENCE_SPACES:
        eye = np.eye(x.dim)
        return [seq_point(x.space, eye[k]) for k in range(x.dim)]
    if x.space in (Space.C_AB, Space.LINF_R):
        one = constant_fn(x.space, x.a, x.b, 1.0)
        ramp = pw_from_values(x.space, [x.a, x.b], [x.a, x.b])
        return [one, ramp]
    return []  # NBV_AB: no sparse representation is identifiable


def _fit_rep(
    x: SpacePoint,
    fit_dirs: list[SpacePoint],
    responses: list[float],
    tol: float,
) -> LinearFunctionalRep | None:
    """Assemble a sparse representation from canonical-direction responses."""
    scale = max(1.0, max((abs(r) for r in responses), default=0.0))
    if all(abs(r) <= tol * scale for r in responses):
        return zero_rep()
    if x.space in SEQUENCE_SPACES:
        coeffs = np.asarray(responses)
        nz = np.flatnonzero(np.abs(coeffs) > tol * scale)
        if nz.size == 1 and abs(abs(coeffs[nz[0]]) - 1.0) <= tol:
            k = int(nz[0])
            return signed_index_rep(k + 1, 1.0 if coeffs[k] > 0 else -1.0)
        return coeff_rep(coeffs)
    # function spaces: responses to [constant one, unit ramp]
    d_one, d_ramp = responses
    if abs(abs(d_one) - 1.0) > tol:
        return None  # not a unit point evaluation; nothing sparse to report
    sigma = 1.0 if d_one > 0 else -1.0
    t0 = d_ramp / sigma
    if not (x.a <= t0 <= x.b):
        return None
    return point_mass_rep(t0, sigma)


def gateaux_verdict(
    f: Functional,
    x: SpacePoint,
    probe_dirs: Sequence[SpacePoint],
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> DiffVerdict:
    """Probe-based directional differentiability verdict at x.

    Every supplied probe direction is examined first: a direction whose
    one-sided limits both converge but disagree beyond tol is a failure
    witness (NOT_GATEAUX).  A direction that fails to converge yields
    INCONCLUSIVE — nonconvergence is not evidence of nondifferentiability.
    If all probes pass, canonical fit directions for the space (coordinate
    vectors; constant and ramp for function domains) identify a sparse
    derivative, which is then verified against every probe response and
    against additivity/doubling checks on the first probe pair.
    """
    if not probe_dirs:
        raise PreconditionFailedError("probe_dirs must be nonempty")
    traces: list[QuotientTrace] = []
    responses: dict[int, float] = {}
    dirs = list(probe_dirs)

    for i, h in enumerate(dirs):
        tr = one_sided_derivatives(f, x, h, grid, tol)
        traces.append(tr)
        if tr.converged_plus and tr.converged_minus:
            if abs(tr.d_plus - tr.d_minus) > tol:
                return DiffVerdict(
                    status=VerdictStatus.NOT_GATEAUX,
                    failure_witness=h,
                    traces=tuple(traces),
                    detail=(
                        "one-sided limits disagree: "
                        f"d_plus={float(tr.d_plus)}, d_minus={float(tr.d_minus)}"
                    ),
                )
            responses[i] = tr.d_plus
        else:
            return DiffVerdict(
                status=VerdictStatus.INCONCLUSIVE,
                traces=tuple(traces),
                detail=f"quotients along probe {i} did not converge on the grid",
            )

    # linearity spot-checks: additivity on the first pair, doubling on the first
    lin_pairs: list[tuple[SpacePoint, float]] = []
    if len(dirs) >= 2 and dirs[0].space is dirs[1].space:
        lin_pairs.append((linear_combine(1.0, dirs[0], 1.0, dirs[1]), responses[0] + responses[1]))
    lin_pairs.append((linear_combine(2.0, dirs[0], 0.0, dirs[0]), 2.0 * responses[0]))
    for h, expected in lin_pairs:
        tr = one_sided_derivatives(f, x, h, grid, tol)
        traces.append(tr)
        if tr.converged_plus and tr.converged_minus and abs(tr.d_plus - tr.d_minus) > tol:
            return DiffVerdict(
                status=VerdictStatus.NOT_GATEAUX,
                failure_witness=h,
                traces=tuple(traces),
                detail="one-sided limits disagree along a probe combination",
            )
        ok = (
            tr.converged_plus
            and tr.converged_minus
            and abs(tr.d_plus - expected) <= tol * max(1.0, abs(expected))
        )
        if not ok:
            return DiffVerdict(
                status=VerdictStatus.INCONCLUSIVE,
                traces=tuple(traces),
                detail="directional limits exist on the probes but are not linear across them",
            )

    fit_dirs = _fit_directions(x)
    fit_resp: list[float] = []
    for h in fit_dirs:
        tr = one_sided_derivatives(f, x, h, grid, tol)
        traces.append(tr)
        if tr.converged_plus and tr.converged_minus and abs(tr.d_plus - tr.d_minus) > tol:
            return DiffVerdict(
                status=VerdictStatus.NOT_GATEAUX,
                failure_witness=h,
                traces=tuple(traces),
                detail="one-sided limits disagree along a canonical fit direction",
            )
        if not (tr.converged_plus and tr.converged_minus):
            return DiffVerdict(
                status=VerdictStatus.INCONCLUSIVE,
                traces=tuple(traces),
                detail="a canonical fit direction failed the two-sided limit check",
            )
        fit_resp.append(tr.d_plus)

    if fit_dirs:
        rep = _fit_rep(x, fit_dirs, fit_resp, tol)
    else:
        # no canonical protocol (NBV): only the zero functional is identifiable
        scale = max(1.0, max((abs(r) for r in responses.values()), default=0.0))
        rep = zero_rep() if all(abs(r) <= tol * scale for r in responses.values()) else None
    if rep is None:
        return DiffVerdict(
            status=VerdictStatus.INCONCLUSIVE,
            traces=tuple(traces),
            detail="directional limits exist but no sparse representation reproduces them",
        )

    for i, h in enumerate(dirs):
        want = responses[i]
        got = apply_rep(rep, h)
        if abs(got - want) > tol * max(1.0, abs(want)):
            return DiffVerdict(
                status=VerdictStatus.INCONCLUSIVE,
                traces=tuple(traces),
                detail=(
                f"fitted representation disagrees with probe {i}: "
                f"{float(got)} vs {float(want)}"
            ),
            )
    return DiffVerdict(status=VerdictStatus.GATEAUX, derivative=rep, traces=tuple(traces))


def hadamard_verdict(
    f: Functional,
    x: SpacePoint,
    h: SpacePoint,
    perturbations: Sequence[Sequence[SpacePoint]],
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> DiffVerdict:
    """Directional verdict robust to perturbed directions k_j -> h.

    Each perturbation family is first checked to actually converge to h
    (norm distances nonincreasing and ending below tol), then paired with
    the grid steps; families shorter than the grid are padded with h
    itself.  HADAMARD requires every family's quotients to settle on the
    plain direction's limit; the shared limit is reported as ``value``.
    """
    if not perturbations:
        raise PreconditionFailedError("need at least one perturbation family")
    base = one_sided_derivatives(f, x, h, grid, tol)
    traces = [base]
    if base.converged_plus and base.converged_minus and abs(base.d_plus - base.d_minus) > tol:
        return DiffVerdict(
            status=VerdictStatus.NOT_GATEAUX,
            failure_witness=h,
            traces=tuple(traces),
            detail="one-sided limits along the unperturbed direction disagree",
        )
    if not base.converged_plus:
        return DiffVerdict(
            status=VerdictStatus.INCONCLUSIVE,
            traces=tuple(traces),
            detail="quotients along the unperturbed direction did not converge",
        )
    limit = base.d_plus

    fx = f(x)
    steps = grid.steps()
    for fam_idx, family in enumerate(perturbations):
        fam = list(family)
        if not fam:
            raise NonconvergentPerturbationError("empty perturbation family", family=fam_idx)
        dists = [eval_norm(subtract(k, h)).value for k in fam]
        for a, b in zip(dists, dists[1:]):
            if b > a:
                raise NonconvergentPerturbationError(
                    "perturbation distances to the direction are not nonincreasing",
                    family=fam_idx,
                )
        if not dists[-1] < tol:
            raise NonconvergentPerturbationError(
                "perturbation family does not approach the direction within tol",
                family=fam_idx,
                final_distance=dists[-1],
            )
        padded = fam + [h] * max(0, len(steps) - len(fam))
        fq, bq = [], []
        for t, k in zip(steps, padded):
            fq.append((f(linear_combine(1.0, x, float(t), k)) - fx) / t)
            bq.append((f(linear_combine(1.0, x, float(-t), k)) - fx) / -t)
        tr = _quotient_trace(steps, fq, bq, tol)
        traces.append(tr)
        if not tr.converged_plus or abs(tr.d_plus - limit) > tol * max(1.0, abs(limit)):
            return DiffVerdict(
                status=VerdictStatus.INCONCLUSIVE,
                traces=tuple(traces),
                value=limit,
                detail=f"perturbation family {fam_idx} does not reproduce the directional limit",
            )
    return DiffVerdict(status=VerdictStatus.HADAMARD, value=limit, traces=tuple(traces))


def frechet_verdict(
    f: Functional,
    x: SpacePoint,
    u: LinearFunctionalRep,
    sphere_samples: Sequence[SpacePoint],
    radii: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> DiffVerdict:
    """Uniform first-order remainder check for a candidate derivative u.

    For each radius s the profile records max over unit samples h of
    |f(x + s*h) - f(x) - s*u(h)| / s.  FRECHET requires the profile at
    the smallest radius to sit below tol; on the piecewise-linear
    functionals in scope the certified cases come out exactly 0.0.
    """
    if not sphere_samples:
        raise PreconditionFailedError("need at least one unit-sphere sample")
    radii = [float(s) for s in radii]
    if not radii or any(s <= 0.0 for s in radii):
        raise PreconditionFailedError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise PreconditionFailedError("radii must be strictly decreasing")
    for h in sphere_samples:
        n = eval_norm(h).value
        if abs(n - 1.0) > 1e-9:
            raise PreconditionFailedError(f"sphere sample has norm {n!r}, expected 1")
    fx = f(x)
    applied = [apply_rep(u, h) for h in sphere_samples]
    profile = []
    for s in radii:
        worst = 0.0
        for h, uh in zip(sphere_samples, applied):
            rem = abs(f(linear_combine(1.0, x, s, h)) - fx - s * uh) / s
            if rem > worst:
                worst = rem
        profile.append((s, worst))
    ok = profile[-1][1] < tol
    if ok:
        return DiffVerdict(
            status=VerdictStatus.FRECHET,
            derivative=u,
            remainder_profile=tuple(profile),
        )
    return DiffVerdict(
        status=VerdictStatus.INCONCLUSIVE,
        derivative=u,
        remainder_profile=tuple(profile),
        detail="first-order remainder did not fall below tol at the smallest radius",
    )


def _unit_ball_directions(x: SpacePoint, rng: np.random.Generator, count: int) -> list[SpacePoint]:
    """Unit-norm directions mixing sign patterns, coordinates, and noise."""
    out: list[SpacePoint] = []
    if x.space in SEQUENCE_SPACES:
        n = x.dim
        eye = np.eye(n)
        k = 0
        while len(out) < count:
            mode = len(out) % 3
            if mode == 0:
                d = rng.choice([-1.0, 1.0], size=n)
            elif mode == 1:
                d = eye[k % n].copy()
                k += 1
            else:
                d = rng.uniform(-1.0, 1.0, size=n)
                if not np.any(d):
                    continue
            p = seq_point(x.space, d)
            out.append(linear_combine(1.0 / eval_norm(p).value, p, 0.0, p))
        return out
    while len(out) < count:
        vals = rng.uniform(-1.0, 1.0, size=x.knots.shape[0])
        if x.space is Space.NBV_AB:
            vals[0] = 0.0
        if not np.any(vals):
            continue
        d = pw_from_values(x.space, x.knots, vals)
        nd = eval_norm(d).value
        if nd == 0.0:
            continue
        out.append(linear_combine(1.0 / nd, d, 0.0, d))
    return out


def local_lipschitz_estimate(
    f: Functional,
    x: SpacePoint,
    radius: float,
    pair_count: int,
    seed: int,
) -> float:
    """Sampled lower bound for the local Lipschitz constant of f at x.

    Pairs are drawn inside the radius ball: antipodal pairs x ± c*d along
    unit directions d (sign patterns, coordinate axes, and random noise),
    plus independent two-point pairs.  Returns the max of
    |f(y) - f(z)| / ||y - z||; pairs that collapse to a single point are
    skipped.
    """
    if not radius > 0.0:
        raise PreconditionFailedError("radius must be positive")
    if pair_count < 1:
        raise PreconditionFailedError("pair_count must be >= 1")
    rng = philox_gen(seed)
    dirs = _unit_ball_directions(x, rng, pair_count)
    c = radius / 2.0
    best = 0.0
    for i, d in enumerate(dirs):
        if i % 4 == 3:
            # independent two-point pair at fractional radii
            r1, r2 = rng.uniform(0.0, c, size=2)
            d2 = dirs[int(rng.integers(0, len(dirs)))]
            y = linear_combine(1.0, x, float(r1), d)
            z = linear_combine(1.0, x, float(-r2), d2)
        else:
            y = linear_combine(1.0, x, c, d)
            z = linear_combine(1.0, x, -c, d)
        gap = eval_norm(subtract(y, z)).value
        if gap == 0.0:
            continue
        ratio = abs(f(y) - f(z)) / gap
        if ratio > best:
            best = ratio
    return best
