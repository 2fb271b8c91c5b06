"""Numerical directional differentiation.

One-sided difference quotients over geometric step grids, with verdicts
for Gâteaux / Hadamard / Fréchet differentiability and a sampled local
Lipschitz estimator.  The functionals in scope are piecewise linear in
every direction, so quotients become exactly constant once the step drops
below the structural scale of the point.  Every quotient trace is built
by :func:`_quotient_trace`, from values that :meth:`Functional.along`
computes for a whole grid in one array evaluation when the functional has
a batch evaluator, and one point at a time otherwise.  Each one-sided
limit is read off the earliest, tightest plateau of three consecutive
grid quotients whose internal gaps stay under the tolerance, with no
extrapolation, and only from a window whose last step t satisfies
t·‖h‖ ≤ ‖x‖: at larger steps the quotient describes the far field of f,
not its limit at x.

Verdict vocabulary deliberately includes INCONCLUSIVE: when probes fail
to converge, converge only at steps too large for the scale of x, or
converge to something no representable linear functional reproduces,
the engine says so instead of guessing.  Each NOT_GATEAUX or
INCONCLUSIVE verdict names in its ``detail`` the stage that decided it.
"""

from __future__ import annotations

import math
import sys
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
    norms_along,
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


def _checked(what: str, fn: Callable[..., float], arg, **context) -> float:
    """``float(fn(arg))``, where an overflow or a non-finite value raises
    :class:`EvalFailureError` that names ``what`` was evaluated."""
    try:
        value = float(fn(arg))
    except OverflowError as exc:
        raise EvalFailureError(f"{what} overflows", **context) from exc
    if not math.isfinite(value):
        raise EvalFailureError(f"{what} returned {value}, not a finite number", **context)
    return value


# Numbers a batch evaluation holds per combined array: bounds its memory
# for any grid length, while a default grid along a point of up to several
# hundred coordinates or knots still takes one batch.
_BATCH_VALUES = 1 << 17


def _width(p: SpacePoint) -> int:
    return (p.coords if p.coords is not None else p.knots).shape[0]


@dataclass(frozen=True)
class Functional:
    """A named real-valued map on points of one space.

    A call that overflows or yields a non-finite value raises
    :class:`EvalFailureError`.  ``batch``, when given, evaluates the map
    along a line in one go: ``batch(x, h, steps)`` returns an array whose
    entry i is bitwise ``evaluator(linear_combine(1.0, x, steps[i], h))``,
    checks what :func:`linear_combine` checks, and may return a non-finite
    entry, or raise :class:`EvalFailureError`, where that evaluation
    fails.  :meth:`along` is the one way to evaluate a functional along a
    line, with or without a batch.
    """

    name: str
    evaluator: Callable[[SpacePoint], float]
    space_tag: Space | None = None
    batch: Callable[[SpacePoint, SpacePoint, np.ndarray], np.ndarray] | None = None

    def _expect(self, x: SpacePoint) -> None:
        if self.space_tag is not None and x.space is not self.space_tag:
            raise PreconditionFailedError(
                f"functional {self.name!r} expects {self.space_tag.value}, got {x.space.value}"
            )

    def __call__(self, x: SpacePoint) -> float:
        self._expect(x)
        return _checked(f"functional {self.name!r}", self.evaluator, x, functional=self.name)

    def along(self, x: SpacePoint, h: SpacePoint, steps: np.ndarray) -> np.ndarray:
        """``f(x + s*h)`` for every signed step ``s`` in ``steps``.

        With a ``batch`` the steps are evaluated in blocks of at most
        ``_BATCH_VALUES`` numbers per array; without one, or when the batch
        meets an evaluation that fails, each step is one call of ``f`` on
        ``linear_combine(1.0, x, s, h)``, in order, so a failure raises the
        error of the first step that fails.  Either way the values are the
        same bit for bit.
        """
        steps = np.asarray(steps, dtype=float)
        if self.batch is not None:
            self._expect(x)
            rows = max(1, _BATCH_VALUES // (_width(x) + _width(h)))
            try:
                values = np.concatenate(
                    [self.batch(x, h, steps[i : i + rows]) for i in range(0, steps.shape[0], rows)]
                )
            except EvalFailureError:
                values = None
            if values is not None and np.isfinite(values).all():
                return values
        return np.array([self(linear_combine(1.0, x, float(s), h)) for s in steps])


def norm_functional(space: Space) -> Functional:
    return Functional(f"{space.value.lower()}_norm", lambda p: eval_norm(p).value, space, norms_along)


@dataclass(frozen=True)
class TGrid:
    """Geometric step grid t_k = t0 * rho**k, k = 0..count-1.

    The default is dyadic (t0 and rho both powers of two) on purpose:
    for piecewise-linear functionals evaluated at dyadic data, every
    x + t_k*h is then exactly representable, difference quotients carry
    no rounding noise at all, and convergence detection is bitwise.  A
    decimal t0 of comparable size loses ~2e-9 of accuracy to cancellation
    at the smallest steps — above the default tolerance.

    A grid must be usable as given: t0 finite and the smallest step
    ``t0 * rho**(count-1)`` a positive normal float, so that no step
    underflows and every quotient divides by a full-precision step.
    """

    t0: float = 0.0625
    rho: float = 0.5
    count: int = 20

    def __post_init__(self):
        if not (0.0 < self.t0 < math.inf and 0.0 < self.rho < 1.0 and self.count >= 3):
            raise PreconditionFailedError("need finite t0 > 0, rho in (0,1), count >= 3")
        smallest = self.t0 * self.rho ** (self.count - 1)
        if not smallest >= sys.float_info.min:
            raise PreconditionFailedError(
                "the smallest step t0*rho**(count-1) is not a positive normal float",
                smallest=smallest,
            )

    def steps(self) -> np.ndarray:
        return self.t0 * self.rho ** np.arange(self.count)


DEFAULT_GRID = TGrid()


@dataclass(frozen=True)
class QuotientTrace:
    """Forward/backward difference quotients of one direction over a grid.

    ``d_plus``/``d_minus`` are set only when that side's quotients hold a
    plateau: three consecutive quotients whose internal gaps stay under the
    tolerance used to build the trace, in a window whose last step is at
    most ``reach`` (see :func:`_quotient_trace`).  ``converged_plus`` and
    ``converged_minus`` say which sides did; :meth:`split` is the one
    judgement of a kink, and :meth:`unsettled` the one account of a trace
    that leaves a verdict open.
    """

    steps: tuple[float, ...]
    forward_q: tuple[float, ...]
    backward_q: tuple[float, ...]
    d_plus: float | None
    d_minus: float | None
    reach: float = math.inf

    @property
    def converged_plus(self) -> bool:
        return self.d_plus is not None

    @property
    def converged_minus(self) -> bool:
        return self.d_minus is not None

    @property
    def reached(self) -> bool:
        """Whether any plateau window ends at a step within ``reach``."""
        return self.steps[-1] <= self.reach

    def unsettled(self, along: str) -> str:
        """The ``detail`` for a verdict this trace leaves open: no step along
        the direction named ``along`` comes down to ``reach``, or the steps
        that do hold no plateau."""
        if not self.reached:
            return (
                f"no step along {along} reaches the scale of x: the smallest step "
                f"{self.steps[-1]} exceeds |x|/|h| = {self.reach}"
            )
        return f"quotients along {along} did not converge on the grid"

    def split(self, tol: float) -> bool:
        """Both one-sided limits exist and differ by more than ``tol``."""
        return self.converged_plus and self.converged_minus and abs(self.d_plus - self.d_minus) > tol

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


def _series_limit(qs: Sequence[float], tol: float, start: int = 0) -> float | None:
    """Limit estimate for a difference-quotient sequence over shrinking steps.

    The limit is read off the tightest *corroborated* plateau: each window of
    three consecutive quotients, from index ``start`` on, is scored by its
    worst internal gap, the earliest minimal window wins, and convergence
    means that score is below tol.  A single agreeing pair is not enough on
    purpose.  At the smallest steps the cancellation noise is quantized
    coarsely (one ulp of f divided by t), so two successive quotients can
    coincide bit-for-bit by accident; such a lone pair inherits the score of
    its drifting neighbor and loses to any genuine plateau, whose members all
    agree.  On exactly constant data every gap is zero and this returns the
    common value unchanged; on curved data the gaps shrink monotonically and
    the smallest-step window still wins, so the returned value matches the
    plain last quotient.  None means no window converged.
    """
    best_i = 0
    best_score = math.inf
    for i in range(start, len(qs) - 2):
        score = max(abs(qs[i + 1] - qs[i]), abs(qs[i + 2] - qs[i + 1]))
        if score < best_score:
            best_score = score
            best_i = i
    if best_score < tol:
        return qs[best_i + 2]
    return None


def _size(p: SpacePoint) -> float:
    """``‖p‖``, or inf when the norm overflows."""
    try:
        return eval_norm(p).value
    except EvalFailureError:
        return math.inf


def _reach(nx: float, nh: float) -> float:
    """The largest step t with t·‖h‖ ≤ ‖x‖, from nx = ‖x‖ and nh = ‖h‖;
    unbounded when x or h is 0, or when a norm overflows.

    Below it a quotient of f at x along h reads f near x; above it, where
    the step outgrows x, the quotient tends to the slope of f far from x,
    which is no evidence about the limit.  Norms vanish only at 0, and the
    norms in scope are positively homogeneous there, so every step counts.
    An overflowing norm leaves no finite scale to compare with.
    """
    return nx / nh if 0.0 < nx < math.inf and 0.0 < nh < math.inf else math.inf


def _quotient_trace(
    ahead: Sequence[float],
    behind: Sequence[float],
    f0: float,
    steps: np.ndarray,
    tol: float,
    reach: float,
) -> QuotientTrace:
    """The trace of forward quotients ``(ahead[k] - f0) / t_k`` and backward
    quotients ``(behind[k] - f0) / -t_k`` over the grid ``steps``, where
    ``ahead[k]`` and ``behind[k]`` are the function at the signed steps
    ``+t_k`` and ``-t_k`` and ``f0`` is its value at 0.

    The values come from :meth:`Functional.along` for a functional along a
    fixed direction, and from a loop of single evaluations for a
    perturbation family or the outer map of a composition; both give the
    same quotients bit for bit.  Each side's limit is read by
    :func:`_series_limit` from the first window whose last step is at most
    ``reach`` on.
    """
    fq = ((np.asarray(ahead, dtype=float) - f0) / steps).tolist()
    bq = ((np.asarray(behind, dtype=float) - f0) / -steps).tolist()
    near = next((k for k, t in enumerate(steps) if t <= reach), len(steps))
    start = max(0, near - 2)
    return QuotientTrace(
        steps=tuple(steps.tolist()),
        forward_q=tuple(fq),
        backward_q=tuple(bq),
        d_plus=_series_limit(fq, tol, start),
        d_minus=_series_limit(bq, tol, start),
        reach=reach,
    )


def _direction_trace(
    f: Functional, x: SpacePoint, h: SpacePoint, steps: np.ndarray, tol: float, fx: float, nx: float
) -> QuotientTrace:
    """The quotient trace of f at x along h, given fx = f(x) and nx = ‖x‖
    (inf when it overflows): all ±steps in one :meth:`Functional.along`."""
    values = f.along(x, h, np.concatenate((steps, -steps)))
    n = steps.shape[0]
    return _quotient_trace(values[:n], values[n:], fx, steps, tol, _reach(nx, _size(h)))


def one_sided_derivatives(
    f: Functional,
    x: SpacePoint,
    h: SpacePoint,
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> QuotientTrace:
    """Difference quotients of f at x along +h and -h over the grid.

    f is evaluated at x once and at every ``x ± t_k·h`` through
    :meth:`Functional.along`: in one array evaluation when f has a batch
    evaluator (the norms and the cylinder bases), one point at a time
    otherwise.  The trace is the same either way, bit for bit.
    """
    if not tol > 0.0:
        raise PreconditionFailedError("tol must be positive")
    return _direction_trace(f, x, h, grid.steps(), tol, f(x), _size(x))


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
    fit_resp: list[float],
    probe_resp: list[float],
    tol: float,
) -> LinearFunctionalRep | None:
    """Assemble a sparse representation from canonical-direction responses.

    NBV_AB has no canonical directions; there only the zero functional is
    identifiable, from the probe responses.
    """
    responses = probe_resp if x.space is Space.NBV_AB else fit_resp
    scale = max(1.0, max((abs(r) for r in responses), default=0.0))
    if all(abs(r) <= tol * scale for r in responses):
        return zero_rep()
    if x.space is Space.NBV_AB:
        return None
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

    Three stages read two-sided limits, in order: every supplied probe
    direction, then additivity/doubling combinations of the first probes,
    then canonical fit directions for the space (coordinate vectors;
    constant and ramp for function domains).  Along each direction, one-sided
    limits that both converge but disagree beyond tol make the direction a
    failure witness (NOT_GATEAUX); a side that does not converge, or
    converges only at steps too large for the scale of x, ends the verdict
    INCONCLUSIVE — nonconvergence is not evidence of nondifferentiability.
    The combinations must reproduce the probes' limits linearly, and the
    sparse derivative fitted to the canonical responses must reproduce every
    probe's limit.  The ``detail`` of a verdict that stops short of GATEAUX
    names the stage and the direction that decided it.  f(x) and ``‖x‖``
    are evaluated once per verdict, not once per direction.
    """
    if not probe_dirs:
        raise PreconditionFailedError("probe_dirs must be nonempty")
    if not tol > 0.0:
        raise PreconditionFailedError("tol must be positive")
    fx, nx, steps = f(x), _size(x), grid.steps()
    traces: list[QuotientTrace] = []
    dirs = list(probe_dirs)

    def verdict(status: VerdictStatus, detail: str = "", **fields) -> DiffVerdict:
        return DiffVerdict(status=status, traces=tuple(traces), detail=detail, **fields)

    def limit(h: SpacePoint, stage: str) -> float | DiffVerdict:
        """The two-sided limit along h, or the verdict it ends with."""
        tr = _direction_trace(f, x, h, steps, tol, fx, nx)
        traces.append(tr)
        if tr.split(tol):
            return verdict(
                VerdictStatus.NOT_GATEAUX,
                f"one-sided limits disagree along {stage}: "
                f"d_plus={float(tr.d_plus)}, d_minus={float(tr.d_minus)}",
                failure_witness=h,
            )
        if tr.d_plus is None or tr.d_minus is None:
            return verdict(VerdictStatus.INCONCLUSIVE, tr.unsettled(stage))
        return tr.d_plus

    responses: list[float] = []
    for i, h in enumerate(dirs):
        d = limit(h, f"probe {i}")
        if isinstance(d, DiffVerdict):
            return d
        responses.append(d)

    # linearity spot-checks: additivity on the first pair, doubling on the first
    lin_pairs: list[tuple[SpacePoint, float, str]] = []
    if len(dirs) >= 2 and dirs[0].space is dirs[1].space:
        lin_pairs.append(
            (linear_combine(1.0, dirs[0], 1.0, dirs[1]), responses[0] + responses[1], "probe 0 + probe 1")
        )
    lin_pairs.append((linear_combine(2.0, dirs[0], 0.0, dirs[0]), 2.0 * responses[0], "2 * probe 0"))
    for h, expected, stage in lin_pairs:
        d = limit(h, stage)
        if isinstance(d, DiffVerdict):
            return d
        if abs(d - expected) > tol * max(1.0, abs(expected)):
            return verdict(
                VerdictStatus.INCONCLUSIVE,
                f"directional limits exist on the probes but are not linear across them: "
                f"{float(d)} along {stage}, expected {float(expected)}",
            )

    fit_resp: list[float] = []
    for k, h in enumerate(_fit_directions(x)):
        d = limit(h, f"canonical fit direction {k}")
        if isinstance(d, DiffVerdict):
            return d
        fit_resp.append(d)

    rep = _fit_rep(x, fit_resp, responses, tol)
    if rep is None:
        return verdict(
            VerdictStatus.INCONCLUSIVE,
            "directional limits exist but no sparse representation reproduces them",
        )
    for i, h in enumerate(dirs):
        want = responses[i]
        got = apply_rep(rep, h)
        if abs(got - want) > tol * max(1.0, abs(want)):
            return verdict(
                VerdictStatus.INCONCLUSIVE,
                f"fitted representation disagrees with probe {i}: {float(got)} vs {float(want)}",
            )
    return verdict(VerdictStatus.GATEAUX, derivative=rep)


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
    if not tol > 0.0:
        raise PreconditionFailedError("tol must be positive")
    fx, steps = f(x), grid.steps()
    base = _direction_trace(f, x, h, steps, tol, fx, _size(x))
    traces = [base]

    def verdict(status: VerdictStatus, detail: str = "", **fields) -> DiffVerdict:
        return DiffVerdict(status=status, traces=tuple(traces), detail=detail, **fields)

    if base.split(tol):
        return verdict(
            VerdictStatus.NOT_GATEAUX,
            "one-sided limits along the unperturbed direction disagree",
            failure_witness=h,
        )
    if not base.converged_plus:
        return verdict(VerdictStatus.INCONCLUSIVE, base.unsettled("the unperturbed direction"))
    limit = base.d_plus

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
        # one direction per step: no array form, so one evaluation at a time
        padded = fam + [h] * max(0, len(steps) - len(fam))
        ahead = [f(linear_combine(1.0, x, float(t), k)) for t, k in zip(steps, padded)]
        behind = [f(linear_combine(1.0, x, -float(t), k)) for t, k in zip(steps, padded)]
        tr = _quotient_trace(ahead, behind, fx, steps, tol, base.reach)
        traces.append(tr)
        if not tr.converged_plus or abs(tr.d_plus - limit) > tol * max(1.0, abs(limit)):
            return verdict(
                VerdictStatus.INCONCLUSIVE,
                f"perturbation family {fam_idx} does not reproduce the directional limit",
                value=limit,
            )
    return verdict(VerdictStatus.HADAMARD, value=limit)


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
