"""Numerical directional differentiation.

One-sided difference quotients over geometric step grids, with verdicts
for Gâteaux / Hadamard / Fréchet differentiability and a sampled local
Lipschitz estimator.  The functionals in scope are piecewise linear in
every direction, so quotients become exactly constant once the step drops
below the structural scale of the point.  Every quotient trace is built
by :func:`_quotient_trace`, from an array of finite value rows, one per
direction, and every evaluation of a functional along directions is made
by :func:`_rows`: with a batch evaluator, one array evaluation per block
of stacked directions; without one, or from a row whose batch evaluation
fails, one point at a time, so that a failure raises its own error.
:meth:`Functional.along` is its one-direction form.  Each one-sided
limit is read off the earliest, tightest plateau of three consecutive
grid quotients whose internal gaps stay under the tolerance, with no
extrapolation, and only from a window whose last step t satisfies
t·‖h‖ ≤ ‖x‖: at larger steps the quotient describes the far field of f,
not its limit at x.  :func:`_plateaus` scores the windows of every row at
once.

Verdict vocabulary deliberately includes INCONCLUSIVE: when probes fail
to converge, converge only at steps too large for the scale of x, or
converge to something no representable linear functional reproduces,
the engine says so instead of guessing.  Each NOT_GATEAUX or
INCONCLUSIVE verdict names in its ``detail`` the stage that decided it.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import philox_gen
from .errors import (
    EvalFailureError,
    NonconvergentPerturbationError,
    PreconditionFailedError,
    _integral,
)
from .oracles import LinearFunctionalRep, apply_rep, coeff_rep, point_mass_rep, signed_index_rep, zero_rep
from .spaces import (
    SEQUENCE_SPACES,
    Space,
    SpacePoint,
    _norms,
    eval_norm,
    linear_combine,
    norms_along,
    point_to_dict,
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

# The most steps a grid may have: every halving grid whose steps are normal
# floats (2**1023 down to 2**-1022 is 2046 steps) fits, and the memory of a
# verdict, which grows with the steps, stays bounded.
MAX_STEPS = 2048


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


# Numbers a batch evaluation holds per combined array, counting both
# operands' widths per step and direction: bounds its memory for any grid
# length and stack height and keeps its arrays small enough to stay in
# cache, while a default grid along a point of up to a few hundred
# coordinates or knots still takes one batch.
_BATCH_VALUES = 1 << 15


def _width(p: SpacePoint) -> int:
    """Coordinates or knots of a point, or of each row of a stack."""
    return (p.coords if p.coords is not None else p.knots).shape[-1]


@dataclass(frozen=True)
class Functional:
    """A named real-valued map on points of one space.

    A call that overflows or yields a non-finite value raises
    :class:`EvalFailureError`.  ``batch``, when given, evaluates the map
    along a stack of directions in one go: for a stack ``H`` (see
    :func:`~banachdiff.spaces.rows_along`), ``batch(x, H, steps)`` returns
    an array whose entry ``[j, i]`` is bitwise
    ``evaluator(linear_combine(1.0, x, steps[i], H[j]))``, checks what
    :func:`linear_combine` checks, and may return a non-finite entry, or
    raise :class:`EvalFailureError`, where that evaluation fails.
    :func:`_rows` is the one code that evaluates a functional along
    directions, with or without a batch; :meth:`along` is its one-direction
    form.
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
        """``f(x + s*h)`` for every signed step ``s`` in ``steps``: the one
        row of :func:`_rows` along h, so with or without a batch a failure
        raises the error of the first step that fails, and no steps give an
        empty array."""
        steps = np.asarray(steps, dtype=float)
        if not steps.shape[0]:
            return np.empty(0)
        self._expect(x)
        ((_, values),) = _rows(self, x, [h], steps)
        return values[0]


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

    A grid must be usable as given: t0 finite, count an integer of at
    most ``MAX_STEPS``, and the smallest step ``t0 * rho**(count-1)`` a
    positive normal float, so that no step underflows and every quotient
    divides by a full-precision step.
    """

    t0: float = 0.0625
    rho: float = 0.5
    count: int = 20

    def __post_init__(self):
        if not (0.0 < self.t0 < math.inf and 0.0 < self.rho < 1.0 and self.count >= 3):
            raise PreconditionFailedError("need finite t0 > 0, rho in (0,1), count >= 3")
        if self.count > MAX_STEPS or self.count != int(self.count):
            raise PreconditionFailedError(f"count must be an integer from 3 to {MAX_STEPS}", count=self.count)
        smallest = self.t0 * self.rho ** (self.count - 1)
        if not smallest >= sys.float_info.min:
            raise PreconditionFailedError(
                "the smallest step t0*rho**(count-1) is not a positive normal float",
                smallest=smallest,
            )

    def steps(self) -> np.ndarray:
        return self.t0 * self.rho ** np.arange(self.count)

    @functools.cached_property
    def _signed(self) -> np.ndarray:
        """The steps and then their negatives, read-only: the signed steps
        every trace evaluates its direction at, made once per grid."""
        steps = self.steps()
        signed = np.concatenate((steps, -steps))
        signed.setflags(write=False)
        return signed

    @functools.cached_property
    def _ticks(self) -> tuple[float, ...]:
        """The steps as the tuple every trace of the grid shares."""
        return tuple(self.steps().tolist())


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

    ``plateau_step`` and ``plateau_score`` hold, forward side first, the
    last step of each side's best window and that window's worst internal
    gap: where a converged limit was read and how tight its plateau was.
    A side with no window within ``reach``, or none whose gaps stay
    finite, has step None and score inf.
    They stay out of :meth:`to_dict`, so reports do not change with them.
    """

    steps: tuple[float, ...]
    forward_q: tuple[float, ...]
    backward_q: tuple[float, ...]
    d_plus: float | None
    d_minus: float | None
    reach: float = math.inf
    plateau_step: tuple[float | None, float | None] = (None, None)
    plateau_score: tuple[float, float] = (math.inf, math.inf)

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
    if t == 0.0 or not math.isfinite(t):
        raise PreconditionFailedError("t must be finite and nonzero", t=t)
    return (float(f.along(x, h, [t])[0]) - f(x)) / t


@np.errstate(over="ignore", invalid="ignore")
def _plateaus(
    values: np.ndarray, f0: float, signed: np.ndarray, start: np.ndarray | None
) -> tuple[np.ndarray, list[int], list[float], bool]:
    """The difference quotients of every row of ``values`` at the signed
    steps ``signed`` (see :func:`_quotient_trace`), and the tightest
    *corroborated* plateau of each of their sides.

    Each window of three consecutive quotients of a side, from index
    ``start[r]`` on for side r (forward sides at even r, backward at odd;
    from 0 on every side when ``start`` is None), is scored by its worst
    internal gap, and the earliest minimal window wins.  Returned are the
    R × 2n quotients, each side's winning window (its first index) and
    score, inf when the side has no window from ``start[r]`` on, and
    whether every quotient is finite.  A limit converges when that score
    is below the tolerance, and is the window's last quotient.  A single
    agreeing pair is not enough on purpose.  At the smallest steps the
    cancellation noise is quantized coarsely (one ulp of f divided by t),
    so two successive quotients can coincide bit-for-bit by accident; such
    a lone pair inherits the score of its drifting neighbor and loses to
    any genuine plateau, whose members all agree.  On exactly constant
    data every gap is zero and the limit is the common value unchanged; on
    curved data the gaps shrink monotonically and the smallest-step window
    still wins, so the limit matches the plain last quotient.
    """
    q = (values - f0) / signed
    sides = q.reshape(-1, signed.shape[0] // 2)
    gaps = sides[:, 1:] - sides[:, :-1]
    np.abs(gaps, out=gaps)
    score = np.maximum(gaps[:, :-1], gaps[:, 1:])
    if start is not None:
        score[np.arange(score.shape[1]) < start[:, None]] = math.inf
    best = score.argmin(axis=1).tolist()
    low = [row[b] for row, b in zip(score.tolist(), best)]
    return q, best, low, math.isfinite(np.add.reduce(q, axis=None))


def _size(p: SpacePoint) -> float:
    """``‖p‖``, or inf when the norm overflows."""
    try:
        return eval_norm(p).value
    except EvalFailureError:
        return math.inf


def _reach(nx: float, nh: Sequence[float]) -> list[float]:
    """The largest step t with t·‖h‖ ≤ ‖x‖ for each norm ‖h‖ in ``nh``,
    given nx = ‖x‖; unbounded when x or h is 0, or when a norm overflows.

    Below it a quotient of f at x along h reads f near x; above it, where
    the step outgrows x, the quotient tends to the slope of f far from x,
    which is no evidence about the limit.  Norms vanish only at 0, and the
    norms in scope are positively homogeneous there, so every step counts.
    An overflowing norm leaves no finite scale to compare with.
    """
    if not 0.0 < nx < math.inf:
        return [math.inf] * len(nh)
    return [nx / v if 0.0 < v < math.inf else math.inf for v in nh]


def _quotient_trace(
    values: np.ndarray,
    f0: float,
    grid: TGrid,
    tol: float,
    reach: Sequence[float],
) -> Iterator[QuotientTrace]:
    """The traces of the rows of ``values``, an R × 2n array whose row j
    holds a function along one direction at the signed steps of the grid:
    its n steps ``t_k`` and then their negatives.  ``f0`` is the
    function's value at 0 and ``reach[j]`` the reach of row j.

    Row j's forward quotients are ``(values[j, k] - f0) / t_k`` and its
    backward quotients ``(values[j, n + k] - f0) / -t_k``.  Both sides of
    every row are scored in one :func:`_plateaus` call, from the first
    window whose last step is at most the row's reach on.  Every value is
    finite; the traces come out row by row, and a row with a quotient that
    overflows raises :class:`EvalFailureError` when its turn comes, so the
    rows before it are still judged first.

    The rows come from :func:`_rows` (see :func:`_traces`), or, for a
    perturbation family and the outer map of a composition, from a loop
    of single evaluations, each of which raises where it fails.
    """
    signed, t = grid._signed, grid._ticks
    n = len(t)
    start = None
    if min(reach) < t[0]:
        near = np.searchsorted(-signed[:n], np.negative(reach), side="left")
        start = np.repeat(np.maximum(near - 2, 0), 2)
    q, best, score, finite = _plateaus(values, f0, signed, start)
    for j, row in enumerate(q.tolist()):
        if not finite and not all(map(math.isfinite, row)):
            k = next(k for k, v in enumerate(row) if not math.isfinite(v))
            raise EvalFailureError("difference quotient overflows", step=float(signed[k]))
        fq, bq = row[:n], row[n:]
        p, m = best[2 * j] + 2, best[2 * j + 1] + 2
        sp, sm = score[2 * j], score[2 * j + 1]
        d_plus = fq[p] if sp < tol else None
        d_minus = bq[m] if sm < tol else None
        if d_plus is not None and d_minus == d_plus != 0.0:
            d_minus = d_plus  # an agreed limit is kept as one float
        yield QuotientTrace(  # steps, forward_q, backward_q, d_plus, d_minus, reach, plateau_*
            t,
            tuple(fq),
            tuple(bq),
            d_plus,
            d_minus,
            reach[j],
            (t[p] if sp < math.inf else None, t[m] if sm < math.inf else None),
            (sp, sm),
        )


def _fit_count(x: SpacePoint) -> int:
    """How many canonical directions identify a sparse derivative
    representation at x: the coordinate vectors of a sequence point, the
    constant one and the ramp t ↦ t of a C_AB or LINF_R point, and none
    for NBV_AB."""
    if x.space in SEQUENCE_SPACES:
        return x.dim
    return 2 if x.space in (Space.C_AB, Space.LINF_R) else 0


def _fit_point(x: SpacePoint, k: int) -> SpacePoint:
    """The k-th canonical fit direction at x as a point; the constant one
    and the ramp are sampled at the knots of x."""
    if x.coords is not None:
        e = np.zeros(x.dim)
        e[k] = 1.0
        return seq_point(x.space, e)
    return pw_from_values(x.space, x.knots, np.ones_like(x.knots) if k == 0 else x.knots)


# A direction of a verdict stage: a point, or the index k of the canonical
# fit direction ``_fit_point(x, k)``, whose arrays are made only inside the
# stack that holds it.
_Dir = SpacePoint | int


def _stack(x: SpacePoint, block: Sequence[_Dir]) -> SpacePoint:
    """The directions of ``block`` as one stack of rows (see
    :func:`~banachdiff.spaces.rows_along`); a single point is its own
    stack.  The points among them share one space and coordinate count, or
    one knots array, with x's when the block holds fit directions."""
    if len(block) == 1 and isinstance(block[0], SpacePoint):
        return block[0]
    like = next((d for d in block if isinstance(d, SpacePoint)), x)
    if like.coords is not None:
        coords = np.zeros((len(block), like.coords.shape[0]))
        for j, d in enumerate(block):
            if isinstance(d, SpacePoint):
                coords[j] = d.coords
            else:
                coords[j, d] = 1.0
        return SpacePoint(like.space, coords=coords)
    values = np.empty((len(block), like.knots.shape[0]))
    continuous = all(not isinstance(d, SpacePoint) or d.lefts is d.values for d in block)
    lefts = values if continuous else np.empty_like(values)
    for j, d in enumerate(block):
        if isinstance(d, SpacePoint):
            values[j], lefts[j] = d.values, d.lefts
        else:
            values[j] = lefts[j] = 1.0 if d == 0 else x.knots
    return SpacePoint(like.space, knots=like.knots, values=values, lefts=lefts)


def _stackable(p: SpacePoint, q: SpacePoint) -> bool:
    """Whether directions p and q can be rows of one stack."""
    if p.space is not q.space:
        return False
    if p.coords is not None:
        return p.coords.shape == q.coords.shape
    return p.knots is q.knots or np.array_equal(p.knots, q.knots)


def _blocks(x: SpacePoint, dirs: Sequence[_Dir], n: int) -> Iterator[list[_Dir]]:
    """``dirs`` in order, cut into blocks of consecutive directions that
    share one stack (one space and coordinate count, or one knots array)
    and hold at most ``_BATCH_VALUES`` numbers along ``n`` signed steps;
    every caller passes at least one direction."""
    block: list[_Dir] = []
    for d in dirs:
        p = d if isinstance(d, SpacePoint) else x
        if block and (len(block) == cap or not _stackable(head, p)):
            yield block
            block = []
        if not block:
            head, cap = p, max(1, _BATCH_VALUES // (n * (_width(x) + _width(p))))
        block.append(d)
    yield block


def _rows(
    f: Functional, x: SpacePoint, dirs: Sequence[_Dir], steps: np.ndarray
) -> Iterator[tuple[SpacePoint, np.ndarray]]:
    """f along each direction of ``dirs`` at the signed steps ``steps``, in
    order, as pairs ``(H, values)``: ``values[j, i]`` is f at
    ``x + steps[i]*H[j]`` for the first ``len(values)`` rows of the stack
    H, or for H itself when it is a single point.  Every value is finite.
    x is already checked against the space of f, by ``f(x)`` or
    :meth:`Functional.along`.

    With a batch, each block of :func:`_blocks` is one stack, evaluated
    once the pairs before it are taken, in batch calls of at most
    ``_BATCH_VALUES`` numbers each.  From the first row of a block that
    holds a non-finite value on, from its first row when the batch raises
    :class:`EvalFailureError`, and along every direction of a functional
    without a batch, each step is one call of f on
    ``linear_combine(1.0, x, s, h)``, in order, so a failure raises the
    error of the first step that fails, after the rows before it.
    """
    n, batched = steps.shape[0], f.batch is not None
    for block in _blocks(x, dirs, n) if batched else ([d] for d in dirs):
        if batched:
            H = _stack(x, block)
            cols = max(1, _BATCH_VALUES // (len(block) * (_width(x) + _width(H))))
            try:
                if cols >= n:
                    values = f.batch(x, H, steps)
                else:
                    values = np.concatenate([f.batch(x, H, steps[i : i + cols]) for i in range(0, n, cols)], axis=1)
            except EvalFailureError:
                good = 0
            else:
                if np.isfinite(values).all():
                    yield H, values
                    continue
                good = int(np.isfinite(values).all(axis=1).argmin())
                if good:
                    yield H, values[:good]
            block = block[good:]
        for d in block:
            h = d if isinstance(d, SpacePoint) else _fit_point(x, d)
            yield h, np.array([[f(linear_combine(1.0, x, float(s), h)) for s in steps]])


def _traces(
    f: Functional,
    x: SpacePoint,
    dirs: Sequence[_Dir],
    grid: TGrid,
    tol: float,
    fx: float,
    nx: float,
) -> Iterator[QuotientTrace]:
    """The quotient traces of f at x along each direction of ``dirs`` over
    the grid, in order, given fx = f(x) and nx = ‖x‖ (inf when it
    overflows): the rows of :func:`_rows` at all ±steps, each pair scored
    before the next is evaluated, so a failure raises the error of the
    first direction that fails, after the traces of the directions before
    it.
    """
    for H, values in _rows(f, x, dirs, grid._signed):
        arr = H.coords if H.coords is not None else H.values
        norms = [_size(H)] if arr.ndim == 1 else _norms(H.space, H.coords, H.values, H.lefts)[: len(values)].tolist()
        yield from _quotient_trace(values, fx, grid, tol, _reach(nx, norms))


def one_sided_derivatives(
    f: Functional,
    x: SpacePoint,
    h: SpacePoint,
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> QuotientTrace:
    """Difference quotients of f at x along +h and -h over the grid.

    f is evaluated at x once and at every ``x ± t_k·h`` through
    :func:`_rows`: in one array evaluation when f has a batch
    evaluator (the norms and the cylinder bases), one point at a time
    otherwise.  The trace is the same either way, bit for bit.
    """
    if not 0.0 < tol < math.inf:
        raise PreconditionFailedError("tol must be finite and positive", tol=tol)
    (trace,) = _traces(f, x, [h], grid, tol, f(x), _size(x))
    return trace


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

    Three checks read two-sided limits, in order: every supplied probe
    direction, then additivity/doubling combinations of the first probes,
    then canonical fit directions for the space (coordinate vectors;
    constant and ramp at the knots of x for C_AB and LINF_R).  Along each
    direction, one-sided limits that both converge but disagree beyond tol
    make the direction a failure witness (NOT_GATEAUX); a side that does
    not converge, or converges only at steps too large for the scale of x,
    ends the verdict INCONCLUSIVE — nonconvergence is not evidence of
    nondifferentiability.  The combinations must reproduce the probes'
    limits linearly, and the sparse derivative fitted to the canonical
    responses must reproduce every probe's limit.  The ``detail`` of a
    verdict that stops short of GATEAUX names the stage and the direction
    that decided it.

    The directions are evaluated in two stages, the probes and then the
    combinations with the fit directions, each as stacks of one array
    evaluation per block (see :func:`_traces`) when f has a batch
    evaluator; no stage is evaluated before the one ahead of it has been
    judged.  A fit direction becomes a point only as a failure witness.
    Directions are judged in the order above, ``traces`` ends at the
    deciding one, and verdict, traces and errors are those of evaluating
    one direction at a time.  f(x) and ``‖x‖`` are evaluated once per
    verdict.
    """
    if not probe_dirs:
        raise PreconditionFailedError("probe_dirs must be nonempty")
    if not 0.0 < tol < math.inf:
        raise PreconditionFailedError("tol must be finite and positive", tol=tol)
    fx, nx = f(x), _size(x)
    traces: list[QuotientTrace] = []
    dirs = list(probe_dirs)

    def verdict(status: VerdictStatus, detail: str = "", **fields) -> DiffVerdict:
        return DiffVerdict(status=status, traces=tuple(traces), detail=detail, **fields)

    def judge(tr: QuotientTrace, h: _Dir, stage: str) -> DiffVerdict | None:
        """Keep the trace along h; the verdict it ends with, if any."""
        traces.append(tr)
        if tr.split(tol):
            return verdict(
                VerdictStatus.NOT_GATEAUX,
                f"one-sided limits disagree along {stage}: "
                f"d_plus={float(tr.d_plus)}, d_minus={float(tr.d_minus)}",
                failure_witness=h if isinstance(h, SpacePoint) else _fit_point(x, h),
            )
        if tr.d_plus is None or tr.d_minus is None:
            return verdict(VerdictStatus.INCONCLUSIVE, tr.unsettled(stage))
        return None

    responses: list[float] = []
    for i, tr in enumerate(_traces(f, x, dirs, grid, tol, fx, nx)):
        if (end := judge(tr, dirs[i], f"probe {i}")) is not None:
            return end
        responses.append(tr.d_plus)

    # linearity spot-checks: additivity on the first pair, doubling on the first
    lin_pairs: list[tuple[SpacePoint, float, str]] = []
    if len(dirs) >= 2:
        lin_pairs.append(
            (linear_combine(1.0, dirs[0], 1.0, dirs[1]), responses[0] + responses[1], "probe 0 + probe 1")
        )
    lin_pairs.append((linear_combine(2.0, dirs[0], 0.0, dirs[0]), 2.0 * responses[0], "2 * probe 0"))
    second: list[_Dir] = [h for h, _, _ in lin_pairs]
    second.extend(range(_fit_count(x)))
    fit_resp: list[float] = []
    for j, tr in enumerate(_traces(f, x, second, grid, tol, fx, nx)):
        if j < len(lin_pairs):
            h, expected, stage = lin_pairs[j]
            if (end := judge(tr, h, stage)) is not None:
                return end
            if abs(tr.d_plus - expected) > tol * max(1.0, abs(expected)):
                return verdict(
                    VerdictStatus.INCONCLUSIVE,
                    f"directional limits exist on the probes but are not linear across them: "
                    f"{float(tr.d_plus)} along {stage}, expected {float(expected)}",
                )
        else:
            k = j - len(lin_pairs)
            if (end := judge(tr, k, f"canonical fit direction {k}")) is not None:
                return end
            fit_resp.append(tr.d_plus)

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
    (norm distances nonincreasing and ending below tol); this check reads
    the whole family.  Then its members are paired with the grid steps in
    order: only the first ``grid.count`` members are used, and families
    shorter than the grid are padded with h itself.  HADAMARD requires
    every family's quotients to settle on the plain direction's limit; the
    shared limit is reported as ``value``.
    """
    if not perturbations:
        raise PreconditionFailedError("need at least one perturbation family")
    if not 0.0 < tol < math.inf:
        raise PreconditionFailedError("tol must be finite and positive", tol=tol)
    fx = f(x)
    (base,) = _traces(f, x, [h], grid, tol, fx, _size(x))
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
        padded = fam[: grid.count] + [h] * max(0, grid.count - len(fam))
        values = [f(linear_combine(1.0, x, float(s), k)) for s, k in zip(grid._signed, padded + padded)]
        (tr,) = _quotient_trace(np.array([values]), fx, grid, tol, [base.reach])
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
    |f(x + s*h) - f(x) - s*u(h)| / s.  Each sample is evaluated at every
    radius in one :meth:`Functional.along`, so an evaluation that fails
    raises the error of the first sample that fails, at its largest
    failing radius.  FRECHET requires the profile at the smallest radius
    to sit below tol; on the piecewise-linear functionals in scope the
    certified cases come out exactly 0.0.
    """
    if not sphere_samples:
        raise PreconditionFailedError("need at least one unit-sphere sample")
    if not 0.0 < tol < math.inf:
        raise PreconditionFailedError("tol must be finite and positive", tol=tol)
    radii = np.array(radii, dtype=float)
    if not (radii.size and np.all((0.0 < radii) & (radii < math.inf))):
        raise PreconditionFailedError("radii must be finite and positive")
    if np.any(radii[1:] >= radii[:-1]):
        raise PreconditionFailedError("radii must be strictly decreasing")
    for h in sphere_samples:
        n = eval_norm(h).value
        if abs(n - 1.0) > 1e-9:
            raise PreconditionFailedError(f"sphere sample has norm {n!r}, expected 1")
    fx = f(x)
    worst = np.zeros(radii.shape[0])
    for h in sphere_samples:
        rem = np.abs(f.along(x, h, radii) - fx - radii * apply_rep(u, h)) / radii
        np.maximum(worst, rem, out=worst)
    profile = tuple(zip(radii.tolist(), worst.tolist()))
    ok = profile[-1][1] < tol
    if ok:
        return DiffVerdict(
            status=VerdictStatus.FRECHET,
            derivative=u,
            remainder_profile=profile,
        )
    return DiffVerdict(
        status=VerdictStatus.INCONCLUSIVE,
        derivative=u,
        remainder_profile=profile,
        detail="first-order remainder did not fall below tol at the smallest radius",
    )


def _unit_ball_directions(x: SpacePoint, rng: np.random.Generator, count: int) -> list[SpacePoint]:
    """Unit-norm directions mixing sign patterns, coordinates, and noise."""
    out: list[SpacePoint] = []
    if x.space in SEQUENCE_SPACES:
        n = x.dim
        k = 0
        while len(out) < count:
            mode = len(out) % 3
            if mode == 0:
                d = rng.choice([-1.0, 1.0], size=n)
            elif mode == 1:
                d = np.zeros(n)
                d[k % n] = 1.0
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
    if not 0.0 < radius < math.inf:
        raise PreconditionFailedError("radius must be finite and positive", radius=radius)
    if not _integral(pair_count) or pair_count < 1:
        raise PreconditionFailedError("pair_count must be an integer >= 1")
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
