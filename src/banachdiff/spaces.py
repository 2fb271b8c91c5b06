"""Finite models of the sequence and function spaces the toolkit works on.

Six space tags are supported, all finite truncations of the classical
objects they model:

``L1_SEQ``
    summable sequences; norm = sum of absolute coordinates.
``LINF_SEQ``
    bounded sequences; norm = max of absolute coordinates.
``RT``
    R^t with the max norm; the base spaces of truncation systems.
``C_AB``
    continuous piecewise-linear functions on [a, b]; sup norm.
``LINF_R``
    essentially bounded functions on R, modelled on a window [a, b] with
    constant extension outside; piecewise linear with finitely many jumps.
``NBV_AB``
    normalized bounded-variation functions on [a, b] (value 0 at a,
    right-continuous at interior breakpoints); norm = total variation.

Sequence points carry a coordinate vector.  Function points carry their
knots ``a < b_1 < ... < b_m < b`` and two arrays over them: ``values``, the
attained value at each knot, and ``lefts``, the left limit there.  Between
consecutive knots the function is the straight line from the value at the
left knot to the left limit at the right knot.  It is right-continuous: an
interior knot belongs to the segment on its right.  At ``a`` and ``b`` the
left limit equals the value.  For C_AB ``lefts`` is the ``values`` array
itself, so continuity holds by construction; LINF_R and NBV_AB keep a
separate left limit wherever they jump.  Jump sizes, slopes and intercepts
are derived data.  ``pw_point`` and the JSON documents speak in segments
(one ``(slope, intercept)`` global line each); they convert at the
boundary.

Exactness note: norms are max scans and sums of differences over the knot
values, and values between knots interpolate linearly.  On inputs whose
coordinates and knot values are coarse dyadic rationals, with knot gaps
that are powers of two, every evaluation and every linear combination is
exact in binary floating point.  The test fixtures exploit this to assert
bitwise-exact difference quotients.  Off that lattice the same code runs
and results hold up to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EvalFailureError, MalformedPointError, PreconditionFailedError, SpaceMismatchError

__all__ = [
    "Space",
    "SEQUENCE_SPACES",
    "FUNCTION_SPACES",
    "SpacePoint",
    "NormValue",
    "sig",
    "seq_point",
    "pw_point",
    "pw_from_values",
    "constant_fn",
    "step_fn",
    "zeros_like",
    "scale",
    "subtract",
    "value_at",
    "eval_norm",
    "linear_combine",
    "rows_along",
    "norms_along",
    "point_to_dict",
    "point_from_dict",
    "point_to_json",
    "point_from_json",
]


class Space(str, Enum):
    L1_SEQ = "L1_SEQ"
    LINF_SEQ = "LINF_SEQ"
    RT = "RT"
    C_AB = "C_AB"
    LINF_R = "LINF_R"
    NBV_AB = "NBV_AB"


SEQUENCE_SPACES = frozenset({Space.L1_SEQ, Space.LINF_SEQ, Space.RT})
FUNCTION_SPACES = frozenset({Space.C_AB, Space.LINF_R, Space.NBV_AB})

# Two evaluations of one knot value through the global lines of a segment
# document that differ by at most this much, relative to the size of the
# terms in slope*t + intercept, differ by rounding alone.  Continuity of a
# C_AB document and stated jumps are checked up to that much.
_SNAP_RELATIVE = 64.0 * np.finfo(float).eps


def sig(u: float) -> float:
    """Sign with the convention sig(0) = 0."""
    if u > 0.0:
        return 1.0
    if u < 0.0:
        return -1.0
    return 0.0


def _floats(value) -> np.ndarray:
    """``value`` as a float array; data that does not convert is malformed."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedPointError(f"point data must be numbers: {exc}") from None


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = _floats(arr)
    if out.ndim != 1:
        raise MalformedPointError("expected a one-dimensional float array")
    out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpacePoint:
    """One element of one of the supported space models.

    Use :func:`seq_point`, :func:`pw_point` or :func:`pw_from_values`
    instead of the raw constructor; they normalize array inputs and run
    validation.  Function points store ``knots`` (domain endpoints and
    interior breakpoints, increasing), ``values`` (the attained value at
    each knot) and ``lefts`` (the left limit at each knot, the same array
    as ``values`` for C_AB).
    """

    space: Space
    coords: np.ndarray | None = None
    knots: np.ndarray | None = None
    values: np.ndarray | None = None
    lefts: np.ndarray | None = None

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.coords is None:
            raise MalformedPointError("dim is only defined for sequence points")
        return int(self.coords.shape[0])

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Interior knots, increasing."""
        return self.knots[1:-1]

    def jumps(self) -> np.ndarray:
        """Discontinuity sizes at the interior breakpoints (derived)."""
        return self.values[1:-1] - self.lefts[1:-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpacePoint):
            return NotImplemented
        if self.space is not other.space:
            return False
        if self.coords is not None:
            return other.coords is not None and np.array_equal(self.coords, other.coords)
        return (
            np.array_equal(self.knots, other.knots)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.lefts, other.lefts)
        )

    def __repr__(self) -> str:  # keep reprs short in test failures
        if self.coords is not None:
            return f"SpacePoint({self.space.value}, {self.coords.tolist()})"
        return (
            f"SpacePoint({self.space.value}, [{self.a}, {self.b}], "
            f"bp={self.breakpoints.tolist()})"
        )


def _expect(x: SpacePoint, *spaces: Space) -> None:
    """The rule for point arguments: x is a :class:`SpacePoint` of one of
    ``spaces``, else :class:`PreconditionFailedError` names them, in the
    order given, and the space of x, or its type if it is no point."""
    if not isinstance(x, SpacePoint) or x.space not in spaces:
        names = ", ".join(s.value for s in spaces)
        got = x.space.value if isinstance(x, SpacePoint) else type(x).__name__
        raise PreconditionFailedError(f"expected a point of {names}, got {got}")


@dataclass(frozen=True)
class NormValue:
    """A norm evaluation together with where it is attained.

    ``witness`` is a 1-based coordinate index for the sequence sup norms, a
    domain point t0 for the function sup norms, and None for the additive
    norms (L1_SEQ, NBV_AB) which have no single attaining site.
    """

    value: float
    witness: int | float | None = None


# -- construction ----------------------------------------------------------


def seq_point(space: Space | str, coords) -> SpacePoint:
    """Build a sequence-space point (L1_SEQ, LINF_SEQ or RT)."""
    space = Space(space)
    if space not in SEQUENCE_SPACES:
        raise MalformedPointError(f"{space.value} points need a piecewise body")
    arr = _readonly(coords)
    if arr.shape[0] < 1:
        raise MalformedPointError("a sequence point needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise MalformedPointError("coordinates must be finite")
    return SpacePoint(space=space, coords=arr)


def _roundoff(knots: np.ndarray, slopes, intercepts) -> float:
    """Rounding bound for knot values read off the lines ``slope*t + intercept``."""
    sl = np.asarray(slopes, dtype=float)
    terms = (sl * knots[:-1], sl * knots[1:], np.asarray(intercepts, dtype=float))
    return _SNAP_RELATIVE * max(1.0, *(float(np.abs(v).max()) for v in terms))


def _knot_point(space: Space | str, knots, values, lefts) -> SpacePoint:
    """Validated function point from knots, knot values and left limits.

    Where ``lefts`` equals ``values`` the point keeps one array for both;
    C_AB requires that.  When ``lefts`` is ``values`` (a continuous point)
    that array is copied and checked once.  NBV_AB needs value exactly 0
    at ``a``.  Knots increase strictly and the width ``b - a`` is a finite
    float, which bounds every gap between knots, so that a segment can be
    read by interpolation and the domain has a midpoint.
    """
    space = Space(space)
    if space not in FUNCTION_SPACES:
        raise MalformedPointError(f"{space.value} points carry coordinates, not segments")
    k, v = _readonly(knots), _readonly(values)
    e = v if lefts is values else _readonly(lefts)
    if k.shape[0] < 2 or v.shape != k.shape or e.shape != k.shape:
        raise MalformedPointError("need equal-length knot/value vectors, at least 2 long")
    if not (np.isfinite(k).all() and np.isfinite(v).all() and (e is v or np.isfinite(e).all())):
        raise MalformedPointError("knots and values must be finite")
    if not ((k[1:] > k[:-1]).all() and float(k[-1]) - float(k[0]) < math.inf):
        raise MalformedPointError("knots must be strictly increasing, with b - a within the float range")
    if e is v or np.array_equal(v, e):
        e = v
    elif space is Space.C_AB:
        raise MalformedPointError(
            "C_AB requires adjacent segments to match at breakpoints",
            jumps=(v - e)[1:-1].tolist(),
        )
    if space is Space.NBV_AB and v[0] != 0.0:
        raise MalformedPointError(
            "NBV_AB requires value exactly 0 at the left endpoint", value_at_a=float(v[0])
        )
    return SpacePoint(space=space, knots=k, values=v, lefts=e)


@np.errstate(over="ignore", invalid="ignore")
def pw_point(space: Space | str, a: float, b: float, breakpoints, slopes, intercepts) -> SpacePoint:
    """Build a piecewise-linear function point (C_AB, LINF_R or NBV_AB).

    ``slopes``/``intercepts`` have one entry per segment and there is one
    more segment than there are breakpoints; segment i is the global line
    ``t -> slopes[i]*t + intercepts[i]``.  Validation enforces the
    per-space invariants: continuity for C_AB, value 0 at ``a`` for NBV_AB.
    Where two C_AB lines meet up to rounding in their evaluation, the
    value of the right-hand one is kept.  Data that is not numbers, or
    whose lines overflow at the knots, raises :class:`MalformedPointError`.
    """
    ends, bp, sl, ic = map(_floats, ((a, b), breakpoints, slopes, intercepts))
    if ends.shape != (2,):
        raise MalformedPointError("the domain ends a and b must be numbers")
    if bp.ndim != 1 or sl.shape != (bp.shape[0] + 1,) or ic.shape != sl.shape:
        raise MalformedPointError("need one more segment (slope, intercept) than breakpoints")
    k = np.concatenate((ends[:1], bp, ends[1:]))
    if not (np.isfinite(k).all() and np.isfinite(sl).all() and np.isfinite(ic).all()):
        raise MalformedPointError("segment data must be finite")
    starts = sl * k[:-1] + ic
    ends = sl * k[1:] + ic
    values = np.append(starts, ends[-1])
    lefts = np.concatenate((starts[:1], ends))
    if Space(space) is Space.C_AB and np.all(np.abs(values - lefts) <= _roundoff(k, sl, ic)):
        lefts = values
    return _knot_point(space, k, values, lefts)


def pw_from_values(space: Space | str, knots, values) -> SpacePoint:
    """Continuous piecewise-linear interpolant through (knot, value) pairs.

    Knots must be strictly increasing, with a finite width from first to
    last; the first and last knot become the domain.  The values are stored
    as given.
    """
    return _knot_point(space, knots, values, values)


def constant_fn(space: Space | str, a: float, b: float, value: float) -> SpacePoint:
    """The constant function ``value`` on [a, b] (0 required for NBV_AB)."""
    return pw_from_values(space, [a, b], [value, value])


def step_fn(
    space: Space | str,
    a: float,
    b: float,
    at: float,
    left: float,
    right: float,
) -> SpacePoint:
    """Piecewise-constant step: ``left`` on [a, at), ``right`` on [at, b]."""
    return _knot_point(space, [a, at, b], [left, right, right], [left, left, right])


def zeros_like(x: SpacePoint) -> SpacePoint:
    if x.coords is not None:
        return seq_point(x.space, np.zeros(x.dim))
    return constant_fn(x.space, x.a, x.b, 0.0)


def scale(alpha: float, x: SpacePoint) -> SpacePoint:
    return linear_combine(alpha, x, 0.0, x)


def subtract(x: SpacePoint, y: SpacePoint) -> SpacePoint:
    return linear_combine(1.0, x, -1.0, y)


# -- evaluation ------------------------------------------------------------


def _segment_at(x: SpacePoint, t):
    """Index of the segment holding ``t`` (the one on its right at a knot)
    and the fraction ``w`` of the way across it; ``t = b`` is the end,
    ``w = 1``, of the last segment."""
    k = x.knots
    i = np.searchsorted(k[1:-1], t, side="right")
    lo = k[i]
    return i, (t - lo) / (k[i + 1] - lo)


def _lerp(v, e, w):
    """``(1-w)*v + w*e``: exactly ``v`` at w = 0 and exactly ``e`` at w = 1."""
    return (1.0 - w) * v + w * e


def value_at(x: SpacePoint, t: float) -> float:
    """Pointwise value of a function-space element.

    Right-continuous at breakpoints.  LINF_R extends constantly outside the
    window; the compact-domain spaces reject points outside [a, b].
    """
    if x.coords is not None:
        raise EvalFailureError("value_at applies to function-space points")
    if t < x.a or t > x.b:
        if x.space is Space.LINF_R:
            t = x.a if t < x.a else x.b
        else:
            raise EvalFailureError(f"{t} lies outside the domain [{x.a}, {x.b}]")
    i, w = _segment_at(x, t)
    return float(_lerp(x.values[i], x.lefts[i + 1], w))


def _abs_profile(coords, values, lefts, order: str = "K") -> np.ndarray:
    """|coordinate| for sequence arrays; max(|value|, |left limit|) per knot
    for function arrays, which is where a piecewise-linear function attains
    its extrema.  ``order`` is the memory layout of the result, as numpy's
    ufuncs take it."""
    if coords is not None:
        return np.abs(coords, order=order)
    if lefts is values:
        return np.abs(values, order=order)
    return np.maximum(np.abs(values, order=order), np.abs(lefts, order=order), order=order)


def _top_two(profile: np.ndarray) -> tuple[int, int | None]:
    """The first index p of the largest entry of a profile (see
    :func:`_abs_profile`) and the first index of the largest among the
    others, None when there are none.  The max of the profile without
    entry k is entry p, except at k = p, where it is the runner-up."""
    p = int(profile.argmax())
    if profile.shape[0] == 1:
        return p, None
    rest = profile.copy()
    rest[p] = -1.0  # below every magnitude
    return p, int(rest.argmax())


# The widest rows whose max scans run faster across rows (Fortran order)
# than along them; see :func:`_norms`.
_NARROW = 32


def _norms(space: Space, coords, values, lefts) -> np.ndarray:
    """The norm of every point whose arrays are the last-axis rows of
    ``coords`` (sequences) or of ``values`` and ``lefts`` (functions).

    A one-dimensional input gives one norm.  A sum that overflows comes out
    infinite, with numpy overflow ignored; the callers decide what that
    means.  A row sum reduces the same contiguous run of numbers in the
    same order as the sum of a single point, so each row is bitwise the
    norm of that row as a point of its own; sums therefore keep the layout
    of their input.

    A max scan instead lays its profile out for the reduction.  numpy
    reduces the last axis of a C-ordered stack one row at a time, about
    60 ns a row, so rows at most ``_NARROW`` wide get a Fortran-ordered
    profile, which it reduces across rows: abs and max of a (steps, rows,
    width) = (40, 10, 8) stack take 3.7 µs instead of 19.9 µs.  Wider rows
    keep the input's C layout, whose long row scans are the faster ones
    there: 18.8 µs against 21.7 µs in Fortran order at (18, 14, 64)
    (numpy 2.4 on a 2-core x86 VM).  A max is exact, so the layout changes
    no bit.
    """
    if space is Space.L1_SEQ:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(coords).sum(axis=-1)
    if space is Space.NBV_AB:
        with np.errstate(over="ignore", invalid="ignore"):
            seg_var = np.abs(lefts[..., 1:] - values[..., :-1]).sum(axis=-1)
            return seg_var + np.abs(values[..., 1:-1] - lefts[..., 1:-1]).sum(axis=-1)
    width = (coords if coords is not None else values).shape[-1]
    return _abs_profile(coords, values, lefts, "F" if width <= _NARROW else "K").max(axis=-1)


def eval_norm(x: SpacePoint) -> NormValue:
    """Norm of ``x`` in its own space, with an attaining witness when the
    norm is a sup.

    The function sup norms scan the values and left limits at the knots,
    which is where a piecewise-linear function attains extrema; for LINF_R
    this equals the essential sup because each one-sided limit is
    approached on a set of positive measure.  The witness is the first
    knot where the sup is reached.  A norm that overflows raises
    :class:`EvalFailureError`.  Points are immutable, so each computes its
    norm once and keeps it, the way ``functools.cached_property`` keeps a
    value, in the instance dictionary.
    """
    norm = x.__dict__.get("_norm")
    if norm is None:
        if x.space in (Space.L1_SEQ, Space.NBV_AB):
            total = float(_norms(x.space, x.coords, x.values, x.lefts))
            if not math.isfinite(total):
                raise EvalFailureError(f"norm evaluates to {total}, not a finite number")
            norm = NormValue(total, None)
        else:
            profile = _abs_profile(x.coords, x.values, x.lefts)
            i = int(profile.argmax())
            norm = NormValue(float(profile[i]), i + 1 if x.coords is not None else float(x.knots[i]))
        x.__dict__["_norm"] = norm
    return norm


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two 1-d float arrays, the values ``np.union1d``
    gives: a stable sort and one comparison with the predecessor, with
    neither a hash table nor numpy's masked arrays.  Of entries that
    compare equal (``-0.0`` and ``0.0``) the first in the order ``a, b``
    is kept, where ``np.union1d`` keeps whichever its sort puts first."""
    t = np.concatenate((a, b))
    t.sort(kind="stable")
    keep = np.empty(t.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


def _at_knots(x: SpacePoint, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and left limits of ``x`` at ``t``, an increasing superset of
    its knots with the same endpoints; for a stack (see :func:`rows_along`)
    the last axis runs over ``t``.

    A point of ``t`` that is not a knot of ``x`` lies inside a segment,
    where the left limit is the value; at a knot both are read back
    exactly, because the interpolation is exact at w = 0 and w = 1.
    """
    if t.shape == x.knots.shape:
        return x.values, x.lefts
    i, w = _segment_at(x, t)
    vals = _lerp(x.values.take(i, axis=-1), x.lefts.take(i + 1, axis=-1), w)
    if x.lefts is x.values:
        return vals, vals
    return vals, np.where(w == 0.0, x.lefts.take(i, axis=-1), vals)


def _scaled(alpha: float, arr: np.ndarray) -> np.ndarray:
    """``alpha * arr``; ``arr`` itself when alpha is 1, which is the same bit
    for bit."""
    return arr if alpha == 1.0 else alpha * arr


@np.errstate(over="raise", invalid="raise")
def _combined(alpha: float, x: SpacePoint, beta, y: SpacePoint) -> dict[str, np.ndarray]:
    """The arrays of ``alpha*x + beta*y``, keyed as :class:`SpacePoint`
    fields.  ``beta`` is a float, or an n × 1 × 1 array of floats and
    ``y`` a stack of R rows (see :func:`rows_along`): every combined array
    then holds n × R rows, one per (step, direction) pair, each computed by
    the very operations of the float case.  Rows of a stack are read along
    its last axis, so a single point is a stack of one row.

    Checks, in this order: matching space tags, finite coefficients,
    matching lengths/domains.  numpy computes with overflow set to raise,
    not to warn, which spares a finiteness scan of the result: a
    combination that overflows raises :class:`EvalFailureError`.
    """
    if x.space is not y.space:
        raise SpaceMismatchError(
            f"cannot combine {x.space.value} with {y.space.value}"
        )
    if not (math.isfinite(alpha) and np.isfinite(beta).all()):
        raise EvalFailureError("linear combination with a non-finite coefficient", alpha=alpha, beta=beta)
    try:
        if x.coords is not None:
            if x.coords.shape[-1] != y.coords.shape[-1]:
                raise SpaceMismatchError(f"length mismatch: {x.dim} vs {y.coords.shape[-1]}")
            return {"coords": _scaled(alpha, x.coords) + beta * y.coords}
        if x.knots[0] != y.knots[0] or x.knots[-1] != y.knots[-1]:
            raise SpaceMismatchError(
                f"domain mismatch: [{x.a}, {x.b}] vs [{y.a}, {y.b}]"
            )
        knots = x.knots if x.knots is y.knots else _union(x.knots, y.knots)
        xv, xl = _at_knots(x, knots)
        yv, yl = _at_knots(y, knots)
        values = _scaled(alpha, xv) + beta * yv
        lefts = values if xl is xv and yl is yv else _scaled(alpha, xl) + beta * yl
        return {"knots": knots, "values": values, "lefts": lefts}
    except FloatingPointError as exc:
        raise EvalFailureError("linear combination overflows", alpha=alpha, beta=beta) from exc


def linear_combine(alpha: float, x: SpacePoint, beta: float, y: SpacePoint) -> SpacePoint:
    """Representation of ``alpha*x + beta*y``.

    Requires matching space tags, and matching lengths/domains.  Function
    points are combined on the union of their knots: each operand is
    sampled there (its stored values at its own knots, linear interpolation
    in between) and the samples are combined.  The combination of two
    continuous points, among them every C_AB pair, shares one array for
    values and left limits, so it is continuous by construction; an NBV_AB
    result has value ``alpha*0 + beta*0 == 0`` at ``a``.  On the dyadic
    lattice with power-of-two knot gaps the combination is exact.  Operands
    are valid points already, so only the arithmetic can fail: a
    non-finite coefficient, or a combination that overflows, raises
    :class:`EvalFailureError`.
    """
    arrays = _combined(float(alpha), x, float(beta), y)
    for arr in arrays.values():
        arr.setflags(write=False)
    return SpacePoint(space=x.space, **arrays)


def rows_along(x: SpacePoint, H: SpacePoint, steps) -> dict[str, np.ndarray]:
    """The points ``x + s*H[j]`` for every direction ``H[j]`` of the stack
    ``H`` and every signed step ``s = steps[i]``, as the arrays of
    :func:`linear_combine` indexed ``[i, j]`` before their last axis.

    A stack is a :class:`SpacePoint` whose ``coords`` (sequences), or
    ``values`` and ``lefts`` over its one ``knots`` array (functions),
    carry one direction per row; a point is a stack of one row.  Row
    ``[i, j]`` of ``coords``, or of ``values`` and ``lefts`` over the one
    merged ``knots`` array, is bitwise the array of
    ``linear_combine(1.0, x, steps[i], H[j])``, where ``H[j]`` is the
    point of row j: the knots are merged once and every other operation is
    the one the single combination performs.  It raises what that
    combination raises, for the whole stack at once.
    """
    return _combined(1.0, x, np.asarray(steps, dtype=float)[:, None, None], H)


def norms_along(x: SpacePoint, H: SpacePoint, steps) -> np.ndarray:
    """``‖x + s*H[j]‖`` at ``[j, i]`` for every direction ``H[j]`` of the
    stack ``H`` and step ``s = steps[i]``, each bitwise
    ``eval_norm(linear_combine(1.0, x, s, H[j])).value``.

    The sums and max scans over the last axis of :func:`rows_along`; a
    norm that overflows comes out infinite instead of raising.
    """
    rows = rows_along(x, H, steps)
    return _norms(x.space, rows.get("coords"), rows.get("values"), rows.get("lefts")).T


@np.errstate(over="ignore", invalid="ignore")
def _coordinate_norms(x: SpacePoint, ks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``‖x + s*e_k‖`` at ``[j, i]`` for k = ks[j] and s = steps[i], at a
    point x of a max-norm sequence space, LINF_SEQ or RT, for indices in
    [0, dim) and finite steps: the fit kernel (see
    :class:`~banachdiff.diffengine.Functional`) that
    :func:`~banachdiff.diffengine.norm_functional` declares for those two
    spaces.  Along e_k only coordinate k moves, so the norm is
    ``max(M_k, |x_k + s|)``, where M_k is the largest |x_j| with j ≠ k (0
    at dimension 1): O(steps) numbers per row, and bitwise the row
    :func:`norms_along` reads along the dense vector e_k, since a max is
    exact and ``x_j + s*0.0`` keeps |x_j|.  A row whose ``x_k + s``
    overflows comes out infinite.  L1_SEQ has no such form: a sum of one
    moved coordinate is not bitwise the dense pairwise sum off the dyadic
    lattice.
    """
    profile = np.abs(x.coords)
    p, q = _top_two(profile)
    others = np.where(ks == p, 0.0 if q is None else profile[q], profile[p])
    moved = np.add.outer(x.coords[ks], steps)
    np.abs(moved, out=moved)
    return np.maximum(moved, others[:, None], out=moved)


# -- canonical JSON --------------------------------------------------------


def point_to_dict(x: SpacePoint) -> dict:
    if x.coords is not None:
        return {"space": x.space.value, "coords": x.coords.tolist()}
    k = x.knots
    slopes = (x.lefts[1:] - x.values[:-1]) / np.diff(k)
    intercepts = x.values[:-1] - slopes * k[:-1]
    return {
        "space": x.space.value,
        "a": x.a,
        "b": x.b,
        "breakpoints": x.breakpoints.tolist(),
        "segments": [
            {"slope": s, "intercept": c}
            for s, c in zip(slopes.tolist(), intercepts.tolist())
        ],
        "jumps": x.jumps().tolist(),
    }


def _json_numbers(value):
    """``value``, a JSON number or list, with booleans and strings among its
    entries refused: numpy would read ``true`` and ``"1"`` as 1.0."""
    for v in value if isinstance(value, list) else (value,):
        if isinstance(v, (bool, str)):
            raise MalformedPointError(f"point data must be numbers, got {v!r}")
    return value


def point_from_dict(doc: dict) -> SpacePoint:
    """The point a JSON document describes (see :func:`point_to_dict`).

    Every failure is :class:`MalformedPointError`, among them numbers given
    as JSON booleans or strings.
    """
    if not isinstance(doc, dict) or "space" not in doc:
        raise MalformedPointError("point document must be an object with a 'space' key")
    try:
        space = Space(doc["space"])
    except ValueError as exc:
        raise MalformedPointError(f"unknown space tag {doc['space']!r}") from exc
    if space in SEQUENCE_SPACES:
        if "coords" not in doc:
            raise MalformedPointError(f"{space.value} document needs 'coords'")
        return seq_point(space, _json_numbers(doc["coords"]))
    try:
        segments = doc["segments"]
        slopes = _json_numbers([s["slope"] for s in segments])
        intercepts = _json_numbers([s["intercept"] for s in segments])
        a, b, bp = (_json_numbers(v) for v in (doc["a"], doc["b"], doc.get("breakpoints", [])))
    except (KeyError, TypeError) as exc:
        raise MalformedPointError(f"bad piecewise document: {exc}") from exc
    point = pw_point(space, a, b, bp, slopes, intercepts)
    if "jumps" in doc:
        given = _floats(_json_numbers(doc["jumps"]))
        derived = point.jumps()
        if given.shape != derived.shape or not np.allclose(
            given, derived, rtol=0.0, atol=_roundoff(point.knots, slopes, intercepts)
        ):
            raise MalformedPointError(
                "stated jumps disagree with the segment representation",
                given=given.tolist(),
                derived=derived.tolist(),
            )
    return point


def point_to_json(x: SpacePoint) -> str:
    return json.dumps(point_to_dict(x), sort_keys=True, separators=(",", ":"))


def _read_json(text: str, what: str, error=MalformedPointError):
    """The JSON document ``text``; text that is not JSON raises ``error``
    with a message naming ``what``."""
    # json.loads raises ValueError beyond its 4300-digit integer limit and
    # RecursionError on arrays nested too deep for the parser
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def point_from_json(text: str) -> SpacePoint:
    return point_from_dict(_read_json(text, "point text"))
