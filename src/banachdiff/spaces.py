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

from .errors import EvalFailureError, MalformedPointError, SpaceMismatchError

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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
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
    if not np.all(np.isfinite(arr)):
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
    C_AB requires that.  NBV_AB needs value exactly 0 at ``a``.
    """
    space = Space(space)
    if space not in FUNCTION_SPACES:
        raise MalformedPointError(f"{space.value} points carry coordinates, not segments")
    k, v, e = _readonly(knots), _readonly(values), _readonly(lefts)
    if k.shape[0] < 2 or v.shape != k.shape or e.shape != k.shape:
        raise MalformedPointError("need equal-length knot/value vectors, at least 2 long")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v)) and np.all(np.isfinite(e))):
        raise MalformedPointError("knots and values must be finite")
    if not np.all(np.diff(k) > 0):
        raise MalformedPointError("knots must be strictly increasing")
    if np.array_equal(v, e):
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


def pw_point(space: Space | str, a: float, b: float, breakpoints, slopes, intercepts) -> SpacePoint:
    """Build a piecewise-linear function point (C_AB, LINF_R or NBV_AB).

    ``slopes``/``intercepts`` have one entry per segment and there is one
    more segment than there are breakpoints; segment i is the global line
    ``t -> slopes[i]*t + intercepts[i]``.  Validation enforces the
    per-space invariants: continuity for C_AB, value 0 at ``a`` for NBV_AB.
    Where two C_AB lines meet up to rounding in their evaluation, the
    value of the right-hand one is kept.
    """
    bp, sl, ic = (np.asarray(v, dtype=float) for v in (breakpoints, slopes, intercepts))
    if bp.ndim != 1 or sl.shape != (bp.shape[0] + 1,) or ic.shape != sl.shape:
        raise MalformedPointError("need one more segment (slope, intercept) than breakpoints")
    k = np.concatenate(([float(a)], bp, [float(b)]))
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(sl)) and np.all(np.isfinite(ic))):
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

    Knots must be strictly increasing; the first and last knot become the
    domain.  The values are stored as given.
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
    i = np.minimum(np.searchsorted(k, t, side="right") - 1, k.shape[0] - 2)
    return i, (t - k[i]) / (k[i + 1] - k[i])


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


@np.errstate(over="ignore", invalid="ignore")
def _sum_norm(x: SpacePoint) -> float:
    """The L1_SEQ sum or the NBV_AB total variation of ``x``, computed with
    numpy overflow ignored; a sum that is not finite raises
    :class:`EvalFailureError`."""
    if x.coords is not None:
        total = float(np.abs(x.coords).sum())
    else:
        seg_var = np.abs(x.lefts[1:] - x.values[:-1])
        total = float(seg_var.sum() + np.abs(x.jumps()).sum())
    if not math.isfinite(total):
        raise EvalFailureError(f"norm evaluates to {total}, not a finite number")
    return total


def eval_norm(x: SpacePoint) -> NormValue:
    """Norm of ``x`` in its own space, with an attaining witness when the
    norm is a sup.

    The function sup norms scan the values and left limits at the knots,
    which is where a piecewise-linear function attains extrema; for LINF_R
    this equals the essential sup because each one-sided limit is
    approached on a set of positive measure.  The witness is the first
    knot where the sup is reached.  A norm that overflows raises
    :class:`EvalFailureError`.
    """
    if x.space in (Space.L1_SEQ, Space.NBV_AB):
        return NormValue(_sum_norm(x), None)
    if x.coords is not None:
        abs_c = np.abs(x.coords)
        p = int(abs_c.argmax())
        return NormValue(float(abs_c[p]), p + 1)
    abs_vals = np.maximum(np.abs(x.values), np.abs(x.lefts))
    i = int(abs_vals.argmax())
    return NormValue(float(abs_vals[i]), float(x.knots[i]))


def _at_knots(x: SpacePoint, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and left limits of ``x`` at ``t``, an increasing superset of
    its knots with the same endpoints.

    A point of ``t`` that is not a knot of ``x`` lies inside a segment,
    where the left limit is the value; at a knot both are read back
    exactly, because the interpolation is exact at w = 0 and w = 1.
    """
    if t.shape == x.knots.shape:
        return x.values, x.lefts
    i, w = _segment_at(x, t)
    vals = _lerp(x.values[i], x.lefts[i + 1], w)
    if x.lefts is x.values:
        return vals, vals
    return vals, np.where(w == 0.0, x.lefts[i], vals)


@np.errstate(over="raise", invalid="raise")
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
    :class:`EvalFailureError`.  numpy computes it with overflow set to
    raise, not to warn, which also spares a finiteness scan of the result.
    """
    if x.space is not y.space:
        raise SpaceMismatchError(
            f"cannot combine {x.space.value} with {y.space.value}"
        )
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise EvalFailureError("linear combination with a non-finite coefficient", alpha=alpha, beta=beta)
    try:
        if x.coords is not None:
            if x.dim != y.dim:
                raise SpaceMismatchError(f"length mismatch: {x.dim} vs {y.dim}")
            arrays = {"coords": alpha * x.coords + beta * y.coords}
        else:
            if x.knots[0] != y.knots[0] or x.knots[-1] != y.knots[-1]:
                raise SpaceMismatchError(
                    f"domain mismatch: [{x.a}, {x.b}] vs [{y.a}, {y.b}]"
                )
            knots = x.knots if x.knots is y.knots else np.union1d(x.knots, y.knots)
            xv, xl = _at_knots(x, knots)
            yv, yl = _at_knots(y, knots)
            values = alpha * xv + beta * yv
            lefts = values if xl is xv and yl is yv else alpha * xl + beta * yl
            arrays = {"knots": knots, "values": values, "lefts": lefts}
    except FloatingPointError as exc:
        raise EvalFailureError("linear combination overflows", alpha=alpha, beta=beta) from exc
    for arr in arrays.values():
        arr.setflags(write=False)
    return SpacePoint(space=x.space, **arrays)


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


def point_from_dict(doc: dict) -> SpacePoint:
    if not isinstance(doc, dict) or "space" not in doc:
        raise MalformedPointError("point document must be an object with a 'space' key")
    try:
        space = Space(doc["space"])
    except ValueError as exc:
        raise MalformedPointError(f"unknown space tag {doc['space']!r}") from exc
    if space in SEQUENCE_SPACES:
        if "coords" not in doc:
            raise MalformedPointError(f"{space.value} document needs 'coords'")
        return seq_point(space, doc["coords"])
    try:
        segments = doc["segments"]
        slopes = [s["slope"] for s in segments]
        intercepts = [s["intercept"] for s in segments]
        point = pw_point(space, doc["a"], doc["b"], doc.get("breakpoints", []), slopes, intercepts)
    except (KeyError, TypeError) as exc:
        raise MalformedPointError(f"bad piecewise document: {exc}") from exc
    if "jumps" in doc:
        given = np.asarray(doc["jumps"], dtype=float)
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


def point_from_json(text: str) -> SpacePoint:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedPointError(f"invalid JSON: {exc}") from exc
    return point_from_dict(doc)
