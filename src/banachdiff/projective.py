"""Truncation systems, cylindrical functions, and chain-rule propagation.

A truncation system is a finite chain of dimensions with coordinate
projections between them; a cylindrical function factors through one of
those projections, so its differentiability at a point is exactly that
of its finite-dimensional base map at the projected point.  This module
lifts base-map verdicts through the projection, estimates how Lipschitz
data transfers, and propagates differentiability through composition
with scalar outer maps — including the negative direction, where a kink
in the outer map at exactly the inner value defeats the composition.

The weighted series sum_k |x_k|/k^2 is the worked example everything
else is tested against; its evaluation order (first coordinate to last)
is part of the contract so that independently coded paths agree bitwise.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._rng import philox_gen
from .diffengine import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    DiffVerdict,
    Functional,
    TGrid,
    VerdictStatus,
    _checked,
    _fit_point,
    _quotient_trace,
    _reach,
    _rows,
    _unit_ball_directions,
    _verdict,
    gateaux_verdict,
    norm_functional,
    one_sided_derivatives,
)
from .errors import (
    BadDimsError,
    DimTooSmallError,
    NonconstancyUnverifiedError,
    PreconditionFailedError,
    _integral,
    _real,
)
from .oracles import LinearFunctionalRep, RepKind, apply_rep, coeff_rep, signed_index_rep, zero_rep
from .spaces import (
    SEQUENCE_SPACES,
    Space,
    SpacePoint,
    _expect,
    eval_norm,
    linear_combine,
    rows_along,
    seq_point,
    sig,
    subtract,
)

__all__ = [
    "ProjectiveSystem",
    "CylindricalFunction",
    "ScalarMap",
    "make_truncation_system",
    "wseries_eval",
    "wseries_gateaux",
    "wseries_functional",
    "make_cylinder",
    "cyl_eval",
    "full_functional",
    "cyl_gateaux",
    "lipschitz_factor_check",
    "compose_propagate",
    "CYL_BASES",
    "OUTER_MAPS",
]

# The sequence spaces, in the fixed order a refused point's message names
# them (a frozenset's order varies with string hashing between processes).
_SEQUENCES = (Space.L1_SEQ, Space.LINF_SEQ, Space.RT)


@dataclass(frozen=True)
class ProjectiveSystem:
    """A chain of truncation dimensions with coordinate projections.

    ``connect(s, t, v)`` truncates a length-t coordinate list to its
    first s entries (s <= t, both listed); ``project(t, x)`` truncates a
    sequence-space point to the finite model of dimension t; both raise
    :class:`BadDimsError` for a dimension that is not one of the listed
    integers.  Construction checks only the dimensions themselves.  The
    composition identity connect(s,t) ∘ connect(t,w) = connect(s,w) holds
    by construction, because each connecting map is a slice;
    ``test_connectors_compose_exactly`` and acceptance criterion 10 test it.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise BadDimsError("need at least one dimension")
        if not all(_integral(d) and d >= 1 for d in self.dims):
            raise BadDimsError("dimensions must be integers >= 1", dims=self.dims)
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise BadDimsError("dimensions must be strictly increasing", dims=self.dims)

    def _require(self, d: int) -> None:
        if not (_integral(d) and d in self.dims):
            raise BadDimsError(f"dimension {d} is not part of the system", dims=self.dims)

    def connect(self, s: int, t: int, coords) -> np.ndarray:
        self._require(s)
        self._require(t)
        if s > t:
            raise BadDimsError(f"connecting map needs s <= t, got {s} > {t}")
        v = np.asarray(coords, dtype=float)
        if v.shape != (t,):
            raise PreconditionFailedError(f"expected a length-{t} vector, got shape {v.shape}")
        return v[:s].copy()

    def project(self, t: int, x: SpacePoint) -> SpacePoint:
        self._require(t)
        _expect(x, *_SEQUENCES)
        if x.dim < t:
            raise DimTooSmallError(f"point has {x.dim} coordinates, projection needs {t}")
        return seq_point(Space.RT, x.coords[:t])


def make_truncation_system(dims) -> ProjectiveSystem:
    """The truncation chain over ``dims``, integers never truncated; see
    :class:`ProjectiveSystem` for why its connecting maps compose unchecked."""
    return ProjectiveSystem(dims=tuple(dims))


@dataclass(frozen=True)
class CylindricalFunction:
    """A function of infinitely many coordinates that uses only t of them."""

    name: str
    base_dim: int
    base: Functional

    def __post_init__(self):
        if not _integral(self.base_dim) or self.base_dim < 1:
            raise PreconditionFailedError("base_dim must be an integer >= 1")


@np.errstate(over="ignore", invalid="ignore")
def _wseries_sums(coords: np.ndarray) -> np.ndarray:
    """sum_k |c_k| / k^2 over the last axis, accumulated first coordinate
    to last; a sum that overflows comes out infinite."""
    k = np.arange(1.0, coords.shape[-1] + 1.0)
    return np.add.accumulate(np.abs(coords) / (k * k), axis=-1)[..., -1]


def wseries_eval(x: SpacePoint) -> float:
    """sum_{k <= dim} |x_k| / k^2, accumulated first coordinate to last.

    The left-to-right order is contractual: the cylindrical wrapper, the
    batch evaluation along a line and this direct evaluation must agree
    bitwise, not merely approximately.
    """
    _expect(x, *_SEQUENCES)
    return _wseries_sums(x.coords)


def _wseries_along(x: SpacePoint, H: SpacePoint, steps: np.ndarray) -> np.ndarray:
    """:func:`wseries_eval` at ``x + s*H[j]`` for every direction ``H[j]`` of
    the stack ``H`` (see :func:`~banachdiff.spaces.rows_along`) and every
    signed step s, indexed ``[j, i]``, bitwise."""
    rows = rows_along(x, H, steps)
    _expect(x, *_SEQUENCES)
    return _wseries_sums(rows["coords"]).T


def wseries_gateaux(x: SpacePoint, h: SpacePoint) -> float | None:
    """Directional derivative sum_k sig(x_k) h_k / k^2, or None.

    The closed form holds when every coordinate where h pushes is
    signed; a zero x_k under a nonzero h_k splits the one-sided limits
    (|x_k + t h_k| contributes |t h_k|), so no two-sided value exists.
    """
    if x.space not in SEQUENCE_SPACES or h.space is not x.space or h.dim != x.dim:
        raise PreconditionFailedError("need two sequence points of matching space and dimension")
    acc = 0.0
    for k, (c, d) in enumerate(zip(x.coords, h.coords), start=1):
        if c == 0.0 and d != 0.0:
            return None
        acc += sig(c) * d / (k * k)
    return acc


def wseries_functional() -> Functional:
    return Functional("weighted_series", wseries_eval, batch=_wseries_along)


CYL_BASES: dict[str, Callable[[], Functional]] = {
    "wseries_partial": lambda: Functional("wseries_partial", wseries_eval, Space.RT, _wseries_along),
    "supnorm": lambda: dataclasses.replace(norm_functional(Space.RT), name="supnorm"),
}


def make_cylinder(base_name: str, t: int) -> CylindricalFunction:
    if base_name not in CYL_BASES:
        raise PreconditionFailedError(
            f"unknown base {base_name!r}; available: {sorted(CYL_BASES)}"
        )
    return CylindricalFunction(f"{base_name}_{t}", t, CYL_BASES[base_name]())


def cyl_eval(cf: CylindricalFunction, sys_: ProjectiveSystem, x: SpacePoint) -> float:
    """Evaluate the cylindrical function: base map after projection."""
    return cf.base(sys_.project(cf.base_dim, x))


def _cylinder_batch(cf: CylindricalFunction, sys_: ProjectiveSystem):
    """The batch and the fit kernel of the cylindrical function on full
    sequence points (see :class:`~banachdiff.diffengine.Functional`), or
    None for both when its base has no batch.  Both evaluate the base at
    the projected point.

    The batch makes its combinations on the full points first, so an
    overflow in any coordinate raises, also in one the projection drops.
    The base's batch then evaluates the projected point along the stack's
    first ``base_dim`` columns: each of those rows is bitwise the
    projection of the full row, so each value is bitwise the base at
    ``project(linear_combine(1.0, x, s, H[j]))``.

    Along e_k only x_k moves, so the fit kernel reads the base's rows at
    the projected point through :func:`~banachdiff.diffengine._rows`: along
    e_k for k < ``base_dim``, and along the zero vector, where every e_k
    with k >= ``base_dim`` projects (the full row's ``x_j + s*0.0`` are its
    coordinates, a -0.0 turned to 0.0 at s > 0 included).  A row whose
    x_k + s overflows reads inf, so the block is evaluated again one point
    at a time and raises the full point's error.  No row of the full
    width is made, and the base's rows come in the engine's bounded
    blocks, so beyond them a fit row costs O(steps) numbers whatever the
    width of x.
    """
    base, t = cf.base, cf.base_dim
    if base.batch is None:
        return None, None

    def projected(x: SpacePoint) -> SpacePoint:
        xt = sys_.project(t, x)
        base._expect(xt)
        return xt

    def batch(x: SpacePoint, H: SpacePoint, steps: np.ndarray) -> np.ndarray:
        rows_along(x, H, steps)
        return base.batch(projected(x), SpacePoint(Space.RT, coords=H.coords[..., :t]), steps)

    def fit(x: SpacePoint, ks: np.ndarray, steps: np.ndarray) -> np.ndarray:
        low = ks < t
        dirs = [seq_point(Space.RT, np.zeros(t)), *ks[low].tolist()]
        # row 0 is the zero vector's, row r the r-th k < base_dim's
        rows = np.concatenate([v for _, v in _rows(base, projected(x), dirs, steps)])[np.cumsum(low) * low]
        with np.errstate(over="ignore"):
            rows[~np.isfinite(np.add.outer(x.coords[ks], steps))] = math.inf
        return rows

    return batch, fit


def full_functional(cf: CylindricalFunction, sys_: ProjectiveSystem) -> Functional:
    """The cylindrical function as a Functional on full sequence points,
    with a batch and a fit kernel when its base has a batch (see
    :func:`_cylinder_batch`): a verdict's N coordinate fit rows then cost
    O(steps) numbers each beyond the base's own rows, not O(N·steps)."""
    return Functional(cf.name, lambda x: cyl_eval(cf, sys_, x), None, *_cylinder_batch(cf, sys_))


def _lift_direction(w: SpacePoint, template: SpacePoint) -> SpacePoint:
    """Zero-pad a base-space direction to the template's space and length."""
    out = np.zeros(template.dim)
    out[: w.dim] = w.coords
    return seq_point(template.space, out)


def cyl_gateaux(
    cf: CylindricalFunction,
    sys_: ProjectiveSystem,
    x: SpacePoint,
    h: SpacePoint,
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> DiffVerdict:
    """Differentiability of the cylindrical function, decided downstairs.

    The projection is linear and norm-nonincreasing, so the function is
    differentiable at x exactly when its base map is at the projected
    point; the base verdict is lifted: derivative representations apply
    to full directions through truncation built into their evaluation,
    and failure witnesses are zero-padded back up.
    """
    xt = sys_.project(cf.base_dim, x)
    ht = sys_.project(cf.base_dim, h)
    below = gateaux_verdict(cf.base, xt, [ht], grid, tol)
    if below.failure_witness is None:
        return below
    return dataclasses.replace(below, failure_witness=_lift_direction(below.failure_witness, x))


def lipschitz_factor_check(
    cf: CylindricalFunction,
    sys_: ProjectiveSystem,
    x: SpacePoint,
    radius: float,
    pair_count: int,
    seed: int,
) -> tuple[float, float, bool]:
    """Estimate Lipschitz constants upstairs and downstairs and compare.

    Takes ``pair_count`` directions d of unit norm in x's space from the
    sampler of :func:`~banachdiff.diffengine.local_lipschitz_estimate`,
    seeded by ``seed``; rates the full function on the antipodal pairs
    x ± (radius/2)·d, which lie in the radius ball around x, and the base
    map on the projected pairs.  Projection can only shrink the
    denominator norm, so each projected ratio is at least its full-space
    counterpart and the estimates must come out ordered k_full <= k_base
    (up to a 1e-12 float allowance); the returned flag asserts exactly
    that, plus finiteness.

    Raises :class:`BadDimsError` if the base dimension is not a stage of
    the system, and :class:`NonconstancyUnverifiedError` if every sampled
    value agrees — a constant function has no Lipschitz geometry to report.
    """
    radius = _real("radius", radius)
    if not _integral(pair_count) or pair_count < 1:
        raise PreconditionFailedError("pair_count must be an integer >= 1")
    f_full = full_functional(cf, sys_)
    t = cf.base_dim
    c = radius / 2.0
    k_full = 0.0
    k_base = 0.0
    seen_lo = math.inf
    seen_hi = -math.inf
    for d in _unit_ball_directions(x, philox_gen(seed), pair_count):
        y = linear_combine(1.0, x, c, d)
        z = linear_combine(1.0, x, -c, d)
        fy, fz = f_full(y), f_full(z)
        seen_lo, seen_hi = min(seen_lo, fy, fz), max(seen_hi, fy, fz)
        gap_full = eval_norm(subtract(y, z)).value
        if gap_full > 0.0:
            k_full = max(k_full, abs(fy - fz) / gap_full)
        yt, zt = sys_.project(t, y), sys_.project(t, z)
        gap_base = eval_norm(subtract(yt, zt)).value
        if gap_base > 0.0:
            k_base = max(k_base, abs(cf.base(yt) - cf.base(zt)) / gap_base)
    if seen_lo == seen_hi:
        raise NonconstancyUnverifiedError(
            "all sampled values agree; cannot certify the function nonconstant",
            value=seen_lo,
        )
    flag = math.isfinite(k_base) and k_full <= k_base + 1e-12
    return k_full, k_base, flag


@dataclass(frozen=True)
class ScalarMap:
    """A named real-to-real map used as the outer factor of a composition.

    A call that overflows or yields a non-finite value raises
    :class:`EvalFailureError`.
    """

    name: str
    fn: Callable[[float], float]

    def __call__(self, u: float) -> float:
        return _checked(lambda: f"outer map {self.name!r} at {float(u)!r}", self.fn, u, outer=self.name)


OUTER_MAPS: dict[str, ScalarMap] = {
    m.name: m
    for m in (
        ScalarMap("identity", lambda u: u),
        ScalarMap("square", lambda u: u * u),
        ScalarMap("cube_plus_u", lambda u: u * u * u + u),
        ScalarMap("abs", abs),
        ScalarMap("relu", lambda u: u if u > 0.0 else 0.0),
        ScalarMap("sin", math.sin),
        ScalarMap("exp", math.exp),
    )
}


def _scale_rep(rep: LinearFunctionalRep, factor: float, tol: float) -> LinearFunctionalRep:
    if rep.kind is RepKind.ZERO or factor == 0.0:
        return zero_rep()
    if rep.kind is RepKind.SIGNED_INDEX:
        if abs(abs(factor) - 1.0) <= tol:
            return signed_index_rep(rep.p, rep.sigma * (1.0 if factor > 0 else -1.0))
        coeffs = [0.0] * rep.p
        coeffs[rep.p - 1] = rep.sigma * factor
        return coeff_rep(coeffs)
    return coeff_rep([factor * c for c in rep.coeffs])


def _composition(outer: ScalarMap, inner: CylindricalFunction, sys_: ProjectiveSystem) -> Functional:
    """outer ∘ inner as a Functional on full sequence points.

    When the inner base has a batch, so has the composition: outer, through
    :meth:`ScalarMap.__call__`, at each finite value of the cylinder's
    batch.  A non-finite inner value stays as it is, and an outer value
    that overflows or is not finite raises :class:`EvalFailureError`; either
    way :func:`~banachdiff.diffengine._rows` evaluates from there one point
    at a time, so the first failing step raises its own error.
    """
    inner_batch, _ = _cylinder_batch(inner, sys_)

    def batch(x: SpacePoint, H: SpacePoint, steps: np.ndarray) -> np.ndarray:
        values = inner_batch(x, H, steps).tolist()
        return np.array([[outer(v) if math.isfinite(v) else v for v in row] for row in values])

    return Functional(
        f"{outer.name}_of_{inner.name}",
        lambda pt: outer(cyl_eval(inner, sys_, pt)),
        batch=None if inner_batch is None else batch,
    )


def compose_propagate(
    outer: ScalarMap,
    inner: CylindricalFunction,
    sys_: ProjectiveSystem,
    x: SpacePoint,
    h: SpacePoint,
    grid: TGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
) -> DiffVerdict:
    """Chain-rule verdict for outer ∘ inner at x along h.

    With the inner function differentiable at x (derivative value v along
    h) and the outer map differentiable at y0 = inner(x) with slope g',
    the composition is differentiable with value g'·v — which is then
    cross-checked against direct difference quotients of the composition
    (see :func:`_composition`: one array pass per direction when the
    inner base has a batch) before being returned.  A genuine outer kink
    at exactly y0 combined with a nonzero inner derivative defeats the
    composition; the verdict is NOT_GATEAUX with a verified witness.  An outer kink under a zero
    inner derivative, or any unverifiable configuration, is INCONCLUSIVE
    rather than guessed.
    """
    inner_verdict = cyl_gateaux(inner, sys_, x, h, grid, tol)
    y0 = cyl_eval(inner, sys_, x)
    # the outer map steps along the unit direction of R, so the scale is |y0|
    g0 = outer(y0)
    values = [outer(y0 + s) for s in grid._signed]
    (gtrace,) = _quotient_trace(np.array([values]), g0, grid, tol, _reach(abs(y0), [1.0]))
    f_comp = _composition(outer, inner, sys_)
    traces = list(inner_verdict.traces) + [gtrace]

    def direct(w: SpacePoint):
        """Quotients of the composition itself at x along w, kept in the traces."""
        check = one_sided_derivatives(f_comp, x, w, grid, tol)
        traces.append(check)
        return check

    def settles_at(check, value: float) -> bool:
        return all(
            d is not None and abs(d - value) <= tol * max(1.0, abs(value))
            for d in (check.d_plus, check.d_minus)
        )

    if inner_verdict.status is VerdictStatus.INCONCLUSIVE:
        return _verdict(traces, VerdictStatus.INCONCLUSIVE, f"inner factor inconclusive: {inner_verdict.detail}")

    if inner_verdict.status is VerdictStatus.NOT_GATEAUX:
        # The chain rule decides nothing when the inner factor fails, but
        # the composition itself can still be interrogated directly along
        # the inherited witness; only a converged two-sided disagreement
        # of those quotients justifies NOT_GATEAUX.
        w = inner_verdict.failure_witness
        if direct(w).split(tol):
            return _verdict(
                traces, VerdictStatus.NOT_GATEAUX,
                "inner failure propagates through the outer map",
                failure_witness=w,
            )
        return _verdict(
            traces, VerdictStatus.INCONCLUSIVE,
            "inner factor fails but its witness does not carry to the "
            "composition (the outer map may flatten or fold the failure)",
        )

    if gtrace.d_plus is None or gtrace.d_minus is None:
        return _verdict(
            traces, VerdictStatus.INCONCLUSIVE, gtrace.unsettled("the outer map's unit step at the inner value")
        )

    # inner GATEAUX
    rep_in = inner_verdict.derivative
    v = apply_rep(rep_in, sys_.project(inner.base_dim, h))
    if gtrace.split(tol):
        if rep_in.kind is RepKind.ZERO:
            if settles_at(direct(h), 0.0):
                return _verdict(traces, VerdictStatus.GATEAUX, derivative=zero_rep(), value=0.0)
            return _verdict(
                traces, VerdictStatus.INCONCLUSIVE,
                "outer kink under a zero inner derivative did not verify flat",
            )
        witness = h if abs(v) > tol else _pick_sloped_direction(rep_in, x)
        if direct(witness).split(tol):
            return _verdict(
                traces, VerdictStatus.NOT_GATEAUX,
                "outer map kinks exactly at the inner value",
                failure_witness=witness,
            )
        return _verdict(traces, VerdictStatus.INCONCLUSIVE, "outer kink did not verify against the composition")

    g_prime = gtrace.d_plus
    value = g_prime * v
    if not settles_at(direct(h), value):
        return _verdict(
            traces, VerdictStatus.INCONCLUSIVE,
            "chain-rule value disagrees with direct quotients of the composition",
            value=value,
        )
    return _verdict(traces, VerdictStatus.GATEAUX, derivative=_scale_rep(rep_in, g_prime, tol), value=value)


def _pick_sloped_direction(rep: LinearFunctionalRep, x: SpacePoint) -> SpacePoint:
    """The coordinate direction where a SIGNED_INDEX or COEFF_SEQ
    representation is largest in absolute value."""
    k = rep.p - 1 if rep.kind is RepKind.SIGNED_INDEX else int(np.abs(rep.coeffs).argmax())
    return _fit_point(x, k)
