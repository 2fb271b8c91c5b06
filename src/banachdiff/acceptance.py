"""Desk-scale acceptance suite: exact-value and property checks.

Eleven numbered criteria exercise the library end to end: closed-form
derivative agreement against the oracles, bitwise-zero first-order
remainders, exact witness quotients, the weighted-series failure at the
origin, density and openness of the differentiability sets, Monte Carlo
measure of the near-tie sets against quadrature, the summability check
for the default Gaussian law, chain-rule propagation, projective
consistency, and Lipschitz estimates.

Every criterion is deterministic given its seed and returns a
CriterionResult; ``run_all`` executes them in order.  Fixtures are drawn
on a dyadic coordinate lattice (multiples of 2**-6) so that every linear
combination, norm, and difference quotient the suite takes is exact
float arithmetic — the "exactly 0.0" and "bitwise" claims below are
meant literally, not up to rounding.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._rng import philox_gen
from .diffengine import (
    TGrid,
    VerdictStatus,
    frechet_verdict,
    gateaux_verdict,
    local_lipschitz_estimate,
    norm_functional,
    one_sided_derivatives,
)
from .gaussmeasure import (
    b2_tie_probability_oracle,
    default_spec,
    estimate_nondiff_measures,
    standard_normal_spec,
    vakhania_check,
)
from .oracles import (
    apply_rep,
    oracle_csup,
    oracle_l1,
    oracle_linf,
    oracle_Linf,
    witness_linf,
    witness_Linf,
    witness_nbv,
)
from .projective import (
    OUTER_MAPS,
    compose_propagate,
    cyl_eval,
    cyl_gateaux,
    make_cylinder,
    make_truncation_system,
    wseries_functional,
)
from .spaces import (
    Space,
    SpacePoint,
    eval_norm,
    linear_combine,
    pw_from_values,
    pw_point,
    seq_point,
    subtract,
)
from .topology import ball_check_linf, classify, densify_csup, densify_l1, densify_linf

__all__ = [
    "CriterionResult",
    "run_all",
    "BASE_SEED",
] + [f"criterion_{k}" for k in range(1, 12)]

BASE_SEED = 20240817

# Dyadic fixture lattice.  Coordinates and knot values live on multiples
# of 2**-6 within single-digit ranges, so sums, scalings by the
# power-of-two step sizes below, and norm evaluations all stay exact.
_GRID = 2.0**-6

# Step grid for lattice fixtures: t0 = 2**-4 down to 2**-12.  The last
# two steps clear every sign-flip and argmax-migration threshold the
# samplers can produce (worked out against slope bounds in the tests),
# so converged quotients equal the true one-sided limits exactly.
GRID_EXACT = TGrid(t0=2.0**-4, rho=0.5, count=9)

# Deep grid for smooth scalar outers, where quotients converge at rate
# O(t) with curvature constants up to ~10.
GRID_SMOOTH = TGrid(t0=2.0**-7, rho=0.5, count=20)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{mark}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed_seconds": round(self.elapsed, 3),
        }


# ---------------------------------------------------------------------------
# lattice samplers


def _lattice(rng, lo: float, hi: float, size: int) -> np.ndarray:
    lo_i, hi_i = round(lo / _GRID), round(hi / _GRID)
    return rng.integers(lo_i, hi_i, size=size, endpoint=True) * _GRID


def _lattice_nonzero(rng, size: int, hi: float = 4.0) -> np.ndarray:
    mags = rng.integers(1, round(hi / _GRID), size=size, endpoint=True) * _GRID
    return mags * rng.choice([-1.0, 1.0], size=size)


def _seq_direction(rng, space: Space, dim: int) -> SpacePoint:
    d = _lattice(rng, -1.0, 1.0, dim)
    if not np.any(d):
        d[int(rng.integers(0, dim))] = 1.0
    return seq_point(space, d)


def _dominant_linf(rng, dim: int, gap: float = 0.25) -> tuple[SpacePoint, int]:
    c = _lattice(rng, -2.0, 2.0, dim)
    p = int(rng.integers(0, dim))
    rest = np.abs(np.delete(c, p))
    top = float(rest.max()) if rest.size else 0.0
    c[p] = float(rng.choice([-1.0, 1.0])) * (top + gap)
    return seq_point(Space.LINF_SEQ, c), p


def _tied_linf(rng, dim: int) -> SpacePoint:
    c = _lattice(rng, -2.0, 2.0, dim)
    i, j = rng.choice(dim, size=2, replace=False)
    top = float(np.abs(c).max()) + 0.25
    c[i] = float(rng.choice([-1.0, 1.0])) * top
    c[j] = float(rng.choice([-1.0, 1.0])) * top
    return seq_point(Space.LINF_SEQ, c)


def _pl_knots(rng, splits: int) -> np.ndarray:
    """Knot set on [0, 1] by repeated midpoint splitting.

    Every knot gap is a power of two (>= 2**-6), so slopes derived from
    lattice values divide exactly and piecewise evaluation at any knot
    reproduces the assigned value bitwise.  Callers split at most 5 times,
    so one of the at most 5 gaps, which sum to 1, is always wide enough.
    """
    knots = [0.0, 1.0]
    for _ in range(splits):
        wide = [i for i in range(len(knots) - 1) if knots[i + 1] - knots[i] > 2.0 * _GRID]
        i = int(wide[int(rng.integers(0, len(wide)))])
        knots.insert(i + 1, (knots[i] + knots[i + 1]) / 2.0)
    return np.asarray(knots)


def _peak_fn(rng, space: Space, gap: float = 0.25) -> tuple[SpacePoint, float, float, float]:
    """Piecewise-linear function with a strict interior peak on the lattice.

    Returns (f, rho, peak site, peak sign) with rho half the smallest
    knot spacing, small enough that the peak is the unique sup on its
    closed rho-ball complement.
    """
    knots = _pl_knots(rng, int(rng.integers(3, 6)))
    vals = _lattice(rng, -1.0, 1.0, knots.shape[0])
    j = int(rng.integers(1, knots.shape[0] - 1))
    s = float(rng.choice([-1.0, 1.0]))
    vals[j] = s * (float(np.abs(np.delete(vals, j)).max()) + gap)
    f = pw_from_values(space, knots, vals)
    rho = float(np.diff(knots).min()) / 2.0
    return f, rho, float(knots[j]), s


def _double_peak_fn(rng, space: Space = Space.LINF_R, gap: float = 0.25) -> SpacePoint:
    knots = _pl_knots(rng, int(rng.integers(3, 6)))
    m = knots.shape[0]
    vals = _lattice(rng, -1.0, 1.0, m)
    i, j = sorted(int(q) for q in rng.choice(np.arange(1, m - 1), size=2, replace=False))
    top = float(np.abs(vals).max()) + gap
    vals[i] = float(rng.choice([-1.0, 1.0])) * top
    vals[j] = float(rng.choice([-1.0, 1.0])) * top
    return pw_from_values(space, knots, vals)


def _pl_direction(rng, space: Space) -> SpacePoint:
    knots = _pl_knots(rng, int(rng.integers(2, 5)))
    vals = _lattice(rng, -1.0, 1.0, knots.shape[0])
    return pw_from_values(space, knots, vals)


def _nbv_fn(rng) -> SpacePoint:
    """Random lattice NBV element: piecewise-linear with genuine jumps."""
    knots = _pl_knots(rng, int(rng.integers(2, 5)))
    m = knots.shape[0]
    vals = _lattice(rng, -1.0, 1.0, m)
    vals[0] = 0.0
    slopes = _lattice(rng, -2.0, 2.0, m - 1)
    intercepts = vals[:-1] - slopes * knots[:-1]
    return pw_point(Space.NBV_AB, 0.0, 1.0, list(knots[1:-1]), list(slopes), list(intercepts))


# ---------------------------------------------------------------------------
# criteria


# Every criterion in definition order, as ``run_all`` runs them.
_CRITERIA: list[Callable[[int], CriterionResult]] = []


def _criterion(number: int, name: str, bound: float | None = None):
    """Declare the check ``(seed) -> (passed, detail)`` as criterion ``number``.

    The decorated function registers it for ``run_all``, times it and
    returns its ``CriterionResult``.  A check that takes ``bound`` seconds
    or more fails, with the runtime appended to its detail.
    """

    def declare(check: Callable[[int], tuple[bool, str]]) -> Callable[[int], CriterionResult]:
        @functools.wraps(check)
        def run(seed: int = BASE_SEED) -> CriterionResult:
            t_start = time.perf_counter()
            passed, detail = check(seed)
            elapsed = time.perf_counter() - t_start
            if bound is not None and elapsed >= bound:
                passed = False
                detail += f"; runtime {elapsed:.1f}s exceeded {bound:g}s target"
            return CriterionResult(number, name, passed, detail, elapsed)

        _CRITERIA.append(run)
        return run

    return declare


@_criterion(1, "closed-form agreement", bound=30.0)
def criterion_1(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Closed-form agreement: fitted derivatives match the oracles."""
    mismatches = 0
    checked = 0

    def run_case(space: Space, x: SpacePoint, oracle, probe, dirs) -> None:
        nonlocal mismatches, checked
        verdict = gateaux_verdict(norm_functional(space), x, [probe], GRID_EXACT, 1e-9)
        ok = verdict.status is VerdictStatus.GATEAUX
        if ok:
            for d in dirs:
                if abs(apply_rep(verdict.derivative, d) - apply_rep(oracle, d)) > 1e-9:
                    ok = False
                    break
        if not ok:
            mismatches += 1
        checked += 1

    rng = philox_gen(seed, 1)
    for _ in range(1000):
        x = seq_point(Space.L1_SEQ, _lattice_nonzero(rng, 8))
        rep = oracle_l1(x)
        run_case(Space.L1_SEQ, x, rep, _seq_direction(rng, Space.L1_SEQ, 8),
                 [_seq_direction(rng, Space.L1_SEQ, 8) for _ in range(20)])
    for _ in range(1000):
        x, _p = _dominant_linf(rng, 8)
        rep = oracle_linf(x, 2.0**-4)
        run_case(Space.LINF_SEQ, x, rep, _seq_direction(rng, Space.LINF_SEQ, 8),
                 [_seq_direction(rng, Space.LINF_SEQ, 8) for _ in range(20)])
    for _ in range(1000):
        f, rho, _site, _sign = _peak_fn(rng, Space.C_AB)
        rep = oracle_csup(f, rho)
        run_case(Space.C_AB, f, rep, _pl_direction(rng, Space.C_AB),
                 [_pl_direction(rng, Space.C_AB) for _ in range(20)])
    for _ in range(1000):
        f, rho, _site, _sign = _peak_fn(rng, Space.LINF_R)
        rep = oracle_Linf(f, rho)
        run_case(Space.LINF_R, f, rep, _pl_direction(rng, Space.LINF_R),
                 [_pl_direction(rng, Space.LINF_R) for _ in range(20)])
    # spot-check a larger sequence dimension
    for _ in range(25):
        x = seq_point(Space.L1_SEQ, _lattice_nonzero(rng, 64))
        run_case(Space.L1_SEQ, x, oracle_l1(x), _seq_direction(rng, Space.L1_SEQ, 64),
                 [_seq_direction(rng, Space.L1_SEQ, 64) for _ in range(20)])
    for _ in range(25):
        x, _p = _dominant_linf(rng, 64)
        run_case(Space.LINF_SEQ, x, oracle_linf(x, 2.0**-4),
                 _seq_direction(rng, Space.LINF_SEQ, 64),
                 [_seq_direction(rng, Space.LINF_SEQ, 64) for _ in range(20)])

    return mismatches == 0, f"{checked} certified points, {mismatches} oracle mismatches"


@_criterion(2, "first-order exactness")
def criterion_2(seed: int = BASE_SEED) -> tuple[bool, str]:
    """First-order remainder is bitwise zero inside the dominance gap."""
    rng = philox_gen(seed, 2)
    norm = norm_functional(Space.LINF_SEQ)
    bad = 0
    checked = 0
    for i in range(200):
        gap = float(rng.choice([2.0**-4, 2.0**-3, 2.0**-2]))
        x, _p = _dominant_linf(rng, 8, gap=gap)
        rep = oracle_linf(x, gap / 2.0)
        fx = norm(x)
        for _ in range(10):
            u = _lattice(rng, -1.0, 1.0, 8)
            u[int(rng.integers(0, 8))] = float(rng.choice([-1.0, 1.0]))
            h = seq_point(Space.LINF_SEQ, (gap / 4.0) * u)  # norm = gap/4 < gap/2
            remainder = norm(linear_combine(1.0, x, 1.0, h)) - fx - apply_rep(rep, h)
            checked += 1
            if remainder != 0.0:
                bad += 1
        if i < 20:
            unit = np.zeros(8)
            unit[int(rng.integers(0, 8))] = 1.0
            samples = [seq_point(Space.LINF_SEQ, unit), seq_point(Space.LINF_SEQ, -unit)]
            v = frechet_verdict(norm, x, rep, samples, [gap / 4.0, gap / 8.0, gap / 16.0])
            checked += 1
            if v.status is not VerdictStatus.FRECHET or any(r != 0.0 for _s, r in v.remainder_profile):
                bad += 1
    return bad == 0, f"{checked} remainders, {bad} nonzero"


@_criterion(3, "witness exactness")
def criterion_3(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Witness directions give one-sided quotients exactly +1 / -1."""
    rng = philox_gen(seed, 3)
    bad = 0
    checked = 0

    def check(space: Space, x: SpacePoint, w: SpacePoint) -> None:
        nonlocal bad, checked
        tr = one_sided_derivatives(norm_functional(space), x, w, GRID_EXACT, 1e-9)
        checked += 1
        if not (tr.d_plus == 1.0 and tr.d_minus == -1.0):
            bad += 1

    for _ in range(100):
        x = _tied_linf(rng, 8)
        check(Space.LINF_SEQ, x, witness_linf(x))
    for _ in range(100):
        f = _double_peak_fn(rng)
        check(Space.LINF_R, f, witness_Linf(f))
    for i in range(100):
        if i % 10 == 0:
            f = pw_point(Space.NBV_AB, 0.0, 1.0, [], [0.0], [0.0])  # constant case
        else:
            f = _nbv_fn(rng)
        check(Space.NBV_AB, f, witness_nbv(f))
    return bad == 0, f"{checked} witnesses, {bad} with inexact quotients"


@_criterion(4, "weighted-series failure at 0")
def criterion_4(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Weighted series at the origin: one-sided limits are the partial sum."""
    f = wseries_functional()
    bad = []
    for n in (10, 64):
        s_n = 0.0
        for k in range(1, n + 1):
            s_n += 1.0 / (k * k)
        x0 = seq_point(Space.LINF_SEQ, np.zeros(n))
        ones = seq_point(Space.LINF_SEQ, np.ones(n))
        tr = one_sided_derivatives(f, x0, ones, GRID_EXACT, 1e-9)
        if tr.d_plus is None or abs(tr.d_plus - s_n) > 1e-12:
            bad.append(f"n={n} d_plus {tr.d_plus} != {s_n}")
        if tr.d_minus is None or abs(-tr.d_minus - s_n) > 1e-12:
            bad.append(f"n={n} d_minus {tr.d_minus} != -{s_n}")
        verdict = gateaux_verdict(f, x0, [ones], GRID_EXACT, 1e-9)
        if verdict.status is not VerdictStatus.NOT_GATEAUX:
            bad.append(f"n={n} origin verdict {verdict.status.value}")
    return not bad, (
        "; ".join(bad) if bad else "n=10,64: d_plus = -d_minus = partial sum, origin NOT_GATEAUX"
    )


@_criterion(5, "density of repaired points")
def criterion_5(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Density: repaired points certify membership within distance eps."""
    rng = philox_gen(seed, 5)
    failures = 0
    checked = 0

    def verify(x: SpacePoint, y: SpacePoint, eps: float) -> None:
        nonlocal failures, checked
        checked += 1
        if not classify(y).in_B or not eval_norm(subtract(y, x)).value < eps:
            failures += 1

    for _ in range(1000):
        eps = float(rng.integers(1, 33)) * _GRID
        c = _lattice(rng, -2.0, 2.0, 8)
        zero_out = rng.random(8) < 0.3
        c[zero_out] = 0.0
        x = seq_point(Space.L1_SEQ, c)
        verify(x, densify_l1(x, eps), eps)
    for _ in range(1000):
        eps = float(rng.integers(1, 33)) * _GRID
        x = _tied_linf(rng, 8) if rng.random() < 0.5 else seq_point(Space.LINF_SEQ, _lattice(rng, -2.0, 2.0, 8))
        verify(x, densify_linf(x, eps), eps)
    for i in range(1000):
        eps = float(rng.integers(1, 33)) * _GRID
        if i % 3 == 0:
            f = _double_peak_fn(rng, Space.C_AB)
        else:
            knots = _pl_knots(rng, int(rng.integers(3, 6)))
            f = pw_from_values(Space.C_AB, knots, _lattice(rng, -1.0, 1.0, knots.shape[0]))
        verify(f, densify_csup(f, eps), eps)
    return failures == 0, f"{checked} (x, eps) pairs, {failures} failures"


@_criterion(6, "openness of the dominated set")
def criterion_6(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Openness: dominated points survive 1000 sampled perturbations."""
    rng = philox_gen(seed, 6)
    escapes = 0
    for i in range(100):
        gap = float(rng.choice([2.0**-3, 2.0**-2, 2.0**-1]))
        x, _p = _dominant_linf(rng, 8, gap=gap)
        if not ball_check_linf(x, gap / 2.0, 1000, seed + i):
            escapes += 1
    return escapes == 0, f"100 points x 1000 perturbations, {escapes} escapes"


@_criterion(7, "near-tie measure decay", bound=120.0)
def criterion_7(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Near-tie measure: monotone in delta, small at 0.001, matches quadrature.

    Two Monte-Carlo samples of 10**6 rows, one at n = 10 and one at n = 2,
    each counted against all four deltas.
    """
    deltas = (0.1, 0.05, 0.01, 0.001)
    problems = []
    spec = default_spec()
    ests = estimate_nondiff_measures(spec, 10, deltas, 10**6, seed)
    for a, b in zip(ests, ests[1:]):
        slack = 3.0 * (a.std_error + b.std_error)
        if b.fraction > a.fraction + slack:
            problems.append(f"fraction rose {a.fraction:.5f}->{b.fraction:.5f} at delta={b.delta}")
    if not ests[-1].fraction < 0.02:
        problems.append(f"fraction {ests[-1].fraction:.5f} at delta=0.001 not < 0.02")
    spec2 = standard_normal_spec(2)
    for est in estimate_nondiff_measures(spec2, 2, deltas, 10**6, seed + 1):
        want = b2_tie_probability_oracle(spec2, est.delta)
        if abs(est.fraction - want) > 3.0 * max(est.std_error, 1e-12):
            problems.append(f"n=2 delta={est.delta}: MC {est.fraction:.6f} vs oracle {want:.6f}")
    return not problems, "; ".join(problems) if problems else (
        "n=10 fractions " + ", ".join(f"{e.fraction:.6f}" for e in ests) + "; n=2 matches quadrature"
    )


@_criterion(8, "summability of the default law")
def criterion_8(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Summability of the default law: partial sum near the closed form."""
    flag, partial = vakhania_check(default_spec(), 10**4)
    reference = math.pi**2 / 6.0 - 1.0 - 0.25  # sum over k >= 3 of 1/k^2
    gap = abs(partial - reference)
    return (
        bool(flag) and gap < 1e-3,
        f"partial {partial:.10f} vs closed form {reference:.10f} (|diff| {gap:.2e}), flag {flag}",
    )


@_criterion(9, "chain-rule propagation")
def criterion_9(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Chain rule: propagated values match direct quotients; failure sets agree."""
    rng = philox_gen(seed, 9)
    sys_ = make_truncation_system((2, 3, 5, 8, 13))
    smooth = [OUTER_MAPS[n] for n in ("identity", "square", "cube_plus_u", "sin", "exp")]
    bad = 0
    for i in range(100):
        outer = smooth[i % len(smooth)]
        t_dim = (2, 3, 5, 8, 13)[i % 5]
        cf = make_cylinder("wseries_partial", t_dim)
        x = seq_point(Space.LINF_SEQ, _lattice_nonzero(rng, 13, hi=1.0))
        h = _seq_direction(rng, Space.LINF_SEQ, 13)
        v = compose_propagate(outer, cf, sys_, x, h, GRID_SMOOTH, 1e-6)
        if v.status is not VerdictStatus.GATEAUX:
            bad += 1
            continue
        t = 2.0**-26
        comp = lambda p: outer(cyl_eval(cf, sys_, p))
        central = (comp(linear_combine(1.0, x, t, h)) - comp(linear_combine(1.0, x, -t, h))) / (2.0 * t)
        if abs(v.value - central) > 1e-6 * max(1.0, abs(central)):
            bad += 1
    # failure-set equality under a strictly sloped smooth outer
    cf13 = make_cylinder("wseries_partial", 13)
    ones = seq_point(Space.LINF_SEQ, np.ones(13))
    set_mismatch = 0
    for i in range(40):
        c = _lattice_nonzero(rng, 13, hi=1.0)
        has_zero = i % 2 == 0
        if has_zero:
            idx = rng.choice(13, size=int(rng.integers(1, 4)), replace=False)
            c[idx] = 0.0
        x = seq_point(Space.LINF_SEQ, c)
        inner_v = cyl_gateaux(cf13, sys_, x, ones, GRID_SMOOTH, 1e-6)
        comp_v = compose_propagate(OUTER_MAPS["cube_plus_u"], cf13, sys_, x, ones, GRID_SMOOTH, 1e-6)
        inner_fails = inner_v.status is VerdictStatus.NOT_GATEAUX
        comp_fails = comp_v.status is VerdictStatus.NOT_GATEAUX
        if inner_fails != has_zero or comp_fails != has_zero:
            set_mismatch += 1
    return (
        bad == 0 and set_mismatch == 0,
        f"100 smooth instances, {bad} value disagreements; 40 set samples, {set_mismatch} mismatches",
    )


@_criterion(10, "projective consistency")
def criterion_10(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Projective consistency: truncations compose exactly; evaluation agrees."""
    rng = philox_gen(seed, 10)
    sys_ = make_truncation_system((2, 3, 5, 8, 13))
    dims = sys_.dims
    bad = 0
    for _ in range(1000):
        v = rng.standard_normal(13)
        for i, s in enumerate(dims):
            for j in range(i, len(dims)):
                for k in range(j, len(dims)):
                    t, w = dims[j], dims[k]
                    via = sys_.connect(s, t, sys_.connect(t, w, v[:w]))
                    if not np.array_equal(via, sys_.connect(s, w, v[:w])):
                        bad += 1
    eval_bad = 0
    for base in ("wseries_partial", "supnorm"):
        for t_dim in dims:
            cf = make_cylinder(base, t_dim)
            for _ in range(100):
                x = seq_point(Space.LINF_SEQ, rng.standard_normal(13))
                got = cyl_eval(cf, sys_, x)
                if base == "wseries_partial":
                    want = 0.0
                    for k in range(1, t_dim + 1):
                        want += abs(float(x.coords[k - 1])) / (k * k)
                else:
                    want = float(np.abs(x.coords[:t_dim]).max())
                if got != want:
                    eval_bad += 1
    return (
        bad == 0 and eval_bad == 0,
        f"1000 vectors x all triples, {bad} composition breaks; {eval_bad} evaluation mismatches",
    )


@_criterion(11, "Lipschitz estimate brackets")
def criterion_11(seed: int = BASE_SEED) -> tuple[bool, str]:
    """Lipschitz estimates sit inside the provable brackets."""
    s64 = 0.0
    for k in range(1, 65):
        s64 += 1.0 / (k * k)
    x = seq_point(Space.LINF_SEQ, np.ones(64))
    est = local_lipschitz_estimate(wseries_functional(), x, 0.5, 64, seed)
    problems = []
    if not (1.0 <= est <= s64 * (1.0 + 1e-12)):
        problems.append(f"series estimate {est!r} outside [1, {s64}]")
    for space in (Space.LINF_SEQ, Space.L1_SEQ):
        xn = seq_point(space, np.ones(64))
        est_n = local_lipschitz_estimate(norm_functional(space), xn, 0.5, 64, seed + 1)
        if not est_n <= 1.0 + 1e-12:
            problems.append(f"{space.value} norm estimate {est_n!r} > 1")
    return not problems, (
        "; ".join(problems) if problems else f"series {est:.6f} in [1, {s64:.6f}]; norms <= 1"
    )


def run_all(seed: int = BASE_SEED) -> list[CriterionResult]:
    return [fn(seed) for fn in _CRITERIA]
