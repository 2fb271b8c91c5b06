"""The three benchmark workloads: input generators, timed operations, checks.

Each workload builds a pool of operations from its seed before timing
starts and hands the program only raw arrays or argv.  ``run`` is the timed
operation.  ``summarize`` keeps the small part of an outcome the checks need,
so stored outcomes do not inflate the process's peak memory.  ``check``
runs after the timed loop and returns ``None`` or ``(failure_class,
message)``; any failure of a timed op makes the run incorrect.

Inputs that reproduce a known defect are not timed.  Each workload runs them
once while it builds its pool, outside the timed loop, and tallies them in
``defects`` (failed and tried per class), so a fix shows up as a drop there
while the timed ops stay free of failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

LATTICE = 2.0**-6

# Off the dyadic lattice the engine's answers hold only up to rounding; this
# is the stated relative tolerance for comparing a fitted representation with
# the closed-form oracle there (1000 times the engine's default tol).
OFF_LATTICE_RTOL = 1e-6

KNOWN_DEFECTS = {
    "cab_offlattice_malformed": (
        "C_AB off the dyadic lattice: pw_from_values or linear_combine raises "
        "MalformedPointError for a valid continuous interpolant"
    ),
    "offlattice_not_gateaux": (
        "off-lattice point where the norm is differentiable (L1_SEQ with every "
        "coordinate nonzero, dominant LINF_SEQ, unique-peak LINF_R) gets a "
        "non-GATEAUX verdict on the default grid"
    ),
    "cli_norm_infinity": "norm --space l1 --point [1e308, 1e308] exits 0 and emits Infinity",
    "cli_compose_exp_overflow": (
        "compose --outer exp at [1000.0, -1.0, 2.0, 0.25, 0.125] lets OverflowError "
        "escape cli.main"
    ),
    "cli_diff_far_t0": (
        "diff --space linf --point [3,1] --dir [1,0] --t0 1e300 returns NOT_GATEAUX "
        "although the sup is unique"
    ),
}

# A correct sampler lands outside 3 sigma of the quadrature in about 0.27 %
# of estimates; with a run's eight n=2 estimates, 3 of seeds 0-40 show one
# (at most 3.8 sigma).  Such estimates are counted in the measure workload's
# ``mc_outside_3sigma`` metric; an op fails only beyond FAIL_SIGMA, which a
# correct sampler crosses with probability below 1e-6.
REPORT_SIGMA = 3.0
FAIL_SIGMA = 5.0


def _tally(classes) -> dict:
    return {cls: {"what": KNOWN_DEFECTS[cls], "failed": 0, "tried": 0} for cls in classes}


def _count(defects: dict, cls: str, verdict) -> bool:
    """Tally one reproduction of ``cls``; True when it failed that way."""
    entry = defects[cls]
    entry["tried"] += 1
    if verdict is None or verdict[0] != cls:
        return False
    entry["failed"] += 1
    entry.setdefault("example", verdict[1])
    return True


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _lattice(rng, lo: float, hi: float, size: int) -> np.ndarray:
    return rng.integers(round(lo / LATTICE), round(hi / LATTICE), size=size, endpoint=True) * LATTICE


def _lattice_nonzero(rng, size: int, hi: float = 4.0) -> np.ndarray:
    mags = rng.integers(1, round(hi / LATTICE), size=size, endpoint=True) * LATTICE
    return mags * rng.choice([-1.0, 1.0], size=size)


def _lattice_dir(rng, dim: int) -> np.ndarray:
    d = _lattice(rng, -1.0, 1.0, dim)
    if not np.any(d):
        d[int(rng.integers(0, dim))] = 1.0
    return d


def _sign(rng) -> float:
    return float(rng.choice([-1.0, 1.0]))


def _midpoint_knots(rng, splits: int) -> np.ndarray:
    """Knots on [0, 1] by repeated halving: every gap is a power of two."""
    knots = [0.0, 1.0]
    for _ in range(splits):
        wide = [i for i in range(len(knots) - 1) if knots[i + 1] - knots[i] > 2.0 * LATTICE]
        i = wide[int(rng.integers(0, len(wide)))]
        knots.insert(i + 1, (knots[i] + knots[i + 1]) / 2.0)
    return np.asarray(knots)


def _uniform_knots(rng, count: int) -> np.ndarray:
    return np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, count - 2)), [1.0]))


def _with_peak(rng, knots: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Lift one interior value 0.25 above every other |value|: a unique peak."""
    j = int(rng.integers(1, knots.shape[0] - 1))
    s = _sign(rng)
    vals[j] = s * (float(np.abs(np.delete(vals, j)).max()) + 0.25)
    return float(knots[j]), s


# ---------------------------------------------------------------------------
# verdicts


class Verdicts:
    """``gateaux_verdict`` of a norm at generated points, one verdict per op.

    A deck of 200 slots fixes the mix: 120 lattice points where the norm is
    differentiable (L1_SEQ and LINF_SEQ at dim 8, C_AB, LINF_R), 54 lattice
    tie points with their witness directions (LINF_SEQ, LINF_R, NBV_AB), 6
    dim-64 sequence points and 20 off-lattice points (L1_SEQ, LINF_SEQ,
    LINF_R).  Lattice ops use the 9-step exact grid of acceptance criterion
    1, off-lattice ops the default grid and tol.

    An off-lattice slot takes the first of its candidates that does not hit
    ``offlattice_not_gateaux``; the candidates that do are tallied.  Off-lattice
    C_AB points all hit ``cab_offlattice_malformed`` at present, so they are
    only reproduced, five per deck, and never timed.
    """

    name = "verdicts"
    tail_percentile = True
    DECK = (
        [("lat_l1", 30), ("lat_linf", 30), ("lat_cab", 30), ("lat_linfr", 30)]
        + [("wit_linf", 18), ("wit_linfr", 18), ("wit_nbv", 18)]
        + [("d64_l1", 3), ("d64_linf", 3)]
        + [("off_l1", 7), ("off_linf", 7), ("off_linfr", 6)]
    )
    CAB_REPRODUCTIONS = 5  # off-lattice C_AB points per deck
    CANDIDATES = 20  # off-lattice candidates drawn at most per slot
    CHECK_DIRS = 3

    def __init__(self, bd, seed: int, tiny: bool = False, workdir: str | None = None):
        self.bd = bd
        self.grid_exact = bd.TGrid(t0=2.0**-4, rho=0.5, count=9)
        self.defects = _tally(("cab_offlattice_malformed", "offlattice_not_gateaux"))
        rng = _rng(seed, 1)
        spare = _rng(seed, 4)  # off-lattice candidates, so a rejected one shifts no other op
        kinds = [k for k, n in self.DECK for _ in range(1 if tiny else n)]
        decks = 1 if tiny else 2
        self.pool = []
        for _ in range(decks):
            order = rng.permutation(len(kinds))
            for i in order:
                kind = kinds[i]
                self.pool.append(self._off_lattice(spare, kind) if kind.startswith("off_") else self._make(rng, kind))
            for _ in range(1 if tiny else self.CAB_REPRODUCTIONS):
                self._reproduce(self._make(spare, "off_cab"), "cab_offlattice_malformed")

    def _reproduce(self, op, cls: str) -> bool:
        """Run and check ``op`` once, untimed; True when it hit defect ``cls``."""
        try:
            outcome, exc = self.summarize(None, self.run(op)), None
        except Exception as err:  # the check below classifies it
            outcome, exc = None, (type(err).__name__, str(err))
        try:
            verdict = self._check(op, outcome, exc)
        except Exception:  # the op stays in the pool, whose checks report this
            verdict = None
        return _count(self.defects, cls, verdict)

    def _off_lattice(self, rng, kind: str) -> dict:
        for _ in range(self.CANDIDATES):
            op = self._make(rng, kind)
            if not self._reproduce(op, "offlattice_not_gateaux"):
                return op
        return op  # never expected: it stays in the pool and fails there

    # -- generation --------------------------------------------------------

    def _make(self, rng, kind: str) -> dict:
        S = self.bd.Space
        op = {"kind": kind, "lattice": not kind.startswith("off_"), "witness": kind.startswith("wit_")}
        if kind in ("lat_l1", "d64_l1"):
            dim = 64 if kind == "d64_l1" else 8
            op.update(space=S.L1_SEQ, x=("seq", _lattice_nonzero(rng, dim)), h=("seq", _lattice_dir(rng, dim)))
        elif kind in ("lat_linf", "d64_linf"):
            dim = 64 if kind == "d64_linf" else 8
            c = _lattice(rng, -2.0, 2.0, dim)
            p = int(rng.integers(0, dim))
            c[p] = _sign(rng) * (float(np.abs(np.delete(c, p)).max()) + 0.25)
            op.update(space=S.LINF_SEQ, x=("seq", c), h=("seq", _lattice_dir(rng, dim)))
        elif kind in ("lat_cab", "lat_linfr"):
            knots = _midpoint_knots(rng, int(rng.integers(3, 6)))
            vals = _lattice(rng, -1.0, 1.0, knots.shape[0])
            op["peak"] = _with_peak(rng, knots, vals)
            op["rho"] = float(np.diff(knots).min()) / 2.0
            dk = _midpoint_knots(rng, int(rng.integers(2, 5)))
            op.update(
                space=S.C_AB if kind == "lat_cab" else S.LINF_R,
                x=("values", knots, vals),
                h=("values", dk, _lattice(rng, -1.0, 1.0, dk.shape[0])),
            )
        elif kind == "wit_linf":
            c = _lattice(rng, -2.0, 2.0, 8)
            i, j = (int(q) for q in rng.choice(8, size=2, replace=False))
            top = float(np.abs(c).max()) + 0.25
            c[i], c[j] = _sign(rng) * top, _sign(rng) * top
            h = np.zeros(8)
            h[i], h[j] = np.sign(c[i]), -np.sign(c[j])  # push one peak out, the other in
            op.update(space=S.LINF_SEQ, x=("seq", c), h=("seq", h))
        elif kind == "wit_linfr":
            knots = _midpoint_knots(rng, int(rng.integers(3, 6)))
            m = knots.shape[0]
            vals = _lattice(rng, -1.0, 1.0, m)
            i, j = sorted(int(q) for q in rng.choice(np.arange(1, m - 1), size=2, replace=False))
            top = float(np.abs(vals).max()) + 0.25
            vals[i], vals[j] = _sign(rng) * top, _sign(rng) * top
            split = knots[i] + (knots[j] - knots[i]) / 2.0
            step = ("segments", 0.0, 1.0, [split], [0.0, 0.0], [np.sign(vals[i]), -np.sign(vals[j])])
            op.update(space=S.LINF_R, x=("values", knots, vals), h=step)
        elif kind == "wit_nbv":
            knots = _midpoint_knots(rng, int(rng.integers(2, 5)))
            m = knots.shape[0]
            vals = _lattice(rng, -1.0, 1.0, m)
            vals[0] = 0.0
            slopes = _lattice(rng, -2.0, 2.0, m - 1)
            intercepts = vals[:-1] - slopes * knots[:-1]
            i = int(rng.integers(0, m - 1))
            mid = knots[i] + (knots[i + 1] - knots[i]) / 2.0  # inside a segment: no jump there
            op.update(
                space=S.NBV_AB,
                x=("segments", 0.0, 1.0, knots[1:-1], slopes, intercepts),
                h=("segments", 0.0, 1.0, [mid], [0.0, 0.0], [0.0, 1.0]),
            )
        elif kind in ("off_l1", "off_linf"):
            if kind == "off_l1":
                c = rng.uniform(-4.0, 4.0, 8)
                space = S.L1_SEQ
            else:
                c = rng.uniform(-2.0, 2.0, 8)
                p = int(rng.integers(0, 8))
                c[p] = _sign(rng) * (float(np.abs(np.delete(c, p)).max()) + 0.25)
                space = S.LINF_SEQ
            op.update(space=space, x=("seq", c), h=("seq", rng.uniform(-1.0, 1.0, 8)))
        elif kind in ("off_cab", "off_linfr"):
            knots = _uniform_knots(rng, int(rng.integers(5, 9)))
            vals = rng.uniform(-1.0, 1.0, knots.shape[0])
            op["peak"] = _with_peak(rng, knots, vals)
            op["rho"] = float(np.diff(knots).min()) / 2.0
            dk = _uniform_knots(rng, int(rng.integers(4, 7)))
            op.update(
                space=S.C_AB if kind == "off_cab" else S.LINF_R,
                x=("values", knots, vals),
                h=("values", dk, rng.uniform(-1.0, 1.0, dk.shape[0])),
            )
        else:
            raise ValueError(kind)
        if not op["witness"]:
            if op["space"] in (S.L1_SEQ, S.LINF_SEQ):
                dim = op["x"][1].shape[0]
                op["check_dirs"] = [("seq", _lattice_dir(rng, dim)) for _ in range(self.CHECK_DIRS)]
            else:
                op["check_dirs"] = []
                for _ in range(self.CHECK_DIRS):
                    dk = _midpoint_knots(rng, int(rng.integers(2, 5)))
                    op["check_dirs"].append(("values", dk, _lattice(rng, -1.0, 1.0, dk.shape[0])))
        return op

    # -- the timed operation -----------------------------------------------

    def _build(self, space, raw):
        bd = self.bd
        if raw[0] == "seq":
            return bd.seq_point(space, raw[1])
        if raw[0] == "values":
            return bd.pw_from_values(space, raw[1], raw[2])
        return bd.pw_point(space, *raw[1:])

    def run(self, op):
        bd = self.bd
        x = self._build(op["space"], op["x"])
        h = self._build(op["space"], op["h"])
        if op["lattice"]:
            return bd.gateaux_verdict(bd.norm_functional(op["space"]), x, [h], self.grid_exact, 1e-9)
        return bd.gateaux_verdict(bd.norm_functional(op["space"]), x, [h])

    def summarize(self, idx, verdict):
        tr = verdict.traces[0]
        return verdict.status.value, verdict.derivative, tr.d_plus, tr.d_minus

    # -- checks --------------------------------------------------------------

    def _reference(self, op: dict):
        """(check directions, oracle values on them) for ``op``, cached in it."""
        if "ref" in op:
            return op["ref"]
        bd = self.bd
        S = bd.Space
        x = self._build(op["space"], op["x"])
        if op["space"] is S.L1_SEQ:
            rep = bd.oracle_l1(x)
        elif op["space"] is S.LINF_SEQ:
            rep = bd.oracle_linf(x, 2.0**-4)
        elif op["space"] is S.C_AB:
            rep = bd.oracle_csup(x, op["rho"])
        else:
            try:
                rep = bd.oracle_Linf(x, op["rho"])
            except bd.errors.PreconditionFailedError:
                # Off the lattice the interpolant can carry sub-ulp jumps the
                # oracle refuses; the generated peak gives the same functional.
                t0, s = op["peak"]
                rep = bd.LinearFunctionalRep(bd.RepKind.POINT_MASS, t0=t0, sigma=s)
        if rep is None:
            raise AssertionError(f"oracle finds no derivative at a generated {op['kind']} point")
        dirs = [self._build(op["space"], d) for d in op["check_dirs"]]
        op["ref"] = (dirs, [bd.apply_rep(rep, d) for d in dirs])
        return op["ref"]

    def check(self, idx, outcome, exc):
        return self._check(self.pool[idx], outcome, exc)

    def _check(self, op, outcome, exc):
        if exc is not None:
            if op["kind"] == "off_cab" and exc[0] == "MalformedPointError":
                return "cab_offlattice_malformed", exc[1]
            return "unexpected", f"{op['kind']}: {exc[0]}: {exc[1]}"
        status, rep, d_plus, d_minus = outcome
        if op["witness"]:
            if status == "NOT_GATEAUX" and d_plus == 1.0 and d_minus == -1.0:
                return None
            return "unexpected", f"{op['kind']}: {status} with d+={d_plus}, d-={d_minus}"
        if status != "GATEAUX":
            cls = "unexpected" if op["lattice"] else "offlattice_not_gateaux"
            return cls, f"{op['kind']}: {status}"
        dirs, want = self._reference(op)
        for d, w in zip(dirs, want):
            got = self.bd.apply_rep(rep, d)
            if op["lattice"]:
                bad = got != w
            else:
                bad = abs(got - w) > OFF_LATTICE_RTOL * max(1.0, abs(w))
            if bad:
                return "unexpected", f"{op['kind']}: representation gives {got}, oracle {w}"
        return None

    def extra_metrics(self, outcomes, ok_flags, wall):
        inconclusive = sum(1 for _i, o, e in outcomes if e is None and o[0] == "INCONCLUSIVE")
        return {"inconclusive_ratio": inconclusive / len(outcomes)}


# ---------------------------------------------------------------------------
# measure


class Measure:
    """One ``estimate_nondiff_measure`` answer per op, interleaved over n.

    Every (n, seed) group answers the four deltas on the same samples.  Row
    counts are chosen so each n takes a similar share of the run; n=2 ops
    also run the quadrature oracle they are checked against.
    """

    name = "measure"
    tail_percentile = False  # a few dozen ops per run: too few for a p99
    DELTAS = (0.1, 0.05, 0.01, 0.001)
    ROWS = {2: 16 * 2**16, 10: 6 * 2**16, 64: 2**16}  # about 0.25 s each here
    GROUPS = 2

    def __init__(self, bd, seed: int, tiny: bool = False, workdir: str | None = None):
        self.bd = bd
        self.defects: dict = {}
        rng = _rng(seed, 2)
        groups = 1 if tiny else self.GROUPS
        self.specs = {2: bd.standard_normal_spec(2), 10: bd.default_spec(), 64: bd.default_spec()}
        self.pool = []
        seeds = {n: [int(s) for s in rng.integers(0, 2**31, size=groups)] for n in self.ROWS}
        for g in range(groups):
            for delta in self.DELTAS[:1] if tiny else self.DELTAS:
                for n, rows in self.ROWS.items():
                    self.pool.append(
                        {"n": n, "delta": delta, "count": 2**16 if tiny else rows, "seed": seeds[n][g]}
                    )
        self._first: dict[int, tuple] = {}

    def run(self, op):
        bd = self.bd
        spec = self.specs[op["n"]]
        est = bd.estimate_nondiff_measure(spec, op["n"], op["delta"], op["count"], op["seed"])
        oracle = bd.b2_tie_probability_oracle(spec, op["delta"]) if op["n"] == 2 else None
        return est, oracle

    def summarize(self, idx, result):
        est, oracle = result
        return est.fraction, est.std_error, oracle

    def check(self, idx, outcome, exc):
        op = self.pool[idx]
        if exc is not None:
            return "unexpected", f"n={op['n']}: {exc[0]}: {exc[1]}"
        frac, se, oracle = outcome
        first = self._first.setdefault(idx, outcome)
        if first[0] != frac:
            return "unexpected", f"n={op['n']} delta={op['delta']}: repeat gave {frac}, first {first[0]}"
        for j, other in enumerate(self.pool):
            # fractions must not rise as delta shrinks, within 3-sigma slack
            if j in self._first and other["n"] == op["n"] and other["seed"] == op["seed"]:
                narrow, wide = (outcome, self._first[j]) if op["delta"] < other["delta"] else (self._first[j], outcome)
                if narrow[0] > wide[0] + 3.0 * (narrow[1] + wide[1]):
                    return "unexpected", f"n={op['n']}: fraction rises as delta shrinks"
        if oracle is not None and abs(frac - oracle) > FAIL_SIGMA * max(se, 1e-12):
            return "unexpected", f"delta={op['delta']}: MC {frac} vs quadrature {oracle}"
        return None

    def extra_metrics(self, outcomes, ok_flags, wall):
        rows = sum(self.pool[idx]["count"] for (idx, _o, _e), ok in zip(outcomes, ok_flags) if ok)
        outside = {idx for idx, o, e in outcomes
                   if e is None and o[2] is not None and abs(o[0] - o[2]) > REPORT_SIGMA * max(o[1], 1e-12)}
        return {"rows_per_s": rows / wall, "mc_outside_3sigma": len(outside)}


# ---------------------------------------------------------------------------
# cli


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    return json.loads(text, parse_constant=reject)


def _jarr(values) -> str:
    return json.dumps([float(v) for v in values])


README_EXAMPLES = [
    ["norm", "--space", "l1", "--point", "[1.0, -2.0, 0.5]"],
    ["diff", "--space", "linf", "--point", "[3, 1, 0.5]", "--dir", "[1, 0, 0]"],
    ["classify", "--space", "linf", "--point", "[3.0, 1.0, 0.5]"],
    ["witness", "--space", "linf", "--point", "[2.0, -2.0, 1.0]"],
    ["densify", "--space", "linf", "--point", "[1.0, 0.0125, 0.5]", "--eps", "0.25"],
    ["measure", "--n", "2", "--delta", "0.01", "--count", "20000", "--seed", "7", "--law", "std"],
    ["vakhania", "--N", "1000"],
    ["cyl", "--base", "wseries_partial", "--t", "3", "--space", "linf",
     "--point", "[1.0, -1.0, 2.0, 0.25, 0.125]", "--dir", "[1, 1, 1, 0, 0]"],
    ["compose", "--outer", "square", "--base", "wseries_partial", "--t", "3",
     "--space", "linf", "--point", "[1.0, -1.0, 2.0, 0.25, 0.125]",
     "--dir", "[1, 1, 1, 0, 0]", "--t0", "0.0078125", "--count-steps", "20", "--tol", "1e-6"],
]

DEFECT_REQUESTS = [
    (["norm", "--space", "l1", "--point", "[1e308, 1e308]"], {"code": 3}, "cli_norm_infinity"),
    (["compose", "--outer", "exp", "--base", "wseries_partial", "--t", "3", "--space", "linf",
      "--point", "[1000.0, -1.0, 2.0, 0.25, 0.125]", "--dir", "[1, 1, 1, 0, 0]"],
     {"code": 3}, "cli_compose_exp_overflow"),
    (["diff", "--space", "linf", "--point", "[3,1]", "--dir", "[1,0]", "--t0", "1e300"],
     {"code": 0, "status": ("GATEAUX", "INCONCLUSIVE")}, "cli_diff_far_t0"),
]


class Cli:
    """One in-process ``cli.main(argv)`` call per op, stdout captured.

    The request pool holds every README example except ``suite`` (a full
    acceptance run takes longer than a benchmark run), seed-generated
    sequence requests, function-space requests through ``--file`` documents
    written to ``workdir``, and expected validation errors.  The three CLI
    reproductions of known defects run once each while the pool is built.
    """

    name = "cli"
    tail_percentile = True
    SEQ_REQUESTS = 60
    SMOOTH_OUTERS = ("identity", "square", "cube_plus_u", "sin", "exp")

    def __init__(self, bd, seed: int, tiny: bool = False, workdir: str | None = None):
        from banachdiff import cli

        self.bd = bd
        self.cli = cli
        self.workdir = workdir
        rng = _rng(seed, 3)
        pool = [(argv, {"code": 0}, None) for argv in README_EXAMPLES]
        seq = [self._seq_request(rng, i) for i in range(12 if tiny else self.SEQ_REQUESTS)]
        files = self._file_requests(rng, 1 if tiny else 3)
        pool += seq + files + self._error_requests()
        order = rng.permutation(len(pool))
        self.pool = [pool[i] for i in order]
        self._first: dict[int, str] = {}
        self.defects = _tally(defect for _argv, _expect, defect in DEFECT_REQUESTS)
        for req in DEFECT_REQUESTS:
            try:
                code, text = self.run(req)
                verdict = self._check(req, code, text)
            except Exception as err:  # an escaping exception is the failure
                verdict = req[2], f"{' '.join(req[0][:5])}: {type(err).__name__}: {err}"
            _count(self.defects, req[2], verdict)

    def _write(self, name: str, point) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.bd.point_to_json(point))
        return path

    def _seq_request(self, rng, i: int):
        """Request ``i``: its kind, size and options cycle with ``i``, so a
        seed changes the values sent but not the mix of work."""
        kind, turn = i % 12, i // 12
        dim = 3 + (turn + kind) % 6
        if kind == 0:
            c = _lattice(rng, -4.0, 4.0, dim)
            return ["norm", "--space", "l1", "--point", _jarr(c)], {"code": 0, "norm": float(np.abs(c).sum())}, None
        if kind == 1:
            c = _lattice(rng, -4.0, 4.0, dim)
            return ["norm", "--space", "linf", "--point", _jarr(c)], {"code": 0, "norm": float(np.abs(c).max())}, None
        if kind == 2:
            argv = ["diff", "--space", "l1", "--point", _jarr(_lattice_nonzero(rng, dim)),
                    "--dir", _jarr(_lattice_dir(rng, dim))]
            return argv, {"code": 0, "status": ("GATEAUX",)}, None
        if kind == 3:
            c = _lattice(rng, -2.0, 2.0, dim)
            p = int(rng.integers(0, dim))
            c[p] = _sign(rng) * (float(np.abs(np.delete(c, p)).max()) + 0.25)
            argv = ["diff", "--space", "linf", "--point", _jarr(c), "--dir", _jarr(_lattice_dir(rng, dim))]
            return argv, {"code": 0, "status": ("GATEAUX",)}, None
        if kind == 4:
            c = _lattice(rng, -2.0, 2.0, dim)
            i_, j_ = (int(q) for q in rng.choice(dim, size=2, replace=False))
            top = float(np.abs(c).max()) + 0.25
            c[i_], c[j_] = _sign(rng) * top, _sign(rng) * top
            h = np.zeros(dim)
            h[i_], h[j_] = np.sign(c[i_]), -np.sign(c[j_])
            argv = ["diff", "--space", "linf", "--point", _jarr(c), "--dir", _jarr(h)]
            return argv, {"code": 0, "status": ("NOT_GATEAUX",)}, None
        if kind == 5:
            return ["classify", "--space", "linf", "--point", _jarr(_lattice(rng, -2.0, 2.0, dim)),
                    "--eps", "0.0625"], {"code": 0}, None
        if kind == 6:
            c = _lattice(rng, -2.0, 2.0, dim)
            i_, j_ = (int(q) for q in rng.choice(dim, size=2, replace=False))
            top = float(np.abs(c).max()) + 0.25
            c[i_], c[j_] = _sign(rng) * top, _sign(rng) * top
            return ["witness", "--space", "linf", "--point", _jarr(c)], {"code": 0}, None
        if kind == 7:
            c = _lattice(rng, -1.0, 1.0, dim)
            c[int(rng.integers(0, dim))] = 0.0
            return ["densify", "--space", "l1", "--point", _jarr(c), "--eps", "0.25"], {"code": 0}, None
        if kind == 8:
            return ["densify", "--space", "linf", "--point", _jarr(_lattice(rng, -2.0, 2.0, dim)),
                    "--eps", "0.25"], {"code": 0}, None
        t = (2, 3, 5, 8, 13)[turn % 5]
        if kind == 9:
            argv = ["cyl", "--base", "wseries_partial", "--t", str(t), "--space", "linf",
                    "--point", _jarr(_lattice_nonzero(rng, 13, hi=1.0)), "--dir", _jarr(_lattice_dir(rng, 13))]
            return argv, {"code": 0}, None
        if kind == 10:
            outer = self.SMOOTH_OUTERS[(turn + 2) % len(self.SMOOTH_OUTERS)]
            argv = ["compose", "--outer", outer, "--base", "wseries_partial", "--t", str(t),
                    "--space", "linf", "--point", _jarr(_lattice_nonzero(rng, 13, hi=1.0)),
                    "--dir", _jarr(_lattice_dir(rng, 13)),
                    "--t0", "0.0078125", "--count-steps", "20", "--tol", "1e-6"]
            return argv, {"code": 0, "status": ("GATEAUX",)}, None
        n = (2, 10)[turn % 2]
        argv = ["measure", "--n", str(n), "--delta", str((0.1, 0.01)[turn // 2 % 2]),
                "--count", "20000", "--seed", str(int(rng.integers(0, 2**31))),
                "--law", "std" if n == 2 else "inv_log"]
        return argv, {"code": 0}, None

    def _file_requests(self, rng, rounds: int):
        bd = self.bd
        S = bd.Space
        out = []
        for i in range(rounds):
            for space, tag in ((S.C_AB, "c_ab"), (S.LINF_R, "linf_r")):
                knots = _midpoint_knots(rng, int(rng.integers(3, 6)))
                vals = _lattice(rng, -1.0, 1.0, knots.shape[0])
                _with_peak(rng, knots, vals)
                dk = _midpoint_knots(rng, int(rng.integers(2, 5)))
                fx = self._write(f"{tag}-peak-{i}.json", bd.pw_from_values(space, knots, vals))
                fh = self._write(f"{tag}-dir-{i}.json", bd.pw_from_values(space, dk, _lattice(rng, -1.0, 1.0, dk.shape[0])))
                out.append((["diff", "--space", tag, "--file", fx, "--dir-file", fh],
                            {"code": 0, "status": ("GATEAUX",)}, None))
            # two equal peaks: a witness for LINF_R, densify and classify for C_AB
            knots = _midpoint_knots(rng, int(rng.integers(3, 6)))
            m = knots.shape[0]
            vals = _lattice(rng, -1.0, 1.0, m)
            a, b = (int(q) for q in rng.choice(np.arange(1, m - 1), size=2, replace=False))
            top = float(np.abs(vals).max()) + 0.25
            vals[a], vals[b] = _sign(rng) * top, _sign(rng) * top
            fr = self._write(f"linf_r-twin-{i}.json", bd.pw_from_values(S.LINF_R, knots, vals))
            fc = self._write(f"c_ab-twin-{i}.json", bd.pw_from_values(S.C_AB, knots, vals))
            out.append((["witness", "--file", fr], {"code": 0}, None))
            out.append((["densify", "--file", fc, "--eps", "0.25"], {"code": 0}, None))
            out.append((["classify", "--file", fc], {"code": 0}, None))
            # NBV: norm and witness
            knots = _midpoint_knots(rng, int(rng.integers(2, 5)))
            m = knots.shape[0]
            vals = _lattice(rng, -1.0, 1.0, m)
            vals[0] = 0.0
            slopes = _lattice(rng, -2.0, 2.0, m - 1)
            nbv = bd.pw_point(S.NBV_AB, 0.0, 1.0, knots[1:-1], slopes, vals[:-1] - slopes * knots[:-1])
            fn = self._write(f"nbv-{i}.json", nbv)
            out.append((["witness", "--file", fn], {"code": 0}, None))
            out.append((["norm", "--file", fn], {"code": 0}, None))
        self._nbv_file, self._cab_file = fn, fc
        return out

    def _error_requests(self):
        return [
            (["norm", "--space", "l1", "--point", "[]"], {"code": 2}, None),
            (["norm", "--space", "linf", "--point", "[1.0, 2.0"], {"code": 2}, None),
            (["norm", "--space", "linf", "--file", self._cab_file], {"code": 2}, None),
            (["witness", "--space", "linf", "--point", "[3.0, 1.0]"], {"code": 2}, None),
            (["densify", "--file", self._nbv_file, "--eps", "0.25"], {"code": 2}, None),
            (["cyl", "--base", "wseries_partial", "--t", "4", "--space", "linf",
              "--point", "[1.0, 2.0, 3.0, 4.0, 5.0]"], {"code": 2}, None),
        ]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op[0])
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue()

    def summarize(self, idx, result):
        code, text = result
        first = self._first.setdefault(idx, text)
        return code, len(text), text is first or text == first

    def check(self, idx, outcome, exc):
        argv = self.pool[idx][0]
        if exc is not None:
            return "unexpected", f"{' '.join(argv[:5])}: {exc[0]}: {exc[1]}"
        code, _size, same = outcome
        if not same:
            return "unexpected", f"{' '.join(argv[:5])}: repeated request gave different bytes"
        return self._check(self.pool[idx], code, self._first[idx])

    def _check(self, req, code, text):
        argv, expect, defect = req
        fail = defect or "unexpected"
        cmd = " ".join(argv[:5])
        if code != expect["code"]:
            return fail, f"{cmd}: exit {code}, documented {expect['code']}"
        try:
            doc = _strict_json(text)
        except ValueError as err:
            return fail, f"{cmd}: report is not strict JSON: {err}"
        if code != 0:
            return None if "error" in doc else (fail, f"{cmd}: no error object")
        result = doc["result"]
        if "status" in expect and result["status"] not in expect["status"]:
            return fail, f"{cmd}: status {result['status']}, expected {'/'.join(expect['status'])}"
        if "norm" in expect and result["norm"] != expect["norm"]:
            return fail, f"{cmd}: norm {result['norm']}, expected {expect['norm']}"
        return None

    def extra_metrics(self, outcomes, ok_flags, wall):
        return {}


WORKLOADS = {w.name: w for w in (Verdicts, Measure, Cli)}
