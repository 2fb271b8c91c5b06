"""Command-line front end: one subcommand per library operation.

Every invocation writes a single JSON document (stdout by default, or
``--output PATH``) containing the echoed inputs, the result, the seed
that was used, and the library version — no timestamps or other
nondeterminism, so identical requests produce byte-identical reports.
Exit codes: 0 on success, 2 on validation errors (bad points, bad
flags, ``measure --n`` above ``gaussmeasure.MAX_N``, ``vakhania --N``
above ``gaussmeasure.MAX_TERMS``, an ``--output`` that cannot be
written, whose error report then goes to stdout), 3 on computational
errors (among them a linear combination of valid points that
overflows), and for ``suite`` 1 when a criterion fails.

A JSON config file (``--config``) may supply defaults for the step
grid, tolerance, truncation dimensions, and seed; explicit flags win.
The ``BS_SEED`` environment variable supplies the seed when neither a
flag nor the config does.  Seeds are non-negative integers, and an
integer setting (``count``, ``seed``, the ``dims`` entries) that is a
bool or not integral exits 2 rather than being truncated.  ``--threads``
is accepted for interface stability and ignored: ``measure`` counts on
its own threads whatever it says.  It is left out of the echoed inputs.

The parser is built once per process, on the first call of :func:`main`;
the config, ``BS_SEED`` and the help width are still read on every call,
and the handler is looked up by the subcommand's name, so :func:`main`
may be called repeatedly in one process and each report is byte-identical
to the one a fresh process writes.  Only such repeated calls skip the
build: the console script and ``python -m banachdiff`` call :func:`main`
once per process.  :func:`build_parser` returns a new parser on every
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .acceptance import BASE_SEED, run_all
from .diffengine import DEFAULT_GRID, DEFAULT_TOL, TGrid, gateaux_verdict, norm_functional
from .errors import (
    EvalFailureError,
    MalformedPointError,
    PreconditionFailedError,
    SpaceMismatchError,
    ToolkitError,
    VALIDATION_ERRORS,
)
from .gaussmeasure import (
    MAX_N,
    MAX_TERMS,
    GaussianSpec,
    b2_tie_probability_oracle,
    default_spec,
    estimate_nondiff_measure,
    standard_normal_spec,
    vakhania_check,
)
from .oracles import witness_linf, witness_Linf, witness_nbv
from .projective import (
    CYL_BASES,
    OUTER_MAPS,
    compose_propagate,
    cyl_eval,
    cyl_gateaux,
    make_cylinder,
    make_truncation_system,
)
from .spaces import (
    Space,
    _read_json,
    eval_norm,
    point_from_dict,
    point_to_dict,
    subtract,
)
from .topology import classify, densify_csup, densify_l1, densify_linf

_SPACE_ALIASES = {
    "l1": Space.L1_SEQ,
    "linf": Space.LINF_SEQ,
    "rt": Space.RT,
    "c_ab": Space.C_AB,
    "linf_r": Space.LINF_R,
    "nbv": Space.NBV_AB,
}

_DEFAULT_DIMS = (2, 3, 5, 8, 13)


def _space_of(tag: str) -> Space:
    key = tag.strip().lower()
    if key in _SPACE_ALIASES:
        return _SPACE_ALIASES[key]
    try:
        return Space(tag)
    except ValueError:
        raise MalformedPointError(
            f"unknown space {tag!r}; choose from {sorted(_SPACE_ALIASES)}"
        ) from None


def _read_file(path: str, flag: str, error=MalformedPointError):
    """The JSON document in the file ``path``; a file that cannot be read,
    or is not UTF-8, fails as :class:`PreconditionFailedError`, and one
    that is not JSON as ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionFailedError(f"cannot read --{flag} {path}: {exc}") from None
    return _read_json(text, f"--{flag} {path}", error)


def _load_point(args, *, flag: str = "point", file_flag: str = "file"):
    inline = getattr(args, flag, None)
    path = getattr(args, file_flag.replace("-", "_"), None)
    if path:
        pt = point_from_dict(_read_file(path, file_flag))
        if getattr(args, "space", None):
            want = _space_of(args.space)
            if pt.space is not want:
                raise SpaceMismatchError(
                    f"document is a {pt.space.value} point but --space says {want.value}"
                )
        return pt
    if inline:
        if not getattr(args, "space", None):
            raise PreconditionFailedError(f"--{flag} needs --space to interpret the coordinates")
        space = _space_of(args.space)
        coords = _read_json(inline, f"--{flag}")
        if not isinstance(coords, list):
            raise MalformedPointError(f"--{flag} must be a JSON array of numbers")
        return point_from_dict({"space": space.value, "coords": coords})
    raise PreconditionFailedError(f"provide --{flag} or --{file_flag}")


def _config_of(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = _read_file(args.config, "config", PreconditionFailedError)
    if not isinstance(cfg, dict):
        raise PreconditionFailedError("--config must contain a JSON object")
    return cfg


def _setting(args, cfg: dict, flag: str, key: str, convert, default):
    """``convert`` applied once to the first value given: the flag, the
    config's ``key``, then ``default``.  A value that does not convert is
    :class:`PreconditionFailedError`, whichever source gave it."""
    value = getattr(args, flag, None)
    if value is None:
        value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionFailedError(f"{key} {value!r} is not usable: {exc}") from None


def _integer(value) -> int:
    """``value`` as an int, never by truncation: a bool or a non-integral
    number is refused, while the JSON number ``20.0`` converts.  A string
    (``BS_SEED``, a quoted config value) must be an integer literal:
    ``"20"`` converts, ``"20.0"`` is refused."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a bool")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _int_tuple(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    return tuple(_integer(d) for d in value)


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _seed_of(args, cfg: dict) -> int:
    return _setting(args, cfg, "seed", "seed", _integer, os.environ.get("BS_SEED", BASE_SEED))


def _grid_of(args, cfg: dict) -> TGrid:
    return TGrid(
        t0=_setting(args, cfg, "t0", "t0", float, DEFAULT_GRID.t0),
        rho=_setting(args, cfg, "rho", "rho", float, DEFAULT_GRID.rho),
        count=_setting(args, cfg, "count_steps", "count", _integer, DEFAULT_GRID.count),
    )


def _tol_of(args, cfg: dict) -> float:
    return _setting(args, cfg, "tol", "tol", float, DEFAULT_TOL)


def _dims_of(args, cfg: dict) -> tuple[int, ...]:
    return _setting(args, cfg, "dims", "dims", _int_tuple, _DEFAULT_DIMS)


def _render(doc: dict) -> str:
    """The report as strict JSON (RFC 8259: no NaN or Infinity)."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EvalFailureError(f"the report holds a non-finite number: {exc}") from exc


def _error_doc(exc: ToolkitError) -> dict:
    # a context may carry a non-finite float; it is reported as its name
    context = json.loads(json.dumps(exc.context), parse_constant=str)
    return {
        "error": {"code": exc.code, "message": str(exc), "context": context},
        "version": __version__,
    }


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, or to stdout when there is
    none.  A file that cannot be written is :class:`PreconditionFailedError`."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionFailedError(f"cannot write --output {output}: {exc}") from None


def _fail(exc: ToolkitError, output: str | None) -> int:
    """Emit the error report of ``exc`` and return its exit code; when
    ``output`` cannot be written, report that on stdout instead."""
    try:
        _emit(_render(_error_doc(exc)), output)
    except PreconditionFailedError as unwritable:
        return _fail(unwritable, None)
    return 2 if isinstance(exc, VALIDATION_ERRORS) else 3


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs_echo, result)


def _cmd_norm(args, cfg):
    x = _load_point(args)
    nv = eval_norm(x)
    return {"point": point_to_dict(x)}, {"norm": nv.value, "witness": nv.witness}


def _cmd_diff(args, cfg):
    x = _load_point(args)
    h = _load_point(args, flag="dir", file_flag="dir-file")
    grid = _grid_of(args, cfg)
    tol = _tol_of(args, cfg)
    verdict = gateaux_verdict(norm_functional(x.space), x, [h], grid, tol)
    echo = {
        "point": point_to_dict(x),
        "dir": point_to_dict(h),
        "grid": {"t0": grid.t0, "rho": grid.rho, "count": grid.count},
        "tol": tol,
    }
    return echo, verdict.to_dict()


def _cmd_classify(args, cfg):
    x = _load_point(args)
    report = classify(x, args.eps)
    return {"point": point_to_dict(x), "eps": args.eps}, report.to_dict()


def _cmd_witness(args, cfg):
    x = _load_point(args)
    if x.space in (Space.LINF_SEQ, Space.RT):
        w = witness_linf(x, args.tie_tol)
    elif x.space is Space.LINF_R:
        w = witness_Linf(x)
    elif x.space is Space.NBV_AB:
        w = witness_nbv(x)
    else:
        raise PreconditionFailedError(f"no witness construction for {x.space.value}")
    return {"point": point_to_dict(x), "tie_tol": args.tie_tol}, {"direction": point_to_dict(w)}


def _cmd_densify(args, cfg):
    x = _load_point(args)
    if x.space is Space.L1_SEQ:
        y = densify_l1(x, args.eps)
    elif x.space in (Space.LINF_SEQ, Space.RT):
        y = densify_linf(x, args.eps)
    elif x.space is Space.C_AB:
        y = densify_csup(x, args.eps)
    else:
        raise PreconditionFailedError(f"no densification for {x.space.value}")
    dist = eval_norm(subtract(y, x)).value
    return (
        {"point": point_to_dict(x), "eps": args.eps},
        {"point": point_to_dict(y), "distance": dist, "report": classify(y).to_dict()},
    )


def _cmd_measure(args, cfg):
    seed = _seed_of(args, cfg)
    spec = standard_normal_spec(args.n) if args.law == "std" else default_spec()
    est = estimate_nondiff_measure(spec, args.n, args.delta, args.count, seed)
    result = est.to_dict()
    if args.n == 2:
        result["oracle_fraction"] = b2_tie_probability_oracle(spec, args.delta)
    echo = {"n": args.n, "delta": args.delta, "count": args.count, "law": args.law, "seed": seed}
    return echo, result


def _cmd_vakhania(args, cfg):
    spec = default_spec() if args.r is None else GaussianSpec(r=float(args.r))
    flag, partial = vakhania_check(spec, args.N)
    return {"N": args.N, "r": spec.r}, {"flag": flag, "partial_sum": partial}


def _cylinder_request(args, cfg):
    dims = _dims_of(args, cfg)
    return dims, make_truncation_system(dims), make_cylinder(args.base, args.t), _load_point(args)


def _cmd_cyl(args, cfg):
    dims, sys_, cf, x = _cylinder_request(args, cfg)
    result = {"value": cyl_eval(cf, sys_, x)}
    if getattr(args, "dir", None) or getattr(args, "dir_file", None):
        h = _load_point(args, flag="dir", file_flag="dir-file")
        verdict = cyl_gateaux(cf, sys_, x, h, _grid_of(args, cfg), _tol_of(args, cfg))
        result["verdict"] = verdict.to_dict()
    echo = {"dims": list(dims), "base": args.base, "t": args.t, "point": point_to_dict(x)}
    return echo, result


def _cmd_compose(args, cfg):
    if args.outer not in OUTER_MAPS:
        raise PreconditionFailedError(
            f"unknown outer map {args.outer!r}; available: {sorted(OUTER_MAPS)}"
        )
    dims, sys_, cf, x = _cylinder_request(args, cfg)
    h = _load_point(args, flag="dir", file_flag="dir-file")
    verdict = compose_propagate(
        OUTER_MAPS[args.outer], cf, sys_, x, h, _grid_of(args, cfg), _tol_of(args, cfg)
    )
    echo = {
        "dims": list(dims),
        "outer": args.outer,
        "base": args.base,
        "t": args.t,
        "point": point_to_dict(x),
        "dir": point_to_dict(h),
    }
    return echo, verdict.to_dict()


def _cmd_suite(args, cfg):
    seed = _seed_of(args, cfg)
    results = run_all(seed)
    return (
        {"seed": seed},
        {
            "criteria": [r.to_dict() for r in results],
            "all_passed": all(r.passed for r in results),
        },
    )


def _add_point_flags(sub, with_dir: bool = False):
    sub.add_argument("--space", help="space tag: l1, linf, rt, c_ab, linf_r, nbv")
    sub.add_argument("--point", help="JSON array of coordinates (sequence spaces)")
    sub.add_argument("--file", help="path to a point document (any space)")
    if with_dir:
        sub.add_argument("--dir", help="JSON array for the direction")
        sub.add_argument("--dir-file", dest="dir_file", help="path to a direction document")


def _add_grid_flags(sub):
    sub.add_argument("--t0", type=float, help="largest step of the quotient grid")
    sub.add_argument("--rho", type=float, help="geometric step ratio in (0, 1)")
    sub.add_argument("--count-steps", dest="count_steps", type=int, help="number of grid steps")
    sub.add_argument("--tol", type=float, help="convergence/agreement tolerance")


def _add_cylinder_flags(sub):
    sub.add_argument("--base", required=True, help=f"base map: one of {sorted(CYL_BASES)}")
    sub.add_argument("--t", type=int, required=True, help="truncation dimension")
    sub.add_argument("--dims", type=_comma_list,
                     help="comma-separated truncation chain (default 2,3,5,8,13)")


def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser attached to the main parser and
    # every subparser, so they may appear before or after the subcommand.
    # SUPPRESS defaults keep the subparser pass from clobbering values the
    # main pass already parsed; read them with getattr.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file with default grid/tol/dims/seed")
    shared.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the JSON report here instead of stdout")
    shared.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="accepted and ignored; it sets no thread count")
    parser = argparse.ArgumentParser(
        prog="banachdiff",
        description="Differentiability toolkit: norms, derivative verdicts, "
        "membership tests, Gaussian measure estimates, and projective systems.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_, parents=[shared])

    p = add_parser("norm", "evaluate the space norm of a point")
    _add_point_flags(p)

    p = add_parser("diff", "differentiability verdict along a direction")
    _add_point_flags(p, with_dir=True)
    _add_grid_flags(p)

    p = add_parser("classify", "membership test for the differentiability set")
    _add_point_flags(p)
    p.add_argument("--eps", type=float, default=0.0, help="required dominance margin")

    p = add_parser("witness", "direction with split one-sided derivatives")
    _add_point_flags(p)
    p.add_argument("--tie-tol", dest="tie_tol", type=float, default=0.0,
                   help="tolerance for recognizing tied maximal coordinates; for a "
                   "near tie the direction is an exact +1/-1 witness at the tie point "
                   "x - (m/2)*dir, m the gap of the two coordinates it moves, which "
                   "lies within tie_tol/2 of x, not at x itself")

    p = add_parser("densify", "repair a point into the differentiability set")
    _add_point_flags(p)
    p.add_argument("--eps", type=float, required=True, help="maximum repair distance")

    p = add_parser("measure", "Monte Carlo mass of the near-tie set")
    p.add_argument("--n", type=int, required=True, help=f"number of coordinates, at most {MAX_N}")
    p.add_argument("--delta", type=float, required=True, help="tie thickness")
    p.add_argument("--count", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, help="RNG seed (default: BS_SEED or built-in)")
    p.add_argument("--law", choices=("inv_log", "std"), default="inv_log",
                   help="variance law: default decaying law or unit variances")

    p = add_parser("vakhania", "summability check for the Gaussian law")
    p.add_argument("--N", type=int, required=True, help=f"number of series terms, at most {MAX_TERMS}")
    p.add_argument("--r", type=float, help="exponential rate (default 2.0)")

    p = add_parser("cyl", "evaluate/differentiate a cylindrical function")
    _add_point_flags(p, with_dir=True)
    _add_grid_flags(p)
    _add_cylinder_flags(p)

    p = add_parser("compose", "chain-rule verdict for outer ∘ cylindrical")
    _add_point_flags(p, with_dir=True)
    _add_grid_flags(p)
    p.add_argument("--outer", required=True, help=f"outer map: one of {sorted(OUTER_MAPS)}")
    _add_cylinder_flags(p)

    p = add_parser("suite", "run the acceptance suite")
    p.add_argument("--seed", type=int, help="base seed (default: BS_SEED or built-in)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    output = getattr(args, "output", None)
    try:
        cfg = _config_of(args)
        # looked up at call time, so a rebound handler is the one that runs
        echo, result = globals()[f"_cmd_{args.command}"](args, cfg)
        report = {"command": args.command, "inputs": echo, "result": result, "version": __version__}
        _emit(_render(report), output)
    except ToolkitError as exc:
        return _fail(exc, output)
    if args.command == "suite" and not result["all_passed"]:
        return 1
    return 0
