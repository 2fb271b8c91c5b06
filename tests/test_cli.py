"""Command-line interface: JSON reports, exit codes, flags, and config."""

import argparse
import contextlib
import enum
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import banachdiff
from banachdiff import cli
from banachdiff.diffengine import VerdictStatus
from banachdiff.errors import EvalFailureError
from banachdiff.gaussmeasure import MAX_N, MAX_TERMS
from banachdiff.oracles import witness_Linf, witness_nbv
from banachdiff.spaces import Space, constant_fn, point_to_dict, point_to_json, pw_from_values, seq_point

# Monte Carlo tie-band fraction for two unit-variance coordinates at
# delta = 0.01, 20000 draws, seed 7 — frozen from a direct run of the
# sampler; the matching quadrature value is asserted alongside it, frozen
# from the Gauss-Legendre oracle (9.8e-18 above the 40-digit value).
MC_STD_FRACTION = 0.01135
B2_STD_001 = 0.01125186718195502

# left-to-right partial sum of (k+2)^(-2) over the first 1000 terms
PARTIAL_1000 = 0.3939365606965239

# weighted series of [1, -1, 2] under weights 1/k^2: 1 + 1/4 + 2/9
WSERIES_3 = 53.0 / 36.0


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


# -- happy paths, one per subcommand ------------------------------------------


def test_norm_reports_value_version_and_echo(capsys):
    rc, doc = run_cli(capsys, ["norm", "--space", "l1", "--point", "[1.0, -2.0, 0.5]"])
    assert rc == 0
    assert doc["command"] == "norm"
    assert doc["result"]["norm"] == 3.5
    assert doc["inputs"]["point"] == {"space": "L1_SEQ", "coords": [1.0, -2.0, 0.5]}
    assert doc["version"] == cli.__version__


def test_diff_unique_max_gives_signed_index(capsys):
    rc, doc = run_cli(
        capsys,
        ["diff", "--space", "linf", "--point", "[3, 1, 0.5]", "--dir", "[1, 0, 0]"],
    )
    assert rc == 0
    assert doc["result"]["status"] == "GATEAUX"
    rep = doc["result"]["derivative"]
    assert rep == {"kind": "SIGNED_INDEX", "p": 1, "sigma": 1.0}


def test_norm_single_jump_function_from_file(capsys, tmp_path):
    # a flat function that steps from 0 to 1: total variation is the jump
    fpath = tmp_path / "onejump.json"
    fpath.write_text(
        json.dumps(
            {
                "space": "NBV_AB",
                "a": 0.0,
                "b": 1.0,
                "breakpoints": [0.5],
                "segments": [
                    {"slope": 0.0, "intercept": 0.0},
                    {"slope": 0.0, "intercept": 1.0},
                ],
            }
        )
    )
    rc, doc = run_cli(capsys, ["norm", "--file", str(fpath)])
    assert rc == 0
    assert doc["result"]["norm"] == 1.0
    assert doc["inputs"]["point"]["jumps"] == [1.0]


def test_classify_reports_dominance_certificate(capsys):
    rc, doc = run_cli(capsys, ["classify", "--space", "linf", "--point", "[3.0, 1.0, 0.5]"])
    assert rc == 0
    report = doc["result"]
    assert report["in_B"] is True
    assert report["p"] == 1
    assert report["gap"] == 2.0


def test_witness_splits_on_a_tie(capsys):
    rc, doc = run_cli(capsys, ["witness", "--space", "linf", "--point", "[2.0, -2.0, 1.0]"])
    assert rc == 0
    assert doc["result"]["direction"]["coords"] == [1.0, 1.0, 0.0]


def test_witness_at_the_one_coordinate_zero_point(capsys):
    # [0] is outside the differentiability set: |t| has slopes +1 / -1
    rc, doc = run_cli(capsys, ["witness", "--space", "linf", "--point", "[0.0]"])
    assert rc == 0
    assert doc["result"]["direction"]["coords"] == [1.0]


def test_densify_repairs_within_budget(capsys):
    rc, doc = run_cli(
        capsys,
        ["densify", "--space", "linf", "--point", "[1.0, 0.0125, 0.5]", "--eps", "0.25"],
    )
    assert rc == 0
    assert doc["result"]["point"]["coords"] == [1.125, 0.0125, 0.5]
    assert doc["result"]["distance"] == 0.125
    assert doc["result"]["report"]["in_B"] is True


def test_densify_repairs_an_l1_point_within_budget(capsys):
    rc, doc = run_cli(
        capsys,
        ["densify", "--space", "l1", "--point", "[1.0, 0.0, -0.5]", "--eps", "0.25"],
    )
    assert rc == 0
    assert doc["result"]["point"]["coords"] == [1.0, 0.03125, -0.5]
    assert doc["result"]["distance"] == 0.03125
    assert doc["result"]["report"]["in_B"] is True


def test_measure_includes_quadrature_oracle_for_two_coordinates(capsys):
    rc, doc = run_cli(
        capsys,
        ["measure", "--n", "2", "--delta", "0.01", "--count", "20000",
         "--seed", "7", "--law", "std"],
    )
    assert rc == 0
    result = doc["result"]
    assert result["fraction"] == MC_STD_FRACTION
    assert result["oracle_fraction"] == B2_STD_001
    assert abs(result["fraction"] - result["oracle_fraction"]) < 3.0 * result["std_error"]
    assert doc["inputs"]["seed"] == 7


def test_vakhania_partial_sum_is_frozen_value(capsys):
    rc, doc = run_cli(capsys, ["vakhania", "--N", "1000"])
    assert rc == 0
    assert doc["result"]["flag"] is True
    assert doc["result"]["partial_sum"] == PARTIAL_1000


def test_cyl_evaluates_and_differentiates(capsys):
    rc, doc = run_cli(
        capsys,
        ["cyl", "--base", "wseries_partial", "--t", "3",
         "--space", "linf", "--point", "[1.0, -1.0, 2.0, 0.25, 0.125]",
         "--dir", "[1.0, 1.0, 1.0, 0.0, 0.0]"],
    )
    assert rc == 0
    assert doc["result"]["value"] == WSERIES_3
    verdict = doc["result"]["verdict"]
    assert verdict["status"] == "GATEAUX"
    coeffs = verdict["derivative"]["coeffs"]
    assert len(coeffs) == 3
    for got, want in zip(coeffs, [1.0, -0.25, 1.0 / 9.0]):
        assert abs(got - want) < 1e-9


def test_compose_scales_inner_coefficients(capsys):
    # squaring on the outside multiplies the inner derivative by 2 g(x);
    # the squared map is smooth rather than piecewise linear, so it gets
    # the deeper grid and the looser tolerance those functionals need
    rc, doc = run_cli(
        capsys,
        ["compose", "--outer", "square", "--base", "wseries_partial", "--t", "3",
         "--space", "linf", "--point", "[1.0, -1.0, 2.0, 0.25, 0.125]",
         "--dir", "[1.0, 1.0, 1.0, 0.0, 0.0]",
         "--t0", "0.0078125", "--count-steps", "20", "--tol", "1e-6"],
    )
    assert rc == 0
    assert doc["result"]["status"] == "GATEAUX"
    coeffs = doc["result"]["derivative"]["coeffs"]
    scale = 2.0 * WSERIES_3
    for got, want in zip(coeffs, [scale, -0.25 * scale, scale / 9.0]):
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))
    # the reported directional value is the sum of the fitted coefficients
    assert abs(doc["result"]["value"] - sum(coeffs)) < 1e-9


def run_cli_strict(capsys, argv):
    rc = cli.main(argv)
    return rc, json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_dims_flag_sets_the_truncation_chain(capsys):
    argv = ["cyl", "--base", "supnorm", "--t", "3", "--space", "linf", "--point", "[1,2,3,4,5]"]
    rc, doc = run_cli_strict(capsys, argv + ["--dims", "2,3,5"])
    assert rc == 0
    assert doc["inputs"]["dims"] == [2, 3, 5]
    assert doc["result"]["value"] == 3.0
    rc, doc = run_cli_strict(capsys, argv + ["--dims", "2,x"])
    assert rc == 2
    assert doc["error"]["code"] == "PRECONDITION_FAILED"


def _point_file(tmp_path, point):
    path = tmp_path / "point.json"
    path.write_text(point_to_json(point))
    return str(path)


def test_witness_on_linf_r_needs_two_peaks(capsys, tmp_path):
    two = pw_from_values(Space.LINF_R, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, -1.0, 0.0])
    rc, doc = run_cli_strict(capsys, ["witness", "--file", _point_file(tmp_path, two)])
    assert rc == 0
    assert doc["result"]["direction"] == point_to_dict(witness_Linf(two))
    one = pw_from_values(Space.LINF_R, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    rc, doc = run_cli_strict(capsys, ["witness", "--file", _point_file(tmp_path, one)])
    assert rc == 2
    assert doc["error"]["code"] == "NO_DOUBLE_MAX"


def test_witness_on_nbv(capsys, tmp_path):
    f = pw_from_values(Space.NBV_AB, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    rc, doc = run_cli_strict(capsys, ["witness", "--file", _point_file(tmp_path, f)])
    assert rc == 0
    assert doc["result"]["direction"] == point_to_dict(witness_nbv(f))


@pytest.mark.parametrize(
    "point",
    [
        seq_point(Space.RT, [1.0, -1.0, 0.5]),
        pw_from_values(Space.C_AB, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, -1.0, 0.0]),
    ],
    ids=["rt", "c_ab"],
)
def test_densify_repairs_rt_and_c_ab_points(capsys, tmp_path, point):
    rc, doc = run_cli_strict(capsys, ["densify", "--file", _point_file(tmp_path, point), "--eps", "0.25"])
    assert rc == 0
    assert doc["inputs"]["point"]["space"] == doc["result"]["point"]["space"] == point.space.value
    assert doc["result"]["report"]["in_B"] is True
    assert doc["result"]["distance"] < 0.25


# -- exit codes ----------------------------------------------------------------


def test_malformed_point_exits_2(capsys):
    rc, doc = run_cli(capsys, ["norm", "--space", "l1", "--point", "[1.0, oops]"])
    assert rc == 2
    assert doc["error"]["code"] == "MALFORMED_POINT"


def test_unknown_space_exits_2(capsys):
    rc, doc = run_cli(capsys, ["norm", "--space", "l7", "--point", "[1.0]"])
    assert rc == 2
    assert doc["error"]["code"] == "MALFORMED_POINT"
    assert "l7" in doc["error"]["message"]


def test_witness_without_tie_exits_2(capsys):
    rc, doc = run_cli(capsys, ["witness", "--space", "linf", "--point", "[3.0, 1.0]"])
    assert rc == 2
    assert doc["error"]["code"] == "NOT_IN_COMPLEMENT"


def test_computational_error_exits_3(capsys, monkeypatch):
    def boom(args, cfg):
        raise EvalFailureError("functional returned a non-finite value")

    monkeypatch.setattr(cli, "_cmd_norm", boom)
    rc, doc = run_cli(capsys, ["norm", "--space", "l1", "--point", "[1.0]"])
    assert rc == 3
    assert doc["error"]["code"] == "EVAL_FAILURE"


def _reject_constant(token):
    raise ValueError(f"non-RFC 8259 token {token}")


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--space", "l1", "--point", "[1e308, 1e308]"],
        ["compose", "--outer", "exp", "--base", "wseries_partial", "--t", "3",
         "--space", "linf", "--point", "[1000.0, -1.0, 2.0, 0.25, 0.125]",
         "--dir", "[1, 1, 1, 0, 0]"],
        # x + t*h of two valid points overflows: a computation, not bad input
        ["diff", "--space", "linf", "--point", "[1e308, 1]", "--dir", "[1e308, 0]", "--t0", "1"],
    ],
    ids=["norm-overflow", "compose-exp-overflow", "diff-combination-overflow"],
)
def test_non_finite_evaluation_exits_3_with_strict_json(capsys, argv):
    rc = cli.main(argv)
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 3
    assert doc["error"]["code"] == "EVAL_FAILURE"


def test_compose_exp_overflow_reports_the_outer_value_it_failed_at(capsys):
    argv = ["compose", "--outer", "exp", "--base", "wseries_partial", "--t", "3",
            "--space", "linf", "--point", "[1000.0, -1.0, 2.0, 0.25, 0.125]", "--dir", "[1, 1, 1, 0, 0]"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == (
        '{\n  "error": {\n    "code": "EVAL_FAILURE",\n    "context": {\n      "outer": "exp"\n    },\n'
        '    "message": "outer map \'exp\' at 1000.4722222222222 overflows"\n  },\n  "version": "0.1.0"\n}\n'
    )


def _fresh_run(argv, bs_seed=None):
    """The CLI in a fresh interpreter, so that stderr shows what a user would see.
    ``BS_SEED`` is set to ``bs_seed``, or unset when it is None."""
    env = dict(os.environ, PYTHONPATH=str(Path(banachdiff.__file__).parents[1]))
    env.pop("BS_SEED", None)
    if bs_seed is not None:
        env["BS_SEED"] = bs_seed
    return subprocess.run([sys.executable, "-m", "banachdiff", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "--space", "linf", "--point", "[1e308, 1]", "--dir", "[1e308, 0]", "--t0", "1"],
        ["norm", "--space", "l1", "--point", "[1e308, 1e308]"],
    ],
    ids=["combination", "norm"],
)
def test_overflow_exits_3_without_numpy_warnings(argv):
    run = _fresh_run(argv)
    assert run.returncode == 3
    assert json.loads(run.stdout)["error"]["code"] == "EVAL_FAILURE"
    assert run.stderr == ""


def test_quotient_overflow_exits_3_without_numpy_warnings():
    # every value along the line is finite; the quotient (1e308 - 0) / 0.5 is not
    run = _fresh_run(["diff", "--space", "l1", "--point", "[0, 0]", "--dir", "[1e308, 1e308]", "--t0", "0.5",
                      "--count-steps", "3"])
    assert run.returncode == 3
    error = json.loads(run.stdout)["error"]
    assert error["code"] == "EVAL_FAILURE" and error["message"] == "difference quotient overflows"
    assert run.stderr == ""


@pytest.mark.parametrize(
    "grid_flags",
    [["--t0", "1e-300", "--rho", "1e-10", "--count-steps", "5"], ["--t0", "inf"]],
    ids=["underflowing-steps", "infinite-t0"],
)
def test_unusable_step_grid_exits_2_without_numpy_warnings(grid_flags):
    run = _fresh_run(["diff", "--space", "linf", "--point", "[3,1]", "--dir", "[1,0]", *grid_flags])
    assert run.returncode == 2
    assert json.loads(run.stdout)["error"]["code"] == "PRECONDITION_FAILED"
    assert run.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["densify", "--space", "linf", "--point", "[4.0, 4.0]", "--eps", "1e-16"],
        ["densify", "--space", "l1", "--point", "[0.0, 0.0, 0.0, 1.0]", "--eps", "1e-323"],
    ],
    ids=["linf", "l1"],
)
def test_a_densify_request_that_floats_cannot_repair_exits_2(argv):
    run = _fresh_run(argv)
    assert run.returncode == 2
    error = json.loads(run.stdout)["error"]
    assert error["code"] == "PRECONDITION_FAILED" and "too small for" in error["message"]
    assert run.stderr == ""


def test_a_densify_request_that_lifts_the_sup_past_the_largest_float_exits_2():
    run = _fresh_run(["densify", "--space", "linf", "--point", "[1.79e308, 1.0]", "--eps", "1e307"])
    assert run.returncode == 2
    error = json.loads(run.stdout)["error"]
    assert error["code"] == "PRECONDITION_FAILED"
    assert error["message"] == "eps 1e+307 lifts the sup 1.79e+308 past the largest finite float 1.7976931348623157e+308"
    assert run.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--space", "linf", "--point", "[2, 2]", "--tie-tol", "nan"],
        ["classify", "--space", "linf", "--point", "[2, 1]", "--eps", "nan"],
        ["measure", "--n", "2", "--delta", "nan", "--count", "100"],
        ["measure", "--n", "2", "--delta", "inf", "--count", "100"],
        ["diff", "--space", "linf", "--point", "[3, 1]", "--dir", "[1, 0]", "--tol", "inf"],
        ["vakhania", "--N", "10", "--r", "inf"],
        ["densify", "--space", "l1", "--point", "[1, 0]", "--eps", "inf"],
    ],
    ids=["tie-tol-nan", "eps-nan", "delta-nan", "delta-inf", "tol-inf", "r-inf", "densify-eps-inf"],
)
def test_non_finite_number_exits_2_without_warnings(argv):
    run = _fresh_run(argv)
    assert run.returncode == 2
    assert json.loads(run.stdout, parse_constant=_reject_constant)["error"]["code"] == "PRECONDITION_FAILED"
    assert run.stderr == ""


# sha256 of the report of the README `diff` example, frozen from the engine
# that evaluated one point per grid step
README_DIFF_SHA256 = "455944d52dc5952f04e9115c44456867d09e99c0d9d13a5edece5f71100eb2a0"


def test_readme_diff_report_is_unchanged_byte_for_byte(capsys):
    rc = cli.main(["diff", "--space", "linf", "--point", "[3, 1, 0.5]", "--dir", "[1, 0, 0]"])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == README_DIFF_SHA256


# sha256 of the report of the README `measure` example, frozen from the
# sampler that built each block from separate uniform, normal and scaled
# arrays, and from the Gauss-Legendre oracle split at its kink
README_MEASURE_SHA256 = "de5a8a116695b9aa553f0b20e40782b6b3b98b28f891495a0086d0cd7f293bc9"


def test_readme_measure_report_is_unchanged_byte_for_byte(capsys):
    argv = ["measure", "--n", "2", "--delta", "0.01", "--count", "20000", "--seed", "7", "--law", "std"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == README_MEASURE_SHA256


# sha256 of the reports of the other README examples, frozen from the
# json.dumps writer (suite is left out: its report holds elapsed times)
_LINF_5 = ["--space", "linf", "--point", "[1.0, -1.0, 2.0, 0.25, 0.125]", "--dir", "[1, 1, 1, 0, 0]"]
README_REPORT_SHA256 = {
    "norm": (
        ["norm", "--space", "l1", "--point", "[1.0, -2.0, 0.5]"],
        "5028785680c9197868aa27b9da66c201a06451f0ee945a9b1d1e29aa4ef5308d",
    ),
    "classify": (
        ["classify", "--space", "linf", "--point", "[3.0, 1.0, 0.5]"],
        "b1686e2d52d3e0cb20d6097c21d2e4121b8ad53a16175e4095cf2f60bb4b4173",
    ),
    "witness": (
        ["witness", "--space", "linf", "--point", "[2.0, -2.0, 1.0]"],
        "c2185d0aef3394c3cb305d4668e73b468f289e5a9f66812e79eb3b0570fa5fb7",
    ),
    "densify": (
        ["densify", "--space", "linf", "--point", "[1.0, 0.0125, 0.5]", "--eps", "0.25"],
        "9793b877960c7d5be753946349be0d2de53df27597b346104a542252bff73bf1",
    ),
    "vakhania": (
        ["vakhania", "--N", "1000"],
        "e1a7a9554a5041164d06ab0145b9d3558058e99ddfd08b676a119b4aa06822c7",
    ),
    "cyl": (
        ["cyl", "--base", "wseries_partial", "--t", "3", *_LINF_5],
        "51b1f15454d9f22ec6bb5cf19cf249f0e7773c48511191229f9284f4c8f9eed9",
    ),
    "compose": (
        ["compose", "--outer", "square", "--base", "wseries_partial", "--t", "3", *_LINF_5,
         "--t0", "0.0078125", "--count-steps", "20", "--tol", "1e-6"],
        "e38f8e0cea3cb387ccc88b21d6a31b3a441d936391dd6bdcb73744f8fd4bd804",
    ),
}


@pytest.mark.parametrize("command", sorted(README_REPORT_SHA256))
def test_readme_report_is_unchanged_byte_for_byte(capsys, command):
    argv, digest = README_REPORT_SHA256[command]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_function_combination_overflow_exits_3(capsys, tmp_path):
    # the doubling check of a valid C_AB point at 1e308 overflows
    fpath = tmp_path / "huge.json"
    fpath.write_text(point_to_json(constant_fn(Space.C_AB, 0.0, 1.0, 1e308)))
    rc = cli.main(["diff", "--file", str(fpath), "--dir-file", str(fpath)])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 3
    assert doc["error"]["code"] == "EVAL_FAILURE"


def test_measure_rejects_n_above_the_bound(capsys):
    for law in ("inv_log", "std"):
        argv = ["measure", "--n", str(MAX_N + 1), "--delta", "0.1", "--count", "10", "--law", law]
        rc, doc = run_cli(capsys, argv)
        assert rc == 2
        assert doc["error"]["code"] == "PRECONDITION_FAILED"


def test_vakhania_rejects_N_above_the_bound_before_summing(capsys):
    rc, doc = run_cli(capsys, ["vakhania", "--N", str(MAX_TERMS + 1)])
    assert rc == 2
    assert doc["error"]["code"] == "PRECONDITION_FAILED"
    assert doc["error"]["context"] == {"N": MAX_TERMS + 1}


def test_classify_of_a_knot_gap_beyond_the_float_range_exits_2(capsys, tmp_path):
    # b - a overflows: the point is refused, not classified with nan gaps
    fpath = tmp_path / "wide.json"
    fpath.write_text(json.dumps({
        "space": "c_ab", "a": -1.5e308, "b": 1.5e308, "breakpoints": [],
        "segments": [{"slope": 0.0, "intercept": 1.0}], "jumps": [],
    }))
    rc, doc = run_cli_strict(capsys, ["classify", "--file", str(fpath), "--eps", "1e308"])
    assert rc == 2
    assert doc["error"]["code"] == "MALFORMED_POINT"


def test_far_field_grid_is_inconclusive_not_a_kink(capsys):
    argv = ["diff", "--space", "linf", "--point", "[3, 1]", "--dir", "[1, 0]"]
    rc, doc = run_cli(capsys, argv + ["--t0", "1e300"])
    assert rc == 0
    assert doc["result"]["status"] == "INCONCLUSIVE"
    assert "reaches the scale of x" in doc["result"]["detail"]
    # a grid whose steps come down to |x| reads the true limit
    rc, doc = run_cli(capsys, argv + ["--t0", "16"])
    assert rc == 0
    assert doc["result"]["status"] == "GATEAUX"
    assert doc["result"]["derivative"] == {"kind": "SIGNED_INDEX", "p": 1, "sigma": 1.0}


def test_error_context_stays_strict_json(capsys, tmp_path):
    # a stated jump of Infinity is echoed in the error context by name
    fpath = tmp_path / "badjump.json"
    fpath.write_text(
        '{"space": "LINF_R", "a": 0.0, "b": 1.0, "breakpoints": [0.5], '
        '"segments": [{"slope": 0.0, "intercept": 0.0}, {"slope": 0.0, "intercept": 1.0}], '
        '"jumps": [Infinity]}'
    )
    rc = cli.main(["norm", "--file", str(fpath)])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 2
    assert doc["error"]["code"] == "MALFORMED_POINT"
    assert doc["error"]["context"]["given"] == ["Infinity"]


_CAB_DOC = {
    "space": "C_AB",
    "a": 0.0,
    "b": 1.0,
    "breakpoints": [0.5],
    "segments": [{"slope": 2.0, "intercept": 0.0}, {"slope": -2.0, "intercept": 2.0}],
    "jumps": [0.0],
}


def _with(doc, **fields):
    return {**doc, **fields}


@pytest.mark.parametrize(
    "doc",
    [
        {"space": "L1_SEQ", "coords": "abc"},
        {"space": "L1_SEQ", "coords": [True, 2]},
        {"space": "L1_SEQ", "coords": ["1", 2]},
        {"space": "L1_SEQ", "coords": [10**400]},
        _with(_CAB_DOC, segments=[{"slope": "x", "intercept": 0}, _CAB_DOC["segments"][1]]),
        _with(_CAB_DOC, segments=[{"slope": 2.0, "intercept": False}, _CAB_DOC["segments"][1]]),
        _with(_CAB_DOC, a="x"),
        _with(_CAB_DOC, b=[1.0]),
        _with(_CAB_DOC, breakpoints=["x"]),
        _with(_CAB_DOC, jumps=["x"]),
        _with(_CAB_DOC, jumps={"at": 0.5}),
        _with(_CAB_DOC, b=10.0, segments=[{"slope": 1e308, "intercept": 0.0}] * 2),
    ],
    ids=["coords-string", "coords-bool", "coords-numeric-string", "coords-huge-int", "slope-string",
         "intercept-bool", "a-string", "b-list", "breakpoints-string", "jumps-string", "jumps-object",
         "lines-overflow"],
)
def test_unusable_point_document_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["norm", "--file", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["error"]["code"] == "MALFORMED_POINT"


@pytest.mark.parametrize(
    "point",
    ['["a", 1]', "[true, 2]", '["1", 2]', "[1, [2]]", "[" * 100000],
    ids=["string", "bool", "numeric-string", "nested", "too-deep"],
)
def test_non_numeric_inline_point_exits_2(capsys, point):
    rc = cli.main(["norm", "--space", "l1", "--point", point])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["error"]["code"] == "MALFORMED_POINT"


@pytest.mark.parametrize("flag", ["--file", "--config"])
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, flag):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe\x7b")
    rc = cli.main(["norm", "--space", "l1", "--point", "[1]", flag, str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["code"] == "PRECONDITION_FAILED" and error["message"].startswith(f"cannot read {flag}")


def test_a_config_that_is_not_json_exits_2_as_a_failed_precondition(capsys, tmp_path):
    path = tmp_path / "badcfg.json"
    path.write_text("{bad")
    rc = cli.main(["norm", "--space", "l1", "--point", "[1]", "--config", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["code"] == "PRECONDITION_FAILED"
    assert error["message"].startswith(f"--config {path} is not valid JSON")


def test_a_step_count_past_the_bound_exits_2_before_building_steps(capsys):
    argv = ["diff", "--space", "l1", "--point", "[1, 2]", "--dir", "[1, 0]", "--rho", "0.9999999"]
    cli.main(argv)  # the parser is built once per process, outside the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = cli.main(argv + ["--count-steps", "10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["error"]["code"] == "PRECONDITION_FAILED"
    assert peak < 2 * 2**20


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_POINT_DOCS = [
    {"space": "L1_SEQ", "coords": [1.0, -2.0]},
    _CAB_DOC,
    _with(_CAB_DOC, space="LINF_R", jumps=[1.0], segments=[{"slope": 0.0, "intercept": 0.0}] * 2),
    _with(_CAB_DOC, space="NBV_AB"),
]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(_POINT_DOCS),
    fields=st.dictionaries(
        st.sampled_from(["space", "coords", "a", "b", "breakpoints", "segments", "jumps"]), _JSON_VALUES
    ),
    segment=st.dictionaries(st.sampled_from(["slope", "intercept"]), _JSON_VALUES),
)
def test_any_json_in_a_point_document_is_a_report(base, fields, segment):
    doc = _with(base, **fields)
    if "segments" in base and "segments" not in fields:
        doc["segments"] = [{**base["segments"][0], **segment}, base["segments"][1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "point.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["norm", "--file", path])
    assert rc in (0, 2, 3) and err.getvalue() == ""
    json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."], ids=["missing-dir", "a-directory"])
def test_an_unwritable_output_exits_2_with_the_report_on_stdout(capsys, tmp_path, target):
    output = str(tmp_path / target)
    rc = cli.main(["--output", output, "norm", "--space", "l1", "--point", "[1]"])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["code"] == "PRECONDITION_FAILED" and error["message"].startswith(f"cannot write --output {output}")


def test_cylinder_memory_does_not_grow_with_the_largest_dimension(capsys):
    argv = ["cyl", "--base", "supnorm", "--t", "3", "--dims", "2,3,1000000", "--space", "linf",
            "--point", "[1, 2, 3]"]
    cli.main(argv)  # the parser is built once per process, outside the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == 3.0
    assert peak < 2 * 2**20


def test_suite_failure_exits_1(capsys, monkeypatch):
    class Stub:
        passed = False

        def to_dict(self):
            return {"passed": False}

    monkeypatch.setattr(cli, "run_all", lambda seed: [Stub()])
    rc, doc = run_cli(capsys, ["suite"])
    assert rc == 1
    assert doc["result"]["all_passed"] is False


# -- global flags, config, environment ----------------------------------------


def test_threads_flag_is_position_independent_and_inert(capsys):
    argv_tail = ["norm", "--space", "l1", "--point", "[1.0, -2.0, 0.5]"]
    rc1 = cli.main(["--threads", "4"] + argv_tail)
    first = capsys.readouterr().out
    rc2 = cli.main(argv_tail + ["--threads", "4"])
    second = capsys.readouterr().out
    rc3 = cli.main(argv_tail)
    bare = capsys.readouterr().out
    assert rc1 == rc2 == rc3 == 0
    # byte-identical reports: --threads never leaks into the output
    assert first == second == bare


def test_output_flag_writes_file_and_leaves_stdout_empty(capsys, tmp_path):
    out = tmp_path / "report.json"
    argv = ["norm", "--space", "l1", "--point", "[2.0]", "--output", str(out)]
    rc = cli.main(argv)
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["result"]["norm"] == 2.0


def test_config_supplies_seed_and_explicit_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    base = ["measure", "--n", "2", "--delta", "0.01", "--count", "100", "--law", "std"]
    rc, doc = run_cli(capsys, base + ["--config", str(cfg)])
    assert rc == 0 and doc["inputs"]["seed"] == 7
    rc, doc = run_cli(capsys, base + ["--config", str(cfg), "--seed", "11"])
    assert rc == 0 and doc["inputs"]["seed"] == 11


def test_config_supplies_truncation_dims(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2, 3, 5]}))
    rc, doc = run_cli(
        capsys,
        ["cyl", "--base", "supnorm", "--t", "5", "--config", str(cfg),
         "--space", "linf", "--point", "[1.0, -3.0, 0.5, 0.25, 2.0]"],
    )
    assert rc == 0
    assert doc["inputs"]["dims"] == [2, 3, 5]
    assert doc["result"]["value"] == 3.0


def test_bs_seed_environment_variable_is_the_fallback(capsys, monkeypatch):
    monkeypatch.setenv("BS_SEED", "7")
    rc, doc = run_cli(
        capsys, ["measure", "--n", "2", "--delta", "0.01", "--count", "100", "--law", "std"]
    )
    assert rc == 0
    assert doc["inputs"]["seed"] == 7


def test_bs_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("BS_SEED", "pi")
    rc, doc = run_cli(
        capsys, ["measure", "--n", "2", "--delta", "0.01", "--count", "100", "--law", "std"]
    )
    assert rc == 2
    assert doc["error"]["code"] == "PRECONDITION_FAILED"


DIFF_ARGV = ["diff", "--space", "linf", "--point", "[3, 1]", "--dir", "[1, 0]"]
CYL_ARGV = ["cyl", "--base", "supnorm", "--t", "3", "--space", "linf", "--point", "[1, 2, 3]"]
MEASURE_ARGV = ["measure", "--n", "2", "--delta", "0.01", "--count", "100"]


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"t0": "abc"}, DIFF_ARGV),
        ({"tol": None}, DIFF_ARGV),
        ({"count": [3]}, DIFF_ARGV),
        ({"dims": "2,3"}, CYL_ARGV),
        ({"seed": "x"}, MEASURE_ARGV),
        ({"count": 20.7}, DIFF_ARGV),
        ({"dims": [2.5, 3]}, CYL_ARGV),
        ({"seed": 1.5}, MEASURE_ARGV),
        ({"seed": True}, MEASURE_ARGV),
        ({"count": "20.0"}, DIFF_ARGV),
    ],
    ids=["t0-string", "tol-null", "count-list", "dims-string", "seed-string",
         "count-fraction", "dims-fraction", "seed-fraction", "seed-bool", "count-decimal-string"],
)
def test_malformed_config_value_exits_2(capsys, tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(argv + ["--config", str(cfg)])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["error"]["code"] == "PRECONDITION_FAILED"


def _error_of(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    return error["code"], error["message"]


@pytest.mark.parametrize("key", ["t0", "rho", "tol"])
def test_real_config_settings_refuse_bools(capsys, tmp_path, key):
    # JSON true is not the number 1.0, as it is not the integer 1 for count
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: True}))
    assert _error_of(capsys, DIFF_ARGV + ["--config", str(cfg)]) == (
        "PRECONDITION_FAILED",
        f"{key} True is not usable: expected a number, got a bool",
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["diff", "--space", "l1", "--point", "[1, 2]"], "--dir-file"),
        (CYL_ARGV, "--dir-file"),
        (["norm", "--space", "l1"], "--file"),
    ],
    ids=["diff", "cyl", "norm"],
)
def test_file_flag_errors_name_the_flag_as_typed(capsys, tmp_path, argv, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    missing = tmp_path / "missing.json"
    code, message = _error_of(capsys, argv + [flag, str(bad)])
    assert code == "MALFORMED_POINT" and message.startswith(f"{flag} {bad} is not valid JSON")
    code, message = _error_of(capsys, argv + [flag, str(missing)])
    assert code == "PRECONDITION_FAILED" and message.startswith(f"cannot read {flag} {missing}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["diff", "--space", "l1", "--point", "[1, 2]"], "provide --dir or --dir-file"),
        (["compose", "--outer", "abs"] + CYL_ARGV[1:], "provide --dir or --dir-file"),
        (["norm", "--space", "l1"], "provide --point or --file"),
        (["norm", "--point", "[1, 2]"], "--point needs --space to interpret the coordinates"),
        (["witness", "--space", "l1", "--point", "[1, 2]"], "no witness construction for L1_SEQ"),
        (
            ["compose", "--outer", "nosuch"] + CYL_ARGV[1:] + ["--dir", "[1, 0, 0]"],
            "unknown outer map 'nosuch'; available: "
            "['abs', 'cube_plus_u', 'exp', 'identity', 'relu', 'sin', 'square']",
        ),
    ],
    ids=["diff-no-dir", "compose-no-dir", "norm-no-point", "point-without-space", "witness-l1", "unknown-outer"],
)
def test_missing_or_unknown_input_exits_2_as_a_failed_precondition(capsys, argv, message):
    assert _error_of(capsys, argv) == ("PRECONDITION_FAILED", message)


def test_an_inline_point_that_is_not_an_array_exits_2(capsys):
    assert _error_of(capsys, ["norm", "--space", "l1", "--point", '{"a": 1}']) == (
        "MALFORMED_POINT",
        "--point must be a JSON array of numbers",
    )


def test_a_config_that_is_not_an_object_exits_2(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = ["norm", "--space", "l1", "--point", "[1]", "--config", str(path)]
    assert _error_of(capsys, argv) == ("PRECONDITION_FAILED", "--config must contain a JSON object")


def test_integral_config_values_still_convert(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 20.0, "dims": [2.0, 3]}))
    rc, doc = run_cli(capsys, DIFF_ARGV + ["--config", str(cfg)])
    assert rc == 0 and doc["inputs"]["grid"]["count"] == 20
    rc, doc = run_cli(capsys, CYL_ARGV + ["--config", str(cfg)])
    assert rc == 0 and doc["inputs"]["dims"] == [2, 3]
    cfg.write_text(json.dumps({"count": "20"}))
    rc, doc = run_cli(capsys, DIFF_ARGV + ["--config", str(cfg)])
    assert rc == 0 and doc["inputs"]["grid"]["count"] == 20


def test_bs_seed_must_be_an_integer_literal(capsys, monkeypatch):
    # a string is read as an integer literal: only a JSON number may be written 7.0
    monkeypatch.setenv("BS_SEED", "7.0")
    rc, doc = run_cli(capsys, MEASURE_ARGV)
    assert rc == 2 and doc["error"]["code"] == "PRECONDITION_FAILED"


@pytest.mark.parametrize(
    "argv, config, bs_seed",
    [
        (MEASURE_ARGV + ["--seed", "-1"], None, None),
        (["suite", "--seed", "-1"], None, None),
        (MEASURE_ARGV, {"seed": -1}, None),
        (MEASURE_ARGV, None, "-1"),
    ],
    ids=["measure-flag", "suite-flag", "config", "environment"],
)
def test_negative_seed_exits_2(capsys, monkeypatch, tmp_path, argv, config, bs_seed):
    monkeypatch.delenv("BS_SEED", raising=False)
    if bs_seed is not None:
        monkeypatch.setenv("BS_SEED", bs_seed)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out, parse_constant=_reject_constant)["error"]["code"] == "PRECONDITION_FAILED"


# -- one parser per process ---------------------------------------------------

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


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv in README_EXAMPLES:
            assert cli.main(argv) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert {argv[0] for argv in README_EXAMPLES} == set(_subparsers(build_parser())) - {"suite"}
    assert len(builds) == 1


def test_repeated_requests_in_one_process_match_fresh_runs(capsys, monkeypatch, tmp_path):
    # each report, usage error included, equals the one a fresh process writes
    monkeypatch.setenv("COLUMNS", "80")
    cab, nbv = tmp_path / "cab.json", tmp_path / "nbv.json"
    cab.write_text(point_to_json(constant_fn(Space.C_AB, 0.0, 1.0, 1.0)))
    nbv.write_text(point_to_json(constant_fn(Space.NBV_AB, 0.0, 1.0, 0.0)))
    errors = [
        ["norm", "--space", "l1", "--point", "[]"],
        ["norm", "--space", "linf", "--point", "[1.0, 2.0"],
        ["norm", "--space", "linf", "--file", str(cab)],
        ["witness", "--space", "linf", "--point", "[3.0, 1.0]"],
        ["densify", "--file", str(nbv), "--eps", "0.25"],
        ["cyl", "--base", "wseries_partial", "--t", "4", "--space", "linf",
         "--point", "[1.0, 2.0, 3.0, 4.0, 5.0]"],
    ]
    norm = README_EXAMPLES[0]
    requests = [(argv, None) for argv in README_EXAMPLES + errors]
    requests += [(["norm", "--no-such-flag"], None), (["--threads", "4", *norm], None),
                 ([*norm, "--threads", "4"], None)]
    rng = random.Random(9)
    rng.shuffle(requests)
    # the parser is built by a measure request under BS_SEED, which is
    # unset again for a later one
    requests.insert(0, (MEASURE_ARGV, "7"))
    requests.insert(rng.randrange(1, len(requests) + 1), (MEASURE_ARGV, None))
    cli._parser.cache_clear()

    def in_process(argv, bs_seed):
        monkeypatch.delenv("BS_SEED", raising=False)
        if bs_seed is not None:
            monkeypatch.setenv("BS_SEED", bs_seed)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    got = [in_process(*req) for req in requests]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda req: _fresh_run(*req), requests))
    assert {code for code, _out, _err in got} == {0, 2}
    for req, mine, run in zip(requests, got, runs):
        assert mine == (run.returncode, run.stdout, run.stderr), req


@pytest.mark.parametrize("argv", [["--help"], ["diff", "--help"]], ids=["main", "diff"])
def test_help_matches_a_freshly_built_parser(capsys, monkeypatch, argv):
    # the cached parser was built, and has parsed, at another help width
    monkeypatch.setenv("COLUMNS", "120")
    cli._parser.cache_clear()
    assert cli.main(DIFF_ARGV) == 0
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    fresh = cli.build_parser()
    if argv[0] == "diff":
        fresh = _subparsers(fresh)["diff"]
    assert capsys.readouterr().out == fresh.format_help()


def test_densify_refuses_an_eps_below_the_float_spacing_at_the_sup(capsys, tmp_path):
    tie = pw_from_values(Space.C_AB, [0.0, 0.5, 1.0], [1e20, 0.0, 1e20])
    rc, doc = run_cli_strict(capsys, ["densify", "--file", _point_file(tmp_path, tie), "--eps", "0.25"])
    assert rc == 2 and doc["error"]["code"] == "PRECONDITION_FAILED"
    assert doc["error"]["message"] == "eps 0.25 is too small for the float spacing at the sup 1e+20 of |f|"


def test_nbv_witness_on_a_domain_without_interior_floats_exits_2(capsys, tmp_path):
    f = pw_from_values(Space.NBV_AB, [1.0, 1.0000000000000002], [0.0, 0.0])
    rc, doc = run_cli_strict(capsys, ["witness", "--file", _point_file(tmp_path, f)])
    assert rc == 2 and doc["error"]["code"] == "PRECONDITION_FAILED"


def test_a_point_file_that_is_not_an_object_is_malformed(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1.0, 2.0]")
    rc, doc = run_cli_strict(capsys, ["norm", "--file", str(path)])
    assert rc == 2 and doc["error"]["code"] == "MALFORMED_POINT"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_report_holding_a_non_finite_number_is_an_eval_failure(value):
    for doc in (
        {"result": {"value": value}},
        {"t": [0.5, value, -0.0]},
        {"mixed": [1, "a", value]},
        {"a": {"b": [{"c": value}]}},
    ):
        with pytest.raises(EvalFailureError, match="the report holds a non-finite number"):
            cli._render(doc)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_REPR_EDGES = [5e-324, 1e16, 1e-7, -0.0, 0.0, 1e-5, 1e15, 2.0**53 + 2, -1.7976931348623157e308]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_REPR_EDGES)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _FLOATS | st.text()
)
_FLOAT_LISTS = st.lists(_FLOATS) | st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5]), min_size=1)
_DOCS = st.recursive(
    _LEAVES | _FLOAT_LISTS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _DOCS))
@example({})
@example({"": {}, "\u00e9\n\"\\\x00\x1f\u2028\U0001f600": [[], (), {}]})
@example({"t": [0.0, -0.0, 0.0], "u": (-0.0, 0.0), "v": [1.0, 1, True, None, "x", 1.0]})
def test_a_report_is_written_as_json_dumps_writes_it(doc):
    assert cli._render(doc) == _dumps(doc)


def test_enum_members_and_numpy_floats_are_written_as_json_dumps_writes_them():
    level = enum.IntEnum("Level", "LOW HIGH")
    for doc in (
        {"status": VerdictStatus.GATEAUX, VerdictStatus.FRECHET: [VerdictStatus.HADAMARD]},
        {"level": level.HIGH, "levels": [level.LOW, level.HIGH]},
        {"x": np.float64(0.1), "xs": [np.float64(-0.0), 0.0, np.float64(2.5), 2.5]},
    ):
        assert cli._render(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{1: "a"}, {"a": {(1, 2): 0.5}}, {"a": {1.5}}, {"a": [np.int64(3)]}],
    ids=["int-key", "tuple-key", "set", "numpy-int"],
)
def test_a_non_str_key_or_an_unsupported_value_is_a_type_error(doc):
    with pytest.raises(TypeError):
        cli._render(doc)


def test_threads_help_says_the_flag_sets_no_thread_count():
    threads = next(a for a in cli.build_parser()._actions if "--threads" in a.option_strings)
    assert threads.help == "accepted and ignored; it sets no thread count"
