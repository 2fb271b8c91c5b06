#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes; not part of the test suite.

    python3 perfbench/smoke.py

For every workload it runs an untraced pass with one op forced to fail and
a traced pass, each about a second long on tiny pools, in this process.  It
checks that every metric is printed with its unit, that the result line
holds exactly the metrics BENCHMARK.json names, that the forced failure
is counted in ``failed`` and ``fail_ratio`` and marks the run incorrect, that
no other timed op fails, and that every known defect was reproduced.
Then it runs ``run.py`` once as a subprocess and checks its last line.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "verdicts": ["setup_s", "ok_ops_per_s", "op_p50_ms", "op_p99_ms", "fail_ratio",
                 "inconclusive_ratio", "peak_rss_mb"],
    "measure": ["setup_s", "ok_ops_per_s", "op_p50_ms", "rows_per_s", "fail_ratio", "mc_outside_3sigma",
                "peak_rss_mb"],
    "cli": ["setup_s", "ok_ops_per_s", "op_p50_ms", "op_p99_ms", "fail_ratio", "peak_rss_mb"],
}

# One op per workload that must fail: a length mismatch, n = 0, and an
# expected exit code the request cannot meet.
FORCED = {
    "verdicts": lambda bd: {"kind": "lat_l1", "lattice": True, "witness": False, "space": bd.Space.L1_SEQ,
                            "x": ("seq", [1.0, 2.0]), "h": ("seq", [1.0, 2.0, 3.0]), "check_dirs": []},
    "measure": lambda bd: {"n": 0, "delta": 0.1, "count": 1, "seed": 0},
    "cli": lambda bd: (["norm", "--space", "l1", "--point", "[]"], {"code": 0}, None),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke check failed: {what}")


def check_metrics(printed: dict, names: list, spec_metrics: list, result: dict, what: str) -> None:
    for name in names:
        expect(name in printed, f"{what}: {name} not printed")
        expect(bool(printed[name]["unit"]), f"{what}: {name} has no unit")
    wanted = {m["name"]: m["unit"] for m in spec_metrics}
    expect(set(result["metrics"]) == set(wanted), f"{what}: result metrics differ from BENCHMARK.json")
    for name, unit in wanted.items():
        expect(result["metrics"][name]["unit"] == unit, f"{what}: {name} unit is not {unit}")


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in bench.WORKLOAD_NAMES:
        def force(wl, name=name):
            wl.pool.insert(0, FORCED[name](wl.bd))

        summary, result = bench.run(name, 5, 1.0, False, tiny=True, probes=0, mutate=force)
        check_metrics(summary["metrics"], END_TO_END[name], spec["end_to_end"], result, f"{name} untraced")
        forced = summary["failures"].get("unexpected", 0)
        expect(forced >= 1, f"{name}: forced op not counted as a failure")
        expect(result["failed"] >= forced, f"{name}: failed below the forced failures")
        expect(not result["correct"], f"{name}: forced failure left the run marked correct")
        ratio = summary["metrics"]["fail_ratio"]["value"]
        expect(ratio == result["failed"] / result["attempted"], f"{name}: fail_ratio is not failed/attempted")

        summary, result = bench.run(name, 5, 1.0, True, tiny=True, probes=0)
        per_layer = [m["name"] for m in spec["per_layer"]] + [f"{n}.self_s" for n in tracing.SPAN_NAMES]
        check_metrics(summary["metrics"], per_layer, spec["per_layer"], result, f"{name} traced")
        expect(result["correct"], f"{name}: traced tiny run found an unexpected failure")
        expect(result["failed"] == 0, f"{name}: a timed op failed without being forced to")
        for cls, count in summary["known_defects"].items():
            expect(int(count.split("/")[1]) >= 1, f"{name}: known defect {cls} was not reproduced")
        print(f"{name}: ok ({result['attempted']} ops in the traced run, failures {summary['failures']})")

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verdicts", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, "run.py last line has other keys")
    print("run.py: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
