#!/usr/bin/env python3
"""banachdiff benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2     # every workload, one after another

One process drives one workload with a single client that sends its next
operation only after the previous one returned.  Inputs come from ``--seed``.
The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same ops and prints the per-layer
metrics plus the tracing overhead.  The second-to-last stdout line
is a summary with every metric of the run and its unit; the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` names.  A run record (machine, commit, seed,
thread settings, failures by class) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("verdicts", "measure", "cli")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median
WARM_SEED = 0
PROBE_TIMEOUT_S = 120

# The host is shared: its speed drifts by up to 1.7x over minutes.  The
# timed loop therefore runs a fixed calibration, which never touches
# banachdiff, every CAL_PERIOD_S, and the loop timings are reported as on a
# host where it takes CAL_REF_S.
CAL_PERIOD_S = 0.5
CAL_REF_S = 0.015
# exponent of host speed (CAL_REF_S over the median calibration) per metric.
# setup_s is left out: set-up reads hundreds of files, and its time did not
# follow the calibration.
SPEED_SCALED = {"op_p50_ms": 1, "op_p99_ms": 1, "ok_ops_per_s": -1, "rows_per_s": -1}

UNITS = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "rows_per_s": "1/s",
    "mc_outside_3sigma": "count",
    "fail_ratio": "ratio",
    "inconclusive_ratio": "ratio",
    "peak_rss_mb": "MB",
    "host_speed": "ratio",
}


def calibrate(buf) -> float:
    """Seconds for fixed interpreter, sort and large-array work on ``buf``.

    It never touches banachdiff.  On a shared 2-core host the time of a
    verdicts or cli pass followed it with a log-log slope of 0.97 and 1.14.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(40000):
        x += i * i
    np.sort(buf)
    np.partition(np.abs(np.random.default_rng(1).standard_normal(1 << 18)), 1000)
    return time.perf_counter() - t0


def import_program(name: str):
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    mod = importlib.import_module("banachdiff.cli" if name == "cli" else "banachdiff")
    if not os.path.abspath(mod.__file__).startswith(src + os.sep):
        raise ImportError(f"banachdiff was imported from {mod.__file__}, not from {src}")
    return sys.modules["banachdiff"]


def setup(name: str, workdir: str):
    """Import the program and warm it up; returns (package, seconds spent)."""
    t0 = time.perf_counter()
    bd = import_program(name)
    spent = time.perf_counter() - t0
    import workloads

    warm = workloads.WORKLOADS[name](bd, WARM_SEED, tiny=True, workdir=workdir)
    t1 = time.perf_counter()
    for op in warm.pool:
        try:
            warm.run(op)
        except Exception:  # a failing op is counted in the timed run, not here
            pass
    return bd, spent + time.perf_counter() - t1


def probe_setup(name: str, workdir: str) -> float:
    """Set-up time of a fresh process, which warms up in ``workdir`` too."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_loop(wl, seconds: float, run=None, ops: int | None = None, cal: list | None = None) -> dict:
    """Closed loop over the pool until ``seconds`` have passed or ``ops`` ran.

    With a ``cal`` list, a calibration time is appended to it before the
    first op and then every CAL_PERIOD_S; ``wall`` leaves that time out.
    """
    run = run or wl.run
    pool, n = wl.pool, len(wl.pool)
    lat, outcomes = [], []
    i = 0
    if cal is not None:
        import numpy as np

        buf = np.random.default_rng(0).random(1 << 17)
    next_cal, cal_spent = 0.0, 0.0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while i != ops:
        if cal is not None and time.perf_counter() >= next_cal:
            cal.append(calibrate(buf))
            cal_spent += cal[-1]
            next_cal = time.perf_counter() + CAL_PERIOD_S
        idx = i % n
        t0 = time.perf_counter()
        try:
            res = run(pool[idx])
            err = None
        except Exception as exc:  # every escaping exception is a failed op
            res, err = None, (type(exc).__name__, str(exc))
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        outcomes.append((idx, None if err else wl.summarize(idx, res), err))
        i += 1
        if t1 >= deadline:
            break
    return {"lat": lat, "outcomes": outcomes, "wall": t1 - t_start - cal_spent}


def traced_passes(wl, seconds: float, rec) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the pool until time is up.

    Pairing the passes exposes both sides to the same drift in machine
    speed, so their time ratio is the tracing overhead.
    """
    plain = {"lat": [], "outcomes": []}
    traced = {"lat": [], "outcomes": []}
    run = rec.op_runner(wl.run)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for phase, runner in ((plain, None), (traced, run)):
            patches = rec.install() if runner else []
            try:
                done = timed_loop(wl, float("inf"), runner, ops=len(wl.pool))
            finally:
                rec.uninstall(patches)
            phase["lat"] += done["lat"]
            phase["outcomes"] += done["outcomes"]
    return plain, traced


def check_outcomes(wl, outcomes: list) -> tuple[list, dict]:
    """Check every op; returns ok flags and failures by class.

    The timed pools hold no input with a known defect, so every failure here
    makes the run incorrect, whatever its class.
    """
    failures: dict = {}
    ok_flags = []
    for idx, outcome, err in outcomes:
        try:
            verdict = wl.check(idx, outcome, err)
        except Exception as exc:  # a check that cannot run fails the op
            verdict = ("unexpected", f"check raised {type(exc).__name__}: {exc}")
        ok_flags.append(verdict is None)
        if verdict is not None:
            entry = failures.setdefault(verdict[0], {"count": 0, "example": verdict[1]})
            entry["count"] += 1
    return ok_flags, failures


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        probes: int = SETUP_PROBES, mutate=None) -> tuple[dict, dict]:
    """Run one workload; returns (summary, result line)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        bd, own_setup = setup(name, workdir)
        setup_samples = [own_setup] + ([] if trace else [probe_setup(name, workdir) for _ in range(probes)])
        import tracing
        import workloads

        wl = workloads.WORKLOADS[name](bd, seed, tiny=tiny, workdir=workdir)
        if mutate:
            mutate(wl)
        if trace:
            rec = tracing.SpanRecorder()
            plain, traced = traced_passes(wl, seconds, rec)
            phases = [plain, traced]
        else:
            cal: list = []
            phases = [timed_loop(wl, seconds, cal=cal)]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        outcomes = [o for ph in phases for o in ph["outcomes"]]
        ok_flags, failures = check_outcomes(wl, outcomes)
        attempted = len(outcomes)
        failed = attempted - sum(ok_flags)
        correct = not failures

        metrics: dict = {}
        if trace:
            metrics.update(rec.layer_metrics())
            report_bytes = sum(o[1] for _i, o, e in traced["outcomes"] if e is None) if name == "cli" else 0
            metrics["cli.report_bytes"] = (report_bytes / len(traced["outcomes"]), "bytes/op")
            metrics["trace.overhead_ratio"] = (sum(traced["lat"]) / sum(plain["lat"]), "ratio")
        else:
            ph = phases[0]
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["ok_ops_per_s"] = sum(ok_flags) / ph["wall"]
            cuts = statistics.quantiles(ph["lat"], n=100, method="inclusive")
            metrics["op_p50_ms"] = 1e3 * cuts[49]
            if wl.tail_percentile:
                metrics["op_p99_ms"] = 1e3 * cuts[98]
            metrics["fail_ratio"] = failed / attempted
            metrics.update(wl.extra_metrics(ph["outcomes"], ok_flags, ph["wall"]))
            metrics["peak_rss_mb"] = peak_rss_mb
            speed = CAL_REF_S / statistics.median(cal)
            raw = {k: v for k, v in metrics.items() if k in SPEED_SCALED}
            metrics.update({k: v * speed ** SPEED_SCALED[k] for k, v in raw.items()})
            metrics["host_speed"] = speed
            metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "tiny": tiny,
            "commit": git_commit(),
            "machine": machine_info(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "pool_size": len(wl.pool),
            "setup_samples_s": setup_samples,
            "calibration_s": None if trace else cal,
            "unscaled": None if trace else raw,
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
            "failures": failures,
            "known_defects": wl.defects,
            "metrics": metrics,
        }
        stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        if trace:
            with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump(rec.dump(), fh, separators=(",", ":"))

        section = "per_layer" if trace else "end_to_end"
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: metrics[m["name"]] for m in spec[section]},
        }
        summary = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "metrics": metrics,
            "failures": {cls: entry["count"] for cls, entry in failures.items()},
            "known_defects": {cls: f"{d['failed']}/{d['tried']}" for cls, d in wl.defects.items()},
            "record": os.path.relpath(stem + ".json", ROOT),
        }
        return summary, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code
    if args.setup_probe:
        print(setup(args.workload, args.setup_probe)[1])
        return 0
    try:
        summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
