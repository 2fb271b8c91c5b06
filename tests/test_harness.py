"""The harnesses around the checks: acceptance criteria and the test run."""

import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from banachdiff import acceptance


def test_a_criterion_fails_past_its_runtime_bound(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", [])

    @acceptance._criterion(1, "late", bound=0.01)
    def late(seed):
        time.sleep(0.05)
        return True, f"seed {seed}"

    @acceptance._criterion(2, "on time", bound=60.0)
    def on_time(seed):
        return True, f"seed {seed}"

    @acceptance._criterion(3, "unbounded")
    def unbounded(seed):
        time.sleep(0.02)
        return False, "its own failure"

    results = acceptance.run_all(5)
    assert [(r.number, r.name, r.passed) for r in results] == [
        (1, "late", False),
        (2, "on time", True),
        (3, "unbounded", False),
    ]
    first, second, third = results
    assert first.elapsed >= 0.05
    assert re.fullmatch(r"seed 5; runtime \d+\.\ds exceeded 0\.01s target", first.detail)
    assert second.detail == "seed 5"
    assert third.detail == "its own failure" and third.elapsed >= 0.02
    assert on_time().detail == f"seed {acceptance.BASE_SEED}"


_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # under filterwarnings = ["error"], a failing hypothesis test once ended
    # the session with an INTERNALERROR before the tests after it ran
    tests = Path(__file__).parent
    shutil.copy(tests / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(tests.parent / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr


def test_the_benchmark_traces_only_names_the_program_has():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.WRAPPED) == 26
    for module, attribute, _span in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (module, attribute)
