"""Line audit: which source lines of ``banachdiff`` does the test suite never run?

A dependency-free pytest plugin (``coverage`` is not needed).  Run it with

    PYTHONPATH=src:tools python -m pytest -q -p line_audit

It traces every thread with ``sys.settrace`` for the whole session, records
each line of ``src/banachdiff`` that runs, and at the end prints every
executable line (a line the compiler gives bytecode) that never ran, as
``module.py:LINE  source``.  Code run only in subprocesses (``__main__.py``,
the console script) is not followed and is reported as unexecuted.

The tracer runs for every call into the package and allocates whenever it
records a line for the first time, so tests that bound run time or traced
memory can fail under it although they pass untraced.  The closest is
``test_estimate_peak_is_bounded_by_the_chunk[256]``: its bound is 2.20 MB,
and it read 2.14 MB both untraced and under this plugin (2-core x86 VM,
Python 3.11, numpy 2.4); a tracer that allocates more per event can push it
over.  The untraced suite stays the judge of pass and fail; this plugin
only reports lines.
"""

import sys
import threading
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "banachdiff"
_PREFIX = str(SOURCE) + "/"
_seen: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _seen.setdefault(name, set()).add(frame.f_lineno)
    return _local


def executable_lines(path):
    """Every line number that carries bytecode in the module at ``path``."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unexecuted():
    """``[(path, line)]`` of executable lines that no traced code ran."""
    missed = []
    for path in sorted(SOURCE.glob("*.py")):
        ran = _seen.get(str(path), set())
        missed.extend((path, line) for line in sorted(executable_lines(path) - ran))
    return missed


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = unexecuted()
    write = terminalreporter.write_line
    terminalreporter.section(f"line audit: {len(missed)} executable lines never ran")
    sources = {}
    for path, line in missed:
        text = sources.setdefault(path, path.read_text(encoding="utf-8").splitlines())
        write(f"{path.name}:{line}  {text[line - 1].strip()}")
