"""Which lines of ``src/eqseq`` the tier-1 tests never run, per function.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
collector (no coverage package needed) and prints, for every function with
lines that never ran, its file, name and those lines.  There is no
threshold: the report is for reading, and the exit status is 0 whatever the
suite's outcome, which the tier-1 step reports.  Tracing makes the suite
several times slower, so wall-clock bounds in the tests may not hold here.

Run from the repository root:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]
"""
from __future__ import annotations

import pathlib
import sys
import threading
import types

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src" / "eqseq")


def _collect(argv: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit status and the ``(file, line)`` pairs it ran in ``SRC``."""
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def _functions(path: pathlib.Path):
    """``(qualified name, executable lines)`` of every function in ``path``;
    the ``def`` line itself is left out, as no line event reports it."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_name != "<module>":
            lines = {line for _, _, line in code.co_lines() if line is not None}
            yield getattr(code, "co_qualname", code.co_name), lines - {code.co_firstlineno}


def _ranges(lines: list[int]) -> str:
    out: list[str] = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    status, ran = _collect(argv)
    total = missed = 0
    for path in sorted(pathlib.Path(SRC).glob("*.py")):
        report = []
        for name, lines in _functions(path):
            never = sorted(line for line in lines if (str(path), line) not in ran)
            total += len(lines)
            missed += len(never)
            if never:
                report.append((min(never), f"{path.name}:{name}: {_ranges(never)}"))
        for _, line in sorted(report):
            print(line)
    print(f"{missed} of {total} executable lines in functions never ran (pytest exit status {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
