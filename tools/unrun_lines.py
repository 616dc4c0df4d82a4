"""List the lines under ``src/fraccore`` that the test suite never runs.

Usage (from anywhere; the tool runs from the repository root):

    python3 tools/unrun_lines.py [PYTEST ARGS ...]

Runs pytest in-process, with ``-q`` and the given arguments, under a
``sys.settrace`` tracer that follows only frames whose code lies under
``src/fraccore``.  The tracer is installed before fraccore is imported, so
module-level lines count too.  Afterwards every executable line of every
module, read from its code objects' ``co_lines``, that no frame reached is
printed as ``path:line: source``.  Exits with pytest's status if the tests
failed, else 1 if any line never ran, else 0.  Standard library only, apart
from the pytest it runs.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fraccore"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in any code object of ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 marks a module's entry instruction, which no line event reports
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    tracers: dict = {}  # co_filename -> its line tracer, or None outside PACKAGE

    def line_tracer(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        seen = ran.setdefault(path, set())

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = line_tracer(filename)
        local = tracers[filename]
        if local is not None:
            local(frame, event, arg)  # the call event's line counts too
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        status = pytest.main(["-q", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missing = sorted(executable_lines(path) - ran.get(str(path), set()))
        source = path.read_text().splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        unrun += len(missing)
    print(f"{unrun} line(s) under {PACKAGE.relative_to(ROOT)} never ran")
    if status != 0:
        return int(status)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
