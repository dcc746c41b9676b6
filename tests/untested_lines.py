"""Print the lines of ``src/frieze`` that the test suite never runs.

    python tests/untested_lines.py [PYTEST ARGS]

Runs the suite in this process with ``pytest.main`` (default arguments as
the plain ``python -m pytest`` run: the ``slow`` tests stay deselected),
under a ``sys.settrace`` hook that records each line executed in a file
of ``src/frieze`` and ignores every other file.  The lines that can run
are those the compiled code objects of each file list in ``co_lines``,
which is what the hook can see.  Each one never reached is printed as
``path:line: source``, then a count; the exit code is pytest's.  Code
that only a subprocess runs (``python -m frieze``) counts as never run.
Tracing makes the suite about three times slower.  Stdlib only, apart
from the pytest that runs the suite; pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frieze"


def runnable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` can report."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args`` and the lines run in each package file."""
    import pytest

    seen: dict[str, set[int]] = {}
    local_for: dict[str, object] = {}  # co_filename -> its line hook, or None

    def hook_for(filename: str):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != str(PACKAGE):
            return None
        lines = seen.setdefault(path, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_for:
            local_for[filename] = hook_for(filename)
        local = local_for[filename]
        return local and local(frame, event, arg)

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, seen = traced_run(argv or ["-q", "-p", "no:cacheprovider"])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(runnable_lines(path) - seen.get(str(path.resolve()), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/frieze never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
