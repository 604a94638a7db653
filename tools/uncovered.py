"""List the src/limitlab lines that the test suite never runs.

    python tools/uncovered.py

Stdlib only.  A line tracer starts before pytest imports anything, so
module-level lines count too; the suite then runs as `python -m pytest`
runs it, and every executable line that never ran is printed as
`file:line: source`, followed by a total.  Executable lines are the line
numbers of each compiled module's code objects (`co_lines`).  A traced run
takes several times as long as an untraced one, so this script is not part
of the suite.

One test is deselected: `test_search_leaves_no_reference_cycle` counts
cyclic garbage, and a trace function keeps frames alive, so it fails under
any tracer and passes without one.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "limitlab"
DESELECT = (
    "tests/test_structures.py::TestEmbedding"
    "::test_search_leaves_no_reference_cycle"
)


def executable_lines(path):
    """Line numbers that carry instructions in the module or in any code
    object nested in it.  A function's own first line is left to the code
    that defines it: only a call event, not a line event, fires there; a
    module's set-up instructions sit on line 0."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        first = None if code.co_name == "<module>" else code.co_firstlineno
        lines.update(n for _, _, n in code.co_lines() if n and n != first)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def line_tracer(ran):
    """A local trace function that adds each line it sees run to `ran`."""
    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    return local


def main():
    files = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    tracers = {name: line_tracer(ran) for name, ran in files.items()}

    def on_call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        import pytest

        status = pytest.main([
            "-q", "--continue-on-collection-errors", "--rootdir", str(ROOT),
            "--deselect", DESELECT, str(ROOT / "tests"),
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for filename, ran in files.items():
        path = Path(filename)
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - ran):
            missed += 1
            print("%s:%d: %s"
                  % (path.relative_to(ROOT), n, source[n - 1].strip()))
    print("%d of %d executable src/limitlab lines never ran" % (missed, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
