"""List the statements of `src/cirlab` that a pytest run never executes.

Stdlib only: a `sys.settrace` hook records the lines run in frames whose code
lives under `src/cirlab`, and every other frame runs untraced. A statement
counts as run when any of its own lines ran (for a compound statement, the
lines of its header, not of its body); one whose lines hold no bytecode (a
docstring, `pass`) is never listed. Code run in a subprocess is not seen.
Prints one `file:line: source` row per statement no test ran, then a count.
Arguments go to pytest; without any it runs the tier-1 suite:

    python tools/line_coverage.py
    python tools/line_coverage.py tests/test_validate.py -x
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cirlab"


def _executable(code) -> set[int]:
    """The lines holding bytecode of `code` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _statements(tree: ast.AST):
    """(first line, own lines) of each statement: a compound statement owns
    the lines up to its first body statement, any other all of its lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body:
                last = body[0].lineno - 1
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    last = node.lineno  # the decorators and the signature's first line
            else:
                last = node.end_lineno
            first = min([node.lineno, *[d.lineno for d in getattr(node, "decorator_list", [])]])
            yield first, range(first, last + 1)


def unrun(ran: set[tuple[str, int]]) -> list[tuple[Path, int, str]]:
    """(file, line, source) of each statement under `PACKAGE` none of whose
    lines with bytecode is in `ran`."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        executable = _executable(compile(text, str(path), "exec"))
        lines = text.splitlines()
        seen = {line for f, line in ran if f == str(path)}
        for first, own in sorted(_statements(ast.parse(text)), key=lambda s: s[0]):
            code = executable.intersection(own)
            if code and not code & seen:
                out.append((path, first, lines[first - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE)
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    rows = unrun(ran)
    for path, line, source in rows:
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(rows)} statement(s) of src/cirlab not run; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
