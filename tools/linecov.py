"""List the function lines of the package that the test suite never runs.

    python3 tools/linecov.py [PYTEST_ARGS...]

The script runs pytest in this process (by default with the tier-1
arguments `-q --continue-on-collection-errors`, from the repository root)
under a `sys.settrace` collector that traces only frames of files in
`src/txmonsim`. It then prints, per module, every statement inside a
function body that produced no line event, as `module.py:LINE  source`.

Only function bodies count: module and class bodies run at import. A
statement counts as reached when any line of it produced an event (the
header only, for a compound statement), since a statement spread over
several lines may start its bytecode on a later one. Not listed: docstrings
and `global`/`nonlocal` declarations, which emit no line events, and `try:`
headers. Code that runs in a child interpreter (a CLI test that starts one)
is not seen. Tracing makes the suite about three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "txmonsim"
TIER1 = ["-q", "--continue-on-collection-errors"]


def collect(run):
    """Run `run()`; return its result and the lines each package file
    executed."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, hits


def _spans(body: list[ast.stmt]):
    """(first line, last line) of each statement in `body` and below, the
    header only for a compound statement; function and class bodies are
    left to `function_spans`."""
    for i, node in enumerate(body):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if i == 0 and isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue  # a docstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            yield first, node.body[0].lineno - 1
            continue
        inner = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
        inner += [h.body for h in getattr(node, "handlers", [])]
        inner += [c.body for c in getattr(node, "cases", [])]
        nested = [stmt for block in inner for stmt in block]
        if not nested:
            yield node.lineno, node.end_lineno
            continue
        if not isinstance(node, ast.Try):
            yield node.lineno, min(stmt.lineno for stmt in nested) - 1
        for block in inner:
            yield from _spans(block)


def function_spans(tree: ast.Module):
    """The statement spans of every function body in the module, nested
    functions and methods included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _spans(node.body)


def unreached(path: Path, hit: set[int]) -> list[int]:
    """First lines of the function statements in `path` that `hit` misses."""
    return sorted(
        first for first, last in set(function_spans(ast.parse(path.read_text())))
        if not any(line in hit for line in range(first, last + 1))
    )


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = collect(lambda: pytest.main(argv or TIER1))
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        missed = unreached(path, hits.get(str(path), set()))
        print(f"{path.name}: {len(missed)} unreached function lines")
        for n in missed:
            print(f"  {path.name}:{n}  {lines[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
