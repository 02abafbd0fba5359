"""Every function, class and method in the package has a caller.

A name counts as used when the package, the tests or the benchmark refer to
it: as a name, as an attribute, in an import, or as a string constant that
looks like an identifier. String constants count because some names are
looked up by string, such as the functions the benchmark's tracer patches
and the commands the CLI tests invoke. Words in comments and docstrings do
not count. Dunder methods are called by the language and are left out.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "txmonsim"
SEARCHED = ("src", "tests", "perfbench")


def _definitions() -> set[str]:
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes."""
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        defined.add(member.name)
    return defined


def _references(tree: ast.AST) -> Counter:
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
    return refs


def test_every_definition_is_referenced():
    refs: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    unused = sorted(name for name in _definitions() if not refs[name])
    assert unused == []
