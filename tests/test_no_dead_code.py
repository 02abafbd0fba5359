"""Every function, class and method in the package has a caller in the
package.

A name counts as used when the package refers to it: as a name, as an
attribute, in an import, or as a string constant that looks like an
identifier. String constants count because some names are looked up by
string. Words in comments and docstrings do not count. Dunder methods are
called by the language and are left out.

Public API that nothing in the package calls is listed in `SRC_UNCALLED`,
each name with a comment on why it stays. Those names still need a
reference from the tests or the benchmark, and a listed name that gains a
package caller or goes away must leave the list.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "txmonsim"

SRC_UNCALLED = frozenset({
    # The library's one-call checker, for callers of run_transaction.
    "check_all",
    # Needs the digest taken before the run, which only a caller of
    # run_transaction holds, so check_all cannot run it.
    "check_atomicity",
    # click commands: the CLI group dispatches to them by name.
    "diff",
    "explain",
    "suite",
    # perfbench/tracing.py patches it by name as part of core.state_update.
    "with_account",
})


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


def _referenced_from(*tops: str) -> Counter:
    refs: Counter = Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    return refs


def test_every_definition_is_referenced():
    defined = _definitions()
    in_src = _referenced_from("src")
    unused = sorted(name for name in defined if not in_src[name] and name not in SRC_UNCALLED)
    assert unused == []
    stale = sorted(name for name in SRC_UNCALLED if name not in defined or in_src[name])
    assert stale == []
    outside = _referenced_from("tests", "perfbench")
    assert sorted(name for name in SRC_UNCALLED if not outside[name]) == []
