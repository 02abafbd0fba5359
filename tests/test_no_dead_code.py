"""Every function, class and method in the package has a caller.

A name counts as used when it appears, as a whole word, more often in the
package, the tests and the benchmark than it is defined. Text
matching also sees names that are looked up by string, such as the functions
the benchmark's tracer patches. Dunder methods are called by the language
and are left out.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "txmonsim"
SEARCHED = ("src", "tests", "perfbench")


def _definitions() -> Counter:
    """Definition sites per name: module-level functions and classes, and
    the non-dunder methods of module-level classes."""
    defined: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] += 1
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        defined[member.name] += 1
    return defined


def test_every_definition_is_referenced():
    text = "\n".join(
        path.read_text() for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    unused = sorted(name for name, sites in _definitions().items() if words[name] <= sites)
    assert unused == []
