"""Every function and class in ``src/repro`` is named somewhere else.

A definition whose name occurs in no file of ``src``, ``tests``,
``benchmarks`` or ``examples`` besides the definition itself has no
caller, no test and no reader: it is dead code, and the next change that
makes one fails here with its location.  The match is textual (a name in a
``getattr`` string or a document counts as a use), so the check only ever
errs towards keeping a definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "examples")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions():
    """(name, "path:line") of every non-dunder def and class in src/repro."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_definition_is_named_somewhere_else():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".md") and "__pycache__" not in path.parts:
                words.update(_WORD.findall(path.read_text(errors="replace")))
    defined = Counter()
    where = {}
    for name, site in _definitions():
        defined[name] += 1
        where.setdefault(name, []).append(site)
    dead = sorted(site for name, count in defined.items()
                  if words[name] <= count for site in where[name])
    assert not dead, (
        f"{len(dead)} definition(s) named nowhere but where they are "
        f"defined: {', '.join(dead)}")
