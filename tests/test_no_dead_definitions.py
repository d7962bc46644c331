"""Every function and class in ``src/repro`` is used by code other than tests.

A definition counts as used only when program code names it: a ``Name``,
an ``Attribute``, an import alias, or an identifier-shaped string constant
(what ``getattr`` takes), found in a ``src`` module that is not an
``__init__.py``, in ``benchmarks/`` or in ``examples/``, outside the
definition's own body.  Docstrings, comments, documents, ``__init__``
re-exports and ``tests/`` do not count: a definition that only its own unit
test and an export name is dead, and the next change that makes one fails
here with its location.  The match is by bare name, so a definition shares
the uses of every other definition or attribute of the same name, and the
check only ever errs towards keeping one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# reference implementations that tests hold the program's answer against;
# one reason each
ORACLES = {
    "core/assignment/exact.py::solve_exact":
        "the exact Eq. 1-7 optimum the assignment solvers are checked "
        "against (ROADMAP 8(c))",
    "core/instance.py::YodaInstance._delta":
        "the unfolded sequence translation test_seqtrans_properties checks "
        "the folded per-packet arithmetic against",
}


def _program_files():
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            yield path
    for top in ("benchmarks", "examples"):
        yield from sorted((ROOT / top).rglob("*.py"))


def _references(tree):
    """Count every name the code under ``tree`` refers to."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)}
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENT.match(node.value) and id(node) not in docstrings):
            names[node.value] += 1
    return names


def _definitions(path, tree):
    """(qualified name, bare name, node) of every non-dunder def and class."""
    rel = path.relative_to(SRC).as_posix()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    yield f"{rel}::{qual}", child.name, child
                yield from walk(child, qual + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _unused():
    uses = Counter()
    for path in _program_files():
        uses.update(_references(ast.parse(path.read_text(), str(path))))
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qual, name, node in _definitions(path, tree):
            inside = (_references(node)[name]
                      if path.name != "__init__.py" else 0)
            if uses[name] - inside <= 0:
                unused.append(f"{qual} (line {node.lineno})")
    return unused


def test_every_definition_is_named_somewhere_else():
    dead = [site for site in _unused() if site.split(" ")[0] not in ORACLES]
    assert not dead, (
        f"{len(dead)} definition(s) used by no program code (named only by "
        f"tests, exports or themselves): {', '.join(dead)}")


def test_every_oracle_is_still_defined_and_still_unused():
    unused = {site.split(" ")[0] for site in _unused()}
    stale = sorted(set(ORACLES) - unused)
    assert not stale, (
        f"allow-listed oracle(s) now used by program code or gone: {stale}")


def _unused_imports():
    """``module:line name`` for every name that an import in a ``src/repro``
    module other than an ``__init__.py`` binds and the module never names
    again (the lint job's F401, without ruff)."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        uses = _references(tree)
        bound = []
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                uses -= _references(node)  # an import does not use itself
                bound += [(node.lineno, a.asname or a.name.partition(".")[0])
                          for a in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:  # a string annotation, e.g. "Dict[str, _Entry]"
                    uses.update(_references(ast.parse(node.value, mode="eval")))
                except (SyntaxError, ValueError):
                    pass
        rel = path.relative_to(SRC).as_posix()
        unused += [f"{rel}:{line} {name}" for line, name in bound
                   if uses[name] <= 0]
    return unused


def test_every_import_is_used():
    unused = _unused_imports()
    assert not unused, (
        f"{len(unused)} imported name(s) never used: {', '.join(unused)}")
