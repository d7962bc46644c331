"""Every defaulted parameter in ``src/repro`` is passed by program code.

A parameter with a default is an option in a signature.  When no program
passes it, the one value in use is the default, and the parameter is a
constant kept as a knob (the rule ``test_field_budget`` states for config
fields).  Program code is what ``test_no_dead_definitions`` counts: a
``src`` module other than an ``__init__.py``, ``benchmarks/`` and
``examples/``.

A parameter counts as passed when a call there names its function (a bare
name or an attribute; a class name for ``__init__``) and supplies it by
keyword, or by position, or could through a ``*`` or ``**`` splat.  A
callback handed to ``call_later``, ``call_at`` or ``partial`` counts as
called with the arguments handed along with it, and ``super().__init__``
calls the bases of the enclosing class.  The match is by bare name, as in
the definitions rule, so the check only ever errs towards keeping a
parameter.
"""

import ast
from collections import defaultdict

from tests.test_no_dead_definitions import SRC, _program_files

# parameters only tests pass, kept on purpose; one reason each
ALLOWED = {
    "cli.py::main(argv)":
        "the entry point the CLI tests drive in-process",
    "core/assignment/exact.py::solve_exact(time_budget)":
        "the oracle, whose time-out test needs a short budget",
    "http/client.py::HttpsFetcher.__init__(session_cache)":
        "the client half of TLS ticket resumption, which the servers' "
        "tls_session_tickets option issues tickets for",
    "http/server.py::BackendHttpServer.__init__(progress_deadline)":
        "the slow-loris guard: safety code on outside input, like the "
        "instances' header_deadline",
}

# callee -> index of the callback among its positional arguments
_CALLBACK_AT = {"call_later": 1, "call_at": 1, "partial": 0}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _supplied(args, keywords):
    """(positional count, a ``*`` splat, keyword names, a ``**`` splat)."""
    return (sum(1 for a in args if not isinstance(a, ast.Starred)),
            any(isinstance(a, ast.Starred) for a in args),
            {k.arg for k in keywords if k.arg is not None},
            any(k.arg is None for k in keywords))


def _calls(tree):
    """(callee name, what the call supplies) for every call in ``tree``."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and _name(func.value.func) == "super"
                        and cls is not None):
                    names = [_name(base) for base in cls.bases]
                else:
                    names = [_name(func)]
                supplied = _supplied(child.args, child.keywords)
                for name in filter(None, names):
                    out.append((name, supplied))
                at = _CALLBACK_AT.get(_name(func))
                if at is not None and len(child.args) > at:
                    callback = _name(child.args[at])
                    if callback is not None:
                        out.append((callback, _supplied(
                            child.args[at + 1:],
                            child.keywords if at == 0 else [])))
            visit(child, cls)

    visit(tree, None)
    return out


def _parameters(path, tree):
    """(site, callee name, parameter, positional index or None) of every
    defaulted parameter; the index does not count ``self`` / ``cls``."""
    rel = path.relative_to(SRC).as_posix()

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(_name(d) == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if cls is not None and not static else 0
                callee = (cls.name if cls is not None
                          and child.name == "__init__" else child.name)
                qual = prefix + child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield f"{rel}::{qual}({arg.arg})", callee, arg.arg, i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{rel}::{qual}({arg.arg})", callee, arg.arg, None
                yield from walk(child, qual + ".", None)
            else:
                yield from walk(child, prefix, cls)

    yield from walk(tree, "", None)


def _unpassed():
    calls = defaultdict(list)
    for path in _program_files():
        for name, supplied in _calls(ast.parse(path.read_text(), str(path))):
            calls[name].append(supplied)
    unpassed = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for site, callee, param, index in _parameters(path, tree):
            if not any(param in keywords or double_star
                       or (index is not None and (count > index or star))
                       for count, star, keywords, double_star in calls[callee]):
                unpassed.append(site)
    return unpassed


def test_every_defaulted_parameter_is_passed_by_a_program():
    unpassed = [site for site in _unpassed() if site not in ALLOWED]
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameter(s) no program passes (the "
        f"default is the one value in use; make it a constant): "
        f"{', '.join(unpassed)}")


def test_every_allowed_parameter_is_still_defined_and_still_unpassed():
    stale = sorted(set(ALLOWED) - set(_unpassed()))
    assert not stale, (
        f"allow-listed parameter(s) now passed by program code or gone: "
        f"{stale}")
