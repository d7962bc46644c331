"""The import budget: what a run never calls is never loaded.

Beside the event, connection and segment budgets of
``test_event_budget.py``: those price a packet, this prices starting the
process.  numpy and scipy once served one function, the Fig. 7 LP
relaxation, and used to be imported by every process that touched
``repro.workload`` -- 0.5 s and 58 MiB on each CLI call, pytest process
and benchmark run (DESIGN section 5, "Import").  The LP is gone and the
package imports nothing outside the standard library.

Each case but the AST walk runs in a fresh interpreter, so that what this
pytest process has loaded does not count.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = ("import repro, repro.chaos.scenario, repro.experiments.harness, "
           "repro.cli, repro.core.assignment\n")
BLOCK_STACK = ("import sys\n"
               "sys.modules['numpy'] = sys.modules['scipy'] = None\n")

# modules in sys.modules after IMPORTS, measured on CPython 3.11.7 when
# numpy and scipy left the import path (897 before: numpy* 144, scipy*
# 321, and the stdlib modules only they pull in)
MEASURED_MODULES = 230
MAX_MODULES = int(MEASURED_MODULES * 1.15)


def fresh_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_run_imports_the_solver_stack():
    out = fresh_python(IMPORTS + "import sys\nprint('\\n'.join(sys.modules))")
    modules = out.split()
    stack = [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]
    largest = Counter(m.split(".")[0] for m in modules).most_common(12)
    assert not stack, f"{len(stack)} solver-stack modules loaded: {stack[:8]}"
    assert len(modules) <= MAX_MODULES, (
        f"{len(modules)} modules after import (measured {MEASURED_MODULES}, "
        f"budget {MAX_MODULES}); largest packages: {largest}")


def test_a_testbed_serves_a_fetch_without_the_stack():
    out = fresh_python(BLOCK_STACK + IMPORTS + """
from repro.experiments.harness import Testbed, TestbedConfig
bed = Testbed(TestbedConfig(lb="yoda", num_lb_instances=2, num_store_servers=2,
                            num_backends=2, corpus="flat"))
procs = bed.closed_loop(1)
bed.run(5.0)
pages = [r for p in procs for r in p.results]
assert pages and not any(r.broken for r in pages), pages
print("ok")
""")
    assert out.split() == ["ok"]


def test_every_import_is_stdlib_or_repro():
    """The package has no third-party dependency: every ``import`` under
    ``src/repro`` names ``repro`` or a standard-library module."""
    foreign = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    foreign.append(
                        f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert not foreign, foreign


def test_chaos_cli_needs_no_solver_stack():
    out = fresh_python(BLOCK_STACK + """
import runpy
sys.argv = ["repro", "chaos", "--list"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as done:
    assert done.code == 0, done.code
""")
    assert "store-partition" in out
