"""The import budget: what a run never calls is never loaded.

Beside the event, connection and segment budgets of
``test_event_budget.py``: those price a packet, this prices starting the
process.  numpy and scipy serve one function (the Fig. 7 LP relaxation,
``IlpSolver._lp_round``) and used to be imported by every process that
touched ``repro.workload`` -- 0.5 s and 58 MiB on each CLI call, pytest
process and benchmark run (DESIGN section 5, "Import").

Each case runs in a fresh interpreter: this pytest process has the stack
loaded by the solver tests.
"""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.assignment import AssignmentProblem, InstanceSpec, VipSpec, ilp

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = ("import repro, repro.chaos.scenario, repro.experiments.harness, "
           "repro.cli, repro.core.assignment\n")
BLOCK_STACK = ("import sys\n"
               "sys.modules['numpy'] = sys.modules['scipy'] = None\n")
# 25 VIPs on 30 instances, seeded: the LP has work to do and greedy a
# packing the pins can only match or beat
SOLVE = """
import random
from repro.core.assignment import (AssignmentProblem, IlpSolver, InstanceSpec,
                                   VipSpec, solve_greedy, validate_assignment)
random.seed(3)
vips = [VipSpec(f"v{i}", random.uniform(5, 80), random.randint(10, 900),
                random.randint(1, 3)) for i in range(25)]
problem = AssignmentProblem(
    vips=vips, instances=[InstanceSpec(f"y{i}", 100.0, 5000) for i in range(30)])
solver = IlpSolver(enforce_update_constraints=False)
"""

# modules in sys.modules after IMPORTS, measured on CPython 3.11.7 with
# this change (897 before it: numpy* 144, scipy* 321, and the stdlib
# modules only they pull in)
MEASURED_MODULES = 230
MAX_MODULES = int(MEASURED_MODULES * 1.15)

needs_stack = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="scipy not installed")


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


def test_everything_but_the_lp_runs_without_the_stack():
    """The imports succeed, a testbed serves a fetch, and the solver falls
    back to what it always did where scipy was missing: no pins, greedy +
    compaction, validated against Eq. 1-7."""
    out = fresh_python(BLOCK_STACK + IMPORTS + SOLVE + """
from repro.experiments.harness import Testbed, TestbedConfig
bed = Testbed(TestbedConfig(lb="yoda", num_lb_instances=2, num_store_servers=2,
                            num_backends=2, corpus="flat"))
procs = bed.closed_loop(1, max_pages=1)
bed.run(5.0)
pages = [r for p in procs for r in p.results]
assert pages and not any(r.broken for r in pages), pages
assignment = solver.solve(problem)
assert validate_assignment(problem, assignment).ok
assert solver.lp_lower_bound is None
assert (assignment.num_instances_used()
        <= solve_greedy(problem).num_instances_used())
print("ok")
""")
    assert out.split() == ["ok"]


@needs_stack
def test_the_lp_loads_the_stack_when_it_solves_and_not_before():
    out = fresh_python(IMPORTS + SOLVE + """
import sys
assert "numpy" not in sys.modules and "scipy" not in sys.modules
assignment = solver.solve(problem)
assert validate_assignment(problem, assignment).ok
assert solver.lp_lower_bound is not None  # went through _lp_round
assert "scipy.optimize" in sys.modules and "scipy.sparse" in sys.modules
print("ok")
""")
    assert out.split() == ["ok"]


def test_solve_seconds_does_not_time_the_import(monkeypatch):
    """fig16's ``solve_s`` is ``Assignment.solve_seconds``: the loader runs
    before the clock is first read, or the first solve of a process
    reports the one-off import as solver time."""
    order = []
    load = ilp._load_lp_stack

    class Clock:
        @staticmethod
        def perf_counter():
            order.append("clock")
            return 0.0

    monkeypatch.setattr(ilp, "_load_lp_stack",
                        lambda: order.append("load") or load())
    monkeypatch.setattr(ilp, "time", Clock)
    problem = AssignmentProblem(
        vips=[VipSpec("v", 10.0, 10, 1)],
        instances=[InstanceSpec("y0", 100.0, 5000)])
    ilp.IlpSolver().solve(problem)
    assert order == ["load", "clock", "clock"]


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
