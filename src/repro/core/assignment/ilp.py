"""The Figure 7 ILP, solved by LP relaxation + rounding + greedy repair.

The paper solves the ILP with CPLEX at a 10% optimality gap.  CPLEX is not
available here, so we substitute: scipy's HiGGS LP solver relaxes
x_vy, y_y to [0, 1]; each VIP then keeps its n_v highest-valued instances
(ties broken toward the old assignment to avoid migration); the greedy
solver repairs any capacity violations and fills gaps; finally a
compaction pass tries to close lightly-used instances.  Every result is
validated against Eq. 1-7 exactly (see ``constraints.py``), so
approximation can cost instances but never correctness.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.assignment.constraints import validate_assignment
from repro.core.assignment.greedy import compact_assignment, solve_greedy
from repro.core.assignment.problem import Assignment, AssignmentProblem
from repro.errors import InfeasibleError


def _load_lp_stack():
    """``(numpy, linprog, csr_matrix)``, or None where they are missing.

    Imported here and not at module top: only the LP relaxation uses
    them, and this module is on the import path of every run.
    """
    try:
        import numpy
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    return numpy, linprog, csr_matrix


class IlpSolver:
    """Solve an :class:`AssignmentProblem` approximately.

    Args:
        enforce_update_constraints: include Eq. 4-7 (YODA-limit).  With
            False (YODA-no-limit) the update terms are dropped entirely.
        compact: attempt to empty lightly-loaded instances after rounding.
    """

    def __init__(self, enforce_update_constraints: bool = True,
                 compact: bool = True):
        self.enforce_update_constraints = enforce_update_constraints
        self.compact = compact
        self.lp_lower_bound: Optional[float] = None

    def solve(self, problem: AssignmentProblem) -> Assignment:
        lp_stack = _load_lp_stack()  # before the clock: not solve time
        start = time.perf_counter()
        pinned = self._lp_round(problem, lp_stack) if lp_stack else None
        assignment = solve_greedy(
            problem,
            enforce_update_constraints=self.enforce_update_constraints,
            pinned=pinned,
        )
        if pinned is not None:
            # fractional rule-sharing can make the LP's pins mislead the
            # repair on rule-bound problems; never do worse than greedy
            try:
                plain = solve_greedy(
                    problem,
                    enforce_update_constraints=self.enforce_update_constraints,
                )
                if plain.num_instances_used() < assignment.num_instances_used():
                    assignment = plain
            except InfeasibleError:
                pass
        if self.compact:
            assignment = self._compact(problem, assignment)
        assignment.solver = "ilp-lp-rounding"
        assignment.solve_seconds = time.perf_counter() - start
        report = validate_assignment(
            problem, assignment,
            check_transient=self.enforce_update_constraints,
            check_migration=self.enforce_update_constraints,
        )
        if not report.ok:
            raise InfeasibleError(
                "rounded assignment failed validation: "
                + "; ".join(report.violations[:5])
            )
        return assignment

    # ------------------------------------------------------------ LP phase --
    def _lp_round(self, problem: AssignmentProblem,
                  lp_stack) -> Optional[Dict[str, List[str]]]:
        np, linprog, csr_matrix = lp_stack
        vips, insts = problem.vips, problem.instances
        nv, ny = len(vips), len(insts)
        if nv == 0 or ny == 0:
            return None
        n_x = nv * ny

        def xi(v: int, y: int) -> int:
            return v * ny + y

        def yi(y: int) -> int:
            return n_x + y

        n_vars = n_x + ny
        c = np.zeros(n_vars)
        c[n_x:] = 1.0  # minimize sum of y_y

        # sparse constraint construction: (data, row, col) triplets
        eq_d, eq_r, eq_c = [], [], []
        for v, vip in enumerate(vips):
            for y in range(ny):
                eq_d.append(1.0)
                eq_r.append(v)
                eq_c.append(xi(v, y))
        b_eq = [float(vip.replicas) for vip in vips]
        n_eq = nv

        ub_d, ub_r, ub_c, b_ub = [], [], [], []
        row_idx = 0

        def add_entry(row: int, col: int, val: float) -> None:
            ub_d.append(val)
            ub_r.append(row)
            ub_c.append(col)

        shares = [vip.per_instance_share for vip in vips]
        for y, inst in enumerate(insts):
            # Eq. 1: traffic
            for v in range(nv):
                if shares[v]:
                    add_entry(row_idx, xi(v, y), shares[v])
            add_entry(row_idx, yi(y), -inst.traffic_capacity)
            b_ub.append(0.0)
            row_idx += 1
            # Eq. 2: rules
            for v, vip in enumerate(vips):
                if vip.rules:
                    add_entry(row_idx, xi(v, y), float(vip.rules))
            add_entry(row_idx, yi(y), -float(inst.rule_capacity))
            b_ub.append(0.0)
            row_idx += 1
        # x_vy <= y_y
        for v in range(nv):
            for y in range(ny):
                add_entry(row_idx, xi(v, y), 1.0)
                add_entry(row_idx, yi(y), -1.0)
                b_ub.append(0.0)
                row_idx += 1

        update_mode = (
            self.enforce_update_constraints
            and problem.old_assignment is not None
        )
        if update_mode:
            # Eq. 4-5: transient load.  Old traffic keeps arriving at its
            # old instances until every mux updates; where the VIP stays,
            # the contribution is max(old, new) = old + (new - old)^+ * x.
            for y, inst in enumerate(insts):
                const = 0.0
                for v, vip in enumerate(vips):
                    old = problem.old_share(vip.name, inst.name)
                    if old > 0:
                        const += old
                        coeff = max(shares[v] - old, 0.0)
                    else:
                        coeff = shares[v]
                    if coeff:
                        add_entry(row_idx, xi(v, y), coeff)
                b_ub.append(inst.traffic_capacity - const)
                row_idx += 1
            # Eq. 6-7: migration cap
            if problem.old_connections and problem.migration_limit is not None:
                total = problem.total_connections()
                const = 0.0
                vip_idx = {vip.name: v for v, vip in enumerate(vips)}
                inst_idx = {inst.name: y for y, inst in enumerate(insts)}
                for (vip_name, inst_name), conns in problem.old_connections.items():
                    if vip_name in vip_idx and inst_name in inst_idx:
                        const += conns
                        add_entry(row_idx, xi(vip_idx[vip_name],
                                              inst_idx[inst_name]), -conns)
                b_ub.append(problem.migration_limit * total - const)
                row_idx += 1

        a_eq = csr_matrix((eq_d, (eq_r, eq_c)), shape=(n_eq, n_vars))
        a_ub = csr_matrix((ub_d, (ub_r, ub_c)), shape=(row_idx, n_vars))

        result = linprog(
            c,
            A_ub=a_ub, b_ub=np.array(b_ub),
            A_eq=a_eq, b_eq=np.array(b_eq),
            bounds=[(0.0, 1.0)] * n_vars,
            method="highs",
        )
        if not result.success:
            return None
        self.lp_lower_bound = float(result.fun)
        x = result.x[:n_x].reshape(nv, ny)

        pinned: Dict[str, List[str]] = {}
        for v, vip in enumerate(vips):
            old = set((problem.old_assignment or {}).get(vip.name, []))
            scored = sorted(
                range(ny),
                key=lambda y: (
                    -x[v, y],
                    0 if insts[y].name in old else 1,
                    insts[y].name,
                ),
            )
            pinned[vip.name] = [
                insts[y].name for y in scored[: vip.replicas] if x[v, y] > 1e-6
            ]
        return pinned

    # ------------------------------------------------------- compaction pass --
    def _compact(self, problem: AssignmentProblem,
                 assignment: Assignment) -> Assignment:
        return compact_assignment(
            problem, assignment,
            enforce_update_constraints=self.enforce_update_constraints,
        )
