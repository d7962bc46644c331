"""Greedy first-fit decreasing and the emptying step for the Figure 7 problem.

Both work on one :class:`_Packing` -- the per-instance loads of an
assignment -- and are deterministic.  :func:`solve_greedy` places VIPs
by decreasing size (big rocks first), each on the instances it was
already on (limit mode: zero migration), then on opened instances (best
fit), then on fresh ones.  :func:`compact_assignment` then closes every
instance whose replicas fit elsewhere.  Eq. 1/2 always hold; Eq. 4/5
(transient) and Eq. 6/7 (migration) only when the problem carries old
state and a migration limit (YODA-limit mode).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.assignment.constraints import validate_assignment
from repro.core.assignment.problem import Assignment, AssignmentProblem
from repro.errors import AssignmentError, InfeasibleError


def _limit_mode(problem: AssignmentProblem, enforce: bool) -> bool:
    return (enforce and problem.old_assignment is not None
            and problem.migration_limit is not None)


def solve_greedy(
    problem: AssignmentProblem,
    enforce_update_constraints: bool = True,
) -> Assignment:
    """Solve by first-fit decreasing.

    Args:
        enforce_update_constraints: apply Eq. 4-7 when old state exists
            (set False for YODA-no-limit).

    Raises:
        InfeasibleError: when some VIP cannot be placed, or placing them
            all migrates more than the limit allows.
    """
    limit_mode = _limit_mode(problem, enforce_update_constraints)
    packing = _Packing(problem, {}, limit_mode)
    names, share, rules = packing.names, packing.share, packing.rules
    conns = problem.old_connections or {}
    # big rocks first, where "big" is the dominant normalized dimension
    # (rules bind as often as traffic in the Section 8 workload)
    cap_t = max(i.traffic_capacity for i in problem.instances)
    cap_r = max(i.rule_capacity for i in problem.instances)
    for v in sorted(range(len(share)),
                    key=lambda v: -max(share[v] / cap_t, rules[v] / cap_r)):
        vip = problem.vips[v]
        by_rules = rules[v] / cap_r >= share[v] / cap_t

        def leftover(i: int) -> float:
            if by_rules:
                return packing.cap_r[i] - packing.load_r[i]
            return packing.cap_t[i] - packing.load_t[i]

        # preference tiers.  Staying on old instances (zero migration) is
        # only a goal in limit mode -- the paper's no-limit variant solves
        # each round from scratch, which is exactly why it migrates ~45%
        # of connections (Fig. 16(e)).
        old = ([packing.index[n] for n in problem.old_assignment.get(vip.name, [])
                if n in packing.index] if limit_mode else [])
        opened = [i for i in range(len(names)) if packing.on[i]]
        tiers = [
            # most old connections first; ties by name, not by hash order
            sorted(old, key=lambda i: (-conns.get((vip.name, names[i]), 0.0),
                                       names[i])),
            # best fit: the opened instance with the least leftover in the
            # VIP's dominant dimension -- tighter packing, fewer instances
            sorted(opened, key=lambda i: (leftover(i), names[i])),
            sorted((i for i in range(len(names)) if not packing.on[i]),
                   key=lambda i: names[i]),
        ]
        for i in (i for tier in tiers for i in tier):
            if len(packing.placed[v]) == vip.replicas:
                break
            if i not in packing.placed[v] and packing.fits(i, (v,)):
                packing.place(v, i)
        if len(packing.placed[v]) != vip.replicas:
            raise InfeasibleError(
                f"cannot place VIP {vip.name} (share={share[v]:.1f}, "
                f"rules={vip.rules}): only {len(packing.placed[v])}/"
                f"{vip.replicas} fit")
    if packing.migrated > packing.budget:
        raise InfeasibleError(
            f"migration budget exceeded: {packing.migrated:.0f} > "
            f"{packing.budget:.0f} connections")
    return Assignment(mapping=packing.mapping(), solver="greedy")


def compact_assignment(
    problem: AssignmentProblem,
    assignment: Assignment,
    enforce_update_constraints: bool = True,
) -> Assignment:
    """The emptying step: close the instances whose replicas fit elsewhere.

    Takes the used instances least-loaded first (ties by name) and tries
    to relocate every replica on one to another used instance: by a direct
    move, else by ejecting a VIP from the receiving instance to a third,
    else by swapping a VIP of the receiving instance for a smaller one of
    a third.  An emptying is kept only if the whole assignment then
    validates against Eq. 1-7 (Eq. 4-7 in limit mode); passes repeat
    until none empties an instance.  Never opens an instance, so the
    result uses no more instances than ``assignment``.
    """
    limit_mode = _limit_mode(problem, enforce_update_constraints)
    packing = _Packing(problem, assignment.mapping, limit_mode)
    emptied = True
    while emptied:
        emptied = False
        for victim in packing.least_loaded_first():
            emptied |= packing.empty(victim)
    return Assignment(mapping=packing.mapping(), solver="greedy+emptying")


_TOL = 1 + 1e-9  # validate_assignment's slack on traffic capacity

_Move = Tuple[int, int, int]  # (vip, from instance, to instance)


class _Packing:
    """An assignment as per-instance loads, changed one replica at a time.

    VIPs and instances are list indices in problem order, so every loop
    runs in an order fixed by the problem, never by hashing.  In limit
    mode each placement also updates the transient load (Eq. 4-5) and the
    migrated connections (Eq. 6-7).  The moves of the emptying under way
    are journalled so that a failed one can be undone.
    """

    def __init__(self, problem: AssignmentProblem,
                 mapping: Dict[str, List[str]], limit_mode: bool) -> None:
        self.problem = problem
        self.limit_mode = limit_mode
        self.names = [i.name for i in problem.instances]
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.cap_t = [i.traffic_capacity * _TOL for i in problem.instances]
        self.cap_r = [i.rule_capacity for i in problem.instances]
        self.share = [v.per_instance_share for v in problem.vips]
        self.rules = [v.rules for v in problem.vips]
        self.placed: List[List[int]] = [[] for _ in problem.vips]
        self.on: List[Set[int]] = [set() for _ in range(n)]
        self.load_t = [0.0] * n
        self.load_r = [0] * n
        # old traffic keeps arriving until every mux has the new mapping:
        # the transient load starts at the old shares (Eq. 4-5)
        self.trans = [0.0] * n
        self.old: Dict[Tuple[int, int], float] = {}  # (vip, instance)
        self.conns: Dict[Tuple[int, int], float] = {}
        self.migrated = 0.0
        self.budget = float("inf")
        vindex = {v.name: k for k, v in enumerate(problem.vips)}
        if limit_mode:
            for vip_name, assigned in problem.old_assignment.items():
                try:
                    problem.vip(vip_name)
                except AssignmentError:
                    continue  # VIP was removed this round
                for name in assigned:
                    if name in self.index:
                        key = (vindex[vip_name], self.index[name])
                        self.old[key] = problem.old_share(vip_name, name)
                        self.trans[key[1]] += self.old[key]
        if limit_mode and problem.old_connections:
            for (vip_name, name), conns in problem.old_connections.items():
                if vip_name in vindex and name in self.index:
                    key = (vindex[vip_name], self.index[name])
                    self.conns[key] = self.conns.get(key, 0.0) + conns
            self.migrated = problem.total_connections()  # until placed
            self.budget = ((problem.migration_limit + 1e-9)
                           * problem.total_connections())
        for vip_name, assigned in mapping.items():
            for name in assigned:
                self.place(vindex[vip_name], self.index[name])
        self.journal: List[_Move] = []

    # -- loads ----------------------------------------------------------
    def _gain(self, v: int, i: int) -> float:
        """What VIP v on instance i adds to i's transient load."""
        return max(self.share[v] - self.old.get((v, i), 0.0), 0.0)

    def _add(self, v: int, i: int) -> None:
        self.on[i].add(v)
        self.load_t[i] += self.share[v]
        self.load_r[i] += self.rules[v]
        if self.limit_mode:
            self.trans[i] += self._gain(v, i)

    def _remove(self, v: int, i: int) -> None:
        self.on[i].discard(v)
        self.load_t[i] -= self.share[v]
        self.load_r[i] -= self.rules[v]
        if self.limit_mode:
            self.trans[i] -= self._gain(v, i)

    def place(self, v: int, i: int) -> None:
        """Add a replica of VIP v on instance i."""
        self.placed[v].append(i)
        self._add(v, i)
        self.migrated -= self.conns.get((v, i), 0.0)

    def fits(self, i: int, add: Sequence[int], drop: Sequence[int] = ()) -> bool:
        """Whether instance i holds its VIPs plus ``add`` minus ``drop``.

        In limit mode the transient load must fit too, unless the change
        does not raise it: an instance the old mapping already overloads
        keeps what it has, but takes nothing on top.
        """
        t = self.load_t[i]
        r = self.load_r[i]
        for v in add:
            t += self.share[v]
            r += self.rules[v]
        for v in drop:
            t -= self.share[v]
            r -= self.rules[v]
        if t > self.cap_t[i] or r > self.cap_r[i]:
            return False
        if not self.limit_mode:
            return True
        rise = (sum(self._gain(v, i) for v in add)
                - sum(self._gain(v, i) for v in drop))
        return self.trans[i] + rise <= self.cap_t[i] or rise <= 1e-9

    def _moved(self, v: int, src: int, dst: int) -> float:
        """Old connections of VIP v that moving it src -> dst migrates."""
        return self.conns.get((v, src), 0.0) - self.conns.get((v, dst), 0.0)

    def _shift(self, v: int, src: int, dst: int) -> None:
        self._remove(v, src)
        self._add(v, dst)
        self.placed[v][self.placed[v].index(src)] = dst
        self.migrated += self._moved(v, src, dst)

    def _apply(self, *moves: _Move) -> bool:
        """Make ``moves`` if they keep within the migration budget."""
        if self.migrated + sum(self._moved(*m) for m in moves) > self.budget:
            return False
        for move in moves:
            self._shift(*move)
            self.journal.append(move)
        return True

    def _undo(self) -> None:
        while self.journal:
            v, src, dst = self.journal.pop()
            self._shift(v, dst, src)

    # -- the emptying step ----------------------------------------------
    def least_loaded_first(self) -> List[int]:
        used = [i for i in range(len(self.names)) if self.on[i]]
        return sorted(used, key=lambda i: (self.load_t[i], self.names[i]))

    def empty(self, victim: int) -> bool:
        """Relocate every replica on ``victim``; keep it if it validates."""
        others = sorted(
            (i for i in range(len(self.names)) if self.on[i] and i != victim),
            key=lambda i: (-self.load_t[i], self.names[i]))
        biggest_first = sorted(
            self.on[victim], key=lambda v: (-self.share[v], -self.rules[v], v))
        for v in biggest_first:
            if not self._relocate(v, victim, others):
                self._undo()
                return False
        report = validate_assignment(
            self.problem, Assignment(self.mapping()),
            check_transient=self.limit_mode, check_migration=self.limit_mode)
        if not report.ok:
            self._undo()
            return False
        self.journal.clear()
        return True

    def _relocate(self, v: int, victim: int, others: List[int]) -> bool:
        """Move v off ``victim``: directly, by one ejection, or by one swap."""
        targets = [j for j in others if v not in self.on[j]]
        for j in targets:
            if self.fits(j, (v,)) and self._apply((v, victim, j)):
                return True
        members = {i: sorted(self.on[i]) for i in others}
        # (j, u): taking VIP u off instance j leaves room there for v
        openings = [(j, u) for j in targets for u in members[j]
                    if self.fits(j, (v,), (u,))]
        for j, u in openings:  # ejection: u moves on to a third instance k
            for k in others:
                if (k != j and u not in self.on[k] and self.fits(k, (u,))
                        and self._apply((u, j, k), (v, victim, j))):
                    return True
        share, rules = self.share, self.rules
        for j, u in openings:  # swap: u goes to k, a smaller w comes back
            room_t = self.cap_t[j] - self.load_t[j] - share[v] + share[u]
            room_r = self.cap_r[j] - self.load_r[j] - rules[v] + rules[u]
            for k in others:
                if k == j or u in self.on[k]:
                    continue
                need_t = self.load_t[k] + share[u] - self.cap_t[k]
                need_r = self.load_r[k] + rules[u] - self.cap_r[k]
                for w in members[k]:
                    if (need_t <= share[w] <= room_t
                            and need_r <= rules[w] <= room_r
                            and w != v and w not in self.on[j]
                            and self.fits(k, (u,), (w,))
                            and self.fits(j, (v, w), (u,))
                            and self._apply((u, j, k), (w, k, j),
                                            (v, victim, j))):
                        return True
        return False

    def mapping(self) -> Dict[str, List[str]]:
        return {vip.name: [self.names[i] for i in insts]
                for vip, insts in zip(self.problem.vips, self.placed)}
