"""Server selection: the HAProxy-style linear rule scan, plus priority.

The paper keeps HAProxy's classification algorithm -- one chained table,
scanned linearly per new connection -- and adds a priority field (rules are
arranged in decreasing priority).  The scan latency model is calibrated to
Figure 6: P90 lookup latency grows linearly in the number of rules, with
10K rules costing about 3x what 1K rules cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

from repro.core.rules import Rule
from repro.http.message import HttpRequest
from repro.sim.random import SeededRng, stable_hash64


class BackendView(Protocol):
    """What the selector needs to know about backends."""

    def is_healthy(self, backend: str) -> bool: ...

    def load(self, backend: str) -> float: ...


class AllHealthy:
    """Default view: every backend healthy, equal load."""

    def is_healthy(self, backend: str) -> bool:
        return True

    def load(self, backend: str) -> float:
        return 0.0


class _FailOpen:
    """Panic view: believe nobody is dead, but keep the real loads."""

    def __init__(self, view: BackendView):
        self._view = view

    def is_healthy(self, backend: str) -> bool:
        return True

    def load(self, backend: str) -> float:
        return self._view.load(backend)


@dataclass
class ScanCostModel:
    """Rule-scan latency: base + per_rule * rules_scanned (Figure 6).

    Defaults solve the paper's two data points -- scanning 10K rules is
    ~3x scanning 1K, and 2K rules corresponds to the 5 ms latency target
    used in Section 8: base = 3.18 ms, per_rule = 0.909 us.
    """

    base: float = 3.18e-3
    per_rule: float = 0.909e-6

    def latency(self, rules_scanned: int) -> float:
        return self.base + self.per_rule * rules_scanned


@dataclass
class SelectionResult:
    backend: str
    rule: Rule
    rules_scanned: int
    scan_latency: float


class RuleTable:
    """A VIP's rules, arranged in decreasing priority, scanned linearly."""

    def __init__(self, rules: List[Rule], cost_model: Optional[ScanCostModel] = None):
        # stable sort: same priority keeps declaration order
        self._rules = sorted(rules, key=lambda r: -r.priority)
        self.cost_model = cost_model or ScanCostModel()
        self.lookups = 0
        self.panic_selections = 0

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> List[Rule]:
        return list(self._rules)

    def select(
        self,
        request: HttpRequest,
        rng: SeededRng,
        view: Optional[BackendView] = None,
    ) -> Optional[SelectionResult]:
        """Pick a backend for ``request``.

        Scans rules in priority order; a rule is skipped when none of its
        backends is healthy -- that skip is what makes the paper's
        primary-backup pattern (same match, two priorities) work.

        When the health view disqualifies *every* candidate (which a
        monitor false-positive storm can do even while the backends are
        fine), the table fails open: a second scan ignores health and
        routes anyway.  Trying a possibly-dead backend at worst costs one
        connect timeout; resetting the client is a guaranteed failure.
        Returns None only if no rule matches at all (or matching rules
        carry zero weight).
        """
        view = view or AllHealthy()
        self.lookups += 1
        result = self._scan(request, rng, view)
        if result is None and not isinstance(view, AllHealthy):
            result = self._scan(request, rng, _FailOpen(view))
            if result is not None:
                self.panic_selections += 1
        if result is not None:
            # optional hook: views that meter admissions (e.g. half-open
            # circuit-breaker probes) learn which backend won the scan
            notify = getattr(view, "on_selected", None)
            if notify is not None:
                notify(result.backend)
        return result

    def _scan(
        self, request: HttpRequest, rng: SeededRng, view: BackendView
    ) -> Optional[SelectionResult]:
        scanned = 0
        for rule in self._rules:
            scanned += 1
            if not rule.match.matches(request):
                continue
            backend = self._apply_action(rule, request, rng, view)
            if backend is not None:
                return SelectionResult(
                    backend=backend,
                    rule=rule,
                    rules_scanned=scanned,
                    scan_latency=self.cost_model.latency(scanned),
                )
        return None

    def _apply_action(
        self, rule: Rule, request: HttpRequest, rng: SeededRng, view: BackendView
    ) -> Optional[str]:
        action = rule.action
        if action.table is not None:
            return self._sticky_lookup(action, request, view)
        healthy = [b for b in action.split if view.is_healthy(b)]
        if not healthy:
            return None
        if action.least_loaded:
            return min(healthy, key=lambda b: (view.load(b), b))
        weights = [action.split[b] for b in healthy]
        if all(w == 0 for w in weights):
            return None
        return rng.weighted_choice(healthy, weights)

    @staticmethod
    def _sticky_lookup(action, request: HttpRequest, view: BackendView) -> Optional[str]:
        """Rendezvous-hash the cookie value onto the healthy members.

        Deterministic across instances: any YODA instance maps the same
        session cookie to the same backend with no shared table, and a
        backend failure only remaps that backend's sessions.
        """
        cookie_value = request.cookie(action.table)
        if cookie_value is None:
            cookie_value = ""  # no cookie: still deterministic per ""
        healthy = [b for b in action.table_members if view.is_healthy(b)]
        if not healthy:
            return None
        return max(
            healthy,
            key=lambda b: stable_hash64(f"{cookie_value}@{b}", salt="sticky"),
        )
