"""User-facing policy construction (paper Section 5.1).

Online service operators express *policies*; these helpers compile the
common patterns from Table 3 into :class:`~repro.core.rules.Rule` objects:
weighted split, primary-backup, sticky sessions and least-loaded.  A
:class:`VipPolicy` bundles a VIP's rules with its backend registry and is
versioned so instances apply updates only to new connections (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.rules import LEAST_LOADED, Action, Match, Rule
from repro.errors import PolicyError
from repro.http.tls import Certificate
from repro.net.addresses import Endpoint


def weighted_split(name: str, url: str, weights: Dict[str, float],
                   priority: int = 1) -> Rule:
    """Split matching traffic across backends by weight (Table 3, rule 1)."""
    return Rule(name, priority, Match(url=url), Action(split=dict(weights)))


def primary_backup(name: str, url: str, primaries: Dict[str, float],
                   backups: Dict[str, float], priority: int = 2) -> List[Rule]:
    """Prefer primaries; fall to backups when every primary is down
    (Table 3, rules 2-3: same match, two priorities)."""
    return [
        Rule(f"{name}-primary", priority, Match(url=url), Action(split=dict(primaries))),
        Rule(f"{name}-backup", priority - 1, Match(url=url), Action(split=dict(backups))),
    ]


def sticky_sessions(name: str, cookie: str, members: Sequence[str],
                    priority: int = 0, url: Optional[str] = None) -> Rule:
    """Pin each session cookie to one backend (Table 3, rule 4)."""
    return Rule(
        name, priority,
        Match(url=url, cookie=cookie),
        Action(table=cookie, table_members=tuple(members)),
    )


def least_loaded(name: str, url: str, members: Sequence[str],
                 priority: int = 1) -> Rule:
    """Send matching traffic to the least-loaded backend (weights all -1)."""
    return Rule(
        name, priority, Match(url=url),
        Action(split={m: LEAST_LOADED for m in members}),
    )


@dataclass
class VipPolicy:
    """Everything YODA knows about one online service (VIP).

    Attributes:
        vip: the virtual IP string.
        port: service port.
        backends: backend name -> endpoint.
        rules: the L7 rules for this VIP.
        version: bumped on every policy update; instances tag each flow
            with the version it was classified under, so updates never
            touch existing connections.
    """

    vip: str
    backends: Dict[str, Endpoint]
    rules: List[Rule]
    port: int = 80
    version: int = 1
    # SSL termination (Section 5.2): when set, YODA instances serve this
    # certificate and decrypt request headers for rule matching
    certificate: Optional[Certificate] = None
    # TLS session resumption: instances issue deterministic tickets (kept
    # in the flow store) and accept abbreviated handshakes against them;
    # backends must be configured to mirror the same behaviour
    session_tickets: bool = False

    def __post_init__(self) -> None:
        self.validate()

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def validate(self) -> None:
        """Every rule's backends must exist in the registry."""
        for rule in self.rules:
            for backend in rule.action.backends():
                if backend not in self.backends:
                    raise PolicyError(
                        f"rule {rule.name!r} references unknown backend "
                        f"{backend!r} (VIP {self.vip})"
                    )

    def updated(self, rules: Optional[List[Rule]] = None,
                backends: Optional[Dict[str, Endpoint]] = None) -> "VipPolicy":
        """A new version with replaced rules and/or backends."""
        return VipPolicy(
            vip=self.vip,
            port=self.port,
            backends=dict(backends if backends is not None else self.backends),
            rules=list(rules if rules is not None else self.rules),
            version=self.version + 1,
            certificate=self.certificate,
            session_tickets=self.session_tickets,
        )

    def endpoint_of(self, backend: str) -> Endpoint:
        try:
            return self.backends[backend]
        except KeyError:
            raise PolicyError(f"unknown backend {backend!r} for VIP {self.vip}") from None
