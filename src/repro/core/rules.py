"""The OpenFlow-like L7 rule model (paper Section 5.1, Table 3).

A rule is (name, priority, match, action).  Matches cover the fields the
paper's interface exposes: URL globs, cookies, arbitrary HTTP headers and
the method.  Actions either split traffic across weighted backends (weight
-1 selects the least-loaded backend) or consult a sticky-session table
keyed by a cookie.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import PolicyError
from repro.http.message import HttpRequest

LEAST_LOADED = -1.0


@dataclass(frozen=True)
class Match:
    """Conditions a request must satisfy (all of them; None = wildcard)."""

    url: Optional[str] = None  # glob over host+path, e.g. "*.jpg"
    path: Optional[str] = None  # glob over path only
    cookie: Optional[str] = None  # "name" (presence) or "name=glob"
    header: Optional[str] = None  # "Header-Name=glob"
    method: Optional[str] = None  # exact, e.g. "GET"

    def matches(self, request: HttpRequest) -> bool:
        if self.method is not None and request.method != self.method.upper():
            return False
        if self.url is not None and not fnmatch.fnmatchcase(request.url, self.url):
            return False
        if self.path is not None and not fnmatch.fnmatchcase(request.path, self.path):
            return False
        if self.cookie is not None:
            name, sep, pattern = self.cookie.partition("=")
            value = request.cookie(name)
            if value is None:
                return False
            if sep and not fnmatch.fnmatchcase(value, pattern):
                return False
        if self.header is not None:
            name, sep, pattern = self.header.partition("=")
            value = request.headers.get(name)
            if value is None:
                return False
            if sep and not fnmatch.fnmatchcase(value, pattern):
                return False
        return True

    def describe(self) -> str:
        parts = [
            f"{label}={value}"
            for label, value in (
                ("url", self.url), ("path", self.path), ("cookie", self.cookie),
                ("header", self.header), ("method", self.method),
            )
            if value is not None
        ]
        return " ".join(parts) or "*"


@dataclass(frozen=True)
class Action:
    """What to do with a matching request.

    Exactly one of:
    - ``split``: backend name -> weight.  All weights -1 = least-loaded.
    - ``table``: sticky-session table keyed by this cookie name; a client's
      cookie value is mapped to a stable backend (rendezvous hashing over
      the healthy members), so every instance agrees without coordination.
    """

    split: Optional[Dict[str, float]] = None
    table: Optional[str] = None  # cookie name
    table_members: tuple = ()  # backends eligible for the sticky table

    def __post_init__(self) -> None:
        if (self.split is None) == (self.table is None):
            raise PolicyError("action must have exactly one of split/table")
        if self.split is not None:
            if not self.split:
                raise PolicyError("split action needs at least one backend")
            weights = set(self.split.values())
            if any(w < 0 for w in weights) and weights != {LEAST_LOADED}:
                raise PolicyError(
                    "negative weights are only valid when ALL weights are -1 "
                    "(least-loaded mode)"
                )
            if all(w == 0 for w in weights):
                raise PolicyError("at least one weight must be non-zero")
        if self.table is not None and not self.table_members:
            raise PolicyError("table action needs table_members")

    @property
    def least_loaded(self) -> bool:
        return self.split is not None and all(
            w == LEAST_LOADED for w in self.split.values()
        )

    def backends(self) -> tuple:
        if self.split is not None:
            return tuple(self.split)
        return self.table_members

    def describe(self) -> str:
        if self.table is not None:
            return f"table={{{self.table}}}"
        if self.least_loaded:
            return f"least-loaded={{{','.join(self.split)}}}"
        inner = ", ".join(f"{k}={v}" for k, v in self.split.items())
        return f"split={{{inner}}}"


@dataclass(frozen=True)
class Rule:
    """One L7 rule: higher priority is consulted first (paper's extension
    to the HAProxy rule chain)."""

    name: str
    priority: int
    match: Match
    action: Action

    def __str__(self) -> str:
        return (f"Rule({self.name!r}, prio={self.priority}, "
                f"{self.match.describe()} -> {self.action.describe()})")
