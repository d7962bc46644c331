"""YODA: the paper's primary contribution.

The pieces map one-to-one onto the paper's Figure 8:

- :class:`~repro.core.instance.YodaInstance` -- the packet driver: raw
  packet handling for the connection phase (SYN-ACK from a hashed ISN,
  header collection, server selection), L3 tunneling with sequence-number
  translation, and failure recovery from TCPStore.
- :class:`~repro.core.tcpstore.TcpStore` -- the flow-state schema over the
  replicating Memcached client.
- :mod:`~repro.core.rules` / :mod:`~repro.core.policy` -- the OpenFlow-like
  match/action/priority interface of Section 5.1.
- :class:`~repro.core.controller.YodaController` -- monitor (600 ms health
  pings), assignment updater, scaling, and policy distribution.
- :mod:`~repro.core.assignment` -- the VIP-to-instance ILP of Figure 7 and
  its all-to-all / greedy baselines.
"""

from repro.core.controller import YodaController
from repro.core.flowstate import FlowPhase, FlowState
from repro.core.inspect import DeploymentSnapshot, snapshot
from repro.core.instance import YodaCostModel, YodaInstance
from repro.core.leader import ControllerHAConfig
from repro.core.policy import VipPolicy, least_loaded, primary_backup, sticky_sessions, weighted_split
from repro.core.region import RegionConfig
from repro.core.rules import Action, Match, Rule
from repro.core.selector import RuleTable, SelectionResult
from repro.core.service import YodaService, YodaServiceConfig
from repro.core.tcpstore import TcpStore

__all__ = [
    "YodaInstance",
    "YodaCostModel",
    "YodaController",
    "YodaService",
    "YodaServiceConfig",
    "RegionConfig",
    "ControllerHAConfig",
    "TcpStore",
    "FlowState",
    "FlowPhase",
    "snapshot",
    "DeploymentSnapshot",
    "Rule",
    "Match",
    "Action",
    "RuleTable",
    "SelectionResult",
    "VipPolicy",
    "weighted_split",
    "primary_backup",
    "sticky_sessions",
    "least_loaded",
]
