"""A per-packet TCP implementation for the simulator.

This is a real (if compact) TCP: three-way handshake, sequence-number
spaces with 32-bit wraparound, MSS segmentation, sliding window with slow
start and fast retransmit, exponential-backoff retransmission timers, FIN
teardown and RST handling.  Clients and backend servers in the experiments
speak through :class:`~repro.tcp.endpoint.TcpStack` /
:class:`~repro.tcp.endpoint.TcpConnection`; YODA instances instead craft and
rewrite raw packets (as the paper's nfqueue driver does), which is why the
sequence arithmetic lives in its own module they can share.
"""

from repro.tcp.config import TcpConfig
from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack
from repro.tcp.segment import seq_add, seq_diff, seq_lt
from repro.tcp.state import TcpState

__all__ = [
    "TcpConfig",
    "TcpStack",
    "TcpConnection",
    "ConnectionHandler",
    "TcpState",
    "seq_add",
    "seq_diff",
    "seq_lt",
]
