"""TCP tuning knobs.

Defaults follow what the paper observed on its Ubuntu 12.04 testbed: a 3 s
SYN retransmission timeout (Section 4.2) and a 300 ms initial data RTO that
doubles (the 300 ms / 600 ms server retransmissions in Figure 12(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class TcpConfig:
    """Per-stack TCP parameters.

    Attributes:
        mss: maximum segment payload bytes.
        initial_cwnd_segments: IW in segments (RFC 6928's IW10 default --
            the paper relies on HTTP headers fitting the initial window).
        rwnd: advertised receive window in bytes (kept constant).
        syn_rto: initial retransmission timeout for SYN / SYN-ACK.
        data_rto_initial: initial RTO for data and FIN segments.
        rto_max: retransmission timeout ceiling.
        max_retries: give up (abort the connection) after this many
            consecutive retransmissions of the same segment.
        time_wait: linger in TIME_WAIT before releasing the port.
        dupack_threshold: duplicate ACKs that trigger fast retransmit.
        isn_fn: optional initial-sequence-number chooser, called with a
            string key "local-remote"; defaults to a stable hash.
    """

    mss: int = 1460
    initial_cwnd_segments: int = 10
    rwnd: int = 262144
    syn_rto: float = 3.0
    data_rto_initial: float = 0.3
    rto_max: float = 60.0
    max_retries: int = 6
    time_wait: float = 1.0
    dupack_threshold: int = 3
    isn_fn: Optional[Callable[[str], int]] = None

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.initial_cwnd_segments <= 0:
            raise ValueError("initial_cwnd_segments must be positive")
        if self.data_rto_initial <= 0 or self.syn_rto <= 0:
            raise ValueError("retransmission timeouts must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")

    @property
    def initial_cwnd_bytes(self) -> int:
        return self.mss * self.initial_cwnd_segments
