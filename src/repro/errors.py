"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single except clause without
swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """A deployment configuration cannot work as written.

    Raised by ``validate()`` before anything is built: an unknown tier or
    corpus name, a non-positive size, or planes that exclude each other
    (stateless dispatch with a standby region, yoda-tier planes on a
    non-yoda tier).  Also a ``ValueError``, which is what construction
    raised for the few of these it used to notice halfway through.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, or running a loop that was
    already stopped.
    """


class NetworkError(ReproError):
    """Invalid network operation (unknown address, duplicate host, ...)."""


class AddressError(NetworkError):
    """An IP address or endpoint string could not be parsed or allocated."""


class SnatExhausted(NetworkError):
    """No SNAT port range is left to allocate for a VIP.

    Carries the VIP and the instance that asked, so operators (and the
    overload experiments) can tell *which* service ran out of outbound
    ports rather than seeing a generic network failure.
    """

    def __init__(self, vip: str, instance_ip: str):
        super().__init__(
            f"SNAT port space exhausted for VIP {vip} "
            f"(requested by {instance_ip})"
        )
        self.vip = vip
        self.instance_ip = instance_ip


class TcpError(ReproError):
    """A TCP endpoint was driven into an invalid operation for its state."""


class HttpError(ReproError):
    """Malformed HTTP message or invalid client/server usage."""


class HttpParseError(HttpError):
    """Raw bytes could not be parsed as an HTTP message."""


class SlowClientTimeout(HttpError):
    """A peer fed request bytes slower than the progress deadline allows
    (the slow-loris guard).

    Carries the peer and the deadline so operators can distinguish an
    attack pattern (many peers, one source range) from a genuinely slow
    client.
    """

    def __init__(self, peer: str, deadline: float):
        super().__init__(
            f"no request progress from {peer} within {deadline:.3f}s"
        )
        self.peer = peer
        self.deadline = deadline


class KvStoreError(ReproError):
    """Key-value store (Memcached substrate) failure."""


class PolicyError(ReproError):
    """A user policy / rule definition is invalid."""


class AssignmentError(ReproError):
    """The VIP-to-instance assignment problem is malformed or infeasible."""


class InfeasibleError(AssignmentError):
    """No assignment satisfies the constraints (Eq. 1-7 of the paper)."""


class ControllerError(ReproError):
    """Invalid controller operation (unknown VIP, duplicate instance, ...)."""


class LeadershipLost(ControllerError):
    """A controller replica stopped being the acting leader.

    Carries the epoch it held and why it stepped down (superseded by a
    newer claim, lease expired, or the lease store went silent), so the
    flight recorder and tests can distinguish a clean hand-off from a
    store outage.
    """

    def __init__(self, holder: str, epoch: int, reason: str):
        super().__init__(f"{holder} lost leadership at epoch {epoch}: {reason}")
        self.holder = holder
        self.epoch = epoch
        self.reason = reason


class StaleLeaderEpoch(ControllerError):
    """A control-plane push carried a lease epoch older than one the
    receiver has already accepted (dueling-controller fencing).

    Raised by the receiver-side fence gates on instances and the L4 LB;
    the stale leader catches it, records the rejection, and steps down.
    """

    def __init__(self, receiver: str, kind: str, got_epoch: int,
                 got_holder: str, current_epoch: int, current_holder: str):
        super().__init__(
            f"{receiver} rejected {kind} from {got_holder}@e{got_epoch}: "
            f"fenced at {current_holder}@e{current_epoch}"
        )
        self.receiver = receiver
        self.kind = kind
        self.got_epoch = got_epoch
        self.got_holder = got_holder
        self.current_epoch = current_epoch
        self.current_holder = current_holder


class LeaseStoreUnavailable(KvStoreError):
    """The leader-lease record could not be read or renewed because the
    backing store cluster is unreachable (timeout or zero live servers).

    Not a demotion by itself: the holder keeps acting until its lease
    expiry (plus any configured step-down grace), which is exactly the
    window the fencing epoch exists to make safe.
    """

    def __init__(self, holder: str, op: str):
        super().__init__(f"{holder}: lease {op} got no answer from the store")
        self.holder = holder
        self.op = op
