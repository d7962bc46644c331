"""The decoupled flow state (paper Sections 3-4).

An end-to-end client flow through YODA is two TCP connections (client-VIP
and VIP-server) plus the selected server.  Everything another instance
needs to take the flow over is captured here and serialized into TCPStore:

- the client's initial sequence number (from storage-a, before SYN-ACK);
- the chosen backend, the SNAT port, and the server's initial sequence
  number (from storage-b, before the ACK to the server);
- for HTTP/1.1, the rolling stream offsets that keep sequence translation
  correct across backend switches.

The client-facing ISN is *not* stored: it is recomputed by hashing the
client's IP and port (Section 4.1), which is what lets every instance send
identical SYN-ACKs.  Recomputable is not recomputed per packet: a
``FlowState`` keeps the values that are constants of its flow (the
``client|vip`` key, the ISN, the SNAT source endpoint, the two TCPStore
keys) in memory, outside the serialized record.
"""

from __future__ import annotations

import base64
import enum
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ReproError
from repro.net.addresses import Endpoint
from repro.sim.random import stable_hash32


class FlowPhase(enum.Enum):
    """Where the flow is in its life (paper Section 4.1)."""

    AWAIT_HEADER = "await_header"  # connection phase: collecting the HTTP header
    SERVER_SYN_SENT = "server_syn_sent"  # connecting to the selected backend
    TUNNEL = "tunnel"  # tunneling phase: pure L3 forwarding
    CLOSING = "closing"  # FINs observed; awaiting final ACKs


def yoda_isn(client: Endpoint, vip: Endpoint) -> int:
    """The deterministic client-facing ISN.

    Hash of the client source IP-port tuple (plus the VIP so distinct
    services differ).  All instances compute the same value, so a SYN
    retransmitted after an instance failure gets the *same* SYN-ACK from
    whichever instance receives it -- no storage round-trip needed.
    """
    return stable_hash32(flow_key(client, vip), salt="yoda-isn")


def flow_key(client: Endpoint, vip: Endpoint) -> str:
    """``client|vip``: an instance's flow-table key and the ISN hash input."""
    return f"{client.text}|{vip.text}"


def client_key(client: Endpoint, vip: Endpoint) -> str:
    """TCPStore key for lookups by client-side 4-tuple."""
    return f"yoda:c:{client}:{vip}"


def server_key(vip_ip: str, snat_port: int, server: Endpoint) -> str:
    """TCPStore key for lookups by server-side 4-tuple (return traffic
    arrives at VIP:snat_port from the backend)."""
    return f"yoda:s:{vip_ip}:{snat_port}:{server}"


@dataclass(slots=True)
class FlowState:
    """The persisted per-flow record."""

    client: Endpoint
    vip: Endpoint
    client_isn: int
    phase: str = FlowPhase.AWAIT_HEADER.value
    # populated at storage-b time:
    server: Optional[Endpoint] = None
    server_isn: Optional[int] = None
    snat_port: Optional[int] = None
    # stream offsets for HTTP/1.1 backend switching: how many request bytes
    # preceded the current backend connection, and how many response bytes
    # the client had received before it (both zero for HTTP/1.0).
    request_offset: int = 0
    response_offset: int = 0
    created_at: float = 0.0
    # SSL termination (Section 5.2): client bytes the instance has already
    # ACKed during the handshake (so a recovering instance can replay its
    # TLS state machine), and the length of the deterministic handshake
    # flight (so the backend's duplicate of it can be suppressed).
    client_prefix: bytes = b""
    tls_handshake_len: int = 0
    # long-lived (streaming) flows only: the checkpointed high-water mark of
    # response bytes delivered to the client (whole-stream coordinates), and
    # the full request header for re-selecting a backend when the recorded
    # one is dead.  Both serialize only when set, so every pre-existing flow
    # record stays byte-identical.
    resp_delivered: int = 0
    replay_header: bytes = b""
    # constants of the flow, kept off the per-packet path: ``client`` and
    # ``vip`` are never reassigned, so the key is built once and the ISN
    # hashed on first use.  In memory only -- not serialized, not compared.
    key: str = field(init=False, repr=False, compare=False)
    _yoda_isn: Optional[int] = field(default=None, init=False, repr=False,
                                     compare=False)
    _snat_src: Optional[Endpoint] = field(default=None, init=False,
                                          repr=False, compare=False)
    _storage_key: Optional[str] = field(default=None, init=False,
                                        repr=False, compare=False)
    # (server, snat_port, key): the key of the server-side index and the
    # two fields it was built from
    _server_key: Optional[Tuple[Endpoint, int, str]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = flow_key(self.client, self.vip)

    @property
    def yoda_isn(self) -> int:
        isn = self._yoda_isn
        if isn is None:
            isn = self._yoda_isn = yoda_isn(self.client, self.vip)
        return isn

    @property
    def snat_src(self) -> Endpoint:
        """``vip:snat_port``, the source of every packet toward the
        backend; rebuilt only when ``snat_port`` has been reassigned."""
        src = self._snat_src
        if src is None or src.port != self.snat_port:
            src = self._snat_src = Endpoint(self.vip.ip, self.snat_port)
        return src

    @property
    def established(self) -> bool:
        return self.server is not None and self.server_isn is not None

    def storage_key(self) -> str:
        key = self._storage_key
        if key is None:
            key = self._storage_key = client_key(self.client, self.vip)
        return key

    def server_storage_key(self) -> Optional[str]:
        """Key of the server-side index; rebuilt only when ``server`` or
        ``snat_port`` has been reassigned (an HTTP/1.1 backend switch)."""
        server, port = self.server, self.snat_port
        if server is None or port is None:
            return None
        held = self._server_key
        if held is None or held[0] is not server or held[1] != port:
            held = self._server_key = (
                server, port, server_key(self.vip.ip, port, server))
        return held[2]

    # -- serialization ------------------------------------------------------
    def to_bytes(self) -> bytes:
        doc = {
            "client": str(self.client),
            "vip": str(self.vip),
            "client_isn": self.client_isn,
            "phase": self.phase,
            "server": str(self.server) if self.server else None,
            "server_isn": self.server_isn,
            "snat_port": self.snat_port,
            "request_offset": self.request_offset,
            "response_offset": self.response_offset,
            "created_at": self.created_at,
            "client_prefix": (
                base64.b64encode(self.client_prefix).decode()
                if self.client_prefix else ""
            ),
            "tls_handshake_len": self.tls_handshake_len,
        }
        if self.resp_delivered:
            doc["resp_delivered"] = self.resp_delivered
        if self.replay_header:
            doc["replay_header"] = base64.b64encode(self.replay_header).decode()
        return json.dumps(doc, separators=(",", ":")).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FlowState":
        try:
            doc = json.loads(raw.decode())
            return cls(
                client=Endpoint.parse(doc["client"]),
                vip=Endpoint.parse(doc["vip"]),
                client_isn=doc["client_isn"],
                phase=doc["phase"],
                server=Endpoint.parse(doc["server"]) if doc.get("server") else None,
                server_isn=doc.get("server_isn"),
                snat_port=doc.get("snat_port"),
                request_offset=doc.get("request_offset", 0),
                response_offset=doc.get("response_offset", 0),
                created_at=doc.get("created_at", 0.0),
                client_prefix=(
                    base64.b64decode(doc["client_prefix"])
                    if doc.get("client_prefix") else b""
                ),
                tls_handshake_len=doc.get("tls_handshake_len", 0),
                resp_delivered=doc.get("resp_delivered", 0),
                replay_header=(
                    base64.b64decode(doc["replay_header"])
                    if doc.get("replay_header") else b""
                ),
            )
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ReproError(f"corrupt flow state: {exc}") from exc
