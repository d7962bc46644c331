"""A Memcached-like key-value server on a simulated VM.

Implements the three operations the paper uses (`set`, `get`, `delete`)
over a tiny request/response packet protocol, with an unbounded store and
a CPU model so latency under load and utilization (Figures 10 and 11) are
emergent rather than scripted.  The server itself is *almost* unmodified in
the paper's sense: replication lives entirely in the client library.  The
one extension beyond the paper is that records carry an opaque version
stamp ``(counter, writer_id)`` assigned by the writer, the server keeps the
newest version on conflicting sets, and returns the version with every
read -- which is what lets the client library resolve replica disagreement
with newest-wins plus read-repair instead of first-hit-wins.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.packet import Packet
from repro.obs import OBS
from repro.sim.cpu import CpuModel
from repro.sim.events import EventLoop

MEMCACHED_PORT = 11211

# Calibrated so one server reaches ~90% CPU at 160K ops/s -- the paper's
# "80K client req/sec at 90% CPU" with two set operations per client
# request (storage-a and storage-b).
OP_CPU_COST = 5.6e-6

# A record version: (monotonic per-key counter, writer id).  Tuples compare
# lexicographically, so the counter dominates and the writer id breaks
# ties deterministically.  ``None`` (an unversioned legacy write) loses to
# any stamped version.
Version = Tuple[int, str]


def version_newer(a: Optional[Version], b: Optional[Version]) -> bool:
    """True when version ``a`` should replace version ``b``."""
    if a is None:
        return False
    if b is None:
        return True
    return tuple(a) > tuple(b)


class MemcachedServer:
    """One Memcached VM: store + CPU + protocol handling."""

    def __init__(self, host: Host, loop: EventLoop):
        self.host = host
        self.loop = loop
        self.name = host.name
        # where requests arrive and replies leave from: the host's primary
        # address and the port are fixed once the server exists
        self.endpoint = Endpoint(host.ip, MEMCACHED_PORT)
        self.cpu = CpuModel(loop, owner=host.name)
        # key -> (version, value); version None for unversioned writes
        self._store: Dict[str, Tuple[Optional[Version], bytes]] = {}
        self.ops: Dict[str, int] = {"set": 0, "get": 0, "delete": 0}
        self.hits = 0
        self.stale_sets_refused = 0
        self.stale_deletes_refused = 0
        host.set_handler(self._on_packet)

    def __len__(self) -> int:
        return len(self._store)

    def fail(self) -> None:
        self.host.fail()

    def recover(self) -> None:
        """The VM comes back *empty* -- Memcached has no persistence; that
        is exactly the limitation TCPStore's client-side replication works
        around."""
        self._store.clear()
        self.host.recover()

    # -- protocol ---------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        req = pkt.meta.get("kv")
        if req is None or pkt.dst.port != MEMCACHED_PORT:
            return
        self.cpu.execute(OP_CPU_COST, self._serve, pkt, req,
                         phase="kv_op")

    def _serve(self, pkt: Packet, req: Dict[str, Any]) -> None:
        if self.host.failed:
            return
        op = req["op"]
        key = req["key"]
        ok, value, version = True, None, None
        if op == "set":
            ok, version = self._set(key, req["value"], req.get("version"))
        elif op == "get":
            version, value = self._get(key)
            ok = value is not None
        elif op == "delete":
            ok = self._delete(key, req.get("version"))
        else:
            ok = False
        self.ops[op] = self.ops.get(op, 0) + 1
        if OBS.enabled:
            ctx = pkt.meta.get("obs_ctx")
            if ctx is not None:
                OBS.tracer.event(f"kv.serve.{op}", self.name, ctx=ctx,
                                 attrs={"key": key, "ok": ok})
        self.host.send(Packet(
            self.endpoint, pkt.src, 0, 0, 0, value or b"",
            {"kv_resp": {
                "req_id": req["req_id"],
                "attempt": req.get("attempt"),
                "op": op,
                "key": key,
                "ok": ok,
                "value": value,
                "version": version,
                "server": self.name,
            }}))

    # -- store ------------------------------------------------------------
    def _set(self, key: str, value: bytes,
             version: Optional[Version] = None,
             ) -> Tuple[bool, Optional[Version]]:
        """Store ``value`` unless a newer version is already held.  Returns
        ``(accepted, winning_version)``; a refusal reports the version it
        kept, so the writer can learn it is fighting a newer record (e.g.
        an orphan left by a previous incarnation of a reused flow key) and
        re-stamp above it."""
        existing = self._store.get(key)
        if existing is not None:
            held_version, _ = existing
            # newest-wins: an older (repair/hint) write must never clobber
            # a newer record; equal versions are idempotent re-writes
            if version_newer(held_version, version):
                self.stale_sets_refused += 1
                return False, held_version
        self._store[key] = (tuple(version) if version else None, value)
        return True, tuple(version) if version else None

    def _delete(self, key: str, version: Optional[Version] = None) -> bool:
        """Remove ``key``.  A versioned delete is compare-and-delete: it
        removes only the exact record its issuer stamped.  Client 4-tuples
        recycle, so the storage key of a long-dead flow can belong to a
        *live* flow by the time the dead one's teardown reaches us -- and
        the two incarnations' counters are independent, so no newer/older
        comparison can tell them apart.  Exact match can: every copy of an
        incarnation's record (replica writes, hints, repair, read-repair)
        carries the writer's stamp, so the owner always matches its own
        records and never anyone else's.  A refused delete may strand an
        older orphan copy; the writer-side supersession path converges
        those when the key is next reused.  ``version=None`` (legacy
        callers) deletes unconditionally."""
        record = self._store.get(key)
        if record is None:
            return False
        held_version, _ = record
        if (version is not None and held_version is not None
                and tuple(held_version) != tuple(version)):
            self.stale_deletes_refused += 1
            return False
        del self._store[key]
        return True

    def _get(self, key: str) -> Tuple[Optional[Version], Optional[bytes]]:
        record = self._store.get(key)
        if record is None:
            return None, None
        self.hits += 1
        return record

    # test/debug access -----------------------------------------------------
    def peek(self, key: str) -> Optional[bytes]:
        """Read the value without counting a hit (for tests/monitors)."""
        record = self._store.get(key)
        return record[1] if record is not None else None

    def peek_version(self, key: str) -> Optional[Version]:
        """Read the stored version without counting a hit."""
        record = self._store.get(key)
        return record[0] if record is not None else None
