"""TCPStore: the flow-state facade over the replicating Memcached client.

Implements the storage protocol of Figure 3:

- ``storage-a``: persist the client SYN information *before* the SYN-ACK
  goes out.
- ``storage-b``: persist the server connection (backend, SNAT port, server
  ISN) *before* ACKing the server's SYN-ACK; also writes a server-side
  index entry so return traffic rerouted after a failure can find the flow.

The guiding invariant (Section 4.2): every packet a YODA instance ACKs is
in TCPStore first, so no acknowledged information can be lost.

Every write is stamped with a ``(monotonic_version, writer_id)`` version so
replicas that diverge (a server recovering empty, a replica set that moved
while a server was out) can be reconciled newest-wins by the client
library.  The counter is per key; when a flow migrates, the adopting
instance resumes counting above the version its recovery read returned, so
its updates out-version the crashed writer's records everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.flowstate import FlowState, client_key, server_key
from repro.kvstore.client import KvOpResult, ReplicatingKvClient
from repro.kvstore.memcached import Version
from repro.net.addresses import Endpoint


class VersionLedger:
    """Per-key version stamping for one writer: the write discipline every
    store-backed record in the system shares (flow records here, and the
    controller's lease/journal records in ``core.leader``).

    ``stamp`` mints the next ``(counter, writer_id)`` version for a key;
    ``adopt`` folds in a version another writer produced (recovery reads,
    ``superseded_by`` refusals) so the next stamp out-versions it on every
    replica.
    """

    def __init__(self, writer_id: str):
        self.writer_id = writer_id
        self._versions: Dict[str, Version] = {}

    def stamp(self, key: str) -> Version:
        held = self._versions.get(key)
        version = ((held[0] if held else 0) + 1, self.writer_id)
        self._versions[key] = version
        return version

    def adopt(self, key: str, version: Optional[Version]) -> None:
        if version is None:
            return
        held = self._versions.get(key)
        if held is None or tuple(version) > tuple(held):
            self._versions[key] = tuple(version)

    def version_of(self, key: str) -> Optional[Version]:
        return self._versions.get(key)

    def pop(self, key: str) -> Optional[Version]:
        """Forget a key's counter, returning the last stamped version
        (what a compare-and-delete pins to)."""
        return self._versions.pop(key, None)


class TcpStore:
    """One instance's handle on the shared flow-state store."""

    def __init__(self, kv: ReplicatingKvClient, writer_id: Optional[str] = None,
                 replicator=None):
        self.kv = kv
        self.writer_id = writer_id or kv.host.name
        # optional cross-site shipper (kvstore.sitesync.SiteReplicator):
        # acked writes and teardowns are mirrored to the secondary site.
        # None (the single-site default) leaves every path untouched.
        self.replicator = replicator
        self.storage_a_ops = 0
        self.storage_b_ops = 0
        # per-key: the version of the newest record we wrote or read; the
        # next write for the key is stamped one above its counter
        self._ledger = VersionLedger(self.writer_id)

    # -- versioning ------------------------------------------------------------
    def _adopt_version(self, key: str, version: Optional[Version]) -> None:
        """Record the version a recovery read returned, so our next write
        for the key supersedes it on every replica."""
        self._ledger.adopt(key, version)

    def version_of(self, key: str) -> Optional[Version]:
        """The version of the newest record known for ``key`` (what the
        anti-entropy sweeper re-replicates at)."""
        return self._ledger.version_of(key)

    # -- writes ----------------------------------------------------------------
    MAX_REWRITE_ROUNDS = 3

    def _write(self, key: str, payload: bytes,
               on_done: Callable[[bool], None],
               rounds: int = MAX_REWRITE_ROUNDS) -> None:
        """One versioned set, with supersession convergence: ephemeral
        ports recycle, so a brand-new flow can reuse the key of a dead one
        whose orphaned record (left on an ex-replica by a delete that ran
        against a shrunken ring) carries a higher version and silently
        wins newest-wins.  When a replica refuses our write and reports
        the version it kept, adopt it, re-stamp above it, and write again
        -- the live flow must out-version the ghost before we acknowledge
        anything that depends on this record being durable."""

        version = self._ledger.stamp(key)

        def _cb(result: KvOpResult) -> None:
            if result.superseded_by is not None and rounds > 1:
                self._adopt_version(key, result.superseded_by)
                self._write(key, payload, on_done, rounds - 1)
                return
            if result.ok and self.replicator is not None:
                # ship at the version that actually won locally, so the
                # secondary's copy reconciles newest-wins identically
                self.replicator.note(key, payload, version)
            on_done(result.ok)

        self.kv.set(key, payload, _cb, version=version)

    def store_client_syn(self, state: FlowState,
                         on_done: Callable[[bool], None]) -> None:
        """storage-a: one set, completing before the SYN-ACK is sent."""
        self.storage_a_ops += 1
        self._write(state.storage_key(), state.to_bytes(), on_done)

    def store_server_conn(self, state: FlowState,
                          on_done: Callable[[bool], None]) -> None:
        """storage-b: update the client record and write the server-side
        index, in parallel; completes when both ack (before the ACK to the
        server is released)."""
        skey = state.server_storage_key()
        if skey is None:
            raise ValueError("store_server_conn() before a server was selected")
        self.storage_b_ops += 1
        outcome = {"pending": 2, "ok": True}

        def _one(ok: bool) -> None:
            outcome["pending"] -= 1
            outcome["ok"] = outcome["ok"] and ok
            if outcome["pending"] == 0:
                on_done(outcome["ok"])

        payload = state.to_bytes()
        self._write(state.storage_key(), payload, _one)
        self._write(skey, payload, _one)

    def checkpoint(self, state: FlowState,
                   on_done: Optional[Callable[[bool], None]] = None) -> None:
        """Re-persist both records mid-flow.  Long-lived (streaming) flows
        call this as their delivered-bytes watermark advances, so a flow
        resumed after an instance -- or region -- failure knows how much of
        the response the client already holds."""
        cb = on_done or (lambda ok: None)
        payload = state.to_bytes()
        self._write(state.storage_key(), payload, cb)
        skey = state.server_storage_key()
        if skey is not None:
            self._write(skey, payload, cb)

    # -- TLS session tickets (stored alongside flow state, same replication) --
    @staticmethod
    def ticket_storage_key(ticket: str) -> str:
        return f"yoda:tkt:{ticket}"

    def put_ticket(self, ticket: str, sni: str,
                   on_done: Optional[Callable[[bool], None]] = None) -> None:
        """Persist an issued TLS session ticket.  Riding ``_write`` gives
        it version stamping and -- when a replicator is wired -- cross-site
        shipping, so resumption survives instance *and* region failover."""
        self._write(self.ticket_storage_key(ticket), sni.encode(),
                    on_done or (lambda ok: None))

    def get_ticket(self, ticket: str,
                   on_done: Callable[[Optional[bytes]], None]) -> None:
        key = self.ticket_storage_key(ticket)

        def _cb(result: KvOpResult) -> None:
            if not result.ok or result.value is None:
                on_done(None)
                return
            self._adopt_version(key, result.version)
            on_done(result.value)

        self.kv.get(key, _cb)

    # -- reads (only on the recovery path) ----------------------------------------
    def get_by_client(self, client: Endpoint, vip: Endpoint,
                      on_done: Callable[[Optional[FlowState]], None]) -> None:
        key = client_key(client, vip)
        self.kv.get(key, lambda r: on_done(self._decode(key, r)))

    def get_by_server(self, vip_ip: str, snat_port: int, server: Endpoint,
                      on_done: Callable[[Optional[FlowState]], None]) -> None:
        key = server_key(vip_ip, snat_port, server)
        self.kv.get(key, lambda r: on_done(self._decode(key, r)))

    # -- removal (on FIN-ACK, Section 4.1) -------------------------------------------
    def remove(self, state: FlowState) -> None:
        """Delete both records, each pinned to the version we last stamped
        (compare-and-delete).  A flow can linger server-side past the
        client's TIME_WAIT, so by the time this teardown runs the storage
        key may already belong to a new incarnation of the recycled
        4-tuple -- possibly on another instance after an LB membership
        change.  Pinning the delete to *our* version means we only ever
        destroy our own records."""
        key = state.storage_key()
        version = self._ledger.pop(key)
        self.kv.delete(key, version=version)
        if self.replicator is not None:
            self.replicator.note_delete(key, version)
        skey = state.server_storage_key()
        if skey is not None:
            sversion = self._ledger.pop(skey)
            self.kv.delete(skey, version=sversion)
            if self.replicator is not None:
                self.replicator.note_delete(skey, sversion)

    def remove_server_index(self, state: FlowState) -> None:
        """Drop only the server-side index entry (used when an HTTP/1.1
        backend switch retires the old server connection)."""
        skey = state.server_storage_key()
        if skey is not None:
            sversion = self._ledger.pop(skey)
            self.kv.delete(skey, version=sversion)
            if self.replicator is not None:
                self.replicator.note_delete(skey, sversion)

    def _decode(self, key: str, result: KvOpResult) -> Optional[FlowState]:
        if not result.ok or result.value is None:
            return None
        self._adopt_version(key, result.version)
        return FlowState.from_bytes(result.value)
