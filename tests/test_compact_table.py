"""Properties of the compact stateless dispatch table.

A snapshot is version + instances + one tuple of ``NUM_BUCKETS``
targets built from :func:`bucket_targets`.  It must (a) name, for every
bucket of every snapshot across a churned sequence of membership
pushes, the instance ``bucket_targets`` gives -- so always one inside
the live set, (b) be deterministic across identically-driven services,
(c) never change once published, and (d) cost memory independent of
the number of flows it routes.
"""

import random
from zlib import crc32

import pytest

from repro.l4lb.compact import (
    NUM_BUCKETS,
    CompactDispatchTable,
    StatelessConfig,
    bucket_targets,
)
from repro.l4lb.service import L4LoadBalancer
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng

VIP = "100.0.0.1"


def armed_lb(config=None):
    loop = EventLoop()
    lb = L4LoadBalancer(loop, Network(loop, SeededRng(1)), SeededRng(1),
                        stateless=config or StatelessConfig())
    lb.register_vip(VIP)
    return lb


def churned_pushes(seed, pushes=40):
    """Membership lists of a random walk of joins, leaves and swaps."""
    rng = random.Random(seed)
    pool = [f"10.1.0.{i}" for i in range(1, 13)]
    live = pool[:3]
    for _ in range(pushes):
        op = rng.random()
        spare = [ip for ip in pool if ip not in live]
        victim = rng.choice(live)
        if op < 0.4 and spare:
            live = live + [rng.choice(spare)]
        elif op < 0.8 and len(live) > 1:
            live = [ip for ip in live if ip != victim]
        elif spare:
            live = [ip for ip in live if ip != victim] + [rng.choice(spare)]
        assert live
        yield list(live)


class TestChurnedPushes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_bucket_names_its_target_in_the_live_set(self, seed):
        lb = armed_lb()
        for live in churned_pushes(seed):
            lb.update_mapping(VIP, live, immediate=True)
            table = lb.compact_table(VIP)
            assert table.version == lb.compact_version(VIP)
            assert table.targets == bucket_targets(VIP, live)
            assert len(table.targets) == NUM_BUCKETS
            assert set(table.targets) <= set(live)

    def test_identical_histories_build_identical_tables(self):
        """Two services fed the same pushes publish equal snapshots."""
        tables = []
        for _ in range(2):
            lb = armed_lb()
            for live in churned_pushes(7):
                lb.update_mapping(VIP, live, immediate=True)
            tables.append(lb.compact_table(VIP))
        t1, t2 = tables
        assert (t1.version, t1.instances, t1.targets) == (
            t2.version, t2.instances, t2.targets)

    def test_snapshot_is_isolated_from_later_mutation(self):
        lb = armed_lb()
        lb.update_mapping(VIP, ["a", "b", "c"], immediate=True)
        frozen = lb.compact_table(VIP)
        before = (frozen.version, frozen.instances, frozen.targets)
        lb.update_mapping(VIP, ["d"], immediate=True)
        assert lb.compact_table(VIP) is not frozen
        assert (frozen.version, frozen.instances, frozen.targets) == before


class TestSnapshotProperties:
    def test_flow_key_lookup_is_bucket_consistent(self):
        instances = tuple(f"10.0.0.{i}" for i in range(4))
        table = CompactDispatchTable(VIP, 1, instances)
        for port in range(40000, 40100):
            key = f"172.16.0.1:{port}>{VIP}:80"
            assert table.lookup(key) == table.targets[
                crc32(key.encode()) % NUM_BUCKETS]
            assert table.lookup(key) == table.lookup(key)

    def test_size_is_flow_count_independent(self):
        instances = ("10.0.0.1", "10.0.0.2")
        table = CompactDispatchTable(VIP, 1, instances)
        size = table.size_bytes()
        for port in range(40000, 41000):
            table.lookup(f"172.16.0.1:{port}>{VIP}:80")
        assert table.size_bytes() == size
        assert CompactDispatchTable(VIP, 2, instances).size_bytes() == size


class TestBucketAssignment:
    def test_bucket_targets_cover_all_buckets_and_instances(self):
        ips = [f"10.1.0.{i}" for i in range(5)]
        targets = bucket_targets(VIP, ips)
        assert len(targets) == NUM_BUCKETS
        assert set(targets) == set(ips)  # all get a share

    def test_membership_change_moves_a_minority_of_buckets(self):
        """Ring-based assignment: adding one instance must remap roughly
        1/n of the buckets, not reshuffle the space."""
        ips = [f"10.1.0.{i}" for i in range(6)]
        before = bucket_targets(VIP, ips)
        after = bucket_targets(VIP, ips + ["10.1.0.99"])
        moved = sum(1 for b in range(NUM_BUCKETS) if before[b] != after[b])
        assert 0 < moved < NUM_BUCKETS * 0.40


class TestConfig:
    def test_default_config_is_armed_but_stateful(self):
        assert StatelessConfig().enabled is False
        lb = armed_lb()
        assert lb.stateless is not None and not lb.stateless_enabled

    def test_enabled_config_switches_mode(self):
        assert armed_lb(StatelessConfig(enabled=True)).stateless_enabled
