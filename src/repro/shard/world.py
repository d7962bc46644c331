"""The scale world: many namespaced cells under one diurnal day of load.

Each cell is a complete small YODA deployment (its own L4 LB, instance
tier, store cluster, backends and clients) built by the standard
:class:`Testbed` with ``cell=k`` namespacing, so any number of cells can
share one event loop and network -- and be cut across shard workers at
any granularity.  Clients in every cell follow the compressed diurnal +
flash-crowd trace (:mod:`repro.workload.trace`), and a configurable
fraction of each cell's requests targets the *next* cell's VIP, which is
the traffic that exercises cross-shard links.

Construction is layout-independent: every cell builds from its own
:class:`CellSpec` seed, the inter-cell latency table comes from the plan
(identical for co-located and cut pairs), and each cell's workload RNG
streams are derived from the cell index -- so moving a cell between
shards never changes what the cell *does*, only where it executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.harness import Testbed, TestbedConfig
from repro.net.addresses import Endpoint
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.shard.plan import ShardPlan, ShardPlanner
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.workload.clients import OpenLoopGenerator
from repro.workload.trace import DiurnalConfig, DiurnalTrace, generate_diurnal_trace

SETTLE_SECONDS = 1.0  # per-shard warmup before the first barrier window


# per-cell deployment (small: the point is many cells, not big ones)
CELL_LB_INSTANCES, CELL_STORE_SERVERS, CELL_BACKENDS = 3, 2, 3
CELL_OBJECT_COUNT, CELL_OBJECT_BYTES = 40, 6_000
# inter-cell fabric
CROSS_LATENCY = 0.010  # dc <-> dc one-way (the lookahead floor)
CLIENT_CROSS_LATENCY = 0.030  # net <-> remote dc one-way
CROSS_FRACTION = 0.15  # of each cell's rate aimed at a neighbor
HTTP_TIMEOUT = 8.0


@dataclass
class ScaleWorldConfig:
    """Sizing for the sharded scale experiment."""

    seed: int = 2016
    num_cells: int = 4
    num_shards: int = 1
    diurnal: DiurnalConfig = field(default_factory=DiurnalConfig)


def make_scale_plan(cfg: ScaleWorldConfig) -> ShardPlan:
    """Plan the cell cut; client paths are slower than the DC backbone,
    so the backbone's 10 ms stays the conservative lookahead window."""
    models = {}
    client_model = FixedLatency(CLIENT_CROSS_LATENCY)
    for j in range(cfg.num_cells):
        for k in range(cfg.num_cells):
            if j == k:
                continue
            models[(f"net{j}", f"dc{k}")] = client_model
            models[(f"dc{j}", f"net{k}")] = client_model
    planner = ShardPlanner(
        num_cells=cfg.num_cells,
        num_shards=cfg.num_shards,
        seed=cfg.seed,
        cross_model=FixedLatency(CROSS_LATENCY),
        cross_models=models,
    )
    return planner.plan()


class ScaleShardWorld:
    """One shard's slice of the scale world: its cells plus their load."""

    def __init__(self, shard_index: int, plan: ShardPlan,
                 cfg: ScaleWorldConfig):
        self.shard_index = shard_index
        self.loop = EventLoop()
        rng = SeededRng(plan.seed).fork(f"shardworld/{shard_index}")
        self.network = Network(self.loop, rng)
        # the full inter-cell latency table: identical on every shard, so
        # a cell pair behaves the same co-located or cut
        for (src, dst), model in plan.models.items():
            self.network.set_latency(src, dst, model)

        self.beds: Dict[int, Testbed] = {}
        self.generators: List[OpenLoopGenerator] = []
        self.traces: Dict[int, DiurnalTrace] = {}
        for cell in plan.cells_on(shard_index):
            self.beds[cell.index] = Testbed(
                TestbedConfig(
                    seed=cell.seed,
                    cell=cell.index,
                    lb="yoda",
                    num_lb_instances=CELL_LB_INSTANCES,
                    num_store_servers=CELL_STORE_SERVERS,
                    num_backends=CELL_BACKENDS,
                    corpus="flat",
                    flat_object_count=CELL_OBJECT_COUNT,
                    flat_object_bytes=CELL_OBJECT_BYTES,
                ),
                fabric=(self.loop, self.network),
                settle=False,
            )
        # one settle for the whole shard: mappings and monitors converge
        # before the first barrier window (no cross-cell traffic yet, so
        # settling without barriers is safe)
        self.loop.run_for(SETTLE_SECONDS)

        for cell in plan.cells_on(shard_index):
            self._start_cell_load(cell.index, plan, cfg)

    def _start_cell_load(self, k: int, plan: ShardPlan,
                         cfg: ScaleWorldConfig) -> None:
        bed = self.beds[k]
        trace = generate_diurnal_trace(cfg.diurnal, stream=f"cell{k}")
        self.traces[k] = trace
        neighbor = plan.cells[(k + 1) % len(plan.cells)]
        legs: List[Tuple[OpenLoopGenerator, float]] = []
        local = OpenLoopGenerator(
            bed.client_stacks[0], self.loop, Endpoint(bed.vip, 80),
            rate=max(0.1, trace.sim_rates[0] * (1.0 - CROSS_FRACTION)),
            path_fn=bed.website.random_object,
            http_timeout=HTTP_TIMEOUT,
        )
        legs.append((local, 1.0 - CROSS_FRACTION))
        if neighbor.index != k:
            # every cell's flat corpus has the same paths, so a remote
            # fetch needs no knowledge of the remote cell beyond its VIP
            cross = OpenLoopGenerator(
                bed.client_stacks[-1], self.loop,
                Endpoint(neighbor.vip, 80),
                rate=max(0.1, trace.sim_rates[0] * CROSS_FRACTION),
                path_fn=bed.website.random_object,
                http_timeout=HTTP_TIMEOUT,
            )
            legs.append((cross, CROSS_FRACTION))
        for gen, share in legs:
            gen.start()
            self.generators.append(gen)
            for t, rate in zip(trace.times[1:], trace.sim_rates[1:]):
                self.loop.call_later(t, gen.set_rate, max(0.1, rate * share))

    def stats(self) -> Dict[str, float]:
        return {
            "cells": len(self.beds),
            "fetches_issued": sum(g.issued for g in self.generators),
            "fetches_ok": sum(g.ok_count() for g in self.generators),
            "fetches_failed": sum(g.failure_count() for g in self.generators),
        }


def scale_world_builder(cfg: ScaleWorldConfig):
    """The ``WorldBuilder`` the sharded runner forks into each worker."""

    def build(shard_index: int, plan: ShardPlan) -> ScaleShardWorld:
        return ScaleShardWorld(shard_index, plan, cfg)

    return build
