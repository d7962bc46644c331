"""Sharded multi-process simulation: conservative-lookahead partitioning.

The world is cut by site/VIP into N shards, each running its own event
loop (optionally in its own OS process), exchanging cross-shard packets
at deterministic time-windowed barriers.  See DESIGN.md section 12.
"""

from repro.shard.barrier import BarrierCoordinator, merge_digests
from repro.shard.gateway import ShardGateway
from repro.shard.plan import CellSpec, CrossLink, ShardPlan, ShardPlanner
from repro.shard.runner import ShardedRunner, ShardRunResult, run_scenario_sharded
from repro.shard.worker import ShardWorker, worker_main
from repro.shard.world import (
    ScaleShardWorld,
    ScaleWorldConfig,
    make_scale_plan,
    scale_world_builder,
)

__all__ = [
    "BarrierCoordinator",
    "CellSpec",
    "CrossLink",
    "ScaleShardWorld",
    "ScaleWorldConfig",
    "ShardGateway",
    "ShardPlan",
    "ShardPlanner",
    "ShardRunResult",
    "ShardWorker",
    "ShardedRunner",
    "make_scale_plan",
    "merge_digests",
    "run_scenario_sharded",
    "scale_world_builder",
    "worker_main",
]
