"""Region sharding: halo-exchange partitions of a deployment.

The paper's locality property — every coverage decision reads only a
⌈τ/2⌉-hop neighbourhood — is what makes the monolithic simulator
shardable at all: partition the deployment into owned regions, surround
each with a ⌈τ/2⌉-hop halo band, and every verdict, separation probe
and MIS decision a shard needs is answerable from its own partition.
This package owns that decomposition:

* :mod:`repro.shard.plan` — the deterministic partitioner and
  :class:`ShardPlan` (owned regions, halo bands, routing tables);
* :mod:`repro.shard.runtime` — :class:`LocalShard`, the shard-local
  partition engine and MIS state (REPRO113-linted: it never reads
  coordinator state);
* :mod:`repro.shard.halo` — :class:`HaloExchange`, the round-synchronous
  boundary-band row router with traffic metering;
* :mod:`repro.shard.scheduler` — the coordinator producing schedules
  vertex-identical to the unsharded engine's.

Entry point: ``dcc_schedule(..., shards=N)``; see DESIGN.md section 9.
"""

from repro.shard.halo import HaloExchange
from repro.shard.plan import (
    ShardPlan,
    ShardSpec,
    build_shard_plan,
    partition_parts,
)
from repro.shard.scheduler import ShardStats, sharded_dcc_schedule

__all__ = [
    "HaloExchange",
    "ShardPlan",
    "ShardSpec",
    "ShardStats",
    "build_shard_plan",
    "partition_parts",
    "sharded_dcc_schedule",
]
