"""Configuration for the replicated, sharded storage tier.

Kept dependency-free (plain dataclass, no repro imports) because
:mod:`repro.core.tree` imports it into :class:`GmetadConfig` -- the
config gate must not drag the storage fleet into the core import graph.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StorageTierConfig:
    """Knobs for one gmetad's simulated storage-node fleet.

    Attaching this to ``GmetadConfig.storage_tier`` replaces the
    daemon's single :class:`~repro.rrd.store.RrdStore` with a
    :class:`~repro.storage.tier.StorageTier`: series hash by host into
    ``shards``, each shard lives on ``replication`` of the ``nodes``
    simulated storage nodes, and fetches fail over to surviving
    replicas when a node dies.
    ``None`` (the default) keeps the single-store archiver path
    byte-identical to baseline.
    """

    #: number of simulated storage nodes behind the archiver
    nodes: int = 4
    #: number of series shards (placement unit; K in the placement math)
    shards: int = 16
    #: replica count for every shard
    replication: int = 1
    #: how often the shard rebalance spreads replica slots evenly over
    #: the live nodes (seconds of simulated time; 0 disables it)
    rebalance_interval: float = 120.0
    #: anti-entropy sweep cadence (seconds; 0 disables self-repair)
    repair_interval: float = 15.0
    #: target: every under-replicated shard is restored to its replica
    #: count within this many seconds of the incident (reported against
    #: measured time-to-repair; the sweep cadence must make it feasible)
    repair_deadline: float = 60.0
    #: simulated seconds of storage-node work per physical RRD update
    #: (defaults to the CostModel's rrd_update when left at 0)
    rrd_update_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("storage tier needs at least one node")
        if self.shards < 1:
            raise ValueError("storage tier needs at least one shard")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.rebalance_interval < 0:
            raise ValueError("rebalance_interval must be >= 0")
        if self.repair_interval < 0:
            raise ValueError("repair_interval must be >= 0")
        if self.repair_deadline <= 0:
            raise ValueError("repair_deadline must be positive")
        if self.rrd_update_cost < 0:
            raise ValueError("rrd_update_cost must be >= 0")

