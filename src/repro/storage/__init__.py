"""Replicated, sharded storage tier behind the gmetad archiver.

Series groups hash to a fixed shard (:func:`group_shard`); shards move
between storage nodes only through the :class:`ShardMap`, and every
replica copy is one bank-block copy.  Gated by
``GmetadConfig.storage_tier`` (a :class:`StorageTierConfig`); ``None``
-- the default -- keeps the single-store archiver path byte-identical
to baseline.  See DESIGN.md §12.
"""

from repro.storage.config import StorageTierConfig
from repro.storage.node import StorageNode, make_node_names
from repro.storage.placement import ShardMap, group_shard
from repro.storage.tier import StorageTier, StorageUnavailable, TierColumnPlan

__all__ = [
    "StorageTierConfig",
    "StorageNode",
    "make_node_names",
    "ShardMap",
    "group_shard",
    "StorageTier",
    "StorageUnavailable",
    "TierColumnPlan",
]
