"""Placement properties: a stable group hash, bounded shard movement.

The two guarantees the storage tier's placement layer makes:

- :func:`group_shard` is a pure function of (group, shards, seed) --
  same inputs, same shard, across calls and across processes;
- :class:`ShardMap.rebalance` after a *single* node join or leave moves
  at most ``ceil(K/N)`` shards (at R=1), never a full reshuffle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.placement import ShardMap, group_shard


class TestGroupShard:
    @given(
        source=st.text(max_size=8),
        host=st.text(max_size=8),
        shards=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_stable_and_in_range(self, source, host, shards, seed):
        group = (source, "c0", host)
        shard = group_shard(group, shards, seed)
        assert 0 <= shard < shards
        assert group_shard(group, shards, seed) == shard

    def test_hosts_spread_over_every_shard(self):
        groups = [("src", "cl", f"h{h:03d}") for h in range(256)]
        used = {group_shard(g, 8, seed=20031201) for g in groups}
        assert used == set(range(8))


class TestShardMap:
    def test_initial_assignment_balanced(self):
        shard_map = ShardMap(16, [f"st{i:02d}" for i in range(4)])
        loads = shard_map.loads(shard_map.node_names)
        assert set(loads.values()) == {4}

    def test_replication_gives_distinct_replicas(self):
        shard_map = ShardMap(8, ["a", "b", "c"], replication=2)
        for nodes in shard_map.replicas:
            assert len(nodes) == 2
            assert len(set(nodes)) == 2

    def test_replication_capped_at_node_count(self):
        shard_map = ShardMap(4, ["a", "b"], replication=5)
        assert all(len(nodes) == 2 for nodes in shard_map.replicas)

    def test_replace_and_add_replica(self):
        shard_map = ShardMap(4, ["a", "b", "c"])
        old = shard_map.replicas[0][0]
        new = next(n for n in ("a", "b", "c") if n != old)
        with pytest.raises(ValueError):
            shard_map.add_replica(0, old)
        shard_map.replace_replica(0, old, "c" if new != "c" else "b")
        assert old not in shard_map.replicas[0]

    @given(
        shards=st.integers(min_value=1, max_value=64),
        node_count=st.integers(min_value=2, max_value=12),
        victim=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_single_leave_moves_at_most_ceil_k_over_n(
        self, shards, node_count, victim
    ):
        names = [f"st{i:02d}" for i in range(node_count)]
        shard_map = ShardMap(shards, names)
        dead = names[victim % node_count]
        survivors = [n for n in names if n != dead]
        moved = shard_map.rebalance(survivors)
        assert moved <= math.ceil(shards / node_count)
        # every shard is healed onto a survivor
        for nodes in shard_map.replicas:
            assert len(nodes) == 1
            assert nodes[0] in survivors
        loads = shard_map.loads(survivors)
        assert max(loads.values()) - min(loads.values()) <= 1

    @given(
        shards=st.integers(min_value=1, max_value=64),
        node_count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_single_join_moves_at_most_ceil_k_over_n(
        self, shards, node_count
    ):
        names = [f"st{i:02d}" for i in range(node_count)]
        shard_map = ShardMap(shards, names)
        joined = names + ["zz-new"]
        moved = shard_map.rebalance(joined)
        assert moved <= math.ceil(shards / node_count)
        loads = shard_map.loads(joined)
        assert max(loads.values()) - min(loads.values()) <= 1
        # the new node actually took its share
        assert loads["zz-new"] >= shards // (node_count + 1)

    def test_rebalance_is_deterministic(self):
        def run():
            shard_map = ShardMap(16, [f"st{i:02d}" for i in range(4)])
            shard_map.rebalance([f"st{i:02d}" for i in range(4) if i != 1])
            shard_map.rebalance([f"st{i:02d}" for i in range(5)])
            return [list(nodes) for nodes in shard_map.replicas]

        assert run() == run()
