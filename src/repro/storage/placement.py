"""Storage-tier placement: groups hash to shards, shards map to nodes.

Two layers, deliberately separate:

- **Series groups -> shards** (:func:`group_shard`): every archived
  series belongs to a *group* -- one ``(source, cluster, host)`` -- and
  a group's shard is a stable hash of its name under the placement
  seed.  Groups never move: a series lives in one shard for its life,
  so a column plan's shard split is computed once.
- **Shards -> storage nodes** (:class:`ShardMap`): each shard owns an
  ordered replica list (primary first).  Rebalancing after a node join
  or leave is *bounded*: a single membership change moves at most
  ``ceil(slots/N)`` shards (``ceil(K/N)`` at R=1), never a full
  reshuffle -- the property the Hypothesis suite pins.  This is the
  only way data moves between nodes.

Everything here is pure data manipulation: deterministic given the
seed and the live set, no simulation clock.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import derive_seed

#: A series group: every key of one (source, cluster, host) shares a shard.
GroupKey = Tuple[str, str, str]


def group_shard(group: GroupKey, shards: int, seed: int) -> int:
    """The shard of ``group``: a stable hash of its name under ``seed``."""
    return derive_seed(seed, f"group:{'/'.join(group)}") % shards


class ShardMap:
    """Shard -> ordered replica (storage node) lists, rebalanced minimally.

    The invariant the bounded-movement guarantee rests on: replica slots
    stay balanced across live nodes (max load - min load <= 1).  Under
    that invariant a dead node holds at most ``ceil(slots/N)`` slots (so
    a leave changes at most that many shards) and a join pulls at most
    ``ceil(slots/(N+1))`` slots onto the new node -- both within the
    ``ceil(K/N)``-at-R=1 budget.
    """

    def __init__(
        self,
        shards: int,
        node_names: Sequence[str],
        replication: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if not node_names:
            raise ValueError("need at least one node")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.shards = shards
        self.node_names: List[str] = sorted(node_names)
        n = len(self.node_names)
        #: replicas every shard keeps, capped at the fleet size
        self.replication = min(replication, n)
        # round-robin start: primary s % N, backups on the next nodes --
        # balanced per replica rank, so per-node load starts balanced
        self.replicas: List[List[str]] = [
            [self.node_names[(s + r) % n] for r in range(self.replication)]
            for s in range(shards)
        ]

    # -- queries -----------------------------------------------------------

    def loads(self, live: Sequence[str]) -> Dict[str, int]:
        """Replica slots currently assigned per live node."""
        load = {name: 0 for name in live}
        for nodes in self.replicas:
            for name in nodes:
                if name in load:
                    load[name] += 1
        return load

    def shards_on(self, node: str) -> List[int]:
        return [s for s, nodes in enumerate(self.replicas) if node in nodes]

    # -- mutation ----------------------------------------------------------

    def replace_replica(self, shard: int, old: str, new: str) -> None:
        """Swap one replica in place (repair picked a replacement node)."""
        nodes = self.replicas[shard]
        nodes[nodes.index(old)] = new

    def add_replica(self, shard: int, node: str) -> None:
        if node in self.replicas[shard]:
            raise ValueError(f"{node} already replicates shard {shard}")
        self.replicas[shard].append(node)

    def rebalance(self, live: Sequence[str]) -> int:
        """Adapt to the live set; returns how many shards changed.

        Three deterministic passes: evict dead replicas, refill each
        shard to ``replication`` from the least-loaded live nodes, then
        drain the load spread to <= 1 by moving single replicas from
        the most- to the least-loaded node (this is the only pass a pure
        join exercises, and it only ever moves slots *onto* underloaded
        nodes).
        """
        live_set = set(live)
        for name in sorted(live_set):
            if name not in self.node_names:
                self.node_names.append(name)
        self.node_names.sort()
        changed = set()

        for s, nodes in enumerate(self.replicas):
            kept = [n for n in nodes if n in live_set]
            if len(kept) != len(nodes):
                changed.add(s)
            self.replicas[s] = kept

        if not live_set:
            return len(changed)
        load = self.loads(sorted(live_set))
        for s in range(self.shards):
            nodes = self.replicas[s]
            want = min(self.replication, len(live_set))
            while len(nodes) < want:
                candidates = [n for n in load if n not in nodes]
                if not candidates:
                    break
                pick = min(candidates, key=lambda n: (load[n], n))
                nodes.append(pick)
                load[pick] += 1
                changed.add(s)

        for _ in range(self.shards * self.replication):
            lo = min(load, key=lambda n: (load[n], n))
            hi = max(load, key=lambda n: (load[n], n))
            if load[hi] - load[lo] <= 1:
                break
            moved = False
            for s in sorted(self.shards_on(hi)):
                if lo not in self.replicas[s]:
                    self.replace_replica(s, hi, lo)
                    load[hi] -= 1
                    load[lo] += 1
                    changed.add(s)
                    moved = True
                    break
            if not moved:
                break
        return len(changed)
