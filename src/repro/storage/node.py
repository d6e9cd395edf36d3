"""One simulated storage node: a private RRD store plus work accounting.

Nodes do not sit on the network fabric -- the paper's gmetad writes its
RRDs through the local filesystem, and this tier models a local fleet of
writer processes/disks behind one daemon.  What matters for the
experiments is (a) whether a node is up, (b) which series it physically
holds, and (c) how much *work* it absorbed, because the parallel-flush
throughput of the tier is governed by the busiest node (the critical
path), not the sum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.rrd.database import RraSpec
from repro.rrd.store import RrdStore


class StorageNode:
    """A storage node: name, liveness, private store, work counters."""

    def __init__(
        self,
        name: str,
        mode: str = "full",
        step: float = 15.0,
        rra_specs: Optional[Sequence[RraSpec]] = None,
        downtime_fill: str = "zero",
    ) -> None:
        self.name = name
        self.up = True
        self.store = RrdStore(
            mode=mode,
            step=step,
            rra_specs=list(rra_specs) if rra_specs is not None else None,
            downtime_fill=downtime_fill,
        )
        #: simulated seconds of storage work absorbed (updates + repairs)
        self.busy_seconds = 0.0
        #: physical RRD updates applied on this node
        self.updates_applied = 0
        #: write batches (column scatters) landed here
        self.flushes = 0
        #: times this node was killed / restarted
        self.kills = 0
        self.restarts = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return (
            f"<StorageNode {self.name} {state} "
            f"updates={self.updates_applied} busy={self.busy_seconds:.3f}s>"
        )


def make_node_names(count: int) -> List[str]:
    """The fleet's node names: ``st00`` .. ``stNN`` (sorted == id order)."""
    return [f"st{i:02d}" for i in range(count)]
