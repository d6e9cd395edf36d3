"""Test-only views of datastore state, a summary-archive writer and a
standalone pseudo-gmond."""

from __future__ import annotations

from repro.columnar import InternPool
from repro.core.archiver import Archiver
from repro.core.datastore import SourceSnapshot
from repro.sim.resources import CostModel
from repro.wire.model import ClusterElement, MetricSummary, SummaryInfo


def host_tree(snapshot) -> ClusterElement:
    """A cluster snapshot's full host tree, built from its columns.

    The datastore holds hosts only as columns; tests that check values
    host by host read them through the element model this rebuilds.  A
    snapshot without columns has no hosts: its shell is returned.
    """
    cols = snapshot.columns
    if cols is None:
        return snapshot.cluster
    return cols.materialize_into(cols.shell_cluster())


def cluster_snapshot(cluster: ClusterElement, **fields) -> SourceSnapshot:
    """A cluster snapshot from a hand-built element.

    Hosts move into columns; a hostless element (a summary-form
    cluster) is its own shell and is kept as it is.
    """
    if not cluster.hosts:
        return SourceSnapshot(kind="cluster", cluster=cluster, **fields)
    return SourceSnapshot.from_cluster(cluster, InternPool(), **fields)


def summary_of(**metrics) -> SummaryInfo:
    """A summary from ``name=(total, num)`` reductions, in keyword order."""
    return SummaryInfo(
        metrics={
            name: MetricSummary(name, total, num)
            for name, (total, num) in metrics.items()
        }
    )


def archive_summary(store, source: str, cluster: str, t: float, **metrics):
    """Archive one summary poll into ``store`` the way a gmetad does.

    ``metrics`` maps a metric name to its ``(total, num)`` reduction;
    each lands as the ``name`` and ``name.num`` series of
    :meth:`Archiver.archive_summary`'s one scatter.  Charges nothing.
    """
    archiver = Archiver(store, charge=lambda work, category: 0.0, costs=CostModel())
    return archiver.archive_summary(source, cluster, summary_of(**metrics), t)


def pseudo_gmond(num_hosts: int, seed: int = 7):
    """A pseudo-gmond on a world of its own (15 s refresh, not yet drawn
    past its build)."""
    import random

    from repro.gmond.pseudo import PseudoGmond
    from repro.net.fabric import Fabric
    from repro.net.tcp import TcpNetwork
    from repro.sim.engine import Engine

    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    return PseudoGmond(
        engine, fabric, tcp, "c0", num_hosts, random.Random(seed),
        refresh_interval=15.0,
    )
