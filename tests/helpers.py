"""Test-only views of datastore state."""

from __future__ import annotations

from repro.columnar import InternPool
from repro.core.datastore import SourceSnapshot
from repro.wire.model import ClusterElement


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
