"""Serving cluster replies straight from the columns.

A cluster snapshot holds its hosts only as a
:class:`~repro.columnar.layout.ColumnarCluster`, so this package renders
Ganglia XML directly from those arrays -- no
:class:`~repro.wire.model.HostElement` tree is ever built.  With
``GmetadConfig.columnar_serve`` (``ReadTierConfig.columnar_serve`` on a
read replica) a daemon also keeps a per-source
:class:`~repro.serve.arena.FragmentArena` of pre-rendered per-host byte
fragments, invalidated per host on delta updates, so a detail reply
splices mostly-reused strings into its chunk list
(:mod:`repro.wire.reply`); without it each reply renders from the
columns (:class:`~repro.serve.fragments.DetailRenderer`).  Both give
the bytes :class:`~repro.wire.writer.XmlWriter` writes for the same
cluster.  The ingest gmetad and the replicas fill their arenas through
the same :class:`~repro.core.gmetad_base.QueryServer` helper, from
columns each parsed straight off the wire, and answer GBF1 ``/source``
frames through the same detail helper.
"""

from repro.serve.arena import FragmentArena
from repro.serve.fragments import (
    memoized_source_fragment,
    summary_cluster_element,
)
from repro.serve.render import HostRenderer, render_cluster

__all__ = [
    "FragmentArena",
    "HostRenderer",
    "memoized_source_fragment",
    "summary_cluster_element",
    "render_cluster",
]
