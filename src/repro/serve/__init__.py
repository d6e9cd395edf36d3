"""Columnar serve fast path: query replies straight from the columns.

Without it, any detail or ``/source/host`` query against columnar
state first rebuilds a DOM (``SourceSnapshot.ensure_hosts``).  This
package renders Ganglia XML directly from
:class:`~repro.columnar.layout.ColumnarCluster` arrays -- no
:class:`~repro.wire.model.HostElement` tree is ever built -- and keeps
a per-source :class:`~repro.serve.arena.FragmentArena` of pre-rendered
per-host byte fragments that is invalidated per host on delta updates,
so a detail reply is a join of mostly-reused strings.

Gated by ``GmetadConfig.columnar_serve`` (``ReadTierConfig.columnar_serve``
on a read replica); off means byte-identical behaviour, on means
byte-identical *replies* served without materialization.  The ingest
gmetad and the replicas fill their arenas through the same
:class:`~repro.core.gmetad_base.QueryServer` helper, from columns each
parsed straight off the wire, and answer GBF1 ``/source`` frames
through the same detail helper.
"""

from repro.serve.arena import FragmentArena
from repro.serve.fragments import (
    memoized_source_fragment,
    summary_cluster_element,
)
from repro.serve.render import render_cluster, render_host, render_metric_row

__all__ = [
    "FragmentArena",
    "memoized_source_fragment",
    "summary_cluster_element",
    "render_cluster",
    "render_host",
    "render_metric_row",
]
