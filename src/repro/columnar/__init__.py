"""Columnar ingest fast path: structure-of-arrays cluster polls.

The tree ingest path re-materializes a Python object per XML element
every polling interval -- "incoming XML must be parsed" (§2.3.1) -- and
then walks those objects one host at a time to summarize and archive.
This package keeps one poll as a handful of contiguous numpy arrays
instead, so the per-metric work collapses into vectorized kernels:

- :mod:`repro.columnar.layout` -- the :class:`ColumnarCluster`
  structure-of-arrays and the :class:`InternPool` that maps the tiny
  closed vocabularies (metric names, units, TYPE/SLOPE enums) to dense
  integer ids;
- :mod:`repro.columnar.summarize` -- vectorized eager summarization,
  bit-identical to the scalar fold in :mod:`repro.core.summarize`, and
  :class:`ColumnarSummaryTracker`, the daemon's only incremental
  summarizer.

The parse fast path is gated by ``GmetadConfig.columnar`` (default off)
and the on-wire output is byte-identical either way.  The tracker is
not gated by it: with ``incremental`` on, a tree-parsed cluster reaches
the same tracker through :func:`columns_from_cluster`.
"""

from repro.columnar.layout import (
    ColumnarCluster,
    ColumnarDocument,
    InternPool,
    columns_from_cluster,
)
from repro.columnar.summarize import ColumnarSummaryTracker, summarize_columns

__all__ = [
    "ColumnarCluster",
    "ColumnarDocument",
    "InternPool",
    "ColumnarSummaryTracker",
    "columns_from_cluster",
    "summarize_columns",
]
