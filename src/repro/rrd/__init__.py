"""Round-robin time-series databases (Ganglia's RRDtool, reimplemented).

"Ganglia keeps historical records of data in specialized time-series
databases, whose stream-based design supports a wide range of time scale
queries employing lossy compression with a bias towards recent data. ...
The databases are highly optimized for this type of data and do not grow
in size over time.  If a monitored node has failed, it keeps a 'zero'
record during the downtime, aiding time-of-death forensic analysis."
(§2.1)

This package provides:

- :class:`~repro.rrd.database.RrdDatabase` -- one metric's history:
  fixed-size, multi-resolution, consolidated archives.
- :class:`~repro.rrd.bank.SeriesBank` -- many such histories in shared
  arrays, written one scalar sample or one vectorized poll scatter at
  a time (the paper's §4 "more efficient manner"), each series
  value-identical to an ``RrdDatabase``.
- :class:`~repro.rrd.store.RrdStore` -- the per-gmetad collection of
  series keyed by (source, cluster, host, metric), every one a column
  of the store's bank, with an *accounting* mode used by the large
  scaling experiments (CPU cost is charged but no arrays are allocated).
"""

from repro.rrd.consolidate import ConsolidationFunction
from repro.rrd.database import RrdDatabase, RraSpec, default_rra_specs
from repro.rrd.rra import RoundRobinArchive
from repro.rrd.store import MetricKey, RrdStore

__all__ = [
    "ConsolidationFunction",
    "RoundRobinArchive",
    "RrdDatabase",
    "RraSpec",
    "default_rra_specs",
    "RrdStore",
    "MetricKey",
]
