"""The Ganglia XML data language (paper Fig. 3).

Monitoring data travels as a recursive XML document::

    <GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
     <GRID NAME="SDSC" AUTHORITY="http://...">
      <CLUSTER NAME="Meteor" ...>
       <HOST NAME="compute-0-0" ...>
        <METRIC NAME="load_one" VAL="0.89" TYPE="float" .../>
       </HOST>
      </CLUSTER>
      <GRID NAME="ATTIC" AUTHORITY="http://...">
       <HOSTS UP="10" DOWN="1"/>
       <METRICS NAME="load_one" SUM="17.56" NUM="10" .../>
      </GRID>
     </GRID>
    </GANGLIA_XML>

The recursive language gives "the desirable characteristic of hierarchical
composability" (§1 Related Work): a gmetad emits the same format gmond
does, so monitors stack into trees.  Nested grids and clusters may appear
in **summary form** -- a ``HOSTS UP/DOWN`` element plus one ``METRICS``
additive reduction per metric -- which is the N-level design's key trick.

This package contains the element model (:mod:`repro.wire.model`), a
writer (:mod:`repro.wire.writer`), the chunk-list form a daemon's reply
leaves in (:mod:`repro.wire.reply`), and a hand-rolled streaming SAX-style
parser (:mod:`repro.wire.parser`).  XPath engines "proved to be too
heavyweight and inefficient" for Ganglia (§2.3); in the same spirit the
parser here is specialized to the Ganglia DTD: elements and attributes
only, no text nodes, no namespaces.
"""

from repro.wire.model import (
    ClusterElement,
    GangliaDocument,
    GridElement,
    HostElement,
    MetricElement,
    MetricSummary,
    SummaryInfo,
)
from repro.wire.parser import GangliaParser, ParseError, TreeBuilder, parse_document
from repro.wire.writer import XmlWriter, write_document

__all__ = [
    "MetricElement",
    "MetricSummary",
    "SummaryInfo",
    "HostElement",
    "ClusterElement",
    "GridElement",
    "GangliaDocument",
    "XmlWriter",
    "write_document",
    "GangliaParser",
    "TreeBuilder",
    "ParseError",
    "parse_document",
]
