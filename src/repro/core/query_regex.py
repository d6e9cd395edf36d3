"""Regex path queries: the "richer query language" of §4.

"Such an alarm system may require a more detailed query mechanism than
we currently provide.  A richer query language based on regular
expressions is planned for next version of Ganglia."

Syntax: a path whose segments are anchored regular expressions,
introduced by ``~``::

    ~/meteor|nashi/compute-0-\\d+/load_(one|five)

Each segment pattern is matched against the corresponding hash-table
level (sources, hosts/nested summaries, metrics).  The result is a list
of concrete matches, each with its full path -- what the alarm engine
iterates over.  A cluster's hosts are held as columns, so the search
walks host names and row slices and builds an element only for what
matched: the host (:meth:`ColumnarCluster.materialize_host`) or the
one metric row (:meth:`ColumnarCluster.metric_at`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Pattern, Tuple, Union

from repro.core.datastore import Datastore
from repro.wire.model import (
    ClusterElement,
    GridElement,
    HostElement,
    MetricElement,
)

MatchedElement = Union[ClusterElement, GridElement, HostElement, MetricElement]


class RegexQueryError(ValueError):
    """Malformed regex query."""


@dataclass(frozen=True)
class RegexMatch:
    """One concrete element matched by a regex query."""

    path: Tuple[str, ...]
    element: MatchedElement

    @property
    def path_text(self) -> str:
        """The match's concrete path as /a/b/c text."""
        return "/" + "/".join(self.path)


@dataclass(frozen=True)
class RegexQuery:
    """Compiled regex path query (1-3 segment patterns)."""

    patterns: Tuple[Pattern[str], ...]

    @classmethod
    def parse(cls, text: str) -> "RegexQuery":
        """Compile a ~/seg/seg/seg query; anchors each segment."""
        text = text.strip()
        if text.startswith("~"):
            text = text[1:]
        if not text.startswith("/"):
            raise RegexQueryError(f"regex query must start with '~/': {text!r}")
        segments = [s for s in text.split("/") if s]
        if not segments:
            raise RegexQueryError("regex query needs at least one segment")
        if len(segments) > 3:
            raise RegexQueryError(
                f"regex query too deep ({len(segments)} segments, max 3)"
            )
        compiled = []
        for segment in segments:
            try:
                compiled.append(re.compile(rf"^(?:{segment})$"))
            except re.error as exc:
                raise RegexQueryError(
                    f"bad segment pattern {segment!r}: {exc}"
                ) from None
        return cls(patterns=tuple(compiled))

    @property
    def depth(self) -> int:
        return len(self.patterns)


class RegexQueryEngine:
    """Evaluates regex queries against a gmetad datastore.

    Complexity is O(candidates) per level -- unlike the exact-path
    engine's O(1) hash lookups, a regex pass scans each hash-table
    level.  That is exactly the tradeoff the paper anticipates for the
    richer language, and why the exact engine stays the default.
    """

    def __init__(self, datastore: Datastore) -> None:
        self.datastore = datastore

    def search(self, query: Union[str, RegexQuery]) -> List[RegexMatch]:
        """All elements matching the pattern path."""
        if isinstance(query, str):
            query = RegexQuery.parse(query)
        p_source = query.patterns[0]
        results: List[RegexMatch] = []
        for source_name in self.datastore.source_names():
            if not p_source.match(source_name):
                continue
            snapshot = self.datastore.sources[source_name]
            if query.depth == 1:
                element = (
                    snapshot.cluster
                    if snapshot.kind == "cluster"
                    else snapshot.grid
                )
                if element is not None:
                    results.append(RegexMatch((source_name,), element))
                continue
            results.extend(self._search_level2(query, source_name, snapshot))
        return results

    def _search_level2(self, query, source_name, snapshot) -> List[RegexMatch]:
        p_node = query.patterns[1]
        results: List[RegexMatch] = []
        if snapshot.kind == "cluster":
            cols = snapshot.columns
            if cols is None:
                return results
            strings = cols.pool.strings
            starts = cols.host_row_start.tolist()
            name_ids = cols.name_ids.tolist()
            for h, host_name in enumerate(cols.host_names):
                if not p_node.match(host_name):
                    continue
                if query.depth == 2:
                    results.append(
                        RegexMatch(
                            (source_name, host_name), cols.materialize_host(h)
                        )
                    )
                    continue
                p_metric = query.patterns[2]
                for r in range(starts[h], starts[h + 1]):
                    metric_name = strings[name_ids[r]]
                    if p_metric.match(metric_name):
                        results.append(
                            RegexMatch(
                                (source_name, host_name, metric_name),
                                cols.metric_at(r),
                            )
                        )
        elif snapshot.grid is not None:
            # grid sources expose one nested level of summaries
            nested = dict(snapshot.grid.clusters)
            nested.update(snapshot.grid.grids)
            for name, element in nested.items():
                if p_node.match(name) and query.depth == 2:
                    results.append(RegexMatch((source_name, name), element))
        return results


def is_regex_query(text: str) -> bool:
    """Requests beginning with ``~`` select the regex engine."""
    return text.lstrip().startswith("~")
