"""Output checks, run in the same command as the measurement.

Every check counts operations attempted and failed; the harness adds
them to the viewer-facing operations so a wrong answer costs the same
as a refused one.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Tuple

_HOST_RE = re.compile(r'<HOST NAME="[^"]*" IP="[^"]*" REPORTED="[^"]*" TN="([^"]+)"')
_METRIC_RE = re.compile(r'<METRIC NAME="([^"]+)" VAL="([^"]+)" TYPE="([^"]+)"')
_ELEMENT_RE = re.compile(
    r'<(GRID|CLUSTER) NAME="([^"]+)"|<METRICS NAME="([^"]+)" SUM="([^"]+)" NUM="(\d+)"'
)


class Tally:
    """Attempted / failed counts plus the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.by_check: Dict[str, List[int]] = {}

    def record(self, check: str, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        counts = self.by_check.setdefault(check, [0, 0])
        counts[0] += 1
        if not ok:
            self.failed += 1
            counts[1] += 1
            if len(self.messages) < 20:
                self.messages.append(f"{check}: {message}")
        return ok


def ingest_triple(daemon) -> Tuple[int, int, int]:
    """The version triple a replica's view is matched against."""
    store = daemon.datastore
    return (store.generation, store.content_version, store.detail_version)


def check_replica_identity(tally: Tally, world, replica, replies: Dict[str, str]) -> int:
    """A replica answers the ingest daemon's bytes at a matched triple.

    ``replies`` maps path -> the xml the view mix just got from the
    replica.  A replica still catching up is skipped, not failed;
    returns 1 when the replica was compared.
    """
    triple = ingest_triple(world.edge)
    if replica.ingest_versions != triple:
        return 0
    for path, xml in replies.items():
        expected = world.edge.serve_query(path)[0]
        tally.record(
            "replica_identity", xml == expected,
            f"{replica.name} {path} differs from ingest at {triple}",
        )
    return 1


def check_binary_view(tally: Tally, server, path: str, frame: bytes, xml: str) -> None:
    """``decode_to_xml(serve_binary(p)) == serve_query(p)``."""
    from repro.wire.binfmt import decode_to_xml

    tally.record(
        "binary_equals_xml", decode_to_xml(frame) == xml,
        f"{getattr(server, 'name', 'daemon')} {path}",
    )


def check_staleness(tally: Tally, world, limit: float) -> None:
    """No source older than ``limit`` is served without being marked down."""
    now = world.engine.now
    for name, daemon in world.fed.gmetads.items():
        for source, snapshot in daemon.datastore.sources.items():
            if source.startswith("__"):
                continue
            age = now - snapshot.last_success
            tally.record(
                "stale_unmarked", age <= limit or not snapshot.up,
                f"{name}/{source} is {age:.0f} s old and still marked up",
            )


def check_materializations(tally: Tally, world) -> None:
    """The daemons viewers reach never built a DOM to answer them."""
    for server in world.servers:
        count = server.datastore.materializations
        tally.record(
            "zero_materialization", count == 0,
            f"{getattr(server, 'name', world.spec.edge)} built {count} DOMs",
        )


# -- summaries against ground truth --------------------------------------------


def fold_truth(pseudos, heartbeat_window: float) -> Dict[str, Dict[str, Tuple[float, int]]]:
    """Per cluster: metric -> (sum, num) folded from the emulators' own XML.

    Independent of the monitor's summarizers: a regex over the document
    each pseudo-gmond would serve right now.  Only live hosts count, and
    only numeric metrics.
    """
    truth: Dict[str, Dict[str, Tuple[float, int]]] = {}
    for name, pseudo in pseudos.items():
        sums: Dict[str, float] = {}
        nums: Dict[str, int] = {}
        for block in pseudo.current_xml().split("</HOST>"):
            host = _HOST_RE.search(block)
            if host is None or float(host.group(1)) > heartbeat_window:
                continue
            for metric, value, mtype in _METRIC_RE.findall(block):
                if mtype == "string":
                    continue
                sums[metric] = sums.get(metric, 0.0) + float(value)
                nums[metric] = nums.get(metric, 0) + 1
        truth[name] = {m: (sums[m], nums[m]) for m in sums}
    return truth


def merge_truth(parts: List[Dict[str, Tuple[float, int]]]) -> Dict[str, Tuple[float, int]]:
    merged: Dict[str, Tuple[float, int]] = {}
    for part in parts:
        for metric, (total, num) in part.items():
            have = merged.get(metric, (0.0, 0))
            merged[metric] = (have[0] + total, have[1] + num)
    return merged


def parse_summaries(xml: str) -> Dict[str, Dict[str, Tuple[float, int]]]:
    """Element name -> metric -> (SUM, NUM) for a summary-form reply.

    METRICS rows belong to the innermost element opened before them,
    which is how the summary form nests.
    """
    out: Dict[str, Dict[str, Tuple[float, int]]] = {}
    current = None
    for kind, name, metric, total, num in _ELEMENT_RE.findall(xml):
        if kind:
            current = out.setdefault(name, {})
        elif current is not None:
            current[metric] = (float(total), int(num))
    return out


def clusters_under(world, gmetad: str) -> List[str]:
    """Every pseudo cluster in the subtree of one gmetad."""
    names = [c for c in world.fed.pseudos if c.rsplit("-c", 1)[0] == gmetad]
    for child in world.fed.tree.children(gmetad):
        names.extend(clusters_under(world, child))
    return names


def check_root_fold(tally: Tally, world) -> None:
    """Every summary the top daemon holds equals the fold of ground truth.

    Run after a quiesce (no churn for four cycles), so every hop has
    re-polled.  SUMs cross the wire at four decimals on XML links, so
    the comparison allows that rounding per contributing cluster.
    """
    top = world.top
    window = top.config.heartbeat_window
    truth = fold_truth(world.fed.pseudos, window)
    expected: Dict[str, Dict[str, Tuple[float, int]]] = {}
    spec = world.spec
    replies = [top.serve_query("/?filter=summary")[0]]
    if spec.top == spec.edge:
        for cluster in world.edge_clusters:
            expected[cluster] = truth[cluster]
    else:
        for child in world.fed.tree.children(spec.top):
            expected[child.upper()] = merge_truth(
                [truth[c] for c in clusters_under(world, child)]
            )
            replies.append(top.serve_query(f"/{child}")[0])
            for cluster in clusters_under(world, child):
                if cluster.rsplit("-c", 1)[0] == child:
                    expected[cluster] = truth[cluster]
            for grandchild in world.fed.tree.children(child):
                expected[grandchild.upper()] = merge_truth(
                    [truth[c] for c in clusters_under(world, grandchild)]
                )
    served: Dict[str, Dict[str, Tuple[float, int]]] = {}
    for reply in replies:
        for name, metrics in parse_summaries(reply).items():
            if metrics:
                served.setdefault(name, {}).update(metrics)
    for element, metrics in sorted(expected.items()):
        got = served.get(element)
        if got is None:
            tally.record("root_fold", False, f"{element} missing at {spec.top}")
            continue
        bad = []
        for metric, (total, num) in metrics.items():
            have = got.get(metric)
            tolerance = 1e-3 * max(1, num) + 1e-9 * abs(total)
            if have is None or have[1] != num or abs(have[0] - total) > tolerance:
                bad.append(f"{metric}: served {have}, truth {(total, num)}")
        tally.record("root_fold", not bad, f"{element}: " + "; ".join(bad[:3]))


def served_digest(world) -> str:
    """sha256 over every daemon's ``/`` reply, in name order."""
    digest = hashlib.sha256()
    daemons = dict(world.fed.gmetads)
    if world.tier is not None:
        daemons.update({r.name: r for r in world.tier.replicas})
    for name in sorted(daemons):
        digest.update(name.encode())
        digest.update(daemons[name].serve_query("/")[0].encode())
    return digest.hexdigest()
