"""Unit + property tests for delta summarization on DOM-built snapshots.

The acceptance bar: a :class:`ColumnarSummaryTracker` fed any sequence of
tree-built snapshots -- converted with :func:`columns_from_cluster`, the
route ``Gmetad.ingest`` takes for a tree-parsed poll -- must agree with
an eager re-fold of the latest snapshot, not just approximately but at
the 4-decimal wire formatting the serialized output pins (``_fmt_num``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarSummaryTracker, InternPool, columns_from_cluster
from repro.core.summarize import summarize_cluster
from repro.metrics.types import MetricType
from repro.wire.model import ClusterElement, HostElement, MetricElement
from repro.wire.writer import XmlWriter, _fmt_num

WINDOW = 80.0


class TreeFedTracker:
    """The daemon's delta summarizer, fed full-form DOM clusters."""

    def __init__(self):
        self.pool = InternPool()
        self.columnar = ColumnarSummaryTracker(WINDOW)

    def update(self, cluster):
        return self.columnar.update(columns_from_cluster(cluster, self.pool))


def eager_fold(cluster):
    summary, _ = summarize_cluster(cluster, WINDOW)
    return summary


def make_cluster(loads, stale=(), extra_metric=None):
    """A full-form cluster: host name -> load_one value.

    ``stale`` hosts report outside the heartbeat window (counted down,
    values excluded); ``extra_metric`` optionally adds a second metric
    on every live host.
    """
    cluster = ClusterElement(name="meteor", localtime=100.0)
    for name, load in loads.items():
        host = HostElement(name=name, tn=1000.0 if name in stale else 1.0)
        host.add_metric(
            MetricElement("load_one", str(load), MetricType.FLOAT)
        )
        if extra_metric is not None and name not in stale:
            host.add_metric(
                MetricElement(extra_metric, "5", MetricType.UINT32)
            )
        cluster.add_host(host)
    return cluster


def assert_summaries_agree(incremental, eager):
    assert incremental.hosts_up == eager.hosts_up
    assert incremental.hosts_down == eager.hosts_down
    assert incremental.metrics.keys() == eager.metrics.keys()
    for name, ms in eager.metrics.items():
        ours = incremental.metrics[name]
        assert ours.num == ms.num
        # the bytes on the wire are what must match, not raw floats
        assert _fmt_num(ours.total) == _fmt_num(ms.total)
        assert (ours.mtype, ours.units, ours.slope) == (
            ms.mtype, ms.units, ms.slope,
        )


class TestTracker:
    def test_first_fold_matches_eager(self):
        tracker = TreeFedTracker()
        cluster = make_cluster({"h0": 1.0, "h1": 2.5})
        summary, ops = tracker.update(cluster)
        assert_summaries_agree(summary, eager_fold(cluster))
        assert ops > 0

    def test_unchanged_snapshot_costs_nothing(self):
        tracker = TreeFedTracker()
        cluster = make_cluster({"h0": 1.0, "h1": 2.5})
        tracker.update(cluster)
        _, ops = tracker.update(make_cluster({"h0": 1.0, "h1": 2.5}))
        assert ops == 0

    def test_single_host_change_touches_only_that_host(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({f"h{i}": 1.0 for i in range(50)}))
        changed = {f"h{i}": 1.0 for i in range(50)}
        changed["h7"] = 9.0
        summary, ops = tracker.update(make_cluster(changed))
        # subtract + add one contribution, not a 50-host re-fold
        assert 0 < ops <= 4
        assert _fmt_num(summary.metrics["load_one"].total) == _fmt_num(58.0)

    def test_removed_host_subtracted(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({"h0": 1.0, "h1": 2.0}))
        latest = make_cluster({"h1": 2.0})
        summary, _ = tracker.update(latest)
        assert_summaries_agree(summary, eager_fold(latest))
        assert summary.hosts_up == 1

    def test_host_going_stale_flips_to_down_and_drops_values(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({"h0": 1.0, "h1": 2.0}))
        latest = make_cluster({"h0": 1.0, "h1": 2.0}, stale={"h1"})
        summary, _ = tracker.update(latest)
        assert (summary.hosts_up, summary.hosts_down) == (1, 1)
        assert_summaries_agree(summary, eager_fold(latest))

    def test_last_reporter_of_a_metric_removes_the_reduction(self):
        tracker = TreeFedTracker()
        tracker.update(
            make_cluster({"h0": 1.0, "h1": 2.0}, extra_metric="procs")
        )
        latest = make_cluster({"h0": 1.0, "h1": 2.0})  # procs gone
        summary, _ = tracker.update(latest)
        assert "procs" not in summary.metrics
        assert_summaries_agree(summary, eager_fold(latest))

    def test_returned_summary_is_an_independent_clone(self):
        tracker = TreeFedTracker()
        first, _ = tracker.update(make_cluster({"h0": 1.0}))
        second, _ = tracker.update(make_cluster({"h0": 4.0}))
        assert _fmt_num(first.metrics["load_one"].total) == _fmt_num(1.0)
        assert _fmt_num(second.metrics["load_one"].total) == _fmt_num(4.0)

    def test_reset_forgets_everything(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({"h0": 1.0}))
        tracker.columnar.reset()
        summary, ops = tracker.update(make_cluster({"h0": 1.0}))
        assert ops > 0  # re-folded from scratch
        assert summary.hosts_up == 1


# -- pinned regressions: the -0 drift that broke tier-1 ---------------------


def summary_wire_bytes(summary):
    """The exact bytes a summary-form serve would emit for ``summary``."""
    writer = XmlWriter()
    writer.summary_info(summary)
    return writer.result()


class TestNegativeZeroDrift:
    """The Hypothesis falsifying example, pinned deterministically.

    Six hosts all reporting 0.0 load churn down to a single host: the
    old naive subtract/add telescoping left ``-7.1e-15`` in the running
    SUM, which 4-decimal wire formatting rendered ``"-0"`` against the
    eager re-fold's ``"0"``.
    """

    def test_six_hosts_to_one_all_zero_loads(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({f"h{i}": 0.0 for i in range(6)}))
        latest = make_cluster({"h0": 0.0})
        summary, _ = tracker.update(latest)
        assert _fmt_num(summary.metrics["load_one"].total) == "0"
        assert_summaries_agree(summary, eager_fold(latest))
        # the bytes on the wire, not just the parsed fields
        assert summary_wire_bytes(summary) == summary_wire_bytes(
            eager_fold(latest)
        )

    def test_drain_to_empty_rebuilds_exactly(self):
        tracker = TreeFedTracker()
        tracker.update(make_cluster({f"h{i}": 0.1 * i for i in range(6)}))
        summary, _ = tracker.update(make_cluster({}))
        assert tracker.columnar.rebuilds == 1
        assert summary.hosts_total == 0
        assert not summary.metrics
        # refilling after the rebuild starts from exact zeros
        latest = make_cluster({"h0": 0.3})
        summary, _ = tracker.update(latest)
        assert summary_wire_bytes(summary) == summary_wire_bytes(
            eager_fold(latest)
        )

    def test_fmt_num_never_emits_minus_zero(self):
        assert _fmt_num(-0.0) == "0"
        assert _fmt_num(-7.1e-15) == "0"
        assert _fmt_num(-4.9e-5) == "0"  # rounds to -0.0000
        assert _fmt_num(-0.0001) == "-0.0001"  # real negatives survive

    def test_neumaier_recovers_telescoped_residue(self):
        # hosts join one poll at a time, then leave last-in-first-out
        # while a 0.0 reporter keeps the accumulator alive (no drain
        # rebuild to hide behind): the naive running sum ends off zero
        values = [0.1, 0.2, 0.3, 0.7, 1e-9, 2.5]
        naive = 0.0
        for v in values:
            naive += v
        for v in reversed(values):
            naive -= v
        assert naive != 0.0

        tracker = TreeFedTracker()
        loads = {"keep": 0.0}
        tracker.update(make_cluster(loads))
        for i, v in enumerate(values):
            loads[f"h{i}"] = v
            tracker.update(make_cluster(loads))
        for i in reversed(range(len(values))):
            del loads[f"h{i}"]
            summary, _ = tracker.update(make_cluster(loads))
        assert tracker.columnar.rebuilds == 0
        assert summary.metrics["load_one"].num == 1
        assert summary.metrics["load_one"].total == 0.0


def test_long_churn_stays_wire_identical():
    """≥1000 random add/remove/update steps never drift past the wire.

    A deterministic long soak (the Hypothesis property is capped at 8
    steps per example): every step mutates a random host -- add, remove,
    or update -- and every step's incremental summary must serialize to
    exactly the bytes of an eager re-fold of the same snapshot.
    """
    rng = random.Random(0xD81F7)
    tracker = TreeFedTracker()
    loads = {}
    stale = set()
    for step in range(1000):
        action = rng.random()
        name = f"h{rng.randrange(12)}"
        if action < 0.25:
            loads.pop(name, None)
            stale.discard(name)
        else:
            # zero-heavy values: idle hosts are what exposed the drift
            loads[name] = rng.choice(
                [0.0, 0.0, round(rng.uniform(0.0, 99.0), 2)]
            )
            if action > 0.9:
                stale.add(name)
            else:
                stale.discard(name)
        latest = make_cluster(dict(loads), stale=stale & set(loads))
        summary, _ = tracker.update(latest)
        eager = eager_fold(latest)
        assert summary_wire_bytes(summary) == summary_wire_bytes(eager), (
            f"wire divergence at step {step}"
        )
        assert (summary.hosts_up, summary.hosts_down) == (
            eager.hosts_up, eager.hosts_down,
        )


# -- property: any churn sequence converges to the eager re-fold ------------

host_names = [f"h{i}" for i in range(6)]

churn_step = st.fixed_dictionaries(
    {
        "present": st.sets(st.sampled_from(host_names), min_size=0, max_size=6),
        "stale": st.sets(st.sampled_from(host_names), min_size=0, max_size=3),
        "loads": st.lists(
            st.floats(
                min_value=0.0, max_value=99.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=6, max_size=6,
        ),
    }
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(churn_step, min_size=1, max_size=8))
def test_incremental_matches_eager_after_random_churn(steps):
    """Subtract-then-add accumulation never drifts past wire formatting."""
    tracker = TreeFedTracker()
    summary = None
    latest = None
    for step in steps:
        loads = {
            name: step["loads"][i]
            for i, name in enumerate(host_names)
            if name in step["present"]
        }
        latest = make_cluster(loads, stale=step["stale"] & step["present"])
        summary, _ = tracker.update(latest)
    assert_summaries_agree(summary, eager_fold(latest))
