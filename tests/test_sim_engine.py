"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, PeriodicTask, SimulationError


class TestScheduling:
    def test_call_later_fires_at_right_time(self, engine):
        seen = []
        engine.call_later(5.0, lambda: seen.append(engine.now))
        engine.run_until(10.0)
        assert seen == [5.0]

    def test_call_at_absolute_time(self, engine):
        seen = []
        engine.call_at(7.5, lambda: seen.append(engine.now))
        engine.run_until(10.0)
        assert seen == [7.5]

    def test_clock_lands_exactly_on_deadline(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.run_until(3.7)
        assert engine.now == 3.7

    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.call_later(3.0, lambda: order.append("c"))
        engine.call_later(1.0, lambda: order.append("a"))
        engine.call_later(2.0, lambda: order.append("b"))
        engine.run_until(5.0)
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self, engine):
        order = []
        for tag in "abcde":
            engine.call_later(1.0, lambda t=tag: order.append(t))
        engine.run_until(2.0)
        assert order == list("abcde")

    def test_priority_breaks_ties(self, engine):
        order = []
        engine.call_later(1.0, lambda: order.append("low"), priority=10)
        engine.call_later(1.0, lambda: order.append("high"), priority=0)
        engine.run_until(2.0)
        assert order == ["high", "low"]

    def test_same_time_events_fire_by_priority_then_insertion(self, engine):
        order = []
        cancelled = engine.call_later(1.0, lambda: order.append("x"), priority=0)
        for tag, priority in [("c", 5), ("a", 0), ("d", 5), ("b", 0)]:
            engine.call_later(1.0, lambda t=tag: order.append(t), priority=priority)
        cancelled.cancel()
        assert engine.pending_events == 4
        engine.run_until(1.0)
        assert order == ["a", "b", "c", "d"]
        assert engine.pending_events == 0

    def test_cancelled_event_never_fires_under_drain(self, engine):
        seen = []
        event = engine.call_later(1.0, lambda: seen.append("cancelled"))
        engine.call_later(1.0, lambda: seen.append("kept"))
        event.cancel()
        engine.drain()
        assert seen == ["kept"]
        assert engine.processed_events == 1

    def test_callback_args_passed(self, engine):
        seen = []
        engine.call_later(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        engine.run_until(2.0)
        assert seen == [(1, "x")]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.call_later(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self, engine):
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.call_at(4.0, lambda: None)

    def test_backwards_deadline_rejected(self, engine):
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.run_until(4.0)

    def test_events_scheduled_during_run_fire_in_same_run(self, engine):
        seen = []

        def first():
            engine.call_later(1.0, lambda: seen.append(engine.now))

        engine.call_later(1.0, first)
        engine.run_until(10.0)
        assert seen == [2.0]

    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        event = engine.call_later(1.0, lambda: seen.append(1))
        event.cancel()
        engine.run_until(2.0)
        assert seen == []

    def test_cancel_is_idempotent(self, engine):
        event = engine.call_later(1.0, lambda: None)
        event.cancel()
        event.cancel()
        engine.run_until(2.0)

    def test_processed_and_pending_counts(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.call_later(20.0, lambda: None)
        engine.run_until(10.0)
        assert engine.processed_events == 1
        assert engine.pending_events == 1

    def test_run_for_advances_relative(self, engine):
        engine.run_until(5.0)
        engine.run_for(2.5)
        assert engine.now == 7.5

    def test_reentrant_run_rejected(self, engine):
        def inner():
            with pytest.raises(SimulationError):
                engine.run_until(100.0)

        engine.call_later(1.0, inner)
        engine.run_until(2.0)


class TestPeriodicTask:
    def test_fires_every_interval(self, engine):
        times = []
        engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_initial_delay(self, engine):
        times = []
        engine.every(10.0, lambda: times.append(engine.now), initial_delay=2.0)
        engine.run_until(25.0)
        assert times == [2.0, 12.0, 22.0]

    def test_stop_prevents_future_fires(self, engine):
        times = []
        task = engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(15.0)
        task.stop()
        engine.run_until(50.0)
        assert times == [10.0]

    def test_stop_from_within_callback(self, engine):
        times = []
        task_holder = {}

        def fire():
            times.append(engine.now)
            if len(times) == 2:
                task_holder["task"].stop()

        task_holder["task"] = engine.every(5.0, fire)
        engine.run_until(100.0)
        assert times == [5.0, 10.0]

    def test_jitter_applied_each_period(self, engine):
        times = []
        engine.every(
            10.0, lambda: times.append(engine.now), jitter_fn=lambda: 1.0
        )
        engine.run_until(40.0)
        assert times == [11.0, 22.0, 33.0]

    def test_pathological_negative_jitter_cannot_stall_time(self, engine):
        """A jitter_fn that always returns a huge negative value must not
        pin the task to the current instant: the delay is floored at 1%
        of the period, so time keeps advancing and firing stays bounded."""
        times = []
        engine.every(
            5.0, lambda: times.append(engine.now), jitter_fn=lambda: -100.0
        )
        engine.run_until(0.5)  # would never return without the floor
        assert times, "task should fire at the floored delay"
        # floored at 0.05s per period -> at most ~11 fires in 0.5s
        assert len(times) <= 11
        assert all(t <= 0.5 for t in times)
        # consecutive fires are separated by at least the floor
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 0.05 - 1e-12 for gap in gaps)

    def test_zero_interval_rejected(self, engine):
        with pytest.raises(SimulationError):
            PeriodicTask(engine, 0.0, lambda: None)

    def test_restart_after_stop_rejected(self, engine):
        task = engine.every(5.0, lambda: None)
        task.stop()
        with pytest.raises(SimulationError):
            task.start()

    def test_stopped_property(self, engine):
        task = engine.every(5.0, lambda: None)
        assert not task.stopped
        task.stop()
        assert task.stopped


class TestDrain:
    def test_drain_fires_everything(self, engine):
        seen = []
        engine.call_later(100.0, lambda: seen.append("far"))
        engine.call_later(1.0, lambda: seen.append("near"))
        engine.drain()
        assert seen == ["near", "far"]
        assert engine.now == 100.0

    def test_drain_detects_runaway(self, engine):
        engine.every(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.drain(max_events=50)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run() -> list:
            engine = Engine()
            trace = []
            engine.every(3.0, lambda: trace.append(("p", engine.now)))
            engine.call_later(5.0, lambda: trace.append(("o", engine.now)))
            engine.run_until(20.0)
            return trace

        assert run() == run()
