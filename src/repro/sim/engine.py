"""Discrete-event engine: simulated clock plus an ordered event queue.

The engine is intentionally small.  Events are ``(time, priority, seq)``
ordered callbacks; ties are broken by insertion order so runs are fully
deterministic.  Components schedule work with :meth:`Engine.call_later`
(one-shot) or :meth:`Engine.every` (periodic), and the experiment driver
advances simulated time with :meth:`Engine.run_until`.  The heap holds
``(time, priority, seq, event)`` tuples: ``seq`` is unique, so a heap
compare is a tuple compare that never reaches the event itself.

Simulated time is a ``float`` in seconds.  Nothing in the engine sleeps or
touches wall-clock time: a one-hour measurement window (the paper uses
60-minute CPU timing windows) runs in milliseconds of real time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. scheduling in the past)."""


@dataclass(slots=True)
class Event:
    """A scheduled callback, fired in ``(time, priority, seq)`` order."""

    time: float
    priority: int
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True


class PeriodicTask:
    """Handle for a repeating event created by :meth:`Engine.every`.

    The task re-arms itself after each firing until :meth:`stop` is
    called.  The optional ``jitter_fn`` returns a per-period offset which
    is added to the interval; gmond agents use this to de-synchronize
    their multicast sends the way real daemons drift apart.
    """

    def __init__(
        self,
        engine: "Engine",
        interval: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        priority: int = 0,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._jitter_fn = jitter_fn
        self._priority = priority
        self._stopped = False
        self._pending: Optional[Event] = None

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def stopped(self) -> bool:
        return self._stopped

    def start(self, initial_delay: Optional[float] = None) -> "PeriodicTask":
        """Arm the task.  ``initial_delay`` defaults to one interval."""
        if self._stopped:
            raise SimulationError("cannot restart a stopped PeriodicTask")
        delay = self._interval if initial_delay is None else initial_delay
        self._arm(delay)
        return self

    def stop(self) -> None:
        """Stop firing.  Idempotent; any pending event is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _arm(self, delay: float) -> None:
        jitter = self._jitter_fn() if self._jitter_fn is not None else 0.0
        # Floor the jittered delay at 1% of the period.  Jitter exists to
        # de-synchronize senders, not to break periodicity: without the
        # floor a pathological jitter_fn could re-arm at delay 0 forever
        # and simulated time would never advance past the current instant.
        floor = 0.01 * self._interval
        delay = max(floor, delay + jitter)
        self._pending = self._engine.call_later(
            delay, self._fire, priority=self._priority
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self._pending = None
        self._callback()
        if not self._stopped:
            self._arm(self._interval)


class Engine:
    """The event loop.

    Typical use::

        eng = Engine()
        eng.call_later(15.0, poll)
        eng.run_until(3600.0)     # one simulated hour

    ``priority`` orders simultaneous events: lower fires first.  Network
    deliveries use priority 0 and bookkeeping (window rollovers) uses
    priority 10, so measurements see a consistent state.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired (and not cancelled) events."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def processed_events(self) -> int:
        """Total events fired since construction."""
        return self._processed

    def call_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.call_at(self._now + delay, callback, *args, priority=priority)

    def call_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when}; current time is {self._now}"
            )
        seq = next(self._seq)
        event = Event(when, priority, seq, callback, args)
        heapq.heappush(self._queue, (when, priority, seq, event))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        initial_delay: Optional[float] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
        priority: int = 0,
    ) -> PeriodicTask:
        """Create and start a :class:`PeriodicTask`."""
        task = PeriodicTask(self, interval, callback, jitter_fn, priority)
        return task.start(initial_delay)

    def run_until(self, deadline: float) -> None:
        """Fire every event with ``time <= deadline``; advance clock to it.

        The clock always lands exactly on ``deadline`` even if the last
        event fires earlier, so measurement windows line up.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline} is before current time {self._now}"
            )
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        try:
            queue = self._queue
            while queue and queue[0][0] <= deadline:
                event = heapq.heappop(queue)[3]
                if event.cancelled:
                    continue
                self._now = event.time
                self._processed += 1
                event.callback(*event.args)
            self._now = deadline
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.run_until(self._now + duration)

    def drain(self, max_events: int = 1_000_000) -> None:
        """Fire all queued events regardless of time (for tests).

        Raises :class:`SimulationError` if more than ``max_events`` fire,
        which usually means a periodic task was left running.
        """
        fired = 0
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            fired += 1
            if fired > max_events:
                raise SimulationError("drain exceeded max_events; runaway task?")
            self._now = max(self._now, event.time)
            self._processed += 1
            event.callback(*event.args)
