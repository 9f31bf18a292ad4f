"""The simulation engine: clock, event heap, and run loop.

The :class:`Simulator` owns simulated time.  Events are scheduled into
a binary heap keyed by ``(time, priority, sequence)`` -- the sequence
number makes ordering of same-time, same-priority events FIFO and the
whole simulation deterministic.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import NORMAL_PRIORITY, Event, Timeout
from repro.sim.process import Process

__all__ = ["ScheduledCall", "Simulator", "StopSimulation"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class ScheduledCall:
    """A plain callback waiting in the event heap.

    What :meth:`Simulator.call_at` returns.  It carries only the
    state the run loop and :meth:`Simulator.discard` read -- no value,
    no callbacks list -- and firing it calls ``callback()`` directly.
    Cancel it with ``sim.discard(handle)``; it cannot be yielded.
    """

    __slots__ = ("_callback", "_discarded", "_processed")

    def __init__(self, callback: Callable[[], None]) -> None:
        self._callback = callback
        self._discarded = False
        self._processed = False

    def _process(self) -> None:
        self._processed = True
        self._callback()


#: Anything the event heap holds: a triggered event or a plain call.
Scheduled = Union[Event, ScheduledCall]


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc():
    ...     yield sim.timeout(3)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc())
    >>> sim.run()
    >>> log
    [3.0]
    """

    #: Minimum number of discarded entries before a heap compaction is
    #: even considered (avoids rebuild churn on tiny heaps).
    COMPACT_MIN_DISCARDED = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, int, Scheduled]] = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        self._n_discarded = 0
        #: Total events processed by :meth:`step` over the simulator's
        #: lifetime -- the numerator of the events/sec throughput
        #: metric the scale benchmarks report.
        self.steps: int = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event creation ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = NORMAL_PRIORITY,
    ) -> ScheduledCall:
        """Schedule ``callback()`` to run at absolute time ``when``.

        Returns a :class:`ScheduledCall` handle; ``discard(handle)``
        cancels it before it fires.  The heap key's time is
        ``now + (when - now)``, which can differ from ``when`` in the
        last bit -- the same instant ``timeout(when - now)`` lands on.
        """
        now = self._now
        if when < now:
            raise ValueError(f"call_at into the past: {when} < {now}")
        call = ScheduledCall(callback)
        _heappush(self._heap, (now + (when - now), priority, next(self._seq), call))
        return call

    # -- scheduling ----------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL_PRIORITY
    ) -> None:
        """Insert a triggered event into the heap (engine internal)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        _heappush(self._heap, (self._now + delay, priority, next(self._seq), event))

    def _call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = NORMAL_PRIORITY,
    ) -> ScheduledCall:
        """Schedule ``callback()`` ``delay`` seconds from now (engine
        internal).

        The delay-keyed twin of :meth:`call_at`: the heap time is
        ``now + delay``, exactly what :meth:`_schedule` would give an
        event with that delay.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        call = ScheduledCall(callback)
        _heappush(self._heap, (self._now + delay, priority, next(self._seq), call))
        return call

    def discard(self, event: Scheduled) -> None:
        """Cancel a scheduled event before it fires.

        The event is marked dead immediately -- it will never process
        and its callbacks never run -- and its heap slot is reclaimed
        lazily: dropped when it surfaces at the heap top, or swept in
        bulk once dead entries outnumber live ones (so a scheduler
        churning through wake-ups cannot grow the heap without bound).
        Discarding an unscheduled or already-discarded event is a
        no-op.
        """
        if event._discarded or event._processed:
            return
        event._discarded = True
        self._n_discarded += 1
        if (
            self._n_discarded >= self.COMPACT_MIN_DISCARDED
            and self._n_discarded * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without discarded entries.

        Safe at any point: entry keys ``(time, priority, seq)`` are
        unique (``seq`` is a global counter), so the rebuilt heap pops
        in exactly the same order as the old one.  The list is rebuilt
        in place, so a run loop holding ``self._heap`` in a local sees
        the compacted heap.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3]._discarded]
        heapq.heapify(heap)
        self._n_discarded = 0

    @property
    def pending_events(self) -> int:
        """Live (non-discarded) events still scheduled."""
        return len(self._heap) - self._n_discarded

    # -- run loop ------------------------------------------------------

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Discarded entries surfacing at the heap top are dropped here.
        """
        heap = self._heap
        while heap and heap[0][3]._discarded:
            _heappop(heap)
            self._n_discarded -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process the single next live event.

        Raises
        ------
        IndexError
            If no live event remains.
        """
        heap = self._heap
        while True:
            when, _prio, _seq, event = _heappop(heap)
            if event._discarded:
                self._n_discarded -= 1
                continue
            break
        self._now = when
        self.steps += 1
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if no event fires there, so back-to-back
        ``run(until=...)`` calls observe a monotonic clock.  An event
        scheduled at ``t = inf`` never fires here.

        Calls :meth:`step` once per event (it is the single dispatch
        point instrumentation wraps); discarded entries surfacing at
        the heap top are dropped in the loop, as :meth:`peek` does.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run until the past: {until} < {self._now}")
        inf = float("inf")
        limit = inf if until is None else until
        heap = self._heap
        heappop = _heappop
        step = self.step
        try:
            while heap:
                head = heap[0]
                if head[3]._discarded:
                    heappop(heap)
                    self._n_discarded -= 1
                    continue
                when = head[0]
                if when >= inf or when > limit:
                    break
                step()
        except StopSimulation:
            return
        if until is not None and self._now < until:
            self._now = until

    def run_until_processed(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises
        ------
        RuntimeError
            If the heap drains or ``limit`` is reached first.
        """
        heap = self._heap
        heappop = _heappop
        step = self.step
        while not event._processed:
            while heap and heap[0][3]._discarded:
                heappop(heap)
                self._n_discarded -= 1
            if not heap or heap[0][0] > limit:
                raise RuntimeError(
                    f"simulation ended at t={self._now:.6g} before {event!r} processed"
                )
            step()
        if event.ok:
            return event.value
        raise event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} pending={self.pending_events}>"
