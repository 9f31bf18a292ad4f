"""Unit tests for the Simulator run loop and Process semantics."""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.engine import ScheduledCall
from repro.sim.events import URGENT_PRIORITY


@pytest.fixture
def sim():
    return Simulator()


class TestSimulatorClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=10)
        assert sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(ValueError):
            sim.run(until=1)

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        t = sim.timeout(10)
        t.add_callback(lambda e: fired.append(sim.now))
        sim.run(until=5)
        assert fired == []
        sim.run()
        assert fired == [10.0]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4)
        assert sim.peek() == 4.0

    def test_call_at(self, sim):
        seen = []
        sim.call_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_call_at_past_raises(self, sim):
        sim.run(until=3)
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_processed(self, sim):
        def proc():
            yield sim.timeout(2)
            return "answer"

        p = sim.process(proc())
        assert sim.run_until_processed(p) == "answer"
        assert sim.now == 2.0

    def test_run_until_processed_raises_when_starved(self, sim):
        ev = sim.event()  # never triggered
        with pytest.raises(RuntimeError):
            sim.run_until_processed(ev)


class TestCallAtHandle:
    """``call_at`` returns a handle that ``Simulator.discard`` cancels."""

    def test_returns_a_handle(self, sim):
        handle = sim.call_at(2.0, lambda: None)
        assert isinstance(handle, ScheduledCall)
        assert not handle._processed
        sim.run()
        assert handle._processed

    def test_discarded_handle_never_runs(self, sim):
        seen = []
        handle = sim.call_at(5.0, lambda: seen.append("cancelled"))
        sim.call_at(6.0, lambda: seen.append("kept"))
        sim.discard(handle)
        sim.run()
        assert seen == ["kept"]
        assert not handle._processed

    def test_pending_events_accounts_for_discard(self, sim):
        handle = sim.call_at(5.0, lambda: None)
        sim.call_at(6.0, lambda: None)
        assert sim.pending_events == 2
        sim.discard(handle)
        assert sim.pending_events == 1
        sim.discard(handle)  # twice: still one live event
        assert sim.pending_events == 1
        assert sim.peek() == 6.0
        sim.run()
        assert sim.pending_events == 0

    def test_discard_after_firing_is_a_no_op(self, sim):
        seen = []
        handle = sim.call_at(1.0, lambda: seen.append(sim.now))
        later = sim.call_at(3.0, lambda: seen.append(sim.now))
        sim.run(until=2)
        assert handle._processed
        sim.discard(handle)
        assert sim.pending_events == 1
        assert sim._n_discarded == 0
        sim.run()
        assert seen == [1.0, 3.0]
        assert later._processed

    def test_heap_time_is_now_plus_offset(self, sim):
        """The key is ``now + (when - now)``: where ``timeout(when -
        now)`` lands, even when that differs from ``when`` in the last
        bit."""
        sim.run(until=0.7)
        when = 2.9
        assert sim.now + (when - sim.now) != when
        fired = []
        sim.call_at(when, lambda: fired.append(sim.now))
        sim.timeout(when - sim.now).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.7 + (2.9 - 0.7)] * 2


class TestCompactionInsideRunLoops:
    """A callback that discards enough entries compacts the heap while
    ``run``/``run_until_processed`` hold it in a local; the rebuild is
    in place, so the loops keep seeing every live event."""

    N_DOOMED = 3 * Simulator.COMPACT_MIN_DISCARDED

    def _scenario(self, sim):
        fired = []
        keys = {}  # label -> (time, priority, creation order)
        order = iter(range(10**6))

        def schedule(label, when, priority=1):
            keys[label] = (when, priority, next(order))
            sim.call_at(when, lambda: fired.append(label), priority)

        doomed = [
            sim.call_at(10.0 + i, lambda i=i: fired.append(f"doomed{i}"))
            for i in range(self.N_DOOMED)
        ]
        schedule("a", 2.0)
        schedule("b", 2.0)
        schedule("c", 2.0, URGENT_PRIORITY)
        schedule("d", 15.5)
        sim.call_at(float("inf"), lambda: fired.append("at-inf"))
        compactions = []

        def purge():
            n_before = len(sim._heap)
            for handle in doomed:
                sim.discard(handle)
            compactions.append(len(sim._heap) < n_before)
            # Scheduled after the rebuild: a loop still holding the
            # pre-compaction list would never see these.
            schedule("e", 12.0)
            schedule("f", 12.0, URGENT_PRIORITY)
            schedule("g", 20.0)
            schedule("h", 3.0)

        sim.call_at(2.5, purge)
        return fired, keys, compactions

    def _expected(self, keys):
        return sorted(keys, key=keys.get)

    def test_run(self, sim):
        fired, keys, compactions = self._scenario(sim)
        sim.run()
        assert compactions == [True]
        assert fired == self._expected(keys)
        assert "at-inf" not in fired
        assert sim.pending_events == 1  # the t = inf call is still there
        assert sim.now == 20.0

    def test_run_until(self, sim):
        fired, keys, compactions = self._scenario(sim)
        sim.run(until=13.0)
        assert compactions == [True]
        assert fired == [k for k in self._expected(keys) if keys[k][0] <= 13.0]
        sim.run()
        assert fired == self._expected(keys)

    def test_run_until_processed(self, sim):
        fired, keys, compactions = self._scenario(sim)
        target = sim.timeout(30.0, value="done")
        assert sim.run_until_processed(target) == "done"
        assert compactions == [True]
        assert fired == self._expected(keys)
        assert not any(label.startswith("doomed") for label in fired)
        assert sim.pending_events == 1  # the t = inf call


class TestProcess:
    def test_sequential_timeouts(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1)
            trace.append(sim.now)
            yield sim.timeout(2)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_return_value_is_event_value(self, sim):
        def inner():
            yield sim.timeout(1)
            return 99

        def outer(results):
            value = yield sim.process(inner())
            results.append(value)

        results = []
        sim.process(outer(results))
        sim.run()
        assert results == [99]

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        sim.run()
        assert p.triggered and not p.ok
        assert isinstance(p.value, TypeError)

    def test_yield_foreign_event_fails_process(self, sim):
        other = Simulator()

        def bad():
            yield other.timeout(1)

        p = sim.process(bad())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, ValueError)

    def test_exception_in_process_fails_it(self, sim):
        def boom():
            yield sim.timeout(1)
            raise KeyError("kaput")

        p = sim.process(boom())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)

    def test_failed_event_raises_inside_waiter(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(RuntimeError("bad news"))
        sim.run()
        assert caught == ["bad news"]

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_two_processes_interleave_deterministically(self, sim):
        trace = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trace.append((sim.now, name))

        sim.process(ticker("a", 1))
        sim.process(ticker("b", 1))
        sim.run()
        assert trace == [
            (1.0, "a"), (1.0, "b"),
            (2.0, "a"), (2.0, "b"),
            (3.0, "a"), (3.0, "b"),
        ]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                causes.append((sim.now, intr.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(2)
            p.interrupt(cause="wakeup")

        sim.process(interrupter())
        sim.run()
        assert causes == [(2.0, "wakeup")]

    def test_interrupted_process_can_continue(self, sim):
        trace = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(1)
            trace.append(sim.now)

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(5)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert trace == [6.0]

    def test_interrupt_dead_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_original_target_unaffected_by_interrupt(self, sim):
        """The event a process was waiting on still triggers normally."""
        target = sim.timeout(10, value="payload")

        def sleeper():
            try:
                yield target
            except Interrupt:
                pass

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert target.processed and target.ok
        assert target.value == "payload"

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_stale_target_does_not_resume_finished_process(self, sim):
        """Regression: a process that catches an Interrupt and returns
        must not be re-resumed when its abandoned wait target fires."""
        def loop():
            try:
                while True:
                    yield sim.timeout(5)
            except Interrupt:
                return "stopped"

        p = sim.process(loop())
        sim.run(until=1)  # generator is now parked on the t=6 timeout

        def stopper():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(stopper())
        sim.run()  # the stale t=6 timeout still fires; must be ignored
        assert p.processed and p.ok
        assert p.value == "stopped"

    def test_stale_target_does_not_resume_continuing_process(self, sim):
        """Regression: after an interrupt, the abandoned target must
        not deliver a second resume to the still-running generator."""
        resumes = []

        def worker():
            try:
                yield sim.timeout(10)  # will be interrupted at t=1
            except Interrupt:
                pass
            # now wait on a fresh event; the stale t=10 timeout fires
            # in between and must not break this wait.
            yield sim.timeout(20)
            resumes.append(sim.now)

        p = sim.process(worker())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumes == [21.0]

    def test_interrupt_before_first_step_kills_process(self, sim):
        """Interrupting a process that never ran fails it with the
        Interrupt (there is no yield point to deliver it to)."""
        def proc():
            yield sim.timeout(1)
            return "ran"

        p = sim.process(proc())
        p.interrupt(cause="early")
        sim.run()
        assert p.processed and not p.ok
        assert isinstance(p.value, Interrupt)
