"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must
produce an :class:`~repro.sim.events.Event`; the process suspends until
that event is processed, then resumes with the event's value (or the
event's exception thrown into the generator if the event failed).

A process is itself an event: it triggers when the generator returns
(successfully, with the generator's return value) or raises (failed).
This lets processes wait on each other: ``yield other_process``.

Interrupts
----------

:meth:`Process.interrupt` throws an :class:`Interrupt` exception into
the generator at the point of its current ``yield``.  The process stops
waiting on its current target event (the event itself is unaffected and
may still trigger later).  Interrupting is how the cluster model stops
background interference readers and aborts doomed migrations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        The object passed to ``interrupt``; identifies why.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, resumable on events it yields.

    Do not instantiate directly; use
    :meth:`repro.sim.engine.Simulator.process`.
    """

    __slots__ = ("_generator", "_target", "_control")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        # Kick off the first step as soon as the engine runs.
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap.callbacks.append(self._resume)
        sim._schedule(bootstrap)
        #: The engine-internal event allowed to resume us next (the
        #: bootstrap, or an interrupt carrier).  Resumes from any event
        #: that is neither the target nor the control are stale (e.g.
        #: the pre-interrupt target firing later) and are ignored.
        self._control: Optional[Event] = bootstrap

    # -- state ---------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event currently being waited on (``None`` if not waiting)."""
        return self._target

    # -- control -------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next step.

        No-op semantics: interrupting a dead process raises, because it
        always indicates a bookkeeping bug in the caller.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        # Deliver through a freshly failed event so ordering relative
        # to other same-time events stays deterministic.
        carrier = Event(self.sim)
        carrier.add_callback(self._resume)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        self.sim._schedule(carrier)
        self._control = carrier

    # -- engine plumbing -------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step (engine internal).

        Ignores stale wake-ups: once the process has finished, or when
        the event is neither the current wait target nor the pending
        control event (bootstrap/interrupt carrier).  Stale events
        arise when an interrupt preempts a wait whose original event
        fires later anyway.
        """
        if self._ok is not None:
            return
        if event is not self._target and event is not self._control:
            return
        if event is self._control:
            self._control = None
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                yielded = self._generator.send(event._value)
            else:
                yielded = self._generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(yielded, Event):
            # Fail the process with a clear diagnostic instead of
            # letting a bare value wedge the generator forever.
            error = TypeError(
                f"process {self.name or self._generator!r} yielded "
                f"{yielded!r}; processes must yield Event instances"
            )
            self._generator.close()
            self.fail(error)
            return
        if yielded.sim is not sim:
            self._generator.close()
            self.fail(ValueError("yielded event belongs to a different Simulator"))
            return
        self._target = yielded
        callbacks = yielded.callbacks
        if callbacks is None:
            self._resume(yielded)  # already processed: resume at once
        else:
            callbacks.append(self._resume)
