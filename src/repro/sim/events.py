"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
``yield``-ing them; resources complete requests by calling
:meth:`Event.succeed`.  Events may also be *cancelled*, which silently
drops their callbacks -- used when a query is aborted at its firm
deadline while an I/O completion is still pending.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted.

    The ``cause`` attribute carries an arbitrary payload describing why
    the interruption happened (for the RTDBS model this is the string
    ``"deadline"`` when a firm deadline expires).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    The life cycle is: *pending* -> (*triggered* -> *processed*) or
    *cancelled*.  ``succeed(value)`` schedules the event's callbacks to
    run at the current simulation time; the value is delivered to every
    waiting process as the result of its ``yield``.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_cancelled", "_gen")

    def __init__(self, sim: "Simulator"):  # noqa: F821 - forward ref
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._cancelled = False
        #: Schedule generation.  A heap entry remembers the generation
        #: at push time; bumping this invalidates the entry without an
        #: O(n) heap removal (used by preemptive servers to re-time a
        #: directly-scheduled completion).
        self._gen = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True when the event succeeded (as opposed to failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` / :meth:`fail`."""
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if self._cancelled:
            return self
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiting processes see the exception."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if self._cancelled:
            return self
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def cancel(self) -> None:
        """Drop the event: callbacks will never run.

        Safe to call at any point; a cancelled event that is later
        ``succeed``-ed is ignored, and an already-triggered event that is
        cancelled before its callbacks ran has them suppressed.
        """
        self._cancelled = True
        self.callbacks.clear()

    # internal -- invoked by the simulator when the event is processed
    def _run_callbacks(self) -> None:
        if self._cancelled:
            return
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    A timeout is scheduled at creation but only becomes *triggered*
    when the simulator processes it at its fire time (processes waiting
    on it sleep until then).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay)


class AnyOf(Event):
    """Fires as soon as any of the given events fires.

    The value is the (event, value) pair of the first event to fire.
    Remaining events keep their own state; their callbacks into this
    composite are ignored after the first firing.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulator", events: List[Event]):  # noqa: F821
        super().__init__(sim)
        self._done = False
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for event in events:
            if event.triggered:
                self._on_child(event)
                break
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._done or self._cancelled:
            return
        self._done = True
        self.succeed((event, event.value))


class AllOf(Event):
    """Fires once every one of the given events has fired.

    The value is always the list of the child events' values, in the
    order the events were given -- whether the children were already
    triggered at construction or fired later.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event]):  # noqa: F821
        super().__init__(sim)
        self._events = list(events)
        pending = [event for event in self._events if not event.triggered]
        self._remaining = len(pending)
        if self._remaining == 0:
            self.succeed([event.value for event in self._events])
            return
        for event in pending:
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._cancelled:
            return
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([child.value for child in self._events])
