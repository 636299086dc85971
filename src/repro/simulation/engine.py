"""Discrete-event simulation engine.

A compact, dependency-free, generator-based discrete-event kernel in the
style of SimPy.  Simulation *processes* are Python generators that yield
:class:`Event` objects; the :class:`Environment` advances virtual time and
resumes processes when the events they wait on are triggered.

The engine is deliberately small but complete enough to drive the
datacenter substrate used throughout this repository: timeouts, process
joining, condition events (``AllOf`` / ``AnyOf``), failure propagation and
process interruption are all supported.

The kernel is the collection hot path (every trace record costs a
handful of events), so the event hierarchy is ``__slots__``-only, the
schedule push is inlined at every trigger site, and the ``step``/``run``
loops work on bound locals.  None of this may move a byte of output:
event ids, step counts and timestamps are the replay clock that
checkpoint digests (:mod:`repro.simulation.checkpoint`) verify, and the
golden-store tests pin ``repro collect`` output bytes across kernel
changes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]

#: Scheduling priorities (lower value pops first at equal timestamps).
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupting cause is available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence at a point in simulated time.

    Events start *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules their callbacks to run at the current
    simulation time.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: True once a waiter (or ``run(until=...)``) owns this event's
        #: failure; an undefused failure propagates out of ``step()``.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, NORMAL, env._eid, self))
        return self


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, self))


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event that triggers when the generator
    terminates — other processes can therefore ``yield`` a process to
    join on it.  The generator's ``return`` value becomes the event value.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._ok is not None:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)

        def deliver(evt: Event) -> None:
            # Detach at fire time (the process may have moved on since the
            # interrupt was scheduled) and drop the interrupt entirely if
            # the process terminated in the meantime.
            if self._ok is not None:
                evt._defused = True
                return
            if self._target is not None and self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            self._resume(evt)

        event.callbacks.append(deliver)
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, URGENT, env._eid, event))

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        self._target = None
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # Mark the failure as handled: the waiting process
                    # receives the exception and may catch it.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            if next_event.__class__ is Timeout:
                # Fast path: a fresh Timeout is always pending (it was
                # scheduled at creation and cannot have been processed
                # mid-resume), so skip the generic dispatch below.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                try:
                    generator.throw(exc)
                except BaseException as err:
                    self._ok = False
                    self._value = err
                    env._eid += 1
                    heappush(env._queue, (env._now, NORMAL, env._eid, self))
                break
            if next_event.callbacks is not None:
                # Event pending: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: continue immediately with its value.
            event = next_event
        env._active_process = None


class Condition(Event):
    """Base for composite events over several sub-events.

    Completion is tracked with a countdown (:attr:`_remaining`) updated
    once per sub-event trigger — O(1) per callback where re-scanning
    every sub-event would make wide fan-ins quadratic.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        self._events = events
        for event in events:
            if event.env is not env:
                raise SimulationError("events from mixed environments")
        if not events:
            # An empty condition is vacuously satisfied.  Triggering it
            # at creation (as SimPy does) matters most for AnyOf, where
            # ``any([]) is False`` would otherwise leave the condition
            # pending forever and deadlock the yielding process.
            self._finish()
            return
        self._remaining = len(events)
        check = self._check
        for event in events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _finish(self) -> None:
        results = {
            i: e._value
            for i, e in enumerate(self._events)
            if e.callbacks is None and e._ok
        }
        self.succeed(results)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers once *all* sub-events have fired successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
        else:
            self._remaining -= 1
            if self._remaining == 0:
                self._finish()


class AnyOf(Condition):
    """Triggers once *any* sub-event has fired successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
        else:
            self._finish()


def _defuse(event: Event) -> None:
    """Callback marking an event's failure as owned by ``run(until=...)``."""
    event._defused = True


class Environment:
    """The simulation environment: clock plus event queue.

    Example::

        env = Environment()

        def worker(env):
            yield env.timeout(5.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5.0
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._steps = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def steps(self) -> int:
        """Events processed so far — the engine's replay clock.

        A deterministic simulation's entire history is indexed by this
        counter: re-running the same program and stepping the same
        number of times lands on the identical state, which is what
        checkpoint restore (:mod:`repro.simulation.checkpoint`) replays
        against.
        """
        return self._steps

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator function call."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling & execution ------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`SimulationError` when the queue is empty, and
        re-raises unhandled process failures.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        self._now, _, _, event = heappop(queue)
        self._steps += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # A failure nobody handled: propagate to the caller of run().
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain,
        * a number — run until the clock reaches that time,
        * an :class:`Event` — run until that event is processed and
          return its value (raising if it failed).

        The numeric bound is *inclusive*: events scheduled exactly at
        ``until`` are executed before returning, and the clock is left
        at ``until``.  Callers windowing a simulation with repeated
        ``run(until=...)`` calls should therefore treat each window as
        owning its right edge — a follow-up ``run(until=t)`` with the
        same ``t`` executes nothing further.

        When ``until`` is an event that fails, the failure is raised
        here exactly once: the event is marked defused the moment it is
        processed, so ``step()`` does not also propagate it as an
        unhandled failure.
        """
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is not None:
                # Own the failure before it fires so step() defers to
                # the raise below instead of surfacing it a second time.
                stop.callbacks.append(_defuse)
                while stop.callbacks is not None:
                    if not self._queue:
                        raise SimulationError(
                            "simulation ran out of events before target "
                            "event fired"
                        )
                    self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        limit = float("inf") if until is None else float(until)
        if limit < self._now:
            raise ValueError(f"until={limit} is in the past (now={self._now})")
        # The hot loop: identical semantics to repeated step() calls,
        # with the heap, the pop and the step counter held in locals.
        queue = self._queue
        pop = heappop
        steps = self._steps
        try:
            while queue and queue[0][0] <= limit:
                self._now, _, _, event = pop(queue)
                steps += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    self._steps = steps
                    raise event._value
        finally:
            self._steps = steps
        if limit != float("inf"):
            self._now = limit
        return None
