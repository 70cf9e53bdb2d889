"""Core event loop: events, generator processes and the simulator.

The kernel implements a strict event-driven execution model:

* an :class:`Event` is a one-shot future with callbacks;
* a :class:`Process` wraps a generator; each value the generator yields must
  be an :class:`Event`, and the process resumes when that event triggers;
* the :class:`Simulator` schedules ``(time, priority, seq)``-ordered events
  and processes them in deterministic order.

Determinism contract: two events scheduled for the same time trigger in the
order they were scheduled (``seq`` is a monotone counter), with URGENT
events before NORMAL ones; no wall-clock or global RNG state is consulted
anywhere in the kernel (wall-clock is *measured* for
:attr:`Simulator.stats`, never consulted for scheduling).

Scheduling uses two structures with one total order:

* a binary heap of ``(time, priority, seq, event)`` entries for events in
  the *future* (``delay > 0``);
* two same-time FIFO lanes (URGENT / NORMAL) for events scheduled at the
  *current instant* (``delay == 0``) -- ``succeed``/``fail``, process
  completion and process bootstrap, which dominate large launches.

Zero-delay events are appended to a lane in seq order and can only fire
while ``now`` is unchanged, so a lane head's implied key is
``(now, lane priority, seq)``; the dispatcher pops the minimum of that and
the heap top, which reproduces the pure-heap order exactly while keeping
the dominant churn O(1) instead of O(log heap).

Each per-event producer schedules its own event inline, without a call:
``seq`` is bumped, then the event is appended to its lane (stamped with
that ``seq``) or pushed onto the heap. ``Simulator(fast_lane=False)``,
the pure-heap kernel kept for differential testing, differs only in its
lanes: each is a :class:`_HeapLane`, whose ``append`` pushes
``(now, priority, seq, event)`` onto the heap and whose length is always
0, so every producer, the dispatcher and ``peek`` run unchanged.
``Simulator._enqueue`` remains the one general call, for the cold
producers (interrupts, kills, conditions).

Memory contract: :meth:`Simulator.run` pauses CPython's cyclic collector
while it dispatches, so the garbage a run makes must be freed by
reference counting alone. Kernel objects are therefore acyclic once they
have fired for the last time: a process drops its cached wake-up handle
when it finishes, a condition drops its children when it triggers, and
an event releases its callback list as it fires.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

try:  # POSIX only; SimStats.peak_rss_kb stays 0 elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimStats",
    "SimulationError",
    "Simulator",
    "Timeout",
    "run_bounded",
]

_PENDING = object()

#: Priority for ordinary events.
NORMAL = 1
#: Priority used for process-bootstrap events so a newly created process
#: starts before same-time ordinary callbacks fire.
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (yielding non-events, running a dead sim...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary user payload describing why the process
    was interrupted (e.g. a failure notice from a supervising daemon).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with a value and subscriber callbacks.

    Events move through three states: *pending* (just created), *triggered*
    (``succeed``/``fail`` called; scheduled on the simulator heap) and
    *processed* (callbacks have run). A failed event whose exception is never
    observed by any process raises at ``run()`` time so errors cannot vanish
    silently.

    ``_seq`` is set when the event is scheduled on a same-time lane (a
    heap lane reads it to build the heap key); an event is scheduled at
    most once per firing.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_defused", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called (``fail`` sets
        ``_value`` too, so one identity test covers both)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("value of untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure this event triggered with, or None."""
        return self._exc

    def defuse(self) -> None:
        """Mark this event's failure as observed, so an unhandled failure
        does not crash the simulator run (see class docstring)."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        sim = self.sim
        sim._seq = self._seq = sim._seq + 1
        sim._fast_normal.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._value = None
        sim = self.sim
        sim._seq = self._seq = sim._seq + 1
        sim._fast_normal.append(self)
        return self

    def _run_callbacks(self) -> None:
        # Simulator.run() inlines this; step() calls it
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)
        if self._exc is not None and not self._defused:
            raise self._exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN too: a NaN key breaks the heap order
            raise SimulationError(f"negative or NaN timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._defused = True  # a timeout cannot fail
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        if delay == 0.0:
            self._seq = seq
            sim._fast_normal.append(self)
        else:
            heappush(sim._heap, (sim.now + delay, NORMAL, seq, self))


class _Initialize(Event):
    """Bootstrap event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._wake]
        self._value = None
        self._exc = None
        self._defused = True
        sim._seq = self._seq = sim._seq + 1
        sim._fast_urgent.append(self)


class Process(Event):
    """A generator-based simulated process.

    The process is itself an :class:`Event` that triggers with the
    generator's return value when it finishes (or fails with its unhandled
    exception), so processes can wait on each other by yielding a
    :class:`Process`.

    A suspended process subscribes ``_wake`` (its cached bound
    ``_resume``) to the event it waits on and records that event as
    ``_target``; a wake-up by any other event is stale and ignored.
    Detaching is therefore O(1) -- clear ``_target`` -- however many
    other processes wait on the same event (an event's callback list
    never shrinks). A process that waits again on an event it was
    interrupted away from is subscribed twice and resumes at the first
    subscription. ``_wake`` is dropped when the process finishes or is
    killed, so a dead process holds no bound method of itself.
    """

    __slots__ = ("_gen", "_target", "name", "_wake")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any],
                 name: str = ""):
        if not hasattr(gen, "throw"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exc = None
        self._defused = False
        self._gen = gen
        self._wake: Optional[Callable[[Event], None]] = self._resume
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> Event:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns the event that delivers it: processed once the process
        has taken the interrupt (or absorbed it, had it finished first).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self is self.sim._active_proc:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.sim)
        interrupt_ev._value = None
        interrupt_ev._exc = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(  # type: ignore[union-attr]
            self._resume_interrupted)
        # Detach from the event we were waiting on: when it later triggers
        # it must not resume us again. A process whose bootstrap has not
        # run keeps it, so it starts first and takes the interrupt at its
        # first wait (see _resume_interrupted).
        if type(self._target) is not _Initialize:
            self._target = None
        self.sim._enqueue(interrupt_ev, 0.0, URGENT)
        return interrupt_ev

    def kill(self) -> None:
        """Abandon the process *without* unwinding it (crash semantics).

        :meth:`interrupt` models a graceful abort: the generator's
        ``except``/``finally`` blocks run, releasing whatever the process
        held. A *crashed* control plane gets no such courtesy -- the OS
        reaps the process mid-instruction and its queued requests, held
        slots and half-done bookkeeping are simply orphaned (that is what
        a checkpoint/restore layer exists to reconcile). ``kill()`` is
        that model: the generator is frozen where it suspended, never
        resumed and never closed, and the process-event completes with
        value ``None`` so waiters observe an exit rather than a hang.

        When the abandoned target later fires, :meth:`_resume`'s
        stale-wakeup guard absorbs it (defusing a failure), exactly as for
        a process that finished between scheduling and delivery. The
        generator is
        parked in the simulator's graveyard so garbage collection cannot
        ``close()`` it mid-simulation -- a GC-time ``GeneratorExit``
        would run the cleanup handlers after all, at a nondeterministic
        moment, mutating queues the restore path already reconciled.
        """
        if self.triggered:
            raise SimulationError(f"cannot kill finished {self!r}")
        if self is self.sim._active_proc:
            raise SimulationError("a process cannot kill itself")
        self._target = self._wake = None
        self.sim._graveyard.append(self._gen)
        self._value = None
        self.sim._enqueue(self, 0.0, NORMAL)

    def _resume_interrupted(self, event: Event) -> None:
        """Deliver a queued Interrupt. The process may have suspended (or
        resumed and re-suspended) on a new target between ``interrupt()``
        and this delivery -- e.g. it was interrupted in the same instant
        it was created, before its bootstrap ran -- so the interrupt
        replaces whatever it waits on *now*; otherwise that event would
        later resume the process a second time."""
        if not self.triggered:
            self._target = event
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if event is not self._target:
            # stale wake-up: the process was detached from this event
            # (interrupted or killed) or finished between its scheduling
            # and its delivery (e.g. two supervisors -- a node failure and
            # a tree repair -- interrupted it at the same instant). A
            # finished process absorbs the event instead of resuming a
            # corpse; a live one keeps waiting on its current target.
            if event._exc is not None and self._value is not _PENDING:
                event._defused = True
            return
        sim = self.sim
        sim._active_proc = self
        while True:
            try:
                if event._exc is None:
                    next_ev = self._gen.send(event._value)
                else:
                    event._defused = True
                    next_ev = self._gen.throw(event._exc)
            except StopIteration as stop:
                self._target = self._wake = None
                sim._active_proc = None
                self._value = stop.value
                sim._seq = self._seq = sim._seq + 1
                sim._fast_normal.append(self)
                return
            except BaseException as exc:
                self._target = self._wake = None
                sim._active_proc = None
                # drop this frame from the traceback: it holds ``self``,
                # which would then hold itself through ``_exc``
                self._exc = exc.with_traceback(exc.__traceback__.tb_next)
                self._value = None
                sim._seq = self._seq = sim._seq + 1
                sim._fast_normal.append(self)
                return

            if not isinstance(next_ev, Event):
                sim._active_proc = None
                raise SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}")
            if next_ev.sim is not sim:  # pragma: no cover - defensive
                sim._active_proc = None
                raise SimulationError("yielded event from a foreign simulator")

            callbacks = next_ev.callbacks
            if callbacks is not None:
                # Not yet processed: subscribe and suspend.
                callbacks.append(self._wake)
                self._target = next_ev
                sim._active_proc = None
                return
            # Already processed: continue immediately with its outcome.
            event = next_ev


class _Condition(Event):
    """Base for AllOf / AnyOf composite events.

    Completion is tracked by *processed* children (callbacks delivered), not
    by the ``triggered`` flag -- a Timeout is conceptually triggered from
    birth but only counts once its scheduled moment has passed. A
    triggered condition drops its children: a pending child still holds
    the condition's bound ``_on_child``.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        self._remaining = 0
        for ev in self._events:
            if ev.callbacks is None:
                # already processed before the condition existed
                if ev._exc is not None and not self.triggered:
                    ev._defused = True
                    self._trigger_fail(ev._exc)
            else:
                self._remaining += 1
                ev.callbacks.append(self._on_child)
        if not self.triggered:
            self._initial_check()

    def _trigger_fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._value = None
        self._events = ()
        self.sim._enqueue(self, 0.0, NORMAL)

    def _trigger_ok(self) -> None:
        self._value = self._collect()
        self._events = ()
        self.sim._enqueue(self, 0.0, NORMAL)

    def _on_child(self, ev: Event) -> None:
        self._remaining -= 1
        if self._value is not _PENDING:
            # the condition has already fired (e.g. fail-fast on a sibling),
            # but this child's failure is still *observed* by the condition:
            # defuse it so two same-instant failures cannot crash the run
            if ev._exc is not None:
                ev._defused = True
            return
        if ev._exc is not None:
            ev._defused = True
            self._trigger_fail(ev._exc)
        else:
            self._child_done()

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events
                if ev.processed and ev._exc is None}

    def _initial_check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _child_done(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has been processed (fails fast)."""

    __slots__ = ()

    def _initial_check(self) -> None:
        if self._remaining == 0:
            self._trigger_ok()

    def _child_done(self) -> None:
        if self._remaining == 0:
            self._trigger_ok()


class AnyOf(_Condition):
    """Triggers as soon as any child event is processed.

    A child that has not fired yet keeps the condition referenced, with
    its result dict and the other children, until that child fires --
    however long ago the condition triggered. Racing many short waits
    against one long-lived event (one that fires only on a repair or a
    shutdown, say) thus keeps every one of them until it fires; have
    the event's owner keep a registry of the waits still pending
    instead, as a stream's repair epoch does (:mod:`repro.tbon.overlay`).
    """

    __slots__ = ()

    def _initial_check(self) -> None:
        if self._remaining < len(self._events) or not self._events:
            self._trigger_ok()

    def _child_done(self) -> None:
        self._trigger_ok()


def run_bounded(sim: "Simulator", gen: Generator[Event, Any, Any],
                timeout: float, name: str = "",
                ) -> Generator[Event, Any, Optional["Process"]]:
    """Race ``gen`` (started as a fresh process) against a timer.

    Returns the finished worker process -- read ``.value`` for its result,
    which re-raises the worker's own failure -- or None when the timer
    wins: the worker is then interrupted (its cleanup handlers run, so
    interrupt-safe resources are released) and defused so its demise
    cannot crash the run. This is the single shape behind every timeout
    guard in the launch stack (per-daemon spawn bounds, the FE handshake
    bound); callers translate a None into their own exception type.
    """
    worker = sim.process(gen, name=name)
    timer = sim.timeout(timeout)
    yield sim.any_of([worker, timer])
    if worker.is_alive:
        worker.defuse()
        worker.interrupt("bounded run timed out")
        return None
    return worker


class SimStats:
    """Kernel counters for one :class:`Simulator` (see ``Simulator.stats``).

    All counters are observational -- nothing in the kernel consults them
    for scheduling, so they cannot perturb determinism. ``wall_time`` only
    accumulates across :meth:`Simulator.run` calls (bare ``step()`` loops
    are not timed).

    The dispatcher keeps them off the enqueue path: it counts pops, and
    derives the rest when :meth:`Simulator.run` or :meth:`Simulator.step`
    returns -- ``heap_pushes`` is heap pops plus the heap's length, and
    the high waters are sampled before each pop (between two pops both
    counts only grow). They are exact whenever ``run()``/``step()`` has
    returned, not while a callback is running.
    """

    __slots__ = ("events", "fast_events", "heap_pushes", "heap_high_water",
                 "live_high_water", "peak_rss_kb", "wall_time")

    def __init__(self) -> None:
        #: total events processed (fired)
        self.events = 0
        #: events that went through a same-time FIFO lane, not the heap
        self.fast_events = 0
        #: events pushed onto the heap (future events, or all of them
        #: when the fast lane is disabled)
        self.heap_pushes = 0
        #: largest number of simultaneously scheduled heap entries
        self.heap_high_water = 0
        #: largest number of simultaneously scheduled events anywhere
        #: (heap plus both same-time lanes) -- the kernel's live footprint
        self.live_high_water = 0
        #: process peak RSS in KiB, sampled after each ``run()``
        #: (0 where the ``resource`` module is unavailable)
        self.peak_rss_kb = 0
        #: cumulative wall-clock seconds spent inside ``run()``
        self.wall_time = 0.0

    def events_per_sec(self) -> float:
        """Wall-clock event throughput over all ``run()`` calls so far."""
        return self.events / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "fast_events": self.fast_events,
            "heap_pushes": self.heap_pushes,
            "heap_high_water": self.heap_high_water,
            "live_high_water": self.live_high_water,
            "peak_rss_kb": self.peak_rss_kb,
            "wall_time": self.wall_time,
            "events_per_sec": self.events_per_sec(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimStats events={self.events} fast={self.fast_events} "
                f"heap_hw={self.heap_high_water} "
                f"ev/s={self.events_per_sec():.0f}>")


class _HeapLane:
    """A same-time lane of the pure-heap kernel (``fast_lane=False``).

    ``append`` pushes the event onto the heap under the key a lane head
    implies, ``(now, priority, seq)``, and the lane always reads as
    empty, so producers, dispatch and ``peek`` need no second path. It
    holds the heap list, not the simulator: the simulator holds its
    lanes, and a lane holding it back would be a cycle that leaves every
    dropped pure-heap simulator to the cyclic collector.
    """

    __slots__ = ("_heap", "_priority")

    def __init__(self, heap: list, priority: int):
        self._heap = heap
        self._priority = priority

    def append(self, event: Event) -> None:
        heappush(self._heap,
                 (event.sim.now, self._priority, event._seq, event))

    def __len__(self) -> int:
        return 0


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    ``fast_lane=False`` makes both same-time lanes heap lanes
    (:class:`_HeapLane`), which schedule every event through the heap --
    the pre-optimization scheduling algorithm, kept so differential
    tests can prove the fast lane preserves the event order (see the
    module docstring's determinism contract). The kernel's producers
    schedule inline (``seq`` bump, then a lane append or a heap push),
    so both kernels share every producer and differ only in the lanes.

    ``stats`` exposes kernel counters (:class:`SimStats`); setting
    ``trace`` to a callable makes the dispatcher invoke it as
    ``trace(time, priority, seq, event)`` for every event fired, in firing
    order -- the hook determinism specs record traces through.
    """

    def __init__(self, fast_lane: bool = True) -> None:
        #: current virtual time (seconds by convention in this project); a
        #: plain field the kernel alone writes (simlint's ``clock-write``
        #: rule rejects an assignment to ``.now`` outside ``repro/simx/``)
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        #: same-time FIFO lanes for zero-delay events (``Event._seq``
        #: set), or heap lanes for the pure-heap kernel
        if fast_lane:
            self._fast_urgent = deque()
            self._fast_normal = deque()
        else:
            self._fast_urgent = _HeapLane(self._heap, URGENT)
            self._fast_normal = _HeapLane(self._heap, NORMAL)
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: generators of killed processes (see :meth:`Process.kill`): kept
        #: referenced for the simulator's lifetime so GC never close()s
        #: them while the simulation can still observe the side effects
        self._graveyard: list = []
        #: kernel counters -- events processed, heap high-water, wall rate
        self.stats = SimStats()
        #: optional per-event hook: trace(time, priority, seq, event)
        self.trace: Optional[Callable[[float, int, int, Event], None]] = None

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / execution -------------------------------------------
    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        """Schedule ``event`` ``delay`` from now: the general form of what
        each hot producer does inline, kept for the cold ones."""
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            # Same-time lane: zero-delay events can only fire while
            # ``now`` is unchanged, so FIFO append preserves seq order and
            # the dispatcher can treat the lane head as (now, prio, seq).
            event._seq = seq
            if priority == NORMAL:
                self._fast_normal.append(event)
            else:
                self._fast_urgent.append(event)
        else:
            heappush(self._heap, (self.now + delay, priority, seq, event))

    def _settle_stats(self) -> None:
        """Derive the enqueue-side counters from the pop counts (see
        :class:`SimStats`); also the high-water sample before a pop."""
        stats = self.stats
        heap_len = len(self._heap)
        stats.heap_pushes = stats.events - stats.fast_events + heap_len
        if heap_len > stats.heap_high_water:
            stats.heap_high_water = heap_len
        live = self._seq - stats.events
        if live > stats.live_high_water:
            stats.live_high_water = live

    def _pop_next(self) -> tuple[int, int, Event]:
        """Pop the globally minimal ``(time, priority, seq)`` entry,
        advancing ``now`` for heap entries. Returns (priority, seq, event);
        raises on an empty schedule."""
        if self._fast_urgent:
            lane, lane_prio = self._fast_urgent, URGENT
        elif self._fast_normal:
            lane, lane_prio = self._fast_normal, NORMAL
        else:
            lane = None
        heap = self._heap
        if heap:
            when, prio, seq, event = heap[0]
            if lane is None or (when, prio, seq) < (self.now, lane_prio,
                                                    lane[0]._seq):
                heappop(heap)
                self.now = when
                return prio, seq, event
        elif lane is None:
            raise SimulationError("step() on an empty schedule")
        event = lane.popleft()
        self.stats.fast_events += 1
        return lane_prio, event._seq, event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._fast_urgent or self._fast_normal:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        self._settle_stats()
        prio, seq, event = self._pop_next()
        self.stats.events += 1
        try:
            if self.trace is not None:
                self.trace(self.now, prio, seq, event)
            event._run_callbacks()
        finally:
            self._settle_stats()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or ``until`` (exclusive for events
        strictly beyond it; the clock is advanced to ``until``).

        Automatic cyclic garbage collection is paused while the run
        dispatches: the simulation's live heap only grows during a run,
        and every full collection would re-walk all of it. Kernel objects
        are acyclic once fired, so reference counting frees their garbage
        meanwhile. A caller that disabled the collector keeps it disabled.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"until={until} is NaN or lies in the past "
                f"(now={self.now})")
        # local aliases: this loop is the whole program's hot path
        heap = self._heap
        fast_urgent = self._fast_urgent
        fast_normal = self._fast_normal
        trace = self.trace
        stats = self.stats
        events = stats.events
        fast = stats.fast_events
        heap_hw = stats.heap_high_water
        live_hw = stats.live_high_water
        now = self.now
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # observational only (SimStats); never consulted for scheduling
        wall0 = perf_counter()  # simlint: allow[wall-clock]
        try:
            while True:
                if fast_urgent:
                    lane = fast_urgent
                    prio = URGENT
                elif fast_normal:
                    lane = fast_normal
                    prio = NORMAL
                elif heap:
                    lane = None
                else:
                    break
                live = self._seq - events
                if live > live_hw:
                    live_hw = live
                if lane is not None and heap and heap[0][0] == now:
                    # a heap entry due now precedes the lane head (key
                    # (now, prio, seq)) only on a smaller (prio, seq)
                    top = heap[0]
                    if top[1] < prio or (top[1] == prio
                                         and top[2] < lane[0]._seq):
                        lane = None
                if lane is None:
                    if until is not None and heap[0][0] > until:
                        break
                    if len(heap) > heap_hw:
                        heap_hw = len(heap)
                    now, prio, seq, event = heappop(heap)
                    self.now = now
                else:
                    event = lane.popleft()
                    seq = event._seq
                    fast += 1
                events += 1
                if trace is not None:
                    trace(now, prio, seq, event)
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if event._exc is not None and not event._defused:
                    raise event._exc
        finally:
            stats.wall_time += perf_counter() - wall0  # simlint: allow[wall-clock]
            if gc_was_enabled:
                gc.enable()
            stats.events = events
            stats.fast_events = fast
            stats.heap_high_water = heap_hw
            stats.live_high_water = live_hw
            self._settle_stats()
            if _resource is not None:
                # observational only; ru_maxrss is KiB on Linux
                rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
                if rss > stats.peak_rss_kb:
                    stats.peak_rss_kb = rss
        if until is not None:
            self.now = until
