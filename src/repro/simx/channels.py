"""Message-passing primitives for simulated processes.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
event-returning ``put``/``get`` (the DES analogue of a queue). :class:`Channel`
is an unbounded Store with an optional per-message delivery delay, which
the cluster network layer uses to model link latency.

Memory contract: a primitive pays only for what it holds. A Store keeps
its three FIFOs -- stored items, waiting getters, blocked putters -- as
deques that exist only while occupied: each is allocated when the store
first parks something in it and dropped when it drains. A lone waiting
getter, the usual state of a daemon blocked on its next message, needs
no deque either: it sits in the getter slot itself, which becomes a
deque only when a second getter parks. An idle Store is therefore just
its slots, and an idle Channel (a Store with three more slots) one
object, however many a simulated daemon owns. A put that finds a
waiting getter hands the item straight over, and a get that finds a
stored item takes it at once, so the common one-message exchange
allocates no queue at all.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Union

from repro.simx.core import NORMAL, Event, SimulationError, Simulator

__all__ = ["Channel", "Store"]


class Store:
    """FIFO store of items with blocking get and (optionally) bounded put.

    ``put(item)`` returns an event that triggers once the item is accepted
    (immediately if below capacity). ``get()`` returns an event that triggers
    with the oldest item once one is available. Waiters are served strictly
    FIFO, which keeps all higher-level protocols deterministic.

    Each FIFO is ``None`` while empty, and one waiting getter is held
    without a deque (see the module docstring). Between calls at most
    one kind of waiter is parked: getters only while no item is stored,
    putters only while the store is full. An accepted item fires its put
    event before the getter it is handed to.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if not capacity > 0:  # NaN too: a second put could never land
            raise SimulationError(
                f"Store capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._items: Optional[Deque[Any]] = None
        #: None, the one waiting getter, or a deque once a second waits
        self._getters: Union[None, Event, Deque[Event]] = None
        self._putters: Optional[Deque[tuple[Event, Any]]] = None

    def __len__(self) -> int:
        return len(self._items or ())

    @property
    def items(self) -> tuple:
        """Snapshot of currently stored items (oldest first)."""
        return tuple(self._items or ())

    def put(self, item: Any) -> Event:
        sim = self.sim
        ev = Event(sim)
        items = self._items
        if items is None or len(items) < self.capacity:
            # accepted: scheduled inline (the event is fresh), and before
            # the item is handed to a waiting getter
            ev._value = None
            sim._seq = ev._seq = sim._seq + 1
            sim._fast_normal.append(ev)
            self._deliver(item)
        elif self._putters is None:
            self._putters = deque(((ev, item),))
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        sim = self.sim
        ev = Event(sim)
        items = self._items
        if items is None:
            getters = self._getters
            if getters is None:
                self._getters = ev
            elif isinstance(getters, deque):
                getters.append(ev)
            else:
                self._getters = deque((getters, ev))
            return ev
        # ready: scheduled inline (the event is fresh)
        ev._value = items.popleft()
        sim._seq = ev._seq = sim._seq + 1
        sim._fast_normal.append(ev)
        putters = self._putters
        if putters is not None:
            # the store was full: the oldest blocked put takes the slot
            put_ev, item = putters.popleft()
            items.append(item)
            if not putters:
                self._putters = None
            put_ev.succeed()
        elif not items:
            self._items = None
        return ev

    def _deliver(self, item: Any) -> None:
        """Hand an accepted item to the oldest waiting getter, or store it."""
        getters = self._getters
        if getters is None:
            if self._items is None:
                self._items = deque((item,))
            else:
                self._items.append(item)
            return
        if isinstance(getters, deque):
            getter = getters.popleft()
            if not getters:
                self._getters = None
        else:
            getter = getters
            self._getters = None
        getter.succeed(item)


class Channel(Store):
    """A unidirectional message channel with per-message delivery latency.

    A Channel is the unbounded :class:`Store` its messages are delivered
    into, so one object per channel: ``send`` is non-blocking for the
    sender (the message is committed immediately), and delivery into the
    store happens after ``latency_fn(message)`` virtual seconds.
    ``recv`` is :meth:`Store.get` and ``pending`` the store's length.
    With zero latency ``send`` is a plain ``put``.
    """

    __slots__ = ("_latency_fn", "sent_count", "delivered_count")

    def __init__(self, sim: Simulator,
                 latency_fn: Optional[Callable[[Any], float]] = None):
        super().__init__(sim)
        self._latency_fn = latency_fn
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, message: Any) -> Event:
        """Enqueue ``message`` for delivery; returns the delivery event."""
        delay = self._latency_fn(message) if self._latency_fn else 0.0
        if not delay >= 0:  # NaN too: a NaN key breaks the heap order
            raise SimulationError(
                f"channel latency must be non-negative, got {delay!r}")
        self.sent_count += 1
        if delay == 0.0:
            self.delivered_count += 1
            return self.put(message)
        done = Event(self.sim)
        _Delivery(self, message, delay, done)
        return done

    #: event triggering with the next delivered message
    recv = Store.get

    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self)


class _Delivery(Event):
    """One delayed message in flight: a single kernel event, re-armed.

    Delivery fires the kernel events a generator process doing ``yield
    timeout(delay); yield store.put(msg); done.succeed()`` would, at the
    same instants, with the same priorities and in the same ``seq``
    order: an URGENT zero-delay bootstrap, the latency timeout (which puts
    the message), the put (which fires ``done``) and a trailing completion
    -- five events per message counting ``done``. The first four are this
    one object, scheduled again each time it fires; each stage schedules
    the next itself, as the kernel's producers do (a ``seq`` bump, then
    a lane append or, for the arrival, a heap push). Its callbacks are
    shared module-level tuples, one per stage, so a message in flight
    holds no bound method of itself and allocates no callback list.
    """

    __slots__ = ("chan", "msg", "delay", "done")

    def __init__(self, chan: Channel, msg: Any, delay: float, done: Event):
        self.sim = sim = chan.sim
        self.callbacks = _START  # type: ignore[assignment]
        self._value = None
        self._exc = None
        self._defused = True
        self.chan = chan
        self.msg = msg
        self.delay = delay
        self.done = done
        sim._seq = self._seq = sim._seq + 1
        sim._fast_urgent.append(self)


def _start(d: _Delivery) -> None:
    d.callbacks = _ARRIVE  # type: ignore[assignment]
    sim = d.sim
    sim._seq = seq = sim._seq + 1
    heappush(sim._heap, (sim.now + d.delay, NORMAL, seq, d))


def _arrive(d: _Delivery) -> None:
    chan = d.chan
    chan.delivered_count += 1
    d.callbacks = _ACCEPTED  # type: ignore[assignment]
    sim = d.sim
    sim._seq = d._seq = sim._seq + 1
    sim._fast_normal.append(d)
    chan._deliver(d.msg)  # unbounded: the put is accepted at once


def _accepted(d: _Delivery) -> None:
    d.done.succeed()
    d.callbacks = ()  # type: ignore[assignment]
    sim = d.sim
    sim._seq = d._seq = sim._seq + 1
    sim._fast_normal.append(d)


_START = (_start,)
_ARRIVE = (_arrive,)
_ACCEPTED = (_accepted,)
