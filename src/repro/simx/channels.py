"""Message-passing primitives for simulated processes.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
event-returning ``put``/``get`` (the DES analogue of a queue). :class:`Channel`
wraps a Store with an optional per-message delivery delay, which the cluster
network layer uses to model link latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simx.core import NORMAL, URGENT, Event, SimulationError, Simulator

__all__ = ["Channel", "Store"]


class Store:
    """FIFO store of items with blocking get and (optionally) bounded put.

    ``put(item)`` returns an event that triggers once the item is accepted
    (immediately if below capacity). ``get()`` returns an event that triggers
    with the oldest item once one is available. Waiters are served strictly
    FIFO, which keeps all higher-level protocols deterministic.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of currently stored items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        if len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
            self._dispatch()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())
            while self._putters and len(self._items) < self.capacity:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()


class Channel:
    """A unidirectional message channel with per-message delivery latency.

    ``send`` is non-blocking for the sender (the message is committed
    immediately); delivery into the receiver-visible store happens after
    ``latency_fn(message)`` virtual seconds. With zero latency the channel
    degenerates to a plain Store.
    """

    __slots__ = ("sim", "name", "_latency_fn", "_store",
                 "sent_count", "delivered_count")

    def __init__(self, sim: Simulator,
                 latency_fn: Optional[Callable[[Any], float]] = None,
                 name: str = ""):
        self.sim = sim
        self.name = name
        self._latency_fn = latency_fn
        self._store = Store(sim)
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, message: Any) -> Event:
        """Enqueue ``message`` for delivery; returns the delivery event."""
        self.sent_count += 1
        delay = self._latency_fn(message) if self._latency_fn else 0.0
        if delay < 0:
            raise SimulationError("channel latency must be non-negative")
        if delay == 0.0:
            self.delivered_count += 1
            return self._store.put(message)
        done = Event(self.sim)
        _Delivery(self, message, delay, done)
        return done

    def recv(self) -> Event:
        """Event triggering with the next delivered message."""
        return self._store.get()

    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self._store)


class _Delivery(Event):
    """One delayed message in flight: a single kernel event, re-armed.

    Delivery fires the kernel events a generator process doing ``yield
    timeout(delay); yield store.put(msg); done.succeed()`` would, at the
    same instants, with the same priorities and in the same ``seq``
    order: an URGENT zero-delay bootstrap, the latency timeout (which puts
    the message), the put (which fires ``done``) and a trailing completion
    -- five events per message counting ``done``. The first four are this
    one object, scheduled again each time it fires. Its callbacks are
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
        sim._enqueue(self, 0.0, URGENT)


def _start(d: _Delivery) -> None:
    d.callbacks = _ARRIVE  # type: ignore[assignment]
    d.sim._enqueue(d, d.delay, NORMAL)


def _arrive(d: _Delivery) -> None:
    chan = d.chan
    chan.delivered_count += 1
    store = chan._store  # unbounded: the put is accepted at once
    store._items.append(d.msg)
    d.callbacks = _ACCEPTED  # type: ignore[assignment]
    d.sim._enqueue(d, 0.0, NORMAL)
    store._dispatch()


def _accepted(d: _Delivery) -> None:
    d.done.succeed()
    d.callbacks = ()  # type: ignore[assignment]
    d.sim._enqueue(d, 0.0, NORMAL)


_START = (_start,)
_ARRIVE = (_arrive,)
_ACCEPTED = (_accepted,)
