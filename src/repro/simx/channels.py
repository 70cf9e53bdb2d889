"""Message-passing primitives for simulated processes.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
event-returning ``put``/``get`` (the DES analogue of a queue). :class:`Channel`
wraps a Store with an optional per-message delivery delay, which the cluster
network layer uses to model link latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simx.core import (NORMAL, URGENT, Event, SimulationError,
                             Simulator, Timeout)

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


class _Delivery:
    """One delayed message in flight, driven by plain event callbacks.

    Delivery fires the kernel events a generator process doing ``yield
    timeout(delay); yield store.put(msg); done.succeed()`` would, at the
    same instants, with the same priorities and in the same ``seq``
    order: an URGENT zero-delay bootstrap that creates the latency
    :class:`~repro.simx.core.Timeout`, the timeout (which puts the
    message), the put event (which fires ``done``) and a trailing
    completion event -- five events per message, without the cost of a
    generator and a :class:`~repro.simx.core.Process` per message.
    """

    __slots__ = ("chan", "msg", "delay", "done")

    def __init__(self, chan: Channel, msg: Any, delay: float, done: Event):
        self.chan = chan
        self.msg = msg
        self.delay = delay
        self.done = done
        boot = Event(chan.sim)
        boot._value = None
        boot.callbacks.append(self._start)  # type: ignore[union-attr]
        chan.sim._enqueue(boot, 0.0, URGENT)

    def _start(self, _boot: Event) -> None:
        Timeout(self.chan.sim, self.delay).callbacks.append(  # type: ignore[union-attr]
            self._arrive)

    def _arrive(self, _timeout: Event) -> None:
        chan = self.chan
        chan.delivered_count += 1
        chan._store.put(self.msg).callbacks.append(  # type: ignore[union-attr]
            self._accepted)

    def _accepted(self, _put: Event) -> None:
        sim = self.chan.sim
        self.done.succeed()
        finished = Event(sim)
        finished._value = None
        sim._enqueue(finished, 0.0, NORMAL)
