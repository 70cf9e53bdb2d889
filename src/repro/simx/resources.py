"""Counted FIFO resources (e.g. a node's process-table slots or cores)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.simx.core import Event, SimulationError, Simulator

__all__ = ["Resource"]


class Resource:
    """A resource with integer capacity and strictly FIFO grant order.

    ``request()`` returns an event that triggers when a slot is granted;
    ``release()`` frees one slot. ``try_request()`` is the non-blocking
    variant used to model hard failures (e.g. ``fork`` returning ``EAGAIN``
    when a node's process table is full) instead of queueing.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if not capacity >= 1:  # NaN too: no request could ever be granted
            raise SimulationError(
                f"Resource capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: high-water mark of concurrent holders, for diagnostics
        self.max_in_use = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def pending(self) -> int:
        """Number of requests still waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Blocking acquire: event triggers when a slot becomes free."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending ``request()`` (e.g. the requester was
        interrupted while waiting).

        If the request is still queued it is removed; if it was already
        granted, the slot is released back -- either way the resource's
        accounting stays balanced even though the requester never proceeds.
        """
        try:
            self._waiters.remove(ev)
            return
        except ValueError:
            pass
        if ev.triggered:  # granted before (or while) the cancel arrived
            self.release()

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource in place (e.g. a service ``reload``).

        Growing grants queued waiters immediately, in FIFO order.
        Shrinking never revokes slots already held: ``in_use`` may exceed
        the new capacity until holders release, at which point the lower
        cap binds (no new grants until usage falls below it).
        """
        if not capacity >= 1:  # NaN too: no request could ever be granted
            raise SimulationError(
                f"Resource capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        while self._waiters and self._in_use < self.capacity:
            self._grant(self._waiters.popleft())

    def try_request(self) -> bool:
        """Non-blocking acquire. True on success, False if at capacity."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.max_in_use = max(self.max_in_use, self._in_use)
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.max_in_use = max(self.max_in_use, self._in_use)
        ev.succeed(self)
