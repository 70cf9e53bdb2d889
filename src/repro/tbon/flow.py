"""Credit-based flow control and reporting for persistent TBON streams.

One-shot wave reductions (the seed's data path) buffer without bound: a
router's inbox grows as fast as its children can send. A *sustained* data
plane cannot afford that -- a slow subscriber or a congested router must
push back on its producers instead of queueing forever. This module
provides the flow-control primitives the streaming plane is built from:

:class:`BoundedInbox`
    A credit-gated FIFO feeding one position's stream router. Senders
    acquire one credit (from a FIFO token pool of ``credit_limit``) before
    committing a packet; the router returns the credit when it dequeues
    the packet. At most ``credit_limit`` packets can therefore be queued
    or in flight toward the position at once -- the inbox depth is
    structurally bounded, and a stalled consumer propagates backpressure
    upstream hop by hop (router blocked forwarding -> stops dequeueing ->
    credits stop recycling -> children stall on acquire -> ... down to
    the publishing leaves).

:class:`FlowStats`
    Per-position accounting: inbox high-water mark, number of sends that
    had to wait for a credit, and the total virtual time spent waiting.
    Stats objects survive overlay repairs (the rebuilt plane keeps
    accumulating into them).

:class:`WaveTiming` / :class:`StreamReport`
    Per-wave latency attribution in the style of
    :class:`~repro.launch.LaunchReport`: every delivered wave decomposes
    **exactly** into ``t_fanin`` (first leaf publish until the last
    contribution reaches the root), ``t_filter`` (the root's merge
    processing) and ``t_deliver`` (delivery-queue wait until the
    subscriber picks it up) -- the three segments sum to the measured
    end-to-end wave latency by construction, so scaling loss in a stream
    is attributed to a phase, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.simx import Event, Simulator, Store

__all__ = ["BoundedInbox", "FlowStats", "StreamError", "StreamReport",
           "WaveTiming", "STREAM_PHASES"]

#: the per-wave phase fields of a stream report, in critical-path order
STREAM_PHASES = ("t_fanin", "t_filter", "t_deliver")


class StreamError(RuntimeError):
    """Stream protocol violation (duplicate contribution, misuse...)."""


@dataclass
class FlowStats:
    """Flow-control accounting for one position's stream inbox."""

    position: int
    credit_limit: int
    #: deepest the inbox queue ever got (never exceeds ``credit_limit``)
    high_water: int = 0
    #: sends that found no credit available and had to wait
    n_stalls: int = 0
    #: total virtual seconds senders spent waiting for a credit
    t_stalled: float = 0.0
    #: packets accepted into the inbox over the stream's lifetime
    n_packets: int = 0

    def as_dict(self) -> dict:
        return {"position": self.position,
                "credit_limit": self.credit_limit,
                "high_water": self.high_water,
                "n_stalls": self.n_stalls,
                "t_stalled": self.t_stalled,
                "n_packets": self.n_packets}


class BoundedInbox:
    """A credit-gated FIFO queue for one position of one stream.

    Protocol: a sender yields :meth:`acquire` (one credit; the
    backpressure point), optionally models its transfer delay, then calls
    :meth:`commit` (non-blocking -- the credit already reserved the
    slot). The consumer yields :meth:`get` and calls :meth:`release`
    for every dequeued packet, recycling the credit to the oldest waiting
    sender (FIFO-fair, so no child starves). :meth:`acquire` is the pair
    :meth:`request_credit` then :meth:`granted`; a sender that may stop
    waiting for another reason (a stream's repair epoch ending) calls
    the two itself.
    """

    def __init__(self, sim: Simulator, position: int, credit_limit: int,
                 stats: Optional[FlowStats] = None):
        if credit_limit < 1:
            raise StreamError(
                f"credit_limit must be >= 1, got {credit_limit}")
        self.sim = sim
        self.position = position
        self.credit_limit = credit_limit
        self.stats = stats or FlowStats(position, credit_limit)
        self._queue: Store = Store(sim)
        #: credits handed out and not yet returned (== packets queued or
        #: in flight); the invariant ``rebuild_gate`` restores from
        self._outstanding = 0
        self._credits: Store = Store(sim)
        for _ in range(credit_limit):
            self._credits.put(None)

    # -- sender side -------------------------------------------------------
    def acquire(self) -> Generator[Any, Any, None]:
        """Obtain one send credit (blocks while the inbox is saturated)."""
        t0 = self.sim.now
        yield self.request_credit()
        self.granted(t0)

    def request_credit(self) -> Event:
        """The event that grants one send credit; a send that finds none
        free counts as a stall."""
        ev = self._credits.get()
        if not ev.triggered:
            self.stats.n_stalls += 1
        return ev

    def granted(self, t0: float) -> None:
        """Record a send's wait for its credit since ``t0``, and the
        credit as outstanding until the consumer releases it."""
        self.stats.t_stalled += self.sim.now - t0
        self._outstanding += 1

    def commit(self, sender: int, item: Any) -> None:
        """Enqueue after a successful :meth:`acquire` (never blocks)."""
        # a packet handed straight to a waiting consumer still occupied
        # the queue for an instant: count it, so high_water reflects the
        # deepest momentary occupancy (bounded by the credit limit)
        depth = len(self._queue) + 1
        self._queue.put((sender, item))
        if depth > self.stats.high_water:
            self.stats.high_water = depth
        self.stats.n_packets += 1

    # -- consumer side ---------------------------------------------------------
    def get(self):
        """Event triggering with the oldest ``(sender, item)`` pair."""
        return self._queue.get()

    def release(self) -> None:
        """Return one credit (call once per dequeued packet)."""
        self._outstanding -= 1
        self._credits.put(None)

    def rebuild_gate(self) -> None:
        """Replace the credit gate, restoring the invariant after the
        consumer side was torn down mid-acquire.

        An interrupted consumer cannot un-register its pending credit
        getter, so a later released credit would be handed to the corpse
        and leak (deadlocking the queue once ``credit_limit`` repairs
        accumulate). Rebuilding abandons every stale getter with its
        store and refills exactly ``credit_limit - outstanding`` tokens
        -- outstanding credits stay attached to their queued/in-flight
        packets and return through :meth:`release` as usual.
        """
        self._credits = Store(self.sim)
        for _ in range(self.credit_limit - self._outstanding):
            self._credits.put(None)

    @property
    def depth(self) -> int:
        return len(self._queue)


@dataclass
class WaveTiming:
    """One wave's critical-path stamps (virtual seconds).

    The three phase spans partition the end-to-end latency exactly:
    ``t_fanin + t_filter + t_deliver == latency``.
    """

    wave: int
    #: first leaf publish for this wave
    t_published: float = 0.0
    #: last contribution of the wave arrived at the root router
    t_assembled: float = 0.0
    #: root filter finished merging the wave
    t_filtered: float = 0.0
    #: subscriber dequeued the merged wave
    t_delivered: float = 0.0
    #: contributions merged at the root (== live leaves... unless repaired)
    n_contributions: int = 0
    #: the wave crossed at least one overlay repair and was re-published
    republished: bool = False

    @property
    def delivered(self) -> bool:
        return self.t_delivered > 0.0

    @property
    def latency(self) -> float:
        return self.t_delivered - self.t_published

    def phases(self) -> dict:
        """Exact per-wave decomposition (sums to :attr:`latency`)."""
        return {"t_fanin": self.t_assembled - self.t_published,
                "t_filter": self.t_filtered - self.t_assembled,
                "t_deliver": self.t_delivered - self.t_filtered}

    def as_dict(self) -> dict:
        out = {"wave": self.wave, "latency": self.latency,
               "n_contributions": self.n_contributions,
               "republished": self.republished}
        out.update(self.phases())
        return out


@dataclass
class StreamReport:
    """One stream's lifetime accounting: waves, phases, flow control.

    The stream-plane sibling of :class:`~repro.launch.LaunchReport`:
    where a launch report attributes *startup* cost to phases, this
    attributes *sustained-traffic* cost -- per-wave latency decomposed
    into fanin/filter/deliver spans that sum exactly, plus the per-
    position flow-control counters (high-water, stalls) that say where
    backpressure bit.
    """

    stream_id: int
    filter_name: str
    n_leaves: int
    credit_limit: int
    window: int = 0
    t_open: float = 0.0
    t_close: float = 0.0
    #: leaf publish calls (re-publishes after a repair not included)
    n_published: int = 0
    #: merged waves handed to the subscriber
    n_delivered: int = 0
    #: overlay repairs the stream lived through
    n_repairs: int = 0
    #: unacked wave payloads re-injected by repairs
    n_republished: int = 0
    #: wave -> timing stamps
    waves: dict = field(default_factory=dict)
    #: position -> flow stats for its stream inbox (-1 = root delivery)
    flow: dict = field(default_factory=dict)

    # -- wave/latency queries ---------------------------------------------
    def delivered_waves(self) -> list:
        """Timings of every delivered wave, in wave order."""
        return [self.waves[w] for w in sorted(self.waves)
                if self.waves[w].delivered]

    def total_latency(self) -> float:
        """Sum of end-to-end latencies over all delivered waves."""
        return sum(wt.latency for wt in self.delivered_waves())

    def mean_latency(self) -> float:
        delivered = self.delivered_waves()
        return (sum(wt.latency for wt in delivered) / len(delivered)
                if delivered else 0.0)

    def phase_totals(self) -> dict:
        """Per-phase totals over delivered waves (sum == total_latency)."""
        totals = {name: 0.0 for name in STREAM_PHASES}
        for wt in self.delivered_waves():
            for name, span in wt.phases().items():
                totals[name] += span
        return totals

    def dominant_phase(self) -> str:
        """Costliest phase over the stream's life (loss attribution)."""
        totals = self.phase_totals()
        return max(STREAM_PHASES, key=lambda name: totals[name])

    def throughput(self) -> float:
        """Delivered waves per virtual second of active streaming."""
        delivered = self.delivered_waves()
        if len(delivered) < 2:
            return 0.0
        span = delivered[-1].t_delivered - delivered[0].t_published
        return len(delivered) / span if span > 0 else 0.0

    # -- flow-control queries ------------------------------------------------
    def max_inbox_depth(self) -> int:
        """Deepest any stream inbox got (credit limit is the ceiling)."""
        return max((s.high_water for s in self.flow.values()), default=0)

    def total_stalls(self) -> int:
        return sum(s.n_stalls for s in self.flow.values())

    def total_stall_time(self) -> float:
        return sum(s.t_stalled for s in self.flow.values())

    def as_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "filter": self.filter_name,
            "n_leaves": self.n_leaves,
            "credit_limit": self.credit_limit,
            "window": self.window,
            "n_published": self.n_published,
            "n_delivered": self.n_delivered,
            "n_repairs": self.n_repairs,
            "n_republished": self.n_republished,
            "throughput": self.throughput(),
            "mean_latency": self.mean_latency(),
            "total_latency": self.total_latency(),
            "phase_totals": self.phase_totals(),
            "dominant_phase": self.dominant_phase(),
            "max_inbox_depth": self.max_inbox_depth(),
            "n_stalls": self.total_stalls(),
            "t_stalled": self.total_stall_time(),
            "flow": {pos: s.as_dict()
                     for pos, s in sorted(self.flow.items())},
            "waves": [wt.as_dict() for wt in self.delivered_waves()],
        }
