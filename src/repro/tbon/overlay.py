"""The live overlay: per-position endpoints, routing, filtered reduction.

Structure: every position owns one upstream inbox (a Store its children
send into through latency-modelled channels) and one downstream channel per
child. Internal positions run a router process that

* collects one packet per child (+ its own contribution slot) for each
  ``(stream, wave)``, applies the stream's filter, and forwards the merged
  packet upward;
* fans every downstream packet out to all children.

The root's merged packets land in a delivery store the front-end endpoint
reads. All payloads are JSON-able; sizes drive simulated transfer times.

Persistent streams (the data plane)
-----------------------------------
One-shot wave reductions are how a tool takes a *snapshot*; continuous
tools (samplers, monitors -- the sustained workload the MW/TBON layer of
Section 3.4 exists to carry) need *streams*: :meth:`Overlay.open_stream`
turns a :class:`StreamSpec` with a ``credit_limit`` into a :class:`Stream`
-- a multi-wave pipeline with its own routing plane in which

* every internal position applies a **stateful**
  :class:`~repro.tbon.filters.Filter` (``reduce(payloads, state)``), so
  each level holds a live windowed view of its subtree;
* every hop is **credit-gated** (:class:`~repro.tbon.flow.BoundedInbox`):
  inbox depth never exceeds the credit limit and a slow consumer
  backpressures publishers instead of queueing unboundedly;
* every delivered wave is **attributed**
  (:class:`~repro.tbon.flow.StreamReport`): fanin/filter/deliver spans
  that sum exactly to the measured wave latency, plus per-position
  high-water/stall counters.

Self-repair
-----------
A TBON whose internal node dies loses the whole subtree below it -- unless
the tree repairs itself. :meth:`Overlay.repair` implements the recovery
structure: positions placed on failed nodes are marked dead, every orphaned
live position reconnects to its **nearest live ancestor** (walking the old
parent chain upward; the root -- the tool front end -- is live by
definition), the routing plane restarts over the repaired shape, and the
cost (parallel TCP reconnects) is returned in a :class:`RepairReport` so
callers can land it in a :class:`~repro.launch.LaunchReport`'s ``t_repair``
phase. Waves in flight during a repair are dropped for the *one-shot*
plane -- exactly like a real TBON, the tool re-issues its outstanding
snapshot wave after a repair. Persistent streams are stronger: every leaf
keeps its published-but-undelivered payloads until the root banks the
merged wave, so a repair re-credits and re-publishes the in-flight waves
of every surviving leaf -- delivered exactly once, with the filter window
state carried across the repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Generator, Optional

from repro.simx import Channel, Simulator, Store
from repro.cluster import Node
from repro.cluster.network import Network
from repro.tbon.filters import get_filter, make_filter
from repro.tbon.flow import (
    BoundedInbox,
    FlowStats,
    StreamError,
    StreamReport,
    WaveTiming,
)
from repro.tbon.packets import Packet
from repro.tbon.topology import TBONTopology

__all__ = ["DEFAULT_CREDIT_LIMIT", "Overlay", "OverlayEndpoint",
           "RepairReport", "Stream", "StreamSpec"]

#: credit limit used when a persistent stream is opened from a legacy spec
DEFAULT_CREDIT_LIMIT = 4


@dataclass(frozen=True)
class StreamSpec:
    """One logical stream: id, filter, and (for persistent streams) flow.

    The seed's one-shot wave reductions use only ``stream_id`` +
    ``filter_name``. A spec handed to :meth:`Overlay.open_stream`
    additionally carries the data-plane knobs: ``credit_limit`` bounds
    every per-position inbox (and is the backpressure window),
    ``window`` is the stateful filter's wave window (0 = unbounded), and
    ``filter_params`` are extra filter-constructor arguments as a tuple
    of ``(key, value)`` pairs (kept hashable so specs stay frozen).
    """

    stream_id: int
    filter_name: str = "concat"
    credit_limit: int = 0
    window: int = 0
    filter_params: tuple = ()


@dataclass
class RepairReport:
    """What one :meth:`Overlay.repair` pass did, and what it cost."""

    #: positions newly found dead in this pass
    n_dead: int = 0
    #: live positions that had to reconnect to a new parent
    n_reparented: int = 0
    #: virtual seconds the repair took (parallel reconnects + restart)
    t_repair: float = 0.0
    #: position -> its new (nearest-live-ancestor) parent position
    reparented: dict = field(default_factory=dict)
    #: live internal positions retired because every descendant died --
    #: left in place, their parent's router would wait forever for a
    #: contribution that can never come
    pruned: list = field(default_factory=list)
    #: every position out of the tree after this pass (cumulative;
    #: includes pruned positions)
    dead: list = field(default_factory=list)
    #: persistent streams whose plane was rebuilt by this pass
    n_streams_repaired: int = 0
    #: in-flight wave payloads re-published (across all streams)
    n_waves_republished: int = 0


class OverlayEndpoint:
    """One position's handle on the overlay."""

    def __init__(self, overlay: "Overlay", position: int):
        self.overlay = overlay
        self.position = position

    # -- leaf/BE operations ------------------------------------------------
    def send_wave(self, stream_id: int, wave: int, payload: Any,
                  ) -> Generator[Any, Any, None]:
        """Contribute this leaf's payload for one reduction wave."""
        pkt = Packet(stream_id, wave, payload, "up")
        yield self.overlay._up_channel(self.position).send(
            (self.position, pkt))

    def recv_broadcast(self) -> Generator[Any, Any, Packet]:
        """Wait for the next downstream packet at this position."""
        pkt = yield self.overlay._down_store(self.position).get()
        return pkt

    # -- root/FE operations ---------------------------------------------------
    def broadcast(self, stream_id: int, wave: int, payload: Any,
                  ) -> Generator[Any, Any, None]:
        """Root: push a packet down the whole tree."""
        if self.position != 0:
            raise RuntimeError("broadcast only at the root position")
        pkt = Packet(stream_id, wave, payload, "down")
        yield from self.overlay._fan_down(0, pkt)

    def collect_wave(self) -> Generator[Any, Any, Packet]:
        """Root: wait for the next fully reduced upstream packet."""
        if self.position != 0:
            raise RuntimeError("collect_wave only at the root position")
        pkt = yield self.overlay.root_delivery.get()
        return pkt


class Overlay:
    """A placed, connected TBON instance (with self-repair)."""

    def __init__(self, sim: Simulator, network: Network,
                 topology: TBONTopology, placement: dict[int, Node],
                 streams: dict[int, StreamSpec]):
        self.sim = sim
        self.network = network
        self.topology = topology
        self.placement = dict(placement)
        self.streams = dict(streams)
        self.root_delivery: Store = Store(sim)
        self._up_channels: dict[int, Channel] = {}
        self._down_stores: dict[int, Store] = {}
        self._inboxes: dict[int, Store] = {}
        self._routers_started = False
        #: the *effective* tree: position -> parent, rewritten by repair()
        self._parent: dict[int, Optional[int]] = {
            p: topology.parent[p] for p in range(topology.size)}
        #: positions whose node has died (never contains the root)
        self._dead: set[int] = set()
        #: lazy position -> live children index (invalidated by repair)
        self._children_cache: Optional[list[list[int]]] = None
        #: live router/pump processes, interrupted on repair
        self._plane_procs: list = []
        #: every repair pass performed, in order
        self.repairs: list[RepairReport] = []
        #: persistent streams by id (see :meth:`open_stream`)
        self._streams: dict[int, Stream] = {}
        #: diagnostics
        self.packets_routed = 0

    # -- effective structure ---------------------------------------------------
    def parent_of(self, pos: int) -> Optional[int]:
        """Effective parent of ``pos`` (None for the root)."""
        return self._parent[pos]

    def children_of(self, pos: int) -> list[int]:
        """Live effective children of ``pos``."""
        cache = self._children_cache
        if cache is None:
            # one O(size) pass instead of O(size) *per call*: router
            # startup alone asks for every position's children, which made
            # large overlays quadratic. Rebuilt after any repair mutation.
            cache = [[] for _ in range(self.topology.size)]
            dead = self._dead
            parent = self._parent
            for q in range(1, self.topology.size):
                if q not in dead:
                    par = parent[q]
                    if par is not None:
                        cache[par].append(q)
            self._children_cache = cache
        return list(cache[pos])

    def live_positions(self) -> list[int]:
        """Positions whose node is still up (root included)."""
        return [p for p in range(self.topology.size) if p not in self._dead]

    def live_backends(self) -> list[int]:
        """BE positions still up -- the leaves repair must preserve.

        Excludes aggregate positions; hot paths that mean "every leaf"
        should use :meth:`live_leaves` instead."""
        return [p for p in self.topology.backends()  # simlint: allow[agg-leaves]
                if p not in self._dead]

    def live_leaves(self) -> list[int]:
        """All live leaf positions -- simulated BEs and aggregate nodes."""
        return [p for p in self.topology.leaves() if p not in self._dead]

    def live_virtual_leaf_count(self) -> int:
        """Live leaves with aggregates expanded to the daemons they model."""
        topo = self.topology
        return sum(topo.leaf_weight(p) for p in topo.leaves()
                   if p not in self._dead)

    def dead_positions(self) -> list[int]:
        return sorted(self._dead)

    # -- plumbing ------------------------------------------------------------
    def _up_channel(self, child_pos: int) -> Channel:
        """The latency channel from ``child_pos`` up to its parent's inbox."""
        parent = self._parent[child_pos]
        key = child_pos
        if key not in self._up_channels:
            self._up_channels[key] = Channel(
                self.sim, lambda m: self.network.transfer_time(m),
                name=f"up:{child_pos}->{parent}")
        return self._up_channels[key]

    def _down_store(self, pos: int) -> Store:
        if pos not in self._down_stores:
            self._down_stores[pos] = Store(self.sim)
        return self._down_stores[pos]

    def _fan_down(self, pos: int, pkt: Packet) -> Generator[Any, Any, None]:
        size = pkt.wire_size()
        for child in self.children_of(pos):
            delay = self.network.transfer_time(pkt, size=size)
            yield self.sim.timeout(delay)
            yield self._down_store(child).put(pkt)
            self.packets_routed += 1

    def endpoint(self, position: int) -> OverlayEndpoint:
        return OverlayEndpoint(self, position)

    # -- persistent streams ----------------------------------------------------
    def open_stream(self, spec: StreamSpec) -> "Stream":
        """Open (or re-obtain) a persistent, flow-controlled stream.

        Idempotent per ``stream_id``: daemons and the front end can each
        call this for the same spec and share one stream -- a second open
        with a *different* spec raises. A spec without a ``credit_limit``
        gets :data:`DEFAULT_CREDIT_LIMIT`. Stream ids live in their own
        namespace and must not collide with the overlay's one-shot wave
        streams (``self.streams``).
        """
        if spec.credit_limit < 1:
            spec = replace(spec, credit_limit=DEFAULT_CREDIT_LIMIT)
        existing = self._streams.get(spec.stream_id)
        if existing is not None:
            if existing.spec != spec:
                raise StreamError(
                    f"stream {spec.stream_id} already open with "
                    f"{existing.spec}, cannot reopen as {spec}")
            return existing
        if spec.stream_id in self.streams:
            raise StreamError(
                f"stream id {spec.stream_id} is a one-shot wave stream "
                f"of this overlay; pick an unused id")
        stream = Stream(self, spec)
        self._streams[spec.stream_id] = stream
        return stream

    def stream(self, stream_id: int) -> "Stream":
        """The open persistent stream with this id (KeyError if none)."""
        return self._streams[stream_id]

    def open_streams(self) -> list["Stream"]:
        return [self._streams[s] for s in sorted(self._streams)]

    def next_stream_id(self) -> int:
        """The next id free in both stream namespaces (one-shot wave
        streams and persistent streams) -- the single allocation point
        for callers that do not care about the id itself."""
        used = set(self.streams) | set(self._streams)
        return max(used, default=0) + 1

    # -- routers ---------------------------------------------------------------
    def start_routers(self) -> None:
        """Start one router process per live internal position (root
        included); routers are registered as residents of their node, so a
        node crash kills its routing processes with it."""
        if self._routers_started:
            return
        self._routers_started = True
        for pos in range(self.topology.size):
            if pos in self._dead:
                continue
            if self.children_of(pos):
                self._start_plane_proc(
                    pos, self._route_up(pos), f"tbon-router:{pos}")
                if pos != 0:
                    self._start_plane_proc(
                        pos, self._route_down(pos), f"tbon-fwd:{pos}")

    def _start_plane_proc(self, pos: int, gen, name: str) -> None:
        proc = self.sim.process(gen, name=name)
        self._plane_procs.append(proc)
        node = self.placement.get(pos)
        if node is not None:
            node.register_body(proc)

    def _inbox(self, pos: int) -> Store:
        """The upstream inbox shared by all children of ``pos``.

        One child's channel delivers into its own store; unify by draining
        each child channel into a per-position store via pump processes.
        """
        if pos not in self._inboxes:
            inbox = Store(self.sim)
            self._inboxes[pos] = inbox
            for child in self.children_of(pos):
                chan = self._up_channel(child)

                def pump(chan=chan, inbox=inbox):
                    while True:
                        item = yield chan.recv()
                        yield inbox.put(item)

                self._start_plane_proc(pos, pump(), f"tbon-pump:{pos}")
        return self._inboxes[pos]

    def _route_up(self, pos: int):
        """Collect per-(stream, wave) child contributions; filter; forward."""
        children = self.children_of(pos)
        expected = len(children)
        contrib = self.topology.contrib_weight
        buffers: dict[tuple[int, int], list] = {}
        weights: dict[tuple[int, int], int] = {}
        inbox = self._inbox(pos)
        while True:
            sender, pkt = yield inbox.get()
            self.packets_routed += 1
            key = (pkt.stream_id, pkt.wave)
            buffers.setdefault(key, []).append(pkt.payload)
            weights[key] = weights.get(key, 0) + contrib(sender)
            if len(buffers[key]) < expected:
                continue
            payloads = buffers.pop(key)
            wsum = weights.pop(key)
            spec = self.streams.get(pkt.stream_id)
            fn = get_filter(spec.filter_name if spec else "concat")
            # per-payload merge processing at this position, weighted by
            # the physical messages each contribution stands in for (an
            # aggregate child counts as its whole collapsed fan-in; every
            # simulated child weighs 1, so non-hybrid trees charge the
            # bit-identical max(1, len(payloads)) they always did)
            yield self.sim.timeout(
                self.network.costs.msg_overhead * max(1, wsum))
            merged = fn(payloads)
            out = Packet(pkt.stream_id, pkt.wave, merged, "up")
            if pos == 0:
                yield self.root_delivery.put(out)
            else:
                yield self._up_channel(pos).send((pos, out))

    def _route_down(self, pos: int):
        """Forward downstream packets from the parent to all children."""
        while True:
            pkt = yield self._down_store(pos).get()
            yield from self._fan_down(pos, pkt)

    # -- self-repair ------------------------------------------------------------
    def repair(self) -> Generator[Any, Any, RepairReport]:
        """Reparent orphaned subtrees around dead nodes; returns the cost.

        Scans the placement for positions whose node has failed, marks them
        dead, and reconnects every orphaned *live* position to its nearest
        live ancestor (all reconnects in parallel -- each pays one TCP
        connect between the actual nodes). The routing plane is then
        restarted over the repaired tree. Wave state buffered in routers is
        dropped (re-issue outstanding waves after a repair). A pass that
        finds nothing newly dead costs nothing and changes nothing.

        Fold ``RepairReport.t_repair`` into the owning launch/startup
        report's ``t_repair`` phase to keep the attribution story whole.
        """
        sim = self.sim
        t0 = sim.now
        newly_dead = sorted(
            p for p in range(1, self.topology.size)
            if p not in self._dead
            and self.placement.get(p) is not None
            and self.placement[p].failed)
        if not newly_dead:
            return RepairReport(dead=self.dead_positions())
        self._dead.update(newly_dead)
        self._children_cache = None

        # tear down the old routing plane (dead routers are already gone --
        # their node's fail() interrupted them)
        for proc in self._plane_procs:
            if proc.is_alive:
                proc.defuse()
                proc.interrupt("tbon repair")
        self._plane_procs.clear()
        self._up_channels.clear()
        self._down_stores.clear()
        self._inboxes.clear()

        # orphans reparent to the nearest live ancestor along the old chain
        reparented: dict[int, int] = {}
        for pos in range(1, self.topology.size):
            if pos in self._dead:
                continue
            parent = self._parent[pos]
            if parent in self._dead:
                ancestor = parent
                while ancestor in self._dead:
                    ancestor = self._parent[ancestor]
                reparented[pos] = ancestor

        def reconnect(pos: int, ancestor: int):
            yield from self.network.connect(self.placement[pos],
                                            self.placement[ancestor])

        workers = [sim.process(reconnect(pos, anc), name=f"tbon-repair:{pos}")
                   for pos, anc in sorted(reparented.items())]
        if workers:
            yield sim.all_of(workers)
        for pos, anc in reparented.items():
            self._parent[pos] = anc
        self._children_cache = None

        # prune live internal positions stranded with no live children
        # (all their leaves died): they can never contribute to a wave,
        # so keeping them as silent children would hang their parent's
        # router. Iterate to a fixpoint -- pruning one comm can strand
        # the comm above it.
        pruned: list = []
        changed = True
        while changed:
            changed = False
            for pos in range(1, self.topology.size):
                if pos in self._dead:
                    continue
                if (self.topology.kind[pos] not in ("be", "agg")
                        and not self.children_of(pos)):
                    self._dead.add(pos)
                    self._children_cache = None
                    pruned.append(pos)
                    changed = True

        self._routers_started = False
        self.start_routers()

        # persistent streams survive the repair: rebuild each stream's
        # routing plane over the repaired tree, reset its credit pools,
        # and re-publish every surviving leaf's in-flight (published but
        # not root-banked) waves -- delivered exactly once, never lost
        n_republished = 0
        live_streams = self.open_streams()
        for stream in live_streams:
            n_republished += stream._on_repair()

        report = RepairReport(
            n_dead=len(newly_dead), n_reparented=len(reparented),
            t_repair=sim.now - t0, reparented=reparented,
            pruned=sorted(pruned), dead=self.dead_positions(),
            n_streams_repaired=len(live_streams),
            n_waves_republished=n_republished)
        self.repairs.append(report)
        return report


class Stream:
    """One persistent, credit-flow-controlled, stateful-filtered stream.

    Obtained from :meth:`Overlay.open_stream`. The stream owns its own
    routing plane (one router process per live internal position, each
    fed by a :class:`~repro.tbon.flow.BoundedInbox`), its per-position
    filter state (:attr:`states`), and its delivery queue at the root.

    Leaf side (tool daemons)::

        yield from stream.publish(my_position, wave, payload)

    Root side (the front end)::

        pkt = yield from stream.next_wave()   # merged wave, in order

    Exactly-once across repairs: a published payload is retained by the
    stream until the merged wave is *banked* into the root delivery queue
    (which survives repairs -- the root is the tool front end). A repair
    rebuilds the plane and re-publishes every surviving leaf's unbanked
    payloads; partial router buffers died with the old plane, so nothing
    is duplicated, and banked waves are never re-sent.
    """

    def __init__(self, overlay: Overlay, spec: StreamSpec):
        self.overlay = overlay
        self.spec = spec
        self.sim = overlay.sim
        self.filter = make_filter(spec.filter_name, window=spec.window,
                                  **dict(spec.filter_params))
        #: per-position filter state (survives repairs for live positions)
        self.states: dict[int, Any] = {}
        self.report = StreamReport(
            stream_id=spec.stream_id, filter_name=spec.filter_name,
            n_leaves=overlay.live_virtual_leaf_count(),
            credit_limit=spec.credit_limit, window=spec.window,
            t_open=self.sim.now)
        self.closed = False
        #: leaf position -> {wave: payload} published but not yet banked
        self._unacked: dict[int, dict[int, Any]] = {}
        #: position -> waves already folded into its filter state, so a
        #: wave re-delivered after a repair merges again but never
        #: double-counts the windowed aggregates (pruned on bank)
        self._folded: dict[int, set] = {}
        #: internal position -> its credit-gated stream inbox (per epoch)
        self._inboxes: dict[int, BoundedInbox] = {}
        #: local wave taps: position -> Store of merged wave payloads
        self._taps: dict[int, Store] = {}
        #: the root delivery queue -- persists across repairs
        self._delivery = BoundedInbox(
            self.sim, -1, spec.credit_limit,
            stats=self.report.flow.setdefault(
                -1, FlowStats(-1, spec.credit_limit)))
        self._procs: list = []
        #: bumped on every repair/close; invalidates in-flight sends
        self._epoch = 0
        self._epoch_ev = self.sim.event()
        self._start_plane()

    # -- plane ------------------------------------------------------------
    def _start_plane(self) -> None:
        sid = self.spec.stream_id
        for pos in self.overlay.live_positions():
            if not self.overlay.children_of(pos):
                continue
            stats = self.report.flow.setdefault(
                pos, FlowStats(pos, self.spec.credit_limit))
            self._inboxes[pos] = BoundedInbox(
                self.sim, pos, self.spec.credit_limit, stats=stats)
        for pos in sorted(self._inboxes):
            proc = self.sim.process(self._router(pos),
                                    name=f"stream{sid}-router:{pos}")
            self._procs.append(proc)
            node = self.overlay.placement.get(pos)
            if node is not None:
                node.register_body(proc)

    def _router(self, pos: int):
        """Per-position stream router: assemble, filter, forward/bank."""
        sim = self.sim
        inbox = self._inboxes[pos]
        expected = len(self.overlay.children_of(pos))
        contrib = self.overlay.topology.contrib_weight
        costs = self.overlay.network.costs
        buffers: dict[int, list] = {}
        weights: dict[int, int] = {}
        seen: dict[int, set] = {}
        if pos not in self.states:
            self.states[pos] = self.filter.initial_state()
        while True:
            sender, pkt = yield inbox.get()
            inbox.release()
            contributors = seen.setdefault(pkt.wave, set())
            if sender in contributors:
                raise StreamError(
                    f"stream {self.spec.stream_id}: duplicate wave "
                    f"{pkt.wave} contribution from position {sender} "
                    f"at position {pos}")
            contributors.add(sender)
            buffers.setdefault(pkt.wave, []).append(pkt.payload)
            weights[pkt.wave] = weights.get(pkt.wave, 0) + contrib(sender)
            if len(buffers[pkt.wave]) < expected:
                continue
            payloads = buffers.pop(pkt.wave)
            wsum = weights.pop(pkt.wave)
            seen.pop(pkt.wave)
            wt = self.report.waves.get(pkt.wave)
            if pos == 0 and wt is not None:
                wt.t_assembled = sim.now
                wt.n_contributions = wsum
            # per-payload merge processing at this position, weighted by
            # the physical fan-in each contribution models (1 for every
            # simulated child, so non-hybrid charges are bit-identical)
            yield sim.timeout(costs.msg_overhead * max(1, wsum))
            if wsum > len(payloads):
                # virtual feeding serialization: the collapsed children an
                # aggregate stands in for would each have committed through
                # this credit gate; charge the commits the hybrid tree
                # skipped. Unjittered and off the Network counters so the
                # simulated plane's RNG stream and message accounting are
                # untouched.
                k = max(1, self.spec.credit_limit)
                extra = (-(-wsum // k)) - (-(-len(payloads) // k))
                if extra > 0:
                    yield sim.timeout(
                        extra * costs.transfer_time(pkt.wire_size()))
            folded = self._folded.setdefault(pos, set())
            if pkt.wave in folded:
                # a repair re-delivered a wave this position already
                # folded into its state: merge again (the payload must
                # still flow upward) but leave the windowed aggregates
                # alone -- history is never double-counted
                merged, _scratch = self.filter.reduce(
                    payloads, self.filter.initial_state())
            else:
                merged, self.states[pos] = self.filter.reduce(
                    payloads, self.states[pos])
                folded.add(pkt.wave)
            tap = self._taps.get(pos)
            if tap is not None:
                tap.put((pkt.wave, merged))
            out = Packet(self.spec.stream_id, pkt.wave, merged, "up")
            if pos == 0:
                if wt is not None:
                    wt.t_filtered = sim.now
                yield from self._bank(out)
            else:
                yield from self._forward_up(pos, out)

    def _forward_up(self, pos: int, pkt: Packet):
        """Send a merged wave one hop up (router side; credit-gated)."""
        parent = self.overlay._parent[pos]
        inbox = self._inboxes[parent]
        yield from inbox.acquire()
        yield self.sim.timeout(self.overlay.network.transfer_time(
            pkt, size=pkt.wire_size()))
        inbox.commit(pos, pkt)

    def _bank(self, pkt: Packet):
        """Root: commit a merged wave to the delivery queue + ack leaves.

        Once banked, the wave survives repairs (the delivery queue lives
        at the front end); the commit and the ack are a single atomic
        step (no yield between them), so a repair can never observe a
        banked-but-unacked wave and re-publish a duplicate.
        """
        yield from self._delivery.acquire()
        self._delivery.commit(0, pkt)
        self._ack_wave(pkt.wave)

    # -- leaf side ---------------------------------------------------------
    def publish(self, position: int, wave: int, payload: Any,
                ) -> Generator[Any, Any, None]:
        """Contribute ``payload`` as leaf ``position``'s wave ``wave``.

        Blocks (credit-based backpressure) while the parent's stream
        inbox is saturated. The payload is retained until the root banks
        the merged wave, so a repair mid-flight re-publishes it instead
        of losing it.
        """
        if self.closed:
            raise StreamError(
                f"stream {self.spec.stream_id} is closed")
        if self.overlay.topology.kind[position] not in ("be", "agg"):
            raise StreamError(
                f"publish only at BE leaves and aggregates, not position "
                f"{position} ({self.overlay.topology.kind[position]})")
        if position in self.overlay._dead:
            raise StreamError(
                f"leaf position {position} is dead")
        pending = self._unacked.setdefault(position, {})
        if wave in pending:
            raise StreamError(
                f"leaf {position} already published wave {wave}")
        pending[wave] = payload
        self.report.waves.setdefault(
            wave, WaveTiming(wave, t_published=self.sim.now))
        self.report.n_published += 1
        yield from self._send_from(position, wave, payload)

    def _send_from(self, position: int, wave: int, payload: Any,
                   epoch: Optional[int] = None):
        """One leaf contribution's hop into its parent's stream inbox.

        Epoch-guarded: the send belongs to ``epoch`` (the current one if
        None); if a repair lands before the commit -- or already did, for
        a re-publisher spawned by an older repair -- the send is
        abandoned, because the newest repair's re-publication pass owns
        every unbanked wave from then on.
        """
        if epoch is None:
            epoch = self._epoch
        if self._epoch != epoch:
            return
        parent = self.overlay._parent[position]
        inbox = self._inboxes.get(parent)
        if inbox is None:  # parent plane gone (all leaves dead / closed)
            return
        pkt = Packet(self.spec.stream_id, wave, payload, "up")
        t0 = self.sim.now
        ev = inbox.credit_event()
        if not ev.triggered:
            inbox.note_stall_started()
        yield self.sim.any_of([ev, self._epoch_ev])
        inbox.note_stall_ended(t0)
        if self._epoch != epoch:
            return
        inbox.note_acquired()
        yield self.sim.timeout(self.overlay.network.transfer_time(
            pkt, size=pkt.wire_size()))
        if self._epoch != epoch:
            return
        inbox.commit(position, pkt)

    # -- root side -----------------------------------------------------------
    def next_wave(self) -> Generator[Any, Any, Packet]:
        """Front end: wait for the next merged wave.

        Waves bank in assembly order: with well-behaved publishers that
        is wave order, but across an :meth:`Overlay.repair` a re-
        published older wave can assemble after a newer one -- consumers
        that need strict ordering should key on ``pkt.wave``, not on
        arrival order (``StreamReport.delivered_waves`` already does).
        """
        sender, pkt = yield self._delivery.get()
        self._delivery.release()
        wt = self.report.waves.get(pkt.wave)
        if wt is not None:
            wt.t_delivered = self.sim.now
        self.report.n_delivered += 1
        return pkt

    def subscribe(self, position: int = 0) -> Store:
        """A local tap on the merged waves passing ``position``.

        Every wave the position's router merges is copied (zero cost)
        into the returned store as ``(wave, merged_payload)`` -- how a
        middleware daemon observes its subtree's stream without joining
        the reduction. Taps survive repairs while the position lives.

        Aggregate positions cannot be tapped: they have no router to
        observe. De-aggregate the subtree first (rebuild the hybrid
        topology from a plan whose special set names the tapped leaf --
        see :func:`repro.simx.aggregate.auto_expand`).
        """
        if self.overlay.topology.kind[position] == "agg":
            raise StreamError(
                f"cannot tap aggregate position {position}: rebuild the "
                f"plan with this leaf marked special (auto_expand) so the "
                f"subtree is simulated exactly")
        if position not in self._taps:
            self._taps[position] = Store(self.sim)
        return self._taps[position]

    def state_at(self, position: int) -> Any:
        """Position's live filter state (running windowed aggregates)."""
        return self.states.get(position)

    # -- repair/teardown --------------------------------------------------------
    def _on_repair(self) -> int:
        """Rebuild the stream plane after an overlay repair.

        Returns the number of re-published wave payloads. Filter states
        of live positions are preserved (the window rides through the
        repair); credit pools are reset (in-flight credits died with the
        old plane); every surviving leaf's unbanked waves are re-sent.
        """
        if self.closed:
            return 0
        self.report.n_repairs += 1
        self._teardown_plane()
        dead = self.overlay._dead
        for registry in (self._unacked, self.states, self._taps,
                         self._folded):
            for pos in list(registry):
                if pos in dead:
                    del registry[pos]
        self._start_plane()
        sid = self.spec.stream_id
        epoch = self._epoch
        n = 0
        for pos in sorted(self._unacked):
            backlog = [(w, self._unacked[pos][w])
                       for w in sorted(self._unacked[pos])]
            for wave, _payload in backlog:
                wt = self.report.waves.get(wave)
                if wt is not None:
                    wt.republished = True
            # one sequential re-publisher per leaf, so a leaf's waves
            # re-enter its edge in order (parallel re-sends could let
            # transfer jitter reorder them); pinned to THIS epoch and
            # tracked with the plane, so a later repair both abandons
            # its sends and interrupts it -- its backlog then belongs
            # to that repair's own re-publication pass
            proc = self.sim.process(
                self._republish(backlog, pos, epoch),
                name=f"stream{sid}-repub:{pos}")
            self._procs.append(proc)
            node = self.overlay.placement.get(pos)
            if node is not None:
                node.register_body(proc)
            n += len(backlog)
        self.report.n_republished += n
        return n

    def _republish(self, backlog: list, position: int, epoch: int):
        for wave, payload in backlog:
            if self._epoch != epoch:
                return
            yield from self._send_from(position, wave, payload, epoch)

    def _teardown_plane(self) -> None:
        for proc in self._procs:
            if proc.is_alive:
                proc.defuse()
                proc.interrupt("stream repair")
        self._procs.clear()
        self._inboxes.clear()
        # the delivery queue itself persists (banked waves survive), but
        # its credit gate must be rebuilt: the dead root router may have
        # been waiting on it, and its stranded getter would silently eat
        # the next released credit -- one leak per repair would starve
        # the stream
        self._delivery.rebuild_gate()
        self._epoch += 1
        old_ev, self._epoch_ev = self._epoch_ev, self.sim.event()
        old_ev.succeed()

    def close(self) -> StreamReport:
        """Retire the stream's plane; returns the final report."""
        if not self.closed:
            self.closed = True
            self._teardown_plane()
            self.overlay._streams.pop(self.spec.stream_id, None)
            self.report.t_close = self.sim.now
        return self.report

    def _ack_wave(self, wave: int) -> None:
        for pending in self._unacked.values():
            pending.pop(wave, None)
        # a banked wave can never be re-delivered, so its fold markers
        # are no longer needed (keeps the sets bounded on long streams)
        for folded in self._folded.values():
            folded.discard(wave)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Stream {self.spec.stream_id} "
                f"filter={self.spec.filter_name} "
                f"credits={self.spec.credit_limit} "
                f"delivered={self.report.n_delivered}>")
