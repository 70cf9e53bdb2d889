"""ICCL: the Internal Collective Communication Layer.

The ICCL maps a small set of collective calls -- barrier, broadcast,
gather, scatter -- onto the native communication subsystem the RM wires up
at daemon-launch time (Section 3.3). It is the only layer with significant
platform dependencies in real LaunchMON; here the platform is the simulated
fabric, and two topologies are provided:

* ``flat`` -- every daemon is a direct child of the master (rank 0); root
  processing is linear in daemon count;
* ``binomial`` -- the classic binomial spanning tree; logarithmic depth.

Root-side per-record processing (``per_rec_cost``) models the RM fabric's
service overhead for relaying daemon records; it is what makes the paper's
T(collective) grow linearly with daemon count.

All collectives are rooted at rank 0 (LaunchMON's master back-end daemon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from repro.simx import SeededRNG, Simulator, Store
from repro.cluster.costs import CostModel
from repro.cluster.network import (SEQ_FRAMING, Network, PipeEnd, Sized,
                                   message_size)
from repro.cluster.node import Node

__all__ = ["ICCLEndpoint", "ICCLError", "ICCLFabric", "TreeTopology"]

#: barrier tokens carry nothing but their arrival: one shared envelope per
#: direction, sized as the ``("bar", rank)`` / ``("rel", rank)`` tuples
#: they stand for (a rank is an opaque 64-byte word, whatever its value)
_BAR_TOKEN = Sized("bar", message_size(("bar", 0)))
_REL_TOKEN = Sized("rel", message_size(("rel", 0)))


class ICCLError(RuntimeError):
    """Collective misuse (bad root, wrong counts, unwired fabric)."""


@dataclass(frozen=True)
class TreeTopology:
    """A rooted spanning tree over daemon ranks 0..n-1 (root = 0).

    ``children`` is normalized to ascending tuples at construction, so
    the collectives walk each rank's children in rank order without
    sorting per call.
    """

    parent: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "children",
                           tuple(tuple(sorted(c)) for c in self.children))

    @property
    def size(self) -> int:
        return len(self.parent)

    def depth(self) -> int:
        """Longest root-to-leaf path length (edges)."""
        best = 0
        for rank in range(self.size):
            d, p = 0, self.parent[rank]
            while p is not None:
                d += 1
                p = self.parent[p]
            best = max(best, d)
        return best

    def subtree(self, rank: int) -> list[int]:
        """Ranks in the subtree rooted at ``rank`` (preorder)."""
        out: list[int] = []
        stack = [rank]
        while stack:
            r = stack.pop()
            out.append(r)
            stack.extend(reversed(self.children[r]))
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def flat(cls, n: int) -> "TreeTopology":
        """Rank 0 is the parent of everyone (1-deep)."""
        if n < 1:
            raise ICCLError("topology needs at least one rank")
        parent: list[Optional[int]] = [None] + [0] * (n - 1)
        children = [tuple(range(1, n))] + [()] * (n - 1)
        return cls(tuple(parent), tuple(children))

    @classmethod
    def binomial(cls, n: int) -> "TreeTopology":
        """Binomial tree: child r+2^k under r for each valid power."""
        if n < 1:
            raise ICCLError("topology needs at least one rank")
        parent: list[Optional[int]] = [None] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for rank in range(1, n):
            # clear the lowest set bit -> parent rank
            p = rank & (rank - 1)
            parent[rank] = p
            children[p].append(rank)
        return cls(tuple(parent), tuple(map(tuple, children)))

    @classmethod
    def kary(cls, n: int, k: int) -> "TreeTopology":
        """Balanced k-ary tree in rank order."""
        if n < 1 or k < 1:
            raise ICCLError("invalid k-ary topology parameters")
        parent: list[Optional[int]] = [None] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for rank in range(1, n):
            p = (rank - 1) // k
            parent[rank] = p
            children[p].append(rank)
        return cls(tuple(parent), tuple(map(tuple, children)))

    @classmethod
    def make(cls, n: int, kind: str = "binomial", k: int = 16) -> "TreeTopology":
        if kind == "flat":
            return cls.flat(n)
        if kind == "binomial":
            return cls.binomial(n)
        if kind == "kary":
            return cls.kary(n, k)
        raise ICCLError(f"unknown topology kind {kind!r}")


class ICCLFabric:
    """The RM-provided communication substrate for one daemon set.

    Created (cheaply) at daemon-spawn time; each daemon wires its endpoint
    during BE init, which is where the paper's T(setup) cost lives
    (critical-path events e8 -> e9).
    """

    def __init__(self, sim: Simulator, network: Network, nodes: Sequence[Node],
                 topology: TreeTopology, costs: Optional[CostModel] = None,
                 rng: Optional[SeededRNG] = None,
                 per_rec_cost: float = 0.0,
                 accept_cost: float = 0.00005):
        if topology.size != len(nodes):
            raise ICCLError(
                f"topology size {topology.size} != node count {len(nodes)}")
        self.sim = sim
        self.network = network
        self.nodes = list(nodes)
        self.topology = topology
        self.costs = costs or CostModel()
        self.rng = (rng or SeededRNG(0)).child("iccl")
        self.per_rec_cost = per_rec_cost
        self.accept_cost = accept_cost
        self._endpoints = [ICCLEndpoint(self, r) for r in range(topology.size)]
        #: rendezvous stores: child connection announcements to each parent
        self._conn_store: list[Store] = [Store(sim) for _ in range(topology.size)]
        self.wired_count = 0

    @property
    def size(self) -> int:
        return self.topology.size

    def endpoint(self, rank: int) -> "ICCLEndpoint":
        return self._endpoints[rank]


class ICCLEndpoint:
    """One daemon's handle on the fabric: wireup plus the four collectives."""

    def __init__(self, fabric: ICCLFabric, rank: int):
        self.fabric = fabric
        self.rank = rank
        self._parent_end: Optional[PipeEnd] = None
        self._child_ends: dict[int, PipeEnd] = {}
        self.wired = False
        #: cumulative virtual time this endpoint spent inside collectives
        self.collective_time = 0.0

    # -- wireup (T(setup)) -------------------------------------------------
    def wireup(self) -> Generator[Any, Any, None]:
        """Connect into the tree and synchronize; collective across daemons.

        A child pays a TCP connect to its parent; a parent pays a per-accept
        processing cost for each child. Completion is a full barrier, so
        when ``wireup`` returns the entire fabric is usable.
        """
        fab = self.fabric
        topo = fab.topology
        sim = fab.sim
        my_node = fab.nodes[self.rank]
        parent = topo.parent[self.rank]
        if parent is not None:
            pipe = yield from fab.network.connect(my_node, fab.nodes[parent])
            self._parent_end = pipe.a
            yield fab._conn_store[parent].put((self.rank, pipe.b))
        for _ in topo.children[self.rank]:
            child_rank, end = yield fab._conn_store[self.rank].get()
            yield sim.timeout(fab.rng.jitter(fab.accept_cost))
            self._child_ends[child_rank] = end
        self.wired = True
        fab.wired_count += 1
        # synchronize: a barrier ensures every endpoint is wired on return
        yield from self.barrier()

    def _require_wired(self) -> None:
        if not self.wired:
            raise ICCLError(f"rank {self.rank}: fabric not wired")

    # -- collectives --------------------------------------------------------
    def barrier(self) -> Generator[Any, Any, None]:
        """Tree barrier: reduce a token to the root, then release downward."""
        start = self.fabric.sim.now
        children = self.fabric.topology.children[self.rank]
        for child in children:
            yield self._child_ends[child].recv()
        if self._parent_end is not None:
            yield self._parent_end.send(_BAR_TOKEN)
            yield self._parent_end.recv()
        for child in children:
            yield self._child_ends[child].send(_REL_TOKEN)
        self.collective_time += self.fabric.sim.now - start

    def gather(self, obj: Any) -> Generator[Any, Any, Optional[list]]:
        """Gather one object per daemon to the master (rank 0), rank order.

        Returns the full list at rank 0, None elsewhere. Root-side
        per-record processing cost models the RM fabric service.

        Each hop sends its subtree's ``(rank, obj)`` records in a
        :class:`~repro.cluster.network.Sized` envelope carrying a running
        byte count -- its own record plus each child envelope's records --
        so no hop re-walks the growing record list (same wire size).
        """
        self._require_wired()
        fab = self.fabric
        start = fab.sim.now
        records: list[tuple[int, Any]] = [(self.rank, obj)]
        nbytes = message_size(records[0])
        for child in fab.topology.children[self.rank]:
            batch = yield self._child_ends[child].recv()
            records.extend(batch.payload)
            nbytes += batch.wire_size() - SEQ_FRAMING
        # the RM fabric's per-record relay service is charged at the master
        # (rank 0), which is what makes T(collective) linear in daemon count
        if fab.per_rec_cost and self._parent_end is None and len(records) > 1:
            yield fab.sim.timeout(
                fab.rng.jitter(fab.per_rec_cost * (len(records) - 1)))
        result: Optional[list] = None
        if self._parent_end is not None:
            yield self._parent_end.send(Sized(records, SEQ_FRAMING + nbytes))
        else:
            records.sort(key=lambda kv: kv[0])
            if len(records) != fab.size:
                raise ICCLError(
                    f"gather saw {len(records)} records, expected {fab.size}")
            result = [obj for _, obj in records]
        self.collective_time += fab.sim.now - start
        return result

    def broadcast(self, obj: Any = None) -> Generator[Any, Any, Any]:
        """Broadcast from the master (rank 0); returns the object everywhere.

        The payload travels inside a :class:`~repro.cluster.network.Sized`
        envelope so its byte size is walked once at the root instead of
        once per recipient (same wire size, same timings).
        """
        self._require_wired()
        fab = self.fabric
        start = fab.sim.now
        if self._parent_end is not None:
            wrapped = yield self._parent_end.recv()
            obj = wrapped.payload
        else:
            wrapped = Sized(obj)
        for child in fab.topology.children[self.rank]:
            yield self._child_ends[child].send(wrapped)
        self.collective_time += fab.sim.now - start
        return obj

    def scatter(self, objs: Optional[Sequence[Any]] = None,
                ) -> Generator[Any, Any, Any]:
        """Scatter a per-rank list from the master; returns this rank's item.

        The root routes each subtree's slice down the matching child link;
        per-record routing cost applies at the root like gather.

        The wire carries each subtree's ``(rank, obj)`` records; the
        simulation forwards one shared per-rank list instead, in a
        :class:`~repro.cluster.network.Sized` envelope whose size the
        root computed once, bottom-up, for every subtree (same wire
        size, no per-hop slicing or re-walking).
        """
        self._require_wired()
        fab = self.fabric
        topo = fab.topology
        start = fab.sim.now
        if self._parent_end is None:
            if objs is None or len(objs) != fab.size:
                raise ICCLError(
                    f"scatter root needs exactly {fab.size} objects")
            shared = (tuple(objs), _subtree_bytes(topo, objs))
            if fab.per_rec_cost and fab.size > 1:
                yield fab.sim.timeout(
                    fab.rng.jitter(fab.per_rec_cost * (fab.size - 1)))
        else:
            wrapped = yield self._parent_end.recv()
            shared = wrapped.payload
        items, subtree_bytes = shared
        for child in topo.children[self.rank]:
            yield self._child_ends[child].send(
                Sized(shared, SEQ_FRAMING + subtree_bytes[child]))
        self.collective_time += fab.sim.now - start
        return items[self.rank]


def _subtree_bytes(topo: TreeTopology, objs: Sequence[Any]) -> list[int]:
    """Per rank, the bytes of its subtree's ``(rank, obj)`` records
    (without list framing): one sizing walk per item, summed leaves-up."""
    nbytes = [message_size((rank, obj)) for rank, obj in enumerate(objs)]
    for rank in reversed(topo.subtree(0)):  # every child before its parent
        parent = topo.parent[rank]
        if parent is not None:
            nbytes[parent] += nbytes[rank]
    return nbytes
