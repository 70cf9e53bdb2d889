"""Cluster assembly: front-end node, compute partition, network, shared FS.

The storage layer (:class:`SharedFilesystem`) models how executable images
reach compute nodes -- the paper's dominant launch cost at scale.  Three
*staging modes* are supported:

``shared-fs``
    The classic model: every image load pulls the full image through the
    shared parallel filesystem's ``fs_servers`` slots, serializing beyond
    that.  This is the linear-in-node-count term of Figure 6 and the
    default (it reproduces the paper's measured curves exactly).
``cache``
    Per-node image caches: the first load of an image on a node pays the
    shared-FS cost and warms the node's cache; later loads on that node
    cost only a page-cache hit.  Cold launches are unchanged; *re*-launches
    onto warm nodes skip the filesystem entirely.
``broadcast``
    Cooperative broadcast staging (the mass-deployment playbook): one
    shared-FS read seeds a single node, then the image spreads node-to-node
    down a distribution tree -- every node that has the image re-serves it
    -- turning the O(N) shared-FS component into O(log N).  Nodes staged
    this way are cache-warm afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from repro.simx import Resource, SeededRNG, Simulator
from repro.cluster.costs import CostModel
from repro.cluster.faults import FaultInjector, FaultPlan, FaultStats
from repro.cluster.network import Network
from repro.cluster.node import Node

__all__ = ["Cluster", "ClusterSpec", "STAGING_MODES", "SharedFilesystem",
           "StagingError"]

#: the storage layer's image staging modes (see module docstring)
STAGING_MODES = ("shared-fs", "cache", "broadcast")


class StagingError(ValueError):
    """Unknown staging mode or malformed staging request."""


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and policy of a simulated cluster.

    The defaults model Atlas: 8 cores/node, identical front-end and compute
    software stacks, rshd available everywhere. ``fe_max_user_procs`` bounds
    one user's concurrent processes on the front-end node; the default of 400
    lets the 256-daemon ad-hoc launch succeed and the 512-daemon one fail,
    matching Figure 6. MPP-style variants set ``compute_rshd=False``.
    ``staging_mode`` selects how daemon images reach the nodes (see the
    module docstring); ``shared-fs`` is the paper's measured behaviour.
    ``fault_plan`` attaches a :class:`~repro.cluster.faults.FaultPlan`
    (node crashes, stragglers, link flaps, FS stalls); None -- the default
    -- is the empty plan, which schedules nothing and draws nothing.
    """

    n_compute: int = 128
    cores_per_node: int = 8
    fe_max_user_procs: int = 400
    compute_max_user_procs: int = 4096
    compute_rshd: bool = True
    fe_name: str = "atlas-fe"
    compute_prefix: str = "atlas"
    fs_servers: int = 1
    staging_mode: str = "shared-fs"
    bcast_fanout: int = 0  # 0 = take CostModel.bcast_fanout
    fault_plan: Optional[FaultPlan] = None
    seed: int = 1


class SharedFilesystem:
    """The image storage layer: a contended parallel FS plus staging modes.

    Loading a daemon binary (plus its libraries) pulls ``image_mb`` through a
    shared service with ``fs_servers`` independent servers; concurrent loads
    beyond that serialize. This produces the linear-in-node-count startup
    component characteristic of heavyweight daemon launches (STAT+MRNet's
    ~10 ms/node in Figure 6), while lightweight daemons (Jobsnap's ~500-line
    back end) stay cheap.

    In ``cache``/``broadcast`` modes the layer additionally keeps a per-node
    record of which image keys are resident, so warm nodes skip the shared
    FS; :meth:`stage_images` distributes one image onto a whole node set
    according to the active mode.
    """

    def __init__(self, sim: Simulator, costs: CostModel, rng: SeededRNG,
                 servers: int = 1, staging: str = "shared-fs",
                 bcast_fanout: int = 0):
        if staging not in STAGING_MODES:
            raise StagingError(
                f"unknown staging mode {staging!r}; one of {STAGING_MODES}")
        self.sim = sim
        self.costs = costs
        self.rng = rng.child("sharedfs")
        self._servers = Resource(sim, capacity=max(1, servers), name="fs")
        self.staging = staging
        self.bcast_fanout = max(2, bcast_fanout or costs.bcast_fanout)
        #: brown-out windows ``(t0, t1)`` in virtual time: a read starting
        #: inside one stalls until it ends. A cluster's fault injector adds
        #: them when it arms and counts the stalls in its own statistics.
        self.stall_windows: list[tuple] = []
        self.stall_stats = FaultStats()
        #: node name -> set of image keys resident in that node's cache
        self._node_cache: dict[str, set[str]] = {}
        self.loads = 0
        self.bytes_served = 0.0
        #: cumulative virtual time the FS servers spent serving image loads
        self.busy_time = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.broadcasts = 0
        #: bytes moved node-to-node by cooperative broadcast (not FS bytes)
        self.bytes_broadcast = 0.0

    # -- cache bookkeeping ---------------------------------------------------
    def is_cached(self, node: "Node | str", key: str) -> bool:
        """Whether ``key``'s image is warm in ``node``'s local cache."""
        name = node if isinstance(node, str) else node.name
        return key in self._node_cache.get(name, ())

    def _mark_cached(self, node: "Node | str", key: str) -> None:
        name = node if isinstance(node, str) else node.name
        self._node_cache.setdefault(name, set()).add(key)

    def invalidate(self, key: Optional[str] = None) -> None:
        """Drop ``key`` from every node cache (all keys when None)."""
        if key is None:
            self._node_cache.clear()
            return
        for cached in self._node_cache.values():
            cached.discard(key)

    # -- single-image load ---------------------------------------------------
    def load_image(self, image_mb: float, node: Optional["Node"] = None,
                   key: Optional[str] = None) -> Generator[Any, Any, None]:
        """Load one executable image; serializes on FS server capacity.

        With ``node`` and ``key`` given and a caching staging mode active, a
        warm node serves the image from its local cache (no FS traffic); a
        miss pays the shared-FS cost and warms the cache. In ``shared-fs``
        mode the hints are ignored and every load hits the filesystem --
        exactly the classic behaviour.

        Interrupt-safe: a loader interrupted while queued for (or holding)
        a server slot returns it, so an aborted daemon spawn cannot wedge
        the filesystem for every later launch.
        """
        if image_mb <= 0:
            return
        caching = (self.staging != "shared-fs"
                   and node is not None and key is not None)
        if caching and self.is_cached(node, key):
            self.cache_hits += 1
            yield self.sim.timeout(self.rng.jitter(self.costs.cache_hit))
            return
        yield from self._fs_read(image_mb)
        if caching:
            self.cache_misses += 1
            self._mark_cached(node, key)

    def _fs_read(self, image_mb: float) -> Generator[Any, Any, None]:
        """One serialized read of the full image through an FS server slot."""
        req = self._servers.request()
        try:
            yield req
        except BaseException:
            self._servers.cancel(req)
            raise
        try:
            # per-daemon launch timeouts are the escape from a brown-out
            stall = self._stall_remaining()
            if stall > 0.0:
                yield self.sim.timeout(stall)
            nbytes = image_mb * 1024 * 1024
            self.loads += 1
            self.bytes_served += nbytes
            cost = self.rng.jitter(
                self.costs.fs_open + nbytes / self.costs.fs_bandwidth, 0.04)
            self.busy_time += cost
            yield self.sim.timeout(cost)
        finally:
            self._servers.release()

    def _stall_remaining(self) -> float:
        """Seconds a read starting now must stall (0 outside every stall
        window)."""
        now = self.sim.now
        remaining = 0.0
        for t0, t1 in self.stall_windows:
            if t0 <= now < t1:
                remaining = max(remaining, t1 - now)
        if remaining > 0.0:
            self.stall_stats.fs_stalled_loads += 1
            self.stall_stats.fs_stall_time += remaining
        return remaining

    # -- bulk staging ---------------------------------------------------------
    def stage_images(self, nodes: Sequence["Node"], image_mb: float,
                     key: str) -> Generator[Any, Any, None]:
        """Stage one image onto every node in ``nodes`` per the active mode.

        ``shared-fs``/``cache``: one :meth:`load_image` per node (misses
        serialize through the FS servers, warm nodes hit their caches).
        ``broadcast``: one FS read seeds the first cold node, then the image
        spreads through a cooperative node-to-node distribution tree.
        """
        if image_mb <= 0 or not nodes:
            return
        if self.staging == "broadcast":
            yield from self._broadcast(nodes, image_mb, key)
            return
        for node in nodes:
            yield from self.load_image(image_mb, node=node, key=key)

    def _broadcast(self, nodes: Sequence["Node"], image_mb: float,
                   key: str) -> Generator[Any, Any, None]:
        """Cooperative broadcast: 1 FS read + tree-structured distribution.

        Every node holding the image re-serves it to up to ``fanout - 1``
        cold nodes per round, so the cold set shrinks geometrically: the
        shared-FS term is paid once and the network term is O(log N) rounds
        of parallel point-to-point copies.
        """
        missing = [n for n in nodes if not self.is_cached(n, key)]
        hits = len(nodes) - len(missing)
        if hits:
            self.cache_hits += hits
        if not missing:
            yield self.sim.timeout(self.rng.jitter(self.costs.cache_hit))
            return
        self.cache_misses += len(missing)
        self.broadcasts += 1
        # one shared-FS read seeds the root of the distribution tree
        yield from self._fs_read(image_mb)
        self._mark_cached(missing[0], key)
        nbytes = image_mb * 1024 * 1024
        c = self.costs
        have, cold = 1, len(missing) - 1
        fanout = self.bcast_fanout
        staged = 1
        while cold > 0:
            fresh = min(have * (fanout - 1), cold)
            # each holder pushes to its children; pushes beyond one per
            # holder serialize on the holder's NIC within the round
            pushes = -(-fresh // have)  # ceil
            round_cost = (c.tcp_connect + c.bcast_hop_overhead
                          + pushes * (c.net_latency + c.msg_overhead
                                      + nbytes / c.net_bandwidth))
            yield self.sim.timeout(self.rng.jitter(round_cost, 0.04))
            self.bytes_broadcast += fresh * nbytes
            for n in missing[staged:staged + fresh]:
                self._mark_cached(n, key)
            staged += fresh
            have += fresh
            cold -= fresh


class Cluster:
    """A complete simulated machine.

    ``front_end`` hosts tool front ends and RM launcher processes; the
    ``compute`` list holds the application partition. ``fs`` models the
    shared parallel filesystem all nodes boot executables from (plus the
    cache/broadcast staging modes layered on it).
    """

    def __init__(self, sim: Simulator, spec: Optional[ClusterSpec] = None,
                 costs: Optional[CostModel] = None):
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.costs = costs or CostModel()
        self.rng = SeededRNG(self.spec.seed, "cluster")
        self.network = Network(sim, self.costs, self.rng)
        self.fs = SharedFilesystem(sim, self.costs, self.rng,
                                   servers=self.spec.fs_servers,
                                   staging=self.spec.staging_mode,
                                   bcast_fanout=self.spec.bcast_fanout)
        self.front_end = Node(
            sim, self.spec.fe_name, cores=self.spec.cores_per_node,
            costs=self.costs, rng=self.rng,
            max_user_procs=self.spec.fe_max_user_procs,
            rshd_enabled=True, cluster=self)
        self.compute: list[Node] = [
            Node(sim, f"{self.spec.compute_prefix}{i:04d}",
                 cores=self.spec.cores_per_node, costs=self.costs,
                 rng=self.rng,
                 max_user_procs=self.spec.compute_max_user_procs,
                 rshd_enabled=self.spec.compute_rshd, cluster=self)
            for i in range(self.spec.n_compute)
        ]
        self._by_name = {n.name: n for n in [self.front_end, *self.compute]}
        #: callbacks invoked as fn(node) when any node fails -- resource
        #: managers subscribe to keep their free-node indexes exact
        self._failure_listeners: list = []
        #: fault injector; without a plan it runs the empty one
        self.faults = FaultInjector(self, self.spec.fault_plan or FaultPlan())
        if self.faults.plan.auto_arm:
            self.faults.arm()

    # -- failure notification ------------------------------------------------
    def add_failure_listener(self, fn) -> None:
        """Subscribe ``fn(node)`` to node-failure events (fired once per
        node, from :meth:`Node.fail`)."""
        self._failure_listeners.append(fn)

    def notify_node_failed(self, node: Node) -> None:
        """Called by :meth:`Node.fail`; fans out to the listeners."""
        for fn in self._failure_listeners:
            fn(node)

    # -- lookup -----------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up any node (front end or compute) by hostname."""
        return self._by_name[name]

    @property
    def nodes(self) -> list[Node]:
        """All nodes, front end first."""
        return [self.front_end, *self.compute]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster fe={self.front_end.name} "
                f"compute={len(self.compute)} nodes>")
