"""Abstract resource-manager model: allocations, jobs, daemon colocations.

A :class:`ResourceManager` owns node allocation and the two launch services
LaunchMON builds on:

* ``launch_job`` -- start a parallel application through the RM's native
  launcher process (which publishes the MPIR symbols for the APAI);
* ``spawn_daemons`` -- the *efficient daemon launch command* (Section 3.1):
  start one tool daemon per application node, reusing the RM's scalable
  launch machinery and its pre-wired communication fabric.

Daemon processes are real :class:`~repro.simx.Process` instances running the
tool's back-end body, so tool code executes concurrently with the rest of
the simulation just as real daemons would.

Allocation has two faces. :meth:`ResourceManager.allocate` is the classic
immediate grant, raising a typed :class:`AllocationError` when the cluster
lacks free nodes. :meth:`ResourceManager.allocate_async` queues the request
FIFO and suspends the caller until enough nodes are released -- this is what
lets many concurrent tool sessions (see :mod:`repro.fe.service`) block on
node contention instead of silently over-allocating the machine.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator, Optional, Sequence

from repro.simx import Event, SeededRNG, Simulator
from repro.apps import AppSpec
from repro.cluster import Cluster, Node, SimProcess
from repro.launch import (
    LaunchPolicy,
    LaunchReport,
    LaunchRequest,
    LaunchResult,
    get_strategy,
)
from repro.mpir import (
    MPIR_DEBUG_SPAWNED,
    MPIR_DEBUG_STATE,
    MPIR_PROCTABLE,
    MPIR_PROCTABLE_SIZE,
    ProcDesc,
    RPDTAB,
)

__all__ = [
    "Allocation",
    "AllocationError",
    "DaemonSpec",
    "JobState",
    "LaunchedDaemon",
    "RMError",
    "RMJob",
    "ResourceManager",
    "UnsupportedOperation",
]


class RMError(RuntimeError):
    """Resource-manager failures (no nodes, bad job state, ...)."""


class AllocationError(RMError):
    """The cluster cannot satisfy a node request.

    Raised by :meth:`ResourceManager.allocate` when too few nodes are
    currently free, and by :meth:`ResourceManager.allocate_async` when the
    request exceeds the cluster's total size (so it could never be granted).
    """


class UnsupportedOperation(RMError):
    """The platform's RM does not offer this service (e.g. daemon launch)."""


class JobState(enum.Enum):
    PENDING = "pending"
    LAUNCHING = "launching"
    STOPPED_AT_BREAKPOINT = "stopped-at-breakpoint"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Allocation:
    """A set of compute nodes granted to one request."""

    alloc_id: int
    nodes: list[Node]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class DaemonSpec:
    """What to launch on each node: executable identity plus the daemon body.

    ``main`` is the tool's daemon entry point -- a generator function taking
    the context object the launching service provides: one
    :class:`~repro.be.BEContext` per daemon, which middleware daemons
    know as :class:`~repro.mw.MWContext`. ``image_mb`` feeds
    the shared-filesystem load model: heavyweight tool stacks (MRNet + STAT)
    pay real image-distribution costs that lightweight ones (Jobsnap) avoid.
    """

    executable: str
    main: Callable[[Any], Generator]
    image_mb: float = 4.0
    args: tuple = ()
    uid: str = "user"


@dataclass
class LaunchedDaemon:
    """One spawned daemon: its process, placement and daemon rank."""

    rank: int
    node: Node
    proc: SimProcess
    sim_proc: Optional[object] = None  # the simx.Process running its body


class RMJob:
    """A launched parallel job under RM control."""

    _ids = itertools.count(1)

    def __init__(self, app: AppSpec, allocation: Allocation,
                 launcher: SimProcess):
        self.jobid = next(RMJob._ids)
        self.app = app
        self.allocation = allocation
        self.launcher = launcher
        self.tasks: list[SimProcess] = []
        self.state = JobState.PENDING
        self.daemons: list[LaunchedDaemon] = []
        #: per-phase report of the most recent daemon set spawned into this
        #: job, filed before the RM judges the set (so a rejected set's
        #: attribution is here too); a concurrent session's spawn into
        #: another job cannot overwrite it
        self.daemon_spawn_report: Optional[LaunchReport] = None
        #: the TBON overlay built over this job's daemon set, recorded by
        #: the startup path (:func:`repro.tbon.launchmon_startup`). The
        #: overlay is data plane -- node-resident routers and streams that
        #: survive a control-plane crash -- so a restarting daemon
        #: re-adopting this job finds it here rather than on the dead
        #: session object.
        self.overlay = None
        #: comm daemons' Middleware runtimes, recorded alongside
        #: ``overlay`` for the same re-adoption purpose
        self.mw_runtimes: list = []

    @property
    def hosts(self) -> list[str]:
        """The distinct task hosts in first-task order: one daemon per
        host, placed in this order."""
        return list(dict.fromkeys(t.host for t in self.tasks))

    def add_task(self, proc: SimProcess, rank: int) -> None:
        """Register a started task: stamp its rank, give it the app's
        behaviour and add it to the task set."""
        proc.memory["_rank"] = rank
        self.app.apply_behavior(proc, rank)
        self.tasks.append(proc)

    def _proc_descs(self) -> list[ProcDesc]:
        return [ProcDesc(rank=i, host_name=t.host,
                         executable_name=t.executable, pid=t.pid)
                for i, t in enumerate(self.tasks)]

    def build_proctable(self) -> RPDTAB:
        """Assemble the RPDTAB from the live task set."""
        return RPDTAB(self._proc_descs())

    def publish_mpir(self) -> None:
        """Write the MPIR symbols into the launcher's address space.

        ``MPIR_debug_state`` is SPAWNED once all tasks exist -- this is what
        makes later *attach* acquisition possible without stopping the job.
        """
        table = self._proc_descs()
        mem = self.launcher.memory
        mem[MPIR_PROCTABLE] = table
        mem[MPIR_PROCTABLE_SIZE] = len(table)
        mem[MPIR_DEBUG_STATE] = MPIR_DEBUG_SPAWNED

    def end(self, code: int = 0) -> int:
        """End the job: exit its tasks, then its daemons, then its
        launcher, and mark it COMPLETED unless it already ended. Returns
        how many of those processes were still alive (0 when called
        again)."""
        ended = 0
        for proc in (*self.tasks, *(d.proc for d in self.daemons),
                     self.launcher):
            ended += proc.alive
            proc.exit(code)
        if self.state not in (JobState.COMPLETED, JobState.FAILED):
            self.state = JobState.COMPLETED
        return ended


class _ObservedBlacklist:
    """The RM's node blacklist. The launch layer adds condemned node names
    directly to this shared object, so every membership change must reach
    the free-node index without the RM being called. It is not a ``set``:
    ``add``, ``discard`` and ``clear`` are its only mutators, and each
    keeps the index exact."""

    __slots__ = ("_names", "_rm")

    def __init__(self, rm: "ResourceManager"):
        self._names: set[str] = set()
        self._rm = rm

    def add(self, name: str) -> None:
        if name not in self._names:
            self._names.add(name)
            self._rm._index_ban(name)

    def discard(self, name: str) -> None:
        if name in self._names:
            self._names.discard(name)
            self._rm._index_unban(name)

    def clear(self) -> None:
        for name in list(self._names):
            self.discard(name)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class ResourceManager:
    """Base RM: allocation bookkeeping plus the service interface."""

    name = "abstract-rm"
    #: whether the native launcher can co-locate tool daemons scalably
    supports_daemon_launch = True
    #: whether the RM wires a fabric the ICCL can bootstrap from
    provides_fabric = True

    def __init__(self, cluster: Cluster, seed: int = 7,
                 policy: Optional[LaunchPolicy] = None,
                 launch_strategy: Optional[str] = None):
        if policy is not None and not isinstance(policy, LaunchPolicy):
            raise TypeError(
                f"policy must be a LaunchPolicy or None, got {policy!r}")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.rng = SeededRNG(seed, f"rm:{self.name}")
        #: resilience policy applied to every daemon spawn (None: each
        #: daemon is spawned once and a partial set is a hard failure)
        self.policy = policy
        #: which LaunchStrategy spawns daemon sets ("rm-bulk" default; the
        #: rsh strategies model ad-hoc platforms and the resilience sweep)
        self.launch_strategy = launch_strategy
        #: nodes condemned by exhausted launch retries; free_nodes() skips
        #: them, so a blacklisted node is never re-allocated (shared with
        #: every LaunchRequest this RM issues, which mutates it directly --
        #: hence the observed type keeping the free index in sync)
        self.node_blacklist = _ObservedBlacklist(self)
        self._alloc_ids = itertools.count(1)
        self._allocated: set[str] = set()
        # -- free-node index: grantability is tracked incrementally so an
        # allocation costs O(k log n) instead of rescanning all N nodes
        # (the scan made every allocate/queue-pump O(N), i.e. launch
        # sweeps O(N^2)). ``_free`` holds the *positions* (in
        # cluster.compute order) of grantable nodes -- not allocated, not
        # crashed, not blacklisted; ``_free_heap`` is a lazy min-heap over
        # the same positions (stale entries are skipped at pop time), so
        # grants keep the classic deterministic lowest-position-first
        # order.
        self._node_pos: dict[str, int] = {
            n.name: i for i, n in enumerate(cluster.compute)}
        self._free: set[int] = {
            i for i, n in enumerate(cluster.compute) if not n.failed}
        self._free_heap: list[int] = sorted(self._free)
        cluster.add_failure_listener(self._on_node_failed)
        self.jobs: list[RMJob] = []
        #: every allocation currently granted, by id -- the RM-side ledger.
        #: The RM outlives any tool front end (SLURM does not die with a
        #: crashed tool), so this is what a restarting control plane
        #: reconciles its checkpoint against: allocations here that no
        #: restored session claims are orphans to be reaped.
        self.live_allocations: dict[int, Allocation] = {}
        #: FIFO queue of pending async requests: (n_nodes, grant event, t_req)
        self._alloc_waiters: deque[tuple[int, Event, float]] = deque()
        #: diagnostics: per-grant queue-wait durations (async requests only)
        self.alloc_waits: list[float] = []
        #: diagnostics: high-water mark of simultaneously queued requests
        self.alloc_queue_peak = 0

    # -- allocation ---------------------------------------------------------
    @property
    def queued_requests(self) -> int:
        """Number of async allocation requests still waiting for nodes."""
        return len(self._alloc_waiters)

    @property
    def n_free(self) -> int:
        """Grantable compute nodes right now, O(1) (health snapshots --
        :meth:`free_nodes` sorts and materializes Node objects)."""
        return len(self._free)

    @property
    def n_total(self) -> int:
        """Total compute nodes behind this RM, including failed or
        blacklisted ones (capacity, not availability)."""
        return len(self.cluster.compute)

    @property
    def allocated_node_names(self) -> frozenset:
        """Names of nodes currently granted to some allocation (audits)."""
        return frozenset(self._allocated)

    def queued_request_sizes(self) -> tuple:
        """Snapshot of the async queue as ``(n_nodes, t_req)`` pairs, in
        FIFO order -- what a control-plane checkpoint records about
        pending contention (the grant events themselves are process
        state and die with their requesters)."""
        return tuple((n, t) for n, _ev, t in self._alloc_waiters)

    def free_nodes(self) -> list[Node]:
        """Compute nodes grantable to a new allocation: not currently
        allocated, not crashed, and not on the launch blacklist (a node
        condemned by exhausted spawn retries is never re-allocated within
        this RM's lifetime -- sessions must not keep rediscovering it).

        Served from the incremental free-node index (same contents and
        order as the historical full scan, without the O(N) walk on the
        allocation fast path)."""
        compute = self.cluster.compute
        return [compute[i] for i in sorted(self._free)]

    # -- free-node index maintenance -----------------------------------------
    def _index_ban(self, name: str) -> None:
        """A node became ungrantable (blacklisted): drop it from the index
        (its heap entry, if any, goes stale and is skipped at pop)."""
        pos = self._node_pos.get(name)
        if pos is not None:
            self._free.discard(pos)

    def _index_unban(self, name: str) -> None:
        """A node left the blacklist: re-index it if otherwise grantable."""
        pos = self._node_pos.get(name)
        if (pos is not None and pos not in self._free
                and name not in self._allocated
                and not self.cluster.compute[pos].failed):
            self._free.add(pos)
            heapq.heappush(self._free_heap, pos)

    def _on_node_failed(self, node: Node) -> None:
        """Cluster failure listener: a crashed node is never grantable."""
        pos = self._node_pos.get(node.name)
        if pos is not None:
            self._free.discard(pos)

    def _take_free(self, n_nodes: int) -> list[Node]:
        """Remove and return the ``n_nodes`` lowest-position free nodes.

        Callers must have checked ``len(self._free) >= n_nodes``; pops skip
        stale heap entries (positions that were allocated, crashed or
        blacklisted since being pushed)."""
        free, heap = self._free, self._free_heap
        compute = self.cluster.compute
        taken: list[Node] = []
        while len(taken) < n_nodes:
            pos = heapq.heappop(heap)
            if pos in free:
                free.discard(pos)
                taken.append(compute[pos])
        return taken

    def allocate(self, n_nodes: int) -> Allocation:
        """Grant ``n_nodes`` free compute nodes immediately (deterministic
        order), or raise :class:`AllocationError` if too few are free.

        This is the synchronous path. It refuses to overtake requests
        already waiting in the async queue -- otherwise a steady stream of
        sync callers could starve a queued session forever. Callers that
        want to *block on* contention instead of failing use
        :meth:`allocate_async`.
        """
        if self._alloc_waiters:
            raise AllocationError(
                f"{self.name}: {len(self._alloc_waiters)} request(s) already "
                f"queued ahead; use allocate_async to wait in line")
        if len(self._free) < n_nodes:
            raise AllocationError(
                f"{self.name}: requested {n_nodes} nodes, only "
                f"{len(self._free)} free of {len(self.cluster.compute)}")
        return self._grant(self._take_free(n_nodes))

    def allocate_async(self, n_nodes: int) -> Generator[Any, Any, Allocation]:
        """Queue for ``n_nodes`` nodes; a generator that waits under contention.

        Requests are granted strictly FIFO (head-of-line blocking, so a
        large request cannot starve behind a stream of small ones). When the
        nodes are free the grant happens without any virtual time passing;
        otherwise the caller suspends until enough :meth:`release` calls
        arrive. Requests larger than the whole cluster raise
        :class:`AllocationError` up front -- they could never be satisfied.
        """
        if n_nodes > len(self.cluster.compute):
            raise AllocationError(
                f"{self.name}: requested {n_nodes} nodes, cluster has only "
                f"{len(self.cluster.compute)}")
        grant = Event(self.sim)
        entry = (n_nodes, grant, self.sim.now)
        self._alloc_waiters.append(entry)
        self.alloc_queue_peak = max(self.alloc_queue_peak,
                                    len(self._alloc_waiters))
        self._pump_alloc_queue()
        try:
            alloc = yield grant
        except BaseException:
            # requester aborted while queued (or right as the grant fired):
            # withdraw the request / return the nodes so the queue cannot
            # hold entries nobody will ever consume
            try:
                # rare abort path; the waiter queue stays short
                # (bounded by concurrent allocators)
                self._alloc_waiters.remove(entry)  # simlint: allow[linear-scan]
            except ValueError:
                if grant.triggered:
                    self.release(grant.value)
            else:
                # the withdrawn entry may have been blocking the head of
                # the FIFO; requests behind it might now fit
                self._pump_alloc_queue()
            raise
        return alloc

    def withdraw_all_queued(self) -> int:
        """Drop every queued async allocation request; returns the count.

        Crash-recovery primitive: after a control-plane crash the queue
        may hold entries whose requester processes are gone -- a grant to
        one would strand its nodes forever. The restoring daemon purges
        the queue first, then resubmits the requests its checkpoint says
        are real. Only the control plane that owns this RM's allocation
        traffic may call this (it withdraws *everyone's* pending entries).
        """
        dropped = len(self._alloc_waiters)
        self._alloc_waiters.clear()
        return dropped

    def release(self, alloc: Allocation) -> None:
        self.live_allocations.pop(alloc.alloc_id, None)
        for n in alloc.nodes:
            if n.name in self._allocated:
                self._allocated.discard(n.name)
                pos = self._node_pos[n.name]
                if (pos not in self._free and not n.failed
                        and n.name not in self.node_blacklist):
                    self._free.add(pos)
                    heapq.heappush(self._free_heap, pos)
        self._pump_alloc_queue()

    def reap(self, alloc: Allocation, code: int) -> int:
        """The epilogue: end every live process on the allocation's
        nodes with ``code``, release the allocation if it is still
        granted, and return how many processes were ended (0, releasing
        nothing, when called again)."""
        ended = 0
        for node in alloc.nodes:
            for proc in node.processes_of(""):
                ended += proc.alive
                proc.exit(code)
        if alloc.alloc_id in self.live_allocations:
            self.release(alloc)
        return ended

    def _grant(self, nodes: list[Node]) -> Allocation:
        """Record ``nodes`` (already removed from the free index by
        :meth:`_take_free`) as allocated."""
        for n in nodes:
            self._allocated.add(n.name)
        alloc = Allocation(alloc_id=next(self._alloc_ids), nodes=nodes)
        self.live_allocations[alloc.alloc_id] = alloc
        return alloc

    def _pump_alloc_queue(self) -> None:
        """Grant queued async requests while the head request fits."""
        while self._alloc_waiters:
            n_nodes, grant, t_req = self._alloc_waiters[0]
            if len(self._free) < n_nodes:
                return
            self._alloc_waiters.popleft()
            self.alloc_waits.append(self.sim.now - t_req)
            grant.succeed(self._grant(self._take_free(n_nodes)))

    # -- service interface (platform-specific) -------------------------------
    def launcher_executable(self) -> str:
        raise NotImplementedError

    def create_launcher(self, app: AppSpec, alloc: Allocation,
                        ) -> Generator[Any, Any, RMJob]:
        """Fork the job's launcher process, stopped at entry."""
        raise NotImplementedError
        yield  # pragma: no cover

    def run_launcher(self, job: RMJob) -> Generator[Any, Any, RMJob]:
        """The launcher's body: start every task, publish MPIR."""
        raise NotImplementedError
        yield  # pragma: no cover

    def launch_job(self, app: AppSpec, alloc: Allocation,
                   ) -> Generator[Any, Any, RMJob]:
        """Launch ``app`` on ``alloc`` with no tracer attached: create the
        launcher, resume it and run it; returns the job with MPIR
        published. A tool that traces the launch (launchAndSpawn) drives
        :meth:`create_launcher` and :meth:`run_launcher` itself."""
        job = yield from self.create_launcher(app, alloc)
        job.launcher.resume()
        yield from self.run_launcher(job)
        return job

    def spawn_daemons(self, job: RMJob, spec: DaemonSpec,
                      context_factory: Callable[..., Any],
                      ) -> Generator[Any, Any, tuple]:
        """Co-locate one daemon per job node via the native launcher;
        returns ``(daemons, fabric)`` and files the spawn's report as
        ``job.daemon_spawn_report``.

        ``context_factory(daemon, all_daemons, fabric)`` builds the
        context object handed to ``spec.main``; the RM starts each body as
        a sim process.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def spawn_on_allocation(self, alloc: Allocation, spec: DaemonSpec,
                            context_factory: Callable[..., Any],
                            ) -> Generator[Any, Any, tuple]:
        """Launch daemons onto a fresh allocation (middleware/TBON nodes);
        returns ``(daemons, fabric, report)``, the report being this
        spawn's :class:`LaunchReport`."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared helpers ------------------------------------------------------
    def _launch_daemon_procs(self, nodes: Sequence[Node], spec: DaemonSpec,
                             job: Optional[RMJob],
                             ) -> Generator[Any, Any, LaunchResult]:
        """Fork one daemon per node through the configured launch strategy.

        Stages ``spec.image_mb`` through the cluster's storage layer (so the
        active staging mode -- shared-fs, per-node cache, or cooperative
        broadcast -- governs the image-distribution cost) and spawns
        through :attr:`launch_strategy` (``rm-bulk`` by default: all nodes
        fork in parallel). The per-phase :class:`LaunchReport` is filed as
        ``job.daemon_spawn_report`` when the set is spawned into a job,
        before the set is judged. Protocol costs the RM pays *before*
        calling this (controller bookkeeping, tree descent) should be added
        to the report's spawn phase by the caller.

        With a :class:`~repro.launch.LaunchPolicy` set, each daemon's spawn
        runs under the policy's timeout / bounded retry / blacklisting, the
        launch continues past failures, and a partial set is accepted down
        to the policy's ``min_daemon_fraction`` -- the report attributes
        every missing index. Below the fraction (or on *any* shortfall
        without a policy) the survivors are reaped and :class:`RMError`
        raises, so a failed set cannot leave orphans squatting on nodes.
        """
        policy = self.policy
        strat = get_strategy(self.launch_strategy or "rm-bulk")
        result = yield from strat.launch(LaunchRequest(
            cluster=self.cluster, nodes=nodes, executable=spec.executable,
            image_mb=spec.image_mb, args=spec.args, uid=spec.uid,
            stage_images=True, policy=policy,
            blacklist=(self.node_blacklist
                       if policy is not None and policy.blacklist_nodes
                       else None)))
        report = result.report
        report.mechanism = f"{strat.name}({self.name})"
        if job is not None:
            job.daemon_spawn_report = report
        requested = len(nodes)
        survivors = [p for p in result.procs if p.alive]
        need = (policy.min_daemons(requested)
                if policy is not None else requested)
        if len(survivors) < need:
            for p in result.procs:
                if p.alive:
                    p.exit(9)
            raise RMError(
                f"{self.name}: daemon set incomplete -- "
                f"{len(survivors)}/{requested} up (minimum {need}); "
                f"first failure: {report.failure or 'n/a'}")
        return result

    def _place_tasks(self, app: AppSpec, alloc: Allocation) -> list[tuple[Node, int]]:
        """Block placement: (node, rank) pairs, tasks_per_node per node."""
        placement: list[tuple[Node, int]] = []
        rank = 0
        for node in alloc.nodes:
            for _ in range(app.tasks_per_node):
                if rank >= app.n_tasks:
                    return placement
                placement.append((node, rank))
                rank += 1
        if rank < app.n_tasks:
            raise RMError(
                f"allocation of {len(alloc)} nodes too small for "
                f"{app.n_tasks} tasks at {app.tasks_per_node}/node")
        return placement
