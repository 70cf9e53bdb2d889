"""SLURM-style resource manager: tree launcher, APAI, fabric, debug events.

The launch protocol follows srun's architecture: the launcher process asks
the controller to set up per-node credentials (a small per-node serial
cost), fans the launch request down a fan-out tree of node daemons, and the
node daemons fork tasks locally (in parallel across nodes, serially within
one). Executable images load through the storage layer
(:class:`~repro.cluster.SharedFilesystem`), which is where most real launch
time goes; daemon co-location runs through the unified ``rm-bulk``
:class:`~repro.launch.LaunchStrategy` (the SLURM protocol costs are added
to its spawn phase), and every spawn's per-phase breakdown lives in one
place: on the job it spawned into (``RMJob.daemon_spawn_report``), or in
what ``spawn_on_allocation`` returns.

Debug-event behaviour matches the paper's account exactly: a *well-designed*
SLURM delivers a scale-independent number of events to a tracer (the paper
notes this property arose from the authors' interactions with SLURM
developers), so LaunchMON's tracing cost is the constant ~18 ms of Figure 3.
``SlurmConfig(legacy_events=True)`` restores the older one-event-per-task
behaviour for the ablation experiment.

Node allocation (both the immediate :meth:`~repro.rm.base.ResourceManager.allocate`
and the queued :meth:`~repro.rm.base.ResourceManager.allocate_async` used by
multi-tenant tool services) is inherited unchanged from the base RM: SLURM's
controller hands out nodes FIFO under contention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence

from repro.cluster import Cluster, Node
from repro.cluster.process import DebugEvent, DebugEventType, ProcState
from repro.mpir.symbols import MPIR_BEING_DEBUGGED
from repro.rm.base import (
    Allocation,
    DaemonSpec,
    JobState,
    LaunchedDaemon,
    ResourceManager,
    RMError,
    RMJob,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps import AppSpec
    from repro.be.iccl import ICCLFabric
    from repro.launch import LaunchReport

__all__ = ["SlurmConfig", "SlurmRM"]


@dataclass(frozen=True)
class SlurmConfig:
    """Tunable protocol costs for the SLURM model (seconds)."""

    #: fan-out of the launch message tree
    fanout: int = 16
    #: per-tree-level message + processing cost
    hop_cost: float = 0.0015
    #: fixed controller + srun work to start a job launch
    ctl_job_setup: float = 0.055
    #: controller per-node credential/bookkeeping cost (job launch)
    ctl_per_node_job: float = 0.0005
    #: fixed controller work to co-locate a daemon set
    ctl_daemon_setup: float = 0.028
    #: controller per-node cost for daemon launch
    ctl_per_node_daemon: float = 0.0004
    #: node count beyond which the controller saturates (Fig 5's last doubling)
    ctl_congestion_threshold: int = 512
    #: extra per-node cost beyond the congestion threshold
    ctl_congestion_per_node: float = 0.0008
    #: per-task PMI wireup contribution during job launch
    pmi_per_task: float = 0.00002
    #: RM fabric's per-record service cost inside ICCL collectives
    fabric_per_rec: float = 0.0003
    #: ICCL topology the fabric is wired with
    iccl_topology: str = "binomial"
    #: debug events a tracer sees for one launch (scale-independent):
    #: EXEC, ``debug_event_count - 2`` helper FORKs and MPIR_Breakpoint
    debug_event_count: int = 12
    #: legacy mode: additionally one FORK event per task
    legacy_events: bool = False


class SlurmRM(ResourceManager):
    """The Simple Linux Utility for Resource Management, as on Atlas."""

    name = "slurm"
    supports_daemon_launch = True
    provides_fabric = True

    def __init__(self, cluster: Cluster, config: Optional[SlurmConfig] = None,
                 seed: int = 7, **rm_kwargs: Any):
        super().__init__(cluster, seed=seed, **rm_kwargs)
        self.config = config or SlurmConfig()

    def launcher_executable(self) -> str:
        return "srun"

    # -- job launch ---------------------------------------------------------
    def create_launcher(self, app: AppSpec, alloc: Allocation,
                        ) -> Generator[Any, Any, RMJob]:
        """Fork the launcher process, stopped at entry (debugger-style).

        The caller either attaches a tracer and resumes it (launchAndSpawn)
        or resumes it directly (plain job launch).
        """
        fe = self.cluster.front_end
        launcher = yield from fe.fork_exec(
            self.launcher_executable(),
            args=(app.executable, f"-n{app.n_tasks}"),
            image_mb=self.cluster.costs.launcher_image_mb)
        launcher.stop()
        job = RMJob(app, alloc, launcher)
        job.state = JobState.PENDING
        self.jobs.append(job)
        return job

    def run_launcher(self, job: RMJob) -> Generator[Any, Any, RMJob]:
        """The launcher's main body: the full job-launch protocol.

        Run this as a sim process. If a tracer is attached, the launcher
        stops at each debug event and at MPIR_Breakpoint, resuming when the
        tracer continues it -- which is precisely how tracing cost becomes
        additive to T(job) in the paper's Region A.
        """
        cfg = self.config
        sim = self.sim
        launcher = job.launcher
        app = job.app
        nodes = [n for n, _ in self._group_placement(app, job.allocation)]

        if launcher.state is ProcState.STOPPED:
            yield launcher.wait_resumed()
        job.state = JobState.LAUNCHING
        yield from self._emit_and_wait(launcher, DebugEventType.EXEC)

        # controller: allocation validation + per-node credentials
        n = len(nodes)
        yield sim.timeout(self.rng.jitter(
            cfg.ctl_job_setup + cfg.ctl_per_node_job * n))

        # a handful of internal helper forks, visible to a tracer
        for _ in range(max(0, cfg.debug_event_count - 2)):
            yield from self._emit_and_wait(launcher, DebugEventType.FORK)

        # fan-out tree descent to the node daemons
        yield sim.timeout(self._tree_descent_time(n))

        # parallel per-node: image load + local task forks
        spawners = [
            sim.process(self._spawn_tasks_on(node, ranks, app, job),
                        name=f"slurmd:{node.name}")
            for node, ranks in self._group_placement(app, job.allocation)
        ]
        barrier = sim.all_of(spawners)
        try:
            yield barrier
        except BaseException:
            # the launch was aborted under us (e.g. the driving tool
            # operation was torn down mid-launch): stop the per-node
            # spawners so no straggler keeps forking tasks onto nodes
            # that are about to be released -- and defuse both the
            # workers and the barrier, which otherwise detonate when
            # the interrupted workers' failures complete a composite
            # nobody observes any more
            barrier.defuse()
            for s in spawners:
                s.defuse()
                if s.is_alive:
                    s.interrupt("job launch aborted")
            job.state = JobState.FAILED
            # srun dies on a failed launch: the exit emits an EXITED
            # debug event, so an attached tracer (the engine's poll
            # loop) observes the abort as RM_EXITED instead of hanging
            if launcher.alive:
                launcher.exit(1)
            raise
        job.tasks.sort(key=lambda t: t.memory.get("_rank", 0))

        if cfg.legacy_events:
            # pre-fix SLURM: the launcher reports one event per task
            for _ in range(app.n_tasks):
                yield from self._emit_and_wait(launcher, DebugEventType.FORK)

        # PMI wireup of the application's own fabric
        yield sim.timeout(self.rng.jitter(cfg.pmi_per_task * app.n_tasks))

        job.publish_mpir()
        if launcher.memory.get(MPIR_BEING_DEBUGGED, 0):
            job.state = JobState.STOPPED_AT_BREAKPOINT
            yield from self._emit_and_wait(
                launcher, DebugEventType.BREAKPOINT, detail="MPIR_Breakpoint")
        job.state = JobState.RUNNING
        return job

    # -- daemon launch ---------------------------------------------------------
    def spawn_daemons(self, job: RMJob, spec: DaemonSpec,
                      context_factory: Callable[..., Any],
                      ) -> Generator[Any, Any, tuple[list[LaunchedDaemon], ICCLFabric]]:
        """Co-locate one tool daemon per node of a running job (e5 -> e6)."""
        if job.state not in (JobState.RUNNING, JobState.STOPPED_AT_BREAKPOINT):
            raise RMError(f"job {job.jobid} not launchable-into: {job.state}")
        nodes = [self.cluster.node(h) for h in job.hosts]
        daemons, fabric, _report = yield from self._spawn_set(
            nodes, spec, context_factory, job)
        job.daemons.extend(daemons)
        return daemons, fabric

    def spawn_on_allocation(self, alloc: Allocation, spec: DaemonSpec,
                            context_factory: Callable[..., Any],
                            ) -> Generator[Any, Any, tuple[list[LaunchedDaemon], ICCLFabric, LaunchReport]]:
        """Launch middleware daemons onto a dedicated allocation; returns
        ``(daemons, fabric, report)``."""
        return (yield from self._spawn_set(
            alloc.nodes, spec, context_factory, None))

    # -- internals ---------------------------------------------------------------
    def _spawn_set(self, nodes: Sequence[Node], spec: DaemonSpec,
                   context_factory: Callable[..., Any],
                   job: Optional[RMJob],
                   ) -> Generator[Any, Any, tuple[list[LaunchedDaemon], ICCLFabric, LaunchReport]]:
        from repro.be.iccl import ICCLFabric, TreeTopology

        cfg = self.config
        sim = self.sim
        n = len(nodes)
        if n == 0:
            raise RMError("empty daemon node set")
        t0 = sim.now

        # transient launcher for the daemon set
        launcher = yield from self.cluster.front_end.fork_exec(
            self.launcher_executable(), args=(spec.executable,),
            image_mb=self.cluster.costs.launcher_image_mb)

        # controller bookkeeping, with saturation beyond the threshold
        extra = max(0, n - cfg.ctl_congestion_threshold)
        yield sim.timeout(self.rng.jitter(
            cfg.ctl_daemon_setup + cfg.ctl_per_node_daemon * n
            + cfg.ctl_congestion_per_node * extra))

        yield sim.timeout(self._tree_descent_time(n))
        protocol_overhead = sim.now - t0

        # per-node image staging + parallel fork via the unified launch
        # layer; a failed set is reaped by the strategy, the transient
        # launcher is this RM's to retire
        try:
            result = yield from self._launch_daemon_procs(nodes, spec, job)
        except BaseException:
            if launcher.alive:
                launcher.exit(9)
            raise
        result.report.t_spawn += protocol_overhead
        result.report.total += protocol_overhead

        # pair surviving daemons with their nodes by request index: a
        # policy-driven launch may return a partial set (failed indices are
        # attributed in the report), and a daemon whose node crashed
        # between spawn and now must not get a body started on it
        pairs = [(node, result.slots[i]) for i, node in enumerate(nodes)
                 if result.slots.get(i) is not None
                 and result.slots[i].alive]
        for i in result.slots:
            if not result.slots[i].alive:
                # spawned but died before the set assembled (node crash
                # between fork and fabric wireup): attribute the loss
                result.report.outcomes[i] = "lost"
        result.report.n_daemons = len(pairs)
        live_nodes = [node for node, _ in pairs]
        topo = TreeTopology.make(len(pairs), cfg.iccl_topology)
        fabric = ICCLFabric(
            sim, self.cluster.network, live_nodes, topo,
            costs=self.cluster.costs, rng=self.rng,
            per_rec_cost=cfg.fabric_per_rec)
        daemons = [LaunchedDaemon(rank=rank, node=node, proc=proc)
                   for rank, (node, proc) in enumerate(pairs)]
        for d in daemons:
            ctx = context_factory(d, daemons, fabric)
            d.sim_proc = sim.process(
                spec.main(ctx), name=f"{spec.executable}[{d.rank}]")
            d.node.register_body(d.sim_proc)
        launcher.exit(0)
        return daemons, fabric, result.report

    def _tree_descent_time(self, n: int) -> float:
        depth = max(1, math.ceil(math.log(max(2, n), self.config.fanout)))
        return self.rng.jitter(depth * self.config.hop_cost)

    def _group_placement(self, app: AppSpec, alloc: Allocation,
                         ) -> list[tuple[Node, list[int]]]:
        groups: dict[str, tuple[Node, list[int]]] = {}
        for node, rank in self._place_tasks(app, alloc):
            groups.setdefault(node.name, (node, []))[1].append(rank)
        return list(groups.values())

    def _spawn_tasks_on(self, node: Node, ranks: list[int], app: AppSpec,
                        job: RMJob):
        """slurmd body: load the app image once, then fork each local task."""
        yield from self.cluster.fs.load_image(app.image_mb, node=node,
                                              key=app.executable)
        for rank in ranks:
            proc = yield from node.fork_exec(
                app.executable, args=(f"rank={rank}",), image_mb=0.0)
            job.add_task(proc, rank)

    def _emit_and_wait(self, launcher, etype: DebugEventType,
                       detail: Any = None):
        """Deliver a debug event and stop until the tracer continues us."""
        if launcher.traced_by is not None:
            launcher.stop()
            launcher.emit_debug_event(
                DebugEvent(etype, launcher.pid, detail))
            yield launcher.wait_resumed()
        return
        yield  # pragma: no cover
